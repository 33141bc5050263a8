import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbench.fileio import (
    CSV_SCHEMA,
    ROW_FIELDS,
    load_network,
    network_from_dict,
    network_to_dict,
    read_rows,
    rows_to_csv,
    save_network,
    tree_dump,
    write_rows,
)
from bnbench.generate import GenParams, random_case
from bnbench.network import NetworkError, validate


class TestNetworkRoundTrip:
    def test_chest(self, tmp_path, chest, chest_evidence):
        path = tmp_path / "net.json"
        save_network(str(path), chest, chest_evidence)
        net, ev = load_network(str(path))
        assert net.arcs == chest.arcs
        assert [v.name for v in net.variables] == [v.name for v in chest.variables]
        for vid in chest.cpts:
            np.testing.assert_array_equal(net.cpts[vid].values, chest.cpts[vid].values)
            assert net.cpts[vid].domain == chest.cpts[vid].domain
        assert sorted(ev) == sorted(chest_evidence)
        for vid in ev:
            np.testing.assert_array_equal(ev[vid], chest_evidence[vid])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_random_networks(self, seed, n):
        params = GenParams(n=n, c2=3, m=4, p=2, seed=seed)
        net, ev = random_case(params, 0)
        back, ev2 = network_from_dict(network_to_dict(net, ev))
        assert validate(back) == []
        assert back.arcs == net.arcs
        for vid in net.cpts:
            np.testing.assert_array_equal(back.cpts[vid].values, net.cpts[vid].values)
        assert sorted(ev2) == sorted(ev)

    def test_save_is_deterministic(self, tmp_path, chest, chest_evidence):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(str(a), chest, chest_evidence)
        save_network(str(b), chest, chest_evidence)
        assert a.read_bytes() == b.read_bytes()

    def test_state_labels_override(self, chest):
        doc = network_to_dict(chest, state_labels={0: ["yes", "no"]})
        assert doc["variables"][0]["states"] == ["yes", "no"]
        assert doc["variables"][1]["states"] == ["s0", "s1"]


class TestNetworkErrors:
    def test_missing_cpt(self, chest):
        doc = network_to_dict(chest)
        del doc["cpts"]["A"]
        with pytest.raises(NetworkError):
            network_from_dict(doc)

    def test_duplicate_name(self, chest):
        doc = network_to_dict(chest)
        doc["variables"][1]["name"] = "A"
        with pytest.raises(NetworkError):
            network_from_dict(doc)

    def test_arc_to_unknown_variable(self, chest):
        doc = network_to_dict(chest)
        doc["arcs"].append(["A", "nosuch"])
        with pytest.raises(NetworkError):
            network_from_dict(doc)

    def test_evidence_on_unknown_variable(self, chest):
        doc = network_to_dict(chest)
        doc["evidence"] = {"nosuch": [1.0, 0.0]}
        with pytest.raises(NetworkError):
            network_from_dict(doc)

    def test_missing_top_level_key(self):
        with pytest.raises(NetworkError):
            network_from_dict({"variables": []})

    @pytest.mark.parametrize(
        "key, name, values, message",
        [
            ("cpts", "A", [True, False], "CPT of variable 'A' holds a boolean, not a number"),
            ("cpts", "T", [[0.05, 0.95], [0.01, True]], "CPT of variable 'T' holds a boolean, not a number"),
            ("evidence", "A", [True, False], "evidence on variable 'A' holds a boolean, not a number"),
            ("evidence", "D", [1, False], "evidence on variable 'D' holds a boolean, not a number"),
        ],
        ids=["cpt", "nested-cpt", "evidence", "mixed-evidence"],
    )
    def test_booleans_are_no_numbers(self, chest, chest_evidence, key, name, values, message):
        doc = network_to_dict(chest, chest_evidence)
        doc[key][name] = values
        with pytest.raises(NetworkError) as info:
            network_from_dict(doc)
        assert str(info.value) == message

    def test_malformed_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(NetworkError):
            load_network(str(bad))


class TestRows:
    def _rows(self):
        row = {k: 0 for k in ROW_FIELDS}
        row.update(trial=0, arch="ls", tree="junction", adds=7, mults=9, divs=2)
        other = dict(row, arch="ss", divs=0)
        return [row, other]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(str(path), self._rows())
        back = read_rows(str(path))
        assert len(back) == 2
        assert back[0]["arch"] == "ls"
        assert back[0]["adds"] == "7"
        assert back[1]["divs"] == "0"

    def test_schema_header_present(self):
        text = rows_to_csv(self._rows())
        lines = text.splitlines()
        assert lines[0] == "# %s" % CSV_SCHEMA
        assert lines[1].split(",") == ROW_FIELDS

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "alien.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(NetworkError):
            read_rows(str(path))

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("# %s\na,b\n1,2\n" % CSV_SCHEMA)
        with pytest.raises(NetworkError):
            read_rows(str(path))

    def test_byte_identical(self):
        assert rows_to_csv(self._rows()) == rows_to_csv(self._rows())


class TestTreeDump:
    def test_chest_junction_dump(self, chest, chest_comp):
        names = {v.id: v.name for v in chest.variables}
        text = tree_dump(chest_comp.junction, [p.domain for p in chest_comp.potentials], names)
        lines = text.splitlines()
        assert lines[0] == "junction tree: 6 nodes, 5 edges"
        assert lines[1] == "node 0: {A,T} statespace=4 potentials=[0, 2, 8]"
        assert "edge (2,3): separator {E} statespace=2" in lines

    def test_dump_without_names_uses_ids(self, chest_comp):
        text = tree_dump(chest_comp.junction, [p.domain for p in chest_comp.potentials])
        assert "node 0: {0,2} statespace=4" in text
