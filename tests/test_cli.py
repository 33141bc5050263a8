import json
import weakref

import numpy as np
import pytest

from bnbench import cli
from bnbench.cli import main
from bnbench.fileio import load_network


@pytest.fixture()
def chest_file(tmp_path):
    path = tmp_path / "chest.json"
    assert main(["fixture", "--name", "chest", "--out", str(path)]) == 0
    return str(path)


def _edited_chest(chest_file, tmp_path, edit):
    """Path of a copy of the chest network file after ``edit(doc)``."""
    with open(chest_file) as fp:
        doc = json.load(fp)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFixture:
    def test_chest_round_trips(self, tmp_path, capsys):
        path = tmp_path / "chest.json"
        assert main(["fixture", "--name", "chest", "--out", str(path)]) == 0
        assert "8 variables, 2 evidence" in capsys.readouterr().out

    def test_no_evidence_flag(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        assert main(["fixture", "--name", "chest", "--out", str(path), "--no-evidence"]) == 0
        assert "0 evidence" in capsys.readouterr().out

    def test_two_sensor_fixture(self, tmp_path, capsys):
        path = tmp_path / "f9.json"
        assert main(["fixture", "--name", "figure9", "--out", str(path)]) == 0
        assert main(["verify", "--network", str(path)]) == 0


class TestCompile:
    def test_prints_structures(self, chest_file, capsys):
        assert main(["compile", "--network", chest_file]) == 0
        out = capsys.readouterr().out
        assert "elimination order: A, X, T, D, S, L, B, E" in out
        assert "junction tree verification: ok" in out
        assert "binary tree verification: ok" in out
        assert "junction tree: 6 nodes, 5 edges" in out
        assert "binary tree: 20 nodes, 19 edges" in out

    def test_writes_dump_files(self, chest_file, tmp_path, capsys):
        outdir = tmp_path / "dumps"
        assert main(["compile", "--network", chest_file, "--out", str(outdir)]) == 0
        assert (outdir / "junction.txt").exists()
        assert (outdir / "binary.txt").exists()
        text = (outdir / "junction.txt").read_text()
        assert text.startswith("junction tree: 6 nodes, 5 edges")


class TestInfer:
    def test_text_counts_all_architectures(self, chest_file, capsys):
        assert main(["infer", "--network", chest_file]) == 0
        out = capsys.readouterr().out
        assert "arch=ls tree=junction adds=72 mults=96 divs=32 total=200" in out
        assert "arch=hugin tree=junction adds=60 mults=96 divs=16 total=172" in out
        assert "arch=ss tree=binary adds=56 mults=124 divs=0 total=180" in out
        assert "P(A|ls) = 1.000000 0.000000" in out

    def test_tree_override(self, chest_file, capsys):
        assert main(["infer", "--network", chest_file, "--arch", "ss", "--tree", "junction"]) == 0
        assert "arch=ss tree=junction adds=60 mults=140 divs=0 total=200" in capsys.readouterr().out

    def test_target_selection(self, chest_file, capsys):
        assert main(["infer", "--network", chest_file, "--arch", "hugin", "--targets", "T,L"]) == 0
        out = capsys.readouterr().out
        assert "P(T|hugin)" in out and "P(L|hugin)" in out
        assert "P(X|hugin)" not in out

    def test_unknown_target_is_usage_error(self, chest_file, capsys):
        assert main(["infer", "--network", chest_file, "--targets", "nosuch"]) == 2

    def test_repeated_target_is_usage_error(self, chest_file, capsys):
        argv = ["infer", "--network", chest_file, "--targets", "A,T, A", "--storage"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "target variable 'A' listed twice" in err
        assert out == ""

    def test_csv_format(self, chest_file, capsys):
        assert main(["infer", "--network", chest_file, "--arch", "hugin", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# bnbench-marginals-1"
        assert lines[1] == "arch,tree,variable,state,probability"
        assert lines[2].startswith("hugin,junction,A,0,")

    def test_markdown_format(self, chest_file, capsys):
        assert main(["infer", "--network", chest_file, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| arch | tree | adds | mults | divs | total |" in out
        assert "| hugin | junction | 60 | 96 | 16 | 172 |" in out

    def test_storage_with_csv_is_usage_error(self, chest_file, capsys):
        assert main(["infer", "--network", chest_file, "--format", "csv", "--storage"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--storage does not go with --format csv" in captured.err

    def test_storage_lines(self, chest_file, capsys):
        assert main(["infer", "--network", chest_file, "--arch", "ss", "--storage"]) == 0
        out = capsys.readouterr().out
        assert (
            "storage arch=ss input=36 evidence=4 clique=0 separator=102 "
            "output=16 total=158 peak=8" in out
        )


class TestVerify:
    def test_passes_on_chest(self, chest_file, capsys):
        assert main(["verify", "--network", chest_file]) == 0
        out = capsys.readouterr().out
        assert "verification passed" in out
        assert out.count("within tolerance") == 3

    def test_corrupted_engine_detected(self, chest_file, monkeypatch, capsys):
        ss_run = cli.RUNNERS["ss"]

        def corrupt_ss(*args):
            res = ss_run(*args)
            for pot in res.singleton_marginals.values():
                pot.values += 1e-3
            return res

        monkeypatch.setitem(cli.RUNNERS, "ss", corrupt_ss)
        assert main(["verify", "--network", chest_file]) == 1
        out = capsys.readouterr().out
        assert "EXCEEDS" in out
        assert "verification FAILED" in out

    def test_oracle_cap_refusal(self, chest_file, capsys):
        assert main(["verify", "--network", chest_file, "--oracle-cap", "8"]) == 2

    def test_missing_file(self, capsys):
        assert main(["verify", "--network", "/does/not/exist.json"]) == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-9", "tight"])
    def test_rejects_bad_tolerance(self, chest_file, capsys, tolerance):
        argv = ["verify", "--network", chest_file, "--tolerance=" + tolerance]
        assert main(argv) == 2
        assert "--tolerance" in capsys.readouterr().err


    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_evidence(self, chest_file, tmp_path, capsys, bad):
        path = _edited_chest(chest_file, tmp_path, lambda doc: doc["evidence"].update(A=[bad, 1.0]))
        for command in ("verify", "infer"):
            assert main([command, "--network", path]) == 2
            err = capsys.readouterr().err
            assert "'A'" in err and "non-finite" in err

    def test_fails_on_nan_marginal(self, chest_file, monkeypatch, capsys):
        ss_run = cli.RUNNERS["ss"]

        def nan_ss(*args):
            res = ss_run(*args)
            res.singleton_marginals[3].values[0] = np.nan
            return res

        monkeypatch.setitem(cli.RUNNERS, "ss", nan_ss)
        assert main(["verify", "--network", chest_file]) == 1
        out = capsys.readouterr().out
        assert "ss (binary tree): max deviation nan EXCEEDS" in out
        assert "verification FAILED" in out

    @pytest.mark.parametrize("cap", ["-5", "0", "1.5", "big"])
    def test_rejects_bad_oracle_cap(self, chest_file, capsys, cap):
        assert main(["verify", "--network", chest_file, "--oracle-cap=" + cap]) == 2
        assert "--oracle-cap" in capsys.readouterr().err


class TestInputErrors:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda doc: doc["arcs"].append(["T", "T"]), "self-arc on variable 'T'"),
            (lambda doc: doc["arcs"].append(["A", "T"]), "duplicate arc 'A' -> 'T'"),
            (
                lambda doc: doc["arcs"].append(["S", "A"]),
                "CPT of variable 'A' (parents ['S']): values length 2 does not match domain size 4",
            ),
            (
                lambda doc: doc["evidence"].update(A=["yes", 0.0]),
                "evidence on variable 'A': could not convert string to float",
            ),
            (
                lambda doc: doc["cpts"].update(T=[0.5, 0.6, 0.01, 0.99]),
                "CPT of variable 'T': row at parent configuration (0,) sums to 1.1",
            ),
            (
                lambda doc: (doc["arcs"].append(["D", "A"]), doc["cpts"].update(A=[0.5] * 4)),
                "acyclicity violation: directed cycle 'A' -> 'T' -> 'E' -> 'D' -> 'A'",
            ),
        ],
        ids=[
            "self-arc", "duplicate-arc", "cpt-length", "non-numeric-evidence", "row-sum", "cycle",
        ],
    )
    def test_error_names_the_variable(self, chest_file, tmp_path, capsys, edit, message):
        path = _edited_chest(chest_file, tmp_path, edit)
        assert main(["infer", "--network", path]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda doc: doc["variables"][0].pop("name"),
                "variable entry 0 needs a string 'name': {'states': ['yes', 'no']}",
            ),
            (
                lambda doc: doc["variables"][0].update(name=["A"]),
                "variable entry 0 needs a string 'name': {'name': ['A'], 'states': ['yes', 'no']}",
            ),
            (
                lambda doc: doc["variables"][0].update(states="x"),
                "variable 'A': 'states' must be a list of labels or a count, got 'x'",
            ),
            (
                lambda doc: doc.update(variables=5),
                "'variables' must be a JSON array, got 5",
            ),
            (
                lambda doc: doc["arcs"].append(["A"]),
                "arc ['A'] is not a [parent, child] pair of variable names",
            ),
            (
                lambda doc: doc.update(cpts=[1]),
                "'cpts' must be a JSON object, got [1]",
            ),
            (
                lambda doc: doc.update(evidence=[1]),
                "'evidence' must be a JSON object, got [1]",
            ),
            (
                lambda doc: doc["evidence"].update(A=[[1, 0]]),
                "evidence vector on 'A' has shape (1, 2), expected (2,)",
            ),
            (
                lambda doc: doc["cpts"].update(Z=[1]),
                "CPT for unknown variable 'Z'",
            ),
        ],
        ids=[
            "no-name", "list-name", "string-states", "variables-not-list", "one-name-arc",
            "cpts-not-object", "evidence-not-object", "nested-evidence", "unknown-cpt",
        ],
    )
    def test_malformed_file_names_what_is_wrong(self, chest_file, tmp_path, capsys, edit, message):
        path = _edited_chest(chest_file, tmp_path, edit)
        assert main(["infer", "--network", path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


# A -> B with P(A=1) = 0 and P(B=1 | A=0) = 0, so the evidence B=1 has probability zero.
ZERO_MASS_NET = {
    "variables": [{"name": "A", "states": 2}, {"name": "B", "states": 2}],
    "arcs": [["A", "B"]],
    "cpts": {"A": [1.0, 0.0], "B": [1.0, 0.0, 0.5, 0.5]},
    "evidence": {"B": [0.0, 1.0]},
}
ZERO_MASS_MESSAGE = (
    "evidence on 'B' has zero probability under the model, or its probability underflows"
)


class TestZeroMassEvidence:
    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(ZERO_MASS_NET))
        return str(path)

    @pytest.mark.parametrize("command", ["infer", "verify"])
    def test_names_the_evidence(self, path, capsys, command):
        assert main([command, "--network", path]) == 2
        assert capsys.readouterr().err == "error: %s\n" % ZERO_MASS_MESSAGE

    def test_bench_names_the_trial_and_the_evidence(self, path, monkeypatch, capsys):
        case = load_network(path)
        monkeypatch.setattr(cli, "random_case", lambda params, t: case)
        assert main(["bench", "--params", "n=2", "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: trial 0: %s\n" % ZERO_MASS_MESSAGE


class TestBench:
    def test_stdout_rows_are_deterministic(self, capsys):
        argv = ["bench", "--params", "6,5,2,3,2", "--trials", "4", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("# bnbench-rows-1\n")
        # 4 trials x 3 architectures + schema line + header line
        assert len(first.splitlines()) == 14

    def test_out_file_and_summary(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        argv = [
            "bench", "--params", "n=6,c2=2,m=3,p=2", "--trials", "3",
            "--seed", "1", "--out", str(path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "wrote 9 rows" in out
        assert "Hugin/SS-1" in out
        assert path.exists()

    def test_verify_oracle_passes(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        argv = [
            "bench", "--params", "5,5,2,2,1", "--trials", "3", "--seed", "2",
            "--out", str(path), "--verify-oracle",
        ]
        assert main(argv) == 0
        assert "oracle check: 0 failures" in capsys.readouterr().out

    def test_one_engine_result_alive_at_a_time(self, monkeypatch, capsys):
        argv = ["bench", "--params", "6,5,2,3,2", "--trials", "2", "--seed", "9"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        results = []  # weak references to every engine result returned so far
        alive_at = []  # (where, index into results) of each earlier result still alive

        def check(where):
            alive_at.extend((where, i) for i, ref in enumerate(results) if ref() is not None)

        def watched(run):
            def wrapper(*args):
                check("engine start")
                res = run(*args)
                results.append(weakref.ref(res))
                return res

            return wrapper

        storage_report = cli.storage_report

        def probe(*args):
            check("storage probe")
            return storage_report(*args)

        monkeypatch.setattr(cli, "RUNNERS", {a: watched(run) for a, run in cli.RUNNERS.items()})
        monkeypatch.setattr(cli, "storage_report", probe)
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert len(results) == 6
        assert alive_at == []

    def test_verify_oracle_reuses_the_trial_run(self, tmp_path, monkeypatch, capsys):
        calls = []
        compile_structures = cli.compile_structures

        def counted(*args):
            calls.append(args)
            return compile_structures(*args)

        monkeypatch.setattr(cli, "compile_structures", counted)
        argv = [
            "bench", "--params", "5,5,2,2,1", "--trials", "3", "--seed", "2",
            "--out", str(tmp_path / "rows.csv"), "--verify-oracle",
        ]
        assert main(argv) == 0
        assert "oracle check: 0 failures" in capsys.readouterr().out
        assert len(calls) == 3

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-9", "tight"])
    def test_rejects_bad_tolerance(self, tmp_path, capsys, tolerance):
        argv = [
            "bench", "--params", "5,5,2,2,1", "--trials", "1",
            "--out", str(tmp_path / "rows.csv"), "--verify-oracle", "--tolerance=" + tolerance,
        ]
        assert main(argv) == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_verify_oracle_fails_on_nan_deviation(self, tmp_path, monkeypatch, capsys):
        oracle_marginals = cli.oracle_marginals

        def nan_oracle(*args):
            return {x: np.full_like(p, np.nan) for x, p in oracle_marginals(*args).items()}

        monkeypatch.setattr(cli, "oracle_marginals", nan_oracle)
        argv = [
            "bench", "--params", "5,5,2,2,1", "--trials", "2", "--seed", "2",
            "--out", str(tmp_path / "rows.csv"), "--verify-oracle",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "deviates nan" in captured.err
        assert "oracle check: 30 failures" in captured.out

    def test_verify_oracle_to_stdout_reports_on_stderr(self, capsys):
        argv = ["bench", "--params", "n=40", "--trials", "2"]
        assert main(argv) == 0
        rows = capsys.readouterr().out
        assert main(argv + ["--verify-oracle"]) == 0
        captured = capsys.readouterr()
        assert captured.out == rows
        assert captured.err == "oracle check: 0 failures, 2 skipped (joint above cap)\n"

    def test_verify_oracle_to_stdout_counts_failures(self, monkeypatch, capsys):
        oracle_marginals = cli.oracle_marginals

        def nan_oracle(*args):
            return {x: np.full_like(p, np.nan) for x, p in oracle_marginals(*args).items()}

        monkeypatch.setattr(cli, "oracle_marginals", nan_oracle)
        argv = ["bench", "--params", "5,5,2,2,1", "--trials", "2", "--seed", "2", "--verify-oracle"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("# bnbench-rows-1\n")
        assert captured.err.endswith("oracle check: 30 failures, 0 skipped (joint above cap)\n")

    @pytest.mark.parametrize("cap", ["-5", "0", "1.5", "big"])
    def test_rejects_bad_oracle_cap(self, tmp_path, capsys, cap):
        argv = [
            "bench", "--params", "5,5,2,2,1", "--trials", "1",
            "--out", str(tmp_path / "rows.csv"), "--verify-oracle", "--oracle-cap=" + cap,
        ]
        assert main(argv) == 2
        assert "--oracle-cap" in capsys.readouterr().err

    def test_bad_params_is_usage_error(self, capsys):
        assert main(["bench", "--params", "6,5,2", "--trials", "1"]) == 2
        assert main(["bench", "--params", "q=6", "--trials", "1"]) == 2

    @pytest.mark.parametrize(
        "spec,key", [("n=8,c2=x", "c2"), ("n=8, m = 2.5", "m"), ("8,5,2,x,1", "m")]
    )
    def test_non_integer_param_is_named(self, capsys, spec, key):
        assert main(["bench", "--params", spec, "--trials", "1"]) == 2
        assert "generator parameter %r is not an integer" % key in capsys.readouterr().err

    @pytest.mark.parametrize("spec,key", [("n=8,n=9", "n"), ("n=8,c2=2, c2=3", "c2")])
    def test_repeated_param_is_named(self, capsys, spec, key):
        assert main(["bench", "--params", spec, "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: generator parameter %r listed twice\n" % key

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("n=8,c2=1", "generator parameter 'c2' must be >= 2, got 1"),
            ("8,5,2,2,9", "generator parameter 'p' must be <= n = 8, got 9"),
        ],
    )
    def test_out_of_range_param_is_named(self, capsys, spec, message):
        assert main(["bench", "--params", spec, "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_zero_trials_is_usage_error(self, capsys):
        assert main(["bench", "--params", "6,5,2,3,2", "--trials", "0"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["bench", "--params", "6,5,2,3,2"]) == 2


class TestReport:
    @pytest.fixture()
    def rows_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        main(["bench", "--params", "6,5,2,3,2", "--trials", "5", "--seed", "4", "--out", str(path)])
        capsys.readouterr()
        return str(path)

    def test_text_table(self, rows_file, capsys):
        assert main(["report", rows_file]) == 0
        out = capsys.readouterr().out
        assert "n=6 c1=5 c2=2 m=3 p=2" in out
        assert "Hugin/SS-1" in out

    def test_markdown_table(self, rows_file, capsys):
        assert main(["report", rows_file, "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("| params | trials |")

    def test_csv_output_schema(self, rows_file, capsys):
        assert main(["report", rows_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# bnbench-report-1"
        assert lines[1] == "n,c1,c2,m,p,trials,mean_ls,mean_hugin,mean_ss,hugin_ss_ratio"

    def test_division_weight_changes_means(self, rows_file, capsys):
        assert main(["report", rows_file, "--format", "csv"]) == 0
        base = capsys.readouterr().out
        assert main(["report", rows_file, "--format", "csv", "--div-weight", "0"]) == 0
        unweighted = capsys.readouterr().out
        assert base != unweighted

    @pytest.mark.parametrize("weight", ["nan", "inf", "-1", "heavy"])
    def test_rejects_bad_div_weight(self, rows_file, capsys, weight):
        assert main(["report", rows_file, "--div-weight=" + weight]) == 2
        assert "--div-weight" in capsys.readouterr().err

    def test_rejects_foreign_csv(self, tmp_path, capsys):
        alien = tmp_path / "alien.csv"
        alien.write_text("a,b\n1,2\n")
        assert main(["report", str(alien)]) == 2

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda line: line.rsplit(",", 3)[0], "line 3: 19 fields, expected 22"),
            (lambda line: line.replace(",ls,", ",lx,"), "line 3: unknown arch 'lx'"),
            (lambda line: line.replace(",junction,", ",tree,"), "line 3: unknown tree 'tree'"),
            (lambda line: line + ",7", "line 3: 23 fields, expected 22"),
        ],
        ids=["truncated", "unknown-arch", "unknown-tree", "extra-field"],
    )
    def test_rejects_malformed_row(self, rows_file, capsys, edit, message):
        with open(rows_file) as fp:
            lines = fp.read().splitlines()
        assert ",ls,junction," in lines[2]
        lines[2] = edit(lines[2])
        with open(rows_file, "w") as fp:
            fp.write("\n".join(lines) + "\n")
        assert main(["report", rows_file]) == 2
        err = capsys.readouterr().err
        assert "%s: %s" % (rows_file, message) in err
        assert "Traceback" not in err

    def test_rejects_non_integer_count(self, rows_file, capsys):
        with open(rows_file) as fp:
            lines = fp.read().splitlines()
        fields = lines[2].split(",")
        fields[11] = "abc"  # adds
        lines[2] = ",".join(fields)
        with open(rows_file, "w") as fp:
            fp.write("\n".join(lines) + "\n")
        assert main(["report", rows_file]) == 2
        assert "%s: line 3: field 'adds' is not an integer: 'abc'" % rows_file in capsys.readouterr().err

    def test_deterministic_output(self, rows_file, capsys):
        assert main(["report", rows_file]) == 0
        first = capsys.readouterr().out
        assert main(["report", rows_file]) == 0
        assert capsys.readouterr().out == first


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
