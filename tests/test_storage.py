import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbench.compile import compile_structures
from bnbench.engines import EngineError, ss_run
from bnbench.generate import GenParams, random_case
from bnbench.network import figure9_evidence, figure9_net
from bnbench.storage import peak_working_memory, storage_report


@pytest.fixture(scope="module")
def fig9():
    net = figure9_net()
    ev = figure9_evidence()
    return net, ev, compile_structures(net, ev)


class TestTwoSensorStar:
    def test_shared_components(self, fig9):
        net, ev, comp = fig9
        for arch, tree in (("ls", comp.junction), ("hugin", comp.junction), ("ss", comp.binary)):
            s = storage_report(arch, tree, net, ev)
            assert s.input_fpn == 55
            assert s.evidence_fpn == 10
            assert s.output_fpn == 15

    def test_self_dividing_keeps_cliques_only(self, fig9):
        net, ev, comp = fig9
        s = storage_report("ls", comp.junction, net, ev)
        assert (s.clique_fpn, s.separator_fpn) == (50, 0)
        assert s.total_fpn == 130

    def test_separator_store_adds_registers(self, fig9):
        net, ev, comp = fig9
        s = storage_report("hugin", comp.junction, net, ev)
        assert (s.clique_fpn, s.separator_fpn) == (50, 5)
        assert s.total_fpn == 135

    def test_division_free_keeps_messages_only(self, fig9):
        net, ev, comp = fig9
        s = storage_report("ss", comp.binary, net, ev)
        assert (s.clique_fpn, s.separator_fpn) == (0, 40)
        assert s.total_fpn == 120

    def test_peak_is_biggest_node(self, fig9):
        net, ev, comp = fig9
        assert peak_working_memory("ls", comp.junction) == 25
        assert peak_working_memory("ss", comp.binary) == 25


class TestChestStorage:
    def test_junction_reports(self, chest, chest_evidence, chest_comp):
        ls = storage_report("ls", chest_comp.junction, chest, chest_evidence)
        hugin = storage_report("hugin", chest_comp.junction, chest, chest_evidence)
        assert (ls.input_fpn, ls.evidence_fpn, ls.output_fpn) == (36, 4, 16)
        assert (ls.clique_fpn, ls.separator_fpn, ls.total_fpn) == (40, 0, 96)
        assert (hugin.clique_fpn, hugin.separator_fpn, hugin.total_fpn) == (40, 16, 112)

    def test_binary_message_store(self, chest, chest_evidence, chest_comp):
        ss = storage_report("ss", chest_comp.binary, chest, chest_evidence)
        assert (ss.clique_fpn, ss.separator_fpn, ss.total_fpn) == (0, 102, 158)

    def test_message_store_matches_probe(self, chest, chest_evidence, chest_comp):
        probe = ss_run(chest_comp.binary, chest_comp.potentials)
        stored = sum(
            msg.values.size for msg in probe.messages.values() if msg is not None
        )
        ss = storage_report("ss", chest_comp.binary, chest, chest_evidence)
        assert ss.separator_fpn == stored

    def test_peak(self, chest_comp):
        assert peak_working_memory("hugin", chest_comp.junction) == 8
        assert peak_working_memory("ss", chest_comp.binary) == 8

    def test_unknown_architecture_rejected(self, chest, chest_evidence, chest_comp):
        with pytest.raises(ValueError):
            storage_report("loopy", chest_comp.junction, chest, chest_evidence)

    def test_duplicate_targets_count_once(self, chest, chest_evidence, chest_comp):
        for arch, tree in (("ls", chest_comp.junction), ("hugin", chest_comp.junction), ("ss", chest_comp.binary)):
            once = storage_report(arch, tree, chest, chest_evidence, [1])
            twice = storage_report(arch, tree, chest, chest_evidence, [1, 1])
            assert once.output_fpn == 2
            assert twice == once

    def test_unknown_target_rejected(self, chest, chest_evidence, chest_comp):
        for arch, tree in (("ls", chest_comp.junction), ("hugin", chest_comp.junction), ("ss", chest_comp.binary)):
            with pytest.raises(EngineError, match="99"):
                storage_report(arch, tree, chest, chest_evidence, [1, 99])

    def test_single_node_tree_stores_no_messages(self):
        from bnbench.compile import JoinTree
        from bnbench.network import BayesNet
        from bnbench.potentials import Variable, make_potential

        a, b = Variable(0, "a", 2), Variable(1, "b", 2)
        net = BayesNet(
            [a, b],
            [(0, 1)],
            {
                0: make_potential([a], [0.4, 0.6]),
                1: make_potential([a, b], [0.9, 0.1, 0.2, 0.8]),
            },
        )
        tree = JoinTree(
            kind="binary",
            nodes={0: (0, 1)},
            adj={0: []},
            cards={0: 2, 1: 2},
            assignments={0: [0, 1]},
        )
        s = storage_report("ss", tree, net, {})
        assert s.separator_fpn == 0
        assert s.clique_fpn == 0


class TestOrderings:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 12),
        st.integers(2, 4),
        st.integers(2, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_separator_registers_never_shrink_storage(self, seed, n, c2, m):
        params = GenParams(n=n, c2=c2, m=m, p=1, seed=seed)
        net, ev = random_case(params, 0)
        comp = compile_structures(net, ev)
        ls = storage_report("ls", comp.junction, net, ev)
        hugin = storage_report("hugin", comp.junction, net, ev)
        assert hugin.total_fpn >= ls.total_fpn
        assert hugin.clique_fpn == ls.clique_fpn
