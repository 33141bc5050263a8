import hashlib
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbench import compile as bn_compile
from bnbench.compile import (
    CompileError,
    JoinTree,
    attach_singletons,
    binary_join_tree,
    compile_structures,
    condense,
    elimination_order,
    junction_tree,
    moral_graph,
    verify_join_tree,
)
from bnbench.fileio import tree_dump
from bnbench.generate import GenParams, random_case
from bnbench.network import input_potentials
from bnbench.potentials import PotentialError
from helpers import (
    reference_binary_join_tree,
    reference_condense,
    reference_elimination_order,
    reference_junction_tree,
    reference_verify_join_tree,
    triangulate,
)

CHEST_ORDER = [0, 6, 2, 7, 1, 3, 4, 5]

CHEST_CLIQUES = [(0, 2), (5, 6), (2, 3, 5), (4, 5, 7), (1, 3, 4), (3, 4, 5)]

CHEST_BJT_NODES = {
    0: (0,), 1: (1,), 2: (2,), 3: (3,), 4: (4,), 5: (5,), 6: (6,), 7: (7,),
    8: (0, 2), 9: (1, 3), 10: (1, 4), 11: (2, 3, 5), 12: (5, 6), 13: (4, 5, 7),
    20: (3, 5), 22: (4, 5), 24: (1, 3, 4), 25: (3, 4), 27: (3, 4, 5), 28: (4, 5),
}

CHEST_BJT_EDGES = [
    (0, 8), (1, 9), (2, 8), (2, 11), (3, 20), (4, 22), (5, 12), (5, 28),
    (6, 12), (7, 13), (9, 24), (10, 24), (11, 20), (13, 22), (20, 27),
    (22, 28), (24, 25), (25, 27), (27, 28),
]

CHEST_JT_NODES = {
    0: (0, 2), 1: (2, 3, 5), 2: (5, 6), 3: (4, 5, 7), 4: (1, 3, 4), 5: (3, 4, 5),
}

CHEST_JT_EDGES = [(0, 1), (1, 5), (2, 3), (3, 5), (4, 5)]


class TestEliminationOrder:
    def test_chest_min_fill(self, chest):
        order = elimination_order(moral_graph(chest), chest.cards)
        assert order == CHEST_ORDER

    def test_square_graph_tie_breaks_by_id(self):
        graph = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}}
        cards = {i: 2 for i in range(4)}
        assert elimination_order(graph, cards) == [0, 1, 2, 3]


class TestTriangulate:
    def test_chest_cliques_in_discovery_order(self, chest):
        graph = moral_graph(chest)
        _, cliques = triangulate(graph, CHEST_ORDER)
        assert cliques == CHEST_CLIQUES

    def test_square_gains_one_fill_edge(self):
        graph = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}}
        chordal, cliques = triangulate(graph, [0, 1, 2, 3])
        assert 3 in chordal[1] and 1 in chordal[3]
        assert cliques == [(0, 1, 3), (1, 2, 3)]


class TestChestBinaryTree:
    def test_exact_node_set(self, chest_comp):
        assert dict(chest_comp.binary.nodes) == CHEST_BJT_NODES

    def test_exact_edge_set(self, chest_comp):
        assert chest_comp.binary.edges() == CHEST_BJT_EDGES

    def test_every_degree_at_most_three(self, chest_comp):
        bjt = chest_comp.binary
        assert max(len(bjt.adj[n]) for n in bjt.nodes) <= 3

    def test_verifies_clean(self, chest_comp):
        assert verify_join_tree(chest_comp.binary) == []

    def test_condense_is_idempotent(self, chest_comp):
        again = condense(chest_comp.binary)
        assert again.nodes == chest_comp.binary.nodes
        assert again.edges() == chest_comp.binary.edges()

    def test_assignments(self, chest_comp):
        got = {n: a for n, a in chest_comp.binary.assignments.items() if a}
        assert got == {
            0: [0, 8], 1: [1], 7: [9], 8: [2], 9: [3], 10: [4],
            11: [5], 12: [6], 13: [7],
        }


class TestChestJunctionTree:
    def test_exact_nodes_and_edges(self, chest_comp):
        assert dict(chest_comp.junction.nodes) == CHEST_JT_NODES
        assert chest_comp.junction.edges() == CHEST_JT_EDGES

    def test_separator_sizes(self, chest_comp):
        jt = chest_comp.junction
        seps = {e: jt.separator(*e) for e in jt.edges()}
        assert seps == {
            (0, 1): (2,), (1, 5): (3, 5), (2, 3): (5,), (3, 5): (4, 5), (4, 5): (3, 4),
        }
        assert sum(jt.sep_spaces[e] for e in jt.edges()) == 16

    def test_statespace_total(self, chest_comp):
        jt = chest_comp.junction
        assert sum(jt.statespace(n) for n in jt.nodes) == 40

    def test_verifies_clean(self, chest_comp):
        assert verify_join_tree(chest_comp.junction) == []

    def test_assignments(self, chest_comp):
        got = {n: a for n, a in chest_comp.junction.assignments.items() if a}
        assert got == {0: [0, 2, 8], 1: [5], 2: [6], 3: [7, 9], 4: [1, 3, 4]}

    def test_nodes_form_antichain(self, chest_comp):
        doms = [set(d) for d in chest_comp.junction.nodes.values()]
        for i, a in enumerate(doms):
            for j, b in enumerate(doms):
                assert i == j or not a <= b

    def test_root_is_biggest_statespace_lowest_id(self, chest_comp):
        assert chest_comp.junction.rooting.root == 1
        assert chest_comp.binary.rooting.root == 11


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_evidence_is_refused(chest, bad):
    with pytest.raises(PotentialError, match="^non-finite value in potential$"):
        compile_structures(chest, {0: [bad, 1.0]})


class TestAttachSingletons:
    def test_seeded_pipeline_needs_no_attachment(self, chest_comp):
        before = dict(chest_comp.binary.nodes)
        out = attach_singletons(chest_comp.binary, range(8))
        assert out is chest_comp.binary
        assert dict(out.nodes) == before

    @pytest.mark.parametrize(
        "nodes,adj,missing",
        [
            ({0: (0, 1), 1: (1, 2), 2: (0,)}, {0: [1, 2], 1: [0], 2: [0]}, 2),
            # the host has three neighbors already
            (
                {0: (0, 1), 1: (0, 1, 2), 2: (0, 1, 3), 3: (0, 1, 4), 4: (0,)},
                {0: [1, 2, 3], 1: [0, 4], 2: [0], 3: [0], 4: [1]},
                1,
            ),
        ],
        ids=["leaf-host", "full-host"],
    )
    def test_missing_singleton_raises_naming_the_variable(self, nodes, adj, missing):
        cards = {v: 2 for dom in nodes.values() for v in dom}
        tree = JoinTree(kind="binary", nodes=nodes, adj=adj, cards=cards)
        assert verify_join_tree(tree) == []
        with pytest.raises(CompileError, match="variable %d has no singleton node" % missing):
            attach_singletons(tree, [0, missing])
        assert tree.nodes == nodes


def _compiled(seed, trial, n, c2, m, p):
    params = GenParams(n=n, c2=c2, m=m, p=p, seed=seed)
    net, ev = random_case(params, trial)
    return net, ev, compile_structures(net, ev)


class TestRandomNetworks:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 14),
        st.integers(2, 4),
        st.integers(2, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_both_structures_verify(self, seed, n, c2, m):
        net, ev, comp = _compiled(seed, 0, n, c2, m, min(2, n))
        assert verify_join_tree(comp.junction) == []
        assert verify_join_tree(comp.binary) == []

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_every_input_domain_is_covered(self, seed, n):
        net, ev, comp = _compiled(seed, 1, n, 3, 3, 1)
        pots, _ = input_potentials(net, ev)
        for tree in (comp.junction, comp.binary):
            placed = [i for idxs in tree.assignments.values() for i in idxs]
            assert sorted(placed) == list(range(len(pots)))
            for node, idxs in tree.assignments.items():
                for i in idxs:
                    assert set(pots[i].domain) <= set(tree.nodes[node])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_junction_nodes_are_maximal_cliques(self, seed, n):
        net, ev, comp = _compiled(seed, 2, n, 2, 2, 1)
        doms = [set(d) for d in comp.junction.nodes.values()]
        for i, a in enumerate(doms):
            for j, b in enumerate(doms):
                assert i == j or not a <= b

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_junction_tree_rebuilt_from_binary(self, seed):
        net, ev, comp = _compiled(seed, 3, 9, 3, 3, 2)
        rebuilt = junction_tree(comp.binary)
        assert rebuilt.nodes == comp.junction.nodes
        assert rebuilt.edges() == comp.junction.edges()


class TestVerifyJoinTree:
    def test_detects_broken_intersection_property(self):
        cards = {0: 2, 1: 2, 2: 2}
        tree = JoinTree(
            kind="junction",
            nodes={0: (0, 1), 1: (2,), 2: (0, 2)},
            adj={0: [1], 1: [0, 2], 2: [1]},
            cards=cards,
            assignments={},
        )
        assert any("intersection" in p or "path" in p for p in verify_join_tree(tree))

    def test_detects_cycle(self):
        def hung(signum, frame):
            raise AssertionError("the rooting walk did not stop on a cycle")

        cards = {0: 2, 1: 2}
        tree = JoinTree(
            kind="junction",
            nodes={0: (0,), 1: (0, 1), 2: (1,)},
            adj={0: [1, 2], 1: [0, 2], 2: [0, 1]},
            cards=cards,
            assignments={},
        )
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(2)
        try:
            assert verify_join_tree(tree) == ["3 nodes need 2 edges, found 3"]
            assert sorted(tree.rooting.preorder) == sorted(tree.rooting.postorder) == [0, 1, 2]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_detects_binary_degree_violation(self):
        cards = {i: 2 for i in range(5)}
        tree = JoinTree(
            kind="binary",
            nodes={0: (0,), 1: (0, 1), 2: (0, 2), 3: (0, 3), 4: (0, 4)},
            adj={0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]},
            cards=cards,
            assignments={},
        )
        assert any("neighbors" in p for p in verify_join_tree(tree))


class TestEachKeptTreeCheckedOnce:
    def test_two_checks_and_no_index_on_the_fusion_forest(self, chest, chest_evidence, monkeypatch):
        checked, fused = [], []
        verify, fuse = bn_compile.verify_join_tree, bn_compile.binary_join_tree

        def counted_verify(tree):
            checked.append(tree)
            return verify(tree)

        def kept_fuse(*args):
            fused.append(fuse(*args))
            return fused[-1]

        monkeypatch.setattr(bn_compile, "verify_join_tree", counted_verify)
        monkeypatch.setattr(bn_compile, "binary_join_tree", kept_fuse)
        comp = compile_structures(chest, chest_evidence)
        assert len(checked) == 2
        assert checked[0] is comp.junction and checked[1] is comp.binary
        (forest,) = fused
        assert "holders" not in vars(forest) and "rooting" not in vars(forest)

    @staticmethod
    def _compile_with_broken_fusion(net, evidence, monkeypatch, edit):
        fuse = bn_compile.binary_join_tree

        def broken(*args):
            tree = fuse(*args)
            adj = _sets(tree.adj)
            edit(tree, adj)
            return _rebuilt(tree, adj=adj)

        monkeypatch.setattr(bn_compile, "binary_join_tree", broken)
        return compile_structures(net, evidence)

    def test_running_intersection_break_is_reported(self, chest, chest_evidence, monkeypatch):
        moved = []

        def move_singleton_leaf(tree, adj):
            # reattach a singleton leaf (x,) to a node without x
            leaf = min(n for n in tree.nodes if len(tree.nodes[n]) == 1 and len(adj[n]) == 1)
            (x,) = tree.nodes[leaf]
            host = min(n for n in tree.nodes if x not in tree.nodes[n] and len(adj[n]) < 3)
            (old,) = adj[leaf]
            adj[old].discard(leaf)
            adj[leaf] = {host}
            adj[host].add(leaf)
            moved.append(x)

        with pytest.raises(CompileError) as err:
            self._compile_with_broken_fusion(chest, chest_evidence, monkeypatch, move_singleton_leaf)
        assert "running intersection fails for variable %r" % moved[0] in str(err.value)

    def test_second_component_is_reported(self, chest, chest_evidence, monkeypatch):
        def cut_first_edge(tree, adj):
            u, v = tree.edges()[0]
            adj[u].discard(v)
            adj[v].discard(u)

        with pytest.raises(CompileError, match="tree is disconnected"):
            self._compile_with_broken_fusion(chest, chest_evidence, monkeypatch, cut_first_edge)


def _rebuilt(tree, nodes=None, adj=None):
    """A new tree of the same kind from edited copies of ``nodes`` and ``adj``."""
    nodes = dict(tree.nodes if nodes is None else nodes)
    adj = {n: sorted(qs) for n, qs in (tree.adj if adj is None else adj).items()}
    return JoinTree(tree.kind, nodes, adj, dict(tree.cards))


def _sets(adj):
    return {n: set(qs) for n, qs in adj.items()}


class TestVerifyMatchesReference:
    """The rooting-based check returns the per-variable-walk check's problem list."""

    @staticmethod
    def _same(tree):
        problems = verify_join_tree(tree)
        assert problems == reference_verify_join_tree(tree)
        return problems

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 14),
        st.integers(2, 4),
        st.integers(2, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_compiled_trees(self, seed, n, c2, m):
        _, _, comp = _compiled(seed, 4, n, c2, m, 1)
        for tree in (comp.junction, comp.binary):
            assert self._same(tree) == []

    @given(st.integers(0, 2**32 - 1), st.integers(4, 14), st.data())
    @settings(max_examples=100, deadline=None)
    def test_variable_dropped_inside_its_path(self, seed, n, data):
        _, _, comp = _compiled(seed, 5, n, 3, 3, 1)
        for tree in (comp.junction, comp.binary):
            inner = [
                (x, nid)
                for x, nids in sorted(tree.holders.items())
                for nid in nids
                if len(tree.nodes[nid]) > 1 and sum(q in nids for q in tree.adj[nid]) >= 2
            ]
            if not inner:
                continue
            x, nid = data.draw(st.sampled_from(inner))
            nodes = dict(tree.nodes)
            nodes[nid] = tuple(v for v in nodes[nid] if v != x)
            problems = self._same(_rebuilt(tree, nodes=nodes))
            assert "running intersection fails for variable %r" % x in problems

    @given(st.integers(0, 2**32 - 1), st.integers(6, 14), st.data())
    @settings(max_examples=100, deadline=None)
    def test_degree_four_binary_node(self, seed, n, data):
        _, _, comp = _compiled(seed, 6, n, 3, 3, 1)
        tree = comp.binary
        moves = [
            (leaf, hub)
            for hub in sorted(tree.nodes)
            if len(tree.adj[hub]) == 3
            for leaf in sorted(tree.nodes)
            if len(tree.adj[leaf]) == 1 and leaf not in tree.adj[hub]
        ]
        if not moves:
            return
        leaf, hub = data.draw(st.sampled_from(moves))
        adj = _sets(tree.adj)
        (old,) = adj[leaf]
        adj[old].discard(leaf)
        adj[leaf] = {hub}
        adj[hub].add(leaf)
        problems = self._same(_rebuilt(tree, adj=adj))
        assert "node %d has 4 neighbors" % hub in problems

    @given(st.integers(0, 2**32 - 1), st.integers(4, 14), st.data())
    @settings(max_examples=100, deadline=None)
    def test_edge_moved_to_close_a_cycle(self, seed, n, data):
        _, _, comp = _compiled(seed, 7, n, 3, 3, 1)
        for tree in (comp.junction, comp.binary):
            ids = sorted(tree.nodes)
            moves = [
                (leaf, u, v)
                for leaf in ids
                if len(tree.adj[leaf]) == 1
                for u in ids
                for v in ids
                if leaf not in (u, v) and u < v and v not in tree.adj[u]
            ]
            if not moves:
                continue
            leaf, u, v = data.draw(st.sampled_from(moves))
            adj = _sets(tree.adj)
            (old,) = adj[leaf]
            adj[old].discard(leaf)
            adj[leaf] = set()
            adj[u].add(v)
            adj[v].add(u)
            assert self._same(_rebuilt(tree, adj=adj)) == ["tree is disconnected"]


def _assert_stages_match_references(net, ev):
    """Every compile stage makes the choices of its restart-loop reference."""
    _, hypergraph = input_potentials(net, ev)
    graph, cards = moral_graph(net), net.cards
    order = elimination_order(graph, cards)
    assert order == reference_elimination_order(graph, cards)
    fused = binary_join_tree(hypergraph, cards, order)
    # a tree by construction: each node has at most one edge to a newer node
    assert len(fused.edges()) == len(fused.nodes) - 1
    assert all(sum(q > n for q in fused.adj[n]) <= 1 for n in fused.nodes)
    condensed = condense(fused)
    seeded = attach_singletons(condensed, list(cards))
    for got, want in (
        (fused, reference_binary_join_tree(hypergraph, cards, order)),
        (condensed, reference_condense(fused)),
        (junction_tree(seeded), reference_junction_tree(seeded)),
    ):
        assert got.nodes == want.nodes
        assert got.adj == want.adj


# sha256 of tree_dump(junction), tree_dump(binary) from the restart-loop compiler
LARGE_CASES = [
    (GenParams(n=200, c1=5, c2=2, m=2, p=1, seed=2013), 0,
     "9994d60986e91614c3414b89b6f6d878bbb976369d23461b47d368231ed9e483",
     "d11c48d2112481ff437cd4b1d652b4c76bcf8201940bec82955256a194c5e09d"),
    (GenParams(n=200, c1=5, c2=2, m=2, p=1, seed=2013), 1,
     "eeeefd32b9b718ba5a1c7db2dd1e557309144d06e09a58a8e2c073fb771fe689",
     "6cbeac390679434985e70e5012cf7b12feae3cbcfcb0bf41cba222be7cff6cdc"),
    (GenParams(n=400, c1=5, c2=2, m=2, p=1, seed=3), 0,
     "c05ac6a70bdd0f714c957e79442b457a693ca9e4b9e6ef755715327ef8d04b99",
     "44e718235d20f5bc41afc13bfd9eb47a1696f076c2f4b24e1e8f37b10596e4f1"),
]


class TestWorklistCompileMatchesReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 40),
        st.integers(2, 5),
        st.integers(2, 4),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_networks(self, seed, n, c2, m, p):
        net, ev = random_case(GenParams(n=n, c2=c2, m=m, p=min(p, n), seed=seed), 0)
        _assert_stages_match_references(net, ev)

    @pytest.mark.parametrize(
        "params,trial,jt_sha,bjt_sha", LARGE_CASES, ids=["long-0", "long-1", "n400-0"]
    )
    def test_large_cases(self, params, trial, jt_sha, bjt_sha):
        net, ev = random_case(params, trial)
        _assert_stages_match_references(net, ev)
        comp = compile_structures(net, ev)
        assert hashlib.sha256(tree_dump(comp.junction).encode()).hexdigest() == jt_sha
        assert hashlib.sha256(tree_dump(comp.binary).encode()).hexdigest() == bjt_sha


# The criterion-5 population (seed 55, 200 trials per preset) and the two
# criterion-6 presets (seed 0, 1000 trials each) of tests/test_acceptance.py.
CRITERION_5 = [
    (GenParams(n=n, c2=c2, m=m, p=p, seed=55), 200)
    for n, c2, m, p in [
        (8, 2, 2, 1), (8, 2, 3, 1), (8, 3, 4, 2), (8, 4, 5, 2), (8, 5, 6, 3),
        (10, 2, 2, 3), (10, 3, 3, 1), (12, 2, 3, 2), (6, 4, 4, 1), (9, 5, 5, 3),
    ]
]
CRITERION_6 = [
    (GenParams(n=8, c2=2, m=3, p=3, seed=0), 1000),
    (GenParams(n=8, c2=5, m=6, p=3, seed=0), 1000),
]


# Trial 0 of perfbench's `long` workload and trials 0-4 of its `wide` one.
BENCH_SHAPES = [
    (GenParams(n=200, c1=5, c2=2, m=2, p=1, seed=2013), 1),
    (GenParams(n=14, c1=6, c2=5, m=6, p=3, seed=2013), 5),
]


@pytest.mark.parametrize("params,trials", CRITERION_5 + CRITERION_6 + BENCH_SHAPES)
def test_attach_singletons_is_a_noop_on_acceptance_populations(params, trials):
    """Every variable has a singleton node in the compiled binary tree; compile relies on it unchecked."""
    for t in range(trials):
        net, ev = random_case(params, t)
        _, hypergraph = input_potentials(net, ev)
        cards = net.cards
        order = elimination_order(moral_graph(net), cards)
        bjt = condense(binary_join_tree(hypergraph, cards, order))
        out = attach_singletons(bjt, cards)
        assert out.nodes == bjt.nodes
        assert out.adj == bjt.adj
