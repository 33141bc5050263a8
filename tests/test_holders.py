import pytest

from bnbench.compile import JoinTree, compile_structures
from bnbench.engines import hugin_run, ss_run
from bnbench.generate import GenParams, random_case
from helpers import (
    reference_best_separator,
    reference_designated,
    reference_host,
    reference_orient,
    reference_root,
    reference_separator,
    reference_space,
)

# (seed, n, m): sizes from 6 to 40 variables, cardinalities up to 2, 3 and 4.
CASES = [(seed, n, m) for seed, n in enumerate((6, 9, 13, 18, 24, 31, 40)) for m in (2, 3, 4)]


def _assert_index_matches_full_scans(comp):
    for tree in (comp.junction, comp.binary):
        nodes = sorted(tree.nodes)
        assert tree.spaces == {n: reference_space(tree, tree.nodes[n]) for n in nodes}
        edges = tree.edges()
        assert len(tree.separators) == len(tree.sep_spaces) == 2 * len(edges)
        for u, v in edges:
            sep = reference_separator(tree, u, v)
            assert tree.separator(u, v) == tree.separator(v, u) == sep
            assert tree.sep_spaces[u, v] == tree.sep_spaces[v, u] == reference_space(tree, sep)
        assert tree.holders == {x: [n for n in nodes if x in tree.nodes[n]] for x in tree.cards}
        root = reference_root(tree)
        preorder, postorder, parent, children = reference_orient(tree, root)
        assert tree.rooting == (root, preorder, postorder, parent, children)
        inward = [(n, parent[n]) for n in postorder if n != root]
        assert tree.sends == inward + [(n, c) for n in preorder for c in children[n]]
        for x in sorted(tree.cards):
            assert tree.designated[x] == reference_designated(tree, x)
            assert tree.best_separators.get(x) == reference_best_separator(tree, x)
        hosts = {i: nid for nid, idxs in tree.assignments.items() for i in idxs}
        assert hosts == {i: reference_host(tree, pot.domain) for i, pot in enumerate(comp.potentials)}


@pytest.mark.parametrize("seed,n,m", CASES)
def test_indexed_choices_match_full_scans(seed, n, m):
    params = GenParams(n=n, c2=2 + seed % 3, m=m, p=2, seed=seed)
    net, ev = random_case(params, 0)
    _assert_index_matches_full_scans(compile_structures(net, ev))


def test_index_matches_full_scans_on_a_long_trial():
    net, ev = random_case(GenParams(n=200, c1=5, c2=2, m=2, p=1, seed=2013), 0)
    _assert_index_matches_full_scans(compile_structures(net, ev))


def test_holders_of_chest_junction_tree(chest_comp):
    assert chest_comp.junction.holders == {
        0: [0], 1: [4], 2: [0, 1], 3: [1, 4, 5], 4: [3, 4, 5], 5: [1, 2, 3, 5], 6: [2], 7: [3],
    }


def test_engines_build_separators_a_few_times_per_edge(monkeypatch):
    net, ev = random_case(GenParams(n=200, c1=5, c2=2, m=2, p=1), 0)
    comp = compile_structures(net, ev)
    calls = []
    separator = JoinTree.separator

    def counted(tree, u, v):
        calls.append((u, v))
        return separator(tree, u, v)

    monkeypatch.setattr(JoinTree, "separator", counted)
    for run, tree in ((hugin_run, comp.junction), (ss_run, comp.binary)):
        calls.clear()
        run(tree, comp.potentials)
        assert 0 < len(calls) < 10 * len(tree.edges())
