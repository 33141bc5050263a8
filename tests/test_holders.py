import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbench import cli
from bnbench.compile import JoinTree, compile_structures
from bnbench.engines import _MARGINALIZE, _MULTIPLY, hugin_run, ss_run
from bnbench.generate import GenParams, random_case
from bnbench.network import chest_clinic, chest_clinic_evidence
from helpers import (
    reference_best_separator,
    reference_designated,
    reference_edges,
    reference_host,
    reference_orient,
    reference_root,
    reference_separator,
    reference_space,
)

# (seed, n, m): sizes from 6 to 40 variables, cardinalities up to 2, 3 and 4.
CASES = [(seed, n, m) for seed, n in enumerate((6, 9, 13, 18, 24, 31, 40)) for m in (2, 3, 4)]
LONG = GenParams(n=200, c1=5, c2=2, m=2, p=1, seed=2013)
WIDE = GenParams(n=14, c1=6, c2=5, m=6, p=3, seed=2013)


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
    hugin_run(comp.junction, comp.potentials)
    assert 0 < len(calls) < 10 * len(comp.junction.edges())
    calls.clear()
    ss_run(comp.binary, comp.potentials)  # each message is marginalized onto its receiver's domain
    assert calls == []


def _bench_cases():
    """``(net, evidence)`` of the chest, ``long`` trial 0 and ``wide`` trials 0-4."""
    yield chest_clinic(), chest_clinic_evidence()
    yield random_case(LONG, 0)
    for t in range(5):
        yield random_case(WIDE, t)


def _fresh_bench_comps():
    """The :func:`_bench_cases`, newly compiled: no index read yet."""
    for net, ev in _bench_cases():
        yield compile_structures(net, ev)


def test_ss_builds_no_separator_index_on_a_binary_tree(monkeypatch):
    """A bench trial builds no separator index of its binary tree.

    The trial runs the three engines on their natural trees and takes each
    one's storage figures and peak.  On the binary tree SS marginalizes each
    message onto its receiver's domain, and each designated node is a
    singleton, so no separator is smaller.
    """
    compiled = []

    def compile_and_keep(net, ev):
        compiled.append(compile_structures(net, ev))
        return compiled[-1]

    monkeypatch.setattr(cli, "compile_structures", compile_and_keep)
    for case in _bench_cases():
        monkeypatch.setattr(cli, "random_case", lambda params, t: case)
        cli._bench_trial(LONG, 0)
        binary = compiled[-1].binary
        for index in ("separators", "sep_spaces", "best_separators"):
            assert index not in vars(binary)
    assert len(compiled) == 7


def test_edges_follow_the_adjacency_walk():
    for comp in _fresh_bench_comps():
        for tree in (comp.junction, comp.binary):
            assert tree.edges() == reference_edges(tree)


@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_edges_follow_the_adjacency_walk_on_random_networks(seed, n, c2, m):
    comp = compile_structures(*random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0))
    for tree in (comp.junction, comp.binary):
        assert tree.edges() == reference_edges(tree)


def test_ss_extracts_through_separators_on_the_chest_junction_tree():
    """A target whose smallest separator beats its designated node is read off the separator product."""
    comp = compile_structures(chest_clinic(), chest_clinic_evidence())
    tree = comp.junction
    ss_run(tree, comp.potentials)
    plan = tree.plans["ss"][2]
    writes = {out: (kind, a, b) for kind, out, a, b, _ in plan.steps}
    via = []
    for x in sorted(tree.cards):
        best = reference_best_separator(tree, x)
        if best is not None and best[0] < reference_space(tree, tree.nodes[reference_designated(tree, x)]):
            u, v = best[1]
            step = writes[plan.marginals[x]]
            if step[0] == _MARGINALIZE:  # else the product spans x alone and is the marginal
                step = writes[step[1]]
            assert step == (_MULTIPLY, plan.messages[u, v], plan.messages[v, u])
            via.append(x)
    assert via == [2, 3, 4, 5]


def test_best_separator_ties_go_to_the_lowest_edge(chest_comp):
    """Variables 3 and 4 each lie in two chest junction separators of space 4, their smallest."""
    tree = chest_comp.junction
    by_space = {}
    for u, v in reference_edges(tree):
        sep = reference_separator(tree, u, v)
        for x in sep:
            by_space.setdefault(x, {}).setdefault(reference_space(tree, sep), []).append((u, v))
    tied = {x: spaces[min(spaces)] for x, spaces in by_space.items() if len(spaces[min(spaces)]) > 1}
    assert tied == {3: [(1, 5), (4, 5)], 4: [(3, 5), (4, 5)]}
    hugin_run(tree, chest_comp.potentials)
    plan = tree.plans["ls/hugin"][2][1]
    writes = {out: (kind, a) for kind, out, a, _, _ in plan.steps}
    for x, edges in tied.items():
        assert tree.best_separators[x] == (4, edges[0])
        assert writes[plan.marginals[x]] == (_MARGINALIZE, plan.messages[edges[0]])
