import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnbench.compile import JoinTree, compile_structures
from bnbench.counting import OpCounter
from bnbench.engines import EngineError, hugin_run, ls_run, run_all, ss_run
from bnbench.generate import GenParams, random_case
from bnbench.network import BayesNet, joint_oracle, oracle_marginals
from bnbench.potentials import PotentialError, Variable, make_potential, marginalize
from helpers import (
    MarkedIdentity,
    from_values,
    reference_hugin_run,
    reference_ls_run,
    reference_ss_run,
)

# n=200 binary networks, past the brute-force oracle's reach.
LONG = GenParams(n=200, c1=5, c2=2, m=2, p=1, seed=2013)
# n=14 networks of up to six states: trials 0-4 hold 6,760 to 155,520
# junction-tree cells, table sizes that LONG never reaches.
WIDE = GenParams(n=14, c1=6, c2=5, m=6, p=3, seed=2013)


def _checksum(pots):
    return [float(p.values.sum()) + hash(p.domain) for p in pots]


def _worst(result, oracle):
    return max(
        float(np.abs(result.singleton_marginals[x].values.reshape(-1) - oracle[x]).max())
        for x in oracle
    )


class TestChestJunctionCounts:
    def test_self_dividing_architecture(self, chest_comp):
        c = ls_run(chest_comp.junction, chest_comp.potentials).counter
        assert c.as_tuple() == (72, 96, 32)
        assert c.total() == 200

    def test_separator_store_architecture(self, chest_comp):
        c = hugin_run(chest_comp.junction, chest_comp.potentials).counter
        assert c.as_tuple() == (60, 96, 16)
        assert c.total() == 172

    def test_division_free_architecture(self, chest_comp):
        c = ss_run(chest_comp.junction, chest_comp.potentials).counter
        assert c.as_tuple() == (60, 140, 0)
        assert c.total() == 200


class TestChestBinaryCounts:
    def test_self_dividing_architecture(self, chest_comp):
        c = ls_run(chest_comp.binary, chest_comp.potentials).counter
        assert c.as_tuple() == (60, 120, 66)
        assert c.total() == 246

    def test_separator_store_architecture(self, chest_comp):
        c = hugin_run(chest_comp.binary, chest_comp.potentials).counter
        assert c.as_tuple() == (60, 116, 46)
        assert c.total() == 222

    def test_division_free_architecture(self, chest_comp):
        c = ss_run(chest_comp.binary, chest_comp.potentials).counter
        assert c.as_tuple() == (56, 124, 0)
        assert c.total() == 180


class TestChestMarginals:
    def test_all_six_combinations_match_oracle(self, chest, chest_evidence, chest_comp):
        oracle = oracle_marginals(chest, chest_evidence)
        for run in (ls_run, hugin_run, ss_run):
            for tree in (chest_comp.junction, chest_comp.binary):
                assert _worst(run(tree, chest_comp.potentials), oracle) <= 1e-12

    def test_marginals_are_normalized(self, chest_comp):
        res = hugin_run(chest_comp.junction, chest_comp.potentials)
        for pot in res.singleton_marginals.values():
            assert abs(float(pot.values.sum()) - 1.0) <= 1e-12

    def test_node_marginals_match_oracle_joint(self, chest, chest_evidence, chest_comp):
        joint = joint_oracle(chest, chest_evidence)
        mass = float(joint.values.sum())
        scratch = OpCounter()
        for run in (ls_run, hugin_run):
            res = run(chest_comp.junction, chest_comp.potentials)
            for n, pot in res.node_marginals.items():
                want = marginalize(joint, pot.domain, scratch)
                np.testing.assert_allclose(
                    pot.values / float(pot.values.sum()), want.values / mass, atol=1e-12
                )

    def test_separator_stores_hold_separator_marginals(
        self, chest, chest_evidence, chest_comp
    ):
        joint = joint_oracle(chest, chest_evidence)
        scratch = OpCounter()
        res = hugin_run(chest_comp.junction, chest_comp.potentials)
        assert sorted(res.messages) == chest_comp.junction.edges()
        for (u, v), stored in res.messages.items():
            sep = chest_comp.junction.separator(u, v)
            want = marginalize(joint, sep, scratch)
            np.testing.assert_allclose(
                np.sort(stored.values.reshape(-1)), np.sort(want.values.reshape(-1)),
                atol=1e-12,
            )


class TestDemandDrivenMessages:
    def test_one_direction_never_computed_on_chest(self, chest_comp):
        res = ss_run(chest_comp.binary, chest_comp.potentials)
        assert len(res.messages) == 37
        assert (24, 10) not in res.messages

    def test_vacuous_messages_from_empty_leaves(self, chest_comp):
        res = ss_run(chest_comp.binary, chest_comp.potentials)
        vacuous = sorted(k for k, v in res.messages.items() if v is None)
        assert vacuous == [(3, 20), (4, 22), (6, 12)]

    def test_no_targets_means_no_messages(self, chest_comp):
        res = ss_run(chest_comp.binary, chest_comp.potentials, targets=[])
        assert res.messages == {}
        assert res.counter.as_tuple() == (0, 0, 0)

    def test_single_target_stays_cheap(self, chest_comp):
        full = ss_run(chest_comp.binary, chest_comp.potentials)
        one = ss_run(chest_comp.binary, chest_comp.potentials, targets=[6])
        assert len(one.messages) < len(full.messages)
        assert one.counter.total() < full.counter.total()

    def test_inputs_never_mutated(self, chest_comp):
        before = _checksum(chest_comp.potentials)
        ss_run(chest_comp.binary, chest_comp.potentials)
        hugin_run(chest_comp.junction, chest_comp.potentials)
        ls_run(chest_comp.junction, chest_comp.potentials)
        assert _checksum(chest_comp.potentials) == before


def _assert_same_tables(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, pot in want.items():
        if pot is None:
            assert got[key] is None
        else:
            assert got[key].domain == pot.domain
            assert np.array_equal(got[key].values, pot.values)


def _assert_ss_matches_reference(tree, potentials, targets):
    got = ss_run(tree, potentials, targets)
    want = reference_ss_run(tree, potentials, targets)
    assert got.counter.as_tuple() == want.counter.as_tuple()
    assert got.tree_kind == want.tree_kind
    _assert_same_tables(got.messages, want.messages)
    _assert_same_tables(got.node_marginals, want.node_marginals)
    _assert_same_tables(got.singleton_marginals, want.singleton_marginals)


class TestTwoPassMatchesMemoizedRun:
    """The two-pass SS run sends exactly the messages the demand-driven memo did."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 30),
        st.integers(2, 4),
        st.integers(2, 4),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_networks(self, seed, n, c2, m, data):
        net, ev = random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0)
        comp = compile_structures(net, ev)
        ids = st.integers(0, n - 1)
        # every variable, none, one, or a random subset
        targets = data.draw(
            st.one_of(
                st.none(),
                st.just([]),
                st.lists(ids, min_size=1, max_size=1),
                st.lists(ids, unique=True),
            )
        )
        for tree in (comp.binary, comp.junction):
            _assert_ss_matches_reference(tree, comp.potentials, targets)

    def test_chest_target_sets(self, chest_comp):
        for targets in (None, [], [6], [0, 3, 7]):
            for tree in (chest_comp.binary, chest_comp.junction):
                _assert_ss_matches_reference(tree, chest_comp.potentials, targets)

    def test_long_trial(self):
        comp = compile_structures(*random_case(LONG, 0))
        for tree in (comp.binary, comp.junction):
            _assert_ss_matches_reference(tree, comp.potentials, None)


def _assert_same_counter(got, want):
    assert (got.adds, got.mults, got.divs) == (want.adds, want.mults, want.divs)


def _recorder(steps):
    """An ``on_step`` hook that keeps (phase, sender, receiver) and the tables and registers."""

    def record(phase, sender, receiver, tables, store):
        steps.append((phase, sender, receiver, dict(tables), dict(store)))

    return record


def _assert_ls_hugin_match_references(tree, potentials, targets):
    got = ls_run(tree, potentials, targets)
    want = reference_ls_run(tree, potentials, targets)
    _assert_same_counter(got.counter, want.counter)
    _assert_same_tables(got.node_marginals, want.node_marginals)
    _assert_same_tables(got.singleton_marginals, want.singleton_marginals)

    got_steps, want_steps = [], []
    got = hugin_run(tree, potentials, targets, on_step=_recorder(got_steps))
    want = reference_hugin_run(tree, potentials, targets, on_step=_recorder(want_steps))
    _assert_same_counter(got.counter, want.counter)
    _assert_same_tables(got.node_marginals, want.node_marginals)
    _assert_same_tables(got.messages, want.messages)
    _assert_same_tables(got.singleton_marginals, want.singleton_marginals)
    assert [s[:3] for s in got_steps] == [s[:3] for s in want_steps]
    for g, w in zip(got_steps, want_steps):
        # a node without a table is one whose reference table is still marked
        unmarked = {n: t for n, t in w[3].items() if not isinstance(t, MarkedIdentity)}
        _assert_same_tables(g[3], unmarked)
        _assert_same_tables(g[4], w[4])


class TestAbsentTablesMatchMarkedIdentities:
    """Tables and registers that start absent give the marked-identity run bit for bit."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 30),
        st.integers(2, 4),
        st.integers(2, 4),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_networks(self, seed, n, c2, m, data):
        net, ev = random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0)
        comp = compile_structures(net, ev)
        ids = st.integers(0, n - 1)
        # every variable, none, one, or a random subset
        targets = data.draw(
            st.one_of(
                st.none(),
                st.just([]),
                st.lists(ids, min_size=1, max_size=1),
                st.lists(ids, unique=True),
            )
        )
        for tree in (comp.junction, comp.binary):
            _assert_ls_hugin_match_references(tree, comp.potentials, targets)

    def test_chest_target_sets(self, chest_comp):
        for targets in (None, [], [6], [0, 3, 7]):
            for tree in (chest_comp.junction, chest_comp.binary):
                _assert_ls_hugin_match_references(tree, chest_comp.potentials, targets)

    def test_binary_tree_has_silent_senders(self, chest_comp):
        # the chest binary tree has nodes with no potential, so the inward
        # pass meets senders that have nothing to send
        tree = chest_comp.binary
        assert any(n not in tree.assignments for n in tree.nodes)
        steps = []
        hugin_run(tree, chest_comp.potentials, on_step=_recorder(steps))
        assert len(steps) < 2 * (len(tree.nodes) - 1)
        assert sorted(steps[-1][3]) == sorted(tree.nodes)

    def test_long_trial(self):
        comp = compile_structures(*random_case(LONG, 0))
        for tree in (comp.junction, comp.binary):
            _assert_ls_hugin_match_references(tree, comp.potentials, None)


def _assert_architectures_agree(params, trial):
    runs = run_all(*random_case(params, trial))
    ss = runs["ss"].singleton_marginals
    assert sorted(ss) == list(range(params.n))
    for arch in ("ls", "hugin"):
        other = runs[arch].singleton_marginals
        assert sorted(other) == sorted(ss)
        worst = max(float(np.abs(other[x].values - ss[x].values).max()) for x in ss)
        assert worst <= 1e-9, arch


class TestCrossArchitectureAgreement:
    """LS, Hugin and SS agree where the brute-force oracle cannot run."""

    @pytest.mark.parametrize("trial", range(5))
    def test_long_trials_agree(self, trial):
        _assert_architectures_agree(LONG, trial)

    @pytest.mark.parametrize("trial", range(5))
    def test_wide_trials_agree(self, trial):
        _assert_architectures_agree(WIDE, trial)


def _binary_chain(n, seed):
    """X0 -> X1 -> ... -> X(n-1), binary, with CPT rows drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    variables = [Variable(i, "X%d" % i, 2) for i in range(n)]
    first = rng.uniform(0.2, 0.8)
    cpts = {0: make_potential([variables[0]], [first, 1.0 - first])}
    for i in range(1, n):
        a, b = rng.uniform(0.05, 0.95, size=2)
        cpts[i] = make_potential(variables[i - 1:i + 1], [a, 1.0 - a, b, 1.0 - b])
    return BayesNet(variables, [(i, i + 1) for i in range(n - 1)], cpts)


class TestChainOracle:
    """All three engines on binary chains, past the brute-force cap.

    A chain is a tree-shaped network whose parents have lower ids, so
    ``_tree_passes`` is its oracle.
    """

    @pytest.mark.parametrize("n", [200, 400])
    def test_evidence_on_every_17th_node(self, n):
        net = _binary_chain(n, seed=n)
        rng = np.random.default_rng(n + 1)
        evidence = {i: rng.uniform(0.05, 1.0, size=2) for i in range(0, n, 17)}
        oracle = _tree_passes(net, evidence)
        for arch, res in run_all(net, evidence).items():
            assert _worst(res, oracle) <= 1e-9, arch

    @pytest.mark.xfail(
        strict=True,
        raises=PotentialError,
        reason="underflow: P(e) is about 1e-1200, so every engine's table mass reaches 0",
    )
    def test_tiny_soft_evidence_on_every_node(self):
        n = 400
        net = _binary_chain(n, seed=n)
        evidence = {i: np.array([1e-3, 1e-3]) for i in range(n)}
        oracle = _tree_passes(net, evidence)
        for arch, res in run_all(net, evidence).items():
            assert _worst(res, oracle) <= 1e-9, arch


def _random_tree_net(n, seed):
    """A tree-shaped network: X0 is the root, each other Xi has one parent among X0..X(i-1).

    Cardinalities are 2 or 3 and CPT rows are drawn from ``seed``.
    """
    rng = np.random.default_rng(seed)
    variables = [Variable(i, "X%d" % i, int(rng.integers(2, 4))) for i in range(n)]
    parents = [None] + [int(rng.integers(i)) for i in range(1, n)]
    cpts = {}
    for i, v in enumerate(variables):
        family = [v] if i == 0 else [variables[parents[i]], v]
        rows = rng.uniform(0.05, 1.0, size=(1 if i == 0 else family[0].cardinality, v.cardinality))
        cpts[i] = make_potential(family, rows / rows.sum(axis=1, keepdims=True))
    arcs = [(parents[i], i) for i in range(1, n)]
    return BayesNet(variables, arcs, cpts)


def _tree_passes(net, evidence):
    """Singleton posteriors of a network whose every variable has at most one parent.

    Parents must have lower ids than their children.  The upward pass sends
    each child's likelihood message to its parent, the downward pass each
    parent's prior message to its children, and every message is scaled to
    sum to one, so no product underflows.
    """
    n = net.n
    parent = {child: p for p, child in net.arcs}
    kids = {i: [c for p, c in net.arcs if p == i] for i in range(n)}
    lik = [np.asarray(evidence.get(i, np.ones(net.cards[i])), dtype=float) for i in range(n)]
    cpt = [net.cpts[i].values for i in range(n)]  # a root's prior, else [parent state, child state]
    lam, up = [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        lam[i] = lik[i] * np.prod([up[c] for c in kids[i]], axis=0) if kids[i] else lik[i]
        if i in parent:
            u = cpt[i] @ lam[i]
            up[i] = u / u.sum()
    pi = [None] * n
    post = {}
    for i in range(n):
        if i in parent:
            p = parent[i]
            m = pi[p] * lik[p]
            for c in kids[p]:
                if c != i:
                    m = m * up[c]
            pi[i] = (m / m.sum()) @ cpt[i]
        else:
            pi[i] = cpt[i]
        pi[i] = pi[i] / pi[i].sum()
        b = pi[i] * lam[i]
        post[i] = b / b.sum()
    return post


class TestTreeOracle:
    """All three engines against scaled upward/downward passes on tree-shaped networks."""

    @pytest.mark.parametrize(
        "n,chain", [(2, False), (7, False), (12, False), (12, True)], ids=["2", "7", "12", "chain-12"]
    )
    def test_oracle_matches_the_joint(self, n, chain):
        if chain:
            net = _binary_chain(n, seed=n)
            evidence = {0: np.array([0.3, 0.9]), 5: np.array([1.0, 0.0]), 11: np.array([0.2, 0.4])}
        else:
            net = _random_tree_net(n, seed=n)
            evidence = {
                0: np.array([0.3] + [0.9] * (net.cards[0] - 1)),
                n - 1: np.eye(net.cards[n - 1])[1],
            }
            if n > 4:
                evidence[n // 2] = np.linspace(0.2, 1.0, net.cards[n // 2])
        brute = oracle_marginals(net, evidence)
        tree = _tree_passes(net, evidence)
        assert max(float(np.abs(tree[x] - brute[x]).max()) for x in brute) <= 1e-12

    @pytest.mark.parametrize("n", [200, 400])
    def test_evidence_on_every_17th_node(self, n):
        net = _random_tree_net(n, seed=n)
        rng = np.random.default_rng(n + 1)
        evidence = {i: rng.uniform(0.05, 1.0, size=net.cards[i]) for i in range(0, n, 17)}
        oracle = _tree_passes(net, evidence)
        for arch, res in run_all(net, evidence).items():
            assert _worst(res, oracle) <= 1e-9, arch


class TestPropagationHook:
    def test_step_sequence_covers_every_edge_twice(self, chest_comp):
        steps = []
        hugin_run(
            chest_comp.junction,
            chest_comp.potentials,
            on_step=lambda phase, s, r, tables, store: steps.append((phase, s, r)),
        )
        k = len(chest_comp.junction.nodes)
        assert len(steps) == 2 * (k - 1)
        inward = [s for s in steps if s[0] == "inward"]
        outward = [s for s in steps if s[0] == "outward"]
        assert len(inward) == len(outward) == k - 1
        assert steps[: len(inward)] == inward
        sent = {(s, r) for _, s, r in steps}
        for u, v in chest_comp.junction.edges():
            assert (u, v) in sent and (v, u) in sent


class TestSmallTrees:
    def test_single_clique_needs_no_messages(self):
        params = GenParams(n=2, c2=2, m=2, p=1, seed=11)
        net, ev = random_case(params, 0)
        comp = compile_structures(net, ev)
        oracle = oracle_marginals(net, ev)
        if len(comp.junction.nodes) == 1:
            res = hugin_run(comp.junction, comp.potentials)
            assert res.messages == {}
            assert _worst(res, oracle) <= 1e-12

    def test_leaf_rule_serves_outward_sends_only(self):
        # both nodes hold (0, 1): the root is a degree-1 node equal to its
        # separator, but only the leaf it sends to outward is served by the register
        tree = JoinTree("junction", {0: (0, 1), 1: (0, 1)}, {0: [1], 1: [0]}, {0: 2, 1: 3})
        tree.assignments = {0: [0], 1: [1]}
        pots = [from_values((0,), (2,), [0.3, 0.7]), from_values((0, 1), (2, 3), [1, 2, 3, 4, 5, 6])]
        assert tree.sends == [(1, 0), (0, 1)]
        _assert_ls_hugin_match_references(tree, pots, None)
        joint = pots[0].values[:, None] * pots[1].values
        want = joint.sum(axis=1) / joint.sum()
        np.testing.assert_allclose(hugin_run(tree, pots).singleton_marginals[0].values, want)

    def test_run_all_uses_natural_trees(self, chest, chest_evidence):
        out = run_all(chest, chest_evidence)
        assert out["ls"].tree_kind == "junction"
        assert out["hugin"].tree_kind == "junction"
        assert out["ss"].tree_kind == "binary"
        assert out["hugin"].counter.as_tuple() == (60, 96, 16)
        assert out["ss"].counter.as_tuple() == (56, 124, 0)

    def test_targets_restrict_reported_marginals(self, chest, chest_evidence):
        out = run_all(chest, chest_evidence, targets=[3, 5])
        for res in out.values():
            assert sorted(res.singleton_marginals) == [3, 5]


class TestCountInvariants:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 12),
        st.integers(2, 4),
        st.integers(2, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_architecture_relations_on_shared_tree(self, seed, n, c2, m):
        params = GenParams(n=n, c2=c2, m=m, p=min(2, n), seed=seed)
        net, ev = random_case(params, 0)
        comp = compile_structures(net, ev)
        jt = comp.junction
        ls = ls_run(jt, comp.potentials).counter
        hg = hugin_run(jt, comp.potentials).counter
        ss = ss_run(comp.binary, comp.potentials).counter
        assert ls.mults == hg.mults
        assert hg.adds <= ls.adds
        assert hg.divs <= ls.divs
        assert ss.divs == 0
        if len(jt.nodes) > 1:
            assert hg.divs < ls.divs
        if any(len(jt.separator(u, v)) > 0 for u, v in jt.edges()):
            assert hg.adds < ls.adds

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_all_architectures_agree_with_oracle(self, seed, n):
        params = GenParams(n=n, c2=3, m=3, p=1, seed=seed)
        net, ev = random_case(params, 0)
        oracle = oracle_marginals(net, ev)
        for res in run_all(net, ev).values():
            assert _worst(res, oracle) <= 1e-9


def _with_deterministic_rows(net, rng, share):
    """Copy of ``net`` whose CPT rows are, each with chance ``share``, one-hot."""
    cpts = {}
    for v in net.variables:
        rows = net.cpts[v.id].values.reshape(-1, v.cardinality).copy()
        for row in rows:
            if rng.uniform() < share:
                row[:] = 0.0
                row[rng.integers(v.cardinality)] = 1.0
        cpts[v.id] = make_potential([net.var(u) for u in net.family(v.id)], rows)
    return BayesNet(net.variables, net.arcs, cpts)


class TestZerosAndOneVariable:
    """Deterministic CPT rows and a one-variable network, against the brute-force oracle."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.integers(2, 4),
        st.integers(2, 3),
        st.sampled_from([0.25, 0.5, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_deterministic_rows(self, seed, n, c2, m, share):
        net, ev = random_case(GenParams(n=n, c2=c2, m=m, p=min(3, n), seed=seed), 0)
        net = _with_deterministic_rows(net, np.random.default_rng(seed), share)
        assume(float(joint_oracle(net, ev).values.sum()) > 0.0)
        oracle = oracle_marginals(net, ev)
        for arch, res in run_all(net, ev).items():
            assert _worst(res, oracle) <= 1e-9, arch

    @pytest.mark.parametrize(
        "evidence", [{}, {0: np.array([1.0, 0.5, 0.0])}], ids=["no-evidence", "soft-evidence"]
    )
    def test_one_variable_network(self, evidence):
        a = Variable(0, "A", 3)
        net = BayesNet([a], [], {0: make_potential([a], [0.2, 0.5, 0.3])})
        oracle = oracle_marginals(net, evidence)
        for arch, res in run_all(net, evidence).items():
            assert _worst(res, oracle) <= 1e-9, arch


class TestErrors:
    def test_unassigned_tree_rejected(self, chest_comp):
        from bnbench.compile import JoinTree

        bare = JoinTree(
            kind="junction",
            nodes=dict(chest_comp.junction.nodes),
            adj={n: list(a) for n, a in chest_comp.junction.adj.items()},
            cards=chest_comp.junction.cards,
            assignments={},
        )
        with pytest.raises(EngineError):
            ls_run(bare, chest_comp.potentials)

    def test_no_potentials_rejected(self, chest_comp):
        from bnbench.compile import JoinTree

        # with nothing to load, no node would ever get a table
        bare = JoinTree(
            kind="junction",
            nodes=dict(chest_comp.junction.nodes),
            adj={n: list(a) for n, a in chest_comp.junction.adj.items()},
            cards=chest_comp.junction.cards,
        )
        for run in (ls_run, hugin_run, ss_run):
            with pytest.raises(EngineError, match="no input potentials"):
                run(bare, [])

    def test_disconnected_tree_rejected(self):
        # nodes 0 and 1 are joined, nodes 2 and 3 stand alone; node 3's
        # potential gives variable 2 the marginal [0.95, 0.05]
        tree = JoinTree(
            "junction",
            {0: (0, 1), 1: (1,), 2: (2,), 3: (2, 3)},
            {0: [1], 1: [0], 2: [], 3: []},
            {0: 2, 1: 2, 2: 2, 3: 2},
        )
        tree.assignments = {0: [0], 3: [1]}
        pots = [
            from_values((0, 1), (2, 2), [0.2, 0.3, 0.4, 0.1]),
            from_values((2, 3), (2, 2), [0.9, 0.05, 0.03, 0.02]),
        ]
        for run in (ls_run, hugin_run, ss_run):
            with pytest.raises(EngineError, match="^tree is not connected: 2 of 4 nodes reachable"):
                run(tree, pots)

    def test_unknown_target_rejected(self, chest_comp):
        with pytest.raises(EngineError):
            ss_run(chest_comp.binary, chest_comp.potentials, targets=[42])
