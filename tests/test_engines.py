import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnbench import cli, engines, storage
from bnbench.compile import JoinTree, assign_potentials, compile_structures
from bnbench.counting import OpCounter
from bnbench.engines import EngineError, hugin_run, ls_run, run_all, ss_run
from bnbench.generate import GenParams, random_case
from bnbench.network import (
    BayesNet,
    chest_clinic,
    chest_clinic_evidence,
    input_potentials,
    joint_oracle,
    oracle_marginals,
)
from bnbench.potentials import (
    BIG_CELLS,
    Potential,
    PotentialError,
    Variable,
    make_potential,
    marginalize,
    multiply,
)
from helpers import (
    MarkedIdentity,
    from_values,
    reference_hugin_run,
    reference_ls_run,
    reference_ss_run,
    step_counts,
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

    def test_inputs_are_read_only(self, chest, chest_evidence):
        # a compile of its own, so a write that got through would spoil no other test
        for pot in compile_structures(chest, chest_evidence).potentials:
            with pytest.raises(ValueError):
                pot.values[(0,) * pot.values.ndim] = 0.5
            with pytest.raises(ValueError):
                multiply(pot, pot, OpCounter(), None, True)


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

    # the run without a hook takes the other path through the steps
    plain = hugin_run(tree, potentials, targets)
    _assert_same_counter(plain.counter, got.counter)
    _assert_same_tables(plain.node_marginals, got.node_marginals)
    _assert_same_tables(plain.messages, got.messages)
    _assert_same_tables(plain.singleton_marginals, got.singleton_marginals)


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


def _compiled(label):
    """The compiled ``"chest"`` network, or trial t of ``LONG`` or ``WIDE`` for ``"long-t"`` or ``"wide-t"``."""
    if label == "chest":
        return compile_structures(chest_clinic(), chest_clinic_evidence())
    params, t = label.split("-")
    return compile_structures(*random_case(LONG if params == "long" else WIDE, int(t)))


class TestPlansFromDomains:
    """A plan is a function of the tree, the potentials' domains and the targets alone.

    Built from bare domain tuples, with no ``Potential`` in reach, the
    LS/Hugin pair and the SS plan equal in ``repr`` the plans an engine run
    caches.
    """

    @pytest.mark.parametrize("label", ["chest", "long-0"] + ["wide-%d" % t for t in range(5)])
    def test_bare_domains_build_the_cached_plans(self, label):
        comp = _compiled(label)
        domains = tuple(p.domain for p in comp.potentials)
        for tree in (comp.junction, comp.binary):
            ls_run(tree, comp.potentials)
            ss_run(tree, comp.potentials)
            targets = engines._targets(tree, None)
            assert repr(engines._build_table_plans(tree, domains, targets)) == repr(tree.plans["ls/hugin"][2]), label
            assert repr(engines._build_ss_plan(tree, domains, targets)) == repr(tree.plans["ss"][2]), label


def _assert_all_match_references(tree, potentials, targets=None):
    _assert_ls_hugin_match_references(tree, potentials, targets)
    _assert_ss_matches_reference(tree, potentials, targets)


class TestPlanReuse:
    """Runs replay a tree's cached plan, bit for bit, and never a plan built for other inputs."""

    def test_second_run_replays_the_first_runs_plan(self):
        comp = compile_structures(*random_case(GenParams(n=8, c2=5, m=6, p=3, seed=0), 3))
        for tree in (comp.junction, comp.binary):
            _assert_all_match_references(tree, comp.potentials)
            plans = dict(tree.plans)
            assert sorted(plans) == ["ls/hugin", "ss"]
            _assert_all_match_references(tree, comp.potentials)
            assert all(tree.plans[kind] is plans[kind] for kind in plans)

    def test_second_run_on_a_long_trial(self):
        # each architecture on its natural tree, as bench runs it
        comp = compile_structures(*random_case(LONG, 0))
        for _ in range(2):
            _assert_ls_hugin_match_references(comp.junction, comp.potentials, None)
            _assert_ss_matches_reference(comp.binary, comp.potentials, None)

    def test_storage_probe_replays_the_engine_plan(self, monkeypatch):
        net, ev = random_case(LONG, 1)
        comp = compile_structures(net, ev)
        tree = comp.binary
        _assert_ss_matches_reference(tree, comp.potentials, None)
        plan = tree.plans["ss"]
        probes = []

        def probe(*args):
            probes.append(ss_run(*args))
            return probes[-1]

        monkeypatch.setattr(storage, "ss_run", probe)
        report = storage.storage_report("ss", tree, net, ev)
        assert tree.plans["ss"] is plan
        (got,) = probes
        want = reference_ss_run(tree, comp.potentials)
        assert got.counter.as_tuple() == want.counter.as_tuple()
        _assert_same_tables(got.messages, want.messages)
        _assert_same_tables(got.node_marginals, want.node_marginals)
        _assert_same_tables(got.singleton_marginals, want.singleton_marginals)
        assert report.separator_fpn == sum(m.size for m in want.messages.values() if m is not None)

    def test_new_targets_build_a_new_ss_plan(self):
        comp = compile_structures(*random_case(GenParams(n=30, c2=3, m=3, p=2, seed=3), 0))
        for tree in (comp.binary, comp.junction):
            for targets in (None, [7], [], [3, 15, 29], None):
                _assert_all_match_references(tree, comp.potentials, targets)

    def test_assign_potentials_drops_the_plans(self):
        net, ev = random_case(GenParams(n=30, c2=3, m=3, p=2, seed=4), 0)
        comp = compile_structures(net, ev)
        others, _ = input_potentials(net, {})
        assert len(others) < len(comp.potentials)
        for tree in (comp.junction, comp.binary):
            _assert_all_match_references(tree, comp.potentials)
            old = dict(tree.plans)
            assign_potentials(tree, others)
            _assert_all_match_references(tree, others)
            assert sorted(tree.plans) == sorted(old)
            for kind, (_, assignments, plan) in tree.plans.items():
                assert assignments == tree.assignments and assignments is not tree.assignments
                assert plan is not old[kind][2]

    @pytest.mark.parametrize(
        "params, trials",
        [(GenParams(n=8, c2=5, m=6, p=3, seed=2013), range(5)), (LONG, range(1))],
        ids=["preset", "long"],
    )
    def test_one_build_of_each_plan_per_bench_trial(self, monkeypatch, params, trials):
        builds = {"ls/hugin": 0, "ss": 0}
        for kind, name in (("ls/hugin", "_build_table_plans"), ("ss", "_build_ss_plan")):

            def counting(*args, kind=kind, build=getattr(engines, name)):
                builds[kind] += 1
                return build(*args)

            monkeypatch.setattr(engines, name, counting)
        for t in trials:
            cli._bench_trial(params, t)
        assert builds == {"ls/hugin": len(trials), "ss": len(trials)}

    def test_refused_runs_keep_no_plan(self, chest_comp):
        fresh = compile_structures(*random_case(GenParams(n=8, c2=2, m=3, p=3, seed=0), 0))
        jt = chest_comp.junction
        bare = JoinTree("junction", jt.nodes, jt.adj, jt.cards)  # no potential assigned
        for tree, potentials in ((fresh.junction, []), (fresh.binary, []), (bare, chest_comp.potentials)):
            for run in (ls_run, hugin_run, ss_run):
                with pytest.raises(EngineError):
                    run(tree, potentials)
            assert tree.plans == {}

    def test_a_kept_plan_is_not_checked_again(self, monkeypatch):
        comp = compile_structures(*random_case(GenParams(n=30, c2=3, m=3, p=2, seed=7), 0))
        checks = []
        check = engines._check_assignments

        def counting(*args):
            checks.append(args)
            return check(*args)

        monkeypatch.setattr(engines, "_check_assignments", counting)
        cases = ((comp.junction, (ls_run, hugin_run)), (comp.junction, (ss_run,)), (comp.binary, (ss_run,)))
        for tree, runs in cases:
            checks.clear()
            for _ in range(2):
                for run in runs:
                    run(tree, comp.potentials)
            assert len(checks) == 1

    def test_new_targets_build_a_new_table_plan(self):
        comp = compile_structures(*random_case(GenParams(n=30, c2=3, m=3, p=2, seed=8), 0))
        for tree in (comp.junction, comp.binary):
            last = None
            for targets in (None, [7], [], [29, 3, 15, 3], None):
                _assert_ls_hugin_match_references(tree, comp.potentials, targets)
                chosen = sorted(tree.cards) if targets is None else sorted(set(targets))
                plans = tree.plans["ls/hugin"][2]
                assert plans is not last
                assert [sorted(plan.marginals) for plan in plans] == [chosen, chosen]
                last = plans

    def test_potentials_over_other_domains_build_a_new_plan(self):
        comp = compile_structures(*random_case(GenParams(n=30, c2=3, m=3, p=2, seed=5), 0))
        # the same tables with each multi-variable domain listed backwards
        flipped = [Potential(p.domain[::-1], p.values.transpose()) for p in comp.potentials]
        assert any(f.domain != p.domain for f, p in zip(flipped, comp.potentials))
        for tree in (comp.junction, comp.binary):
            _assert_all_match_references(tree, comp.potentials)
            _assert_all_match_references(tree, flipped)
            _assert_all_match_references(tree, comp.potentials)

    def test_reassigned_tree_builds_a_new_plan(self):
        comp = compile_structures(*random_case(GenParams(n=30, c2=3, m=3, p=2, seed=6), 0))
        tree = comp.junction
        _assert_all_match_references(tree, comp.potentials)
        # move one potential to another node that holds its domain
        moves = [
            (i, n, m)
            for n, idxs in tree.assignments.items()
            for i in idxs
            for m in tree.nodes
            if m != n and set(comp.potentials[i].domain) <= set(tree.nodes[m])
        ]
        i, n, m = moves[0]
        moved = {k: [j for j in idxs if j != i] for k, idxs in tree.assignments.items()}
        moved.setdefault(m, []).append(i)
        tree.assignments = {k: sorted(idxs) for k, idxs in moved.items() if idxs}
        _assert_all_match_references(tree, comp.potentials)
        # the same kind of move made by editing the live lists in place
        comp = compile_structures(*random_case(GenParams(n=30, c2=3, m=3, p=2, seed=6), 0))
        for tree, (i, n, m) in ((comp.junction, (5, 2, 19)), (comp.binary, (2, 32, 72))):
            _assert_all_match_references(tree, comp.potentials)
            assert set(comp.potentials[i].domain) <= set(tree.nodes[m])
            tree.assignments[n].remove(i)
            tree.assignments.setdefault(m, []).append(i)
            _assert_all_match_references(tree, comp.potentials)
            copied = {k: list(idxs) for k, idxs in tree.assignments.items()}
            fresh = JoinTree(tree.kind, tree.nodes, tree.adj, tree.cards, copied)
            for run in (ls_run, hugin_run, ss_run):
                got, want = run(tree, comp.potentials), run(fresh, comp.potentials)
                assert got.counter.as_tuple() == want.counter.as_tuple()


def _assert_counts_follow_from_steps(tree, potentials, targets=None):
    ls, hugin, ss = (run(tree, potentials, targets) for run in (ls_run, hugin_run, ss_run))
    ls_plan, hugin_plan = tree.plans["ls/hugin"][2]
    for res, plan in ((ls, ls_plan), (hugin, hugin_plan), (ss, tree.plans["ss"][2])):
        assert step_counts(tree, plan, [p.domain for p in potentials]) == res.counter.as_tuple(), res.arch


class TestCountsFollowFromSteps:
    """Each engine's counts are read off its plan's steps and the domains of its inputs alone."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 30),
        st.integers(2, 4),
        st.integers(2, 4),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_networks(self, seed, n, c2, m, data):
        net, ev = random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0)
        comp = compile_structures(net, ev)
        targets = data.draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), unique=True)))
        for tree in (comp.junction, comp.binary):
            _assert_counts_follow_from_steps(tree, comp.potentials, targets)

    def test_chest(self, chest_comp):
        for targets in (None, [], [6], [0, 3, 7]):
            for tree in (chest_comp.junction, chest_comp.binary):
                _assert_counts_follow_from_steps(tree, chest_comp.potentials, targets)

    def test_long_trial(self):
        comp = compile_structures(*random_case(LONG, 0))
        for tree in (comp.junction, comp.binary):
            _assert_counts_follow_from_steps(tree, comp.potentials)


class TestReplaysCallKernelsByName:
    """A replayed plan calls whatever ``engines.multiply``, ``marginalize`` and ``divide`` name at run time.

    The plans are built before the names are rebound, so a plan that kept
    the kernels themselves would bypass the wrappers.
    """

    def _assert_deltas_match(self, comp, monkeypatch):
        runs = [(run, tree) for tree in (comp.junction, comp.binary) for run in (ls_run, hugin_run, ss_run)]
        for run, tree in runs:
            run(tree, comp.potentials)
        seen = [0, 0, 0]

        def recording(kernel):
            def wrapped(*args):
                counter = args[2]
                before = counter.as_tuple()
                out = kernel(*args)
                for i, (now, then) in enumerate(zip(counter.as_tuple(), before)):
                    seen[i] += now - then
                return out

            return wrapped

        for name in ("multiply", "marginalize", "divide"):
            monkeypatch.setattr(engines, name, recording(getattr(engines, name)))
        for run, tree in runs:
            plans = dict(tree.plans)
            seen[:] = [0, 0, 0]
            res = run(tree, comp.potentials)
            assert all(tree.plans[kind] is plans[kind] for kind in plans)
            assert res.counter.total() > 0
            assert tuple(seen) == res.counter.as_tuple(), (run.__name__, tree.kind)

    def test_chest(self, chest_comp, monkeypatch):
        self._assert_deltas_match(chest_comp, monkeypatch)

    def test_long_trial(self, monkeypatch):
        self._assert_deltas_match(compile_structures(*random_case(LONG, 0)), monkeypatch)


class TestFreeLoad:
    """The free load is a copy step with a kernel plan: ``engines.embed``, with nothing charged.

    Each LS and Hugin plan loads each node's table exactly once, so it holds
    one such step per node, and the run embeds once per node; no SS step is
    a copy.
    """

    def _assert_one_free_load_per_node(self, comp, monkeypatch, sizes):
        counters, loads, embed = [], [], engines.embed

        def new_counter():
            counters.append(OpCounter())
            return counters[-1]

        def recording(pot, plan):
            before = counters[-1].as_tuple()
            out = embed(pot, plan)
            assert counters[-1].as_tuple() == before
            loads.append(out.domain)
            return out

        monkeypatch.setattr(engines, "OpCounter", new_counter)
        monkeypatch.setattr(engines, "embed", recording)
        for tree, size in zip((comp.junction, comp.binary), sizes):
            loads.clear()
            ls_run(tree, comp.potentials)
            assert len(loads) == len(tree.nodes) == size
            assert sorted(loads) == sorted(tree.nodes.values())
            for plan in tree.plans["ls/hugin"][2]:
                planned = [out for kind, out, _, _, kernel in plan.steps if kind == engines._COPY and kernel is not None]
                assert sorted(planned) == sorted(plan.nodes.values())

    def _assert_ss_never_copies(self, comp):
        for tree in (comp.junction, comp.binary):
            ss_run(tree, comp.potentials)
            assert all(kind != engines._COPY for kind, *_ in tree.plans["ss"][2].steps)

    def test_chest(self, chest_comp, monkeypatch):
        self._assert_ss_never_copies(chest_comp)
        self._assert_one_free_load_per_node(chest_comp, monkeypatch, (6, 20))

    def test_long_trial(self, monkeypatch):
        comp = compile_structures(*random_case(LONG, 0))
        self._assert_ss_never_copies(comp)
        self._assert_one_free_load_per_node(comp, monkeypatch, (158, 679))


def _snapshot(tables: dict) -> dict:
    return {k: None if t is None else (t.domain, t.values.tobytes()) for k, t in tables.items()}


# Networks with tables on both sides of potentials.BIG_CELLS: 6 to 12
# variables, each joined to up to 3-5 earlier ones (c2) and of up to 4-6
# states (m).  About one uniform draw in four holds a junction node of
# 2**11 cells or more.
_MIXED_SIZES = (
    st.integers(0, 2**32 - 1),
    st.integers(6, 12),
    st.integers(3, 5),
    st.integers(4, 6),
)


class TestInPlaceOwnership:
    """LS and Hugin write every node table in place, and no table another holder still reads.

    The hook, separator and wide tests fail when a marginalization that
    sums out nothing returns its input's own table (an in-place product or
    quotient then also writes the message, a register or a served leaf),
    or when the hook is handed the live tables.  The inputs test fails when
    a free load hands a node an input's own array.
    """

    @given(*_MIXED_SIZES)
    @settings(max_examples=40, deadline=None)
    def test_inputs_never_mutated(self, seed, n, c2, m):
        comp = compile_structures(*random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0))
        before = [(p.domain, p.values.tobytes()) for p in comp.potentials]
        for tree in (comp.junction, comp.binary):
            for run in (ls_run, hugin_run, ss_run):
                run(tree, comp.potentials)
                assert [(p.domain, p.values.tobytes()) for p in comp.potentials] == before

    @given(*_MIXED_SIZES)
    @settings(max_examples=40, deadline=None)
    def test_hook_arguments_stay_as_seen(self, seed, n, c2, m):
        comp = compile_structures(*random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0))
        for tree in (comp.junction, comp.binary):
            kept = []

            def keep(phase, sender, receiver, tables, store):
                kept.append((tables, store, _snapshot(tables), _snapshot(store)))

            hugin_run(tree, comp.potentials, on_step=keep)
            assert kept or len(tree.nodes) == 1
            for tables, store, seen_tables, seen_store in kept:
                assert _snapshot(tables) == seen_tables
                assert _snapshot(store) == seen_store

    @given(*_MIXED_SIZES)
    @settings(max_examples=40, deadline=None)
    def test_node_equal_to_its_separator(self, seed, n, c2, m):
        comp = compile_structures(*random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0))
        tree = comp.binary
        # a node of two or more variables whose whole domain is a separator
        assume(any(len(sep) > 1 and sep == tree.nodes[u] for (u, _), sep in tree.separators.items()))
        _assert_ls_hugin_match_references(tree, comp.potentials, None)

    def test_wide_trial(self):
        comp = compile_structures(*random_case(WIDE, 0))
        before = [(p.domain, p.values.tobytes()) for p in comp.potentials]
        assert max(comp.junction.spaces.values()) >= BIG_CELLS
        for tree in (comp.junction, comp.binary):
            _assert_ls_hugin_match_references(tree, comp.potentials, None)
            ss_run(tree, comp.potentials)
        assert [(p.domain, p.values.tobytes()) for p in comp.potentials] == before


def _assert_hook_copies_only_the_receiver(tree, potentials, monkeypatch):
    """Each hook call after the first shares every table but the receiver's with the call before.

    The receiver's entry is a new copy of its live table, read from the
    slots that ``engines._execute`` is handed.
    """
    slots, seen = [], []
    execute = engines._execute

    def keep_slots(steps, vals, counter):
        slots[:] = [vals]
        execute(steps, vals, counter)

    def check(phase, sender, receiver, tables, store):
        nodes = tree.plans["ls/hugin"][2][1].nodes
        assert list(tables) == [n for n in nodes if n in tables]
        live, got = slots[0][nodes[receiver]], tables[receiver]
        assert not np.shares_memory(got.values, live.values)
        assert (got.domain, got.values.tobytes()) == (live.domain, live.values.tobytes())
        if seen:
            assert got is not seen[-1].get(receiver)
            assert all(t is seen[-1].get(n) for n, t in tables.items() if n != receiver)
        seen.append(tables)

    monkeypatch.setattr(engines, "_execute", keep_slots)
    hugin_run(tree, potentials, on_step=check)
    assert len(seen) > 1


class TestHookCopiesOnlyTheReceiver:
    """A hooked Hugin run copies a node table only after a send writes it.

    Fails when every call copies every node table anew, or when a call
    hands the hook a live table or a stale copy of the receiver's.
    """

    def test_chest(self, chest_comp, monkeypatch):
        for tree in (chest_comp.junction, chest_comp.binary):
            _assert_hook_copies_only_the_receiver(tree, chest_comp.potentials, monkeypatch)

    def test_long_trial(self, monkeypatch):
        comp = compile_structures(*random_case(LONG, 0))
        for tree in (comp.junction, comp.binary):
            _assert_hook_copies_only_the_receiver(tree, comp.potentials, monkeypatch)


# The six-state small preset's trial 98 at seed 2013: a one-node junction
# tree, which sends nothing.
ONE_NODE = (GenParams(n=8, c2=5, m=6, p=3, seed=2013), 98)

# Networks of up to six states per variable, down to two variables.
_SIX_STATES = (
    st.integers(0, 2**32 - 1),
    st.integers(2, 10),
    st.integers(2, 4),
    st.integers(2, 6),
)


def _assert_slots_hold_values(plan, k: int):
    """Every slot after the k inputs is some step's output, and no step reads a slot before that.

    No step is exempt: each step's a, and its b when set, is an input or an
    earlier step's output.
    """
    filled = set(range(k))
    for _, out, a, b, _ in plan.steps:
        assert a in filled
        assert b is None or b in filled
        filled.add(out)
    assert filled == set(range(plan.size))
    ends = [*plan.nodes.values(), *plan.messages.values(), *plan.marginals.values()]
    assert {s for s in ends if s is not None} <= filled


def _assert_plans_hold_values(comp, targets=None):
    for tree in (comp.junction, comp.binary):
        chosen = engines._targets(tree, targets)
        domains = tuple(p.domain for p in comp.potentials)
        ls, hugin = engines._build_table_plans(tree, domains, chosen)
        ss = engines._build_ss_plan(tree, domains, chosen)
        for plan in (ls, hugin, ss):
            _assert_slots_hold_values(plan, len(comp.potentials))
        # no SS step is a copy: every marginalization sums some axis
        assert all(kernel[1] for kind, _, _, _, kernel in ss.steps if kind == engines._MARGINALIZE)


class TestPlanSlots:
    """Every slot of an LS, Hugin or SS plan holds a value some step writes before any step reads it.

    Fails when a plan reserves a slot that no step writes, such as the LS
    plan keeping Hugin's quotient and register slots, a message or quotient
    slot on a tree that never uses it, or an SS slot taken for a fold of one
    part; and when an SS plan copies a table by a marginalization that sums
    nothing, such as extracting a target from a product that spans only it.
    """

    @given(*_SIX_STATES, st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_networks(self, seed, n, c2, m, data):
        comp = compile_structures(*random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0))
        targets = data.draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), unique=True)))
        _assert_plans_hold_values(comp, targets)

    def test_chest(self, chest_comp):
        for targets in (None, [], [6], [0, 3, 7]):
            _assert_plans_hold_values(chest_comp, targets)

    def test_long_trial(self):
        _assert_plans_hold_values(compile_structures(*random_case(LONG, 0)))

    def test_wide_trial(self):
        _assert_plans_hold_values(compile_structures(*random_case(WIDE, 0)))

    def test_one_node_tree(self):
        comp = compile_structures(*random_case(*ONE_NODE))
        assert len(comp.junction.nodes) == 1
        _assert_plans_hold_values(comp)


def _assert_one_owner_per_table(tree, potentials):
    """No two node tables of a run share memory, nor a node table and a Hugin register.

    The one exception is a leaf served by its register: a non-root leaf of
    two or more variables whose domain is its separator.
    """
    root, _, _, parent, _ = tree.rooting
    for run in (ls_run, hugin_run, ss_run):
        res = run(tree, potentials)
        tables = list(res.node_marginals.items())
        for i, (n, t) in enumerate(tables):
            for other, u in tables[i + 1 :]:
                assert not np.shares_memory(t.values, u.values), (run.__name__, n, other)
            if run is not hugin_run:
                continue
            for e, r in res.messages.items():
                if np.shares_memory(t.values, r.values):
                    served = n != root and e == engines._edge_key(n, parent[n]) and len(tree.adj[n]) == 1
                    assert served and len(t.domain) > 1 and tree.nodes[n] == tree.separators[e], (n, e)


class TestOneOwnerPerTable:
    """After a run, each node table is its node's alone.

    Fails when a marginalization that sums out nothing returns its input's
    own table: a message from a node whose domain is the separator is then
    that node's table, which its neighbor's served leaf or the Hugin
    register keeps.
    """

    @given(*_SIX_STATES)
    @settings(max_examples=40, deadline=None)
    def test_random_networks(self, seed, n, c2, m):
        comp = compile_structures(*random_case(GenParams(n=n, c2=c2, m=m, p=1, seed=seed), 0))
        for tree in (comp.junction, comp.binary):
            _assert_one_owner_per_table(tree, comp.potentials)

    def test_chest(self, chest_comp):
        for tree in (chest_comp.junction, chest_comp.binary):
            _assert_one_owner_per_table(tree, chest_comp.potentials)

    @pytest.mark.parametrize("params", [LONG, WIDE], ids=["long", "wide"])
    def test_trial_zero(self, params):
        comp = compile_structures(*random_case(params, 0))
        for tree in (comp.junction, comp.binary):
            _assert_one_owner_per_table(tree, comp.potentials)


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


def _moved(tree: JoinTree, i: int, dest) -> JoinTree:
    """A copy of ``tree`` whose assignments place potential ``i`` on ``dest`` instead."""
    moved = {n: [j for j in idxs if j != i] for n, idxs in tree.assignments.items()}
    moved.setdefault(dest, []).append(i)
    return JoinTree(tree.kind, tree.nodes, tree.adj, tree.cards, moved)


class TestMisplacedInputsRejected:
    """Inputs that, unchecked, ran to wrong marginals or failed inside numpy are refused by all three engines."""

    # potential 8 is the evidence on A; the evidence A = yes must give P(A = yes) = 1
    @pytest.mark.parametrize("dest", [999, 1], ids=["no-node", "node-lacking-the-domain"])
    @pytest.mark.parametrize("kind", ["junction", "binary"])
    def test_chest_evidence_moved(self, chest, chest_evidence, chest_comp, kind, dest):
        tree = getattr(chest_comp, kind)
        assert chest_comp.potentials[8].domain == (0,)
        assert dest not in tree.nodes or 0 not in tree.nodes[dest]
        bad = _moved(tree, 8, dest)
        for run in (ls_run, hugin_run, ss_run):
            with pytest.raises(EngineError, match="^potential 8 over \\(0,\\) is placed on %d" % dest):
                run(bad, chest_comp.potentials)
        with pytest.raises(EngineError, match="^potential 8 "):
            storage.storage_report("ss", bad, chest, chest_evidence)
        assert bad.plans == {}

    @pytest.mark.parametrize("kind", ["junction", "binary"])
    def test_index_out_of_range(self, chest_comp, kind):
        tree = getattr(chest_comp, kind)
        k = len(chest_comp.potentials)
        for idx in (k, -1):
            assignments = {n: list(idxs) for n, idxs in tree.assignments.items()}
            assignments[min(tree.nodes)].append(idx)
            bad = JoinTree(tree.kind, tree.nodes, tree.adj, tree.cards, assignments)
            for run in (ls_run, hugin_run, ss_run):
                with pytest.raises(EngineError, match="^tree assignments place %d potential indices" % (k + 1)):
                    run(bad, chest_comp.potentials)

    def test_target_in_no_potential(self):
        # variable 2 lies in nodes 1 and 2, but the one potential spans (0, 1)
        tree = JoinTree(
            "junction",
            {0: (0, 1), 1: (1, 2), 2: (2,)},
            {0: [1], 1: [0, 2], 2: [1]},
            {0: 2, 1: 2, 2: 2},
            {0: [0]},
        )
        pots = [from_values((0, 1), (2, 2), [0.2, 0.3, 0.4, 0.1])]
        for run in (ls_run, hugin_run, ss_run):
            for targets in (None, [2], [0, 2]):
                with pytest.raises(EngineError, match="^target variable 2 appears in no input potential$"):
                    run(tree, pots, targets)
            res = run(tree, pots, [0, 1])
            np.testing.assert_allclose(res.singleton_marginals[0].values, [0.5, 0.5])
            np.testing.assert_allclose(res.singleton_marginals[1].values, [0.6, 0.4])

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.integers(2, 3),
        st.integers(2, 3),
        st.sampled_from(["junction", "binary"]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_moving_a_potential(self, seed, n, c2, m, kind, data):
        """A potential moved to another node holding its domain changes no marginal; elsewhere it is refused."""
        net, ev = random_case(GenParams(n=n, c2=c2, m=m, p=min(2, n), seed=seed), 0)
        comp = compile_structures(net, ev)
        tree = getattr(comp, kind)
        i = data.draw(st.integers(0, len(comp.potentials) - 1), label="potential")
        home = next(h for h, idxs in tree.assignments.items() if i in idxs)
        fits = data.draw(st.booleans(), label="destination holds the domain")
        dom = set(comp.potentials[i].domain)
        others = [d for d in sorted(tree.nodes) if d != home and (dom <= set(tree.nodes[d])) == fits]
        assume(others)
        moved = _moved(tree, i, data.draw(st.sampled_from(others), label="destination"))
        if fits:
            oracle = oracle_marginals(net, ev)
            for run in (ls_run, hugin_run, ss_run):
                assert _worst(run(moved, comp.potentials), oracle) <= 1e-9
        else:
            for run in (ls_run, hugin_run, ss_run):
                with pytest.raises(EngineError, match="^potential %d over" % i):
                    run(moved, comp.potentials)
