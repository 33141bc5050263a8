import warnings

import numpy as np
import pytest

from bnbench.compile import binary_join_tree, compile_structures
from bnbench.counting import OpCounter
from bnbench.engines import hugin_run, ls_run, ss_run
from bnbench.generate import GenParams, random_case
from bnbench.network import (
    BayesNet,
    NetworkError,
    check_evidence,
    chest_clinic,
    chest_clinic_evidence,
    evidence_potentials,
    figure9_evidence,
    figure9_net,
    input_potentials,
    joint_oracle,
    oracle_marginals,
    validate,
)
from bnbench.potentials import Variable, make_potential, marginalize


def tiny_chain():
    a = Variable(0, "a", 2)
    b = Variable(1, "b", 2)
    cpts = {
        0: make_potential([a], [0.4, 0.6]),
        1: make_potential([a, b], [0.9, 0.1, 0.2, 0.8]),
    }
    return BayesNet([a, b], [(0, 1)], cpts)


class TestValidate:
    def test_chest_is_clean(self, chest):
        assert validate(chest) == []

    def test_empty_network_reported(self):
        assert validate(BayesNet([], [], {})) == ["network has no variables"]

    def test_figure9_is_clean(self):
        assert validate(figure9_net()) == []

    def test_unnormalized_cpt_reported(self):
        net = tiny_chain()
        net.cpts[0] = make_potential([net.var(0)], [0.5, 0.6])
        assert any("sum" in p for p in validate(net))
        assert "CPT of variable 'a': row at parent configuration () sums to 1.1" in validate(net)

    def test_cycle_reported(self):
        a = Variable(0, "a", 2)
        b = Variable(1, "b", 2)
        cpts = {
            0: make_potential([b, a], [0.5, 0.5, 0.5, 0.5]),
            1: make_potential([a, b], [0.5, 0.5, 0.5, 0.5]),
        }
        net = BayesNet([a, b], [(0, 1), (1, 0)], cpts)
        assert any("cycl" in p or "acyclic" in p for p in validate(net))
        assert "acyclicity violation: directed cycle 'a' -> 'b' -> 'a'" in validate(net)

    def test_cycle_lists_its_variables_only(self):
        # r -> a -> b -> c -> a, with d hanging below the cycle
        r, a, b, c, d = (Variable(i, name, 2) for i, name in enumerate("rabcd"))
        half = [0.5] * 4
        cpts = {
            0: make_potential([r], [0.5, 0.5]),
            1: make_potential([r, c, a], half * 2),
            2: make_potential([a, b], half),
            3: make_potential([b, c], half),
            4: make_potential([c, d], half),
        }
        net = BayesNet([r, a, b, c, d], [(0, 1), (3, 1), (1, 2), (2, 3), (3, 4)], cpts)
        assert validate(net) == ["acyclicity violation: directed cycle 'a' -> 'b' -> 'c' -> 'a'"]

    def test_self_arc_reported(self):
        net = tiny_chain()
        net.arcs.append((1, 1))
        assert any("self" in p for p in validate(net))
        assert validate(net) == ["self-arc on variable 'b'"]

    def test_missing_cpt_reported(self):
        net = tiny_chain()
        del net.cpts[1]
        assert validate(net) == ["variable 'b' has no CPT"]

    def test_cardinality_mismatch_reported(self):
        net = tiny_chain()
        a3 = Variable(0, "a", 3)
        net.cpts[0] = make_potential([a3], [0.2, 0.3, 0.5])
        assert validate(net) == ["CPT of variable 'a' has 3 states, the variable has 2"]

    def test_disconnected_reported(self):
        a = Variable(0, "a", 2)
        b = Variable(1, "b", 2)
        cpts = {
            0: make_potential([a], [0.5, 0.5]),
            1: make_potential([b], [0.5, 0.5]),
        }
        net = BayesNet([a, b], [], cpts)
        assert any("connect" in p for p in validate(net))

    def test_cpt_domain_mismatch_reported(self):
        net = tiny_chain()
        net.cpts[1] = make_potential([net.var(1)], [0.5, 0.5])
        assert any("domain" in p for p in validate(net))
        assert validate(net) == [
            "CPT of variable 'b' has domain ['b'], not its parents then itself ['a', 'b']"
        ]

    def test_arc_reference_out_of_range(self):
        net = tiny_chain()
        net.arcs.append((0, 5))
        assert any("unknown" in p or "range" in p for p in validate(net))

    def test_each_subnormal_cpt_entry_reported(self):
        net = tiny_chain()
        net.cpts[1] = make_potential([net.var(0), net.var(1)], [1e-320, 1 - 1e-320, 1 - 5e-324, 5e-324])
        assert validate(net) == [
            "CPT of variable 'b': entry at configuration (0, 0) is 1e-320, below the smallest normal float 2.2250738585072014e-308",
            "CPT of variable 'b': entry at configuration (1, 1) is 5e-324, below the smallest normal float 2.2250738585072014e-308",
        ]

    @pytest.mark.parametrize("small", [1e-300, 2.2250738585072014e-308, 0.0])
    def test_normal_and_zero_cpt_entries_pass(self, small):
        net = tiny_chain()
        net.cpts[0] = make_potential([net.var(0)], [small, 1 - small])
        assert validate(net) == []


class TestEvidence:
    def test_chest_evidence_is_clean(self, chest, chest_evidence):
        assert check_evidence(chest, chest_evidence) == []

    def test_wrong_length_reported(self, chest):
        assert check_evidence(chest, {0: np.ones(3)}) != []

    def test_negative_reported(self, chest):
        assert check_evidence(chest, {0: np.array([-1.0, 1.0])}) != []

    def test_unknown_variable_reported(self, chest):
        assert check_evidence(chest, {99: np.ones(2)}) != []

    @pytest.mark.parametrize("vid", [-1, 8])
    def test_potentials_refuse_unknown_variable(self, chest, vid):
        # a negative id must not index from the end: -1 would be D
        for build in (evidence_potentials, compile_structures):
            with pytest.raises(NetworkError, match="^evidence on unknown variable %d$" % vid):
                build(chest, {vid: [1.0, 0.0]})

    def test_potentials_sorted_by_variable(self, chest, chest_evidence):
        pots = evidence_potentials(chest, chest_evidence)
        assert [p.domain for p in pots] == [(0,), (7,)]


def prescaled(vec):
    """``vec`` scaled by ``2**-e``, e the binary exponent of its largest entry, when that entry exceeds 1."""
    vec = np.asarray(vec, dtype=np.float64)
    return np.ldexp(vec, -np.frexp(vec.max())[1]) if vec.max() > 1 else vec


def big_likelihood_case(label):
    """``(net, evidence)`` whose unscaled products overflow float64 to inf.

    ``"chest"``: A, D and X observed with likelihoods up to 1e300.
    ``"long-0"``: ``long`` trial 0 with (1e6, 1) on every third variable.
    """
    if label == "chest":
        return chest_clinic(), {0: [1e300, 1e300], 7: [1e300, 1e200], 6: [1e300, 1e300]}
    net, evidence = random_case(GenParams(n=200, c1=5, c2=2, m=2, p=1, seed=2013), 0)
    return net, {**evidence, **{v: [1e6, 1.0] for v in range(0, net.n, 3)}}


class TestLargeLikelihoods:
    """A likelihood whose largest entry exceeds 1 is scaled by a power of two, so no product overflows."""

    def test_scaling_is_exact_and_only_above_one(self, chest):
        vectors = {0: [3.0, 0.25], 6: [0.5, 1.0], 7: [1e300, 1e200]}
        pots = evidence_potentials(chest, vectors)
        assert pots[0].values.tolist() == [0.75, 0.0625]
        assert pots[1].values.tolist() == [0.5, 1.0]
        assert pots[2].values.tobytes() == prescaled(vectors[7]).tobytes()
        assert 0.5 <= pots[2].values.max() < 1.0

    @pytest.mark.parametrize("label", ["chest", "long-0"])
    def test_marginals_are_finite_and_equal_the_prescaled_run(self, label):
        net, evidence = big_likelihood_case(label)

        def marginals(ev):
            comp = compile_structures(net, ev)
            runs = ((ls_run, comp.junction), (hugin_run, comp.junction), (ss_run, comp.binary))
            return [run(tree, comp.potentials).singleton_marginals for run, tree in runs]

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = marginals(evidence)
            want = marginals({v: prescaled(vec) for v, vec in evidence.items()})
        assert len(got[0]) == net.n
        for g, w in zip(got, want):
            assert list(g) == list(w)
            for x in g:
                assert np.isfinite(g[x].values).all(), (label, x)
                assert g[x].values.tobytes() == w[x].values.tobytes()
                np.testing.assert_allclose(g[x].values, got[0][x].values, rtol=0, atol=1e-12)


class TestSmallLikelihoods:
    """A likelihood whose largest entry is positive and below 0.5 is scaled up by a power of two.

    On the chest, A's likelihood replaced and D's left at ``[1, 0]``: each
    vector gives the marginals of the normal vector it is a multiple of.
    Unscaled, a subnormal entry lost its few significant bits, or flushed
    to 0, in its first product.
    """

    @pytest.mark.parametrize(
        "lik, same",
        [([1e-320, 0.0], [1.0, 0.0]), ([5e-324, 0.0], [1.0, 0.0]), ([1e-310, 1e-310], [1.0, 1.0])],
        ids=["1e-320", "smallest-subnormal", "two-subnormals"],
    )
    def test_subnormal_likelihoods_give_the_truth(self, chest, chest_evidence, lik, same):
        truth = oracle_marginals(chest, {**chest_evidence, 0: np.array(same)})
        evidence = {**chest_evidence, 0: np.array(lik)}
        comp = compile_structures(chest, evidence)
        runs = ((ls_run, comp.junction), (hugin_run, comp.junction), (ss_run, comp.binary))
        got = [run(tree, comp.potentials).singleton_marginals for run, tree in runs]
        got = [{x: m[x].values for x in m} for m in got] + [oracle_marginals(chest, evidence)]
        for marginals in got:
            assert sorted(marginals) == sorted(truth)
            for x in truth:
                np.testing.assert_allclose(marginals[x], truth[x], rtol=0, atol=1e-12)

    def test_scaling_is_exact_and_only_outside_half_to_one(self, chest):
        vectors = {0: [1e-320, 0.0], 1: [0.25, 0.1], 2: [0.5, 0.2], 3: [0.0, 0.0], 4: [0.75, 1.0]}
        pots = evidence_potentials(chest, vectors)
        assert pots[0].values.tobytes() == np.ldexp(np.array(vectors[0]), 1063).tobytes()
        assert 0.5 <= pots[0].values.max() < 1.0
        assert pots[1].values.tolist() == [0.5, 0.2]
        for p, vid in zip(pots[2:], (2, 3, 4)):
            assert p.values.tolist() == vectors[vid]

    @pytest.mark.parametrize("largest, scale", [(1.0 + 2.0**-52, 0.5), (1.5, 0.5), (2.0, 0.25)])
    def test_largest_entry_just_above_one_is_scaled(self, chest, largest, scale):
        # (1, 2] cannot overflow a product, but the rule still scales it into [0.5, 1)
        (pot,) = evidence_potentials(chest, {0: [largest, 0.125]})
        assert 0.5 <= pot.values.max() < 1.0
        assert pot.values.tolist() == [largest * scale, 0.125 * scale]


class TestInputPotentials:
    def test_chest_has_ten_inputs_nine_domains(self, chest, chest_evidence):
        pots = input_potentials(chest, chest_evidence)
        assert isinstance(pots, list) and len(pots) == 10
        # nine distinct domains: the evidence on A repeats A's CPT domain
        domains = [p.domain for p in pots]
        assert len({tuple(sorted(d)) for d in domains}) == 9
        # with nothing eliminated the pool is the seeded one: every singleton, then each
        # multi-variable domain once, sorted, in first-appearance order
        for listed in (domains, domains + [d[::-1] for d in domains]):
            seeded = binary_join_tree(listed, chest.cards, [])
            assert seeded.nodes == {
                **{v: (v,) for v in range(8)},
                8: (0, 2), 9: (1, 3), 10: (1, 4), 11: (2, 3, 5), 12: (5, 6), 13: (4, 5, 7),
            }

    def test_cpts_come_first_in_variable_order(self, chest, chest_evidence):
        pots = input_potentials(chest, chest_evidence)
        assert [p.domain[-1] for p in pots[:8]] == list(range(8))


class TestOracle:
    def test_chest_joint_has_full_domain(self, chest, chest_evidence):
        joint = joint_oracle(chest, chest_evidence)
        assert joint.values.size == 256
        assert set(joint.domain) == set(range(8))

    def test_prior_marginals_match_root_cpts(self, chest):
        marg = oracle_marginals(chest, {})
        np.testing.assert_allclose(marg[0], [0.01, 0.99], atol=1e-12)
        np.testing.assert_allclose(marg[1], [0.5, 0.5], atol=1e-12)

    def test_evidence_zeroes_observed_states(self, chest, chest_evidence):
        marg = oracle_marginals(chest, chest_evidence)
        np.testing.assert_allclose(marg[0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(marg[7], [1.0, 0.0], atol=1e-12)

    def test_marginals_are_normalized(self, chest, chest_evidence):
        marg = oracle_marginals(chest, chest_evidence)
        for vals in marg.values():
            assert abs(vals.sum() - 1.0) <= 1e-12

    def test_cap_refused(self, chest):
        with pytest.raises(NetworkError):
            joint_oracle(chest, {}, cap=255)

    def test_empty_network_refused(self):
        with pytest.raises(NetworkError, match="network has no variables"):
            oracle_marginals(BayesNet([], [], {}), {})

    def test_zero_mass_evidence_raises(self):
        net = tiny_chain()
        with pytest.raises(Exception):
            oracle_marginals(net, {0: np.array([0.0, 0.0])})

    def test_oracle_joint_equals_cpt_product(self):
        net = tiny_chain()
        joint = joint_oracle(net, {})
        c = OpCounter()
        marg = marginalize(joint, (1,), c)
        np.testing.assert_allclose(marg.values, [0.9 * 0.4 + 0.2 * 0.6, 0.1 * 0.4 + 0.8 * 0.6])


class TestChestShape:
    def test_families_follow_arc_order(self, chest):
        assert chest.cpts[5].domain == (2, 3, 5)
        assert chest.cpts[7].domain == (5, 4, 7)
        assert chest.cpts[0].domain == (0,)

    def test_all_binary(self, chest):
        assert [v.cardinality for v in chest.variables] == [2] * 8

    def test_evidence_observes_first_state(self, chest_evidence):
        assert sorted(chest_evidence) == [0, 7]
        for vec in chest_evidence.values():
            np.testing.assert_allclose(vec, [1.0, 0.0])

    def test_figure9_shape(self):
        net = figure9_net()
        assert [v.cardinality for v in net.variables] == [5, 5, 5]
        assert net.arcs == [(0, 1), (0, 2)]
        assert sorted(figure9_evidence()) == [1, 2]
