import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbench.generate import (
    GenParams,
    derive_seed,
    random_case,
    random_net,
    splitmix64,
    trial_params,
)
from bnbench.network import check_evidence, validate


class TestSeeding:
    def test_splitmix64_reference_vector(self):
        # first outputs of the reference implementation seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(splitmix64(0)) == 0xA706DD2F4D197E6F

    def test_derive_seed_separates_streams(self):
        seen = {derive_seed(7, s) for s in range(64)}
        assert len(seen) == 64

    def test_derive_seed_separates_masters(self):
        assert derive_seed(0, 3) != derive_seed(1, 3)

    def test_trial_params_only_reseeds(self):
        base = GenParams(n=6, c2=3, m=3, p=2, seed=5)
        tp = trial_params(base, 9)
        assert (tp.n, tp.c1, tp.c2, tp.m, tp.p) == (6, 5, 3, 3, 2)
        assert tp.seed != base.seed
        assert tp.seed == trial_params(base, 9).seed


class TestParams:
    def test_defaults(self):
        p = GenParams(n=4)
        assert (p.c1, p.c2, p.m, p.p) == (5, 2, 2, 1)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            GenParams(n=1)
        with pytest.raises(ValueError):
            GenParams(n=4, c2=1)
        with pytest.raises(ValueError):
            GenParams(n=4, m=1)
        with pytest.raises(ValueError):
            GenParams(n=4, p=5)


    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n": 1}, "generator parameter 'n' must be >= 2, got 1"),
            ({"n": 4, "c1": 0}, "generator parameter 'c1' must be >= 1, got 0"),
            ({"n": 4, "c2": 1}, "generator parameter 'c2' must be >= 2, got 1"),
            ({"n": 4, "m": 1}, "generator parameter 'm' must be >= 2, got 1"),
            ({"n": 4, "p": 0}, "generator parameter 'p' must be >= 1, got 0"),
            ({"n": 4, "p": 5}, "generator parameter 'p' must be <= n = 4, got 5"),
        ],
        ids=["n", "c1", "c2", "m", "p-low", "p-high"],
    )
    def test_error_names_the_parameter(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            GenParams(**kwargs)
        assert str(info.value) == message


class TestRandomNet:
    def test_deterministic(self):
        params = GenParams(n=9, c2=3, m=4, p=3, seed=123)
        a, ea = random_case(params, 4)
        b, eb = random_case(params, 4)
        assert a.arcs == b.arcs
        assert [v.cardinality for v in a.variables] == [v.cardinality for v in b.variables]
        for vid in a.cpts:
            np.testing.assert_array_equal(a.cpts[vid].values, b.cpts[vid].values)
        assert sorted(ea) == sorted(eb)
        for vid in ea:
            np.testing.assert_array_equal(ea[vid], eb[vid])

    def test_different_trials_differ(self):
        params = GenParams(n=9, c2=3, m=4, p=3, seed=123)
        a, _ = random_case(params, 0)
        b, _ = random_case(params, 1)
        assert a.arcs != b.arcs or any(
            not np.array_equal(a.cpts[v].values, b.cpts[v].values) for v in a.cpts
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 16),
        st.integers(2, 5),
        st.integers(2, 5),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_networks_are_valid(self, seed, n, c2, m, p):
        params = GenParams(n=n, c2=c2, m=m, p=min(p, n), seed=seed)
        net, evidence = random_case(params, 0)
        assert validate(net) == []
        assert check_evidence(net, evidence) == []

    @given(st.integers(0, 2**32 - 1), st.integers(3, 14))
    @settings(max_examples=100, deadline=None)
    def test_structural_bounds(self, seed, n):
        params = GenParams(n=n, c1=3, c2=3, m=4, p=2, seed=seed)
        net = random_net(params)
        assert all(2 <= v.cardinality <= 4 for v in net.variables)
        degree_new = {i: 0 for i in range(n)}
        for a, b in net.arcs:
            lo, hi = min(a, b), max(a, b)
            assert hi - lo <= 3  # window cap c1
            degree_new[hi] += 1
        for i in range(1, n):
            assert 1 <= degree_new[i] <= 3  # per-step connections within [1, c2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_evidence_shape(self, seed):
        params = GenParams(n=8, c2=2, m=3, p=3, seed=seed)
        net, evidence = random_case(params, 0)
        assert 1 <= len(evidence) <= 3
        for vid, vec in evidence.items():
            assert vec.shape == (net.var(vid).cardinality,)
            assert np.sum(vec == 1.0) == 1
            assert np.sum(vec == 0.0) == vec.size - 1
