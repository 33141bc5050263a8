import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbench.counting import OpCounter
from bnbench.potentials import (
    InconsistencyError,
    Potential,
    PotentialError,
    Variable,
    ZeroMassError,
    _expand,
    divide,
    embed,
    identity_over,
    make_potential,
    marginalize,
    multiply,
    normalize,
)
from helpers import (
    MarkedIdentity,
    from_values,
    identity_potential,
    identity_scalar,
    iter_configurations,
    reference_divide,
    reference_embed,
    reference_expand,
    reference_marginalize,
    value_at,
)

A = Variable(0, "A", 2)
B = Variable(1, "B", 2)
T = Variable(2, "T", 2)


class TestMultiply:
    def test_overlapping_domains(self):
        c = OpCounter()
        a = make_potential([A], [0.3, 0.7])
        b = make_potential([A, B], [0.5, 0.5, 0.2, 0.8])
        out = multiply(a, b, c)
        assert out.domain == (0, 1)
        np.testing.assert_allclose(out.values.reshape(-1), [0.15, 0.15, 0.14, 0.56])
        assert c.as_tuple() == (0, 4, 0)

    def test_identity_operand_still_counted(self):
        c = OpCounter()
        out = multiply(make_potential([A], [0.3, 0.7]), identity_potential([A]), c)
        np.testing.assert_allclose(out.values, [0.3, 0.7])
        assert c.mults == 2

    def test_disjoint_domains_outer_product(self):
        c = OpCounter()
        out = multiply(
            make_potential([A], [0.3, 0.7]), make_potential([B], [0.1, 0.9]), c
        )
        assert out.domain == (0, 1)
        np.testing.assert_allclose(out.values.reshape(-1), [0.03, 0.27, 0.07, 0.63])
        assert c.mults == 4

    def test_result_domain_order_is_left_then_new(self):
        c = OpCounter()
        a = from_values([2, 1], [2, 2], np.arange(4) + 1.0)
        b = from_values([0, 1], [2, 2], np.arange(4) + 1.0)
        assert multiply(a, b, c).domain == (2, 1, 0)

    def test_scalar_identity_costs_result_size(self):
        c = OpCounter()
        out = multiply(identity_scalar(), make_potential([A, B], np.ones(4)), c)
        assert out.domain == (0, 1)
        assert c.mults == 4


class TestMarginalize:
    def test_sums_out_trailing_variable(self):
        c = OpCounter()
        a = make_potential([A, B], [0.15, 0.15, 0.14, 0.56])
        out = marginalize(a, [0], c)
        np.testing.assert_allclose(out.values, [0.3, 0.7])
        assert c.adds == 2

    def test_full_projection_is_free(self):
        c = OpCounter()
        a = make_potential([A, B], [0.15, 0.15, 0.14, 0.56])
        out = marginalize(a, [0, 1], c)
        np.testing.assert_allclose(out.values, a.values)
        assert c.adds == 0

    def test_cost_is_source_minus_result_size(self):
        c = OpCounter()
        a = from_values([0, 1, 2], [2, 2, 2], np.arange(8, dtype=float))
        marginalize(a, [1], c)
        assert c.adds == 6

    def test_keeps_relative_order_of_source(self):
        c = OpCounter()
        a = from_values([3, 1, 2], [2, 2, 2], np.arange(8, dtype=float))
        out = marginalize(a, [2, 3], c)
        assert out.domain == (3, 2)

    def test_to_empty_domain_gives_total_mass(self):
        c = OpCounter()
        a = make_potential([A, B], [0.15, 0.15, 0.14, 0.56])
        out = marginalize(a, [], c)
        assert out.domain == ()
        np.testing.assert_allclose(out.values, 1.0)
        assert c.adds == 3

    def test_rejects_non_subset(self):
        c = OpCounter()
        a = make_potential([A], [0.5, 0.5])
        with pytest.raises(PotentialError):
            marginalize(a, [1], c)


class TestDivide:
    def test_all_ones_denominator_is_counted(self):
        c = OpCounter()
        num = make_potential([T], [0.4, 0.6])
        out = divide(num, identity_over([T.id], {T.id: 2}), c)
        np.testing.assert_array_equal(out.values, num.values)
        assert c.divs == 2

    def test_zero_over_zero_is_zero(self):
        c = OpCounter()
        num = make_potential([T], [0.0, 0.5])
        den = make_potential([T], [0.0, 0.25])
        out = divide(num, den, c)
        np.testing.assert_allclose(out.values, [0.0, 2.0])
        assert c.divs == 2

    def test_positive_over_zero_raises(self):
        c = OpCounter()
        num = make_potential([T], [0.5, 0.5])
        den = make_potential([T], [0.0, 0.25])
        with pytest.raises(InconsistencyError):
            divide(num, den, c)

    def test_denominator_broadcast_over_numerator(self):
        c = OpCounter()
        num = from_values([0, 1], [2, 2], [0.2, 0.4, 0.3, 0.9])
        den = from_values([1], [2], [0.1, 0.3])
        out = divide(num, den, c)
        np.testing.assert_allclose(out.values.reshape(-1), [2.0, 4.0 / 3, 3.0, 3.0])
        assert c.divs == 4

    def test_rejects_denominator_outside_numerator(self):
        c = OpCounter()
        with pytest.raises(PotentialError):
            divide(make_potential([A], [1.0, 1.0]), make_potential([B], [1.0, 1.0]), c)


class TestNormalize:
    def test_scales_to_unit_mass(self):
        out = normalize(make_potential([A], [2.0, 2.0]))
        np.testing.assert_allclose(out.values, [0.5, 0.5])

    def test_scalar_case(self):
        out = normalize(from_values([], [], [1.0]))
        np.testing.assert_allclose(out.values, 1.0)

    def test_zero_mass_raises(self):
        assert issubclass(ZeroMassError, PotentialError)
        with pytest.raises(ZeroMassError):
            normalize(make_potential([A], [0.0, 0.0]))

    def test_does_not_count(self):
        c = OpCounter()
        normalize(make_potential([A], [2.0, 6.0]))
        assert c.as_tuple() == (0, 0, 0)


class TestIdentity:
    def test_constructors_are_marked(self):
        # the test-side mark that the marked-identity reference engines read
        assert isinstance(identity_potential([A]), MarkedIdentity)
        assert isinstance(identity_scalar(), MarkedIdentity)

    def test_identity_over_is_plain_all_ones(self):
        out = identity_over([0, 1], {0: 2, 1: 3})
        assert type(out) is Potential
        assert Potential.__slots__ == ("domain", "values")
        assert out.domain == (0, 1)
        np.testing.assert_array_equal(out.values, np.ones((2, 3)))

    def test_mark_never_survives_arithmetic(self):
        c = OpCounter()
        i = identity_potential([A])
        assert type(multiply(i, i, c)) is Potential
        assert type(marginalize(i, [0], c)) is Potential
        assert type(divide(i, i, c)) is Potential

    def test_embed_is_uncounted_copy(self):
        c = OpCounter()
        pot = make_potential([A], [0.3, 0.7])
        out = embed(pot, (0, 1), {0: 2, 1: 2})
        assert out.domain == (0, 1)
        np.testing.assert_allclose(out.values.reshape(-1), [0.3, 0.3, 0.7, 0.7])
        assert c.as_tuple() == (0, 0, 0)
        assert type(out) is Potential


def _random_potential(rng, ids, cards, positive=False):
    shape = tuple(cards[v] for v in ids)
    vals = rng.uniform(0.1 if positive else 0.0, 1.0, size=shape)
    return from_values(ids, shape, vals)


def _aligned(pot, order):
    perm = [pot.domain.index(v) for v in order]
    return np.transpose(pot.values, perm)


@st.composite
def two_potentials(draw, positive=False):
    cards = {v: draw(st.integers(2, 4)) for v in range(4)}
    ids_a = tuple(draw(st.permutations(sorted(draw(st.sets(st.integers(0, 3), min_size=1))))))
    ids_b = tuple(draw(st.permutations(sorted(draw(st.sets(st.integers(0, 3), min_size=1))))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (
        _random_potential(rng, ids_a, cards, positive),
        _random_potential(rng, ids_b, cards, positive),
        cards,
    )


class TestProperties:
    @given(two_potentials())
    @settings(max_examples=60, deadline=None)
    def test_multiply_commutes_up_to_domain_order(self, pair):
        a, b, _ = pair
        c = OpCounter()
        ab = multiply(a, b, c)
        ba = multiply(b, a, c)
        assert set(ab.domain) == set(ba.domain)
        np.testing.assert_allclose(_aligned(ba, ab.domain), ab.values, atol=1e-12)

    @given(two_potentials())
    @settings(max_examples=60, deadline=None)
    def test_multiply_cost_is_union_size(self, pair):
        a, b, cards = pair
        c = OpCounter()
        out = multiply(a, b, c)
        assert c.mults == int(np.prod([cards[v] for v in out.domain]))
        assert c.adds == 0 and c.divs == 0

    @given(two_potentials())
    @settings(max_examples=60, deadline=None)
    def test_multiply_matches_pointwise_oracle(self, pair):
        a, b, cards = pair
        c = OpCounter()
        out = multiply(a, b, c)
        for config in iter_configurations(out.domain, cards):
            expect = value_at(a, config) * value_at(b, config)
            assert abs(value_at(out, config) - expect) <= 1e-12

    @given(two_potentials(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_projection_composes(self, pair, pick):
        a, _, cards = pair
        rng = np.random.default_rng(pick)
        mid = sorted(rng.choice(a.domain, size=rng.integers(1, len(a.domain) + 1), replace=False))
        inner = sorted(rng.choice(mid, size=rng.integers(1, len(mid) + 1), replace=False))
        c = OpCounter()
        via = marginalize(marginalize(a, mid, c), inner, c)
        direct = marginalize(a, inner, c)
        np.testing.assert_allclose(via.values, direct.values, atol=1e-12)

    @given(two_potentials(positive=True))
    @settings(max_examples=60, deadline=None)
    def test_division_inverts_combination(self, pair):
        a, b, cards = pair
        c = OpCounter()
        prod = multiply(a, b, c)
        back = divide(prod, b, c)
        for config in iter_configurations(back.domain, cards):
            assert abs(value_at(back, config) - value_at(a, config)) <= 1e-12
        assert c.divs == prod.values.size

    @given(two_potentials())
    @settings(max_examples=60, deadline=None)
    def test_marginalize_matches_summation_oracle(self, pair):
        a, _, cards = pair
        keep = a.domain[: max(1, len(a.domain) - 1)]
        c = OpCounter()
        out = marginalize(a, keep, c)
        for config in iter_configurations(keep, cards):
            total = 0.0
            rest = [v for v in a.domain if v not in keep]
            for extra in iter_configurations(rest, cards):
                full = dict(config)
                full.update(extra)
                total += value_at(a, full)
            assert abs(value_at(out, config) - total) <= 1e-9
        assert c.adds == a.values.size - out.values.size


@st.composite
def nested_domains(draw):
    """Cardinalities, an outer domain, an inner domain within it, and a seed.

    Both domains come in random order; half the time the inner domain is a
    prefix of the outer one.  Either may be empty.
    """
    cards = {v: draw(st.integers(2, 4)) for v in range(5)}
    perm = draw(st.permutations(range(5)))
    outer = tuple(perm[: draw(st.integers(0, 5))])
    if draw(st.booleans()):
        inner = outer[: draw(st.integers(0, len(outer)))]
    else:
        inner = tuple(draw(st.permutations([v for v in outer if draw(st.booleans())])))
    return cards, outer, inner, draw(st.integers(0, 2**32 - 1))


def _table(rng, domain, cards, zeros=0.0):
    shape = tuple(cards[v] for v in domain)
    vals = rng.uniform(0.1, 1.0, size=shape)
    return np.where(rng.uniform(size=shape) < zeros, 0.0, vals)


def _layout(values, fortran):
    """The same values, stored column-major when ``fortran`` is set (and that differs)."""
    return np.asfortranarray(values) if fortran and values.ndim > 1 else values


class TestTrimmedKernelsMatchReferences:
    """Each kernel gives bit-identical tables, in the same memory layout, as its reference."""

    @given(nested_domains(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_expand_and_embed(self, case, fortran):
        cards, outer, inner, seed = case
        pot = Potential(inner, _layout(_table(np.random.default_rng(seed), inner, cards), fortran))
        got, want = _expand(pot, outer), reference_expand(pot, outer)
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert np.array_equal(got, want)
        got, want = embed(pot, outer, cards), reference_embed(pot, outer, cards)
        assert got.domain == want.domain
        assert np.array_equal(got.values, want.values)
        assert got.values.flags.c_contiguous and want.values.flags.c_contiguous

    @given(nested_domains(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_marginalize(self, case, fortran):
        cards, outer, inner, seed = case
        a = Potential(outer, _layout(_table(np.random.default_rng(seed), outer, cards), fortran))
        c_got, c_want = OpCounter(), OpCounter()
        got, want = marginalize(a, inner, c_got), reference_marginalize(a, inner, c_want)
        assert got.domain == want.domain
        assert got.values.strides == want.values.strides
        assert np.array_equal(got.values, want.values)
        assert c_got.as_tuple() == c_want.as_tuple()
        for fn in (marginalize, reference_marginalize):
            with pytest.raises(PotentialError):
                fn(a, inner + (9,), OpCounter())

    @given(nested_domains(), st.sampled_from([0.0, 0.4]), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_divide(self, case, zeros, consistent, fortran):
        cards, outer, inner, seed = case
        rng = np.random.default_rng(seed)
        den = Potential(inner, _table(rng, inner, cards, zeros))
        num = _table(rng, outer, cards)
        if consistent:
            # 0/0 cells only: zero the numerator wherever the denominator is zero
            num = np.where(np.broadcast_to(reference_expand(den, outer), num.shape) == 0.0, 0.0, num)
        num = Potential(outer, _layout(num, fortran))
        outcomes = []
        for fn in (divide, reference_divide):
            counter = OpCounter()
            try:
                out = fn(num, den, counter)
            except InconsistencyError:
                outcomes.append(None)
            else:
                outcomes.append((out.domain, out.values, counter.as_tuple()))
        got, want = outcomes
        if want is None:
            assert got is None
            return
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].strides == want[1].strides
        assert np.array_equal(got[1], want[1])

    def test_divide_zero_denominators(self):
        num = from_values([0, 1], [2, 2], [0.0, 0.4, 0.0, 0.9])
        den = from_values([0], [2], [0.0, 0.5])
        with pytest.raises(InconsistencyError):
            divide(from_values([0, 1], [2, 2], [0.3, 0.4, 0.0, 0.9]), den, OpCounter())
        counter = OpCounter()
        out = divide(num, from_values([1], [2], [0.0, 0.5]), counter)
        assert np.array_equal(out.values.reshape(-1), [0.0, 0.8, 0.0, 1.8])
        assert counter.divs == 4
        with pytest.raises(InconsistencyError):
            divide(num, den, OpCounter())


class TestVariable:
    def test_cardinality_floor(self):
        with pytest.raises(ValueError):
            Variable(0, "X", 1)

    def test_make_potential_rejects_bad_shape(self):
        with pytest.raises(PotentialError):
            make_potential([A, B], [1.0, 2.0, 3.0])
