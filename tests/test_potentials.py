import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnbench.counting import OpCounter
from bnbench.potentials import (
    BIG_CELLS,
    InconsistencyError,
    Potential,
    PotentialError,
    Variable,
    ZeroMassError,
    _expand_plan,
    _view,
    divide,
    embed,
    identity_over,
    make_potential,
    marginalize,
    marginalize_plan,
    multiply,
    multiply_plan,
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

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_summing_nothing_copies_in_the_input_layout(self, layout):
        a = Potential((3, 1, 2), layout(np.arange(24.0).reshape(2, 3, 4)))
        for plan in (None, marginalize_plan(a.domain, (1, 2, 3))):
            c = OpCounter()
            out = marginalize(a, (1, 2, 3), c, plan)
            assert out.domain == a.domain
            assert np.array_equal(out.values, a.values)
            assert out.values.strides == a.values.strides
            assert c.as_tuple() == (0, 0, 0)
            assert not np.shares_memory(out.values, a.values)

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
        out = embed(pot, multiply_plan((0, 1), pot.domain, {0: 2, 1: 2}))
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
        got = _view(pot.values, *_expand_plan(pot.domain, outer, cards))
        want = reference_expand(pot, outer)
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert np.array_equal(got, want)
        got, want = embed(pot, multiply_plan(outer, inner, cards)), reference_embed(pot, outer, cards)
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


@st.composite
def two_domains(draw):
    """Cardinalities and two domains over five variables, each in random order, either empty."""
    cards = {v: draw(st.integers(2, 4)) for v in range(5)}
    a = tuple(draw(st.permutations(range(5)))[: draw(st.integers(0, 5))])
    b = tuple(draw(st.permutations(range(5)))[: draw(st.integers(0, 5))])
    return cards, a, b, draw(st.integers(0, 2**32 - 1))


def _same(got, want, c_got=None, c_want=None):
    assert got.domain == want.domain
    assert got.values.strides == want.values.strides
    assert np.array_equal(got.values, want.values)
    if c_got is not None:
        assert c_got.as_tuple() == c_want.as_tuple()


@st.composite
def sized_domains(draw, big):
    """Cardinalities, a domain of at least ``BIG_CELLS`` cells (``big``) or fewer, a kept subset, a seed.

    The domain lists up to eight variables in random order, at most 2**16
    cells when big and from 2**9 cells when not, so both sides of the
    cutoff are drawn close to it.
    """
    n = draw(st.integers(1, 8))
    cards = {v: draw(st.integers(2, 6)) for v in range(n)}
    dom = list(draw(st.permutations(range(n))))
    size = math.prod(cards.values())
    while size >= (1 << 16 if big else BIG_CELLS):
        size //= cards[dom.pop()]
    while size < (BIG_CELLS if big else 1 << 9):
        cards[len(cards)] = draw(st.integers(2, 6))
        dom.insert(draw(st.integers(0, len(dom))), len(cards) - 1)
        size *= cards[len(cards) - 1]
    assume(size < BIG_CELLS or big)
    keep = tuple(v for v in dom if draw(st.booleans()))
    return cards, tuple(dom), keep, draw(st.integers(0, 2**32 - 1))


class TestBigTableReductions:
    """Tables of at least ``BIG_CELLS`` cells are summed one run of adjacent axes at a time.

    The sums add in another order than numpy's one-call sum, so they are
    held to float64 rounding: for k cells summed into an output cell, each
    way is within (k - 1) * 2**-53 * sum|x| of the exact sum, so the two
    differ by at most k * 2**-52 * sum|x|.  Smaller tables keep the one
    call, bit for bit.
    """

    @given(sized_domains(big=True), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_within_rounding_of_the_one_call_sum(self, case, fortran):
        cards, dom, keep, seed = case
        a = Potential(dom, _layout(_table(np.random.default_rng(seed), dom, cards), fortran))
        c_got, c_want = OpCounter(), OpCounter()
        got, want = marginalize(a, keep, c_got), reference_marginalize(a, keep, c_want)
        assert got.domain == want.domain
        assert c_got.as_tuple() == c_want.as_tuple()
        k = a.size // want.size
        mass = reference_marginalize(Potential(dom, np.abs(a.values)), keep, OpCounter()).values
        assert np.all(np.abs(got.values - want.values) <= k * 2.0**-52 * mass)

    @given(sized_domains(big=False), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_below_the_cutoff_bit_identical(self, case, fortran):
        cards, dom, keep, seed = case
        a = Potential(dom, _layout(_table(np.random.default_rng(seed), dom, cards), fortran))
        c_got, c_want = OpCounter(), OpCounter()
        got, want = marginalize(a, keep, c_got), reference_marginalize(a, keep, c_want)
        assert got.domain == want.domain
        assert got.values.strides == want.values.strides
        assert np.array_equal(got.values, want.values)
        assert c_got.as_tuple() == c_want.as_tuple()


class TestProductLayout:
    """A product of at least ``BIG_CELLS`` cells is C-ordered; a smaller one keeps numpy's layout."""

    @given(two_domains(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_multiply(self, case, fortran):
        cards, a_dom, b_dom, seed = case
        # six to eight states: products of four variables or more reach the cutoff
        cards = {v: c + 4 for v, c in cards.items()}
        rng = np.random.default_rng(seed)
        a = Potential(a_dom, _layout(_table(rng, a_dom, cards), fortran))
        b = Potential(b_dom, _layout(_table(rng, b_dom, cards), fortran))
        plan = multiply_plan(a_dom, b_dom, cards)
        dom, a_shape, b_perm, b_shape, _ = plan
        plain = a.values.reshape(a_shape) * _view(b.values, b_perm, b_shape)
        for out in (multiply(a, b, OpCounter()), multiply(a, b, OpCounter(), plan)):
            assert out.domain == dom
            assert np.array_equal(out.values, plain)
            if out.size >= BIG_CELLS:
                assert out.values.flags.c_contiguous
            else:
                assert out.values.strides == plain.strides


class TestInPlaceKernels:
    """``inplace`` writes the product or quotient into the first operand, bit for bit the same."""

    @given(nested_domains(), st.sampled_from([0.0, 0.4]))
    @settings(max_examples=200, deadline=None)
    def test_multiply_and_divide(self, case, zeros):
        cards, outer, inner, seed = case
        rng = np.random.default_rng(seed)
        b = Potential(inner, _table(rng, inner, cards, zeros))
        num = np.broadcast_to(reference_expand(b, outer), tuple(cards[v] for v in outer))
        a_vals = np.where(num == 0.0, 0.0, _table(rng, outer, cards))
        plan = multiply_plan(outer, inner, cards)
        for kernel in (multiply, divide):
            want = kernel(Potential(outer, a_vals.copy()), b, OpCounter(), plan)
            a = Potential(outer, a_vals.copy())
            c_got = OpCounter()
            got = kernel(a, b, c_got, plan, True)
            assert got is a
            assert np.array_equal(a.values, want.values)
            assert c_got.as_tuple() == ((0, a.size, 0) if kernel is multiply else (0, 0, a.size))


class TestPlannedKernelsMatchUnplanned:
    """A plan built from domains and cardinalities alone, replayed on new tables, changes no bit.

    Each plan is built once and then replayed on two tables of the same
    domains, as an engine's plan is on every run of a tree.
    """

    @given(two_domains(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_multiply(self, case, fortran):
        cards, a_dom, b_dom, seed = case
        rng = np.random.default_rng(seed)
        plan = multiply_plan(a_dom, b_dom, cards)
        for _ in range(2):
            a = Potential(a_dom, _layout(_table(rng, a_dom, cards), fortran))
            b = Potential(b_dom, _table(rng, b_dom, cards))
            c_got, c_want = OpCounter(), OpCounter()
            _same(multiply(a, b, c_got, plan), multiply(a, b, c_want), c_got, c_want)

    @given(nested_domains(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_marginalize_and_embed(self, case, fortran):
        cards, outer, inner, seed = case
        rng = np.random.default_rng(seed)
        marg = marginalize_plan(outer, inner)
        load = multiply_plan(outer, inner, cards)
        for _ in range(2):
            a = Potential(outer, _layout(_table(rng, outer, cards), fortran))
            c_got, c_want = OpCounter(), OpCounter()
            _same(marginalize(a, inner, c_got, marg), marginalize(a, inner, c_want), c_got, c_want)
            b = Potential(inner, _layout(_table(rng, inner, cards), fortran))
            _same(embed(b, load), reference_embed(b, outer, cards))

    @given(nested_domains(), st.sampled_from([0.0, 0.4]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_divide(self, case, zeros, fortran):
        cards, outer, inner, seed = case
        rng = np.random.default_rng(seed)
        plan = multiply_plan(outer, inner, cards)
        for _ in range(2):
            den = Potential(inner, _table(rng, inner, cards, zeros))
            num = np.broadcast_to(reference_expand(den, outer), tuple(cards[v] for v in outer))
            # zero the numerator wherever the denominator is zero: 0/0 cells only
            num = Potential(outer, _layout(np.where(num == 0.0, 0.0, _table(rng, outer, cards)), fortran))
            c_got, c_want = OpCounter(), OpCounter()
            _same(divide(num, den, c_got, plan), divide(num, den, c_want), c_got, c_want)

    def test_plans_check_their_domains(self):
        with pytest.raises(PotentialError):
            marginalize_plan((0,), (1,))
        num, den = from_values([0], [2], [0.5, 0.5]), from_values([0, 1], [2, 3], np.ones(6))
        with pytest.raises(PotentialError, match="denominator domain"):
            divide(num, den, OpCounter())


class TestVariable:
    def test_cardinality_floor(self):
        with pytest.raises(ValueError):
            Variable(0, "X", 1)

    def test_make_potential_rejects_bad_shape(self):
        with pytest.raises(PotentialError):
            make_potential([A, B], [1.0, 2.0, 3.0])

    def test_make_potential_checks(self):
        scalar = make_potential([], [0.5])
        assert scalar.domain == () and scalar.values.shape == ()
        with pytest.raises(PotentialError, match="^values length 1 does not match domain size 2$"):
            make_potential([A], [1.0])
        with pytest.raises(PotentialError, match="^negative value in potential$"):
            make_potential([A, B], [0.5, 0.5, -0.1, 1.1])
        with pytest.raises(PotentialError, match="^duplicate variable"):
            make_potential([A, A], [1.0] * 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_make_potential_refuses_non_finite_values(self, bad):
        with pytest.raises(PotentialError, match="^non-finite value in potential$"):
            make_potential([A, B], [0.5, 0.5, bad, 1.0])

    def test_make_potential_copies_the_callers_array(self):
        # a float64 array would pass through np.asarray as the same memory
        for given in (np.array([0.3, 0.7]), np.array([[0.3, 0.7]]), np.array([0.3, 0.7], dtype=np.float32)):
            p = make_potential([A], given)
            assert not np.shares_memory(given, p.values)
            given[...] = 5.0
            np.testing.assert_allclose(p.values, [0.3, 0.7], rtol=1e-7)
            assert not p.values.flags.writeable
