"""Dense potential tables and the pointwise algebra shared by all engines.

A potential is a non-negative real table over the configuration space of an
ordered tuple of variable ids.  Values are stored row-major with the *last*
domain variable varying fastest (numpy C order, one axis per variable).

Every arithmetic operation takes an OpCounter and charges it in binary-op
units: one multiplication per output cell for combination, one addition per
collapsed cell for marginalization, one division per numerator cell for
division.  Normalization is deliberately uncounted.

Every kernel takes a plan made from domains and cardinalities alone.
``marginalize_plan`` gives ``marginalize`` the kept domain and the summed
axes.  ``multiply_plan`` is the one broadcast plan, shared by
``multiply``, ``divide`` and ``embed``: the result domain and shape, a's
reshape, b's view over the result and the product's memory order.
``multiply``, ``divide`` and ``marginalize`` given no plan compute it with
the same function, so there is one arithmetic path; ``embed`` takes only
its plan.  The engines build each plan once per tree and pass it on every
run.

Tables of at least ``BIG_CELLS`` (2**11) cells take other paths.
``marginalize`` sums out one run of adjacent axes at a time, outermost
first, each as the middle axis of a three-axis view:
``np.einsum('onk->ok', x.reshape(outer, n, inner))``.  numpy's one-call
``sum(axis=axes)`` walks scattered axes with a short innermost axis slowly
on big tables, and the per-call cost of the steps loses on small ones.  The
cutoff is where the two meet: over the distinct reductions of 40 ``wide``
benchmark trials, totalled by table size on a shared 2-core x86_64 host
with numpy 2.4, the one call took 1.9 ms against 2.4 ms for the steps at
2**10 cells, 2.1 against 1.9 at 2**11, and 8.2 against 3.0 at 2**14.  The steps add in another order, so a big table's
marginal may differ from the one-call sum by a few ulps.  A product of that
size is C-ordered, so the steps' reshapes are views, and ``multiply``
first makes a transposed operand of that size contiguous.  Smaller
products keep numpy's layout, which follows the operands, so small tables
are summed exactly as before.

Every kernel returns a table of its own, never an operand's: a
marginalization that sums out nothing returns an uncounted copy.  Tables
are immutable, with one exception: ``multiply`` and ``divide`` given
``inplace`` write the result into their first operand, which must span the
result domain, and return it.  Only the engines ask for that, and only for
a node table that its node alone holds.  ``make_potential``, which makes
every CPT and evidence table, copies its values and marks the copy
read-only, so a write into an input raises ``ValueError``, and a write
through the caller's own array leaves the input as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from bnbench.counting import OpCounter


class PotentialError(ValueError):
    """Malformed potential construction or operand mismatch."""


class ZeroMassError(PotentialError):
    """Normalizing a zero-mass table: evidence of probability zero, or underflow."""


class InconsistencyError(ArithmeticError):
    """Raised on x/0 with x > 0, which correct propagation never produces."""


# Tables of at least this many cells take the big-table paths (module docstring).
BIG_CELLS = 1 << 11


@dataclass(frozen=True)
class Variable:
    """A discrete variable with a dense integer id and cardinality >= 2."""

    id: int
    name: str
    cardinality: int

    def __post_init__(self):
        if self.cardinality < 2:
            raise PotentialError(
                "variable %r needs cardinality >= 2, got %d" % (self.name, self.cardinality)
            )


class Potential:
    """Dense table over an ordered variable-id domain.

    ``values.shape`` carries the per-variable cardinalities in domain order.
    The values are never written, except by an in-place ``multiply`` or
    ``divide`` on a table its caller owns alone.  The values of a potential
    from :func:`make_potential` are a read-only array of their own.
    """

    __slots__ = ("domain", "values")

    def __init__(self, domain, values):
        self.domain = tuple(domain)
        self.values = values

    @property
    def size(self):
        return self.values.size

    def card(self, var):
        return self.values.shape[self.domain.index(var)]

    def __repr__(self):
        return "Potential(domain=%r, shape=%r)" % (self.domain, self.values.shape)


def make_potential(domain: Sequence[Variable], values) -> Potential:
    """Build a potential for ``domain`` from a read-only copy of row-major ``values``.

    CPT and evidence tables are made here and shared by every engine run on
    a case, so a stray write into one raises instead of changing later runs,
    and a write through the caller's own handle on ``values`` changes none.
    A NaN, an infinite or a negative entry raises :class:`PotentialError`.
    """
    ids = tuple(v.id for v in domain)
    if len(set(ids)) != len(ids):
        raise PotentialError("duplicate variable in domain %r" % (ids,))
    cards = tuple(v.cardinality for v in domain)
    arr = np.array(values, dtype=np.float64).reshape(-1)
    expected = math.prod(cards)
    if arr.size != expected:
        raise PotentialError(
            "values length %d does not match domain size %d" % (arr.size, expected)
        )
    if not np.isfinite(arr).all():
        raise PotentialError("non-finite value in potential")
    if (arr < 0).any():
        raise PotentialError("negative value in potential")
    values = arr.reshape(cards)
    values.flags.writeable = False
    return Potential(ids, values)


def identity_over(domain: Sequence[int], cards: dict) -> Potential:
    """All-ones potential from raw variable ids and a cardinality map.

    A plain table like any other.  No engine uses it: on a connected tree
    with at least one potential, every product an engine reads exists.
    """
    dom = tuple(domain)
    return Potential(dom, np.ones(tuple(cards[v] for v in dom)))


def _cards(*pots: Potential) -> dict:
    """Variable id -> cardinality, read off the operands' shapes."""
    cards = {}
    for pot in pots:
        cards.update(zip(pot.domain, pot.values.shape))
    return cards


def _expand_plan(dom: tuple, out_domain: tuple, cards: dict):
    """How a table over ``dom`` is viewed to broadcast over ``out_domain``.

    ``(perm, shape)``: the axis order to transpose to, ``None`` when the
    domain already follows ``out_domain``'s order, and the reshape that
    puts a length-1 axis at every variable the table lacks, ``None`` when
    the domains are equal.
    """
    if dom == out_domain:
        return None, None
    k = len(dom)
    if out_domain[:k] == dom:
        return None, tuple(map(cards.__getitem__, dom)) + (1,) * (len(out_domain) - k)
    shape = [1] * len(out_domain)
    pos = []
    for v in dom:
        p = out_domain.index(v)
        shape[p] = cards[v]
        pos.append(p)
    perm = None if pos == sorted(pos) else tuple(sorted(range(k), key=pos.__getitem__))
    return perm, tuple(shape)


def _view(arr: np.ndarray, perm, shape) -> np.ndarray:
    """``arr`` viewed as an :func:`_expand_plan` plan says; never a copy."""
    if perm is not None:
        arr = arr.transpose(perm)
    if shape is not None:
        arr = arr.reshape(shape)
    return arr


def multiply_plan(a_dom: tuple, b_dom: tuple, cards: dict):
    """The broadcast plan of a table over ``a_dom`` with one over ``b_dom``.

    ``(dom, a_shape, b_perm, b_shape, order)``: the union domain, listing
    a's variables first, a's shape over it (the result's shape when b brings
    no new variable), b's :func:`_expand_plan` view, and the product's
    memory order: ``"C"`` from ``BIG_CELLS`` cells on, else numpy's ``"K"``,
    which follows the operands.  a is only ever reshaped.
    """
    extra = tuple([v for v in b_dom if v not in a_dom])
    dom = a_dom + extra
    a_shape = tuple(map(cards.__getitem__, a_dom))
    order = "C" if math.prod(a_shape) * math.prod(map(cards.__getitem__, extra)) >= BIG_CELLS else "K"
    return (dom, a_shape + (1,) * len(extra)) + _expand_plan(b_dom, dom, cards) + (order,)


def multiply(a: Potential, b: Potential, counter: OpCounter, plan=None, inplace=False) -> Potential:
    """Pointwise product on the union domain (a's variables first).

    ``plan`` is ``multiply_plan(a.domain, b.domain, cards)``, computed here
    when not given.  With ``inplace`` the product is written into a's
    table, which must already span the union domain, and ``a`` is returned.
    """
    if plan is None:
        plan = multiply_plan(a.domain, b.domain, _cards(a, b))
    dom, a_shape, b_perm, b_shape, order = plan
    b_vals = b.values
    if b_perm is not None and b_vals.size >= BIG_CELLS:
        b_vals, b_perm = np.ascontiguousarray(b_vals.transpose(b_perm)), None
    b_vals = _view(b_vals, b_perm, b_shape)
    if inplace:
        np.multiply(a.values, b_vals, out=a.values)
        counter.mults += a.values.size
        return a
    out = np.multiply(a.values.reshape(a_shape), b_vals, order=order)
    counter.mults += out.size
    return Potential(dom, out)


def embed(pot: Potential, plan) -> Potential:
    """A fresh table of ``pot`` broadcast onto a superset domain, without counting anything.

    ``plan`` is ``multiply_plan(domain, pot.domain, cards)``, and the result
    spans its ``domain``.  Numerically a multiplication by ones; the
    engines use it for the free load, the first factor into a node that has
    no table yet, which costs no arithmetic.
    """
    dom, shape, perm, view, _ = plan
    out = np.empty(shape)
    np.copyto(out, _view(pot.values, perm, view))
    return Potential(dom, out)


def marginalize_plan(dom: tuple, keep: Iterable[int]):
    """Plan of :func:`marginalize`: the kept domain in ``dom``'s order and the summed axes."""
    keep = set(keep)
    kept, axes = [], []
    for i, v in enumerate(dom):
        if v in keep:
            kept.append(v)
        else:
            axes.append(i)
    if len(kept) != len(keep):
        raise PotentialError("marginalization target %r not within %r" % (keep, dom))
    return tuple(kept), tuple(axes)


def marginalize(a: Potential, keep: Iterable[int], counter: OpCounter, plan=None) -> Potential:
    """Sum out all variables not in ``keep``; result keeps a's relative order.

    ``plan`` is ``marginalize_plan(a.domain, keep)``, computed here when not
    given.  When ``keep`` covers a's domain nothing is summed or charged, and
    the result is a copy in a's memory layout, never a's own table.
    """
    if plan is None:
        plan = marginalize_plan(a.domain, keep)
    dom, axes = plan
    if not axes:
        return Potential(a.domain, a.values.copy(order="K"))
    x = a.values
    out = x.sum(axis=axes) if x.size < BIG_CELLS else _sum_runs(x, axes)
    counter.adds += x.size - out.size
    return Potential(dom, out)


def _sum_runs(x: np.ndarray, axes: tuple) -> np.ndarray:
    """``x.sum(axis=axes)`` one run of adjacent axes at a time, outermost run first."""
    shape = list(x.shape)
    runs = []
    for i in axes:
        if runs and runs[-1][1] == i:
            runs[-1][1] += 1
        else:
            runs.append([i, i + 1])
    gone = 0
    for lo, hi in runs:
        lo, hi = lo - gone, hi - gone
        x = np.einsum("onk->ok", x.reshape(math.prod(shape[:lo]), -1, math.prod(shape[hi:])))
        del shape[lo:hi]
        gone += hi - lo
    return x.reshape(shape)


def divide(num: Potential, den: Potential, counter: OpCounter, plan=None, inplace=False) -> Potential:
    """Pointwise quotient with 0/0 := 0.

    ``plan`` is ``multiply_plan(num.domain, den.domain, cards)``, computed
    here when not given.  With ``inplace`` the quotient is written into
    num's table and ``num`` is returned.
    """
    if plan is None:
        if not set(den.domain) <= set(num.domain):
            raise PotentialError("denominator domain %r exceeds numerator %r" % (den.domain, num.domain))
        plan = multiply_plan(num.domain, den.domain, _cards(num))
    dom, _, perm, shape, _ = plan
    den_v = _view(den.values, perm, shape)
    if den.values.all():
        out = num.values if inplace else np.empty_like(num.values)
        np.divide(num.values, den_v, out=out)
    else:
        den_b = np.broadcast_to(den_v, num.values.shape)
        zero = den_b == 0.0
        if np.any(num.values[zero] != 0.0):
            raise InconsistencyError("positive value divided by zero")
        # in place, the masked 0/0 cells keep num's zeros
        out = num.values if inplace else np.zeros_like(num.values)
        np.divide(num.values, den_b, out=out, where=~zero)
    counter.divs += num.values.size
    return num if inplace else Potential(dom, out)


def normalize(a: Potential) -> Potential:
    """Scale values to sum to one.  Not charged to any counter."""
    total = float(a.values.sum())
    if total <= 0.0:
        raise ZeroMassError("cannot normalize zero-mass potential")
    return Potential(a.domain, a.values / total)
