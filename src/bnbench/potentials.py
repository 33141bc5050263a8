"""Dense potential tables and the pointwise algebra shared by all engines.

A potential is a non-negative real table over the configuration space of an
ordered tuple of variable ids.  Values are stored row-major with the *last*
domain variable varying fastest (numpy C order, one axis per variable).

Every arithmetic operation takes an OpCounter and charges it in binary-op
units: one multiplication per output cell for combination, one addition per
collapsed cell for marginalization, one division per numerator cell for
division.  Normalization is deliberately uncounted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from bnbench.counting import OpCounter


class PotentialError(ValueError):
    """Malformed potential construction or operand mismatch."""


class InconsistencyError(ArithmeticError):
    """Raised on x/0 with x > 0, which correct propagation never produces."""


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
    """Immutable dense table over an ordered variable-id domain.

    ``values.shape`` carries the per-variable cardinalities in domain order.
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
    """Build a potential for ``domain`` from row-major ``values``."""
    ids = tuple(v.id for v in domain)
    if len(set(ids)) != len(ids):
        raise PotentialError("duplicate variable in domain %r" % (ids,))
    cards = tuple(v.cardinality for v in domain)
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    expected = int(np.prod(cards)) if cards else 1
    if arr.size != expected:
        raise PotentialError(
            "values length %d does not match domain size %d" % (arr.size, expected)
        )
    if np.any(arr < 0):
        raise PotentialError("negative value in potential")
    return Potential(ids, arr.reshape(cards))


def identity_over(domain: Sequence[int], cards: dict) -> Potential:
    """All-ones potential from raw variable ids and a cardinality map.

    A plain table like any other: Shenoy-Shafer uses it as the uniform
    stand-in for a node or variable that receives nothing.
    """
    dom = tuple(domain)
    return Potential(dom, np.ones(tuple(cards[v] for v in dom)))


def embed(pot: Potential, domain: Sequence[int], cards: dict) -> Potential:
    """Broadcast ``pot`` onto a superset ``domain`` without counting anything.

    Numerically a multiplication by ones; the engines use it to load the
    first factor into a node that has no table yet, which costs no
    arithmetic.
    """
    dom = tuple(domain)
    if not set(pot.domain) <= set(dom):
        raise PotentialError("cannot embed %r into %r" % (pot.domain, dom))
    out = np.empty(tuple(cards[v] for v in dom))
    np.copyto(out, _expand(pot, dom))
    return Potential(dom, out)


def _expand(pot: Potential, out_domain: tuple) -> np.ndarray:
    """View of ``pot.values`` transposed/reshaped to broadcast over ``out_domain``."""
    dom, arr = pot.domain, pot.values
    k = len(dom)
    if out_domain[:k] == dom:
        return arr.reshape(arr.shape + (1,) * (len(out_domain) - k))
    pos = [out_domain.index(v) for v in dom]
    shape = [1] * len(out_domain)
    for i, p in enumerate(pos):
        shape[p] = arr.shape[i]
    return arr.transpose(sorted(range(k), key=pos.__getitem__)).reshape(shape)


def union_domain(a: Potential, b: Potential) -> tuple:
    return a.domain + tuple(v for v in b.domain if v not in a.domain)


def multiply(a: Potential, b: Potential, counter: OpCounter) -> Potential:
    """Pointwise product on the union domain (a's variables first)."""
    dom = union_domain(a, b)
    out = _expand(a, dom) * _expand(b, dom)
    counter.mults += out.size
    return Potential(dom, out)


def marginalize(a: Potential, keep: Iterable[int], counter: OpCounter) -> Potential:
    """Sum out all variables not in ``keep``; result keeps a's relative order."""
    keep = set(keep)
    dom, axes = [], []
    for i, v in enumerate(a.domain):
        if v in keep:
            dom.append(v)
        else:
            axes.append(i)
    if len(dom) != len(keep):
        raise PotentialError("marginalization target %r not within %r" % (keep, a.domain))
    if not axes:
        return Potential(a.domain, a.values)
    out = a.values.sum(axis=tuple(axes))
    counter.adds += a.size - out.size
    return Potential(dom, out)


def divide(num: Potential, den: Potential, counter: OpCounter) -> Potential:
    """Pointwise quotient with 0/0 := 0."""
    if not set(den.domain) <= set(num.domain):
        raise PotentialError("denominator domain %r exceeds numerator %r" % (den.domain, num.domain))
    den_v = _expand(den, num.domain)
    if den.values.all():
        out = np.empty_like(num.values)
        np.divide(num.values, den_v, out=out)
    else:
        den_b = np.broadcast_to(den_v, num.values.shape)
        zero = den_b == 0.0
        if np.any(num.values[zero] != 0.0):
            raise InconsistencyError("positive value divided by zero")
        out = np.zeros_like(num.values)
        np.divide(num.values, den_b, out=out, where=~zero)
    counter.divs += num.size
    return Potential(num.domain, out)


def normalize(a: Potential) -> Potential:
    """Scale values to sum to one.  Not charged to any counter."""
    total = float(a.values.sum())
    if total <= 0.0:
        raise PotentialError("cannot normalize zero-mass potential")
    return Potential(a.domain, a.values / total)
