"""Operation counters shared by the algebra and the engines."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Tallies of binary arithmetic operations, split by kind.

    ``total()`` weighs divisions like additions and multiplications by
    default; report tooling can re-weigh from the components.
    """

    adds: int = 0
    mults: int = 0
    divs: int = 0

    def total(self, div_weight: float = 1.0):
        t = self.adds + self.mults + self.divs * div_weight
        return int(t) if float(t).is_integer() else t

    def as_tuple(self):
        return (self.adds, self.mults, self.divs)

    def __str__(self):
        return "adds=%d mults=%d divs=%d total=%d" % (
            self.adds,
            self.mults,
            self.divs,
            self.total(),
        )
