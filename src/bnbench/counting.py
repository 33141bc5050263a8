"""Operation counters shared by the algebra and the engines."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Tallies of binary arithmetic operations, split by kind.

    ``total()`` weighs divisions like additions and multiplications; report
    tooling re-weighs from the components.
    """

    adds: int = 0
    mults: int = 0
    divs: int = 0

    def total(self) -> int:
        return self.adds + self.mults + self.divs

    def as_tuple(self):
        return (self.adds, self.mults, self.divs)
