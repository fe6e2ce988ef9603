"""The budget used by constructors, lattices and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_ORDER_CAP = 1200
MAX_ORDER_CAP = 5040
DEFAULT_MAX_SUBGROUPS = 200_000


@dataclass(frozen=True)
class Budget:
    """Resource limits: ``order_cap`` bounds the order of every group built, ``max_subgroups`` every lattice.

    A group keeps one lattice, so a lattice built under one budget is served
    under any ``max_subgroups`` at or above its size, and refused, with the
    error a fresh enumeration raises, below it.
    """

    order_cap: int = DEFAULT_ORDER_CAP
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS

    def __post_init__(self):
        if not 1 <= self.order_cap <= MAX_ORDER_CAP:
            raise ValueError(f"order cap must be in [1, {MAX_ORDER_CAP}], got {self.order_cap}")


DEFAULT_BUDGET = Budget()
