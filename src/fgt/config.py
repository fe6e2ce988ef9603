"""The budget used by constructors, lattices and the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

DEFAULT_ORDER_CAP = 1200
MAX_ORDER_CAP = 5040
DEFAULT_MAX_SUBGROUPS = 200_000

ORDER_CAP_ENV = "FGT_ORDER_CAP"


def _default_order_cap() -> int:
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    cap = int(raw)
    if not 1 <= cap <= MAX_ORDER_CAP:
        raise ValueError(f"{ORDER_CAP_ENV} must be in [1, {MAX_ORDER_CAP}], got {cap}")
    return cap


@dataclass(frozen=True)
class Budget:
    """Resource limits: ``order_cap`` bounds the order of every group built, ``max_subgroups`` every lattice.

    A group keeps one lattice, so a lattice built under one budget is served
    under any ``max_subgroups`` at or above its size, and refused, with the
    error a fresh enumeration raises, below it.
    """

    order_cap: int = field(default_factory=_default_order_cap)
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS

    def __post_init__(self):
        if self.order_cap > MAX_ORDER_CAP:
            raise ValueError(f"order cap above hard limit {MAX_ORDER_CAP}")


# Built with the fixed default so that importing fgt never reads the environment.
DEFAULT_BUDGET = Budget(order_cap=DEFAULT_ORDER_CAP)

