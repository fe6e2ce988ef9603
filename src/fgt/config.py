"""Budget and output configuration used by constructors, lattices and the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

DEFAULT_ORDER_CAP = 1200
MAX_ORDER_CAP = 5040
DEFAULT_MAX_SUBGROUPS = 200_000
DEFAULT_MAX_JOIN_ATTEMPTS = 5_000_000

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
    """Resource limits for group construction and lattice enumeration.

    ``max_join_attempts`` bounds the zuppo joins ``all_subgroups`` computes after
    dropping those that give a conjugate or a copy of a known join; it is checked
    before each class representative's batch.  A lattice read off a parent
    group's lattice computes no joins, so only ``max_subgroups`` can stop it.
    """

    order_cap: int = field(default_factory=_default_order_cap)
    max_subgroups: int = DEFAULT_MAX_SUBGROUPS
    max_join_attempts: int = DEFAULT_MAX_JOIN_ATTEMPTS

    def __post_init__(self):
        if self.order_cap > MAX_ORDER_CAP:
            raise ValueError(f"order cap above hard limit {MAX_ORDER_CAP}")


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class CliConfig:
    budget: Budget = DEFAULT_BUDGET
    parallelism: int = 1

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
