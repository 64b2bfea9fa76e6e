"""Assortment optimization with per-pair fixed costs.

This is the separation problem behind the dual of the marginal LP: for a
cost matrix gamma (any sign), find the customer set maximizing expected
revenue minus the total cost of the offered customers. The production
implementation enumerates exhaustively at desk scale; callers interact
through a pluggable (1 - delta)-approximate oracle contract so the cited
polynomial-time scheme could be dropped in without touching the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instance import Instance
from .mnl import (
    SizeLimitError,
    as_subset,
    expected_revenue,
    expected_revenue_table,
    subset_masks,
    subset_of,
)

SUB_DUAL_LIMIT = 20


def rev_cost(inst: Instance, j: int, customers, gamma) -> float:
    """Expected revenue of offering ``customers`` to supplier j minus the
    fixed costs gamma[i][j] of the included customers."""
    members = as_subset(customers)
    gamma = np.asarray(gamma, dtype=float)
    return expected_revenue(inst, j, members) - sum(float(gamma[i, j]) for i in members)


def sub_dual_exact(inst: Instance, j: int, gamma) -> tuple[float, tuple[int, ...]]:
    """Exhaustive maximum of rev_cost over all customer subsets (n <= 20).

    The value is always >= 0 since the empty set scores 0. Ties are broken
    toward smaller sets, then lexicographically.
    """
    if inst.n > SUB_DUAL_LIMIT:
        raise SizeLimitError(f"exact sub-dual limited to {SUB_DUAL_LIMIT} customers, got {inst.n}")
    gamma = np.asarray(gamma, dtype=float)
    values = expected_revenue_table(inst, j) - subset_masks(inst.n) @ gamma[:, j]
    vmax = float(values.max())
    best = _first_by_size_then_lex(np.flatnonzero(values == vmax), inst.n)
    return vmax, subset_of(best, inst.n)


def _first_by_size_then_lex(candidates: np.ndarray, n: int) -> int:
    return min(
        (int(c) for c in candidates),
        key=lambda c: (c.bit_count(), subset_of(c, n)),
    )


@dataclass(frozen=True)
class OracleConfig:
    """Selects the sub-dual oracle implementation.

    kind:
        "exact"     exhaustive enumeration, delta = 0 (default).
        "relaxed"   returns the first set, in size-then-lex order, whose
                    value reaches (1 - delta) times the exhaustive optimum;
                    exercises the approximate-oracle contract honestly.
    """

    kind: str = "exact"
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("exact", "relaxed"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


class SubDualOracle:
    """Per-instance oracle with cached subset tables; call as oracle(j, gamma).

    Returns (value, customer set, delta) where the set's rev_cost is the
    reported value and is >= (1 - delta) * sub-dual optimum.
    """

    def __init__(self, config: OracleConfig, inst: Instance):
        if inst.n > SUB_DUAL_LIMIT:
            raise SizeLimitError(f"oracle limited to {SUB_DUAL_LIMIT} customers, got {inst.n}")
        self.config = config
        self.inst = inst
        self._masks = subset_masks(inst.n)
        self._rtab = np.stack([expected_revenue_table(inst, j) for j in inst.suppliers()])
        self._subsets: dict[int, tuple[int, ...]] = {}

    @cached_property
    def _scan(self) -> list[int]:
        """Size-then-lex scan order over bitmasks, shared by every relaxed
        call; built on first use because only the relaxed kind reads it."""
        return sorted(range(2**self.inst.n), key=lambda c: (c.bit_count(), subset_of(c, self.inst.n)))

    def _subset(self, mask: int) -> tuple[int, ...]:
        subset = self._subsets.get(mask)
        if subset is None:
            subset = self._subsets[mask] = subset_of(mask, self.inst.n)
        return subset

    def __call__(self, j: int, gamma) -> tuple[float, tuple[int, ...], float]:
        gamma = np.asarray(gamma, dtype=float)
        values = self._rtab[j] - self._masks @ gamma[:, j]
        vmax = float(values.max())
        if self.config.kind == "exact":
            hits = (values == vmax).nonzero()[0]
            best = int(hits[0]) if hits.size == 1 else _first_by_size_then_lex(hits, self.inst.n)
            return vmax, self._subset(best), 0.0
        target = (1.0 - self.config.delta) * vmax
        for c in self._scan:
            if values[c] >= target:
                return float(values[c]), self._subset(c), self.config.delta
        raise RuntimeError("unreachable: the maximizer always meets the target")


def make_oracle(config: OracleConfig | None, inst: Instance) -> SubDualOracle:
    return SubDualOracle(config or OracleConfig(), inst)
