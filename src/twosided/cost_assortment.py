"""Assortment optimization with per-pair fixed costs.

This is the separation problem behind the dual of the marginal LP: for a
cost matrix gamma (any sign), find the customer set maximizing expected
revenue minus the total cost of the offered customers. One
(1 - delta)-approximate oracle answers it by exhaustive enumeration at desk
scale; its delta = 0 case is the exact maximizer. The cited
polynomial-time scheme could replace the enumeration behind the same call
without touching the solvers.
"""

from __future__ import annotations

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


class SubDualOracle:
    """The (1 - delta)-approximate sub-dual oracle of one instance (n <= 20),
    with cached subset tables; call as oracle(j, gamma).

    Returns (value, customer set): the first set, smaller sets first and
    lexicographically within a size, whose rev_cost reaches (1 - delta)
    times the sub-dual optimum, and that rev_cost as the value. At delta = 0
    this is the exact maximizer under the same tie-break. The optimum is
    always >= 0 since the empty set scores 0.
    """

    def __init__(self, inst: Instance, delta: float = 0.0):
        if inst.n > SUB_DUAL_LIMIT:
            raise SizeLimitError(f"oracle limited to {SUB_DUAL_LIMIT} customers, got {inst.n}")
        if not 0.0 <= delta < 1.0:  # also rejects NaN
            raise ValueError(f"delta must be in [0, 1), got {delta}")
        self.inst = inst
        self.delta = delta
        self._masks = subset_masks(inst.n)
        self._rtab = np.stack([expected_revenue_table(inst, j) for j in inst.suppliers()])
        # size-then-lex rank of every bitmask: size first, then, within a
        # size, lex order of the sorted index tuples, which is descending
        # order of the bit-reversed mask (customer 0 as the top bit)
        n = inst.n
        codes = np.arange(2**n, dtype=np.int64)
        size = np.zeros_like(codes)
        reversed_mask = np.zeros_like(codes)
        for i in range(n):
            bit = (codes >> i) & 1
            size += bit
            reversed_mask |= bit << (n - 1 - i)
        self._key = (size << n) + (2**n - 1 - reversed_mask)
        self._subsets: dict[int, tuple[int, ...]] = {}

    def _subset(self, mask: int) -> tuple[int, ...]:
        subset = self._subsets.get(mask)
        if subset is None:
            subset = self._subsets[mask] = subset_of(mask, self.inst.n)
        return subset

    def __call__(self, j: int, gamma) -> tuple[float, tuple[int, ...]]:
        gamma = np.asarray(gamma, dtype=float)
        values = self._rtab[j] - self._masks @ gamma[:, j]
        hits = (values >= (1.0 - self.delta) * values.max()).nonzero()[0]
        best = int(hits[0]) if hits.size == 1 else int(hits[self._key[hits].argmin()])
        return values.item(best), self._subset(best)
