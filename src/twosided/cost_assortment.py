"""Assortment optimization with per-pair fixed costs.

This is the separation problem behind the dual of the marginal LP: for a
cost matrix gamma (any sign), find the customer set maximizing expected
revenue minus the total cost of the offered customers. One oracle per
instance answers it by exhaustive enumeration at desk scale, within the
slack delta given with each call (exact at delta = 0). It names the set by
its bitmask (bit i: customer i, as ``mnl.mask_of``), the form the cut
loop, its record and the restricted master keep it in. Its revenues are
the master's lambda costs, one array (``inst.expected_revenue_tables``).
The cited polynomial-time scheme could replace the enumeration behind the
same call without touching the solvers.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance
from .mnl import check_supplier, expected_revenue, in_universe, subset_masks, subset_sums


def rev_cost(inst: Instance, j: int, customers, gamma) -> float:
    """Expected revenue of offering ``customers`` to supplier j minus the
    fixed costs gamma[i][j] of the included customers."""
    members = in_universe(customers, inst.n)
    gamma = np.asarray(gamma, dtype=float)
    return expected_revenue(inst, j, members) - sum(float(gamma[i, j]) for i in members)


class SubDualOracle:
    """The sub-dual oracle of one instance (n <= 20), over the instance's
    revenue tables; call as oracle(j, gamma, delta=0.0), delta in [0, 1).

    Returns (value, mask): the first set, smaller sets first and
    lexicographically within a size, whose rev_cost reaches (1 - delta)
    times the sub-dual optimum, as its bitmask (bit i: customer i), and
    that rev_cost as the value. At delta = 0
    this is the exact maximizer under the same tie-break. The optimum is
    always >= 0 since the empty set scores 0.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._rtab = inst.expected_revenue_tables  # refuses n > SUBSET_TABLE_LIMIT first
        self._masks = subset_masks(inst.n)
        # size-then-lex rank of every bitmask: (size << n) + 2^n - 1 less the
        # mask read with customer 0 as the top bit, so a member i adds
        # 2^n - 2^(n-1-i); within a size this is lex order of the index tuples
        n = inst.n
        self._key = subset_sums((1 << n) - (1 << (n - 1 - np.arange(n))), (1 << n) - 1)

    def __call__(self, j: int, gamma, delta: float = 0.0) -> tuple[float, int]:
        check_delta(delta)
        gamma = np.asarray(gamma, dtype=float)
        values = self._rtab[check_supplier(self.inst, j)] - self._masks @ gamma[:, j]
        hits = (values >= (1.0 - delta) * values.max()).nonzero()[0]
        best = int(hits[0]) if hits.size == 1 else int(hits[self._key[hits].argmin()])
        return values.item(best), best


def check_delta(delta: float) -> None:
    """Raise ``ValueError`` unless the oracle slack is in [0, 1)."""
    if not 0.0 <= delta < 1.0:  # also rejects NaN
        raise ValueError(f"delta must be in [0, 1), got {delta}")
