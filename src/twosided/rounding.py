"""Convert per-customer LP marginals into explicit assortment distributions.

Any marginal row satisfying the MNL polytope row constraints can be written
as a mixture of nested assortments: sort suppliers by x/u descending and put
mass on the prefixes of that order so the induced MNL choice marginals
reproduce x exactly. The mixture weights are closed-form in the sorted
ratios and prefix weight sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mnl import choice_prob

PRE_TOL = 1e-9
CLAMP_TOL = 1e-12
# Generator.choice's tolerance on the probability sum
CHOICE_SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))


class MarginalsInfeasible(ValueError):
    """The marginal row violates the MNL polytope beyond tolerance."""


@dataclass(frozen=True)
class AssortmentDistribution:
    """Finite distribution over assortments (sorted index tuples)."""

    support: tuple[tuple[tuple[int, ...], float], ...]

    @property
    def sets(self) -> list[tuple[int, ...]]:
        return [s for s, _ in self.support]

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.support])

    @cached_property
    def cdf(self) -> np.ndarray:
        return choice_cdf(self.probabilities)


def choice_cdf(p) -> np.ndarray:
    """Normalized cumulative sums of ``p`` for :func:`inverse_cdf`, after the
    checks ``Generator.choice`` makes on ``p``."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D array")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if not abs(total - 1.0) <= CHOICE_SUM_TOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def inverse_cdf(cdf: np.ndarray, u):
    """The index of a :func:`choice_cdf` table that a uniform ``u`` selects:
    the first entry above ``u``. Elementwise for an array ``u``. With ``u =
    rng.random()`` it equals ``rng.choice(p.size, p=p)`` on a generator in
    the same state, which also consumes one uniform, since that is how
    ``Generator.choice`` samples with ``p``."""
    return cdf.searchsorted(u, side="right")


def mnl_distribution(x_row, u_row) -> AssortmentDistribution:
    """Distribution over nested assortments whose induced choice marginals
    equal ``x_row``.

    Preconditions (checked to 1e-9): x finite, u finite and positive, x >= 0
    and, for every j, x[j]/u[j] + sum(x) <= 1. Suppliers with equal x/u keep index order.
    """
    x = np.asarray(x_row, dtype=float)
    u = np.asarray(u_row, dtype=float)
    m = x.size
    if u.size != m:
        raise ValueError(f"marginal row has {m} entries but weight row has {u.size}")
    if not (np.isfinite(x).all() and np.isfinite(u).all() and (u > 0).all()):
        raise MarginalsInfeasible(f"non-finite marginal or weight, or weight <= 0: x {x.tolist()}, u {u.tolist()}")
    if (x < -PRE_TOL).any():
        raise MarginalsInfeasible(f"negative marginal {float(x.min())}")
    x = np.clip(x, 0.0, None)
    ratios = x / u
    total = float(x.sum())
    worst = float(ratios.max()) + total if m else 0.0
    if worst > 1.0 + PRE_TOL:
        raise MarginalsInfeasible(f"MNL polytope row violated: {worst} > 1")

    order = tuple(sorted(range(m), key=lambda j: (-ratios[j], j)))

    probs = [1.0 - (ratios[order[0]] + total) if m else 1.0]
    weight_sum = 1.0
    for pos in range(m):
        j = order[pos]
        weight_sum += u[j]
        if pos + 1 < m:
            probs.append((ratios[j] - ratios[order[pos + 1]]) * weight_sum)
        else:
            probs.append(ratios[j] * weight_sum)

    cleaned = []
    for p in probs:
        if p < -CLAMP_TOL:
            raise MarginalsInfeasible(f"prefix probability {p} below clamp tolerance")
        cleaned.append(max(p, 0.0))
    mass = sum(cleaned)
    if mass <= 0.0:
        raise MarginalsInfeasible("distribution has no mass")
    cleaned = [p / mass for p in cleaned]

    support = []
    for length, p in enumerate(cleaned):
        support.append((tuple(sorted(order[:length])), float(p)))
    return AssortmentDistribution(support=tuple(support))


def induced_marginals(dist: AssortmentDistribution, u_row) -> np.ndarray:
    u = np.asarray(u_row, dtype=float)
    out = np.zeros(u.size)
    for subset, p in dist.support:
        if not subset:
            continue
        denom = 1.0 + sum(u[j] for j in subset)
        for j in subset:
            out[j] += p * u[j] / denom
    return out


def validate_marginals(dist: AssortmentDistribution, u_row, x_row) -> float:
    """Largest absolute gap between the distribution's induced choice
    marginals and the target row."""
    target = np.asarray(x_row, dtype=float)
    return float(np.abs(induced_marginals(dist, u_row) - target).max())


def choice_table(u_row, subset: tuple[int, ...]) -> tuple[list[int | None], np.ndarray]:
    """The options of an MNL choice from ``subset`` (None, the outside
    option, last) and their :func:`choice_cdf`."""
    options: list[int | None] = list(subset) + [None]
    weights = np.array([choice_prob(u_row, subset, k) for k in options])
    return options, choice_cdf(weights / weights.sum())


def sample_choice(u_row, subset: tuple[int, ...], rng: np.random.Generator) -> int | None:
    """Draw one MNL choice from ``subset`` (None is the outside option)."""
    options, cdf = choice_table(u_row, subset)
    return options[int(inverse_cdf(cdf, rng.random()))]
