"""Monte Carlo evaluation and structural property checks.

The checkers falsify (never prove) the structural facts the policies rely
on: the correlation-gap bound on the optimal-revenue function, the
cross-monotone budget-balanced cost-sharing scheme behind it, the
submodular-order marginal inequality along a common revenue order, and the
interleaved-partition inequality used by the greedy analysis. Every
expectation and every cost share inside a check is computed by exhaustive
enumeration, read by bitmask from one row of the instance's optimal-revenue
tables per check (:func:`mnl.optimal_revenue_table`; the instance builds
them once), so inequalities are asserted at 1e-9, not statistically;
randomness only picks which cases to try and everything is deterministic
in (trials, seed). :func:`correlation_gap_ratios` checks many draws of one
size at once from stacked table rows; :func:`correlation_gap_check` is its
one-draw form on the instance's row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import mnl
from .instance import Instance, as_permutation

CHECK_TOL = 1e-9
GAP_MAX_N = 10  # every check and expectation reads a table of all 2^n subsets
CORRELATED_MAX_SUPPORT = 8
MC_BATCH = 512  # Monte Carlo trials per run batch; bounds the batch's arrays


@dataclass
class PropertyReport:
    name: str
    cases: int = 0
    violations: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, **witness) -> None:
        self.violations.append(witness)


def monte_carlo(policy, trials: int, master_seed: int) -> tuple[float, float]:
    """Mean and standard error of realized revenue over ``trials``
    independent runs of a sampled policy (``RandomizedStaticPolicy`` or
    ``SameOrderGreedyPolicy``).

    Trial k reads the next ``policy.draws`` uniforms of one
    ``np.random.default_rng(master_seed)``, so the result is that of
    ``policy.sample(rng)`` called ``trials`` times on that generator. The
    trials go through the policy's run loop ``MC_BATCH`` at a time.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(operator.index(master_seed))  # None would seed from the OS
    values = np.empty(trials)
    for first in range(0, trials, MC_BATCH):
        count = min(MC_BATCH, trials - first)
        values[first:first + count] = policy.revenues(rng.random((count, policy.draws)))
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


@dataclass(frozen=True)
class SubsetDistribution:
    """Finite distribution over customer subsets: (bitmask, probability)
    pairs (bit i: customer i, as ``mnl.mask_of``), sorted by mask as the
    constructors below build them; a repeated mask adds its probabilities."""

    support: tuple[tuple[int, float], ...]

    def __post_init__(self):
        masks = [mask for mask, _ in self.support]
        check_supports(np.array([masks]), np.array([[p for _, p in self.support]], dtype=float))

    @staticmethod
    def point_mass(subset) -> "SubsetDistribution":
        return SubsetDistribution(((sum(1 << i for i in mnl.as_subset(subset)), 1.0),))

    @staticmethod
    def product(marginals) -> "SubsetDistribution":
        """Independent inclusion with the given per-customer marginals; the
        support enumerates all subsets."""
        probs = mnl.independent_subset_probs(marginals)
        return SubsetDistribution(tuple((mask, float(p)) for mask, p in enumerate(probs)))

    @staticmethod
    def random_correlated(n: int, rng: np.random.Generator) -> "SubsetDistribution":
        """Up to ``CORRELATED_MAX_SUPPORT`` subsets drawn uniformly, Dirichlet
        weights; a falsification net over correlated distributions, not a
        proof. The law: k uniform on 1..``CORRELATED_MAX_SUPPORT``, k masks
        uniform on [0, 2^n), Dirichlet(1) weights, repeated masks merged.
        The gap suite draws from the same law as arrays
        (:func:`twosided.suites.suite_gap`), with Dirichlet(1) as
        normalized Exp(1) and repeated masks left unmerged."""
        k = int(rng.integers(1, CORRELATED_MAX_SUPPORT + 1))
        masks = rng.integers(0, 2**n, size=k)
        weights = rng.dirichlet(np.ones(k))
        merged: dict[int, float] = {}
        for mask, p in zip(masks.tolist(), weights.tolist()):
            merged[mask] = merged.get(mask, 0.0) + p
        return SubsetDistribution(tuple(sorted(merged.items())))

    def marginals(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        rows = mnl.subset_masks(n)  # a mask of 2^n or more raises IndexError
        for mask, p in self.support:
            out += p * rows[mask]
        return out


def check_supports(masks: np.ndarray, probs: np.ndarray) -> None:
    """The checks of a :class:`SubsetDistribution`, on k supports at once:
    one per row of the (k, s) ``masks`` and ``probs``. ``ValueError`` for a
    negative mask or probability, a NaN probability, or a row that does
    not sum to within 1e-12 of 1."""
    # a negative mask would read a table from its end; not p >= 0 also
    # refuses NaN, which no sum check catches
    if (masks < 0).any() or not (probs >= 0).all():
        raise ValueError("negative mask, or a probability that is negative or NaN")
    totals = probs.sum(axis=1)
    off = np.abs(totals - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"probabilities sum to {totals[off][0]}, not 1")


def _gtab(inst: Instance, j: int, check: str) -> np.ndarray:
    """Supplier j's optimal-revenue table, refused past ``GAP_MAX_N`` customers before it is built."""
    if inst.n > GAP_MAX_N:
        raise mnl.SizeLimitError(f"{check} enumerates 2^{inst.n} subsets; limit n <= {GAP_MAX_N}")
    return mnl.optimal_revenue_table(inst, j)


def _expected_value(gtab: np.ndarray, dist: SubsetDistribution) -> float:
    return float(sum(p * gtab[mask] for mask, p in dist.support))


def expected_optimal_revenue(inst: Instance, j: int, dist: SubsetDistribution) -> float:
    return _expected_value(_gtab(inst, j, "expected optimal revenue"), dist)


def correlation_gap_ratios(gtabs: np.ndarray, masks: np.ndarray, probs: np.ndarray) -> list[float | None]:
    """Ratio of the correlated expectation of the optimal-revenue function
    to the expectation under the independent distribution with the same
    marginals, for k draws over one universe of n customers. Row t of the
    (k, 2^n) ``gtabs`` is draw t's optimal-revenue table, and rows t of
    the (k, s) ``masks`` and ``probs`` are its support in order, padded
    with (0, +0.0) pairs, which leave every sum's bits as they are.

    Each numerator is summed in support order from 0, as
    :func:`_expected_value` sums it; each denominator is row t of the table
    times row t of the subset probabilities. When a denominator vanishes
    (only possible when the marginals put no mass on any revenue-positive
    set) the ratio is ``math.inf`` if the numerator is positive and
    ``None`` for 0/0. Refused past ``GAP_MAX_N`` customers before any row
    is built; a mask of 2^n or more raises ``IndexError``.
    """
    k, size = gtabs.shape
    n = size.bit_length() - 1
    if n > GAP_MAX_N:
        raise mnl.SizeLimitError(f"gap check enumerates 2^{n} subsets; limit n <= {GAP_MAX_N}")
    draws, bits = np.arange(k), np.arange(n)
    marginals = np.zeros((k, n))
    numerators = np.zeros(k)
    for mask, p in zip(masks.T, probs.T):
        numerators += p * gtabs[draws, mask]  # a mask of 2^n or more raises IndexError
        marginals += p[:, None] * (mask[:, None] >> bits & 1)
    independent = mnl.independent_subset_probs(marginals.T).T.copy()  # (k, 2^n)
    ratios: list[float | None] = []
    for gtab, p, numerator in zip(gtabs, independent, numerators.tolist()):
        denominator = float(gtab @ p)
        if denominator <= 0.0:
            ratios.append(math.inf if numerator > 0.0 else None)
        else:
            ratios.append(numerator / denominator)
    return ratios


def correlation_gap_check(inst: Instance, j: int, dist: SubsetDistribution) -> float | None:
    """:func:`correlation_gap_ratios` of one draw on supplier j's
    optimal-revenue table."""
    gtab = _gtab(inst, j, "gap check")
    masks, probs = zip(*dist.support)
    return correlation_gap_ratios(gtab[None], np.array([masks]), np.array([probs]))[0]


def revenue_order(inst: Instance, j: int) -> tuple[int, ...]:
    """Customers sorted by descending revenue for supplier j, ties by index."""
    mnl.check_supplier(inst, j)
    return tuple(sorted(inst.customers(), key=lambda i: (-inst.r[i, j], i)))


def _above_masks(inst: Instance, j: int) -> list[int]:
    """Bitmask of the customers ranking strictly above each customer in
    :func:`revenue_order`."""
    above = [0] * inst.n
    seen = 0
    for i in revenue_order(inst, j):
        above[i] = seen
        seen |= 1 << i
    return above


def _share(gtab: np.ndarray, above: list[int], i: int, mask: int) -> float:
    """Share of customer i in the set ``mask``: its marginal over the
    members ranking above it (0 when i is not a member)."""
    if not mask >> i & 1:
        return 0.0
    lo = mask & above[i]
    return float(gtab[lo | 1 << i] - gtab[lo])


def cost_share(inst: Instance, j: int, i: int, subset) -> float:
    """Share of the optimal revenue of ``subset`` allocated to customer i:
    the marginal of i over the members ranking strictly above it in the
    descending revenue order (0 when i is not a member)."""
    gtab = _gtab(inst, j, "cost share")
    mnl.in_universe((i,), inst.n)
    return _share(gtab, _above_masks(inst, j), i, mnl.mask_of(subset, inst.n))


def cost_sharing_check(inst: Instance, j: int, trials: int, seed: int) -> PropertyReport:
    """Random (A subset of B, i) triples: the shares must be cross-monotone
    and must telescope exactly to the optimal revenue (budget balance with
    factor 1)."""
    n = inst.n
    gtab = _gtab(inst, j, "cost-sharing check")
    rng = np.random.default_rng(seed)
    report = PropertyReport(name="cost-sharing")
    above = _above_masks(inst, j)
    for _ in range(trials):
        report.cases += 1
        b_mask = int(rng.integers(0, 2**n))
        a_mask = b_mask & int(rng.integers(0, 2**n))
        i = int(rng.integers(0, n))
        chi_a = _share(gtab, above, i, a_mask | 1 << i)
        chi_b = _share(gtab, above, i, b_mask | 1 << i)
        if chi_a < chi_b - CHECK_TOL:
            report.record(
                kind="cross-monotonicity",
                A=mnl.subset_of(a_mask, n),
                B=mnl.subset_of(b_mask, n),
                i=i,
                chi_A=chi_a,
                chi_B=chi_b,
            )
        total = sum(_share(gtab, above, i2, a_mask) for i2 in range(n))
        g_a = float(gtab[a_mask])
        if abs(total - g_a) > CHECK_TOL:
            report.record(kind="budget-balance", A=mnl.subset_of(a_mask, n), shares=total, g=g_a)
    return report


def submodularity_check(inst: Instance, j: int) -> PropertyReport:
    """Exhaustive plain-submodularity scan (order-free): report every
    (A subset of B, i outside B) with a strictly larger marginal at B.
    Heterogeneous revenues generally violate this; the scan supplies the
    negative-control witnesses."""
    n = inst.n
    gtab = _gtab(inst, j, "submodularity scan")
    report = PropertyReport(name="submodularity")
    for b_mask in range(2**n):
        a_mask = b_mask
        while True:
            for i in range(n):
                bit = 1 << i
                if b_mask & bit:
                    continue
                report.cases += 1
                gain_a = gtab[a_mask | bit] - gtab[a_mask]
                gain_b = gtab[b_mask | bit] - gtab[b_mask]
                if gain_a < gain_b - CHECK_TOL:
                    report.record(
                        kind="submodularity",
                        A=mnl.subset_of(a_mask, n),
                        B=mnl.subset_of(b_mask, n),
                        i=i,
                        gain_A=float(gain_a),
                        gain_B=float(gain_b),
                    )
            if a_mask == 0:
                break
            a_mask = (a_mask - 1) & b_mask
    return report


def submodular_order_check(
    inst: Instance,
    j: int,
    order,
    trials: int = 0,
    seed: int = 0,
    exhaustive: bool = False,
) -> PropertyReport:
    """Submodular-order marginal inequality along ``order`` plus
    sub-additivity.

    For A subset of B and C entirely after B in the order, the marginal of
    C at B must not exceed the marginal at A; and the value of a union must
    not exceed the sum of values. Exhaustive mode scans every triple;
    otherwise ``trials`` random triples are drawn.
    """
    n = inst.n
    gtab = _gtab(inst, j, "submodular-order check")
    order = as_permutation(order, n)
    report = PropertyReport(name="submodular-order")
    pos = {c: t for t, c in enumerate(order)}

    def successors_mask(b_mask: int) -> int:
        last = max((pos[i] for i in range(n) if b_mask >> i & 1), default=-1)
        mask = 0
        for t in range(last + 1, n):
            mask |= 1 << order[t]
        return mask

    def union_value(x_mask: int, y_mask: int) -> float:
        return float(gtab[x_mask | y_mask])

    def check_triple(a_mask: int, b_mask: int, c_mask: int) -> None:
        report.cases += 1
        gain_b = union_value(c_mask, b_mask) - gtab[b_mask]
        gain_a = union_value(c_mask, a_mask) - gtab[a_mask]
        if gain_b > gain_a + CHECK_TOL:
            report.record(
                kind="submodular-order",
                A=mnl.subset_of(a_mask, n),
                B=mnl.subset_of(b_mask, n),
                C=mnl.subset_of(c_mask, n),
                gain_A=gain_a,
                gain_B=gain_b,
            )

    def check_subadditive(x_mask: int, y_mask: int) -> None:
        report.cases += 1
        if gtab[x_mask | y_mask] > gtab[x_mask] + gtab[y_mask] + CHECK_TOL:
            report.record(
                kind="sub-additivity",
                A=mnl.subset_of(x_mask, n),
                B=mnl.subset_of(y_mask, n),
                union=float(gtab[x_mask | y_mask]),
                parts=float(gtab[x_mask] + gtab[y_mask]),
            )

    if exhaustive:
        for b_mask in range(2**n):
            succ = successors_mask(b_mask)
            c_mask = succ
            while True:
                a_mask = b_mask
                while True:
                    check_triple(a_mask, b_mask, c_mask)
                    if a_mask == 0:
                        break
                    a_mask = (a_mask - 1) & b_mask
                if c_mask == 0:
                    break
                c_mask = (c_mask - 1) & succ
        for x_mask in range(2**n):
            for y_mask in range(2**n):
                check_subadditive(x_mask, y_mask)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            b_mask = int(rng.integers(0, 2**n))
            a_mask = b_mask & int(rng.integers(0, 2**n))
            c_mask = successors_mask(b_mask) & int(rng.integers(0, 2**n))
            check_triple(a_mask, b_mask, c_mask)
            check_subadditive(int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))
    return report


def interleaved_partition_check(
    inst: Instance, j: int, order, trials: int, seed: int
) -> PropertyReport:
    """Simulated-backlog form of the interleaved-partition inequality.

    For a random backlog B and target C, walking the common order and
    splitting C union B into the backlog elements (E blocks) and the rest
    (O blocks) must satisfy: value of the union <= value of B plus the sum
    of each O block's marginal over the backlog elements seen so far.
    """
    n = inst.n
    gtab = _gtab(inst, j, "interleaved-partition check")
    order = as_permutation(order, n)
    rng = np.random.default_rng(seed)
    report = PropertyReport(name="interleaved-partition")
    for _ in range(trials):
        report.cases += 1
        backlog_mask = int(rng.integers(0, 2**n))
        target_mask = int(rng.integers(0, 2**n))
        lhs = float(gtab[backlog_mask | target_mask])
        rhs = float(gtab[backlog_mask])
        seen = 0
        for i in order:
            bit = 1 << i
            if backlog_mask & bit:
                seen |= bit
            elif target_mask & bit:
                rhs += float(gtab[seen | bit] - gtab[seen])
        if lhs > rhs + CHECK_TOL:
            report.record(
                kind="interleaved-partition",
                backlog=mnl.subset_of(backlog_mask, n),
                target=mnl.subset_of(target_mask, n),
                lhs=lhs,
                rhs=rhs,
            )
    return report
