"""Executable policies and exact desk-scale oracles.

Oracles: a memoized dynamic program over per-customer statuses for the
adaptive-order problem, the same recursion with a forced processing order,
and exhaustive search over static assortment profiles. All three are exact
and exist to verify the approximation guarantees of the two policies:

* randomized static -- sample each customer's assortment from the nested
  distribution induced by LP marginals, then let every supplier keep the
  best subset of its backlog;
* same-order greedy -- process customers along the common revenue order,
  offering the assortment that maximizes marginal revenue weighted by
  choice probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mnl
from .mnl import SizeLimitError
from .instance import Instance, SameOrderCertificate
from .lp import LpSolution
from .rounding import mnl_distribution, sample_choice

UNPROCESSED = -2
OUTSIDE = -1

DP_WORK_LIMIT = 4_000_000
STAR_WORK_LIMIT = 4_000_000
GREEDY_TREE_LIMIT = 200_000
EXACT_EVAL_MAX_N = 15


class PolicyPreconditionError(RuntimeError):
    """A policy prerequisite (e.g. a same-order certificate) is missing."""


@dataclass(frozen=True)
class BacklogAssignment:
    """Realized choices of all customers; ``None`` means the outside option.
    The induced per-supplier backlogs are disjoint by construction."""

    m: int
    choice: tuple[int | None, ...]

    def backlogs(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.m)]
        for i, pick in enumerate(self.choice):
            if pick is not None:
                out[pick].append(i)
        return [tuple(b) for b in out]


@dataclass
class SupplierOutcome:
    backlog: tuple[int, ...]
    offered: tuple[int, ...]
    value: float


@dataclass
class PolicyOutcome:
    expected_revenue: float
    per_supplier: list[SupplierOutcome]
    trace: list[dict] | None = None


def finalize_suppliers(inst: Instance, assignment: BacklogAssignment, trace=None) -> PolicyOutcome:
    """Offer every supplier the best subset of its backlog and total up the
    resulting expected revenue."""
    per: list[SupplierOutcome] = []
    total = 0.0
    for j, backlog in enumerate(assignment.backlogs()):
        value, offered = mnl.optimal_revenue(inst, j, backlog)
        per.append(SupplierOutcome(backlog=backlog, offered=offered, value=value))
        total += value
    return PolicyOutcome(expected_revenue=total, per_supplier=per, trace=trace)


def _require_dp_size(inst: Instance) -> None:
    work = (inst.m + 2) ** inst.n * 2**inst.m * max(inst.n, 1)
    if work > DP_WORK_LIMIT:
        raise SizeLimitError(
            f"adaptive dynamic program needs ~{work} state-action steps for "
            f"{inst.n}x{inst.m}; limit is {DP_WORK_LIMIT}"
        )


def _with(status: tuple[int, ...], i: int, value: int) -> tuple[int, ...]:
    out = list(status)
    out[i] = value
    return tuple(out)


def _dp(inst: Instance, order: tuple[int, ...] | None):
    """Memoized recursion over per-customer statuses (unprocessed / outside
    / chosen supplier). With ``order`` the t-th step processes ``order[t]``;
    without it every unprocessed customer is a candidate. A customer's best
    offer follows the prefix rule of :func:`best_marginal_assortment` on the
    successor values' gains over the outside option. The boundary value sums
    each supplier's optimal revenue over its backlog.
    Returns (value, {status: (customer, assortment)}).
    """
    _require_dp_size(inst)
    n, m = inst.n, inst.m
    u = inst.u.tolist()
    gtabs = [mnl.optimal_revenue_table(inst, j).tolist() for j in range(m)]
    memo: dict[tuple[int, ...], float] = {}
    policy: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}

    def value(status: tuple[int, ...], t: int) -> float:
        cached = memo.get(status)
        if cached is not None:
            return cached
        if t == n:
            best = 0.0
            for j in range(m):
                mask = 0
                for i, st in enumerate(status):
                    if st == j:
                        mask |= 1 << i
                best += gtabs[j][mask]
            memo[status] = best
            return best
        if order is None:
            candidates = [i for i, st in enumerate(status) if st == UNPROCESSED]
        else:
            candidates = (order[t],)
        best = -np.inf
        best_action = None
        for i in candidates:
            succ_out = value(_with(status, i, OUTSIDE), t + 1)
            gains = [value(_with(status, i, j), t + 1) - succ_out for j in range(m)]
            offer, gain = best_marginal_assortment(gains, u[i])
            v = succ_out + gain
            if v > best:
                best = v
                best_action = (i, offer)
        memo[status] = best
        policy[status] = best_action
        return best

    return value((UNPROCESSED,) * n, 0), policy


def exact_dp_atar(inst: Instance):
    """Optimal adaptive value and policy table.

    At each state the program picks the remaining customer and supplier
    assortment of highest value; see :func:`_dp`.
    Returns (optimal value, {status: (customer, assortment)}).
    """
    return _dp(inst, None)


def exact_dp_ftar(inst: Instance, order) -> float:
    """Optimal value when customers must be processed in ``order`` but
    assortments stay adaptive. Never exceeds the adaptive-order value."""
    order = tuple(order)
    if sorted(order) != list(range(inst.n)):
        raise ValueError(f"order must be a permutation of range({inst.n})")
    return _dp(inst, order)[0]


def exact_star(inst: Instance) -> float:
    """Optimal value over deterministic static assortment profiles, all
    customers processed simultaneously.

    Under a static profile customers choose independently, so supplier j's
    backlog is product-Bernoulli with inclusion probabilities
    phi_i(j, S_i); by linearity of expectation a profile's value is the sum
    over suppliers of that distribution integrated against the
    optimal-revenue table. All profiles are evaluated at once.
    """
    n, m = inst.n, inst.m
    work = (2**m) ** n * (m + 1) ** n
    if work > STAR_WORK_LIMIT:
        raise SizeLimitError(
            f"static exhaustive search needs ~{work} outcome evaluations for "
            f"{n}x{m}; limit is {STAR_WORK_LIMIT}"
        )
    offers = mnl.subset_masks(m)  # row a is the offer with bitmask a
    # phi[i, a, j]: probability that customer i picks supplier j from offer a
    phi = inst.u[:, None, :] * offers / (1.0 + inst.u @ offers.T)[:, :, None]
    # column k is one profile: customer i is offered mask profiles[i, k]
    profiles = np.indices((2**m,) * n).reshape(n, -1)
    customers = np.arange(n)[:, None]
    values = sum(
        mnl.optimal_revenue_table(inst, j) @ mnl.independent_subset_probs(phi[customers, profiles, j])
        for j in range(m)
    )
    return float(values.max())


class RandomizedStaticPolicy:
    """Static policy realized from a feasible marginal-LP point: every
    customer is shown an assortment drawn from the nested distribution with
    their x marginals, independently of all other customers."""

    def __init__(self, inst: Instance, solution: LpSolution):
        self.inst = inst
        self.x = np.clip(np.asarray(solution.x, dtype=float), 0.0, 1.0)
        self.distributions = [
            mnl_distribution(solution.x[i], inst.u[i]) for i in range(inst.n)
        ]

    def sample(self, seed) -> PolicyOutcome:
        """One realized run: sample assortments, observe MNL choices, then
        finalize the suppliers."""
        rng = np.random.default_rng(seed)
        picks: list[int | None] = []
        trace: list[dict] = []
        for i in range(self.inst.n):
            offered = self.distributions[i].sample(rng)
            pick = sample_choice(self.inst.u[i], offered, rng)
            picks.append(pick)
            trace.append({"customer": i, "offered": list(offered), "choice": pick})
        assignment = BacklogAssignment(m=self.inst.m, choice=tuple(picks))
        return finalize_suppliers(self.inst, assignment, trace=trace)

    def exact_expected_revenue(self) -> float:
        """True expectation over all backlog realizations: per supplier the
        backlog is product-Bernoulli with the x marginals, so the value is
        the product distribution integrated against the optimal-revenue
        table (n <= 15)."""
        n = self.inst.n
        if n > EXACT_EVAL_MAX_N:
            raise SizeLimitError(
                f"exact evaluation enumerates 2^{n} backlogs per supplier; limit n <= {EXACT_EVAL_MAX_N}"
            )
        total = 0.0
        for j in range(self.inst.m):
            probs = mnl.independent_subset_probs(self.x[:, j])
            total += float(probs @ mnl.optimal_revenue_table(self.inst, j))
        return total


def best_marginal_assortment(rho, u_row) -> tuple[tuple[int, ...], float]:
    """Maximize sum_{j in S} rho[j] * phi(j, S) over supplier assortments S
    for nonnegative values rho.

    The maximizer is a prefix of suppliers sorted by rho descending (ties by
    index), so m+1 prefixes suffice; ties in value keep the smaller prefix.
    """
    order = sorted(range(len(rho)), key=lambda j: (-rho[j], j))
    best_val = 0.0
    best_len = 0
    num = 0.0
    den = 1.0
    for t, j in enumerate(order, start=1):
        num += rho[j] * u_row[j]
        den += u_row[j]
        val = num / den
        if val > best_val:
            best_val = val
            best_len = t
    return tuple(sorted(order[:best_len])), float(best_val)


@dataclass
class GreedyStep:
    customer: int
    offered: tuple[int, ...]
    choice: int | None
    backlogs_before: tuple[tuple[int, ...], ...]


@dataclass
class GreedyPath:
    probability: float
    steps: list[GreedyStep]
    backlogs: tuple[tuple[int, ...], ...]
    value: float


class SameOrderGreedyPolicy:
    """Deterministic adaptive greedy for instances whose suppliers share a
    common descending revenue order over customers.

    Refuses to run without a certificate: the 1/2 guarantee needs the
    common order. Passing ``order`` explicitly runs it anyway as a labeled
    heuristic.
    """

    def __init__(
        self,
        inst: Instance,
        certificate: SameOrderCertificate | None = None,
        order: tuple[int, ...] | None = None,
    ):
        if certificate is not None and certificate.sigma is not None:
            self.order = certificate.sigma
        elif order is not None:
            order = tuple(order)
            if sorted(order) != list(range(inst.n)):
                raise ValueError(f"order must be a permutation of range({inst.n})")
            self.order = order
        else:
            raise PolicyPreconditionError(
                "no same-order certificate; pass an explicit order to run as a heuristic"
            )
        self.inst = inst
        self._g_cache: dict[tuple[int, tuple[int, ...]], float] = {}

    def _g(self, j: int, members: tuple[int, ...]) -> float:
        key = (j, members)
        cached = self._g_cache.get(key)
        if cached is None:
            cached, _ = mnl.optimal_revenue(self.inst, j, members)
            self._g_cache[key] = cached
        return cached

    def _marginals(self, i: int, backlogs: list[tuple[int, ...]]) -> list[float]:
        out = []
        for j in range(self.inst.m):
            grown = tuple(sorted(backlogs[j] + (i,)))
            out.append(self._g(j, grown) - self._g(j, backlogs[j]))
        return out

    def offered_assortment(self, i: int, backlogs: list[tuple[int, ...]]):
        return best_marginal_assortment(self._marginals(i, backlogs), self.inst.u[i])

    def sample(self, seed) -> PolicyOutcome:
        rng = np.random.default_rng(seed)
        backlogs: list[tuple[int, ...]] = [() for _ in range(self.inst.m)]
        picks: dict[int, int | None] = {}
        trace: list[dict] = []
        for i in self.order:
            offered, _ = self.offered_assortment(i, backlogs)
            pick = sample_choice(self.inst.u[i], offered, rng)
            picks[i] = pick
            trace.append({"customer": i, "offered": list(offered), "choice": pick})
            if pick is not None:
                backlogs[pick] = tuple(sorted(backlogs[pick] + (i,)))
        choice = tuple(picks[i] for i in range(self.inst.n))
        assignment = BacklogAssignment(m=self.inst.m, choice=choice)
        return finalize_suppliers(self.inst, assignment, trace=trace)

    def exact_expected_revenue(self, collect_paths: bool = False):
        """True expectation by full outcome-tree enumeration; optionally
        also returns every path with its steps and probability."""
        n, m = self.inst.n, self.inst.m
        if (m + 1) ** n > GREEDY_TREE_LIMIT:
            raise SizeLimitError(
                f"outcome tree has up to {(m + 1) ** n} paths for {n}x{m}; "
                f"limit is {GREEDY_TREE_LIMIT}"
            )
        backlogs: list[tuple[int, ...]] = [() for _ in range(m)]
        steps: list[GreedyStep] = []
        paths: list[GreedyPath] = []
        total = 0.0

        def walk(t: int, prob: float) -> None:
            nonlocal total
            if t == n:
                value = sum(self._g(j, backlogs[j]) for j in range(m))
                total += prob * value
                if collect_paths:
                    paths.append(
                        GreedyPath(
                            probability=prob,
                            steps=list(steps),
                            backlogs=tuple(backlogs),
                            value=value,
                        )
                    )
                return
            i = self.order[t]
            offered, _ = self.offered_assortment(i, backlogs)
            u_i = self.inst.u[i]
            den = 1.0 + sum(u_i[j] for j in offered)
            before = tuple(backlogs)
            steps.append(GreedyStep(i, offered, None, before))
            walk(t + 1, prob / den)
            steps.pop()
            for j in offered:
                old = backlogs[j]
                backlogs[j] = tuple(sorted(old + (i,)))
                steps.append(GreedyStep(i, offered, j, before))
                walk(t + 1, prob * u_i[j] / den)
                steps.pop()
                backlogs[j] = old

        walk(0, 1.0)
        if collect_paths:
            return total, paths
        return total
