"""The platform LP relaxations and their duals at desk scale.

Two relaxations are represented. The assortment-distribution LP puts one
probability variable on every (customer assortment, customer) pair and one
on every (backlog set, supplier) pair. The marginal LP replaces customer
assortment variables by per-pair choice marginals x[i][j] constrained
through the MNL identity x[i][j]/u[i][j] + sum_l x[i][l] <= 1. Both are
instantiated in full (every subset variable) and handed to the exact
simplex, which is tractable only at desk scale; the ellipsoid module scales
the marginal LP further by generating the backlog support on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import mnl
from .cost_assortment import SubDualOracle
from .mnl import SizeLimitError
from .instance import Instance
from .simplex import LinearProgram, LpResult, LpSolverError, solve_lp

LP2_MAX_N = 10
LP2_MAX_M = 4
LP1_MAX_N = 4
LP1_MAX_M = 4

SUPPORT_EPS = 1e-12


@dataclass
class LpSolution:
    """A feasible point of the marginal LP.

    x: (n, m) per-pair choice marginals.
    lam: per supplier, the backlog distribution as {customer subset: prob}
         restricted to its support.
    objective: expected-revenue objective value of the point.
    """

    x: np.ndarray
    lam: list[dict[tuple[int, ...], float]]
    objective: float


@dataclass
class DualPoint:
    """A point of the dual of the marginal LP: multipliers alpha (n, m) >= 0
    on the MNL rows, beta (m,) on the distribution rows and gamma (n, m) on
    the marginal-consistency rows."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)

    @property
    def objective(self) -> float:
        return float(self.beta.sum() + self.alpha.sum())


def weight_link_slack(inst: Instance, alpha: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Slack of every weight-link row of the dual as an (n, m) array,
    alpha_ij / u_ij + sum_k alpha_ik - gamma_ij; the row holds where it is
    >= 0. The cut loop and :func:`dual_feasibility_report` both test this one
    expression, so an incumbent the loop accepts passes the report at zero
    tolerance."""
    return alpha / inst.u + alpha.sum(axis=1, keepdims=True) - gamma


class ViolatedSets:
    """Per-supplier ordered collections of customer sets whose backlog
    constraint was cut during an ellipsoid run; duplicates are ignored."""

    def __init__(self, m: int):
        self._lists: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
        self._seen: list[set[tuple[int, ...]]] = [set() for _ in range(m)]

    def add(self, j: int, subset: tuple[int, ...]) -> bool:
        seen = self._seen[j]
        # a repeat cut arrives already canonical: skip the normalization
        if isinstance(subset, tuple) and subset in seen:
            return False
        subset = mnl.as_subset(subset)
        if subset in seen:
            return False
        seen.add(subset)
        self._lists[j].append(subset)
        return True

    def counts(self) -> list[int]:
        return [len(sets) for sets in self._lists]

    def total(self) -> int:
        return sum(self.counts())

    def __getitem__(self, j: int) -> list[tuple[int, ...]]:
        return list(self._lists[j])


@dataclass
class MarginalLpColumns:
    """A marginal LP instance plus the bookkeeping needed to decode a
    solution vector: columns are x (row-major) followed by one lambda column
    per (supplier, subset) in ``lam_index`` order."""

    lp: LinearProgram
    lam_index: list[tuple[int, tuple[int, ...]]]
    n: int
    m: int

    def extract(self, result: LpResult) -> LpSolution:
        if result.status != "optimal" or result.x is None:
            raise LpSolverError(f"marginal LP solve failed with status {result.status!r}")
        nm = self.n * self.m
        x = result.x[:nm].reshape(self.n, self.m).copy()
        lam: list[dict[tuple[int, ...], float]] = [{} for _ in range(self.m)]
        for col, (j, subset) in enumerate(self.lam_index):
            p = float(result.x[nm + col])
            if p > SUPPORT_EPS:
                lam[j][subset] = p
        return LpSolution(x=x, lam=lam, objective=float(result.objective))

    def dual_point(self, result: LpResult) -> DualPoint:
        """The optimal duals of the marginal LP's rows as a ``DualPoint``:
        beta from the distribution rows, gamma from the consistency rows
        (+1 on lambda, -1 on x, so a backlog column prices out at
        R_j(S) - beta_j - sum_S gamma) and alpha from the MNL rows."""
        if result.status != "optimal" or result.duals is None:
            raise LpSolverError(f"marginal LP solve failed with status {result.status!r}")
        n, m = self.n, self.m
        y = result.duals
        return DualPoint(
            alpha=y[m + n * m :].reshape(n, m),
            beta=y[:m],
            gamma=y[m : m + n * m].reshape(n, m),
        )


def _marginal_lp(inst: Instance, support: list[list[tuple[int, ...]]]) -> MarginalLpColumns:
    """Build the marginal LP restricted to the given per-supplier backlog
    support (x columns always present). Each support set must be a sorted
    tuple of distinct customers, as ``mnl.as_subset`` returns."""
    n, m = inst.n, inst.m
    nm = n * m
    lam_index = [(j, subset) for j in range(m) for subset in support[j]]
    n_lam = len(lam_index)
    k = nm + n_lam
    names = [f"x[{i},{j}]" for i in range(n) for j in range(m)]
    names += [f"lam[{j},{{{','.join(map(str, subset))}}}]" for j, subset in lam_index]

    # per lambda column its supplier; one (column, customer) entry per member
    supplier = np.array([j for j, _ in lam_index], dtype=np.intp)
    sizes = [len(subset) for _, subset in lam_index]
    entry_col = np.repeat(np.arange(n_lam), sizes)
    members = chain.from_iterable(subset for _, subset in lam_index)
    entry_customer = np.fromiter(members, dtype=np.intp, count=sum(sizes))
    member = np.zeros((n_lam, n))
    member[entry_col, entry_customer] = 1.0

    # expected revenue of each backlog, summed customer by customer in
    # ascending order as mnl.expected_revenue does (a non-member adds +0.0)
    c = np.zeros(k)
    num = np.zeros(n_lam)
    den = np.ones(n_lam)
    for i in range(n):
        num = num + member[:, i] * (inst.r[i, supplier] * inst.w[supplier, i])
        den = den + member[:, i] * inst.w[supplier, i]
    c[nm:] = num / den

    # equalities: per supplier the lambdas form a distribution; per pair the
    # lambda mass containing customer i matches x[i][j]
    pairs = np.arange(nm)
    a_eq = np.zeros((m + nm, k))
    b_eq = np.zeros(m + nm)
    a_eq[supplier, nm + np.arange(n_lam)] = 1.0
    a_eq[m + entry_customer * m + supplier[entry_col], nm + entry_col] = 1.0
    a_eq[m + pairs, pairs] = -1.0
    b_eq[:m] = 1.0

    # inequalities: the MNL marginal polytope rows, x[i][j]/u[i][j] + sum_l x[i][l] <= 1
    a_ub = np.zeros((nm, k))
    b_ub = np.ones(nm)
    a_ub[pairs[:, None], (pairs // m * m)[:, None] + np.arange(m)] = 1.0
    a_ub[pairs, pairs] += 1.0 / inst.u.reshape(-1)

    lp = LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, maximize=True, names=tuple(names))
    return MarginalLpColumns(lp=lp, lam_index=lam_index, n=n, m=m)


def lp2_exact_small(inst: Instance) -> LpSolution:
    """Solve the marginal LP exactly by instantiating every backlog variable
    (n <= 10, m <= 4)."""
    if inst.n > LP2_MAX_N or inst.m > LP2_MAX_M:
        raise SizeLimitError(
            f"exact marginal LP limited to n <= {LP2_MAX_N}, m <= {LP2_MAX_M}; got {inst.n}x{inst.m}"
        )
    all_subsets = [mnl.subset_of(mask, inst.n) for mask in range(2**inst.n)]
    columns = _marginal_lp(inst, [all_subsets] * inst.m)
    return columns.extract(solve_lp(columns.lp))


def build_aux_primal(inst: Instance, violated: ViolatedSets) -> MarginalLpColumns:
    """Marginal LP restricted to the recorded backlog sets.

    The empty set is injected into every supplier's support so the
    distribution rows stay satisfiable.
    """
    support: list[list[tuple[int, ...]]] = []
    for j in range(inst.m):
        sets: list[tuple[int, ...]] = [()]
        for subset in violated[j]:
            if subset != ():
                sets.append(subset)
        support.append(sets)
    return _marginal_lp(inst, support)


def dual_certificate(oracle: SubDualOracle, point: DualPoint) -> tuple[DualPoint, float]:
    """Lift the duals of a restricted marginal LP to a dual-feasible point
    of the full one, and return it with the gap it certifies.

    Restricting the primal to some backlog columns drops only backlog
    constraints from the dual, so ``point`` is feasible up to those. The
    exact ``oracle`` prices each supplier, ``v_j = max(0, oracle(j, gamma)
    - beta_j)``, and ``(alpha, beta + v, gamma)`` satisfies every one. Its
    objective bounds the LP optimum from above, at ``sum v`` above the
    restricted optimum.
    """
    if oracle.delta != 0.0:
        raise ValueError(f"a certificate needs the exact oracle, got delta = {oracle.delta}")
    v = np.array([max(0.0, oracle(j, point.gamma)[0] - point.beta[j]) for j in range(point.beta.size)])
    return DualPoint(alpha=point.alpha, beta=point.beta + v, gamma=point.gamma), float(v.sum())


def lp1_exact_small(inst: Instance) -> float:
    """Exact optimum of the assortment-distribution LP (n <= 4, m <= 4).

    Variables: one distribution over customer backlogs per supplier (valued
    by the optimal-revenue function) and one distribution over supplier
    assortments per customer, linked through the MNL choice probabilities.
    """
    if inst.n > LP1_MAX_N or inst.m > LP1_MAX_M:
        raise SizeLimitError(
            f"exact assortment-distribution LP limited to n <= {LP1_MAX_N}, m <= {LP1_MAX_M}; "
            f"got {inst.n}x{inst.m}"
        )
    n, m = inst.n, inst.m
    n_lam = m * 2**n
    n_tau = n * 2**m
    k = n_lam + n_tau

    def lam_col(j: int, cmask: int) -> int:
        return j * 2**n + cmask

    def tau_col(i: int, smask: int) -> int:
        return n_lam + i * 2**m + smask

    c = np.zeros(k)
    for j in range(m):
        gtab = mnl.optimal_revenue_table(inst, j)
        c[lam_col(j, 0) : lam_col(j, 2**n - 1) + 1] = gtab

    a_eq = np.zeros((m + n + n * m, k))
    b_eq = np.zeros(m + n + n * m)
    for j in range(m):
        a_eq[j, lam_col(j, 0) : lam_col(j, 2**n - 1) + 1] = 1.0
        b_eq[j] = 1.0
    for i in range(n):
        a_eq[m + i, tau_col(i, 0) : tau_col(i, 2**m - 1) + 1] = 1.0
        b_eq[m + i] = 1.0
    for i in range(n):
        for j in range(m):
            row = m + n + i * m + j
            for cmask in range(2**n):
                if cmask >> i & 1:
                    a_eq[row, lam_col(j, cmask)] = 1.0
            for smask in range(2**m):
                if smask >> j & 1:
                    members = mnl.subset_of(smask, m)
                    a_eq[row, tau_col(i, smask)] = -mnl.choice_prob(inst.u[i], members, j)

    lp = LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, maximize=True)
    result = solve_lp(lp)
    if result.status != "optimal":
        raise LpSolverError(f"assortment-distribution LP solve failed: {result.status}")
    return float(result.objective)


def check_lp_solution(inst: Instance, sol: LpSolution, tol: float = 1e-9) -> list[str]:
    """Return violated feasibility invariants of ``sol`` (empty if none)."""
    problems: list[str] = []
    for j in range(inst.m):
        total = sum(sol.lam[j].values())
        if abs(total - 1.0) > tol:
            problems.append(f"supplier {j}: distribution mass {total} != 1")
        if any(p < -tol for p in sol.lam[j].values()):
            problems.append(f"supplier {j}: negative probability")
        mass = np.zeros(inst.n)
        for subset, p in sol.lam[j].items():
            for i in subset:
                mass[i] += p
        for i in range(inst.n):
            if abs(mass[i] - sol.x[i, j]) > tol:
                problems.append(
                    f"pair ({i},{j}): marginal mass {mass[i]} != x {sol.x[i, j]}"
                )
    row_sums = sol.x.sum(axis=1)
    for i in range(inst.n):
        for j in range(inst.m):
            lhs = sol.x[i, j] / inst.u[i, j] + row_sums[i]
            if lhs > 1.0 + tol:
                problems.append(f"pair ({i},{j}): MNL row {lhs} > 1")
    if (sol.x < -tol).any():
        problems.append("negative marginal")
    return problems


@dataclass
class DualViolation:
    kind: str  # "alpha-nonnegative" | "weight-link" | "assortment-cost"
    index: tuple
    amount: float
    witness: tuple[int, ...] | None = None


@dataclass
class DualFeasibilityReport:
    violations: list[DualViolation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations


def dual_feasibility_report(
    inst: Instance, point: DualPoint, tol: float = 1e-9
) -> DualFeasibilityReport:
    """List every violated constraint of the dual at ``point``; the
    exponentially many backlog constraints are checked through exhaustive
    sub-dual maximization (n <= 20)."""
    oracle = SubDualOracle(inst)
    report = DualFeasibilityReport()
    alpha, beta, gamma = point.alpha, point.beta, point.gamma
    # row sums as the cut loop takes them (its alpha is C-ordered), whatever
    # the point's memory layout
    slack = weight_link_slack(inst, np.ascontiguousarray(alpha), gamma)
    for i in range(inst.n):
        for j in range(inst.m):
            if alpha[i, j] < -tol:
                report.violations.append(
                    DualViolation("alpha-nonnegative", (i, j), float(-alpha[i, j]))
                )
            if slack[i, j] < -tol:
                report.violations.append(DualViolation("weight-link", (i, j), float(-slack[i, j])))
    for j in range(inst.m):
        value, witness = oracle(j, gamma)
        if value > beta[j] + tol:
            report.violations.append(
                DualViolation("assortment-cost", (j,), float(value - beta[j]), witness)
            )
    return report
