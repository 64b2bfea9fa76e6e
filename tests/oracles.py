"""Independent test oracles kept outside the package on purpose."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from twosided import mnl, suites
from twosided.ellipsoid import (
    NOISE_FLOOR,
    EllipsoidBreakdown,
    EllipsoidResult,
    default_iteration_budget,
    default_radius,
)
from twosided.evaluate import CHECK_TOL, PropertyReport, SubsetDistribution, revenue_order
from twosided.instance import SUBSET_TABLE_LIMIT, Instance, generate
from twosided.lp import (
    LP1_MAX_M,
    LP1_MAX_N,
    DualFeasibilityReport,
    DualPoint,
    DualViolation,
    RestrictedMaster,
    ViolatedSets,
    lp2_exact_small,
)
from twosided.mnl import SizeLimitError, choice_prob, expected_revenue_table, mask_of, subset_masks, subset_of
from twosided.policies import (
    OUTSIDE,
    STAR_WORK_LIMIT,
    UNPROCESSED,
    PolicyOutcome,
    SupplierOutcome,
    _require_dp_size,
    best_marginal_assortment,
    exact_dp_atar,
    exact_dp_ftar,
    exact_star,
)
from twosided.simplex import FEASIBILITY_TOL, LinearProgram, LpResult, LpSolverError, _optimize, _RevisedBasis


def lp_optimum_by_vertex_enumeration(lp: LinearProgram, tol: float = 1e-9) -> float | None:
    """Maximum objective over all basic feasible solutions of ``lp``.

    Converts to standard form (slacks for inequality rows), enumerates every
    square basis, solves it, and keeps feasible vertices. Exponential; only
    for tiny LPs. Returns None when no feasible vertex exists.
    """
    k = lp.num_vars
    mu = lp.a_ub.shape[0]
    me = lp.a_eq.shape[0]
    m = me + mu
    a = np.zeros((m, k + mu))
    b = np.zeros(m)
    a[:me, :k] = lp.a_eq
    b[:me] = lp.b_eq
    a[me:, :k] = lp.a_ub
    a[me:, k:] = np.eye(mu)
    b[me:] = lp.b_ub
    cost = np.concatenate([lp.c, np.zeros(mu)])
    sign = 1.0 if lp.maximize else -1.0

    best = None
    n_total = k + mu
    for basis in combinations(range(n_total), m):
        mat = a[:, basis]
        try:
            x_b = np.linalg.solve(mat, b)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x_b).all() or (x_b < -tol).any():
            continue
        x = np.zeros(n_total)
        x[list(basis)] = x_b
        if np.abs(a @ x - b).max() > 1e-7:
            continue
        value = sign * float(cost @ x)
        if best is None or value > best:
            best = value
    return None if best is None else sign * best


def exact_g(w: list[Fraction], r: list[Fraction], members: tuple[int, ...]) -> Fraction:
    """Optimal expected revenue in exact rational arithmetic by exhaustive
    subset enumeration (independent of the prefix-search production path)."""
    best = Fraction(0)
    members = tuple(members)
    for mask in range(2 ** len(members)):
        num = Fraction(0)
        den = Fraction(1)
        for pos, i in enumerate(members):
            if mask >> pos & 1:
                num += r[i] * w[i]
                den += w[i]
        best = max(best, num / den)
    return best


# ---------------------------------------------------------------------------
# Reference solver loops. These are the straightforward forms of the
# package's cut loop, sub-dual oracle and simplex, kept verbatim so that
# the optimized package code can be required to reproduce their results
# (tests/test_equivalence.py).


def reference_sub_dual_exact(inst: Instance, j: int, gamma) -> tuple[float, tuple[int, ...]]:
    """Exhaustive maximum of rev_cost over all customer subsets (n <= 20).

    The value is always >= 0 since the empty set scores 0. Ties are broken
    toward smaller sets, then lexicographically.
    """
    if inst.n > SUBSET_TABLE_LIMIT:
        raise SizeLimitError(f"exact sub-dual limited to {SUBSET_TABLE_LIMIT} customers, got {inst.n}")
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


def reference_size_then_lex_rank(n: int) -> np.ndarray:
    """The sub-dual oracle's size-then-lex rank of every bitmask in its loop
    form (verbatim): size first, then, within a size, lex order of the sorted
    index tuples, which is descending order of the bit-reversed mask
    (customer 0 as the top bit)."""
    codes = np.arange(2**n, dtype=np.int64)
    size = np.zeros_like(codes)
    reversed_mask = np.zeros_like(codes)
    for i in range(n):
        bit = (codes >> i) & 1
        size += bit
        reversed_mask |= bit << (n - 1 - i)
    return (size << n) + (2**n - 1 - reversed_mask)


def reference_dual_feasibility_report(inst, point, tol=1e-9):
    """``dual_feasibility_report`` with the backlog family checked by
    ``reference_sub_dual_exact``."""
    report = DualFeasibilityReport()
    alpha, beta, gamma = point.alpha, point.beta, point.gamma
    for i in range(inst.n):
        row_sum = float(alpha[i].sum())
        for j in range(inst.m):
            if alpha[i, j] < -tol:
                report.violations.append(
                    DualViolation("alpha-nonnegative", (i, j), float(-alpha[i, j]))
                )
            slack = alpha[i, j] / inst.u[i, j] + row_sum - gamma[i, j]
            if slack < -tol:
                report.violations.append(DualViolation("weight-link", (i, j), float(-slack)))
    for j in range(inst.m):
        value, witness = reference_sub_dual_exact(inst, j, gamma)
        if value > beta[j] + tol:
            report.violations.append(
                DualViolation("assortment-cost", (j,), float(value - beta[j]), witness)
            )
    return report


class ReferenceOracle:
    """Sub-dual oracle in its plain form, with one branch per kind: the
    exhaustive maximum with the size-then-lex tie-break at delta = 0, and a
    walk of the eager size-then-lex scan order for delta > 0."""

    def __init__(self, inst, delta=0.0):
        self.kind = "relaxed" if delta > 0 else "exact"
        self.delta = delta
        self.inst = inst
        self._masks = subset_masks(inst.n)
        self._rtab = np.stack([expected_revenue_table(inst, j) for j in range(inst.m)])
        self._scan = sorted(range(2**inst.n), key=lambda c: (c.bit_count(), subset_of(c, inst.n)))

    def _pick(self, values):
        vmax = float(values.max())
        candidates = np.flatnonzero(values == vmax)
        best = min(
            (int(c) for c in candidates),
            key=lambda c: (c.bit_count(), subset_of(c, self.inst.n)),
        )
        return vmax, subset_of(best, self.inst.n)

    def __call__(self, j, gamma):
        gamma = np.asarray(gamma, dtype=float)
        values = self._rtab[j] - self._masks @ gamma[:, j]
        if self.kind == "exact":
            val, subset = self._pick(values)
            return val, subset, 0.0
        vmax = float(values.max())
        target = (1.0 - self.delta) * vmax
        for c in self._scan:
            if values[c] >= target:
                return float(values[c]), subset_of(c, self.inst.n), self.delta
        raise RuntimeError("unreachable: the maximizer always meets the target")


@dataclass
class AcCut:
    """One assortment-cost cut of a reference run: its step, supplier, set,
    oracle value and beta[j], and with ``log_cuts`` the costs gamma."""

    t: int
    j: int
    subset: tuple[int, ...]
    value: float
    beta: float
    gamma: np.ndarray | None = None


@dataclass
class ReferenceEllipsoidResult(EllipsoidResult):
    ac_cuts: list[AcCut] | None = None


def reference_run_ellipsoid(
    inst, t_max=None, *, delta=0.0, trace=False, log_cuts=False, debug=False,
):
    """The central-cut loop with a fresh cut vector, a trace(D) call, an
    out-of-place rank-1 update and a symmetrize step on every cut."""
    if float(inst.r.max()) > 1.0 + 1e-12:
        raise ValueError("revenues must be normalized (max pair revenue <= 1) before running")
    n, m = inst.n, inst.m
    nm = n * m
    n_dim = 2 * nm + m
    if t_max is None:
        t_max = default_iteration_budget(inst)
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")

    oracle = ReferenceOracle(inst, delta)
    radius = default_radius(inst)
    s = np.zeros(n_dim)
    shape = np.eye(n_dim) * radius**2

    alpha = s[:nm].reshape(n, m)
    gamma = s[nm + m :].reshape(n, m)
    beta = s[nm : nm + m]
    inv_u = 1.0 / inst.u

    best = DualPoint(alpha=np.zeros((n, m)), beta=np.ones(m), gamma=np.zeros((n, m)))
    obj = float(m)
    violated = ViolatedSets(m)
    cut_counts = {"objective": 0, "weight-link": 0, "alpha-nonnegative": 0, "assortment-cost": 0}
    incumbent_history = []
    incumbents = []
    ac_cuts = []
    trace_rows = [] if trace else None

    growth = n_dim * n_dim / (n_dim * n_dim - 1.0)
    step_frac = 1.0 / (n_dim + 1.0)
    t = 0
    degenerate_stop = False
    incumbent_flag = False

    while t < t_max:
        kind, index, a = _reference_find_cut(
            inst, oracle, s, alpha, beta, gamma, inv_u, obj, violated, ac_cuts, t, log_cuts
        )
        if kind is None:
            best = DualPoint(alpha=alpha.copy(), beta=beta.copy(), gamma=gamma.copy())
            obj = float(s[: nm + m].sum())
            incumbent_history.append((t, obj))
            incumbents.append(best)
            incumbent_flag = True
            continue

        cut_counts[kind] += 1
        da = shape @ a
        ada = float(a @ da)
        noise = NOISE_FLOOR * float(a @ a) * abs(float(np.trace(shape)))
        if ada <= noise:
            trace_d = float(np.trace(shape))
            if trace_d > 0.0 and ada > -noise:
                degenerate_stop = True
                break
            raise EllipsoidBreakdown(
                f"a'Da = {ada:.3e} <= 0 at t={t} on {kind} cut {index}; "
                f"trace(D) = {trace_d:.3e}"
            )
        s += da * (step_frac / math.sqrt(ada))
        shape -= (2.0 * step_frac / ada) * np.outer(da, da)
        shape *= growth
        shape = (shape + shape.T) * 0.5
        if debug:
            try:
                np.linalg.cholesky(shape)
            except np.linalg.LinAlgError as exc:
                raise EllipsoidBreakdown(
                    f"shape matrix not positive definite after cut {t} "
                    f"({kind} {index}): {exc}"
                ) from exc
        t += 1
        if trace_rows is not None:
            trace_rows.append(
                {"t": t, "cut": kind, "index": index, "obj": obj, "incumbent_updated": incumbent_flag}
            )
        incumbent_flag = False

    return ReferenceEllipsoidResult(
        violated=violated,
        best=best,
        objective=obj,
        iterations=t,
        t_max=t_max,
        cut_counts=cut_counts,
        incumbent_history=incumbent_history,
        incumbents=incumbents,
        ac_cuts=ac_cuts,
        stop_reason="float64_floor" if degenerate_stop else "t_max",
        trace=trace_rows,
    )


def _reference_find_cut(inst, oracle, s, alpha, beta, gamma, inv_u, obj, violated, ac_cuts, t, log_cuts):
    n, m = inst.n, inst.m
    nm = n * m
    n_dim = s.size

    if float(s[: nm + m].sum()) >= obj:
        a = np.zeros(n_dim)
        a[: nm + m] = -1.0
        return "objective", None, a

    link = alpha / inst.u + alpha.sum(axis=1, keepdims=True) - gamma
    flat = (link < 0.0).ravel()
    if flat.any():
        pos = int(np.argmax(flat))
        i, j = divmod(pos, m)
        a = np.zeros(n_dim)
        a[i * m : (i + 1) * m] = 1.0
        a[i * m + j] += inv_u[i, j]
        a[nm + m + i * m + j] = -1.0
        return "weight-link", (i, j), a

    flat = (alpha < 0.0).ravel()
    if flat.any():
        pos = int(np.argmax(flat))
        i, j = divmod(pos, m)
        a = np.zeros(n_dim)
        a[i * m + j] = 1.0
        return "alpha-nonnegative", (i, j), a

    for j in range(m):
        value, subset, _ = oracle(j, gamma)
        if value > beta[j]:
            violated.add(j, mask_of(subset, n))
            ac_cuts.append(
                AcCut(
                    t=t,
                    j=j,
                    subset=subset,
                    value=value,
                    beta=float(beta[j]),
                    gamma=gamma.copy() if log_cuts else None,
                )
            )
            a = np.zeros(n_dim)
            a[nm + j] = 1.0
            for i in subset:
                a[nm + m + i * m + j] = 1.0
            return "assortment-cost", (j, subset), a

    return None, None, None


def reference_solve_lp(lp: LinearProgram, tol: float = FEASIBILITY_TOL, max_iters: int | None = None) -> LpResult:
    """The dense two-phase Bland tableau simplex that
    ``twosided.simplex.solve_lp`` replaced (kept verbatim with its helpers):
    the reference for the revised method's status, objective and unique
    optima."""
    k = lp.num_vars
    mu = lp.a_ub.shape[0]
    me = lp.a_eq.shape[0]
    m = me + mu

    # standard form: equality rows first, then inequality rows with slacks
    a = np.zeros((m, k + mu))
    b = np.zeros(m)
    a[:me, :k] = lp.a_eq
    b[:me] = lp.b_eq
    a[me:, :k] = lp.a_ub
    a[me:, k:] = np.eye(mu)
    b[me:] = lp.b_ub
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    n_struct = k + mu
    if max_iters is None:
        max_iters = 2000 + 200 * (m + n_struct)

    # phase 1: artificial variables on every row, minimize their sum
    tableau = np.zeros((m + 1, n_struct + m + 1))
    tableau[:m, :n_struct] = a
    tableau[:m, n_struct:-1] = np.eye(m)
    tableau[:m, -1] = b
    basis = list(range(n_struct, n_struct + m))
    tableau[m, :n_struct] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()

    it1 = _pivot_loop(tableau, basis, n_cols=n_struct + m, tol=tol, max_iters=max_iters)
    if it1 < 0:
        raise LpSolverError("phase-1 objective reported unbounded; tableau corrupt")
    scale = max(1.0, float(abs(b).max()) if b.size else 1.0)
    if tableau[m, -1] < -tol * scale:
        return LpResult(status="infeasible", x=None, objective=None, iterations=it1)

    rows, rhs, basis = _drive_out_artificials(tableau, basis, n_struct, tol)
    m2 = len(basis)

    # phase 2: original objective (in min form) over structural columns
    cost = np.concatenate([(-lp.c) if lp.maximize else lp.c, np.zeros(mu)])
    t2 = np.zeros((m2 + 1, n_struct + 1))
    t2[:m2, :n_struct] = rows
    t2[:m2, -1] = rhs
    t2[m2, :n_struct] = cost
    for row, var in enumerate(basis):
        if t2[m2, var] != 0.0:
            t2[m2, :] -= t2[m2, var] * t2[row, :]

    it2 = _pivot_loop(t2, basis, n_cols=n_struct, tol=tol, max_iters=max_iters)
    if it2 < 0:
        return LpResult(status="unbounded", x=None, objective=None, iterations=it1 + (-it2 - 1))

    x_full = np.zeros(n_struct)
    for row, var in enumerate(basis):
        x_full[var] = t2[row, -1]
    x = x_full[:k]
    return LpResult(
        status="optimal",
        x=x,
        objective=float(lp.c @ x),
        iterations=it1 + it2,
        basis=tuple(basis),
    )


def _pivot_loop(tableau: np.ndarray, basis: list[int], n_cols: int, tol: float, max_iters: int) -> int:
    """Bland pivoting on a min-form tableau (objective in the last row).

    Returns the pivot count, or -(pivots + 1) when the LP is unbounded.
    """
    m = tableau.shape[0] - 1
    for it in range(max_iters):
        # Bland: the first column whose reduced cost is below -tol
        below = tableau[m, :n_cols] < -tol
        enter = int(below.argmax())
        if not below[enter]:
            return it
        col = tableau[:m, enter]
        eligible = np.flatnonzero(col > tol)
        if eligible.size == 0:
            return -(it + 1)
        ratios = tableau[eligible, -1] / col[eligible]
        rmin = float(ratios.min())
        ties = eligible[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
        leave = int(min(ties, key=lambda rr: basis[rr]))
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    raise LpSolverError(
        f"simplex exceeded {max_iters} pivots (rows={m}, cols={n_cols}); "
        "tableau is numerically suspect"
    )


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    piv = tableau[row, col]
    if abs(piv) < 1e-12:
        raise LpSolverError(f"degenerate pivot element {piv:.3e} at row {row}, column {col}")
    tableau[row, :] /= piv
    for rr in range(tableau.shape[0]):
        if rr != row and tableau[rr, col] != 0.0:
            tableau[rr, :] -= tableau[rr, col] * tableau[row, :]


def _drive_out_artificials(
    tableau: np.ndarray, basis: list[int], n_struct: int, tol: float
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Pivot leftover artificial variables out of the basis.

    Rows whose structural coefficients all vanished are redundant
    constraints and are dropped. Returns the surviving structural rows,
    right-hand sides and basis.
    """
    keep: list[int] = []
    for row in range(len(basis)):
        if basis[row] < n_struct:
            keep.append(row)
            continue
        pivot_col = next((j for j in range(n_struct) if abs(tableau[row, j]) > tol), -1)
        if pivot_col < 0:
            continue
        _pivot(tableau, row, pivot_col)
        basis[row] = pivot_col
        keep.append(row)
    rows = tableau[keep][:, :n_struct].copy()
    rhs = tableau[keep][:, -1].copy()
    return rows, rhs, [basis[r] for r in keep]


def full_master(inst: Instance) -> RestrictedMaster:
    """The restricted master over every backlog set, as ``lp2_exact_small``
    seeds it (every key ``j << n | mask`` in ascending order): its ``lp`` is
    the full marginal LP the package builds, for the tests that solve that
    LP another way."""
    return RestrictedMaster(inst, np.arange(inst.m << inst.n))


def reference_marginal_lp(
    inst: Instance, support: list[list[tuple[int, ...]]]
) -> tuple[LinearProgram, list[tuple[int, tuple[int, ...]]]]:
    """The per-column loop form of the marginal LP over ``support``
    (verbatim), and its lambda columns as (supplier, set) pairs;
    ``RestrictedMaster.lp`` must match it byte for byte."""
    n, m = inst.n, inst.m
    nm = n * m
    lam_index = [(j, subset) for j in range(m) for subset in support[j]]
    k = nm + len(lam_index)

    c = np.zeros(k)
    names = [f"x[{i},{j}]" for i in range(n) for j in range(m)]
    for col, (j, subset) in enumerate(lam_index):
        c[nm + col] = mnl.expected_revenue(inst, j, subset)
        names.append(f"lam[{j},{{{','.join(map(str, subset))}}}]")

    # equalities: per supplier the lambdas form a distribution; per pair the
    # lambda mass containing customer i matches x[i][j]
    a_eq = np.zeros((m + nm, k))
    b_eq = np.zeros(m + nm)
    for col, (j, subset) in enumerate(lam_index):
        a_eq[j, nm + col] = 1.0
        for i in subset:
            a_eq[m + i * m + j, nm + col] = 1.0
    b_eq[:m] = 1.0
    for i in range(n):
        for j in range(m):
            a_eq[m + i * m + j, i * m + j] -= 1.0

    # inequalities: the MNL marginal polytope rows
    a_ub = np.zeros((nm, k))
    b_ub = np.ones(nm)
    for i in range(n):
        for j in range(m):
            row = i * m + j
            a_ub[row, i * m : (i + 1) * m] += 1.0
            a_ub[row, i * m + j] += 1.0 / inst.u[i, j]

    lp = LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, maximize=True, names=tuple(names))
    return lp, lam_index


def reference_assortment_distribution_lp(inst: Instance) -> LinearProgram:
    """The per-entry loop form of the LP ``lp1_exact_small`` solves: lambda
    (j, backlog mask) at column j 2^n + mask, tau (i, offer mask) after
    them at i 2^m + mask, and each linking entry from ``choice_prob``."""
    n, m = inst.n, inst.m
    n_lam = m * 2**n
    k = n_lam + n * 2**m

    def lam_col(j: int, cmask: int) -> int:
        return j * 2**n + cmask

    def tau_col(i: int, smask: int) -> int:
        return n_lam + i * 2**m + smask

    c = np.zeros(k)
    for j in range(m):
        c[lam_col(j, 0) : lam_col(j, 2**n - 1) + 1] = mnl.optimal_revenue_table(inst, j)

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
                    a_eq[row, tau_col(i, smask)] = -choice_prob(inst.u[i], subset_of(smask, m), j)
    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, maximize=True)


def reference_pivot_loop(tableau, basis, n_cols, tol, max_iters):
    """Bland pivoting with the entering column found by a Python scan."""
    m = tableau.shape[0] - 1
    for it in range(max_iters):
        reduced = tableau[m, :n_cols]
        enter = -1
        for j in range(n_cols):
            if reduced[j] < -tol:
                enter = j
                break
        if enter < 0:
            return it
        col = tableau[:m, enter]
        eligible = np.flatnonzero(col > tol)
        if eligible.size == 0:
            return -(it + 1)
        ratios = tableau[eligible, -1] / col[eligible]
        rmin = float(ratios.min())
        ties = eligible[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
        leave = int(min(ties, key=lambda rr: basis[rr]))
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    raise LpSolverError(
        f"simplex exceeded {max_iters} pivots (rows={m}, cols={n_cols}); "
        "tableau is numerically suspect"
    )


def _with(status: tuple[int, ...], i: int, value: int) -> tuple[int, ...]:
    out = list(status)
    out[i] = value
    return tuple(out)


# ---------------------------------------------------------------------------
# Reference policy oracles: the brute-force forms of the adaptive and
# fixed-order dynamic programs (every one of the 2^m offers at every state),
# the static optimum by walking every joint choice outcome of every profile,
# the product-Bernoulli subset loop, and the numpy prefix scan. Kept verbatim
# (the adaptive DP also returns its memo of state values) so that
# tests/test_equivalence.py can hold the shared package code to them.


def reference_dp_atar(inst: Instance):
    _require_dp_size(inst)
    n, m = inst.n, inst.m
    assortments = [mnl.subset_of(mask, m) for mask in range(2**m)]
    gtabs = [mnl.optimal_revenue_table(inst, j) for j in range(m)]
    memo: dict[tuple[int, ...], float] = {}
    policy: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}

    def boundary(status: tuple[int, ...]) -> float:
        total = 0.0
        for j in range(m):
            mask = 0
            for i, st in enumerate(status):
                if st == j:
                    mask |= 1 << i
            total += gtabs[j][mask]
        return total

    def value(status: tuple[int, ...]) -> float:
        cached = memo.get(status)
        if cached is not None:
            return cached
        unprocessed = [i for i, st in enumerate(status) if st == UNPROCESSED]
        if not unprocessed:
            v = boundary(status)
            memo[status] = v
            return v
        best = -np.inf
        best_action = None
        for i in unprocessed:
            u_i = inst.u[i]
            succ_out = value(_with(status, i, OUTSIDE))
            succ = [value(_with(status, i, j)) for j in range(m)]
            for offer in assortments:
                den = 1.0
                num = succ_out
                for j in offer:
                    den += u_i[j]
                    num += u_i[j] * succ[j]
                v = num / den
                if v > best:
                    best = v
                    best_action = (i, offer)
        memo[status] = best
        policy[status] = best_action
        return best

    opt = value((UNPROCESSED,) * n)
    return opt, policy, memo


def reference_dp_ftar(inst: Instance, order) -> float:
    _require_dp_size(inst)
    n, m = inst.n, inst.m
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of range({n})")
    assortments = [mnl.subset_of(mask, m) for mask in range(2**m)]
    gtabs = [mnl.optimal_revenue_table(inst, j) for j in range(m)]
    memo: dict[tuple[int, ...], float] = {}

    def value(status: tuple[int, ...], t: int) -> float:
        cached = memo.get(status)
        if cached is not None:
            return cached
        if t == n:
            total = 0.0
            for j in range(m):
                mask = 0
                for i, st in enumerate(status):
                    if st == j:
                        mask |= 1 << i
                total += gtabs[j][mask]
            memo[status] = total
            return total
        i = order[t]
        u_i = inst.u[i]
        succ_out = value(_with(status, i, OUTSIDE), t + 1)
        succ = [value(_with(status, i, j), t + 1) for j in range(m)]
        best = -np.inf
        for offer in assortments:
            den = 1.0
            num = succ_out
            for j in offer:
                den += u_i[j]
                num += u_i[j] * succ[j]
            best = max(best, num / den)
        memo[status] = best
        return best

    return value((UNPROCESSED,) * n, 0)


def reference_star(inst: Instance) -> float:
    n, m = inst.n, inst.m
    work = (2**m) ** n * (m + 1) ** n
    if work > STAR_WORK_LIMIT:
        raise SizeLimitError(
            f"static exhaustive search needs ~{work} outcome evaluations for "
            f"{n}x{m}; limit is {STAR_WORK_LIMIT}"
        )
    assortments = [mnl.subset_of(mask, m) for mask in range(2**m)]
    gtabs = [mnl.optimal_revenue_table(inst, j) for j in range(m)]
    masks = [0] * m
    best = -np.inf

    for profile in product(assortments, repeat=n):
        total = 0.0

        def walk(i: int, prob: float) -> None:
            nonlocal total
            if i == n:
                total += prob * sum(gtabs[j][masks[j]] for j in range(m))
                return
            offer = profile[i]
            u_i = inst.u[i]
            den = 1.0 + sum(u_i[j] for j in offer)
            walk(i + 1, prob / den)
            bit = 1 << i
            for j in offer:
                masks[j] |= bit
                walk(i + 1, prob * u_i[j] / den)
                masks[j] &= ~bit

        walk(0, 1.0)
        best = max(best, total)
    return float(best)


def reference_subset_probs(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = q.size
    probs = np.ones(1)
    for i in range(n):
        probs = np.concatenate([probs * (1.0 - q[i]), probs * q[i]])
    return probs


def reference_best_marginal_assortment(rho, u_row) -> tuple[tuple[int, ...], float]:
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u_row, dtype=float)
    order = sorted(range(rho.size), key=lambda j: (-rho[j], j))
    best_val = 0.0
    best_len = 0
    num = 0.0
    den = 1.0
    for t, j in enumerate(order, start=1):
        num += rho[j] * u[j]
        den += u[j]
        val = num / den
        if val > best_val:
            best_val = val
            best_len = t
    return tuple(sorted(order[:best_len])), float(best_val)


# ---------------------------------------------------------------------------
# The memoized recursion that the layered array DP replaced, and the
# per-draw samplers that the cached choice tables replaced. Kept verbatim,
# except that methods became functions of the policy or distribution and
# the greedy's cached revenue lookups call mnl.optimal_revenue directly, so
# that tests/test_equivalence.py can require == results from the package
# code.


def reference_prefix_dp(inst: Instance, order: tuple[int, ...] | None):
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


def reference_layer_order(policy: dict) -> dict:
    """A DP policy dict in the order the layered DP's table iterates: layer
    by layer, fewest unprocessed customers first, and by status code within
    a layer. Digit i of the code is customer i's status plus 2, so code
    order is the order of the reversed status tuples."""

    def key(status):
        return status.count(UNPROCESSED), status[::-1]

    return {status: policy[status] for status in sorted(policy, key=key)}


def reference_monte_carlo(sampler, trials: int, master_seed: int) -> tuple[float, float]:
    """The per-trial Monte Carlo loop that the batched run loop replaced:
    ``sampler`` runs once per trial, every trial on one
    ``default_rng(master_seed)``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(master_seed)
    values = np.empty(trials)
    for k in range(trials):
        values[k] = sampler(rng).expected_revenue
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def reference_distribution_sample(dist, rng: np.random.Generator) -> tuple[int, ...]:
    idx = rng.choice(len(dist.support), p=dist.probabilities)
    return dist.support[idx][0]


def reference_sample_choice(u_row, subset: tuple[int, ...], rng: np.random.Generator) -> int | None:
    options: list[int | None] = list(subset) + [None]
    weights = np.array([choice_prob(u_row, subset, k) for k in options])
    idx = rng.choice(len(options), p=weights / weights.sum())
    return options[idx]


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


def reference_finalize_suppliers(inst: Instance, assignment: BacklogAssignment, trace=None) -> PolicyOutcome:
    per: list[SupplierOutcome] = []
    total = 0.0
    for j, backlog in enumerate(assignment.backlogs()):
        value, offered = mnl.optimal_revenue(inst, j, backlog)
        per.append(SupplierOutcome(backlog=backlog, offered=offered, value=value))
        total += value
    return PolicyOutcome(expected_revenue=total, per_supplier=per, trace=trace)


def reference_static_sample(policy, seed) -> PolicyOutcome:
    rng = np.random.default_rng(seed)
    picks: list[int | None] = []
    trace: list[dict] = []
    for i in range(policy.inst.n):
        offered = reference_distribution_sample(policy.distributions[i], rng)
        pick = reference_sample_choice(policy.inst.u[i], offered, rng)
        picks.append(pick)
        trace.append({"customer": i, "offered": list(offered), "choice": pick})
    assignment = BacklogAssignment(m=policy.inst.m, choice=tuple(picks))
    return reference_finalize_suppliers(policy.inst, assignment, trace=trace)


def _reference_greedy_offer(policy, i: int, backlogs: list[tuple[int, ...]]):
    marginals = []
    for j in range(policy.inst.m):
        grown = tuple(sorted(backlogs[j] + (i,)))
        with_i, _ = mnl.optimal_revenue(policy.inst, j, grown)
        without, _ = mnl.optimal_revenue(policy.inst, j, backlogs[j])
        marginals.append(with_i - without)
    return best_marginal_assortment(marginals, policy.inst.u[i])


def reference_greedy_sample(policy, seed) -> PolicyOutcome:
    rng = np.random.default_rng(seed)
    backlogs: list[tuple[int, ...]] = [() for _ in range(policy.inst.m)]
    picks: dict[int, int | None] = {}
    trace: list[dict] = []
    for i in policy.order:
        offered, _ = _reference_greedy_offer(policy, i, backlogs)
        pick = reference_sample_choice(policy.inst.u[i], offered, rng)
        picks[i] = pick
        trace.append({"customer": i, "offered": list(offered), "choice": pick})
        if pick is not None:
            backlogs[pick] = tuple(sorted(backlogs[pick] + (i,)))
    choice = tuple(picks[i] for i in range(policy.inst.n))
    assignment = BacklogAssignment(m=policy.inst.m, choice=choice)
    return reference_finalize_suppliers(policy.inst, assignment, trace=trace)


# ---------------------------------------------------------------------------
# The revenue-ordered prefix scan and the max-over-subsets sweep as they were
# written before the prefix rule and the table sweep were shared, kept
# verbatim so the shared forms can be held to them with ==.


def reference_optimal_revenue(inst: Instance, j: int, customers) -> tuple[float, tuple[int, ...]]:
    """Best expected revenue over all subsets of ``customers`` for supplier j.

    The optimum under MNL is a prefix of the candidates sorted by descending
    revenue (ties by ascending index), so only |C|+1 prefixes are scanned.
    Returns (value, maximizing subset); the empty set gives 0.
    """
    members = sorted(mnl.as_subset(customers), key=lambda i: (-inst.r[i, j], i))
    best_val = 0.0
    best_len = 0
    num = 0.0
    den = 1.0
    for t, i in enumerate(members, start=1):
        num += float(inst.r[i, j] * inst.w[j, i])
        den += float(inst.w[j, i])
        val = num / den
        if val > best_val:
            best_val = val
            best_len = t
    return best_val, tuple(sorted(members[:best_len]))


def reference_optimal_revenue_table(inst: Instance, j: int) -> np.ndarray:
    """Optimal revenue of every customer subset, indexed by bitmask.

    Computed by a max-over-subsets sweep of the expected-revenue table, so
    this table does not rely on the revenue-ordered prefix structure.
    """
    g = expected_revenue_table(inst, j).copy()
    idx = np.arange(g.size)
    for b in range(inst.n):
        bit = 1 << b
        has = (idx & bit) != 0
        g[has] = np.maximum(g[has], g[idx[has] ^ bit])
    return g


# ---------------------------------------------------------------------------
# The cost shares and their check as they were written before the check read
# one optimal-revenue table by bitmask: each share is two prefix-rule scans
# over sorted tuples. Kept verbatim (only the names changed) so the table
# form can be held to them. The squared-size stand-ins make g(S) = |S|^2, a
# supermodular function whose shares are not cross-monotone.


def squared_size_revenue(inst: Instance, j: int, customers) -> tuple[float, tuple[int, ...]]:
    members = mnl.as_subset(customers)
    return float(len(members) ** 2), members


def squared_size_table(inst: Instance, j: int) -> np.ndarray:
    return np.array([float(bin(mask).count("1") ** 2) for mask in range(2**inst.n)])


def reference_cost_share(inst: Instance, j: int, i: int, subset) -> float:
    """Share of the optimal revenue of ``subset`` allocated to customer i:
    the marginal of i over the members ranking strictly above it in the
    descending revenue order (0 when i is not a member)."""
    members = mnl.as_subset(subset)
    if i not in members:
        return 0.0
    pos = {c: t for t, c in enumerate(revenue_order(inst, j))}
    above = tuple(c for c in members if pos[c] < pos[i])
    at_or_above = tuple(sorted(above + (i,)))
    g_hi, _ = mnl.optimal_revenue(inst, j, at_or_above)
    g_lo, _ = mnl.optimal_revenue(inst, j, above)
    return g_hi - g_lo


def reference_cost_sharing_check(inst: Instance, j: int, trials: int, seed: int) -> PropertyReport:
    """Random (A subset of B, i) triples: the shares must be cross-monotone
    and must telescope exactly to the optimal revenue (budget balance with
    factor 1)."""
    rng = np.random.default_rng(seed)
    report = PropertyReport(name="cost-sharing")
    n = inst.n
    for _ in range(trials):
        report.cases += 1
        b_mask = int(rng.integers(0, 2**n))
        a_mask = b_mask & int(rng.integers(0, 2**n))
        i = int(rng.integers(0, n))
        set_a = mnl.subset_of(a_mask, n)
        set_b = mnl.subset_of(b_mask, n)
        with_a = tuple(sorted(set(set_a) | {i}))
        with_b = tuple(sorted(set(set_b) | {i}))
        chi_a = reference_cost_share(inst, j, i, with_a)
        chi_b = reference_cost_share(inst, j, i, with_b)
        if chi_a < chi_b - CHECK_TOL:
            report.record(kind="cross-monotonicity", A=set_a, B=set_b, i=i, chi_A=chi_a, chi_B=chi_b)
        total = sum(reference_cost_share(inst, j, i2, set_a) for i2 in range(n))
        g_a, _ = mnl.optimal_revenue(inst, j, set_a)
        if abs(total - g_a) > CHECK_TOL:
            report.record(kind="budget-balance", A=set_a, shares=total, g=g_a)
    return report


# ---------------------------------------------------------------------------
# The correlation-gap suite as it was written before it checked its draws in
# one array pass per size: one correlation_gap_check call per draw. Kept
# verbatim but for the names, the bounds read from the suites module (so a
# test can patch them in both forms) and the check's two helpers: the table
# is the reference sweep and the product probabilities the concatenation
# loop above.


def reference_correlation_gap_check(inst: Instance, j: int, dist) -> float | None:
    gtab = reference_optimal_revenue_table(inst, j)
    numerator = float(sum(p * gtab[mask] for mask, p in dist.support))
    denominator = float(gtab @ reference_subset_probs(dist.marginals(inst.n)))
    if denominator <= 0.0:
        return math.inf if numerator > 0.0 else None
    return numerator / denominator


def reference_suite_gap(seed: int) -> list[PropertyReport]:
    report = PropertyReport(name="correlation-gap")
    exact = PropertyReport(name="correlation-gap-exactness")
    half = suites.GAP_DRAWS // 2
    specs = [
        ("uniform-random", suites.GAP_GENERAL_BOUND, half),
        ("supplier-uniform", suites.GAP_UNIFORM_BOUND, suites.GAP_DRAWS - half),
    ]
    case = 0
    max_seen = {"uniform-random": 0.0, "supplier-uniform": 0.0}
    for kind, bound, count in specs:
        for k in range(count):
            case += 1
            rng = np.random.default_rng(suites._sub_seed(seed, case))
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, 4))
            inst = generate(kind, n, m, suites._sub_seed(seed, case) + 7)
            j = int(rng.integers(0, m))
            dist = SubsetDistribution.random_correlated(n, rng)
            report.cases += 1
            ratio = reference_correlation_gap_check(inst, j, dist)
            if ratio is None:
                # 0/0: the draw put all its mass on the empty set, so both
                # expectations vanish; counted but consistent with the bound.
                # A positive numerator over 0 reads inf and breaks the bound
                report.notes["undefined-draws"] = report.notes.get("undefined-draws", 0) + 1
                continue
            max_seen[kind] = max(max_seen[kind], ratio)
            if ratio > bound + suites.TOL:
                report.record(kind=f"gap-bound-{kind}", ratio=ratio, bound=bound)
    report.notes["max-ratio"] = max_seen

    for k in range(50):
        rng = np.random.default_rng(suites._sub_seed(seed, 10_000 + k))
        n = int(rng.integers(2, 7))
        inst = generate("uniform-random", n, 2, suites._sub_seed(seed, 20_000 + k))
        subset = mnl.subset_of(int(rng.integers(0, 2**n)), n)
        exact.cases += 1
        ratio = reference_correlation_gap_check(inst, 0, SubsetDistribution.point_mass(subset))
        if ratio is not None and abs(ratio - 1.0) > 1e-12:
            exact.record(kind="point-mass", ratio=ratio)
        marginals = rng.uniform(0.0, 1.0, size=n)
        exact.cases += 1
        ratio = reference_correlation_gap_check(inst, 0, SubsetDistribution.product(marginals))
        if ratio is None or abs(ratio - 1.0) > 1e-12:
            exact.record(kind="product", ratio=ratio)
    return [report, exact]


def reference_lp1_exact_small(inst: Instance) -> float:
    """The one-instance assortment-distribution LP solve that the lockstep
    batch replaced, kept verbatim but for the module prefixes: the bit
    reference of ``lp.lp1_exact_values``.

    Variables: one distribution over customer backlogs per supplier (valued
    by the optimal-revenue function) and one distribution over supplier
    assortments per customer, linked through the MNL choice probabilities.

    Solved without phase 1 from the feasible basis lambda_{j,{}} on supplier
    row j, tau_{i,{}} on customer row i and lambda_{j,{i}} on link row (i,
    j): its matrix [[I, 0, E], [0, I, 0], [0, 0, I]] (E: lambda_{j,{i}} on
    row j) has for inverse the same with -E, and its values are b = (1, 1, 0).
    """
    if inst.n > LP1_MAX_N or inst.m > LP1_MAX_M:
        raise SizeLimitError(
            f"exact assortment-distribution LP limited to n <= {LP1_MAX_N}, m <= {LP1_MAX_M}; "
            f"got {inst.n}x{inst.m}"
        )
    n, m = inst.n, inst.m
    n_sets, n_offers = 2**n, 2**m
    # columns: lambda[j, backlog mask] at j 2^n + mask, then tau[i, offer mask]
    lam, tau = np.arange(m * n_sets), np.arange(n * n_offers)
    c = np.zeros(lam.size + tau.size)
    c[: lam.size] = inst.optimal_revenue_tables.reshape(-1)
    # rows: each distribution sums to 1, then per pair (i, j) the lambda mass
    # of backlogs containing i equals i's probability of choosing j
    b = np.zeros(m + n + n * m)
    b[: m + n] = 1.0
    cols = np.zeros((b.size, c.size), order="F")
    cols[lam // n_sets, lam] = 1.0
    cols[m + tau // n_offers, lam.size + tau] = 1.0
    link = m + n + np.arange(n * m).reshape(n, m, 1)
    cols[link, lam.reshape(1, m, n_sets)] = mnl.subset_masks(n).T[:, None, :]
    phi = mnl.choice_prob_table(inst.u)
    cols[link, lam.size + tau.reshape(n, 1, n_offers)] = -phi.transpose(0, 2, 1)

    singletons = (lam[::n_sets] + (1 << np.arange(n))[:, None]).reshape(-1)
    basis = np.concatenate([lam[::n_sets], lam.size + tau[::n_offers], singletons])
    # B = I + N with N the E block and N N = 0, so B^-1 = I - N = 2I - B
    start = _RevisedBasis(cols, basis, 2 * np.eye(b.size) - cols[:, basis], b.copy())
    pivots, x, _ = _optimize(start, b, -c, c.size)
    if pivots < 0:
        raise LpSolverError("assortment-distribution LP solve failed: unbounded")
    return float(c @ x)


def reference_suite_chain(seed: int) -> list[PropertyReport]:
    """The relaxation-chain suite with one oracle call per instance, the
    loop that the batched oracles replaced, kept verbatim but for the
    module prefixes and for its assortment-distribution LP, which is the
    one-instance reference solve :func:`reference_lp1_exact_small`."""
    report = PropertyReport(name="relaxation-chain")
    for k in range(suites.CHAIN_COUNT):
        report.cases += 1
        inst = generate("uniform-random", 3, 2, suites._sub_seed(seed, 401 + k))
        star = exact_star(inst)
        ftar = exact_dp_ftar(inst, tuple(range(inst.n)))
        atar, _ = exact_dp_atar(inst)
        lp1 = reference_lp1_exact_small(inst)
        lp2 = lp2_exact_small(inst).objective
        chain = [("static", star), ("fixed-order", ftar), ("adaptive", atar), ("lp-sets", lp1), ("lp-marginal", lp2)]
        for (lo_name, lo), (hi_name, hi) in zip(chain, chain[1:]):
            if lo > hi + suites.CHAIN_SLACK:
                report.record(
                    kind="chain-violation",
                    seed=suites._sub_seed(seed, 401 + k),
                    lower=lo_name,
                    upper=hi_name,
                    lo=lo,
                    hi=hi,
                )
    return [report]
