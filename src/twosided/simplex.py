"""Two-phase revised primal simplex with weighted Dantzig pricing and a
Bland fallback.

Solves finite LPs over nonnegative variables given as

    max/min  c.x   s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  x >= 0,

returning an optimal basic solution and its dual multipliers.

The method keeps an explicit inverse of the basis matrix and the basic
values, and updates both by one Gauss-Jordan (rank-1) step per pivot; the
constraint matrix itself is never modified. Every pivot prices every column:
the reduced costs ``c_j - y.A_j`` (with ``y = c_B B^-1``) come from one
product of the duals with the column array, or from the basis's own
pricing (``lp.RestrictedMaster`` prices its lambda columns from their
keys). Only a column whose reduced cost is below ``-ENTERING_TOL``
(-1e-12) may enter, and the LP is optimal when none is below. Among those,
the one whose reduced cost times ``w_j = 1 / sqrt(1 + |A_j|^2)`` is most
negative enters, the lowest index among ties. ``w_j`` is column j's
steepest-edge weight at an identity basis, where raising x_j by one moves
the point by ``sqrt(1 + |A_j|^2)`` (D. Goldfarb and J. K. Reid, Math.
Programming 12, 1977); it is computed once per pivot loop from the column
array and not updated as the basis changes, so the rule is Dantzig's rule
on the LP with each column scaled by its weight. Dantzig's rule on the
unscaled columns favours the marginal LP's long lambda columns; the
weighted rule solves the full marginal LPs at 8x4 to 10x4 in about a
quarter of its pivots. Among minimum-ratio ties, the basic variable of
smallest index leaves. Float64 throughout; feasibility tolerance 1e-8, for
the ratio test and for the optimality check.

The entering threshold sits far below the feasibility tolerance so that a
column priced between the two still enters: callers that certify an
optimum by pricing (``ellipsoid.solve_restricted``) need reduced costs well
inside 1e-8. Such a column may have no ratio-test row above the 1e-8
tolerance; it then proves nothing about unboundedness, so the same reduced
costs are scanned again with the 1e-8 threshold. The basis is optimal when
that scan finds no column; a column it finds enters, or, with no ratio-test
row either, shows the LP unbounded.

Termination: every entering reduced cost is negative (the weights are
positive and choose only among the columns below the threshold), so a
pivot whose ratio-test step exceeds the tolerance strictly improves the
objective, and no basis repeats across such pivots. This assumes the
computed reduced costs are accurate to well below ``ENTERING_TOL``, which
holds for LPs with costs and coefficients of order one, such as the
normalized LPs the certifier solves; with costs of order 1e3, round-off in
``c_j - y.A_j`` can pass for a price, and only ``max_iters`` bounds the
pivots. Being Dantzig's rule on scaled columns, the weighted rule can
cycle inside a stretch of degenerate pivots (steps within the tolerance),
as Dantzig's rule can, so after ``DEGENERATE_RUN`` of them in a row the
entering column is chosen by Bland's rule (the smallest index below the
entering threshold, weights unused) until a pivot moves the basic solution
again; with its smallest-index leaving rule, Bland's rule cannot cycle.
``max_iters`` (by default 2000 + 200 per row) still guards against
numerical trouble.

:func:`solve_lp`, for general LPs, starts from the all-artificial basis of
phase 1. Its phase 2, :func:`_optimize`, solves the package's own LPs from a
feasible basis: the assortment-distribution LP and every
``lp.RestrictedMaster``, which is a :class:`_RevisedBasis` and keeps its
basis between solves.

:func:`_optimize_lockstep` solves a batch of LPs of one shape from feasible
bases in one array pass per pivot, each LP with the floating-point
operations of :func:`_optimize`, so with the same pivots and values. It runs
only the common path: an LP that reaches ``DEGENERATE_RUN``, needs the
rescan, would pivot on a tiny element, runs past the pivot budget or fails
the KKT check leaves the batch and is solved alone by :func:`_optimize`.
It is a second loop because batching pays only across LPs: the desk-scale
LPs take about five pivots each, and their cost is per-call numpy
overhead, which the batch shares; one LP alone solves faster in
:func:`_pivot_loop`, which keeps every LP that is solved alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

FEASIBILITY_TOL = 1e-8
# a column enters when its reduced cost is below -ENTERING_TOL
ENTERING_TOL = 1e-12
# consecutive degenerate pivots after which Bland's rule enters
DEGENERATE_RUN = 50


class LpSolverError(RuntimeError):
    """Numerical failure inside the simplex; message carries diagnostics."""


@dataclass
class LinearProgram:
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    maximize: bool = True
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        k = self.c.size
        self.a_eq, self.b_eq = _as_rows(self.a_eq, self.b_eq, k)
        self.a_ub, self.b_ub = _as_rows(self.a_ub, self.b_ub, k)

    @property
    def num_vars(self) -> int:
        return self.c.size

    def to_dict(self) -> dict:
        return {
            "maximize": self.maximize,
            "c": self.c.tolist(),
            "a_eq": self.a_eq.tolist(),
            "b_eq": self.b_eq.tolist(),
            "a_ub": self.a_ub.tolist(),
            "b_ub": self.b_ub.tolist(),
            "names": list(self.names) if self.names else None,
        }


def _as_rows(a, b, k: int) -> tuple[np.ndarray, np.ndarray]:
    if a is None:
        return np.zeros((0, k)), np.zeros(0)
    a = np.asarray(a, dtype=float).reshape(-1, k)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape[0] != b.size:
        raise ValueError(f"row mismatch: {a.shape[0]} constraint rows, {b.size} right-hand sides")
    return a, b


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    basis: tuple[int, ...] = field(default_factory=tuple)
    # one multiplier per a_eq row, then per a_ub row; None unless optimal
    duals: np.ndarray | None = None


def solve_lp(lp: LinearProgram, max_iters: int | None = None) -> LpResult:
    """Solve ``lp`` exactly; see module docstring for the method.

    At an optimum, ``duals`` are in the LP's own sense: ``b_eq.duals_eq +
    b_ub.duals_ub`` equals the objective, and the reduced costs ``c -
    duals.A`` are <= 0 for a max (>= 0 for a min), with the ``a_ub``
    multipliers >= 0 for a max (<= 0 for a min). Every optimum is checked
    against these conditions (primal residual, reduced costs, duality gap)
    before it is returned; a failure raises :class:`LpSolverError`.
    """
    k = lp.num_vars
    mu = lp.a_ub.shape[0]
    me = lp.a_eq.shape[0]
    m = me + mu
    n_struct = k + mu

    # standard form: equality rows first, then inequality rows with slacks;
    # then one artificial column per row. Stored by column for pricing.
    cols = np.zeros((m, n_struct + m), order="F")
    b = np.zeros(m)
    cols[:me, :k] = lp.a_eq
    b[:me] = lp.b_eq
    cols[me:, :k] = lp.a_ub
    cols[me:, k:n_struct] = np.eye(mu)
    b[me:] = lp.b_ub
    flip = b < 0
    cols[flip] *= -1.0
    b[flip] *= -1.0
    cols[:, n_struct:] = np.eye(m)

    if max_iters is None:
        max_iters = _pivot_budget(m)

    scale = max(1.0, float(abs(b).max()) if b.size else 1.0)
    # phase 1: artificial variables on every row, minimize their sum
    state = _RevisedBasis(cols, np.arange(n_struct, n_struct + m), np.eye(m), b.copy())
    phase1_cost = np.concatenate([np.zeros(n_struct), np.ones(m)])
    it1 = _pivot_loop(state, phase1_cost, n_cols=n_struct + m, max_iters=max_iters)
    if it1 < 0:
        raise LpSolverError("phase-1 objective reported unbounded; basis inverse corrupt")
    if float(state.x_b[state.basis >= n_struct].sum()) > FEASIBILITY_TOL * scale:
        return LpResult(status="infeasible", x=None, objective=None, iterations=it1)

    state.drive_out_artificials(n_struct)

    # phase 2: original objective (in min form) over structural columns. An
    # artificial left basic sits at zero on a redundant row; it costs nothing
    # and, never priced, cannot re-enter.
    cost = np.concatenate([(-lp.c) if lp.maximize else lp.c, np.zeros(mu + m)])
    it2, x_full, y = _optimize(state, b, cost, n_struct, max_iters)
    if it2 < 0:
        return LpResult(status="unbounded", x=None, objective=None, iterations=it1 + (-it2 - 1))

    x = x_full[:k]
    # min-form multipliers of the flipped rows, mapped back to the LP's rows
    duals = np.where(flip, -y, y)
    return LpResult(
        status="optimal",
        x=x,
        objective=float(lp.c @ x),
        iterations=it1 + it2,
        basis=tuple(int(var) for var in state.basis if var < n_struct),
        duals=-duals if lp.maximize else duals,
    )


def _optimize(
    state: _RevisedBasis, b: np.ndarray, cost: np.ndarray, n_cols: int, max_iters: int | None = None
) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Pivot from the feasible basis of ``state`` to a KKT-checked optimum of
    min-form ``cost`` over the first ``n_cols`` columns (a basic artificial
    past them sits at zero). Returns the pivots, those columns' values and
    the row duals, or -(pivots + 1), None, None when the LP is unbounded."""
    if max_iters is None:
        max_iters = _pivot_budget(b.size)
    pivots = _pivot_loop(state, cost, n_cols=n_cols, max_iters=max_iters)
    if pivots < 0:
        return pivots, None, None
    inside = state.basis < n_cols
    x = np.zeros(n_cols)
    x[state.basis[inside]] = state.x_b[inside]
    y = cost[state.basis] @ state.binv
    _check_optimality(state.cols[:, :n_cols], b, cost[:n_cols], x, y, FEASIBILITY_TOL)
    return pivots, x, y


def _optimize_lockstep(
    cols: np.ndarray, basis: np.ndarray, binv: np.ndarray, x_b: np.ndarray, b: np.ndarray, cost: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """:func:`_optimize` on k LPs of one shape at once, each from its own
    feasible basis: ``cols`` (k, rows, columns) with each LP's block
    column-major, ``basis`` (k, rows), ``binv`` (k, rows, rows), and
    ``x_b``, ``b`` (k, rows) and min-form ``cost`` (k, columns), all over
    every column. The arguments are not modified.

    Every live LP takes the common path of :func:`_pivot_loop` in one array
    pass per pivot: weighted-Dantzig entering below ``-ENTERING_TOL``, the
    ratio test with its tie band and smallest-basic-index leaving rule, and
    the rank-1 update; at its optimum, the three conditions of
    :func:`_check_optimality`, failing on NaN. Each step is the one-LP
    loop's floating-point operations on each block (a stacked ``np.matmul``
    runs the BLAS call of the 2-D ``@`` per block), so an LP's pivots and
    values do not depend on the batch. An LP leaves the batch where the
    one-LP loop would take another path: after ``DEGENERATE_RUN``
    degenerate pivots (Bland's rule), when its entering column has no
    ratio-test row (the rescan, or a ray), on a tiny pivot element, past
    the pivot budget, or when it fails the KKT check. The caller solves
    those alone from their start basis, so Bland's rule, the rescan,
    unboundedness and every error message stay in :func:`_pivot_loop` and
    :func:`_optimize`.

    It is a second loop on purpose: each pivot costs a fixed few dozen
    numpy calls over the batch, so one LP alone runs about 3x slower here
    than in :func:`_pivot_loop` (0.36 against 0.11 ms on a 3x2 marginal LP,
    best of 300 on a 2-core x86 VM), while 50 such LPs take 0.016 ms each.
    Single LPs, among them masters that keep their basis between solves,
    price by key or re-invert, keep that loop, and a batch of one leaves at
    once.

    Returns the (k, columns) optimal values, NaN on the rows of the LPs
    that left, and those LPs' indices in ascending order."""
    k, rows, n_cols = cols.shape
    x = np.full((k, n_cols), np.nan)
    left: list[int] = []
    if k == 1:
        return x, [0]
    ids, weights, degenerate = np.arange(k), _column_weights(cols), np.zeros(k, dtype=int)
    basis, binv, x_b = np.array(basis), np.array(binv, order="C"), np.array(x_b)
    for _ in range(_pivot_budget(rows)):
        if ids.size == 0:
            break
        at = np.arange(ids.size)
        stuck = degenerate >= DEGENERATE_RUN  # Bland's rule would enter next
        y = np.matmul(np.take_along_axis(cost, basis, axis=1)[:, None, :], binv)[:, 0]
        reduced = cost - np.matmul(y[:, None, :], cols)[:, 0]
        scaled = reduced * weights
        scaled[reduced >= -ENTERING_TOL] = 0.0  # what _weighted_dantzig ranks
        enter = scaled.argmin(axis=1)
        optimal = ~stuck & ~(scaled[at, enter] < 0.0)
        if optimal.any():
            done = ids[optimal]
            x_done = np.zeros((done.size, n_cols))
            np.put_along_axis(x_done, basis[optimal], x_b[optimal], axis=1)
            holds = _kkt_holds(cols[optimal], b[optimal], cost[optimal], x_done, y[optimal], reduced[optimal])
            x[done[holds]] = x_done[holds]
            left.extend(done[~holds].tolist())
        col = np.matmul(binv, cols[at, :, enter][:, :, None])[:, :, 0]
        eligible = col > FEASIBILITY_TOL
        ratios = np.divide(x_b, col, out=np.full(col.shape, np.inf), where=eligible)
        rmin = ratios.min(axis=1)
        ties = eligible & (ratios <= (rmin + 1e-12 * np.maximum(1.0, np.abs(rmin)))[:, None])
        leave = np.where(ties, basis, n_cols).argmin(axis=1)
        piv = col[at, leave]
        keep = ~(stuck | optimal) & ties.any(axis=1) & (np.abs(piv) >= 1e-12)
        left.extend(ids[~optimal & ~keep].tolist())
        if not keep.all():
            lps = ids, cols, weights, b, cost, basis, binv, x_b, degenerate
            ids, cols, weights, b, cost, basis, binv, x_b, degenerate = (a[keep] for a in lps)
            enter, col, leave, piv, rmin = (a[keep] for a in (enter, col, leave, piv, rmin))
            at = np.arange(ids.size)
        # the rank-1 update of _RevisedBasis.pivot, per LP
        pivot_row = binv[at, leave] / piv[:, None]
        binv -= np.matmul(col[:, :, None], pivot_row[:, None, :])
        binv[at, leave] = pivot_row
        x_enter = x_b[at, leave] / piv
        x_b -= col * x_enter[:, None]
        x_b[at, leave] = x_enter
        basis[at, leave] = enter
        degenerate = np.where(rmin <= FEASIBILITY_TOL, degenerate + 1, 0)
    else:
        left.extend(ids.tolist())  # past the pivot budget
    return x, sorted(left)


def _kkt_holds(
    cols: np.ndarray, b: np.ndarray, cost: np.ndarray, x: np.ndarray, y: np.ndarray, reduced: np.ndarray
) -> np.ndarray:
    """Per stacked LP, whether :func:`_check_optimality` passes, computed
    with its operations on each block; ``reduced`` is ``cost - y.cols``."""
    tol = FEASIBILITY_TOL
    residual = np.abs(np.matmul(cols, x[:, :, None])[:, :, 0] - b).max(axis=1, initial=0.0)
    residual = np.maximum(residual, -x.min(axis=1, initial=0.0))  # NaN stays NaN
    holds = residual <= tol * np.maximum(1.0, np.abs(b).max(axis=1, initial=0.0))
    holds &= reduced.min(axis=1, initial=0.0) >= -tol
    primal = np.matmul(cost[:, None, :], x[:, :, None])[:, 0, 0]
    dual = np.matmul(b[:, None, :], y[:, :, None])[:, 0, 0]
    return holds & (np.abs(dual - primal) <= tol * np.maximum(1.0, np.abs(primal)))


def _pivot_budget(rows: int) -> int:
    """The default pivot budget of one pivot loop over ``rows`` rows.

    It grows with the rows only: the package's LPs take at most about 2.7
    pivots per row (55 on 3 rows where a degenerate run hands over to
    Bland's rule), at least 40x inside the budget, while a loop that stalls
    on the full 10x4 marginal LP (84 rows, over 4,000 columns) stops after
    18,800 pivots."""
    return 2000 + 200 * rows


def _check_optimality(
    cols: np.ndarray, b: np.ndarray, cost: np.ndarray, x: np.ndarray, y: np.ndarray, tol: float
) -> None:
    """KKT check of a min-form optimum over the structural and slack
    columns: primal residual and negativity within tol * max(1, |b|),
    reduced costs >= -tol, and b.y within tol * max(1, |cost.x|) of cost.x.
    Every comparison fails on NaN. Raises :class:`LpSolverError` naming
    every failed condition."""
    problems = []
    residual = float(np.maximum(np.abs(cols @ x - b).max(initial=0.0), -x.min(initial=0.0)))  # NaN stays NaN
    if not residual <= tol * max(1.0, float(np.abs(b).max(initial=0.0))):
        problems.append(f"primal residual {residual:.3e}")
    reduced = cost - y @ cols
    if not reduced.min(initial=0.0) >= -tol:
        worst = int(reduced.argmin())
        problems.append(f"reduced cost {reduced[worst]:.3e} at column {worst}")
    primal, dual = float(cost @ x), float(b @ y)
    if not abs(dual - primal) <= tol * max(1.0, abs(primal)):
        problems.append(f"duality gap {dual - primal:.3e} (primal {primal!r}, dual {dual!r})")
    if problems:
        raise LpSolverError("optimal basis fails the KKT check: " + "; ".join(problems))


class _RevisedBasis:
    """The basis of a standard-form LP: basic column per row, the explicit
    basis inverse and the basic values. ``cols`` is never modified."""

    def __init__(self, cols: np.ndarray, basis: np.ndarray, binv: np.ndarray, x_b: np.ndarray):
        self.cols = cols
        self.basis = basis
        self.binv = binv
        self.x_b = x_b
        # each pivot's rank-1 update, written here rather than into a new array
        self._update = np.empty(binv.shape)

    def pricing(self, cost: np.ndarray, n_cols: int) -> Callable[[np.ndarray], np.ndarray]:
        """The reduced costs ``cost_j - y.A_j`` of the first ``n_cols``
        columns as a function of the row duals ``y``: one dense product."""
        cost, cols = cost[:n_cols], self.cols[:, :n_cols]
        return lambda y: cost - y @ cols

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` in terms of the current basis (``B^-1 A_j``)."""
        return self.binv @ self.cols[:, j]

    def pivot(self, row: int, enter: int, col: np.ndarray) -> None:
        """Gauss-Jordan step: column ``enter`` (``col`` = its ``B^-1 A_j``)
        replaces the basic variable of ``row``."""
        piv = col[row]
        if abs(piv) < 1e-12:
            raise LpSolverError(f"degenerate pivot element {piv:.3e} at row {row}, column {enter}")
        pivot_row = self.binv[row] / piv
        np.dot(col[:, None], pivot_row[None, :], out=self._update)
        self.binv -= self._update
        self.binv[row] = pivot_row
        x_enter = self.x_b[row] / piv
        self.x_b -= col * x_enter
        self.x_b[row] = x_enter
        self.basis[row] = enter

    def drive_out_artificials(self, n_struct: int) -> None:
        """Pivot leftover artificial variables out of the basis.

        A row whose structural coefficients all vanished is a redundant
        constraint; its artificial stays basic (at zero).
        """
        for row in np.flatnonzero(self.basis >= n_struct):
            coeffs = self.binv[row] @ self.cols[:, :n_struct]
            candidates = np.flatnonzero(np.abs(coeffs) > FEASIBILITY_TOL)
            if candidates.size:
                enter = int(candidates[0])
                self.pivot(int(row), enter, self.column(enter))


def _pivot_loop(state: _RevisedBasis, cost: np.ndarray, n_cols: int, max_iters: int) -> int:
    """Simplex pivots on min-form costs over the first ``n_cols`` columns,
    each column priced on every pivot: below ``-ENTERING_TOL``, the column
    of most negative reduced cost times its weight (:func:`_column_weights`)
    enters; Bland's rule after ``DEGENERATE_RUN`` consecutive degenerate
    pivots until one moves the basic solution. ``FEASIBILITY_TOL`` is the
    ratio-test and optimality tolerance.

    Returns the pivot count, or -(pivots + 1) when the LP is unbounded.
    """
    price = state.pricing(cost, n_cols)
    weighted = partial(_weighted_dantzig, _column_weights(state.cols[:, :n_cols]))
    degenerate = 0
    for it in range(max_iters):
        reduced = price(cost[state.basis] @ state.binv)
        entering = _bland if degenerate >= DEGENERATE_RUN else weighted
        enter = entering(reduced, ENTERING_TOL)
        if enter < 0:
            return it
        col = state.column(enter)
        eligible = np.flatnonzero(col > FEASIBILITY_TOL)
        if eligible.size == 0:
            # a column priced within FEASIBILITY_TOL proves no ray: rescan at
            # it. None found: optimal. One found: it enters, or shows a ray
            # if it has no ratio-test row either
            enter = entering(reduced, FEASIBILITY_TOL)
            if enter < 0:
                return it
            col = state.column(enter)
            eligible = np.flatnonzero(col > FEASIBILITY_TOL)
            if eligible.size == 0:
                return -(it + 1)
        ratios = state.x_b[eligible] / col[eligible]
        rmin = float(ratios.min())
        ties = eligible[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
        leave = int(ties[state.basis[ties].argmin()])
        state.pivot(leave, enter, col)
        degenerate = degenerate + 1 if rmin <= FEASIBILITY_TOL else 0
    raise LpSolverError(
        f"simplex exceeded {max_iters} pivots (rows={state.x_b.size}, cols={n_cols}); "
        "basis inverse is numerically suspect"
    )


def _column_weights(cols: np.ndarray) -> np.ndarray:
    """Per column A_j, 1 / sqrt(1 + |A_j|^2): its steepest-edge weight at an
    identity basis, where moving x_j by one moves the point by
    sqrt(1 + |A_j|^2). One pass over ``cols``, no temporary of its size;
    stacked (k, rows, columns) arrays give each block's weights, bit for bit."""
    return 1.0 / np.sqrt(1.0 + np.einsum("...ij,...ij->...j", cols, cols))


def _weighted_dantzig(weights: np.ndarray, reduced: np.ndarray, tol: float) -> int:
    """Among the columns whose reduced cost is below -tol, the one of most
    negative reduced cost times weight (the lowest index among ties), or -1."""
    scaled = reduced * weights
    j = int(scaled.argmin()) if scaled.size else -1
    if j >= 0 and reduced[j] >= -tol:
        # the smallest product is not below the threshold: rank only those that are
        scaled[reduced >= -tol] = 0.0
        j = int(scaled.argmin())
    return j if j >= 0 and scaled[j] < 0.0 else -1


def _bland(reduced: np.ndarray, tol: float) -> int:
    """Bland: the first column whose reduced cost is below -tol, or -1."""
    below = np.flatnonzero(reduced < -tol)
    return int(below[0]) if below.size else -1
