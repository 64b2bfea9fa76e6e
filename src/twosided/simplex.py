"""Two-phase revised primal simplex with Bland's anti-cycling rule.

Solves finite LPs over nonnegative variables given as

    max/min  c.x   s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  x >= 0,

returning an optimal basic solution and its dual multipliers. Bland's rule
(smallest eligible index for both the entering column and, among
minimum-ratio ties, the leaving basic variable) guarantees termination on
the degenerate LPs this package produces.

The method keeps an explicit inverse of the basis matrix and the basic
values, and updates both by one Gauss-Jordan (rank-1) step per pivot; the
constraint matrix itself is never modified. Reduced costs ``c_j - y.A_j``
(with ``y = c_B B^-1``) are priced in fixed blocks of columns in index
order, stopping at the first block holding one below ``-tol``: that is
still Bland's smallest-index entering rule, but a pivot reads only the
columns up to the entering one. Float64 throughout; feasibility tolerance
1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEASIBILITY_TOL = 1e-8
# columns priced per step of the entering scan; 256-512 measured alike
PRICING_BLOCK = 384


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
        max_iters = 2000 + 200 * (m + n_struct)

    # phase 1: artificial variables on every row, minimize their sum
    state = _RevisedBasis(cols, b, first_basic=n_struct)
    phase1_cost = np.concatenate([np.zeros(n_struct), np.ones(m)])
    it1 = _pivot_loop(state, phase1_cost, n_cols=n_struct + m, tol=FEASIBILITY_TOL, max_iters=max_iters)
    if it1 < 0:
        raise LpSolverError("phase-1 objective reported unbounded; basis inverse corrupt")
    scale = max(1.0, float(abs(b).max()) if b.size else 1.0)
    if float(state.x_b[state.basis >= n_struct].sum()) > FEASIBILITY_TOL * scale:
        return LpResult(status="infeasible", x=None, objective=None, iterations=it1)

    state.drive_out_artificials(n_struct, FEASIBILITY_TOL)

    # phase 2: original objective (in min form) over structural columns. An
    # artificial left basic sits at zero on a redundant row; it costs nothing
    # and, never priced, cannot re-enter.
    cost = np.concatenate([(-lp.c) if lp.maximize else lp.c, np.zeros(mu + m)])
    it2 = _pivot_loop(state, cost, n_cols=n_struct, tol=FEASIBILITY_TOL, max_iters=max_iters)
    if it2 < 0:
        return LpResult(status="unbounded", x=None, objective=None, iterations=it1 + (-it2 - 1))

    structural = state.basis < n_struct
    x_full = np.zeros(n_struct)
    x_full[state.basis[structural]] = state.x_b[structural]
    x = x_full[:k]
    # min-form multipliers of the flipped rows, mapped back to the LP's rows
    y = cost[state.basis] @ state.binv
    _check_optimality(cols[:, :n_struct], b, cost[:n_struct], x_full, y, FEASIBILITY_TOL)
    duals = np.where(flip, -y, y)
    return LpResult(
        status="optimal",
        x=x,
        objective=float(lp.c @ x),
        iterations=it1 + it2,
        basis=tuple(int(var) for var in state.basis[structural]),
        duals=-duals if lp.maximize else duals,
    )


def _check_optimality(
    cols: np.ndarray, b: np.ndarray, cost: np.ndarray, x: np.ndarray, y: np.ndarray, tol: float
) -> None:
    """KKT check of a min-form optimum over the structural and slack
    columns: primal residual and negativity within tol * max(1, |b|),
    reduced costs >= -tol, and b.y within tol * max(1, |cost.x|) of cost.x.
    Raises :class:`LpSolverError` naming every failed condition."""
    problems = []
    residual = float(max(np.abs(cols @ x - b).max(initial=0.0), -x.min(initial=0.0)))
    if residual > tol * max(1.0, float(np.abs(b).max(initial=0.0))):
        problems.append(f"primal residual {residual:.3e}")
    reduced = cost - y @ cols
    if reduced.min(initial=0.0) < -tol:
        worst = int(reduced.argmin())
        problems.append(f"reduced cost {reduced[worst]:.3e} at column {worst}")
    primal, dual = float(cost @ x), float(b @ y)
    if abs(dual - primal) > tol * max(1.0, abs(primal)):
        problems.append(f"duality gap {dual - primal:.3e} (primal {primal!r}, dual {dual!r})")
    if problems:
        raise LpSolverError("optimal basis fails the KKT check: " + "; ".join(problems))


class _RevisedBasis:
    """The basis of a standard-form LP: basic column per row, the explicit
    basis inverse and the basic values. ``cols`` is never modified."""

    def __init__(self, cols: np.ndarray, b: np.ndarray, first_basic: int):
        m = b.size
        self.cols = cols
        self.basis = np.arange(first_basic, first_basic + m)
        self.binv = np.eye(m)
        self.x_b = b.copy()

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
        self.binv -= col[:, None] * pivot_row
        self.binv[row] = pivot_row
        x_enter = self.x_b[row] / piv
        self.x_b -= col * x_enter
        self.x_b[row] = x_enter
        self.basis[row] = enter

    def drive_out_artificials(self, n_struct: int, tol: float) -> None:
        """Pivot leftover artificial variables out of the basis.

        A row whose structural coefficients all vanished is a redundant
        constraint; its artificial stays basic (at zero).
        """
        for row in np.flatnonzero(self.basis >= n_struct):
            coeffs = self.binv[row] @ self.cols[:, :n_struct]
            candidates = np.flatnonzero(np.abs(coeffs) > tol)
            if candidates.size:
                enter = int(candidates[0])
                self.pivot(int(row), enter, self.column(enter))


def _pivot_loop(state: _RevisedBasis, cost: np.ndarray, n_cols: int, tol: float, max_iters: int) -> int:
    """Bland pivoting on min-form costs over the first ``n_cols`` columns.

    Returns the pivot count, or -(pivots + 1) when the LP is unbounded.
    """
    bounds = [(lo, min(lo + PRICING_BLOCK, n_cols)) for lo in range(0, n_cols, PRICING_BLOCK)]
    blocks = [(lo, cost[lo:hi], state.cols[:, lo:hi]) for lo, hi in bounds]
    for it in range(max_iters):
        enter = _entering(blocks, cost[state.basis] @ state.binv, tol)
        if enter < 0:
            return it
        col = state.column(enter)
        eligible = np.flatnonzero(col > tol)
        if eligible.size == 0:
            return -(it + 1)
        ratios = state.x_b[eligible] / col[eligible]
        rmin = float(ratios.min())
        ties = eligible[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
        leave = int(ties[state.basis[ties].argmin()])
        state.pivot(leave, enter, col)
    raise LpSolverError(
        f"simplex exceeded {max_iters} pivots (rows={state.x_b.size}, cols={n_cols}); "
        "basis inverse is numerically suspect"
    )


def _entering(blocks: list[tuple[int, np.ndarray, np.ndarray]], y: np.ndarray, tol: float) -> int:
    """Bland: the first column whose reduced cost ``cost_j - y.A_j`` is
    below -tol, or -1. ``blocks`` holds (first index, costs, columns) of
    consecutive column blocks; the scan stops at the first block with one."""
    for lo, cost, cols in blocks:
        below = cost - y @ cols < -tol
        j = int(below.argmax())
        if below[j]:
            return lo + j
    return -1
