"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves finite LPs over nonnegative variables given as

    max/min  c.x   s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  x >= 0,

returning an optimal basic solution. Bland's rule (smallest eligible index
for both the entering column and, among minimum-ratio ties, the leaving
basic variable) guarantees termination on the degenerate LPs this package
produces. Dense float64 tableau; feasibility tolerance 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEASIBILITY_TOL = 1e-8


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


def solve_lp(lp: LinearProgram, tol: float = FEASIBILITY_TOL, max_iters: int | None = None) -> LpResult:
    """Solve ``lp`` exactly; see module docstring for the method."""
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
