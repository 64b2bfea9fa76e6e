"""Ellipsoid method over the dual of the marginal LP.

The dual has 2nm + m variables (alpha, beta, gamma) but exponentially many
backlog constraints, one per (supplier, customer set). Each iteration scans
for a violated constraint in a fixed order -- objective cut first, then the
weight-link rows, alpha nonnegativity, and finally the backlog family
through the (1 - delta)-approximate sub-dual oracle, which is exact at the
default delta = 0 -- and applies the central-cut update. Backlog sets that
ever produced a cut are recorded; restricting the primal to that support
(the auxiliary primal) and solving it exactly recovers a feasible,
(1 - delta)-approximate solution of the full marginal LP.

``solve_restricted`` also prices that primal's duals with the exact oracle
on a doubling schedule of cut counts. Lifted by the priced excess, they are
a dual-feasible point whose objective bounds the LP optimum, and the loop
stops as ``certified`` once the bound is within 1e-9 of the restricted
primal's objective.

Iterations count cut steps only: when the center passes every check the
incumbent is updated in place and the loop re-enters without advancing the
counter (the objective cut necessarily fires next).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cost_assortment import SubDualOracle
from .instance import Instance
from .lp import (
    DualPoint,
    LpSolution,
    LpSolverError,
    MarginalLpColumns,
    ViolatedSets,
    build_aux_primal,
    check_lp_solution,
    dual_certificate,
    weight_link_slack,
)
from .simplex import LpResult, solve_lp

# a'Da at or below this multiple of eps * |a|^2 * trace(D) carries no float64
# information: the ellipsoid has zero numerical extent along the cut, either
# because it collapsed or because anisotropic growth exhausted the mantissa.
NOISE_FLOOR = 32.0 * np.finfo(float).eps
# solve_restricted certifies after 1000, 2000, 4000, ... cuts and stops once
# the certified gap is at most CERTIFY_TOL
CERTIFY_FIRST = 1000
CERTIFY_GROWTH = 2
CERTIFY_TOL = 1e-9


class EllipsoidBreakdown(RuntimeError):
    """The shape matrix lost positive definiteness along a cut direction."""


@dataclass
class EllipsoidResult:
    violated: ViolatedSets
    best: DualPoint
    objective: float
    iterations: int
    t_max: int
    cut_counts: dict[str, int]
    incumbent_history: list[tuple[int, float]]
    incumbents: list[DualPoint]
    # never set: perfbench/tracing.py still reads it for its
    # ellipsoid.stop.early_exit count
    early_exited: bool = False
    degenerate_stop: bool = False
    certified: bool = False
    trace: list[dict] | None = None

    @property
    def stop_reason(self) -> str:
        """Why the loop ended: ``certified``, ``float64_floor`` or ``t_max``."""
        if self.certified:
            return "certified"
        if self.degenerate_stop:
            return "float64_floor"
        return "t_max"


def default_radius(inst: Instance) -> float:
    """Ball radius containing every candidate optimum of the normalized
    dual: the box 0 <= alpha <= 1, 0 <= beta <= 1, |gamma| <= 1 + max 1/u
    fits inside radius 10 (m + nm) max(1, max 1/u)."""
    return 10.0 * (inst.m + inst.n * inst.m) * max(1.0, float((1.0 / inst.u).max()))


def default_iteration_budget(inst: Instance) -> int:
    """Practical stand-in for the theoretical polynomial bound, which is
    astronomically conservative at desk scale; configurable everywhere."""
    n_dim = 2 * inst.n * inst.m + inst.m
    return int(math.ceil(50.0 * n_dim * n_dim * math.log(10.0 * n_dim * default_radius(inst))))


def run_ellipsoid(
    inst: Instance,
    t_max: int | None = None,
    *,
    delta: float = 0.0,
    trace: bool = False,
    certify: Callable[[ViolatedSets], bool] | None = None,
) -> EllipsoidResult:
    """Run the cut loop for at most ``t_max`` cut steps, starting from the
    ball of radius :func:`default_radius` around the origin.

    The run ends at the first of three events, reported as
    ``EllipsoidResult.stop_reason``: ``t_max`` cut steps; the float64
    floor, where a'Da along the next cut falls to the noise level of
    trace(D) (the usual end of a run with the default budget); or, with
    ``certify``, ``certify(recorded sets)`` returning true (``certified``),
    which the loop asks only after 1000, 2000, 4000, ... cuts. Backlog cuts
    come from ``SubDualOracle(inst, delta)``, which is exact at
    ``delta = 0``.

    Requires revenues normalized so every expected revenue is at most 1
    (the initial incumbent beta = 1 must be feasible).
    """
    if float(inst.r.max()) > 1.0 + 1e-12:
        raise ValueError("revenues must be normalized (max pair revenue <= 1) before running")
    n, m = inst.n, inst.m
    nm = n * m
    n_dim = 2 * nm + m
    if t_max is None:
        t_max = default_iteration_budget(inst)
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")

    oracle = SubDualOracle(inst, delta)
    s = np.zeros(n_dim)
    shape = np.eye(n_dim) * default_radius(inst) ** 2

    alpha = s[:nm].reshape(n, m)
    gamma = s[nm + m :].reshape(n, m)
    beta = s[nm : nm + m]
    cuts = _CutVectors(n, m, 1.0 / inst.u)

    best = DualPoint(alpha=np.zeros((n, m)), beta=np.ones(m), gamma=np.zeros((n, m)))
    obj = float(m)
    violated = ViolatedSets(m)
    cut_counts = {"objective": 0, "weight-link": 0, "alpha-nonnegative": 0, "assortment-cost": 0}
    incumbent_history: list[tuple[int, float]] = []
    incumbents: list[DualPoint] = []
    trace_rows: list[dict] | None = [] if trace else None

    growth = n_dim * n_dim / (n_dim * n_dim - 1.0)
    step_frac = 1.0 / (n_dim + 1.0)
    two_step = 2.0 * step_frac
    rank1 = np.empty((n_dim, n_dim))
    trace_d = float(shape.trace())
    t = 0
    degenerate_stop = False
    certified = False
    next_check = CERTIFY_FIRST
    incumbent_flag = False

    while t < t_max:
        kind, index, cut = _find_cut(inst, oracle, cuts, s, alpha, beta, gamma, obj, violated)
        if kind is None:
            # feasible center that improves the objective: update in place,
            # re-enter without counting an iteration
            best = DualPoint(alpha=alpha.copy(), beta=beta.copy(), gamma=gamma.copy())
            obj = float(s[: nm + m].sum())
            incumbent_history.append((t, obj))
            incumbents.append(best)
            incumbent_flag = True
            continue

        cut_counts[kind] += 1
        a, floor = cut
        da = shape @ a
        ada = float(a @ da)
        noise = floor * abs(trace_d)
        if ada <= noise:
            if trace_d > 0.0 and ada > -noise:
                # zero numerical extent along the cut: float64 is exhausted,
                # stop with the current state
                degenerate_stop = True
                break
            raise EllipsoidBreakdown(
                f"a'Da = {ada:.3e} <= 0 at t={t} on {kind} cut {index}; "
                f"trace(D) = {trace_d:.3e}"
            )
        # D <- growth * (D - (2 step / a'Da) da da'), in place. da da' is
        # exactly symmetric and both triangles see the same operations, so
        # D stays exactly symmetric.
        np.multiply(da[:, None], da[None, :], out=rank1)
        rank1 *= two_step / ada
        shape -= rank1
        shape *= growth
        da *= step_frac / math.sqrt(ada)
        s += da
        trace_d = float(shape.trace())
        t += 1
        if trace_rows is not None:
            trace_rows.append(
                {"t": t, "cut": kind, "index": index, "obj": obj, "incumbent_updated": incumbent_flag}
            )
        incumbent_flag = False
        if certify is not None and t == next_check:
            if certify(violated):
                certified = True
                break
            next_check *= CERTIFY_GROWTH

    return EllipsoidResult(
        violated=violated,
        best=best,
        objective=obj,
        iterations=t,
        t_max=t_max,
        cut_counts=cut_counts,
        incumbent_history=incumbent_history,
        incumbents=incumbents,
        degenerate_stop=degenerate_stop,
        certified=certified,
        trace=trace_rows,
    )


class _CutVectors:
    """Cut vectors a of one run, each paired with NOISE_FLOOR * a'a.

    The objective, weight-link and alpha-nonnegative families are fixed by
    the instance and built up front; backlog cuts are built on first use and
    kept. Each vector is its own contiguous array, as the per-cut
    ``np.zeros`` it replaces was, and is never written after it is built.
    """

    def __init__(self, n: int, m: int, inv_u: np.ndarray):
        nm = n * m
        self._n_dim = 2 * nm + m
        self._nm = nm
        self._m = m
        a = np.zeros(self._n_dim)
        a[: nm + m] = -1.0
        self.objective = _with_floor(a)
        # both lists are indexed by the row-major pair position i * m + j
        self.weight_link = []
        self.alpha_nonnegative = []
        for i in range(n):
            for j in range(m):
                a = np.zeros(self._n_dim)
                a[i * m : (i + 1) * m] = 1.0
                a[i * m + j] += inv_u[i, j]
                a[nm + m + i * m + j] = -1.0
                self.weight_link.append(_with_floor(a))
                a = np.zeros(self._n_dim)
                a[i * m + j] = 1.0
                self.alpha_nonnegative.append(_with_floor(a))
        self._backlog: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, float]] = {}

    def backlog(self, j: int, subset: tuple[int, ...]) -> tuple[np.ndarray, float]:
        cut = self._backlog.get((j, subset))
        if cut is None:
            a = np.zeros(self._n_dim)
            nm, m = self._nm, self._m
            a[nm + j] = 1.0
            for i in subset:
                a[nm + m + i * m + j] = 1.0
            cut = self._backlog[(j, subset)] = _with_floor(a)
        return cut


def _with_floor(a: np.ndarray) -> tuple[np.ndarray, float]:
    # NOISE_FLOOR * a'a is the left factor of the noise level, so the
    # product with |trace(D)| rounds as it would if formed per cut
    return a, NOISE_FLOOR * float(a @ a)


def _find_cut(inst, oracle, cuts, s, alpha, beta, gamma, obj, violated):
    """Locate the first violated constraint in the fixed scan order and
    return (kind, index, (cut vector a, its noise scale)); kind None when
    the center is feasible and improving."""
    m = inst.m
    nm_m = inst.n * m + m

    if float(s[:nm_m].sum()) >= obj:
        return "objective", None, cuts.objective

    below = weight_link_slack(inst, alpha, gamma) < 0.0
    pos = int(below.argmax())
    if below.item(pos):
        return "weight-link", divmod(pos, m), cuts.weight_link[pos]

    below = alpha < 0.0
    pos = int(below.argmax())
    if below.item(pos):
        return "alpha-nonnegative", divmod(pos, m), cuts.alpha_nonnegative[pos]

    for j in range(m):
        value, subset = oracle(j, gamma)
        if value > beta[j]:
            violated.add(j, subset)
            return "assortment-cost", (j, subset), cuts.backlog(j, subset)

    return None, None, None


@dataclass
class RestrictedSolve:
    """One constraint-generation solve of the marginal LP: the cut-loop
    record, the primal restricted to its recorded support, that primal's
    checked optimal solution, and a dual-feasible point of the full LP
    whose objective exceeds the solution's by ``certified_gap``."""

    run: EllipsoidResult
    columns: MarginalLpColumns
    solution: LpSolution
    certificate: DualPoint
    certified_gap: float


@dataclass
class _Priced:
    """The restricted primal over ``sets`` recorded sets, solved and priced."""

    sets: int
    columns: MarginalLpColumns
    result: LpResult
    certificate: DualPoint
    gap: float


def solve_restricted(
    inst: Instance,
    t_max: int | None = None,
    *,
    delta: float = 0.0,
    trace: bool = False,
) -> RestrictedSolve:
    """Approximately solve the marginal LP: cut loop, then exact solve of
    the primal restricted to the recorded backlog support.

    The solution is feasible for the full marginal LP. After 1000, 2000,
    4000, ... cuts the restricted primal is solved and its duals priced with
    the exact oracle (see :func:`~twosided.lp.dual_certificate`); the loop
    stops as ``certified`` once the gap is at most 1e-9, and otherwise at
    ``t_max`` or the float64 floor. The returned
    ``certified_gap`` bounds how far the objective can be below the true
    optimum, at every ``delta``; with ``delta > 0`` the objective is also at
    least (1 - delta) times the optimum. Raises :class:`LpSolverError` when
    the solution fails the feasibility check of the full marginal LP.
    """
    oracle = SubDualOracle(inst)
    last: _Priced | None = None

    def price(violated: ViolatedSets) -> _Priced:
        columns = build_aux_primal(inst, violated)
        result = solve_lp(columns.lp)
        certificate, gap = dual_certificate(oracle, columns.dual_point(result))
        return _Priced(violated.total(), columns, result, certificate, gap)

    def certify(violated: ViolatedSets) -> bool:
        nonlocal last
        last = price(violated)
        return last.gap <= CERTIFY_TOL

    run = run_ellipsoid(inst, t_max, delta=delta, trace=trace, certify=certify)
    # the sets only grow, so an unchanged count means an unchanged primal
    if last is None or last.sets != run.violated.total():
        last = price(run.violated)
    solution = last.columns.extract(last.result)
    problems = check_lp_solution(inst, solution)
    if problems:
        raise LpSolverError(
            "restricted-support solve returned an infeasible point: " + "; ".join(problems)
        )
    return RestrictedSolve(
        run=run,
        columns=last.columns,
        solution=solution,
        certificate=last.certificate,
        certified_gap=last.gap,
    )
