"""Ellipsoid method over the dual of the marginal LP.

The dual has 2nm + m variables (alpha, beta, gamma) but exponentially many
backlog constraints, one per (supplier, customer set). Each iteration scans
for a violated constraint in a fixed order -- objective cut first, then the
weight-link rows, alpha nonnegativity, and finally the backlog family
through the instance's sub-dual oracle (``inst.sub_dual_oracle``), called
(1 - delta)-approximately (exactly at the default delta = 0) -- and applies
the central-cut update.
Backlog sets that ever produced a cut are recorded by the bitmask the
oracle names them with (bit i: customer i), which pricing and the master's
keys ``j << n | mask`` use as is; restricting the primal to that support
(the auxiliary primal) and solving it exactly recovers a feasible,
(1 - delta)-approximate solution of the full marginal LP.

``solve_restricted`` also prices that primal's duals on a doubling schedule
of cut counts, with the same oracle called exactly, so an instance builds
one oracle at every delta, however often it is solved. Lifted by the priced
excess, they are a dual-feasible point whose objective bounds the LP
optimum, and the loop stops as ``certified`` once the bound is within 1e-9
of the restricted primal's objective. Until then, each checkpoint runs
pricing rounds: the sets that price out join the primal, which is solved
again from its last basis. One ``lp.RestrictedMaster`` holds that primal
for the whole solve; new sets join it as nonbasic columns, and its first
solve starts from a known feasible basis, without phase 1.

Iterations count cut steps only: when the center passes every check the
incumbent is updated in place and the loop re-enters without advancing the
counter (the objective cut necessarily fires next).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import lp, mnl
from .cost_assortment import check_delta
from .instance import Instance
from .lp import (
    DualPoint,
    LpSolution,
    LpSolverError,
    RestrictedMaster,
    ViolatedSets,
    check_lp_solution,
    dual_certificate,
    weight_link_slack,
)

# a'Da at or below this multiple of eps * |a|^2 * trace(D) carries no float64
# information: the ellipsoid has zero numerical extent along the cut, either
# because it collapsed or because anisotropic growth exhausted the mantissa.
NOISE_FLOOR = 32.0 * np.finfo(float).eps
# solve_restricted certifies after 32, 64, 128, ... cuts and stops once
# the certified gap is at most CERTIFY_TOL
CERTIFY_FIRST = 32
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
    stop_reason: str  # why the loop ended: "certified", "float64_floor" or "t_max"
    trace: list[dict] | None = None

    @property
    def certified(self) -> bool:
        return self.stop_reason == "certified"

    @property
    def degenerate_stop(self) -> bool:
        return self.stop_reason == "float64_floor"

    @property
    def early_exited(self) -> bool:
        """Always False: no run stops early. perfbench/tracing.py still reads
        it for its ellipsoid.stop.early_exit count."""
        return False


def default_radius(inst: Instance) -> float:
    """Ball radius containing every candidate optimum of the normalized
    dual: the box 0 <= alpha <= 1, 0 <= beta <= 1, |gamma| <= 1 + max 1/u
    fits inside radius 10 (m + nm) max(1, max 1/u). Infinite, without a
    warning, once 1/u leaves float64 range."""
    return 10.0 * (inst.m + inst.n * inst.m) * max(1.0, 1.0 / float(inst.u.min()))


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
    trace(D) (the usual end of a run without ``certify`` at the default
    budget); or ``certify(recorded sets)`` returning true (``certified``),
    asked only after 32, 64, 128, ... cuts (``CERTIFY_FIRST``, doubling).
    Backlog cuts come from the instance's oracle, ``inst.sub_dual_oracle``,
    called at ``delta`` (exact at 0); a ``delta`` outside [0, 1) raises
    ``ValueError`` before the oracle is built. Rather than
    leave float64 range, it raises :class:`EllipsoidBreakdown` when the
    starting ball's trace n_dim R^2 is not finite, and before any update
    whose a'Da * trace(D) is not finite.

    Requires revenues normalized so every expected revenue is at most 1
    (the initial incumbent beta = 1 must be feasible).
    """
    if float(inst.r.max()) > 1.0 + 1e-12:
        raise ValueError("revenues must be normalized (max pair revenue <= 1) before running")
    n, m = inst.n, inst.m
    nm = n * m
    n_dim = 2 * nm + m
    radius = default_radius(inst)
    if not math.isfinite(n_dim * radius * radius):
        raise EllipsoidBreakdown(
            f"starting ball of radius {radius:.3e} has trace(D) = n_dim R^2 past float64 range "
            f"(smallest customer weight {float(inst.u.min()):.3e})"
        )
    if t_max is None:
        t_max = default_iteration_budget(inst)
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    check_delta(delta)

    oracle = inst.sub_dual_oracle
    s = np.zeros(n_dim)
    shape = np.eye(n_dim) * radius**2

    alpha = s[:nm].reshape(n, m)
    gamma = s[nm + m :].reshape(n, m)
    beta = s[nm : nm + m]

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
    stop_reason = "t_max"
    next_check = CERTIFY_FIRST
    incumbent_flag = False

    while t < t_max:
        kind, index, a = _find_cut(inst, oracle, delta, s, alpha, beta, gamma, obj, violated)
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
        da = shape @ a
        ada = float(a @ da)
        if not math.isfinite(ada * trace_d):
            # every (Da)_i^2 <= a'Da * D_ii, so the update below stays in range
            raise EllipsoidBreakdown(
                f"a'Da * trace(D) = {ada:.3e} * {trace_d:.3e} past float64 range at t={t} "
                f"on {kind} cut {_shown(kind, index, n)}"
            )
        noise = NOISE_FLOOR * float(a @ a) * abs(trace_d)
        if ada <= noise:
            if trace_d > 0.0 and ada > -noise:
                # zero numerical extent along the cut: float64 is exhausted,
                # stop with the current state
                stop_reason = "float64_floor"
                break
            raise EllipsoidBreakdown(
                f"a'Da = {ada:.3e} <= 0 at t={t} on {kind} cut {_shown(kind, index, n)}; "
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
            shown = _shown(kind, index, n)
            trace_rows.append({"t": t, "cut": kind, "index": shown, "obj": obj, "incumbent_updated": incumbent_flag})
        incumbent_flag = False
        if certify is not None and t == next_check:
            if certify(violated):
                stop_reason = "certified"
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
        stop_reason=stop_reason,
        trace=trace_rows,
    )


def _shown(kind: str, index, n: int):
    """A cut's index as ``--trace`` rows and errors show it: a backlog set as its customers."""
    return (index[0], mnl.subset_of(index[1], n)) if kind == "assortment-cost" else index


def _find_cut(inst, oracle, delta, s, alpha, beta, gamma, obj, violated):
    """Locate the first violated constraint in the fixed scan order and
    return (kind, index, cut vector a), with a new array on every call;
    kind None when the center is feasible and improving."""
    n, m = inst.n, inst.m
    nm = n * m
    a = np.zeros(s.size)

    if float(s[: nm + m].sum()) >= obj:
        a[: nm + m] = -1.0
        return "objective", None, a

    below = weight_link_slack(inst, alpha, gamma) < 0.0
    pos = int(below.argmax())
    if below.item(pos):
        i, j = divmod(pos, m)
        a[i * m : (i + 1) * m] = 1.0
        a[pos] += 1.0 / inst.u[i, j]
        a[nm + m + pos] = -1.0
        return "weight-link", (i, j), a

    below = alpha < 0.0
    pos = int(below.argmax())
    if below.item(pos):
        a[pos] = 1.0
        return "alpha-nonnegative", divmod(pos, m), a

    for j in range(m):
        value, mask = oracle(j, gamma, delta)
        if value > beta[j]:
            violated.add(j, mask)
            a[nm + j] = 1.0
            # gamma_ij sits at nm + m + i m + j: customer i's bit of the mask
            a[nm + m + j :: m] = mask >> np.arange(n) & 1
            return "assortment-cost", (j, mask), a

    return None, None, None


@dataclass
class RestrictedSolve:
    """One constraint-generation solve of the marginal LP: the cut-loop
    record; the restricted master the solution was extracted from, which
    holds the recorded sets and those the pricing rounds added and counts
    the pivots of all its solves; the number of pricing rounds and of the
    sets they added; the master's checked optimal solution; and a
    dual-feasible point of the full LP whose objective exceeds the
    solution's by ``certified_gap``."""

    run: EllipsoidResult
    master: RestrictedMaster
    pricing_rounds: int
    priced_sets_total: int
    solution: LpSolution
    certificate: DualPoint
    certified_gap: float


def solve_restricted(
    inst: Instance,
    t_max: int | None = None,
    *,
    delta: float = 0.0,
    trace: bool = False,
) -> RestrictedSolve:
    """Approximately solve the marginal LP: cut loop, then exact solve of
    the primal restricted to the recorded backlog support.

    The solution is feasible for the full marginal LP. One
    :class:`~twosided.lp.RestrictedMaster` holds the restricted primal. After
    32, 64, 128, ... cuts the sets recorded since its last solve join it; it
    is solved from its last basis and its duals priced with the exact oracle
    (see :func:`~twosided.lp.dual_certificate`). While the gap is above
    1e-9, each pricing round adds every supplier's set that prices out and
    solves again; the rounds end once the gap is at most 1e-9, which stops
    the loop as ``certified``, or once a round adds no new set, and the loop
    cuts on. It otherwise stops at ``t_max`` or the float64 floor, and the
    master is solved and priced again if it gained sets since its last
    solve. The returned ``certified_gap`` bounds how far the objective can be
    below the true optimum, at every ``delta``; with ``delta > 0`` the
    objective is also at least (1 - delta) times the optimum. Raises
    :class:`LpSolverError` when the solution fails the feasibility check of
    the full marginal LP. The pricing calls the cut loop's oracle,
    ``inst.sub_dual_oracle``, at ``delta = 0``, so an instance builds one
    oracle at every ``delta``.
    """
    rounds = priced = 0
    master: RestrictedMaster | None = None
    result = certificate = None
    gap, pricing = math.inf, []

    def price(sets) -> list[int]:
        """Add ``sets`` to the master and, when it gained any or was never
        solved, solve it and price its duals; return the keys it gained."""
        nonlocal result, certificate, gap, pricing
        added = master.add([j << inst.n | mask for j, mask in sets])
        if added or result is None:
            result = master.solve()
            certificate, gap, pricing = dual_certificate(inst.sub_dual_oracle, master.dual_point(result))
        return added

    def price_recorded(violated: ViolatedSets) -> None:
        nonlocal master
        if master is None:
            master = lp.build_aux_primal(inst, violated)
        price((j, mask) for j in range(inst.m) for mask in violated[j])

    def certify(violated: ViolatedSets) -> bool:
        nonlocal rounds, priced
        price_recorded(violated)
        # an unchanged master keeps its last pricing, whose sets it holds
        while gap > CERTIFY_TOL:
            added = price(pricing)
            if not added:
                break
            priced += len(added)
            rounds += 1
        return gap <= CERTIFY_TOL

    run = run_ellipsoid(inst, t_max, delta=delta, trace=trace, certify=certify)
    price_recorded(run.violated)
    solution = master.extract(result)
    problems = check_lp_solution(inst, solution)
    if problems:
        raise LpSolverError(
            "restricted-support solve returned an infeasible point: " + "; ".join(problems)
        )
    return RestrictedSolve(
        run=run,
        master=master,
        pricing_rounds=rounds,
        priced_sets_total=priced,
        solution=solution,
        certificate=certificate,
        certified_gap=gap,
    )
