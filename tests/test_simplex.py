import numpy as np
import pytest

import twosided.lp as lp_module
import twosided.simplex as simplex_module
from oracles import full_master, lp_optimum_by_vertex_enumeration, reference_assortment_distribution_lp
from twosided.ellipsoid import solve_restricted
from twosided.instance import GENERATOR_KINDS, generate, normalize_revenues
from twosided.lp import (
    RestrictedMaster,
    ViolatedSets,
    build_aux_primal,
    check_lp_solution,
    lp1_exact_small,
    lp2_exact_small,
)
from twosided.simplex import FEASIBILITY_TOL, LinearProgram, LpSolverError, _check_optimality, solve_lp


def test_single_bound():
    lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_unbounded():
    lp = LinearProgram(c=[1.0])
    assert solve_lp(lp).status == "unbounded"


def test_infeasible():
    # x <= 1 and -x <= -2 cannot both hold for x >= 0
    lp = LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
    assert solve_lp(lp).status == "infeasible"


def test_equality_rows():
    # max x + y with x + y = 1
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_minimization():
    lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], maximize=False)
    res = solve_lp(lp)
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_redundant_constraints_handled():
    lp = LinearProgram(
        c=[1.0, 1.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],  # second row redundant
        b_eq=[1.0, 2.0],
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def _cycling_lp() -> LinearProgram:
    # classic cycling construction for naive pivoting
    return LinearProgram(
        c=[0.75, -150.0, 0.02, -6.0],
        a_ub=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
        maximize=True,
    )


def _chvatal_lp() -> LinearProgram:
    # Chvatal's example: Dantzig's entering rule with the smallest-index
    # leaving rule cycles on it
    return LinearProgram(
        c=[10.0, -57.0, -9.0, -24.0],
        a_ub=[
            [0.5, -5.5, -2.5, 9.0],
            [0.5, -1.5, -0.5, 1.0],
            [1.0, 0.0, 0.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
        maximize=True,
    )


def test_degenerate_cycling_guard():
    for lp in (_cycling_lp(), _chvatal_lp()):
        res = solve_lp(lp)
        assert res.status == "optimal"
        oracle = lp_optimum_by_vertex_enumeration(lp)
        assert res.objective == pytest.approx(oracle, abs=1e-9)


def _scaled_chvatal_start() -> tuple[simplex_module._RevisedBasis, np.ndarray, np.ndarray]:
    """Chvatal's LP in min form with its slacks, every column A_j (slacks
    included) scaled by s_j = k / sqrt(1 - k^2 |A_j|^2) at k = 0.05, at its
    slack basis; returns the basis, the scaled costs and s. Each s_j times
    the scaled column's weight is k, so the weighted rule enters exactly the
    columns Dantzig's rule enters on the unscaled LP, and the
    smallest-index leaving rule leaves the same rows."""
    lp = _chvatal_lp()
    a = np.hstack([lp.a_ub, np.eye(3)])
    scale = 0.05 / np.sqrt(1.0 - 0.05**2 * (a**2).sum(axis=0))
    start = simplex_module._RevisedBasis(
        np.asfortranarray(a * scale), np.arange(4, 7), np.diag(1.0 / scale[4:]), lp.b_ub / scale[4:]
    )
    return start, np.concatenate([-lp.c, np.zeros(3)]) * scale, scale


def test_dantzig_pricing_cycles_without_the_bland_fallback(monkeypatch):
    # Chvatal's LP itself does not cycle under the weighted rule; scaled so
    # that the rule makes Dantzig's choices on it, it cycles unless Bland's
    # rule takes over
    start, cost, scale = _scaled_chvatal_start()
    assert np.allclose(scale * simplex_module._column_weights(start.cols), 0.05, rtol=1e-14, atol=0.0)
    pivots = simplex_module._pivot_loop(start, cost, n_cols=7, max_iters=300)
    x = np.zeros(7)
    x[start.basis] = start.x_b
    assert 0 < pivots < 300 and np.allclose(x * scale, [1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0])
    monkeypatch.setattr(simplex_module, "DEGENERATE_RUN", 10**9)
    start, cost, _ = _scaled_chvatal_start()
    with pytest.raises(LpSolverError, match="exceeded 300 pivots"):
        simplex_module._pivot_loop(start, cost, n_cols=7, max_iters=300)


def test_weighted_rule_enters_the_most_negative_reduced_cost_times_weight():
    weighted = simplex_module._weighted_dantzig
    # scaled -0.6, -1.0, -1.0 and 0.5: the lower index of the two -1.0
    # enters, not column 0 of the most negative reduced cost
    assert weighted(np.array([0.2, 1.0, 0.5, 1.0]), np.array([-3.0, -1.0, -2.0, 0.5]), 1e-12) == 1
    # column 1 is not below -tol, so its smaller scaled value does not count
    assert weighted(np.array([0.1, 1.0]), np.array([-2e-12, -5e-13]), 1e-12) == 0
    assert weighted(np.array([0.1, 1.0]), np.array([-5e-13, -5e-13]), 1e-12) == -1
    assert weighted(np.ones(0), np.zeros(0), 1e-12) == -1


def test_column_weights_are_finite_for_zero_columns():
    # the LPs of test_no_constraint_rows have no rows, so every column is zero
    assert simplex_module._column_weights(np.zeros((0, 2))).tolist() == [1.0, 1.0]
    weights = simplex_module._column_weights(np.array([[0.0, 3.0], [0.0, 4.0]], order="F"))
    assert weights.tolist() == [1.0, 1.0 / np.sqrt(26.0)]


def test_first_pivot_enters_the_weighted_choice(monkeypatch):
    # min -2 x0 - x1  s.t.  4 x0 + x1 + s = 1, from the slack basis: Dantzig's
    # rule enters x0 (-2 below -1), the weighted rule x1 (-1 / sqrt(2) below
    # -2 / sqrt(17)), which is optimal at once
    cols = np.array([[4.0, 1.0, 1.0]], order="F")
    start = simplex_module._RevisedBasis(cols, np.array([2]), np.eye(1), np.ones(1))
    entered = []
    pivot = start.pivot

    def recorded(row, enter, col):
        entered.append(enter)
        pivot(row, enter, col)

    monkeypatch.setattr(start, "pivot", recorded)
    assert simplex_module._pivot_loop(start, np.array([-2.0, -1.0, 0.0]), n_cols=3, max_iters=10) == 1
    assert entered == [1] and start.basis.tolist() == [1] and start.x_b.tolist() == [1.0]


def _tiny_price_first_lp() -> LinearProgram:
    """min -1e-10 v0 - v1  s.t.  1e-9 v0 + v1 <= 1, -v1 <= 1: v0, the
    first column and so the first one Bland's rule scans, is priced between
    -ENTERING_TOL and -FEASIBILITY_TOL in both phases and has no ratio-test
    row above FEASIBILITY_TOL; v1 is the column that must enter. Its column
    sums to 0, so phase 1 leaves it out and ends on the slack basis, where
    phase 2 prices v0 at -1e-10. The optimum is v1 = 1, objective -1."""
    rows = np.array([[1e-9, 1.0], [0.0, -1.0]])
    return LinearProgram(c=[-1e-10, -1.0], a_ub=rows, b_ub=[1.0, 1.0], maximize=False)


@pytest.mark.parametrize("degenerate_run", [simplex_module.DEGENERATE_RUN, 0])
def test_tiny_priced_column_without_a_ratio_row_is_not_optimality(degenerate_run, monkeypatch):
    # phase 1 prices v0 at -1e-9 and phase 2 (from the slack basis) at
    # -1e-10; neither phase may stop there while a slack or v1 is priced
    # at -1, under the weighted rule (which enters those first: their
    # weights are at least 1 / sqrt(3), v0's about 1) or
    # (DEGENERATE_RUN 0) Bland's rule (which scans v0 first)
    monkeypatch.setattr(simplex_module, "DEGENERATE_RUN", degenerate_run)
    lp = _tiny_price_first_lp()
    starts = []
    pivot_loop = simplex_module._pivot_loop

    def recorded(state, cost, **kwargs):
        starts.append(state.basis.tolist())
        return pivot_loop(state, cost, **kwargs)

    monkeypatch.setattr(simplex_module, "_pivot_loop", recorded)
    res = solve_lp(lp)
    # phase 1 starts on the artificials, phase 2 on the two slacks
    k = lp.num_vars
    assert starts == [[k + 2, k + 3], [k, k + 1]]
    assert res.status == "optimal" and res.objective == -1.0
    assert res.x[-1] == 1.0 and res.x[:-1].max() == 0.0
    assert_dual_certificate(lp, res)


def test_tiny_priced_ray_does_not_hide_a_real_one(monkeypatch):
    # v0 also has a ray; phase 2's scan at the tolerance finds v1, priced
    # at -1 and now with no ratio-test row either, which shows the LP
    # unbounded, under the weighted rule and (DEGENERATE_RUN 0) Bland's rule
    lp = _tiny_price_first_lp()
    lp.a_ub[0, -1] = 0.0
    for degenerate_run in (simplex_module.DEGENERATE_RUN, 0):
        monkeypatch.setattr(simplex_module, "DEGENERATE_RUN", degenerate_run)
        assert solve_lp(lp).status == "unbounded"


def _random_bounded_lp(rng: np.random.Generator) -> LinearProgram:
    k = int(rng.integers(2, 6))
    me = int(rng.integers(0, 3))
    mu = int(rng.integers(1, 4))
    x0 = rng.uniform(0.0, 2.0, k)  # known feasible point
    a_eq = rng.normal(0.0, 1.0, (me, k)) if me else None
    b_eq = (a_eq @ x0) if me else None
    a_ub = rng.normal(0.0, 1.0, (mu, k))
    b_ub = a_ub @ x0 + rng.uniform(0.0, 1.0, mu)
    # cap the total mass so the LP is bounded
    a_ub = np.vstack([a_ub, np.ones(k)])
    b_ub = np.append(b_ub, x0.sum() + 5.0)
    c = rng.normal(0.0, 1.0, k)
    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def test_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(77)
    solved = 0
    for _ in range(40):
        lp = _random_bounded_lp(rng)
        res = solve_lp(lp)
        assert res.status == "optimal"
        oracle = lp_optimum_by_vertex_enumeration(lp)
        assert oracle is not None
        assert res.objective == pytest.approx(oracle, abs=1e-7)
        solved += 1
    assert solved == 40


def _degenerate_lps() -> list[LinearProgram]:
    """A cone of integer rows through the origin, capped at total mass 1:
    the origin is a degenerate vertex, where pivots move nothing."""
    rng = np.random.default_rng(79)
    lps = []
    for _ in range(20):
        k, mu = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        a_ub = np.vstack([rng.integers(-3, 4, (mu, k)), np.ones(k)])
        lps.append(LinearProgram(c=rng.integers(-3, 4, k), a_ub=a_ub, b_ub=np.append(np.zeros(mu), 1.0)))
    return lps


def test_matches_vertex_enumeration_on_degenerate_lps():
    for lp in _degenerate_lps():
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(lp_optimum_by_vertex_enumeration(lp), abs=1e-9)


def test_bland_fallback_agrees_with_the_default_rule(monkeypatch):
    inst = normalize_revenues(generate("uniform-random", 8, 4, 6))
    marginal = full_master(inst).lp
    degenerate = [_cycling_lp(), _chvatal_lp(), marginal] + _degenerate_lps()
    rng = np.random.default_rng(77)
    lps = degenerate + [_random_bounded_lp(rng) for _ in range(40)]
    default = [solve_lp(lp) for lp in lps]
    bland = _counting(monkeypatch, "_bland")
    kkt = _counting(monkeypatch, "_check_optimality")
    # Bland's rule takes over after every degenerate pivot
    monkeypatch.setattr(simplex_module, "DEGENERATE_RUN", 1)
    for index, (lp, want) in enumerate(zip(lps, default)):
        scans = len(bland)
        got = solve_lp(lp)
        assert got.status == "optimal"
        assert abs(got.objective - want.objective) <= 1e-12
        if index < len(degenerate):
            assert len(bland) > scans
    assert len(kkt) == len(lps)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_10x4_exact_lp_pivot_ceiling(kind, monkeypatch):
    # the weighted rule takes 353-385 pivots here in the two-phase solve_lp,
    # Bland's rule 1,804-2,472; the master inside lp2_exact_small, from its
    # feasible start basis and pricing from its keys, 26-36
    inst = normalize_revenues(generate(kind, 10, 4, 77))
    assert 0 < solve_lp(full_master(inst).lp).iterations <= 1000
    results = []
    solve = RestrictedMaster.solve

    def recorded(self):
        results.append(solve(self))
        return results[-1]

    monkeypatch.setattr(RestrictedMaster, "solve", recorded)
    lp2_exact_small(inst)
    assert len(results) == 1 and 0 < results[0].iterations <= 500


def test_stalled_pivot_loop_stops_at_its_row_budget(monkeypatch):
    # an entering rule that always returns the master's first lambda column,
    # lambda_{0, empty}: basic at 1 in the start basis, so its reduced cost is
    # 0 and it is never eligible. Each pivot swaps it with itself and only the
    # budget ends the loop: 2000 + 200 per row, 18,800 pivots on the 84 rows
    # of the full 10x4 marginal LP, once before the master re-inverts its
    # basis and once after. A budget that counted the 4,176 columns as well
    # would run 854,000 pivots, minutes of them, before naming the stall.
    inst = normalize_revenues(generate("uniform-random", 10, 4, 77))
    basic = 2 * inst.n * inst.m
    calls = 0

    def stalled(weights, reduced, tol):
        nonlocal calls
        calls += 1
        if calls > 2 * 30_000:
            pytest.fail("the stalled pivot loop ran past 30,000 pivots per solve")
        return basic

    monkeypatch.setattr(simplex_module, "_weighted_dantzig", stalled)
    with pytest.raises(LpSolverError, match=r"exceeded 18800 pivots \(rows=84, cols=4176\)"):
        lp2_exact_small(inst)
    assert calls == 2 * 18_800


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_exact_lp_runs_no_two_phase_solve(kind, monkeypatch):
    # lp2_exact_small solves on the restricted master and lp1_exact_small
    # from its own start basis: neither runs phase 1 or drives out artificials
    inst = normalize_revenues(generate(kind, 6, 3, 77))
    cold = solve_lp(full_master(inst).lp)
    small = normalize_revenues(generate(kind, 4, 3, 77))
    cold_small = solve_lp(reference_assortment_distribution_lp(small))

    def refused(*args, **kwargs):
        raise AssertionError("two-phase solve called")

    assert not hasattr(lp_module, "solve_lp")
    monkeypatch.setattr(simplex_module, "solve_lp", refused)
    monkeypatch.setattr(simplex_module._RevisedBasis, "drive_out_artificials", refused)
    sol = lp2_exact_small(inst)
    assert abs(sol.objective - cold.objective) <= 1e-9
    assert check_lp_solution(inst, sol) == []
    assert abs(lp1_exact_small(small) - cold_small.objective) <= 1e-9


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_marginal_lp_solves_build_no_linear_program(kind, monkeypatch):
    # the master writes its own columns: a LinearProgram is built only when
    # its lp is read (--dump-lp, the tracer, tests)
    inst = normalize_revenues(generate(kind, 4, 3, 77))

    def refused(*args, **kwargs):
        raise AssertionError("LinearProgram built")

    monkeypatch.setattr(lp_module, "LinearProgram", refused)
    assert check_lp_solution(inst, lp2_exact_small(inst)) == []
    assert solve_restricted(inst).run.stop_reason == "certified"


def test_solution_is_basic_and_feasible():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lp = _random_bounded_lp(rng)
        res = solve_lp(lp)
        x = res.x
        assert (x >= -1e-9).all()
        if lp.a_eq.size:
            assert np.abs(lp.a_eq @ x - lp.b_eq).max() < 1e-7
        assert (lp.a_ub @ x - lp.b_ub).max() < 1e-7


def assert_dual_certificate(lp: LinearProgram, res, tol: float = FEASIBILITY_TOL) -> None:
    """``res.duals`` prove ``res.objective`` optimal: the dual objective
    equals it and the reduced costs and a_ub multipliers have the optimal
    sign."""
    me = lp.a_eq.shape[0]
    assert res.duals.shape == (me + lp.a_ub.shape[0],)
    duals_eq, duals_ub = res.duals[:me], res.duals[me:]
    assert lp.b_eq @ duals_eq + lp.b_ub @ duals_ub == pytest.approx(res.objective, abs=1e-9)
    reduced = lp.c - duals_eq @ lp.a_eq - duals_ub @ lp.a_ub
    sense = 1.0 if lp.maximize else -1.0
    assert (sense * reduced <= tol).all()
    assert (sense * duals_ub >= -tol).all()


def test_duals_certify_random_lps():
    rng = np.random.default_rng(78)
    for _ in range(40):
        lp = _random_bounded_lp(rng)
        for maximize in (True, False):
            lp.maximize = maximize
            res = solve_lp(lp)
            assert res.status == "optimal"
            assert_dual_certificate(lp, res)


def test_duals_certify_redundant_rows():
    lp = LinearProgram(c=[1.0, 2.0, 0.5], a_eq=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], b_eq=[1.0, 2.0],
                       a_ub=[[0.0, 1.0, 0.0]], b_ub=[0.4])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.4, abs=1e-9)
    assert len(res.basis) == 2  # the redundant row's artificial is not listed
    assert_dual_certificate(lp, res)


def test_duals_certify_marginal_lp():
    inst = normalize_revenues(generate("uniform-random", 4, 2, 6))
    lp = full_master(inst).lp
    res = solve_lp(lp)
    assert res.objective == pytest.approx(lp2_exact_small(inst).objective, abs=1e-12)
    assert_dual_certificate(lp, res)


def test_duals_only_at_an_optimum():
    assert solve_lp(LinearProgram(c=[1.0])).duals is None
    assert solve_lp(LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])).duals is None


def test_pivot_budget_guards_both_phases():
    # phase 1 must pivot both artificials out
    two_rows = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 0.0], [0.0, 1.0]], b_eq=[1.0, 1.0])
    assert solve_lp(two_rows).iterations == 2
    with pytest.raises(LpSolverError, match="exceeded 1 pivots"):
        solve_lp(two_rows, max_iters=1)
    # b = 0 and no column sums above 0: phase 1 starts optimal, so both
    # (degenerate) pivots are phase-2 pivots. From x0, the weighted rule
    # enters x1 (1 / sqrt(2) above 0.75 / sqrt(1.25)), which prices x2 at
    # -0.25, and x2 enters
    cone = LinearProgram(c=[0.0, 1.0, 0.75], a_eq=[[-1.0, -1.0, -0.5]], b_eq=[0.0])
    res = solve_lp(cone)
    assert (res.status, res.iterations, res.objective) == ("optimal", 2, 0.0)
    with pytest.raises(LpSolverError, match="exceeded 1 pivots"):
        solve_lp(cone, max_iters=1)


def test_no_constraint_rows():
    assert solve_lp(LinearProgram(c=[1.0, 0.0])).status == "unbounded"
    res = solve_lp(LinearProgram(c=[-1.0, 0.0]))
    assert res.status == "optimal" and res.objective == 0.0
    assert res.x.tolist() == [0.0, 0.0] and res.basis == () and res.duals.size == 0


def test_kkt_check_names_each_failure():
    # min -x0 - 2 x1 s.t. x0 + x1 + slack = 1: optimum x1 = 1, y = -2
    cols, b, cost = np.array([[1.0, 1.0, 1.0]]), np.array([1.0]), np.array([-1.0, -2.0, 0.0])
    x, y = np.array([0.0, 1.0, 0.0]), np.array([-2.0])
    _check_optimality(cols, b, cost, x, y, FEASIBILITY_TOL)
    with pytest.raises(LpSolverError, match="primal residual 1.000e-01.*duality gap"):
        _check_optimality(cols, b, cost, np.array([0.0, 1.1, 0.0]), y, FEASIBILITY_TOL)
    with pytest.raises(LpSolverError, match="primal residual 1.000e-01"):
        _check_optimality(cols, b, cost, np.array([-0.1, 1.1, 0.0]), y, FEASIBILITY_TOL)
    with pytest.raises(LpSolverError, match="reduced cost -1.000e\\+00 at column 1.*duality gap"):
        _check_optimality(cols, b, cost, x, np.array([-1.0]), FEASIBILITY_TOL)


def test_kkt_check_fails_on_nan():
    cols, b, cost = np.array([[1.0, 1.0, 1.0]]), np.array([1.0]), np.array([-1.0, -2.0, 0.0])
    x, y = np.array([0.0, 1.0, 0.0]), np.array([-2.0])
    with pytest.raises(LpSolverError, match="primal residual nan.*duality gap nan"):
        _check_optimality(cols, b, cost, np.array([0.0, np.nan, 0.0]), y, FEASIBILITY_TOL)
    with pytest.raises(LpSolverError, match="reduced cost nan at column 0.*duality gap nan"):
        _check_optimality(cols, b, cost, x, np.array([np.nan]), FEASIBILITY_TOL)
    with pytest.raises(LpSolverError, match="duality gap nan"):
        _check_optimality(cols, b, np.array([-1.0, np.nan, 0.0]), x, y, FEASIBILITY_TOL)


def test_batched_kkt_check_is_the_one_lp_check(monkeypatch):
    # the optima of a batch of marginal LPs, each solved alone, then spoiled
    # one condition at a time: the batched check passes exactly the blocks
    # that _check_optimality passes
    captured = []
    monkeypatch.setattr(lp_module, "_optimize_lockstep", lambda *args: captured.append(args) or (None, []))
    batch = [generate(kind, 3, 2, 7) for kind in GENERATOR_KINDS]
    batch += [generate("uniform-random", 3, 2, seed) for seed in (8, 9)]
    with pytest.raises(TypeError):  # the captured call returns no values
        lp_module.lp2_exact_values(batch)
    ((cols, basis, binv, b, cost),) = captured
    cost, xs, ys = cost.copy(), [], []
    for t in range(cols.shape[0]):
        state = simplex_module._RevisedBasis(cols[t], basis[t].copy(), binv[t].copy(), b[t].copy())
        _, x, y = simplex_module._optimize(state, b[t], cost[t], cost.shape[1])
        xs.append(x)
        ys.append(y)
    x, y = np.array(xs), np.array(ys)
    x[1, np.flatnonzero(x[1])[0]] += 1e-6  # the primal residual
    reduced = cost[2] - y[2] @ cols[2]
    j = np.flatnonzero(x[2] == 0.0)[reduced[x[2] == 0.0].argmin()]
    cost[2, j] -= reduced[j] + 1e-6  # one nonbasic reduced cost, and nothing else
    x[3, 0] = np.nan
    y[4, 0] = np.nan
    cost[5, np.flatnonzero(x[5] > 0.1)[0]] += 1e-3  # a basic cost: the duality gap alone
    reduced = cost - np.matmul(y[:, None, :], cols)[:, 0]
    holds = simplex_module._kkt_holds(cols, b, cost, x, y, reduced)
    for t in range(cols.shape[0]):
        try:
            _check_optimality(cols[t], b[t], cost[t], x[t], y[t], FEASIBILITY_TOL)
            alone = True
        except LpSolverError:
            alone = False
        assert bool(holds[t]) is alone, t
    assert holds.tolist() == [True, False, False, False, False, False]


def test_master_that_cannot_re_invert_raises_a_solver_error():
    master, _, _ = _master()
    master.cols[:, master.basis[0]] = 0.0  # a zero basic column: B is singular
    with pytest.raises(LpSolverError, match="cannot be re-inverted"):
        master._reinvert()


def _counting(monkeypatch, name: str, owner=simplex_module) -> list[int]:
    """Count the calls of ``owner``'s function ``name`` (the simplex
    module's by default)."""
    calls = []
    function = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return function(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _master(kind: str = "uniform-random", n: int = 6, m: int = 2, seed: int = 77, sets: int = 3):
    """A restricted master over each supplier's first ``sets`` nonempty
    sets, the instance, and the key ``j << n | mask`` of every (supplier,
    set) of the instance, set by set."""
    inst = normalize_revenues(generate(kind, n, m, seed))
    violated = ViolatedSets(inst.m)
    for j in range(inst.m):
        for mask in range(1, sets + 1):
            violated.add(j, mask)
    every = [j << inst.n | mask for mask in range(2**inst.n) for j in range(inst.m)]
    return build_aux_primal(inst, violated), inst, every


def _master_lp(master) -> LinearProgram:
    """The marginal LP over the master's sets, its lambda columns listed
    per supplier."""
    return RestrictedMaster(master.inst, sorted(master.keys.tolist(), key=lambda key: key >> master.n)).lp  # stable


def _assert_prices_from_keys(master, rng) -> None:
    """The master's reduced costs, from its keys and as it selects them,
    equal ``cost - y.A`` formed densely from ``master.lp`` (MNL slacks, then
    x and lambda) within 1e-12, for random duals ``y``."""
    lp = master.lp
    a = np.vstack([lp.a_eq, lp.a_ub])
    a = np.hstack([np.eye(a.shape[0])[:, lp.a_eq.shape[0] :], a])
    cost = np.concatenate([np.zeros(lp.a_ub.shape[0]), -lp.c])
    for _ in range(3):
        y = rng.uniform(-2.0, 2.0, a.shape[0])
        want = cost - y @ a
        for pricing in (master.key_pricing, master.pricing):
            assert np.abs(pricing(cost, cost.size)(y) - want).max() <= 1e-12


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_master_prices_lambda_columns_from_their_keys(kind):
    rng = np.random.default_rng(91)
    # n = 1 and 2 split at h = 0 and 1: an empty low half, then one customer
    for n, m in ((1, 3), (2, 2), (3, 2), (10, 4)):
        _assert_prices_from_keys(full_master(normalize_revenues(generate(kind, n, m, 77))), rng)
    # masters grown by add, out of key order: the added columns' table
    # entries are read from their keys
    master, inst, every = _master(kind, 5, 3, 78)
    _assert_prices_from_keys(master, rng)
    for chunk in (every[40:47], every[::-1][:30], every):
        master.add(chunk)
        _assert_prices_from_keys(master, rng)
    # n = 20: a high half of ten customers, with a few keys
    inst = normalize_revenues(generate(kind, 20, 2, 79))
    master = RestrictedMaster(inst, [0, 1 << 20, (1 << 20) - 1, 1 << 20 | 0b1010 << 10 | 0b11])
    _assert_prices_from_keys(master, rng)
    master.add([1 << 20 | 1 << 19, 1 << 9, 0b1 << 10, (2 << 20) - 1])
    _assert_prices_from_keys(master, rng)


def test_master_selects_its_pricing_by_lambda_columns_and_table_rows(monkeypatch):
    # both paths give the same reduced costs, so count the key pricings of
    # one solve: a full 8x2 master (512 lambda columns) prices densely, a
    # full 8x4 one (1,024) from its keys, and a 20x2 master, whose table has
    # 4,096 rows, densely with three keys and with 2,048
    calls = _counting(monkeypatch, "key_pricing", lp_module.RestrictedMaster)
    inst = normalize_revenues(generate("uniform-random", 20, 2, 79))
    masters = [full_master(normalize_revenues(generate("uniform-random", 8, m, 77))) for m in (2, 4)]
    masters.append(RestrictedMaster(inst, [0, 1 << 20, 1 << 20 | 0b1010 << 10 | 0b11]))
    masters.append(RestrictedMaster(inst, [j << 20 | mask for j in range(2) for mask in range(1024)]))
    counts = []
    for master in masters:
        master.solve()
        counts.append(len(calls))
        calls.clear()
    assert counts == [0, 1, 0, 0]


def test_masters_of_one_size_share_one_read_only_half_sum_matrix(monkeypatch):
    # the matrix is built once per (n, m), and a master keeps no key-pricing
    # state: its attributes after a key-priced solve are those it was built with
    calls = _counting(monkeypatch, "key_pricing", lp_module.RestrictedMaster)
    lp_module._half_sum_matrix.cache_clear()
    for kind in ("uniform-random", "supplier-uniform"):
        master = full_master(normalize_revenues(generate(kind, 8, 4, 77)))
        before = set(vars(master))
        master.solve()
        assert set(vars(master)) == before
    info = lp_module._half_sum_matrix.cache_info()
    assert len(calls) == 2 and (info.misses, info.hits) == (1, 1)
    matrix = lp_module._half_sum_matrix(8, 4)
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 2.0


def test_master_start_basis_is_feasible():
    master, inst, _ = _master()
    nm = inst.n * inst.m
    matrix = master.cols[:, master.basis]
    # lambda_{j,{}} per supplier, then every x and every MNL slack
    assert [master.lam_index[col - 2 * nm] for col in master.basis[: inst.m]] == [(j, ()) for j in range(inst.m)]
    assert master.basis[inst.m :].tolist() == list(range(nm, 2 * nm)) + list(range(nm))
    # the basis matrix is its own inverse, and the basic values are b >= 0
    assert (master.binv @ matrix == np.eye(matrix.shape[0])).all()
    assert (matrix @ master.x_b == master._b).all() and master.x_b.min() >= 0.0


def test_master_solve_after_add_equals_a_cold_solve():
    master, inst, every = _master()
    first = master.solve()
    lp = _master_lp(master)
    assert abs(first.objective - solve_lp(lp).objective) <= 1e-12
    assert_dual_certificate(lp, first)
    added = master.add(every)
    assert len(added) == inst.m * (2**inst.n - 4) and master.add(added) == []
    warm = master.solve()
    full = _master_lp(master)
    cold = solve_lp(full)
    assert abs(warm.objective - cold.objective) <= 1e-12
    assert abs(warm.objective - lp2_exact_small(inst).objective) <= 1e-12
    assert warm.iterations < cold.iterations
    assert master.pivots == first.iterations + warm.iterations
    assert_dual_certificate(full, warm)
    # the optimal basis needs no pivot at all
    again = master.solve()
    assert again.iterations == 0 and abs(again.objective - warm.objective) <= 1e-12


def test_master_columns_are_the_marginal_lp_columns():
    # columns added out of supplier order keep their ids and, bit for bit,
    # the coefficients the marginal LP over the same sets gives them
    master, inst, every = _master("same-order-additive", 4, 3, 5)
    seeded, added = master.keys.tolist(), [2 << inst.n | 9, 0 << inst.n | 12, 2 << inst.n | 5]
    master.add(added)
    # a master grown by add is the master built over all its sets at once
    at_once = RestrictedMaster(inst, seeded + added)
    grown_lp, at_once_lp = master.lp, at_once.lp
    for name in ("c", "a_eq", "b_eq", "a_ub", "b_ub"):
        assert getattr(grown_lp, name).tobytes() == getattr(at_once_lp, name).tobytes(), name
    assert grown_lp.names == at_once_lp.names and master.keys.tolist() == at_once.keys.tolist()
    assert master.cols.tobytes() == at_once.cols.tobytes() and master._c.tobytes() == at_once._c.tobytes()
    want = _master_lp(master)
    nm = inst.n * inst.m
    lams = sorted(master.lam_index, key=lambda pair: pair[0])  # stable: per supplier
    order = list(range(nm)) + [nm + lams.index(pair) for pair in master.lam_index]
    assert master.cols[:, nm:].tobytes() == np.vstack([want.a_eq, want.a_ub])[:, order].tobytes()
    assert master._c[nm:].tobytes() == want.c[order].tobytes()
    # the slacks of the MNL rows come first
    assert (master.cols[:, :nm] == np.eye(master._b.size)[:, -nm:]).all() and not master._c[:nm].any()
    assert (master._b == np.concatenate([want.b_eq, want.b_ub])).all()


def test_master_lp_is_read_only():
    master, inst, _ = _master()
    lp = master.lp
    assert np.shares_memory(lp.a_eq, master.cols)
    for name in ("c", "a_eq", "b_eq", "a_ub", "b_ub"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(lp, name)[...] = 7.0
    # the master solves as one whose LP was never read
    got, want = master.solve(), RestrictedMaster(inst, master.keys).solve()
    assert (got.objective, got.iterations) == (want.objective, want.iterations)
    assert got.x.tobytes() == want.x.tobytes() and got.duals.tobytes() == want.duals.tobytes()


def test_every_master_solve_is_kkt_checked(monkeypatch):
    kkt = _counting(monkeypatch, "_check_optimality")
    master, inst, every = _master()
    for count in (1, 2, 3):
        master.solve()
        assert len(kkt) == count
        master.add([0 << inst.n | 10 + count])


def _drift(master) -> None:
    """Perturb the master's basis inverse by about 1e-6."""
    master.binv = master.binv + 1e-6 * np.random.default_rng(3).normal(size=master.binv.shape)


def test_master_reinverts_once_after_drift(monkeypatch):
    master, inst, every = _master()
    master.solve()
    master.add(every)
    _drift(master)
    kkt = _counting(monkeypatch, "_check_optimality")
    inversions = _counting(monkeypatch, "_reinvert", lp_module.RestrictedMaster)
    got = master.solve()
    assert (len(kkt), len(inversions)) == (2, 1)
    full = _master_lp(master)
    assert abs(got.objective - solve_lp(full).objective) <= 1e-12
    assert_dual_certificate(full, got)


def test_persistent_drift_raises(monkeypatch):
    master, inst, every = _master()
    master.solve()
    master.add(every)
    _drift(master)
    monkeypatch.setattr(lp_module.RestrictedMaster, "_reinvert", _drift)
    with pytest.raises(LpSolverError, match="KKT"):
        master.solve()

