import pytest

from oracles import reference_run_ellipsoid
from twosided.ellipsoid import (
    EllipsoidBreakdown,
    default_iteration_budget,
    run_ellipsoid,
    solve_restricted,
)
from twosided.instance import GENERATOR_KINDS, generate, normalize_revenues
from twosided.lp import check_lp_solution, dual_feasibility_report, lp2_exact_small


def test_requires_normalized_revenues():
    inst = generate("same-order-additive", 2, 2, 0)  # revenues can exceed 1
    assert float(inst.r.max()) > 1.0
    with pytest.raises(ValueError, match="normalized"):
        run_ellipsoid(inst, t_max=10)


def test_zero_revenue_objective_converges_to_zero(zero_revenue_instance):
    run = run_ellipsoid(zero_revenue_instance, t_max=4000)
    assert run.objective <= 1e-3
    assert run.objective >= -1e-9


def test_unit_instance_objective_and_recovery(unit_instance):
    # without a certify hook the loop runs to the float64 floor
    run = run_ellipsoid(unit_instance)
    assert run.stop_reason == "float64_floor"
    assert abs(run.objective - 0.25) <= 1e-4
    solved = solve_restricted(unit_instance)
    sol = solved.solution
    assert abs(solved.certificate.objective - 0.25) <= 1e-9
    assert sol.objective >= 0.25 - 1e-6
    assert check_lp_solution(unit_instance, sol) == []


def test_random_instances_match_exact_lp():
    for seed in range(6):
        inst = normalize_revenues(generate("uniform-random", 3, 2, seed))
        exact = lp2_exact_small(inst).objective
        solved = solve_restricted(inst, t_max=20000)
        sol, run = solved.solution, solved.run
        assert run.violated.total() <= run.iterations
        assert sol.objective >= exact - 1e-4
        assert sol.objective <= exact + 1e-9
        # final incumbent upper-bounds the LP optimum
        assert run.objective >= exact - 1e-6


def test_incumbent_monotone_and_exactly_feasible():
    inst = normalize_revenues(generate("uniform-random", 3, 2, 13))
    run = run_ellipsoid(inst, t_max=15000)
    objs = [obj for _, obj in run.incumbent_history]
    assert all(a >= b for a, b in zip(objs, objs[1:]))
    assert len(run.incumbents) >= 1
    # every incumbent passed the exact checks with zero slack
    for point in run.incumbents[:: max(1, len(run.incumbents) // 10)]:
        assert dual_feasibility_report(inst, point, tol=0.0).feasible


def test_iteration_budget_respected():
    inst = normalize_revenues(generate("uniform-random", 2, 2, 5))
    run = run_ellipsoid(inst, t_max=500)
    assert run.iterations <= 500
    assert run.t_max == 500


def test_relaxed_oracle_band():
    for seed in range(3):
        inst = normalize_revenues(generate("uniform-random", 3, 2, seed))
        exact = lp2_exact_small(inst).objective
        sol = solve_restricted(inst, t_max=20000, delta=0.2).solution
        assert sol.objective >= (1.0 - 0.2) * exact - 1e-6
        assert sol.objective <= exact + 1e-9
        assert check_lp_solution(inst, sol) == []


def test_breakdown_on_corrupt_shape(unit_instance, monkeypatch):
    # a zero starting ball: a'Da = 0 on the first cut while trace(D) = 0
    # too, which is a breakdown, not the float64 floor
    monkeypatch.setattr("twosided.ellipsoid.default_radius", lambda inst: 0.0)
    with pytest.raises(EllipsoidBreakdown, match="a'Da .* at t=0 on assortment-cost"):
        run_ellipsoid(unit_instance, t_max=10)


def test_tiny_weight_in_float64_range_certifies(tiny_weight):
    inst = tiny_weight(48)
    solved = solve_restricted(inst)
    assert solved.run.stop_reason == "certified"
    assert abs(solved.solution.objective - lp2_exact_small(inst).objective) <= 1e-9


def test_cut_loop_stops_before_leaving_float64_range(tiny_weight):
    # warnings are errors here, so no step may overflow before the stop
    with pytest.raises(EllipsoidBreakdown, match=r"a'Da \* trace\(D\) = .* past float64 range at t=2 on weight-link"):
        run_ellipsoid(tiny_weight(60))
    with pytest.raises(EllipsoidBreakdown, match="starting ball of radius 8.000e\\+201 has trace"):
        run_ellipsoid(tiny_weight(200))
    with pytest.raises(EllipsoidBreakdown, match="starting ball of radius 8.000e\\+307 has trace"):
        run_ellipsoid(tiny_weight(306), t_max=10)


def test_default_budget_formula(unit_instance):
    # 50 N^2 ln(10 N rho) with N = 3, rho = 20
    assert default_iteration_budget(unit_instance) == 2879


def test_trace_records(unit_instance):
    run = run_ellipsoid(unit_instance, t_max=50, trace=True)
    assert run.trace is not None and len(run.trace) == run.iterations
    first = run.trace[0]
    assert set(first) == {"t", "cut", "index", "obj", "incumbent_updated"}


def test_zero_revenue_approx_solve(zero_revenue_instance):
    solved = solve_restricted(zero_revenue_instance, t_max=3000)
    sol, run = solved.solution, solved.run
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert check_lp_solution(zero_revenue_instance, sol) == []
    assert run.violated.total() <= run.cut_counts["assortment-cost"]


def test_debug_mode_keeps_shape_positive_definite(unit_instance):
    # short healthy run, the same cut for cut as the reference, which
    # verifies positive definiteness by Cholesky after every cut
    run = run_ellipsoid(unit_instance, t_max=300, trace=True)
    want = reference_run_ellipsoid(unit_instance, t_max=300, trace=True, debug=True)
    assert run.iterations == want.iterations == 300
    assert run.trace == want.trace
    for name in ("alpha", "beta", "gamma"):
        assert getattr(run.best, name).tobytes() == getattr(want.best, name).tobytes()


def test_incumbent_objective_matches_point():
    inst = normalize_revenues(generate("uniform-random", 2, 2, 33))
    run = run_ellipsoid(inst, t_max=5000)
    assert abs(run.objective - run.best.objective) <= 1e-12


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n, m", [(3, 3), (8, 2)])
def test_a_solve_keeps_sets_as_masks(kind, n, m, monkeypatch):
    # from the oracle to the master a backlog set stays the oracle's
    # bitmask: nothing on the solve path converts a customer tuple
    def unreachable(*args, **kwargs):
        raise AssertionError("a set was converted from a customer tuple")

    monkeypatch.setattr("twosided.mnl.mask_of", unreachable)
    monkeypatch.setattr("twosided.mnl.as_subset", unreachable)
    inst = normalize_revenues(generate(kind, n, m, 77))
    for t_max, delta, trace in ((None, 0.0, False), (None, 0.0, True), (300, 0.2, False)):
        solved = solve_restricted(inst, t_max, delta=delta, trace=trace)
        assert check_lp_solution(inst, solved.solution) == []
        assert solved.run.violated.total() > 0
