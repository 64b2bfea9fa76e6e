import json
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    full_master,
    lp_optimum_by_vertex_enumeration,
    reference_assortment_distribution_lp,
    reference_lp1_exact_small,
    reference_solve_lp,
)
from twosided import lp as lp_module
from twosided import mnl, simplex
from twosided.cost_assortment import SubDualOracle
from twosided.instance import GENERATOR_KINDS, Instance, generate, normalize_revenues
from twosided.lp import (
    LP1_MAX_M,
    LP1_MAX_N,
    LP2_MAX_M,
    LP2_MAX_N,
    SUPPORT_EPS,
    DualPoint,
    LpSolution,
    ViolatedSets,
    build_aux_primal,
    check_lp_solution,
    dual_certificate,
    dual_feasibility_report,
    lp1_exact_small,
    lp1_exact_values,
    lp2_exact_small,
    lp2_exact_values,
)
from twosided.mnl import SizeLimitError, subset_of
from twosided.simplex import LpResult, LpSolverError, solve_lp

TOL = 1e-9


def test_lp2_unit_instance(unit_instance):
    sol = lp2_exact_small(unit_instance)
    assert sol.objective == pytest.approx(0.25, abs=TOL)
    assert sol.x[0, 0] == pytest.approx(0.5, abs=TOL)
    assert sol.lam[0].get((0,), 0.0) == pytest.approx(0.5, abs=TOL)
    assert check_lp_solution(unit_instance, sol) == []


def test_lp2_zero_revenue(zero_revenue_instance):
    sol = lp2_exact_small(zero_revenue_instance)
    assert sol.objective == pytest.approx(0.0, abs=TOL)
    assert check_lp_solution(zero_revenue_instance, sol) == []


def test_lp2_solution_invariants_random():
    for seed in range(10):
        inst = generate("uniform-random", 4, 2, seed)
        sol = lp2_exact_small(inst)
        assert check_lp_solution(inst, sol) == []


def test_lp2_size_guard():
    inst = generate("uniform-random", 11, 2, 0)
    with pytest.raises(SizeLimitError):
        lp2_exact_small(inst)


LP_EXACT_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "lp_exact_reference.json"


def _reference_items() -> list:
    """The lowest-seed instance of every (kind, size) class in the lp-exact
    benchmark's reference file, named kind-NxM-seed, with its stored
    objective."""
    objectives = json.loads(LP_EXACT_REFERENCE.read_text(encoding="utf-8"))["objectives"]
    first: dict[str, str] = {}
    for name in sorted(objectives, key=lambda name: int(name.rsplit("-", 1)[1])):
        first.setdefault(name.rsplit("-", 1)[0], name)
    return [pytest.param(name, objectives[name], id=name) for name in sorted(first.values())]


@pytest.mark.parametrize("name, objective", _reference_items())
def test_lp2_matches_the_benchmark_reference(name, objective):
    # the check the lp-exact benchmark applies to each of its items
    kind, size, seed = name.rsplit("-", 2)
    n, m = map(int, size.split("x"))
    inst = normalize_revenues(generate(kind, n, m, int(seed)))
    sol = lp2_exact_small(inst)
    assert abs(sol.objective - objective) <= 1e-9
    assert check_lp_solution(inst, sol, tol=1e-9) == []


def test_lp2_supplier_permutation_invariance():
    inst = generate("uniform-random", 4, 3, 12)
    perm = [2, 0, 1]
    permuted = Instance(
        n=inst.n,
        m=inst.m,
        u=inst.u[:, perm],
        w=inst.w[perm, :],
        r=inst.r[:, perm],
    )
    assert lp2_exact_small(permuted).objective == pytest.approx(
        lp2_exact_small(inst).objective, abs=TOL
    )


def test_lp1_unit_instance(unit_instance):
    assert lp1_exact_small(unit_instance) == pytest.approx(0.25, abs=TOL)


def test_lp1_zero_revenue(zero_revenue_instance):
    assert lp1_exact_small(zero_revenue_instance) == pytest.approx(0.0, abs=TOL)


def test_lp1_below_lp2():
    for seed in range(15):
        inst = generate("uniform-random", 3, 2, seed)
        assert lp1_exact_small(inst) <= lp2_exact_small(inst).objective + 1e-7


def _degenerate_lp1_instances(n: int, m: int) -> dict[str, Instance]:
    """Zero and all-equal revenues on generated weights, and weights drawn
    from 10^U(-9, 3), as tiny weights model forbidden pairs."""
    base = generate("uniform-random", n, m, 11)
    rng = np.random.default_rng(3)
    return {
        "zero-revenue": Instance(n=n, m=m, u=base.u, w=base.w, r=np.zeros((n, m))),
        "equal-revenue": Instance(n=n, m=m, u=base.u, w=base.w, r=np.ones((n, m))),
        "extreme-weight": Instance(
            n=n, m=m, u=10.0 ** rng.uniform(-9, 3, (n, m)), w=10.0 ** rng.uniform(-9, 3, (m, n)),
            r=rng.uniform(0.0, 1.0, (n, m)),
        ),
    }


@pytest.mark.parametrize("n, m", [(3, 2), (2, 3), (4, 4)])
def test_lp1_matches_a_two_phase_solve_on_degenerate_instances(n, m):
    # lp1_exact_small solves from its start basis; solve_lp runs phase 1 and
    # phase 2 on the loop-form LP. The dense Bland tableau needs a tolerance
    # below the ~1e-9 link coefficients of the extreme weights to reach the
    # optimum there.
    for case, inst in _degenerate_lp1_instances(n, m).items():
        lp = reference_assortment_distribution_lp(inst)
        got = lp1_exact_small(inst)
        assert abs(got - solve_lp(lp).objective) <= 1e-9, case
        assert abs(got - reference_solve_lp(lp, tol=1e-12).objective) <= 1e-12, case


def test_lp1_size_guard():
    with pytest.raises(SizeLimitError):
        lp1_exact_small(generate("uniform-random", 5, 2, 0))


LP1_BATCH_SIZES = ((2, 2), (3, 2), (3, 3), (4, 2), (2, 4))
LP2_BATCH_SIZES = ((3, 2), (4, 3), (6, 2))


def _lp_batch(n: int, m: int, seeds, extra=()) -> list[Instance]:
    """The four generator kinds at n x m for each seed, with the instances
    ``extra`` of that size mixed in."""
    batch = [generate(kind, n, m, seed) for seed in seeds for kind in GENERATOR_KINDS]
    for k, inst in enumerate(extra):
        if (inst.n, inst.m) == (n, m):
            batch.insert(3 * k + 1, inst)
    return batch


def _lockstep_spy(monkeypatch) -> list[tuple[int, int]]:
    """Record each lockstep call's batch size and the number of LPs that left it."""
    calls, real = [], lp_module._optimize_lockstep

    def spy(cols, *args):
        x, left = real(cols, *args)
        calls.append((cols.shape[0], len(left)))
        return x, left

    monkeypatch.setattr(lp_module, "_optimize_lockstep", spy)
    return calls


@pytest.mark.parametrize("n, m", LP1_BATCH_SIZES)
def test_lp1_batch_is_the_one_instance_solve_bit_for_bit(monkeypatch, n, m, zero_revenue_instance):
    extra = [zero_revenue_instance, *_degenerate_lp1_instances(n, m).values()]
    batch = _lp_batch(n, m, range(3), extra)
    calls = _lockstep_spy(monkeypatch)
    values = lp1_exact_values(batch)
    assert calls == [(len(batch), 0)]  # every LP stayed in the lockstep
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in lp1_exact_values(batch[::-1])[::-1]] == [v.hex() for v in values]
    for inst, value in zip(batch, values):
        assert value.hex() == reference_lp1_exact_small(inst).hex()
        assert value.hex() == lp1_exact_small(inst).hex()


@pytest.mark.parametrize("n, m", LP2_BATCH_SIZES)
def test_lp2_batch_is_the_one_instance_solve_bit_for_bit(monkeypatch, n, m, zero_revenue_instance, tiny_weight):
    batch = _lp_batch(n, m, range(4, 6), [zero_revenue_instance, tiny_weight(306), tiny_weight(48)])
    calls = _lockstep_spy(monkeypatch)
    values = lp2_exact_values(batch)
    assert calls == [(len(batch), 0)]
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in lp2_exact_values(batch[::-1])[::-1]] == [v.hex() for v in values]
    for inst, value in zip(batch, values):
        assert value.hex() == lp2_exact_small(inst).objective.hex()


@pytest.mark.parametrize("run", [0, 1])
def test_lps_that_leave_the_lockstep_are_solved_alone(monkeypatch, run):
    # Bland's rule after `run` degenerate pivots: an LP that reaches it leaves
    # the batch, and its value is the one-instance solve's under the same
    # rule. At 1, five of the lp1 batch and one of the lp2 batch leave
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", run)
    calls = _lockstep_spy(monkeypatch)
    lp1_batch = lp2_batch = _lp_batch(3, 3, range(2))
    lp1_values, lp2_values = lp1_exact_values(lp1_batch), lp2_exact_values(lp2_batch)
    assert [k for k, _ in calls] == [len(lp1_batch), len(lp2_batch)]
    assert all(left >= 1 for _, left in calls)
    if run == 0:  # Bland's rule from the first pivot: every LP leaves at once
        assert all(left == k for k, left in calls)
    for inst, value in zip(lp1_batch, lp1_values):
        assert value.hex() == reference_lp1_exact_small(inst).hex()
    for inst, value in zip(lp2_batch, lp2_values):
        assert value.hex() == lp2_exact_small(inst).objective.hex()


def _solver_error(solve, inst) -> str | None:
    try:
        solve(inst)
    except LpSolverError as exc:
        return str(exc)
    return None


def test_lps_past_the_pivot_budget_leave_the_lockstep_with_the_one_lp_error(monkeypatch):
    # one pivot per loop: every LP not optimal at its start basis leaves the
    # lockstep, and its solve alone raises the one-instance budget error
    monkeypatch.setattr(simplex, "_pivot_budget", lambda rows: 1)
    batch = _lp_batch(3, 2, [0])
    solvers = ((lp1_exact_small, lp1_exact_values), (lp2_exact_small, lp2_exact_values))
    alone = [[_solver_error(one, inst) for inst in batch] for one, _ in solvers]
    calls = _lockstep_spy(monkeypatch)
    for (_, batched), errors in zip(solvers, alone):
        with pytest.raises(LpSolverError, match="simplex exceeded 1 pivots") as refused:
            batched(batch)
        assert str(refused.value) == next(error for error in errors if error is not None)
    assert [k for k, _ in calls] == [len(batch)] * 2 and all(left >= 1 for _, left in calls)


def test_key_priced_lp2_batch_is_solved_one_instance_at_a_time(monkeypatch):
    # an 8x4 master prices its 1,024 lambda columns by key, which the
    # lockstep's dense pricing would not match bit for bit
    batch = [generate(kind, 8, 4, 1) for kind in GENERATOR_KINDS[:3]]
    want = [lp2_exact_small(inst).objective.hex() for inst in batch]

    def unreachable(*args):
        raise AssertionError("a key-priced batch reached the lockstep")

    monkeypatch.setattr(lp_module, "_optimize_lockstep", unreachable)
    assert [value.hex() for value in lp2_exact_values(batch)] == want


def test_lp2_batch_refuses_an_mnl_coefficient_past_float64_range(monkeypatch, tiny_weight):
    with pytest.warns(RuntimeWarning), pytest.raises(LpSolverError) as alone:
        lp2_exact_small(tiny_weight(312))
    calls = _lockstep_spy(monkeypatch)
    batch = _lp_batch(3, 2, [1], [tiny_weight(312)])
    with pytest.warns(RuntimeWarning) as caught, pytest.raises(LpSolverError) as batched:
        lp2_exact_values(batch)
    assert str(batched.value) == str(alone.value)
    assert "overflow encountered in divide" in str(caught[0].message)
    assert calls == [(len(batch), 1)]  # only the tiny weight's LP left the lockstep


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"the batch reached numpy.{name} before its checks")


@pytest.mark.parametrize(
    "sizes", [[], [(3, 2), (3, 2), (2, 3)], [(3, 2), (3, 1)], [(3, 2), (11, 2)]],
    ids=["empty", "mixed-n-and-m", "mixed-m", "mixed-with-one-too-large"],
)
def test_lp_batches_refuse_mixed_sizes_before_any_allocation(monkeypatch, sizes):
    batch = [generate("uniform-random", n, m, 5) for n, m in sizes]
    monkeypatch.setattr(lp_module, "np", _NoNumpy())
    for call in (lp1_exact_values, lp2_exact_values):
        with pytest.raises(ValueError, match="one size") as refused:
            call(batch)
        assert type(refused.value) is ValueError  # not the SizeLimitError of a single size
    assert all("optimal_revenue_tables" not in vars(inst) for inst in batch)


class _Passed(Exception):
    pass


def _passed(*args, **kwargs):
    raise _Passed


@pytest.mark.parametrize(
    "one, batched, largest, first_step",
    [
        (lp1_exact_small, lp1_exact_values, (LP1_MAX_N, LP1_MAX_M), (mnl, "choice_prob_table")),
        (lambda inst: lp2_exact_small(inst).objective, lp2_exact_values, (LP2_MAX_N, LP2_MAX_M),
         (lp_module, "RestrictedMaster")),
    ],
    ids=["lp1", "lp2"],
)
def test_lp_batches_share_the_size_guard(monkeypatch, one, batched, largest, first_step):
    n, m = largest
    for size in ((n + 1, 1), (1, m + 1), (n + 1, m + 1)):
        batch = [generate("uniform-random", *size, seed) for seed in range(3)]
        with pytest.raises(SizeLimitError) as refused:
            one(batch[0])
        with pytest.raises(SizeLimitError) as many:
            batched(batch)
        assert str(many.value) == str(refused.value)
    monkeypatch.setattr(*first_step, _passed)  # past the guard, nothing is run
    with pytest.raises(_Passed):
        batched([generate("uniform-random", n, m, seed) for seed in range(3)])


def test_aux_primal_empty_support_only():
    inst = generate("uniform-random", 3, 2, 4)
    violated = ViolatedSets(inst.m)
    master = build_aux_primal(inst, violated)
    sol = master.extract(solve_lp(master.lp))
    assert sol.objective == pytest.approx(0.0, abs=TOL)
    assert check_lp_solution(inst, sol) == []


def test_aux_primal_full_support_matches_exact():
    inst = generate("uniform-random", 3, 2, 8)
    violated = ViolatedSets(inst.m)
    for j in range(inst.m):
        for mask in range(1, 2**inst.n):
            violated.add(j, mask)
    master = build_aux_primal(inst, violated)
    sol = master.extract(solve_lp(master.lp))
    assert sol.objective == pytest.approx(lp2_exact_small(inst).objective, abs=1e-7)


def test_aux_primal_matches_vertex_enumeration():
    inst = generate("uniform-random", 2, 2, 3)
    violated = ViolatedSets(2)
    violated.add(0, 0b01)
    violated.add(0, 0b11)
    violated.add(1, 0b10)
    lp = build_aux_primal(inst, violated).lp
    res = solve_lp(lp)
    oracle = lp_optimum_by_vertex_enumeration(lp)
    assert res.objective == pytest.approx(oracle, abs=1e-8)


def test_violated_sets_dedupe_and_order():
    violated = ViolatedSets(2)
    assert violated.add(0, 0b11)
    assert not violated.add(0, 0b11)
    assert violated.add(0, 0)
    assert violated[0] == [0b11, 0]
    assert violated.counts() == [2, 0]
    assert violated.total() == 2


def test_lp2_refuses_an_mnl_coefficient_past_float64_range(tiny_weight):
    assert lp2_exact_small(tiny_weight(306)).objective == pytest.approx(0.46100113331027853, abs=1e-12)
    # 1/u overflows on the MNL row of pair (0, 0); the solve once returned
    # objective 0.0 with NaN duals that passed the KKT check
    with pytest.warns(RuntimeWarning) as caught, pytest.raises(LpSolverError):
        lp2_exact_small(tiny_weight(312))
    assert "overflow encountered in divide" in str(caught[0].message)


def test_lp_solution_check_fails_on_nan():
    inst = generate("uniform-random", 3, 2, 1)
    nan = LpSolution(x=np.full((3, 2), np.nan), lam=[{(): np.nan}, {(): np.nan}], objective=np.nan)
    problems = " ".join(check_lp_solution(inst, nan))
    for fault in ("distribution mass nan", "negative probability", "marginal mass 0.0 != x nan",
                  "MNL row nan", "negative marginal"):
        assert fault in problems


def test_dual_report_refuses_a_non_finite_point(monkeypatch):
    inst = generate("uniform-random", 3, 2, 1)
    monkeypatch.setattr("twosided.cost_assortment.SubDualOracle", None)  # any oracle call fails the test
    for part in ("alpha", "beta", "gamma"):
        parts = {"alpha": np.zeros((3, 2)), "beta": np.ones(2), "gamma": np.zeros((3, 2))}
        parts[part].flat[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dual_feasibility_report(inst, DualPoint(**parts))


def test_dual_feasible_baseline_point():
    # beta at the revenue peak with zero alpha and gamma is always feasible
    for seed in range(5):
        inst = generate("uniform-random", 4, 2, seed)
        point = DualPoint(
            alpha=np.zeros((4, 2)),
            beta=np.full(2, float(inst.r.max())),
            gamma=np.zeros((4, 2)),
        )
        assert dual_feasibility_report(inst, point).feasible


def test_dual_zero_point_violates_with_positive_revenue():
    inst = generate("uniform-random", 3, 2, 2)
    point = DualPoint(alpha=np.zeros((3, 2)), beta=np.zeros(2), gamma=np.zeros((3, 2)))
    report = dual_feasibility_report(inst, point)
    assert any(v.kind == "assortment-cost" for v in report.violations)


def test_dual_report_matches_direct_scan():
    rng = np.random.default_rng(14)
    for seed in range(10):
        inst = generate("uniform-random", 4, 2, seed)
        point = DualPoint(
            alpha=rng.normal(0.0, 0.2, (4, 2)),
            beta=rng.normal(0.3, 0.3, 2),
            gamma=rng.normal(0.0, 0.2, (4, 2)),
        )
        report = dual_feasibility_report(inst, point)
        got = {(v.kind, v.index) for v in report.violations}
        want = set()
        for i in range(4):
            for j in range(2):
                if point.alpha[i, j] < -TOL:
                    want.add(("alpha-nonnegative", (i, j)))
                slack = point.alpha[i, j] / inst.u[i, j] + point.alpha[i].sum() - point.gamma[i, j]
                if slack < -TOL:
                    want.add(("weight-link", (i, j)))
        from twosided.cost_assortment import rev_cost

        for j in range(2):
            worst = max(
                rev_cost(inst, j, subset_of(mask, 4), point.gamma) for mask in range(16)
            )
            if worst > point.beta[j] + TOL:
                want.add(("assortment-cost", (j,)))
        assert got == want


def test_weak_duality():
    for seed in range(8):
        inst = generate("uniform-random", 3, 2, seed)
        primal = lp2_exact_small(inst).objective
        point = DualPoint(
            alpha=np.zeros((3, 2)),
            beta=np.full(2, float(inst.r.max())),
            gamma=np.zeros((3, 2)),
        )
        assert dual_feasibility_report(inst, point).feasible
        assert point.objective >= primal - TOL


def test_lp_ordering_on_counterexample_derived_instance(counterexample):
    # single-supplier fixture: the marginal LP relaxes the assortment-distribution LP
    lp1 = lp1_exact_small(counterexample)
    lp2 = lp2_exact_small(counterexample).objective
    assert lp1 <= lp2 + 1e-7


def test_lp1_upper_bounds_adaptive_optimum_3x3():
    from twosided.policies import exact_dp_atar

    for seed in range(5):
        inst = generate("uniform-random", 3, 3, 60 + seed)
        opt, _ = exact_dp_atar(inst)
        assert opt <= lp1_exact_small(inst) + 1e-7


def test_lp2_objective_bounded_by_suppliers_times_peak_revenue():
    for seed in range(8):
        inst = generate("uniform-random", 3, 2, 70 + seed)
        sol = lp2_exact_small(inst)
        assert sol.objective <= inst.m * float(inst.r.max()) + 1e-9


def test_dual_point_of_the_full_lp_is_dual_feasible():
    # with every backlog column present the LP duals satisfy every dual
    # constraint, which holds only for the right rows and signs
    for kind, seed in (("uniform-random", 6), ("supplier-uniform", 7), ("same-order-additive", 8)):
        inst = normalize_revenues(generate(kind, 4, 2, seed))
        master = full_master(inst)
        result = solve_lp(master.lp)
        point = master.dual_point(result)
        assert (point.alpha.shape, point.beta.shape, point.gamma.shape) == ((4, 2), (2,), (4, 2))
        assert dual_feasibility_report(inst, point, tol=1e-9).feasible
        assert point.objective == pytest.approx(result.objective, abs=1e-12)
        lifted, gap, pricing = dual_certificate(SubDualOracle(inst), point)
        assert gap <= 1e-12
        assert lifted.objective == pytest.approx(point.objective, abs=1e-12)
        # whatever rounding prices out is a column the full LP already has
        assert {j << inst.n | mask for j, mask in pricing} <= set(master.keys.tolist())


def test_extract_keeps_the_column_order_of_the_support():
    # extract walks only the support, into the dicts a loop over every
    # lambda column fills: same keys, values and insertion order
    for kind in ("uniform-random", "same-order-additive"):
        master = full_master(normalize_revenues(generate(kind, 6, 3, 77)))
        result = master.solve()
        nm = master.n * master.m
        want = [{} for _ in range(master.m)]
        for col, (j, subset) in enumerate(master.lam_index):
            if result.x[nm + col] > SUPPORT_EPS:
                want[j][subset] = float(result.x[nm + col])
        got = master.extract(result).lam
        assert [list(lam.items()) for lam in got] == [list(lam.items()) for lam in want]
        assert sum(map(len, got)) > master.m


def test_certificate_prices_the_oracle_sets():
    # only the empty sets: every supplier with a profitable set prices out,
    # and its witness is the exact oracle's set at the restricted duals
    inst = normalize_revenues(generate("uniform-random", 4, 3, 5))
    master = build_aux_primal(inst, ViolatedSets(inst.m))
    point = master.dual_point(solve_lp(master.lp))
    oracle = SubDualOracle(inst)
    lifted, gap, pricing = dual_certificate(oracle, point)
    excess = lifted.beta - point.beta
    assert gap == pytest.approx(excess.sum(), abs=0.0) and gap > 0.0
    assert pricing == [(j, oracle(j, point.gamma)[1]) for j in range(inst.m) if excess[j] > 0.0]
    assert all(mask for _, mask in pricing)


def test_aux_primal_lists_the_empty_set_first():
    inst = normalize_revenues(generate("uniform-random", 3, 2, 0))
    violated = ViolatedSets(2)
    violated.add(0, 0b010)
    violated.add(1, 0b101)
    violated.add(1, 0)  # recorded after (0, 2), listed first once
    assert build_aux_primal(inst, violated).lam_index == [(0, ()), (0, (1,)), (1, ()), (1, (0, 2))]


def test_dual_point_needs_an_optimum():
    master = build_aux_primal(generate("uniform-random", 2, 1, 0), ViolatedSets(1))
    with pytest.raises(LpSolverError, match="infeasible"):
        master.dual_point(LpResult(status="infeasible", x=None, objective=None))


def test_master_refuses_past_the_oracle_limit(monkeypatch):
    # the instance refuses before it builds the revenue table the master
    # and the oracle read
    def unreachable(*args):
        raise AssertionError("a revenue table was built past the limit")

    monkeypatch.setattr(mnl, "build_expected_revenue_tables", unreachable)
    inst = generate("uniform-random", 21, 1, 0)
    with pytest.raises(SizeLimitError):
        build_aux_primal(inst, ViolatedSets(1))
    with pytest.raises(SizeLimitError):
        SubDualOracle(inst)
