"""The certificate of ``solve_restricted``: the restricted primal's duals,
lifted by the exact oracle's priced excess, form a point of the full dual
that the independent feasibility report accepts, and its objective bounds
the exact LP optimum at ``certified_gap`` above the returned solution. The
exact LP these tests compare against is itself held to a two-phase solve
on the degenerate instances (extreme weights, zero and tied revenues)."""

import numpy as np
import pytest

import twosided.ellipsoid as ellipsoid_module
from oracles import full_master
from twosided.cost_assortment import SubDualOracle
from twosided.ellipsoid import CERTIFY_FIRST, CERTIFY_TOL, solve_restricted
from twosided.instance import GENERATOR_KINDS, Instance, generate, normalize_revenues
from twosided.lp import (
    RestrictedMaster,
    check_lp_solution,
    dual_certificate,
    dual_feasibility_report,
    lp2_exact_small,
)
from twosided.simplex import solve_lp


def assert_certified(inst, solved):
    """The certificate is dual feasible and bounds the exact optimum, which
    is returned."""
    sol = solved.solution
    assert dual_feasibility_report(inst, solved.certificate, tol=1e-9).feasible
    exact = lp2_exact_small(inst).objective
    assert exact <= sol.objective + solved.certified_gap + 1e-9
    assert solved.certificate.objective - sol.objective == pytest.approx(solved.certified_gap, abs=1e-12)
    if solved.run.stop_reason == "certified":
        assert solved.certified_gap <= CERTIFY_TOL
    return exact


def assert_agrees(inst, solved):
    """Certified as above, with the objective within 1e-9 of the exact
    optimum of the full instantiation."""
    assert abs(solved.solution.objective - assert_certified(inst, solved)) <= 1e-9


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_default_solve_certifies(kind):
    inst = normalize_revenues(generate(kind, 4, 3, 77))
    solved = solve_restricted(inst)
    assert solved.run.stop_reason == "certified"
    assert solved.run.certified and solved.run.iterations == CERTIFY_FIRST
    assert_agrees(inst, solved)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n, m", [(3, 3), (8, 2), (10, 4)])
def test_solve_agrees_with_the_exact_lp(kind, n, m):
    # with 4x3 above, these are the solve benchmark's size/kind classes
    # (plus 10x4); pricing rounds certify each at the first checkpoint
    inst = normalize_revenues(generate(kind, n, m, 77))
    solved = solve_restricted(inst)
    assert solved.run.stop_reason == "certified" and solved.run.iterations == CERTIFY_FIRST
    assert_agrees(inst, solved)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("t_max", [CERTIFY_FIRST - 1, 200, 1000, 3000])
def test_certificate_of_every_budget(kind, t_max):
    # a budget below the first checkpoint ends before the restricted primal
    # is optimal, so the gap is positive there and the lift does real work
    inst = normalize_revenues(generate(kind, 4, 3, 78))
    solved = solve_restricted(inst, t_max=t_max)
    assert solved.run.iterations <= t_max
    assert_certified(inst, solved)


def test_short_budget_gap_is_positive():
    # the budget ends the run before the first checkpoint
    inst = normalize_revenues(generate("uniform-random", 4, 3, 77))
    solved = solve_restricted(inst, t_max=CERTIFY_FIRST - 1)
    assert solved.run.stop_reason == "t_max"
    assert solved.certified_gap > 1e-3
    assert_certified(inst, solved)


def test_relaxed_oracle_run_certifies_with_the_exact_oracle(monkeypatch):
    inst = normalize_revenues(generate("uniform-random", 3, 2, 4))
    built, calls, pricing = [], [], [False]
    real_init, real_call = SubDualOracle.__init__, SubDualOracle.__call__

    def init(self, *args):
        built.append(self)
        real_init(self, *args)

    def call(self, j, gamma, delta=0.0):
        calls.append((pricing[0], delta))
        return real_call(self, j, gamma, delta)

    def priced(*args):
        pricing[0] = True
        try:
            return dual_certificate(*args)
        finally:
            pricing[0] = False

    monkeypatch.setattr(SubDualOracle, "__init__", init)
    monkeypatch.setattr(SubDualOracle, "__call__", call)
    monkeypatch.setattr(ellipsoid_module, "dual_certificate", priced)
    solved = solve_restricted(inst, t_max=3000, delta=0.2)
    # one oracle: the cut loop calls it relaxed to record the sets, and
    # pricing calls it exactly
    assert len(built) == 1
    assert set(calls) == {(False, 0.2), (True, 0.0)}
    assert solved.run.stop_reason == "certified"
    assert_agrees(inst, solved)


def test_zero_revenue_certificate(zero_revenue_instance):
    solved = solve_restricted(zero_revenue_instance)
    assert solved.certified_gap == pytest.approx(0.0, abs=1e-12)
    assert_agrees(zero_revenue_instance, solved)


def tied_revenue_instances(seed):
    """Every parameter 1, and random weights with every revenue 0.5."""
    rng = np.random.default_rng(seed)
    identical = Instance(n=4, m=2, u=np.ones((4, 2)), w=np.ones((2, 4)), r=np.ones((4, 2)))
    tied = Instance(n=4, m=2, u=rng.uniform(0.5, 2.0, (4, 2)), w=rng.uniform(0.5, 2.0, (2, 4)),
                    r=np.full((4, 2), 0.5))
    return identical, tied


@pytest.mark.parametrize("seed", [0, 1])
def test_tied_revenue_certificates(seed):
    for inst in tied_revenue_instances(seed):
        assert_certified(inst, solve_restricted(inst, 300))
        assert_agrees(inst, solve_restricted(inst))


def extreme_weight_instance(seed):
    # weights spanning 1e-9..1e3, as tiny weights model forbidden pairs
    rng = np.random.default_rng(seed)
    return normalize_revenues(Instance(
        n=3, m=2, u=10.0 ** rng.uniform(-9, 3, (3, 2)), w=10.0 ** rng.uniform(-9, 3, (2, 3)),
        r=rng.uniform(0.0, 1.0, (3, 2)),
    ))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extreme_weight_certificates(seed):
    inst = extreme_weight_instance(seed)
    assert_certified(inst, solve_restricted(inst, 200))
    assert_agrees(inst, solve_restricted(inst))


DEGENERATE_CASES = [f"extreme-weight-{seed}" for seed in range(20)] + ["zero-revenue", "identical", "tied-revenue"]


@pytest.mark.parametrize("case", DEGENERATE_CASES)
def test_exact_lp_matches_a_two_phase_solve(case, zero_revenue_instance):
    # lp2_exact_small solves the full LP on the restricted master, from its
    # feasible start basis; solve_lp runs phase 1 and phase 2 on the same LP
    if case.startswith("extreme-weight-"):
        inst = extreme_weight_instance(int(case.removeprefix("extreme-weight-")))
    else:
        identical, tied = tied_revenue_instances(0)
        inst = {"zero-revenue": zero_revenue_instance, "identical": identical, "tied-revenue": tied}[case]
    cold = solve_lp(full_master(inst).lp)
    sol = lp2_exact_small(inst)
    assert abs(sol.objective - cold.objective) <= 1e-9
    assert check_lp_solution(inst, sol) == []


def test_degenerate_restricted_dual_certifies_by_pricing():
    # the restricted primal is exact long before the floor, but its duals
    # price out loosely: without pricing rounds this run ends at the float64
    # floor after 24,290 cuts with a gap of 4.0e-3
    inst = normalize_revenues(generate("uniform-random", 8, 2, 77))
    solved = solve_restricted(inst)
    assert solved.run.stop_reason == "certified"
    assert solved.run.iterations == CERTIFY_FIRST
    assert solved.pricing_rounds > 0 and solved.priced_sets_total > 0
    assert solved.certified_gap <= 1e-9
    assert solved.solution.objective == pytest.approx(lp2_exact_small(inst).objective, abs=1e-12)
    assert_certified(inst, solved)


@pytest.mark.parametrize("seed", range(20))
def test_extreme_weights_certify_at_the_default_budget(seed):
    # the oracle's best set can price out by less than the simplex's 1e-8
    # optimality tolerance; it still enters, so no pricing round stalls
    inst = extreme_weight_instance(seed)
    solved = solve_restricted(inst)
    assert solved.run.stop_reason == "certified"
    assert_agrees(inst, solved)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_12x3_certifies_at_the_first_checkpoint(kind):
    # past the exact LP's reach: only the certificate vouches for the solve
    inst = normalize_revenues(generate(kind, 12, 3, 77))
    solved = solve_restricted(inst)
    assert solved.run.stop_reason == "certified" and solved.run.iterations == CERTIFY_FIRST
    assert dual_feasibility_report(inst, solved.certificate, tol=1e-9).feasible
    assert solved.certificate.objective - solved.solution.objective == pytest.approx(
        solved.certified_gap, abs=1e-12
    )


def test_16x2_pricing_certifies_at_the_first_checkpoint():
    # under Bland's entering rule the pricing rounds stalled here at a gap
    # of 5.66e-9; the weighted rule reaches duals that certify
    inst = normalize_revenues(generate("supplier-uniform", 16, 2, 1))
    solved = solve_restricted(inst, t_max=1000)
    assert solved.run.stop_reason == "certified" and solved.run.iterations == CERTIFY_FIRST
    assert solved.pricing_rounds > 0 and solved.certified_gap <= CERTIFY_TOL
    assert dual_feasibility_report(inst, solved.certificate, tol=1e-9).feasible


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n, m, t_max", [(8, 2, None), (4, 3, CERTIFY_FIRST - 1), (3, 3, 1000)])
def test_the_master_is_the_primal_of_the_solution(kind, n, m, t_max):
    inst = normalize_revenues(generate(kind, n, m, 77))
    solved = solve_restricted(inst, t_max)
    master, sol = solved.master, solved.solution
    cold = solve_lp(master.lp)
    assert abs(cold.objective - sol.objective) <= 1e-12
    support = {(j, subset) for j, lam in enumerate(sol.lam) for subset in lam}
    assert support <= set(master.lam_index)
    assert master.pivots > 0


def test_final_solve_reuses_the_last_checkpoint(monkeypatch):
    masters, solves = [], []
    init, solve = RestrictedMaster.__init__, RestrictedMaster.solve

    def counted_init(self, *args):
        init(self, *args)
        masters.append(self)

    def counted_solve(self):
        start = self.basis.copy()
        result = solve(self)
        solves.append((self, start, self.basis.copy()))
        return result

    monkeypatch.setattr(RestrictedMaster, "__init__", counted_init)
    monkeypatch.setattr(RestrictedMaster, "solve", counted_solve)
    # no solve may re-invert its basis: the call would raise
    monkeypatch.setattr(RestrictedMaster, "_reinvert", None)

    def assert_warm(count):
        """One master per solve_restricted, solved ``count`` times, each
        solve from the basis the last one ended on; return the master."""
        assert len(masters) == 1 and len(solves) == count
        assert all(master is masters[0] for master, _, _ in solves)
        for (_, _, end), (_, start, _) in zip(solves, solves[1:]):
            assert (start == end).all()
        solves.clear()
        return masters.pop()

    # the only checkpoint falls on the last cut: its solves are the final ones
    inst = normalize_revenues(generate("same-order-multiplicative", 4, 3, 77))
    at_checkpoint = solve_restricted(inst, t_max=CERTIFY_FIRST)
    assert at_checkpoint.run.stop_reason == "certified"
    assert at_checkpoint.pricing_rounds == 8
    assert_warm(9)
    # a checkpoint that does not certify leaves the loop cutting once its
    # rounds add no new set; sets recorded after it that the master lacks
    # need one more solve. No gap is below -1.
    monkeypatch.setattr(ellipsoid_module, "CERTIFY_TOL", -1.0)
    uncertified = solve_restricted(inst, t_max=CERTIFY_FIRST)
    assert uncertified.run.stop_reason == "t_max" and uncertified.pricing_rounds == 8
    assert_warm(9)
    # up to cut 48 the cuts add only supplier 0's empty set, a column of
    # every master, so the checkpoint's solve stands
    same = solve_restricted(inst, t_max=CERTIFY_FIRST * 3 // 2)
    assert same.run.violated.total() == uncertified.run.violated.total() + 1
    assert 0 in same.run.violated[0] and 0 not in uncertified.run.violated[0]
    assert_warm(9)
    later = solve_restricted(inst, t_max=CERTIFY_FIRST * 2 - 1)
    assert later.run.stop_reason == "t_max" and later.pricing_rounds == 8
    master = assert_warm(10)
    # the solve returns its one master, which holds every recorded set
    assert later.master is master
    recorded = {j << inst.n | mask for j in range(inst.m) for mask in later.run.violated[j]}
    assert recorded <= set(master.keys.tolist())
    assert_certified(inst, later)
