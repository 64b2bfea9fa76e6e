"""The certificate of ``solve_restricted``: the restricted primal's duals,
lifted by the exact oracle's priced excess, form a point of the full dual
that the independent feasibility report accepts, and its objective bounds
the exact LP optimum at ``certified_gap`` above the returned solution."""

import numpy as np
import pytest

import twosided.ellipsoid as ellipsoid_module
from twosided.cost_assortment import SubDualOracle
from twosided.ellipsoid import CERTIFY_TOL, solve_restricted
from twosided.instance import GENERATOR_KINDS, Instance, generate, normalize_revenues
from twosided.lp import build_aux_primal, dual_certificate, dual_feasibility_report, lp2_exact_small


def assert_certified(inst, solved):
    sol = solved.solution
    assert dual_feasibility_report(inst, solved.certificate, tol=1e-9).feasible
    assert lp2_exact_small(inst).objective <= sol.objective + solved.certified_gap + 1e-9
    assert solved.certificate.objective - sol.objective == pytest.approx(solved.certified_gap, abs=1e-12)
    if solved.run.stop_reason == "certified":
        assert solved.certified_gap <= CERTIFY_TOL


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_default_solve_certifies(kind):
    inst = normalize_revenues(generate(kind, 4, 3, 77))
    solved = solve_restricted(inst)
    assert solved.run.stop_reason == "certified"
    assert solved.run.certified and solved.run.iterations < solved.run.t_max
    assert_certified(inst, solved)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("t_max", [200, 1000, 3000])
def test_certificate_of_every_budget(kind, t_max):
    # short budgets end before the restricted primal is optimal, so the
    # gap is positive there and the lift does real work
    inst = normalize_revenues(generate(kind, 4, 3, 78))
    solved = solve_restricted(inst, t_max=t_max)
    assert solved.run.iterations <= t_max
    assert_certified(inst, solved)


def test_short_budget_gap_is_positive():
    inst = normalize_revenues(generate("uniform-random", 4, 3, 77))
    solved = solve_restricted(inst, t_max=200)
    assert solved.run.stop_reason == "t_max"
    assert solved.certified_gap > 1e-3
    assert_certified(inst, solved)


def test_relaxed_oracle_run_certifies_with_the_exact_oracle():
    inst = normalize_revenues(generate("uniform-random", 3, 2, 4))
    solved = solve_restricted(inst, t_max=3000, delta=0.2)
    assert_certified(inst, solved)


def test_zero_revenue_certificate(zero_revenue_instance):
    solved = solve_restricted(zero_revenue_instance)
    assert solved.certified_gap == pytest.approx(0.0, abs=1e-12)
    assert_certified(zero_revenue_instance, solved)


@pytest.mark.parametrize("seed", [0, 1])
def test_tied_revenue_certificates(seed):
    rng = np.random.default_rng(seed)
    identical = Instance(n=4, m=2, u=np.ones((4, 2)), w=np.ones((2, 4)), r=np.ones((4, 2)))
    tied = Instance(n=4, m=2, u=rng.uniform(0.5, 2.0, (4, 2)), w=rng.uniform(0.5, 2.0, (2, 4)),
                    r=np.full((4, 2), 0.5))
    for inst in (identical, tied):
        for t_max in (300, None):
            assert_certified(inst, solve_restricted(inst, t_max))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extreme_weight_certificates(seed):
    # weights spanning 1e-9..1e3, as tiny weights model forbidden pairs
    rng = np.random.default_rng(seed)
    inst = normalize_revenues(Instance(
        n=3, m=2, u=10.0 ** rng.uniform(-9, 3, (3, 2)), w=10.0 ** rng.uniform(-9, 3, (2, 3)),
        r=rng.uniform(0.0, 1.0, (3, 2)),
    ))
    for t_max in (200, None):
        assert_certified(inst, solve_restricted(inst, t_max))


def test_certificate_requires_the_exact_oracle(unit_instance):
    point = solve_restricted(unit_instance, t_max=50).certificate
    with pytest.raises(ValueError, match="exact oracle"):
        dual_certificate(SubDualOracle(unit_instance, 0.1), point)


def test_degenerate_restricted_dual_ends_at_the_floor():
    # the restricted primal is exact long before the floor, but its duals
    # price out loosely at every checkpoint: the certified bound stays a
    # bound, not an estimate of the true gap
    inst = normalize_revenues(generate("uniform-random", 8, 2, 77))
    solved = solve_restricted(inst)
    assert solved.run.stop_reason == "float64_floor"
    assert solved.certified_gap > 1e-3
    assert solved.solution.objective == pytest.approx(lp2_exact_small(inst).objective, abs=1e-12)
    assert_certified(inst, solved)


def test_final_solve_reuses_the_last_checkpoint(monkeypatch):
    solves = []
    solve_lp = ellipsoid_module.solve_lp

    def counted(lp):
        solves.append(lp.num_vars)
        return solve_lp(lp)

    monkeypatch.setattr(ellipsoid_module, "solve_lp", counted)
    inst = normalize_revenues(generate("same-order-multiplicative", 4, 3, 77))
    # the only checkpoint falls on the last cut: its solve is the final one
    at_checkpoint = solve_restricted(inst, t_max=1000)
    assert at_checkpoint.run.stop_reason == "t_max" and len(solves) == 1
    # sets recorded after the checkpoint need a fresh solve over all of them
    solves.clear()
    later = solve_restricted(inst, t_max=1500)
    assert later.run.violated.total() > at_checkpoint.run.violated.total()
    assert len(solves) == 2
    assert later.columns.lam_index == build_aux_primal(inst, later.run.violated).lam_index
    assert_certified(inst, later)
