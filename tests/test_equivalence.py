"""The optimized solver loops against the plain reference loops kept in
``oracles.py``: every comparison is exact (``==`` on values and on the raw
bytes of arrays), because the optimizations promise the same floating-point
operations, not merely close answers."""

import numpy as np
import pytest

import twosided.simplex as simplex
from oracles import reference_pivot_loop, reference_run_ellipsoid
from twosided.cost_assortment import OracleConfig
from twosided.ellipsoid import EllipsoidInit, default_radius, run_ellipsoid
from twosided.instance import GENERATOR_KINDS, generate, normalize_revenues
from twosided.lp import _marginal_lp, build_aux_primal, lp2_exact_small
from twosided.mnl import subset_of
from twosided.simplex import LinearProgram, solve_lp


def assert_same_run(got, want):
    assert got.iterations == want.iterations
    assert got.cut_counts == want.cut_counts
    assert got.incumbent_history == want.incumbent_history
    assert got.violated.per_supplier() == want.violated.per_supplier()
    assert got.objective == want.objective
    for name in ("alpha", "beta", "gamma"):
        assert getattr(got.best, name).tobytes() == getattr(want.best, name).tobytes()
    assert [(c.t, c.j, c.subset, c.value, c.beta) for c in got.ac_cuts] == [
        (c.t, c.j, c.subset, c.value, c.beta) for c in want.ac_cuts
    ]
    assert got.trace == want.trace
    assert (got.early_exited, got.degenerate_stop) == (want.early_exited, want.degenerate_stop)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_default_run_matches_reference(kind):
    # default budget: these runs end at the float64 floor
    inst = normalize_revenues(generate(kind, 2, 2, 3))
    got = run_ellipsoid(inst, trace=True)
    assert got.stop_reason == "float64_floor"
    assert_same_run(got, reference_run_ellipsoid(inst, trace=True))


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_relaxed_oracle_run_matches_reference(kind):
    inst = normalize_revenues(generate(kind, 3, 2, 4))
    config = OracleConfig(kind="relaxed", delta=0.2)
    got = run_ellipsoid(inst, config, t_max=1500, log_cuts=True)
    assert got.stop_reason == "t_max"
    assert_same_run(got, reference_run_ellipsoid(inst, config, t_max=1500, log_cuts=True))


def test_early_exit_matches_reference(unit_instance):
    got = run_ellipsoid(unit_instance, t_max=10**6, early_exit=True, trace=True)
    assert got.stop_reason == "early_exit"
    assert_same_run(got, reference_run_ellipsoid(unit_instance, t_max=10**6, early_exit=True, trace=True))


def test_debug_run_matches_reference():
    inst = normalize_revenues(generate("same-order-multiplicative", 2, 2, 8))
    got = run_ellipsoid(inst, t_max=300, debug=True)
    assert_same_run(got, reference_run_ellipsoid(inst, t_max=300, debug=True))


@pytest.mark.parametrize("order", ["C", "F"])
def test_asymmetric_initial_shape_matches_reference(order):
    # positive definite (x'Sx > 0) but not symmetric: the loop symmetrizes
    # it once, after the first update, exactly where the reference does
    inst = normalize_revenues(generate("uniform-random", 2, 2, 3))
    n_dim = 2 * 2 * 2 + 2
    rng = np.random.default_rng(0)
    shape = default_radius(inst) ** 2 * (np.eye(n_dim) + 0.05 * rng.standard_normal((n_dim, n_dim)))
    assert not np.array_equal(shape, shape.T)
    init = EllipsoidInit(center=rng.uniform(-0.1, 0.1, n_dim), shape=np.array(shape, order=order))
    got = run_ellipsoid(inst, init=init)
    assert_same_run(got, reference_run_ellipsoid(inst, init=init))


def _solve_both(lp, monkeypatch):
    got = solve_lp(lp)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_pivot_loop", reference_pivot_loop)
        want = solve_lp(lp)
    return got, want


def assert_same_lp_result(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.basis == want.basis
    assert got.objective == want.objective
    if want.x is not None:
        assert got.x.tobytes() == want.x.tobytes()


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_full_marginal_lp_matches_reference_pivoting(kind, monkeypatch):
    inst = normalize_revenues(generate(kind, 4, 2, 6))
    all_subsets = [subset_of(mask, inst.n) for mask in range(2**inst.n)]
    lp = _marginal_lp(inst, [all_subsets] * inst.m).lp
    got, want = _solve_both(lp, monkeypatch)
    assert got.status == "optimal" and got.iterations > 0
    assert_same_lp_result(got, want)

    sol = lp2_exact_small(inst)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_pivot_loop", reference_pivot_loop)
        ref = lp2_exact_small(inst)
    assert sol.x.tobytes() == ref.x.tobytes()
    assert sol.lam == ref.lam
    assert sol.objective == ref.objective


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_aux_primal_matches_reference_pivoting(kind, monkeypatch):
    inst = normalize_revenues(generate(kind, 3, 2, 9))
    columns = build_aux_primal(inst, run_ellipsoid(inst, t_max=2000).violated)
    got, want = _solve_both(columns.lp, monkeypatch)
    assert_same_lp_result(got, want)


def test_infeasible_and_unbounded_match_reference(monkeypatch):
    infeasible = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0])
    unbounded = LinearProgram(c=[1.0, 0.0], a_ub=[[-1.0, 1.0]], b_ub=[1.0])
    for lp, status in ((infeasible, "infeasible"), (unbounded, "unbounded")):
        got, want = _solve_both(lp, monkeypatch)
        assert got.status == status
        assert_same_lp_result(got, want)
