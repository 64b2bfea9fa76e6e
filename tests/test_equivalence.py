"""The optimized solver loops and the shared policy-oracle code against the
plain reference forms kept in ``oracles.py``. Solver comparisons are exact
(``==`` on values and on the raw bytes of arrays) where those optimizations
promise the same floating-point operations, not merely close answers. The
revised simplex is held to the same pivots as the dense tableau it replaced,
and to its values within LP_TOL, because it computes them with different
float operations. The policy oracles are held to 1e-12 against the
brute-force forms and to ``==`` against the recursion and samplers they
replaced (see below)."""

import numpy as np
import pytest

import oracles
import twosided.lp as lp_module
from oracles import (
    ReferenceOracle,
    _with,
    reference_best_marginal_assortment,
    reference_distribution_sample,
    reference_dual_feasibility_report,
    reference_dp_atar,
    reference_dp_ftar,
    reference_optimal_revenue,
    reference_optimal_revenue_table,
    reference_greedy_sample,
    reference_marginal_lp,
    reference_pivot_loop,
    reference_prefix_dp,
    reference_run_ellipsoid,
    reference_sample_choice,
    reference_solve_lp,
    reference_star,
    reference_static_sample,
    reference_subset_probs,
)
from twosided.cost_assortment import SubDualOracle, rev_cost
from twosided.ellipsoid import (
    CERTIFY_FIRST,
    CERTIFY_GROWTH,
    run_ellipsoid,
    solve_restricted,
)
from twosided.evaluate import SubsetDistribution, expected_optimal_revenue_independent, monte_carlo
from twosided.instance import GENERATOR_KINDS, Instance, detect_same_order, generate, normalize_revenues
from twosided.lp import (
    DualPoint,
    _marginal_lp,
    build_aux_primal,
    dual_feasibility_report,
    lp2_exact_small,
)
from twosided.mnl import independent_subset_probs, optimal_revenue, optimal_revenue_table, subset_of
from twosided.policies import (
    OUTSIDE,
    RandomizedStaticPolicy,
    SameOrderGreedyPolicy,
    _dp,
    best_marginal_assortment,
    exact_dp_atar,
    exact_dp_ftar,
    exact_star,
)
from twosided.rounding import choice_cdf, draw, sample_choice
from twosided.simplex import LinearProgram, solve_lp


def assert_same_run(got, want):
    assert got.iterations == want.iterations
    assert got.cut_counts == want.cut_counts
    assert got.incumbent_history == want.incumbent_history
    suppliers = range(len(want.violated.counts()))
    assert [got.violated[j] for j in suppliers] == [want.violated[j] for j in suppliers]
    assert got.objective == want.objective
    for name in ("alpha", "beta", "gamma"):
        assert getattr(got.best, name).tobytes() == getattr(want.best, name).tobytes()
    # trace rows carry (t, kind, (j, subset)) of every cut
    assert got.trace == want.trace
    # not stop_reason: a certified run is compared with a t_max reference
    assert got.degenerate_stop == want.degenerate_stop


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
    got = run_ellipsoid(inst, t_max=1500, delta=0.2, trace=True)
    assert got.stop_reason == "t_max"
    assert_same_run(got, reference_run_ellipsoid(inst, t_max=1500, delta=0.2, trace=True))


def test_debug_run_matches_reference():
    # the reference checks the shape matrix by Cholesky after every cut
    inst = normalize_revenues(generate("same-order-multiplicative", 2, 2, 8))
    got = run_ellipsoid(inst, t_max=300, trace=True)
    assert_same_run(got, reference_run_ellipsoid(inst, t_max=300, trace=True, debug=True))


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n, m", [(3, 3), (8, 2)])
def test_certified_run_is_a_prefix_of_the_reference_run(kind, n, m):
    # the certify checkpoints only read the recorded sets: a certified run
    # is the reference run cut off at its checkpoint, and any other run is
    # the whole reference run
    inst = normalize_revenues(generate(kind, n, m, 77))
    got = solve_restricted(inst, trace=True).run
    if got.certified:
        assert got.iterations in [CERTIFY_FIRST * CERTIFY_GROWTH**k for k in range(10)]
        want = reference_run_ellipsoid(inst, t_max=got.iterations, trace=True)
        assert want.stop_reason == "t_max"
    else:
        want = reference_run_ellipsoid(inst, trace=True)
        assert got.stop_reason == want.stop_reason
    assert_same_run(got, want)


def test_recorded_sets_were_genuinely_violating():
    # the run equals the reference cut for cut, so the reference's logged
    # costs are the ones each of the run's backlog cuts saw
    inst = normalize_revenues(generate("uniform-random", 3, 2, 21))
    want = reference_run_ellipsoid(inst, t_max=8000, trace=True, log_cuts=True)
    assert_same_run(run_ellipsoid(inst, t_max=8000, trace=True), want)
    assert want.ac_cuts
    for cut in want.ac_cuts:
        value = rev_cost(inst, cut.j, cut.subset, cut.gamma)
        assert value == pytest.approx(cut.value, abs=1e-12)
        assert value > cut.beta


def _sub_dual_cases():
    """(instance, list of gamma) pairs: all four generator kinds at n = 1..10
    (m = 2); a zero-revenue instance and one whose last customers earn
    nothing, under costs on a 0.25 grid that tie many sets exactly; an
    instance of identical customers; and supplier weights spanning
    1e-9..1e3."""
    rng = np.random.default_rng(40)

    def gammas(n, m):
        return [
            np.zeros((n, m)),
            rng.normal(0.0, 0.3, (n, m)),
            np.round(rng.normal(0.0, 0.3, (n, m)), 1),
            0.25 * rng.integers(-2, 3, (n, m)),
        ]

    for kind in GENERATOR_KINDS:
        for n in range(1, 11):
            yield generate(kind, n, 2, 200 + n), gammas(n, 2)
    base = generate("uniform-random", 6, 2, 41)
    grid = [0.25 * rng.integers(-2, 3, (6, 2)) for _ in range(8)]
    yield Instance(n=6, m=2, u=base.u, w=base.w, r=np.zeros((6, 2))), gammas(6, 2) + grid
    r = np.array(base.r)
    r[3:] = 0.0
    tied = gammas(6, 2)
    for gamma in tied:
        gamma[3:] = 0.0
    yield Instance(n=6, m=2, u=base.u, w=base.w, r=r), tied
    # identical customers at a uniform cost: every set of one size scores
    # exactly the same, so only the lex tie-break separates them
    same = Instance(n=6, m=2, u=np.ones((6, 2)), w=np.ones((2, 6)), r=np.ones((6, 2)))
    yield same, [np.full((6, 2), c) for c in (0.0, 0.0625, 0.125, 0.25)]
    wide = Instance(
        n=8,
        m=2,
        u=10.0 ** rng.uniform(-1.0, 1.0, (8, 2)),
        w=10.0 ** rng.uniform(-9.0, 3.0, (2, 8)),
        r=rng.uniform(0.0, 1.0, (8, 2)),
    )
    yield wide, gammas(8, 2)


@pytest.mark.parametrize("delta", [0.0, 0.1, 0.25, 0.5, 0.9])
def test_sub_dual_oracle_matches_reference(delta):
    for inst, gammas in _sub_dual_cases():
        got_oracle = SubDualOracle(inst, delta)
        want_oracle = ReferenceOracle(inst, delta)
        for gamma in gammas:
            for j in range(inst.m):
                got = got_oracle(j, gamma)
                assert got == want_oracle(j, gamma)[:2]
                assert type(got[0]) is float


def test_dual_report_matches_reference():
    # incumbents of short runs, and the same points with gamma lowered so
    # that backlog (assortment-cost) constraints are violated
    rng = np.random.default_rng(44)
    seen = set()
    for kind in GENERATOR_KINDS:
        for n, m in ((2, 2), (3, 2), (3, 3)):
            inst = normalize_revenues(generate(kind, n, m, 45))
            for point in run_ellipsoid(inst, t_max=3000).incumbents[-4:]:
                lowered = DualPoint(
                    alpha=point.alpha,
                    beta=point.beta,
                    gamma=point.gamma - rng.uniform(0.0, 0.3, point.gamma.shape),
                )
                for p in (point, lowered):
                    for tol in (0.0, 1e-9):
                        got = dual_feasibility_report(inst, p, tol=tol).violations
                        assert got == reference_dual_feasibility_report(inst, p, tol=tol).violations
                        seen.update(v.kind for v in got)
    assert "assortment-cost" in seen


def test_dual_report_ignores_memory_layout():
    # with m >= 8 numpy sums the rows of a Fortran-ordered or strided alpha
    # in another order than a C-ordered one; the amounts must not change
    inst = normalize_revenues(generate("uniform-random", 3, 9, 46))
    rng = np.random.default_rng(47)
    wide = rng.uniform(0.0, 1.0, (6, 18)) * 10.0 ** rng.integers(-6, 1, (6, 18))
    gamma = rng.uniform(0.0, 3.0, (3, 9))
    for alpha in (np.asfortranarray(wide[:3, :9]), wide[::2, ::2]):
        point = DualPoint(alpha=alpha, beta=np.zeros(9), gamma=gamma)
        got = dual_feasibility_report(inst, point, tol=0.0).violations
        assert got == reference_dual_feasibility_report(inst, point, tol=0.0).violations
        assert any(v.kind == "weight-link" for v in got)


LP_TOL = 1e-12


def _solve_both(lp, monkeypatch):
    got = solve_lp(lp)
    want = reference_solve_lp(lp)
    # the reference's vectorized entering scan against a plain Python scan
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_pivot_loop", reference_pivot_loop)
        plain = reference_solve_lp(lp)
    assert (plain.status, plain.iterations, plain.basis) == (want.status, want.iterations, want.basis)
    assert plain.objective == want.objective
    if want.x is not None:
        assert plain.x.tobytes() == want.x.tobytes()
    return got, want


def assert_same_lp_result(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.basis == want.basis
    if want.x is None:
        assert got.x is None and got.objective is None
    else:
        assert abs(got.objective - want.objective) <= LP_TOL
        assert np.abs(got.x - want.x).max() <= LP_TOL


def _full_marginal_lp(inst):
    all_subsets = [subset_of(mask, inst.n) for mask in range(2**inst.n)]
    return _marginal_lp(inst, [all_subsets] * inst.m).lp


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_full_marginal_lp_matches_reference_pivoting(kind, monkeypatch):
    inst = normalize_revenues(generate(kind, 4, 2, 6))
    got, want = _solve_both(_full_marginal_lp(inst), monkeypatch)
    assert got.status == "optimal" and got.iterations > 0
    assert_same_lp_result(got, want)

    sol = lp2_exact_small(inst)
    with monkeypatch.context() as patch:
        patch.setattr(lp_module, "solve_lp", reference_solve_lp)
        ref = lp2_exact_small(inst)
    assert np.abs(sol.x - ref.x).max() <= LP_TOL
    assert [lam.keys() for lam in sol.lam] == [lam.keys() for lam in ref.lam]
    for lam, ref_lam in zip(sol.lam, ref.lam):
        assert all(abs(p - ref_lam[subset]) <= LP_TOL for subset, p in lam.items())
    assert abs(sol.objective - ref.objective) <= LP_TOL


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_8x4_marginal_lp_matches_reference_pivoting(kind):
    lp = _full_marginal_lp(normalize_revenues(generate(kind, 8, 4, 6)))
    got = solve_lp(lp)
    assert got.status == "optimal"
    assert_same_lp_result(got, reference_solve_lp(lp))


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


def _recorded_supports(inst):
    columns = build_aux_primal(inst, run_ellipsoid(inst, t_max=2000).violated)
    return [[subset for owner, subset in columns.lam_index if owner == j] for j in range(inst.m)]


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_marginal_lp_build_is_identical_to_loop_form(kind):
    full = normalize_revenues(generate(kind, 6, 3, 4))
    aux = normalize_revenues(generate(kind, 3, 2, 9))
    all_subsets = [subset_of(mask, full.n) for mask in range(2**full.n)]
    for inst, support in ((full, [all_subsets] * full.m), (aux, _recorded_supports(aux))):
        got, want = _marginal_lp(inst, support), reference_marginal_lp(inst, support)
        for name in ("c", "a_eq", "b_eq", "a_ub", "b_ub"):
            assert getattr(got.lp, name).tobytes() == getattr(want.lp, name).tobytes(), name
        assert got.lp.names == want.lp.names
        assert got.lam_index == want.lam_index


# ---------------------------------------------------------------------------
# Policy oracles against the brute-force references. The DP and static
# optimum now add up the same terms in a different order, so values agree to
# ORACLE_TOL; the product-Bernoulli and prefix-scan helpers do the same float
# operations as before and must match with ==.

ORACLE_TOL = 1e-12
ORACLE_SIZES = ((1, 3), (3, 2), (3, 3), (4, 3), (6, 2))


def _oracle_instances():
    cases = [
        pytest.param(kind, n, m, id=f"{kind}-{n}x{m}")
        for kind in GENERATOR_KINDS
        for n, m in ORACLE_SIZES
    ]
    return cases + [pytest.param("zero-revenue", 3, 2, id="zero-revenue"),
                    pytest.param("counterexample", 3, 1, id="counterexample")]


def _make(kind, n, m, request):
    if kind == "unit":
        return request.getfixturevalue("unit_instance")
    if kind == "zero-revenue":
        return request.getfixturevalue("zero_revenue_instance")
    if kind == "counterexample":
        return request.getfixturevalue("counterexample")
    return generate(kind, n, m, 10 * n + m)


def assert_dp_matches_reference(inst):
    opt, policy = exact_dp_atar(inst)
    ref_opt, ref_policy, ref_memo = reference_dp_atar(inst)
    assert abs(opt - ref_opt) <= ORACLE_TOL
    assert policy.keys() == ref_policy.keys()
    # where two actions tie to rounding the picks may differ, so each chosen
    # action is scored on the reference successor values instead
    for status, (i, offer) in policy.items():
        succ_out = ref_memo[_with(status, i, OUTSIDE)]
        num, den = succ_out, 1.0
        for j in offer:
            num += inst.u[i, j] * ref_memo[_with(status, i, j)]
            den += inst.u[i, j]
        assert abs(num / den - ref_memo[status]) <= ORACLE_TOL
    for order in (tuple(range(inst.n)), tuple(reversed(range(inst.n)))):
        assert abs(exact_dp_ftar(inst, order) - reference_dp_ftar(inst, order)) <= ORACLE_TOL


@pytest.mark.parametrize("kind, n, m", _oracle_instances())
def test_policy_oracles_match_reference(kind, n, m, request):
    inst = _make(kind, n, m, request)
    assert_dp_matches_reference(inst)
    assert abs(exact_star(inst) - reference_star(inst)) <= ORACLE_TOL


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_dp_at_6x3_matches_reference(kind):
    assert_dp_matches_reference(generate(kind, 6, 3, 63))


def test_product_bernoulli_call_sites_match_reference_loop():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 8):
        q = rng.uniform(0.0, 1.0, n)
        q[rng.integers(0, n)] = rng.choice([0.0, 1.0])
        want = reference_subset_probs(q)
        assert independent_subset_probs(q).tobytes() == want.tobytes()
        assert [p for _, p in SubsetDistribution.product(q).support] == want.tolist()
        inst = generate("uniform-random", n, 2, n)
        gtab = optimal_revenue_table(inst, 1)
        assert expected_optimal_revenue_independent(inst, 1, q) == float(want @ gtab)
        # the 2-D form stacks independent 1-D columns
        cols = rng.uniform(0.0, 1.0, (n, 3))
        stacked = independent_subset_probs(cols)
        for k in range(3):
            assert stacked[:, k].tobytes() == reference_subset_probs(cols[:, k]).tobytes()

    inst = normalize_revenues(generate("supplier-uniform", 4, 3, 5))
    policy = RandomizedStaticPolicy(inst, lp2_exact_small(inst))
    want = 0.0
    for j in range(inst.m):
        want += float(reference_subset_probs(policy.x[:, j]) @ optimal_revenue_table(inst, j))
    assert policy.exact_expected_revenue() == want


def test_best_marginal_assortment_matches_numpy_scan():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        m = int(rng.integers(1, 7))
        rho = rng.uniform(-0.2, 1.0, m)
        if rng.random() < 0.3:  # ties in rho and in value
            rho = np.round(rho, 1)
        u = rng.uniform(0.1, 3.0, m)
        want = reference_best_marginal_assortment(rho, u)
        assert best_marginal_assortment(rho, u) == want
        assert best_marginal_assortment(rho.tolist(), u.tolist()) == want


def _prefix_rule_instances():
    """All four generator kinds at n = 1..10 (m = 2), plus a fixture whose
    revenues and weights are rounded to force ties and that has zero
    revenues, zero columns and a zero-revenue supplier."""
    for kind in GENERATOR_KINDS:
        for n in range(1, 11):
            yield generate(kind, n, 2, 100 + n)
    rng = np.random.default_rng(31)
    r = np.round(rng.uniform(0.0, 1.0, (8, 3)), 1)
    r[2] = 0.0
    r[:, 2] = 0.0
    yield Instance(n=8, m=3, u=np.ones((8, 3)), w=np.round(rng.uniform(0.5, 2.0, (3, 8)), 0), r=r)


def test_prefix_rule_matches_reference_scan():
    rng = np.random.default_rng(30)
    for inst in _prefix_rule_instances():
        for j in range(inst.m):
            subsets = [(), tuple(range(inst.n))]
            subsets += [subset_of(int(mask), inst.n) for mask in rng.integers(0, 2**inst.n, 20)]
            for subset in subsets:
                want = reference_optimal_revenue(inst, j, subset)
                for members in (subset, list(reversed(subset))):
                    got = optimal_revenue(inst, j, members)
                    assert got == want
                    assert type(got[0]) is float


def test_optimal_revenue_table_matches_reference_sweep():
    for inst in _prefix_rule_instances():
        for j in range(inst.m):
            want = reference_optimal_revenue_table(inst, j)
            assert optimal_revenue_table(inst, j).tobytes() == want.tobytes()
    for kind in GENERATOR_KINDS:
        inst = generate(kind, 11, 3, 7)
        for j in range(inst.m):
            want = reference_optimal_revenue_table(inst, j)
            assert optimal_revenue_table(inst, j).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The layered array DP and the table-driven samplers do the same
# floating-point operations as the memoized recursion and the per-draw
# samplers they replaced, so they are held to them with ==.

def _exact_dp_instances():
    cases = [
        pytest.param(kind, n, m, id=f"{kind}-{n}x{m}")
        for kind in GENERATOR_KINDS
        for n, m in ORACLE_SIZES + ((6, 3), (5, 4))
    ]
    return cases + [
        pytest.param("same-order-additive", 8, 2, id="same-order-additive-8x2"),
        pytest.param("unit", 1, 1, id="unit"),
        pytest.param("zero-revenue", 3, 2, id="zero-revenue"),
        pytest.param("counterexample", 3, 1, id="counterexample"),
    ]


@pytest.mark.parametrize("kind, n, m", _exact_dp_instances())
def test_dp_is_identical_to_recursion(kind, n, m, request):
    inst = _make(kind, n, m, request)
    opt, policy = exact_dp_atar(inst)
    ref_opt, ref_policy = reference_prefix_dp(inst, None)
    assert opt == ref_opt
    assert policy == ref_policy
    shuffled = tuple(np.random.default_rng(10 * n + m).permutation(inst.n).tolist())
    for order in (tuple(range(inst.n)), tuple(reversed(range(inst.n))), shuffled):
        want = reference_prefix_dp(inst, order)
        assert _dp(inst, order) == want
        assert exact_dp_ftar(inst, order) == want[0]


def test_cdf_draw_matches_generator_choice():
    meta = np.random.default_rng(2024)
    for case in range(20_000):
        k = int(meta.integers(1, 8))
        p = meta.dirichlet(np.ones(k))
        if k > 1 and case % 3 == 0:  # zero entries, at least one left positive
            p[meta.integers(0, k, size=int(meta.integers(1, k)))] = 0.0
            p /= p.sum()
        got, want = np.random.default_rng(case), np.random.default_rng(case)
        assert draw(choice_cdf(p), got) == want.choice(k, p=p)
        assert got.random() == want.random()  # one uniform consumed by both


@pytest.mark.parametrize("p", [[0.5, -0.1, 0.6], [0.5, np.nan, 0.5], [0.3, 0.3], [np.inf, 0.0]])
def test_choice_cdf_rejects_what_generator_choice_rejects(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), p=np.array(p))
    with pytest.raises(ValueError):
        choice_cdf(p)


def _static_policy(kind, n, m):
    inst = normalize_revenues(generate(kind, n, m, 10 * n + m))
    return RandomizedStaticPolicy(inst, lp2_exact_small(inst))


def test_distribution_and_choice_draws_match_reference():
    policy = _static_policy("uniform-random", 6, 3)
    u = policy.inst.u
    for seed in range(200):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, dist in enumerate(policy.distributions):
            offered = dist.sample(got)
            assert offered == reference_distribution_sample(dist, want)
            assert sample_choice(u[i], offered, got) == reference_sample_choice(u[i], offered, want)


def assert_same_sampler(sample, reference, trials=500, master_seed=9):
    assert monte_carlo(sample, trials, master_seed) == monte_carlo(reference, trials, master_seed)
    for k in range(trials):
        seed = np.random.SeedSequence((master_seed, k))
        assert sample(seed) == reference(seed)


@pytest.mark.parametrize("n, m", [(3, 3), (6, 3)])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_static_sampler_matches_reference(kind, n, m):
    policy = _static_policy(kind, n, m)
    assert_same_sampler(policy.sample, lambda seed: reference_static_sample(policy, seed))


@pytest.mark.parametrize("n, m", [(3, 3), (6, 3)])
@pytest.mark.parametrize("kind", GENERATOR_KINDS[1:])
def test_greedy_sampler_matches_reference(kind, n, m):
    inst = generate(kind, n, m, 10 * n + m)
    policy = SameOrderGreedyPolicy(inst, certificate=detect_same_order(inst))
    assert_same_sampler(policy.sample, lambda seed: reference_greedy_sample(policy, seed))
