import math
from collections import Counter

import numpy as np
import pytest

from oracles import reference_suite_gap, squared_size_table
from twosided import evaluate, mnl, suites
from twosided.evaluate import (
    SubsetDistribution,
    correlation_gap_check,
    correlation_gap_ratios,
    cost_share,
    cost_sharing_check,
    expected_optimal_revenue,
    interleaved_partition_check,
    monte_carlo,
    revenue_order,
    submodular_order_check,
    submodularity_check,
)
from twosided.instance import detect_same_order, generate
from twosided.lp import lp2_exact_small
from twosided.mnl import SizeLimitError, optimal_revenue, subset_of
from twosided.policies import RandomizedStaticPolicy

TOL = 1e-9


def test_monte_carlo_zero_revenue(zero_revenue_instance):
    policy = RandomizedStaticPolicy(
        zero_revenue_instance, lp2_exact_small(zero_revenue_instance)
    )
    mean, stderr = monte_carlo(policy, 50, 7)
    assert mean == 0.0 and stderr == 0.0


def test_monte_carlo_deterministic(unit_instance):
    policy = RandomizedStaticPolicy(unit_instance, lp2_exact_small(unit_instance))
    assert monte_carlo(policy, 200, 11) == monte_carlo(policy, 200, 11)


def test_monte_carlo_unit_instance_close_to_quarter(unit_instance):
    policy = RandomizedStaticPolicy(unit_instance, lp2_exact_small(unit_instance))
    mean, stderr = monte_carlo(policy, 100_000, 2024)
    assert abs(mean - 0.25) <= 3.0 * stderr


@pytest.mark.parametrize(
    "trials, master_seed, error",
    [(0, 1, ValueError), (-3, 1, ValueError), (5, -1, ValueError), (5, 1.5, TypeError), (5, None, TypeError)],
)
def test_monte_carlo_rejects_bad_arguments_before_any_run(unit_instance, monkeypatch, trials, master_seed, error):
    policy = RandomizedStaticPolicy(unit_instance, lp2_exact_small(unit_instance))

    def unreachable(uniforms):
        raise AssertionError("a run started")

    monkeypatch.setattr(policy, "revenues", unreachable)
    with pytest.raises(error):
        monte_carlo(policy, trials, master_seed)


def test_point_mass_ratio_is_one():
    inst = generate("uniform-random", 5, 2, 3)
    dist = SubsetDistribution.point_mass((0, 3))
    ratio = correlation_gap_check(inst, 0, dist)
    assert abs(ratio - 1.0) <= 1e-12


def test_product_distribution_ratio_is_one():
    inst = generate("uniform-random", 5, 2, 4)
    rng = np.random.default_rng(1)
    dist = SubsetDistribution.product(rng.uniform(0.0, 1.0, 5))
    ratio = correlation_gap_check(inst, 1, dist)
    assert abs(ratio - 1.0) <= 1e-12


def test_gap_bounded_random_sweep():
    rng = np.random.default_rng(6)
    for k in range(100):
        inst = generate("uniform-random", 5, 2, 100 + k)
        dist = SubsetDistribution.random_correlated(5, rng)
        ratio = correlation_gap_check(inst, k % 2, dist)
        assert ratio is not None
        assert ratio <= 2.0 + TOL


def test_gap_uniform_revenues_tighter_bound():
    rng = np.random.default_rng(16)
    bound = math.e / (math.e - 1.0)
    for k in range(100):
        inst = generate("supplier-uniform", 5, 2, 300 + k)
        dist = SubsetDistribution.random_correlated(5, rng)
        ratio = correlation_gap_check(inst, k % 2, dist)
        assert ratio is not None
        assert ratio <= bound + TOL


def test_gap_undefined_flagged(zero_revenue_instance):
    dist = SubsetDistribution.point_mass((0, 1))
    assert correlation_gap_check(zero_revenue_instance, 0, dist) is None


def test_expected_value_under_support(counterexample):
    dist = SubsetDistribution(((0b100, 0.5), (0b111, 0.5)))
    want = 0.5 * 1.5 + 0.5 * (7.0 / 3.0)
    assert expected_optimal_revenue(counterexample, 0, dist) == pytest.approx(want, abs=TOL)
    # a negative mask would read the table from its end, and one past the
    # universe names a customer outside it
    with pytest.raises(ValueError):
        SubsetDistribution(((-1, 1.0),))
    with pytest.raises(IndexError):
        SubsetDistribution(((0b1000, 1.0),)).marginals(3)


@pytest.mark.parametrize("support", [((0, math.nan),), ((0, 1.0), (1, math.nan)), ((0, math.inf),)])
def test_non_finite_probabilities_are_refused(support):
    # every comparison with NaN is false, so a refusal written as p < 0 or
    # |total - 1| > tol lets a NaN probability through
    with pytest.raises(ValueError):
        SubsetDistribution(support)


def test_cost_share_empty_set(counterexample):
    assert sum(cost_share(counterexample, 0, i, ()) for i in range(3)) == 0.0


def test_cost_share_counterexample_values(counterexample):
    # descending revenue order 0, 1, 2: shares telescope prefix by prefix
    shares = [cost_share(counterexample, 0, i, (0, 1, 2)) for i in range(3)]
    assert shares[0] == pytest.approx(2.0, abs=TOL)
    assert shares[1] == pytest.approx(7.0 / 3.0 - 2.0, abs=TOL)
    assert shares[2] == pytest.approx(0.0, abs=TOL)
    assert sum(shares) == pytest.approx(7.0 / 3.0, abs=TOL)


def test_cost_sharing_random_sweep():
    for seed in range(3):
        inst = generate("uniform-random", 8, 2, seed)
        report = cost_sharing_check(inst, seed % 2, 200, seed)
        assert report.passed, report.violations[:2]


def test_cost_sharing_check_fires_on_a_supermodular_table(monkeypatch):
    # g(S) = |S|^2 gives customer i the share 2 |members above i| + 1, which
    # grows with the set: cross-monotonicity fails, budget balance holds
    monkeypatch.setattr(mnl, "optimal_revenue_table", squared_size_table)
    report = cost_sharing_check(generate("uniform-random", 8, 2, 3), 0, 200, 3)
    assert report.violations
    assert {v["kind"] for v in report.violations} == {"cross-monotonicity"}


def test_checks_read_one_table_and_run_no_prefix_scan(monkeypatch):
    calls = Counter()
    for name in ("optimal_revenue", "optimal_revenue_table"):
        real = getattr(mnl, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mnl, name, counted)
    inst = generate("uniform-random", 8, 2, 5)
    assert cost_sharing_check(inst, 1, 200, 5).passed
    assert calls == {"optimal_revenue_table": 1}
    calls.clear()
    dist = SubsetDistribution.random_correlated(8, np.random.default_rng(5))
    assert correlation_gap_check(inst, 0, dist) is not None
    assert calls == {"optimal_revenue_table": 1}


def test_cost_sharing_size_guard():
    assert cost_sharing_check(generate("uniform-random", 10, 1, 0), 0, 5, 0).cases == 5
    inst = generate("uniform-random", 11, 1, 0)
    with pytest.raises(SizeLimitError):
        cost_sharing_check(inst, 0, 5, 0)
    with pytest.raises(SizeLimitError):
        cost_share(inst, 0, 0, (0,))


@pytest.mark.parametrize(
    "check",
    [
        lambda inst: expected_optimal_revenue(inst, 0, SubsetDistribution.point_mass((0,))),
        lambda inst: correlation_gap_check(inst, 0, SubsetDistribution.point_mass((0,))),
        lambda inst: submodularity_check(inst, 0),
        lambda inst: submodular_order_check(inst, 0, range(11), exhaustive=True),
        lambda inst: submodular_order_check(inst, 0, range(11), trials=5, seed=0),
        lambda inst: interleaved_partition_check(inst, 0, range(11), 5, 0),
    ],
    ids=[
        "expected_optimal_revenue", "correlation_gap_check", "submodularity_check",
        "submodular_order_check-exhaustive", "submodular_order_check-sampled",
        "interleaved_partition_check",
    ],
)
def test_table_reads_refuse_past_the_size_limit(monkeypatch, check):
    # the guard answers before the 2^n table is built
    def unreachable(*args):
        raise AssertionError("an optimal-revenue table was built past the limit")

    monkeypatch.setattr(mnl, "optimal_revenue_table", unreachable)
    with pytest.raises(SizeLimitError):
        check(generate("uniform-random", 11, 1, 0))


def test_gap_ratios_refuse_what_the_check_refuses(monkeypatch):
    # past the size limit before any probability row is built, in both forms
    def unreachable(*args):
        raise AssertionError("a probability row was built past the limit")

    monkeypatch.setattr(mnl, "independent_subset_probs", unreachable)
    with pytest.raises(SizeLimitError):
        correlation_gap_ratios(np.zeros((2, 2**11)), np.zeros((2, 1), dtype=int), np.ones((2, 1)))
    monkeypatch.undo()
    # a mask of 2^n or more names a customer outside the universe
    inst = generate("uniform-random", 3, 1, 0)
    gtabs = np.stack([mnl.optimal_revenue_table(inst, 0)] * 2)
    with pytest.raises(IndexError):
        correlation_gap_ratios(gtabs, np.array([[1, 0], [2**3, 0]]), np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(IndexError):
        correlation_gap_check(inst, 0, SubsetDistribution(((2**3, 1.0),)))


def test_budget_balance_matches_g():
    inst = generate("uniform-random", 6, 2, 44)
    rng = np.random.default_rng(0)
    for _ in range(50):
        subset = subset_of(int(rng.integers(0, 64)), 6)
        total = sum(cost_share(inst, 0, i, subset) for i in range(6))
        g, _ = optimal_revenue(inst, 0, subset)
        assert total == pytest.approx(g, abs=TOL)


def test_submodularity_fails_on_counterexample(counterexample):
    report = submodularity_check(counterexample, 0)
    assert not report.passed
    assert any(
        v["A"] == (2,) and v["B"] == (1, 2) and v["i"] == 0 for v in report.violations
    )


def test_submodularity_holds_with_uniform_revenues():
    inst = generate("supplier-uniform", 5, 2, 12)
    assert submodularity_check(inst, 0).passed


def test_submodular_order_correct_order_passes(counterexample):
    order = revenue_order(counterexample, 0)
    assert order == (0, 1, 2)
    report = submodular_order_check(counterexample, 0, order, exhaustive=True)
    assert report.passed


def test_submodular_order_wrong_order_fails(counterexample):
    report = submodular_order_check(counterexample, 0, (1, 2, 0), exhaustive=True)
    assert not report.passed


def test_submodular_order_random_same_order_instances():
    for seed in range(6):
        kind = ("same-order-additive", "same-order-multiplicative", "supplier-uniform")[seed % 3]
        inst = generate(kind, 6, 2, seed)
        cert = detect_same_order(inst)
        report = submodular_order_check(inst, seed % 2, cert.sigma, trials=200, seed=seed)
        assert report.passed, report.violations[:2]


def test_interleaved_partition_target_inside_backlog(counterexample):
    # target inside the backlog: reduces to monotonicity, no marginal terms
    report = interleaved_partition_check(counterexample, 0, (0, 1, 2), trials=50, seed=8)
    assert report.passed


def test_interleaved_partition_disjoint_case_direct():
    inst = generate("same-order-additive", 4, 1, 5)
    sigma = detect_same_order(inst).sigma
    gtab_value = lambda members: optimal_revenue(inst, 0, members)[0]
    backlog = (sigma[0], sigma[2])
    target = (sigma[1], sigma[3])
    lhs = gtab_value(tuple(sorted(backlog + target)))
    rhs = gtab_value(backlog)
    seen = ()
    for i in sigma:
        if i in backlog:
            seen = tuple(sorted(seen + (i,)))
        elif i in target:
            rhs += gtab_value(tuple(sorted(seen + (i,)))) - gtab_value(seen)
    assert lhs <= rhs + TOL


def test_interleaved_partition_random_sweep():
    for seed in range(5):
        inst = generate("same-order-multiplicative", 6, 2, 50 + seed)
        cert = detect_same_order(inst)
        report = interleaved_partition_check(inst, seed % 2, cert.sigma, 200, seed)
        assert report.passed, report.violations[:2]


def test_checks_deterministic():
    inst = generate("uniform-random", 6, 2, 2)
    a = cost_sharing_check(inst, 0, 100, 5)
    b = cost_sharing_check(inst, 0, 100, 5)
    assert a.violations == b.violations and a.cases == b.cases


def test_gap_ratio_is_infinite_when_only_the_denominator_vanishes(monkeypatch):
    # a stand-in table that the independent distribution with marginals
    # (1/2, 1/2) averages to 0, while the draw, {0} or {1}, reads 1
    monkeypatch.setattr(mnl, "optimal_revenue_table", lambda inst, j: np.array([-1.0, 1.0, 1.0, -1.0]))
    dist = SubsetDistribution(((0b01, 0.5), (0b10, 0.5)))
    assert correlation_gap_check(generate("uniform-random", 2, 1, 0), 0, dist) == math.inf


def _fields(reports):
    return [(r.name, r.cases, r.violations, list(r.notes.items())) for r in reports]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("bounds", [None, (0.0, 0.0)], ids=["paper-bounds", "every-ratio-recorded"])
def test_gap_suite_matches_the_per_draw_reference(monkeypatch, seed, bounds):
    # with both bounds at 0 every defined ratio is recorded, in draw order
    if bounds:
        monkeypatch.setattr(suites, "GAP_GENERAL_BOUND", bounds[0])
        monkeypatch.setattr(suites, "GAP_UNIFORM_BOUND", bounds[1])
    got, want = suites.suite_gap(seed), reference_suite_gap(seed)
    assert _fields(got) == _fields(want)
    assert got[0].notes["undefined-draws"] > 0  # the 0/0 draws are among them
    assert len(got[0].violations) > (900 if bounds else -1)


def test_gap_suite_reads_no_instance_table(monkeypatch):
    def unreachable(inst, j):
        raise AssertionError("the suite read an instance's optimal-revenue table")

    monkeypatch.setattr(mnl, "optimal_revenue_table", unreachable)
    report, exact = suites.suite_gap(1)
    assert (report.cases, exact.cases) == (suites.GAP_DRAWS, 100)
    assert report.passed and exact.passed


def _padding_is_zero(live, masks, probs):
    return (masks[~live] == 0).all() and (probs[~live] == 0.0).all() and not np.signbit(probs[~live]).any()


@pytest.mark.parametrize("seed", range(1, 21))
def test_gap_draws_have_the_law_of_the_per_draw_sampler(seed):
    for kind in ("uniform-random", "supplier-uniform"):
        inst, n, k, masks, probs = suites._correlated_draws(seed, kind, 500)
        assert (inst.n, inst.m) == (suites.GAP_CUSTOMERS, 500)
        assert set(n.tolist()) == {3, 4, 5, 6}
        assert set(k.tolist()) == set(range(1, suites.CORRELATED_MAX_SUPPORT + 1))
        assert masks.shape == probs.shape == (500, suites.CORRELATED_MAX_SUPPORT)
        live = np.arange(suites.CORRELATED_MAX_SUPPORT) < k[:, None]
        assert ((masks >= 0) & (masks < 1 << n[:, None])).all()
        assert _padding_is_zero(live, masks, probs) and (probs[live] > 0.0).all()
        assert all(abs(math.fsum(row) - 1.0) <= 1e-12 for row in probs.tolist())
        assert ((inst.w >= 0.1) & (inst.w <= 10.0)).all() and ((inst.u >= 0.1) & (inst.u <= 10.0)).all()
        if kind == "supplier-uniform":
            # one r_j per supplier row: its values r·w are r_j·w
            assert (inst.r == inst.r[0]).all()
        else:
            assert all(len(set(row[:size])) == size for row, size in zip(inst.r.T.tolist(), n.tolist()))

    inst, n, (k_point, points, point_probs), (k_product, products, product_probs) = suites._exactness_draws(seed)
    assert (inst.n, inst.m) == (suites.GAP_CUSTOMERS, suites.EXACT_DRAWS)
    assert set(n.tolist()) == {2, 3, 4, 5, 6}
    assert (k_point == 1).all() and (point_probs == 1.0).all() and ((points >= 0) & (points < 1 << n[:, None])).all()
    assert (k_product == 1 << n).all()
    live = np.arange(1 << suites.GAP_CUSTOMERS) < k_product[:, None]
    assert (products[live] == np.nonzero(live)[1]).all()  # every subset, in mask order
    assert _padding_is_zero(live, products, product_probs)
    for size, row in zip(n.tolist(), product_probs):
        # the product of its own marginals, each in [0, 1]
        q = SubsetDistribution(tuple(enumerate(row[: 1 << size].tolist()))).marginals(size)
        assert ((q >= 0.0) & (q <= 1.0)).all()
        assert np.allclose(row[: 1 << size], mnl.independent_subset_probs(q), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("patch", [math.nan, -0.25], ids=["nan", "negative"])
def test_gap_draws_refuse_a_probability_as_the_distribution_does(patch):
    inst, n, k, masks, probs = suites._correlated_draws(1, "uniform-random", 500)
    probs[7, 0] = patch
    with pytest.raises(ValueError, match="negative or NaN"):
        suites._gap_ratios(inst, n, k, masks, probs)
    with pytest.raises(ValueError, match="negative or NaN"):
        SubsetDistribution(((0, patch), (1, 1.0 - patch)))
    probs[7, 0] = 0.5  # nonnegative, but the row no longer sums to 1
    with pytest.raises(ValueError, match="sum to"):
        suites._gap_ratios(inst, n, k, masks, probs)


def test_gap_suite_generates_one_instance_per_kind(monkeypatch):
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    def unreachable(*args, **kwargs):
        raise AssertionError("the suite made a per-draw call")

    monkeypatch.setattr(suites, "generate", counted("generate", suites.generate))
    monkeypatch.setattr(np.random, "default_rng", counted("default_rng", np.random.default_rng))
    monkeypatch.setattr(SubsetDistribution, "random_correlated", staticmethod(unreachable))
    monkeypatch.setattr(evaluate, "correlation_gap_check", unreachable)
    monkeypatch.setattr(mnl, "optimal_revenue_table", unreachable)
    report, exact = suites.suite_gap(1)
    # one generator per kind in the suite, and one inside each generate call
    assert calls == {"generate": 3, "default_rng": 6}
    assert (report.cases, exact.cases) == (suites.GAP_DRAWS, 2 * suites.EXACT_DRAWS)
    assert report.passed and exact.passed


def test_gap_suite_draws_from_keys_no_other_suite_uses(monkeypatch):
    keys, real = set(), suites._sub_seed

    def recorded(seed, k):
        keys.add(k)
        return real(seed, k)

    monkeypatch.setattr(suites, "_sub_seed", recorded)
    suites.suite_gap(1)
    gap_keys, keys = set(keys), set()
    for name in ("sharing", "order", "chain"):
        suites.SUITES[name](1)
    assert gap_keys == {1, 2, 3, 4, 5, 6}
    assert keys and not gap_keys & keys
