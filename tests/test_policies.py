import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import exact_g, reference_layer_order, reference_prefix_dp, reference_suite_chain
from twosided import lp, mnl, policies, suites
from twosided.instance import GENERATOR_KINDS, detect_same_order, generate, normalize_revenues
from twosided.lp import lp1_exact_small, lp2_exact_small
from twosided.mnl import SizeLimitError, choice_prob, optimal_revenue
from twosided.policies import (
    PolicyPreconditionError,
    PolicyTable,
    RandomizedStaticPolicy,
    SameOrderGreedyPolicy,
    _dp,
    _dp_batch,
    _require_dp_size,
    best_marginal_assortment,
    exact_dp_atar,
    exact_dp_ftar,
    exact_dp_values,
    exact_star,
    exact_star_values,
)

TOL = 1e-9


def test_dp_unit_instance(unit_instance):
    opt, policy = exact_dp_atar(unit_instance)
    assert opt == pytest.approx(0.25, abs=TOL)
    # the initial action offers the only supplier
    assert policy[(-2,)] == (0, (0,))


def test_dp_zero_revenue(zero_revenue_instance):
    opt, _ = exact_dp_atar(zero_revenue_instance)
    assert opt == pytest.approx(0.0, abs=TOL)


def test_dp_size_guard():
    with pytest.raises(SizeLimitError):
        exact_dp_atar(generate("uniform-random", 10, 4, 0))


def readme_limits(name: str) -> list[tuple[int, int]]:
    """The sizes ``n x m`` that the bullet naming `name` in the README's
    desk-scale limits lists as the largest accepted n for each m; a range
    `n x a`..`n x b` stands for every m from a to b."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Desk-scale limits", 1)[1].split("\n## ", 1)[0]
    bullet = next(b for b in block.split("\n* ") if f"(`{name}`" in b)
    sizes = []
    for n, m, last in re.findall(r"`(\d+) x (\d+)`(?:\.\.`\1 x (\d+)`)?", bullet):
        sizes += [(int(n), k) for k in range(int(m), int(last or m) + 1)]
    return sizes


DP_ACCEPTED = readme_limits("dp")
STAR_ACCEPTED = readme_limits("star")


class _Passed(Exception):
    """Raised by a stand-in for the first step after a size guard."""


def _passed(*args, **kwargs):
    raise _Passed


def _batches_share_the_guard(monkeypatch, n, m, last, one, batched, first_step):
    """Batches of three refuse the sizes past n x m (m + 1 too when
    ``last``) with the message ``one`` instance gets, and pass the guard at
    n x m, where ``first_step`` stands in for the first step after it."""
    for size in [(n + 1, m)] + ([(n, m + 1)] if last else []):
        batch = [generate("uniform-random", *size, seed) for seed in range(3)]
        with pytest.raises(SizeLimitError) as refused:
            one(batch[0])
        for call in batched:
            with pytest.raises(SizeLimitError) as many:
                call(batch)
            assert str(many.value) == str(refused.value)
    monkeypatch.setattr(*first_step, _passed)  # past the guard, nothing is run
    for call in batched:
        with pytest.raises(_Passed):
            call([generate("uniform-random", n, m, seed) for seed in range(3)])


@pytest.mark.parametrize("n, m", DP_ACCEPTED)
def test_dp_guard_matches_readme_limits(monkeypatch, n, m):
    _require_dp_size(generate("uniform-random", n, m, 0))  # the DP itself is not run
    with pytest.raises(SizeLimitError):
        _require_dp_size(generate("uniform-random", n + 1, m, 0))
    if (n, m) == DP_ACCEPTED[-1]:
        with pytest.raises(SizeLimitError):
            _require_dp_size(generate("uniform-random", n, m + 1, 0))
    batched = [exact_dp_values, lambda batch: exact_dp_values(batch, range(batch[0].n))]
    last = (n, m) == DP_ACCEPTED[-1]
    _batches_share_the_guard(monkeypatch, n, m, last, exact_dp_atar, batched, (policies, "_dp_structure"))


@pytest.mark.parametrize("n, m", STAR_ACCEPTED)
def test_star_guard_matches_readme_limits(monkeypatch, n, m):
    assert exact_star(generate("uniform-random", n, m, 0)) >= 0.0
    with pytest.raises(SizeLimitError):
        exact_star(generate("uniform-random", n + 1, m, 0))
    if (n, m) == STAR_ACCEPTED[-1]:
        with pytest.raises(SizeLimitError):
            exact_star(generate("uniform-random", n, m + 1, 0))
    last = (n, m) == STAR_ACCEPTED[-1]
    _batches_share_the_guard(monkeypatch, n, m, last, exact_star, [exact_star_values], (mnl, "choice_prob_table"))


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"the batch reached numpy.{name} before its checks")


@pytest.mark.parametrize(
    "batch",
    [[], [(3, 2), (3, 2), (2, 3)], [(3, 2), (3, 1)], [(3, 2), (10, 4)]],
    ids=["empty", "mixed-n-and-m", "mixed-m", "mixed-with-one-too-large"],
)
def test_batches_refuse_mixed_sizes_before_any_allocation(monkeypatch, batch):
    insts = [generate("uniform-random", n, m, 5) for n, m in batch]
    monkeypatch.setattr(policies, "np", _NoNumpy())
    monkeypatch.setattr(mnl, "choice_prob_table", _passed)
    for call in (exact_star_values, exact_dp_values, lambda b: exact_dp_values(b, range(3))):
        with pytest.raises(ValueError, match="one size") as refused:
            call(insts)
        assert type(refused.value) is ValueError  # not the SizeLimitError of a single size
    assert all("optimal_revenue_tables" not in vars(inst) for inst in insts)  # no table built


def _batches(zero_revenue_instance, counterexample):
    """The four generator kinds at each size, with the two fixtures mixed
    in among the instances of their size."""
    for n, m in ((2, 3), (3, 2), (3, 3), (4, 2), (3, 1)):
        batch = [generate(kind, n, m, 10 * n + m + k) for k, kind in enumerate(GENERATOR_KINDS)]
        for fixture in (zero_revenue_instance, counterexample):
            if (fixture.n, fixture.m) == (n, m):
                batch.insert(2, fixture)
        yield batch


def test_batched_oracles_are_the_per_instance_ones_bit_for_bit(zero_revenue_instance, counterexample):
    for batch in _batches(zero_revenue_instance, counterexample):
        n = batch[0].n
        stars = exact_star_values(batch)
        assert stars.tolist() == exact_star_values(batch[::-1]).tolist()[::-1]  # no dependence on position
        for inst, star in zip(batch, stars.tolist()):
            assert star.hex() == exact_star(inst).hex()
        for order in (None, tuple(range(n)), tuple(reversed(range(n)))):
            values, codes, actions = _dp_batch(batch, order)
            assert values.tolist() == exact_dp_values(batch, order).tolist()
            for inst, value, action in zip(batch, values.tolist(), actions):
                want, ref = reference_prefix_dp(inst, order)
                assert value.hex() == float(want).hex()
                table = PolicyTable(n, inst.m, codes, action)
                assert table == ref
                assert list(table) == list(reference_layer_order(ref))
                one = _dp(inst, order)
                assert one[0].hex() == value.hex() and one[1] == ref
                if order is None:
                    assert exact_dp_atar(inst)[0].hex() == value.hex()
                else:
                    assert exact_dp_ftar(inst, order).hex() == value.hex()


def _exact(value):
    """A float as its hex digits, so == compares every bit; its type is
    kept, so an np.float64 does not pass for a float."""
    return (type(value), value.hex()) if isinstance(value, float) else value


def _chain_fields(reports):
    return [
        (r.name, r.cases, [{k: _exact(v) for k, v in w.items()} for w in r.violations], r.notes)
        for r in reports
    ]


@pytest.mark.parametrize("slack", [None, -math.inf], ids=["paper-slack", "every-pair-recorded"])
@pytest.mark.parametrize("count", [200, 20], ids=["full", "partial-group"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_suite_matches_the_per_instance_reference(monkeypatch, seed, count, slack):
    monkeypatch.setattr(suites, "CHAIN_COUNT", count)
    if slack is not None:  # every pair's lo and hi are recorded
        monkeypatch.setattr(suites, "CHAIN_SLACK", slack)
    got, want = suites.suite_chain(seed), reference_suite_chain(seed)
    assert _chain_fields(got) == _chain_fields(want)
    assert len(got[0].violations) == (4 * count if slack else 0)
    assert all(type(w[k]) is float for w in got[0].violations for k in ("lo", "hi"))


def test_chain_suite_runs_each_oracle_once_per_group(monkeypatch):
    calls, instances = Counter(), Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    real_step = policies._layer_step

    def step(values, layer, u):
        calls["_layer_step"] += 1
        instances[u.shape[0]] += 1
        return real_step(values, layer, u)

    monkeypatch.setattr(policies, "_layer_step", step)
    monkeypatch.setattr(mnl, "independent_subset_probs", counted("probs", mnl.independent_subset_probs))
    for name in ("exact_star", "exact_dp_atar", "exact_dp_ftar", "_dp"):
        monkeypatch.setattr(policies, name, counted(name, getattr(policies, name)))
    (report,) = suites.suite_chain(1)
    groups = -(-suites.CHAIN_COUNT // suites.CHAIN_GROUP)
    # 3x2 instances: n = 3 layers per DP, two DPs, and m = 2 backlog products per static search
    assert calls == {"_layer_step": groups * 2 * 3, "probs": groups * 2}
    assert instances == {suites.CHAIN_GROUP: groups * 2 * 3}
    assert report.cases == suites.CHAIN_COUNT and report.passed


def test_chain_suite_solves_each_lp_once_per_group(monkeypatch):
    batches, alone = [], Counter()
    real_lockstep = lp._optimize_lockstep

    def lockstep(cols, *args):
        batches.append(cols.shape[0])
        return real_lockstep(cols, *args)

    def counted(name, real):
        def call(*args, **kwargs):
            alone[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(lp, "_optimize_lockstep", lockstep)
    for name in ("_optimize", "lp1_exact_small", "lp2_exact_small"):
        monkeypatch.setattr(lp, name, counted(name, getattr(lp, name)))
    (report,) = suites.suite_chain(1)
    groups = -(-suites.CHAIN_COUNT // suites.CHAIN_GROUP)
    assert batches == [suites.CHAIN_GROUP] * (2 * groups)  # lp1, then lp2, per group
    assert alone == {}  # no LP was solved alone
    assert report.cases == suites.CHAIN_COUNT and report.passed


def test_ftar_single_customer_equals_adaptive():
    inst = generate("uniform-random", 1, 3, 6)
    opt, _ = exact_dp_atar(inst)
    assert exact_dp_ftar(inst, (0,)) == pytest.approx(opt, abs=TOL)


def test_ftar_never_beats_adaptive():
    for seed in range(10):
        inst = generate("uniform-random", 3, 2, seed)
        opt, _ = exact_dp_atar(inst)
        assert exact_dp_ftar(inst, (0, 1, 2)) <= opt + 1e-7


def test_ftar_best_order_vs_adaptive_report_only(capsys):
    # whether some fixed order attains the adaptive optimum is reported, not
    # asserted: the variants are only known to be ordered
    from itertools import permutations

    worst_gap = 0.0
    for seed in range(5):
        inst = generate("uniform-random", 3, 2, seed)
        opt, _ = exact_dp_atar(inst)
        best_fixed = max(exact_dp_ftar(inst, order) for order in permutations(range(3)))
        worst_gap = max(worst_gap, opt - best_fixed)
    print(f"\nmax gap adaptive vs best fixed order over 5 instances: {worst_gap:.3e}")


def test_star_single_customer_equals_adaptive():
    inst = generate("uniform-random", 1, 3, 9)
    opt, _ = exact_dp_atar(inst)
    assert exact_star(inst) == pytest.approx(opt, abs=TOL)


def test_star_zero_revenue(zero_revenue_instance):
    assert exact_star(zero_revenue_instance) == pytest.approx(0.0, abs=TOL)


def test_value_chain_small_sweep():
    for seed in range(15):
        inst = generate("uniform-random", 3, 2, seed)
        star = exact_star(inst)
        ftar = exact_dp_ftar(inst, (0, 1, 2))
        atar, _ = exact_dp_atar(inst)
        lp1 = lp1_exact_small(inst)
        lp2 = lp2_exact_small(inst).objective
        assert star <= ftar + 1e-7
        assert ftar <= atar + 1e-7
        assert atar <= lp1 + 1e-7
        assert lp1 <= lp2 + 1e-7


def test_finalize_empty_backlogs(unit_instance):
    assert optimal_revenue(unit_instance, 0, ())[0] == 0.0


def test_finalize_counterexample_backlogs(counterexample):
    value, offered = optimal_revenue(counterexample, 0, (0, 1, 2))
    assert value == pytest.approx(7.0 / 3.0, abs=TOL)
    # the kept set is a revenue-ordered prefix
    assert offered == (0, 1)

    assert optimal_revenue(counterexample, 0, (0, 2))[0] == pytest.approx(2.0, abs=TOL)


def test_randomized_static_zero_marginals(zero_revenue_instance):
    sol = lp2_exact_small(zero_revenue_instance)
    policy = RandomizedStaticPolicy(zero_revenue_instance, sol)
    assert policy.exact_expected_revenue() == pytest.approx(0.0, abs=TOL)


def test_randomized_static_unit_instance(unit_instance):
    sol = lp2_exact_small(unit_instance)
    policy = RandomizedStaticPolicy(unit_instance, sol)
    # x = 1/2: expected revenue g({0}) * 1/2 = 1/4, the adaptive optimum here
    assert policy.exact_expected_revenue() == pytest.approx(0.25, abs=TOL)


def test_randomized_static_guarantees():
    for seed in range(8):
        inst = normalize_revenues(generate("uniform-random", 3, 3, seed))
        sol = lp2_exact_small(inst)
        policy = RandomizedStaticPolicy(inst, sol)
        assert policy.exact_expected_revenue() >= 0.5 * sol.objective - TOL
    for seed in range(8):
        inst = normalize_revenues(generate("supplier-uniform", 3, 3, seed))
        sol = lp2_exact_small(inst)
        policy = RandomizedStaticPolicy(inst, sol)
        factor = 1.0 - 1.0 / np.e
        assert policy.exact_expected_revenue() >= factor * sol.objective - TOL


def test_randomized_static_sampler_matches_exact():
    from twosided.evaluate import monte_carlo

    inst = normalize_revenues(generate("uniform-random", 3, 2, 31))
    policy = RandomizedStaticPolicy(inst, lp2_exact_small(inst))
    exact = policy.exact_expected_revenue()
    mean, stderr = monte_carlo(policy, 4000, 99)
    assert abs(mean - exact) <= 3.0 * stderr


def test_sampler_trace_and_determinism(unit_instance):
    policy = RandomizedStaticPolicy(unit_instance, lp2_exact_small(unit_instance))
    a = policy.sample(123)
    b = policy.sample(123)
    assert a.expected_revenue == b.expected_revenue
    assert a.trace == b.trace
    assert set(a.trace[0]) == {"customer", "offered", "choice"}


def test_best_marginal_assortment_against_bruteforce():
    rng = np.random.default_rng(8)
    for trial in range(200):
        m = int(rng.integers(1, 11))
        rho = rng.uniform(0.0, 1.0, m)
        if trial % 5 == 0:
            rho[rng.integers(0, m)] = 0.0
        u = 10.0 ** rng.uniform(-1.0, 1.0, m)
        fast_set, fast_val = best_marginal_assortment(rho, u)
        best = 0.0
        for mask in range(2**m):
            subset = tuple(j for j in range(m) if mask >> j & 1)
            value = sum(rho[j] * choice_prob(u, subset, j) for j in subset)
            best = max(best, value)
        assert fast_val == pytest.approx(best, abs=TOL)
        direct = sum(rho[j] * choice_prob(u, fast_set, j) for j in fast_set)
        assert direct == pytest.approx(fast_val, abs=TOL)


def test_greedy_unit_instance(unit_instance):
    cert = detect_same_order(unit_instance)
    policy = SameOrderGreedyPolicy(unit_instance, certificate=cert)
    assert policy.exact_expected_revenue() == pytest.approx(0.25, abs=TOL)


def test_greedy_zero_revenue(zero_revenue_instance):
    cert = detect_same_order(zero_revenue_instance)
    policy = SameOrderGreedyPolicy(zero_revenue_instance, certificate=cert)
    assert policy.exact_expected_revenue() == pytest.approx(0.0, abs=TOL)


def test_greedy_requires_certificate():
    from twosided.instance import Instance

    inst = Instance(
        n=2, m=2, u=np.ones((2, 2)), w=np.ones((2, 2)), r=[[1.0, 0.0], [0.0, 1.0]]
    )
    assert not detect_same_order(inst)
    with pytest.raises(PolicyPreconditionError):
        SameOrderGreedyPolicy(inst, certificate=detect_same_order(inst))
    # explicit order runs as a heuristic
    policy = SameOrderGreedyPolicy(inst, order=(1, 0))
    assert policy.exact_expected_revenue() >= 0.0


def test_greedy_guarantees_small_sweep():
    for seed in range(8):
        kind = ("same-order-additive", "same-order-multiplicative")[seed % 2]
        inst = generate(kind, 3, 3, seed)
        cert = detect_same_order(inst)
        policy = SameOrderGreedyPolicy(inst, certificate=cert)
        value = policy.exact_expected_revenue()
        opt, _ = exact_dp_atar(inst)
        assert value >= 0.5 * opt - TOL
        assert value >= 0.5 * lp1_exact_small(inst) - TOL


def test_greedy_sampler_matches_exact():
    from twosided.evaluate import monte_carlo

    inst = generate("same-order-additive", 3, 2, 17)
    policy = SameOrderGreedyPolicy(inst, certificate=detect_same_order(inst))
    exact = policy.exact_expected_revenue()
    mean, stderr = monte_carlo(policy, 4000, 5)
    assert abs(mean - exact) <= 3.0 * max(stderr, 1e-12)


@pytest.mark.parametrize("name", ["rand-static", "greedy"])
def test_sampled_policy_reuses_its_tables_across_runs(name, monkeypatch):
    from twosided import mnl, policies
    from twosided.evaluate import monte_carlo

    inst = normalize_revenues(generate("same-order-additive", 4, 3, 7))
    if name == "greedy":
        policy = SameOrderGreedyPolicy(inst, certificate=detect_same_order(inst))
        owners = [(mnl, "optimal_revenue"), (policies, "choice_table"), (policies, "best_marginal_assortment")]
    else:
        policy = RandomizedStaticPolicy(inst, lp2_exact_small(inst))
        owners = [(mnl, "optimal_revenue"), (policies, "choice_table")]
    calls = {}
    for owner, function_name in owners:
        function = getattr(owner, function_name)

        def counted(*args, _name=function_name, _function=function):
            calls[_name] = calls.get(_name, 0) + 1
            return _function(*args)

        monkeypatch.setattr(owner, function_name, counted)
    first = monte_carlo(policy, 500, 11)
    assert set(calls) == {function_name for _, function_name in owners}
    calls.clear()
    assert monte_carlo(policy, 500, 11) == first
    assert calls == {}


def test_greedy_dual_identity_exact_per_path():
    """Along every outcome path, the realized marginal credits plus the final
    supplier values sum to exactly twice the path revenue (checked in exact
    rational arithmetic)."""
    for seed in (3, 11):
        inst = generate("same-order-additive", 3, 2, seed)
        policy = SameOrderGreedyPolicy(inst, certificate=detect_same_order(inst))
        _, paths = policy.exact_expected_revenue(collect_paths=True)
        w = [[Fraction(float(inst.w[j, i])) for i in range(inst.n)] for j in range(inst.m)]
        r = [[Fraction(float(inst.r[i, j])) for i in range(inst.n)] for j in range(inst.m)]
        total_prob = 0.0
        for path in paths:
            total_prob += path.probability
            alpha_sum = Fraction(0)
            for step in path.steps:
                if step.choice is None:
                    continue
                j = step.choice
                before = step.backlogs_before[j]
                after = tuple(sorted(before + (step.customer,)))
                alpha_sum += exact_g(w[j], r[j], after) - exact_g(w[j], r[j], before)
            beta_sum = sum(
                (exact_g(w[j], r[j], path.backlogs[j]) for j in range(inst.m)),
                Fraction(0),
            )
            revenue = sum(
                (exact_g(w[j], r[j], path.backlogs[j]) for j in range(inst.m)),
                Fraction(0),
            )
            assert alpha_sum + beta_sum == 2 * revenue
        assert total_prob == pytest.approx(1.0, abs=TOL)


def test_greedy_step_matches_bruteforce_assortment():
    inst = generate("same-order-additive", 4, 3, 23)
    cert = detect_same_order(inst)
    policy = SameOrderGreedyPolicy(inst, certificate=cert)
    backlogs = [(), (cert.sigma[0],), ()]
    i = cert.sigma[1]
    offered, value = policy.offered_assortment(i, backlogs)
    rho = policy._marginals(i, backlogs)
    best = 0.0
    for mask in range(2**3):
        subset = tuple(j for j in range(3) if mask >> j & 1)
        best = max(best, sum(rho[j] * choice_prob(inst.u[i], subset, j) for j in subset))
    assert value == pytest.approx(best, abs=TOL)
