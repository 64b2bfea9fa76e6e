"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (capture is suspended for the line so it shows up in plain
``pytest -v`` output)."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from oracles import exact_g
from twosided.cli import main
from twosided.evaluate import interleaved_partition_check
from twosided.instance import detect_same_order, generate, normalize_revenues
from twosided.lp import dual_feasibility_report, lp2_exact_small
from twosided.ellipsoid import solve_restricted
from twosided.mnl import (
    g_marginal,
    optimal_revenue,
    optimal_revenue_bruteforce,
    subset_of,
)
from twosided.policies import RandomizedStaticPolicy, SameOrderGreedyPolicy, exact_dp_atar
from twosided.rounding import mnl_distribution, validate_marginals
from twosided.suites import (
    counterexample_instance,
    suite_chain,
    suite_gap,
    suite_sharing,
)

TOL = 1e-9


@contextmanager
def criterion(capsys, number: int, description: str, limit_seconds: float | None):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"\nacceptance {number:02d} [{status}] {description} ({elapsed:.1f}s)", flush=True)
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s >= {limit_seconds}s"


def test_criterion_01_counterexample_regression(capsys):
    with criterion(capsys, 1, "counterexample fixture values and marginal-gain witness", 1.0):
        inst = counterexample_instance()
        expected = {(2,): 1.5, (0, 2): 2.0, (1, 2): 1.8, (0, 1, 2): 7.0 / 3.0}
        for subset, want in expected.items():
            value, _ = optimal_revenue(inst, 0, subset)
            assert value == pytest.approx(want, abs=TOL)
        gain_small = g_marginal(inst, 0, 0, (2,))
        gain_large = g_marginal(inst, 0, 0, (1, 2))
        assert gain_small == pytest.approx(0.5, abs=TOL)
        assert gain_large == pytest.approx(8.0 / 15.0, abs=TOL)
        assert gain_small < gain_large


def test_criterion_02_prefix_search_equals_bruteforce(capsys):
    with criterion(capsys, 2, "revenue-ordered optimum vs exhaustive search, 1000 instances", 30.0):
        rng = np.random.default_rng(2024)
        for k in range(1000):
            n = int(rng.integers(1, 11))
            inst = generate("uniform-random", n, 2, k)
            j = k % 2
            subset = subset_of(int(rng.integers(0, 2**n)), n)
            fast, _ = optimal_revenue(inst, j, subset)
            slow, _ = optimal_revenue_bruteforce(inst, j, subset)
            assert abs(fast - slow) <= TOL


def test_criterion_03_rounding_marginals_and_sampling(capsys):
    with criterion(capsys, 3, "nested-distribution rounding: 1000 rows exact, sampled rows at 3 SE", 60.0):
        rng = np.random.default_rng(33)
        rows = []
        for k in range(1000):
            m = int(rng.integers(1, 9))
            u = 10.0 ** rng.uniform(-1.0, 1.0, m)
            z = rng.uniform(0.0, 1.0, m)
            if k % 11 == 0:
                z[rng.integers(0, m)] = 0.0
            cap = float((z / u).max() + z.sum())
            theta = 1.0 if k % 13 == 0 else float(rng.uniform(0.0, 1.0))
            x = z * (theta / cap) if cap > 0 else z
            dist = mnl_distribution(x, u)
            probs = dist.probabilities
            assert (probs >= 0.0).all()
            assert abs(probs.sum() - 1.0) <= TOL
            assert validate_marginals(dist, u, x) <= TOL
            rows.append((x, u, dist))

        # empirical check on a fixed handful of rows, 1e5 draws each
        sample_rng = np.random.default_rng(77)
        for x, u, dist in rows[:5]:
            draws = 100_000
            counts = np.zeros(u.size)
            set_counts = sample_rng.multinomial(draws, dist.probabilities)
            for subset, cnt in zip(dist.sets, set_counts):
                if not subset or cnt == 0:
                    continue
                weights = np.array([u[j] for j in subset])
                choice_probs = np.concatenate([weights, [1.0]]) / (1.0 + weights.sum())
                picks = sample_rng.multinomial(cnt, choice_probs)
                for pos, j in enumerate(subset):
                    counts[j] += picks[pos]
            freq = counts / draws
            stderr = np.sqrt(np.maximum(x * (1.0 - x), 0.0) / draws)
            assert (np.abs(freq - x) <= 3.0 * stderr + 1e-12).all()


def test_criterion_04_relaxation_chain(capsys):
    with criterion(capsys, 4, "static <= fixed-order <= adaptive <= LP chain on 200 instances", 300.0):
        reports = suite_chain(seed=4)
        assert reports[0].cases == 200
        assert reports[0].passed, reports[0].violations[:3]


def test_criterion_05_randomized_static_guarantee(capsys):
    with criterion(capsys, 5, "randomized static beats half the LP bound (1-1/e when supplier-uniform)", 600.0):
        for k in range(100):
            inst = normalize_revenues(generate("uniform-random", 3, 3, 5000 + k))
            sol = solve_restricted(inst, t_max=30000).solution
            policy = RandomizedStaticPolicy(inst, sol)
            value = policy.exact_expected_revenue()
            assert value >= 0.5 * sol.objective - 1e-9
            opt, _ = exact_dp_atar(inst)
            assert value >= 0.5 * opt - 1e-6
        factor = 1.0 - 1.0 / math.e
        for k in range(100):
            inst = normalize_revenues(generate("supplier-uniform", 3, 3, 6000 + k))
            sol = solve_restricted(inst, t_max=30000).solution
            policy = RandomizedStaticPolicy(inst, sol)
            value = policy.exact_expected_revenue()
            assert value >= factor * sol.objective - 1e-9
            opt, _ = exact_dp_atar(inst)
            assert value >= factor * opt - 1e-6


def test_criterion_06_greedy_guarantee_and_dual_identity(capsys):
    with criterion(capsys, 6, "same-order greedy beats half the adaptive optimum; path identity exact", 600.0):
        kinds = ("same-order-additive", "same-order-multiplicative")
        for k in range(100):
            inst = generate(kinds[k % 2], 3, 3, 7000 + k)
            cert = detect_same_order(inst)
            assert cert
            policy = SameOrderGreedyPolicy(inst, certificate=cert)
            value, paths = policy.exact_expected_revenue(collect_paths=True)
            opt, _ = exact_dp_atar(inst)
            assert value >= 0.5 * opt - 1e-9

            w = [[Fraction(float(inst.w[j, i])) for i in range(inst.n)] for j in range(inst.m)]
            r = [[Fraction(float(inst.r[i, j])) for i in range(inst.n)] for j in range(inst.m)]
            for path in paths:
                alpha_sum = Fraction(0)
                for step in path.steps:
                    if step.choice is None:
                        continue
                    j = step.choice
                    before = step.backlogs_before[j]
                    after = tuple(sorted(before + (step.customer,)))
                    alpha_sum += exact_g(w[j], r[j], after) - exact_g(w[j], r[j], before)
                final_values = [exact_g(w[j], r[j], path.backlogs[j]) for j in range(inst.m)]
                assert alpha_sum + sum(final_values) == 2 * sum(final_values)


def test_criterion_07_constraint_generation_fidelity(capsys):
    with criterion(capsys, 7, "cut-loop LP solve matches the exact optimum on 50 instances", 600.0):
        for k in range(50):
            n = 2 + k % 3
            m = 1 + k % 2
            inst = normalize_revenues(generate("uniform-random", n, m, 8000 + k))
            exact = lp2_exact_small(inst).objective
            solved = solve_restricted(inst, t_max=25000)
            sol, run = solved.solution, solved.run
            assert sol.objective >= exact - 1e-4
            assert sol.objective <= exact + 1e-9
            assert run.violated.total() <= run.iterations
            objs = [obj for _, obj in run.incumbent_history]
            assert all(a >= b for a, b in zip(objs, objs[1:]))
            for point in run.incumbents:
                assert dual_feasibility_report(inst, point, tol=0.0).feasible


def test_criterion_08_correlation_gap_bounds(capsys):
    with criterion(capsys, 8, "correlation-gap bounds over 1000 correlated distributions", 120.0):
        for report in suite_gap(seed=8):
            assert report.passed, report.violations[:3]


def test_criterion_09_cost_sharing(capsys):
    with criterion(capsys, 9, "cost-sharing cross-monotonicity and exact budget balance", 30.0):
        for report in suite_sharing(seed=9):
            assert report.passed, report.violations[:3]


def test_criterion_10_interleaved_partition(capsys):
    with criterion(capsys, 10, "interleaved-partition inequality on 1000 simulated backlogs", 60.0):
        done = 0
        for k in range(5):
            inst = generate("same-order-additive", 6, 2, 9000 + k)
            cert = detect_same_order(inst)
            assert cert
            report = interleaved_partition_check(inst, k % 2, cert.sigma, 200, 9100 + k)
            assert report.passed, report.violations[:3]
            done += report.cases
        assert done == 1000


def test_criterion_11_cli_determinism(tmp_path, capsys):
    with criterion(capsys, 11, "identical CLI invocations produce byte-identical files", None):
        inst_path = tmp_path / "inst.json"
        snapshots = []
        for tag in ("first", "second"):
            gen_out = tmp_path / f"gen-{tag}.json"
            assert main(["gen", "same-order-additive", "3", "2", "--seed", "17", "--out", str(gen_out)]) == 0
            gen_bytes = gen_out.read_bytes()
            if tag == "first":
                gen_out.replace(inst_path)
            files = {
                "solve_report": tmp_path / f"solve-report-{tag}.csv",
                "solve_solution": tmp_path / f"solve-solution-{tag}.json",
                "solve_lp": tmp_path / f"solve-lp-{tag}.json",
                "solve_trace": tmp_path / f"solve-trace-{tag}.jsonl",
                "run_rows": tmp_path / f"run-{tag}.csv",
                "verify_rows": tmp_path / f"verify-{tag}.csv",
            }
            assert main([
                "solve", str(inst_path), "--t-max", "4000",
                "--report", str(files["solve_report"]),
                "--out", str(files["solve_solution"]),
                "--dump-lp", str(files["solve_lp"]),
                "--trace", str(files["solve_trace"]),
            ]) == 0
            assert main([
                "run", str(inst_path), "--policy", "greedy",
                "--trials", "200", "--seed", "3", "--out", str(files["run_rows"]),
            ]) == 0
            assert main([
                "verify", "--suite", "appendix-a", "--seed", "2", "--out", str(files["verify_rows"]),
            ]) == 0
            snapshot = {name: path.read_bytes() for name, path in files.items()}
            snapshot["gen"] = gen_bytes
            snapshots.append(snapshot)
        assert snapshots[0] == snapshots[1]
