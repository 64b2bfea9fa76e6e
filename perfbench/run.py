"""Benchmark of the twosided package: one workload per invocation.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 26 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads: ``solve``, ``lp-exact``, ``policy``, ``verify`` (see
``perfbench/README.md``). A run has three phases:

1. set-up (``setup_s``): a fresh interpreter starting and importing the
   package, then instance generation, file writes and a warm-up call, each
   repeated ``SETUP_REPEATS`` times;
2. the timed phase: up to ``rounds`` rounds, each the workload's full item
   grid in a fixed order on fresh instances from ``--seed``; ``rounds`` is
   ``--seconds`` divided by the workload's nominal round time, and a round
   is skipped when it would end past ``--seconds``;
3. checks of every item's output, outside the timed window.

Times are calibrated against a probe kernel timed between items (see
``speed.py``), so they read in reference seconds; raw wall times are kept in
the results file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run times one round untraced, then the same items
with layer spans, and the last line carries the per-layer metrics.
Full results and spans go to ``.perfbench-work/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
HD_GRID = 100_000  # integration points for the Beta weights of hd_quantile
WORKLOAD_NAMES = ("solve", "lp-exact", "policy", "verify")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="smallest items, one round (smoke test)")
    p.add_argument("--work-dir", default=None, help="default: .perfbench-work under the root")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_package():
    if not (SRC / "twosided" / "__init__.py").is_file():
        raise BenchmarkError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import twosided

    if Path(twosided.__file__).resolve().parent != (SRC / "twosided").resolve():
        raise BenchmarkError(f"imported twosided from {twosided.__file__}, not from {SRC}")


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def tail_index(n: int) -> int | None:
    """Index (into ascending order) of the highest order statistic with at
    least ten items beyond it; None with fewer than eleven items."""
    return n - 11 if n >= 11 else None


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by Beta(p(n+1), (1-p)(n+1)) mass on [(i-1)/n, i/n].

    A single order statistic moves with the timing noise of the one or two
    items at that rank; this estimate averages the neighbouring ranks too.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = (np.arange(HD_GRID) + 0.5) / HD_GRID
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(cdf[np.rint(np.arange(n + 1) / n * HD_GRID).astype(int)])
    return float(weights @ np.asarray(x) / weights.sum())


def run_phase(workload, rounds, probe, tracer=None, budget_s=None):
    """Run the items round by round, with speed probes between items.

    A round starts only while the phase still has ``budget_s`` for it,
    judged by the last round's raw time, so a slow host runs fewer rounds
    instead of overrunning; the first round always runs. Returns (rounds
    run, raw item seconds, calibrated item seconds, calibrated round
    seconds, results); an item that raises records the exception.
    """
    spans, results, done, last_round = [], [], 0, 0.0
    start_phase = time.perf_counter()
    for items in rounds:
        start_round = time.perf_counter()
        if done and budget_s is not None and start_round - start_phase + last_round > budget_s:
            break
        for item in items:
            probe.due()
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.run(item)
                else:
                    result = tracer.item(len(results), workload.run, item)
            except Exception as exc:  # counted as a failed item
                result = exc
            spans.append((start, time.perf_counter()))
            results.append(result)
        done += 1
        last_round = time.perf_counter() - start_round
    probe.probe()
    raw = [end - start for start, end in spans]
    calibrated = [(end - start) * probe.factor(start, end) for start, end in spans]
    round_s, first = [], 0
    for items in rounds[:done]:
        round_s.append(sum(calibrated[first : first + len(items)]))
        first += len(items)
    return rounds[:done], raw, calibrated, round_s, results


def check_phase(workload, rounds, results, diag) -> dict[str, list[str]]:
    """Problems of every failed item, by item key."""
    failed = {}
    items = [item for round_items in rounds for item in round_items]
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            try:
                problems = workload.check(item, result, diag)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            failed[item.key] = problems
    return failed


def reference_counts() -> dict[str, int]:
    """ROADMAP item-1 reference points, counted through the tracer: cuts on
    3x3 uniform-random seed 5000 and pivots of lp2_exact_small on 10x4
    uniform-random seed 2."""
    import tracing
    from twosided.ellipsoid import run_ellipsoid
    from twosided.instance import generate, normalize_revenues
    from twosided.lp import lp2_exact_small

    cuts = run_ellipsoid(normalize_revenues(generate("uniform-random", 3, 3, 5000))).iterations
    _, tr = tracing.traced_call(lp2_exact_small, normalize_revenues(generate("uniform-random", 10, 4, 2)))
    return {"ref.ellipsoid.cuts": cuts, "ref.simplex.pivots": tr.counts["simplex.pivots"]}


def set_up(workload, args, n_rounds, workdir, probe):
    """Set-up work, each part repeated ``SETUP_REPEATS`` times.

    Returns the rounds of items, ``setup_s`` and its parts. ``setup_s`` is
    the median calibrated time for a fresh interpreter to start and import
    the package, plus the median calibrated time to generate and write the
    inputs and warm up.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, repeats = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import twosided"], env=env, check=True, timeout=120)
        end = time.perf_counter()
        probe.probe()
        imports.append((end - start) * probe.factor(start, end))
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rounds = workload.rounds(args.seed, n_rounds, args.quick, workdir)
        workload.warm_up(workdir)
        end = time.perf_counter()
        probe.probe()
        repeats.append((end - start) * probe.factor(start, end))
    parts = {"import_s": imports, "inputs_and_warm_up_s": repeats}
    return rounds, statistics.median(imports) + statistics.median(repeats), parts


def end_to_end_metrics(item_s, round_s, setup_s, planned_items: int) -> tuple[dict, dict]:
    """The tail percentile is the highest with ten items beyond it among the
    planned items, so a run cut short on a slow host estimates the same
    percentile from fewer items."""
    n = len(item_s)
    tail = tail_index(planned_items)
    tail_p = 1.0 if tail is None else (tail + 1) / planned_items
    ordered = sorted(item_s)
    metrics = {
        # lp-exact rounds hold different strata of its pool, so every round counts
        "wall_s": statistics.fmean(round_s),
        "item_p50_s": hd_quantile(item_s, 0.5) if n > 1 else item_s[0],
        "item_tail_s": hd_quantile(item_s, tail_p) if tail is not None and n > 1 else ordered[-1],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_info = {
        "items": n,
        "percentile": 100.0 * tail_p,
        "order_statistic_p50_s": statistics.median(ordered),
        "order_statistic_tail_s": ordered[min(n - 1, int(tail_p * n) - 1) if tail is not None else -1],
    }
    return metrics, tail_info


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        units = metric_units()
    except (BenchmarkError, OSError, ImportError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = Path(args.work_dir) if args.work_dir else ROOT / ".perfbench-work"
    workdir = workdir / args.workload
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    (workdir / "results").mkdir(exist_ok=True)
    # the traced run times one round untraced, then the same round traced
    n_rounds = 1 if args.quick or args.trace else max(1, int(args.seconds // workload.nominal_round_s))

    probe = speed.SpeedProbe()
    probe.probe()
    rounds, setup_s, setup_parts = set_up(workload, args, n_rounds, workdir, probe)
    planned_items = sum(len(items) for items in rounds)

    diag: dict = {}
    rounds, raw_s, item_s, round_s, results = run_phase(workload, rounds, probe, budget_s=args.seconds)
    failures = check_phase(workload, rounds, results, diag)
    attempted = len(results)
    env = environment(args.seed)
    keys = [item.key for items in rounds for item in items]
    record = {
        "workload": args.workload, "trace": args.trace, "quick": args.quick,
        "rounds_planned": n_rounds, "rounds": len(rounds), "environment": env, "setup": setup_parts,
        "items": [{"key": k, "s": s, "raw_s": r} for k, s, r in zip(keys, item_s, raw_s)],
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            _, _, _, traced_round_s, traced_results = run_phase(workload, rounds, probe, tracer)
        finally:
            tracer.uninstall()
        traced_failures = check_phase(workload, rounds, traced_results, diag)
        failures.update({"traced " + k: v for k, v in traced_failures.items()})
        attempted += len(traced_results)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = sum(traced_round_s) / sum(round_s) - 1.0
        metrics["lp.gap_max"] = diag.get("lp.gap_max", 0.0)
        metrics.update(reference_counts())
        tracer.write(workdir / "results" / f"spans-seed{args.seed}.npz")
        group = "per_layer"
    else:
        metrics, record["item_tail"] = end_to_end_metrics(item_s, round_s, setup_s, planned_items)
        group = "end_to_end"

    missing = sorted(set(units[group]) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {name: metrics[name] for name in units[group]}
    record.update(metrics=metrics, failures=failures, attempted=attempted, round_s=round_s,
                  probes=list(zip(probe.at, probe.probe_s)))
    out = workdir / "results" / f"seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)} of {n_rounds}  items {attempted}  "
          f"env {json.dumps(env, sort_keys=True)}")
    for name, unit in units[group].items():
        print(f"{name} = {metrics[name]!r} {unit}")
    if not args.trace:
        tail = record["item_tail"]
        print(f"item_tail_s is p{tail['percentile']:.1f} of {tail['items']} items")
    print(f"failed_frac = {len(failures) / attempted!r} ratio")
    for key, problems in list(failures.items())[:20]:
        print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[group][name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
