"""Smoke test of the benchmark: every workload on its smallest items.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints every metric of BENCHMARK.json with its unit,
that the outputs pass their checks, and that two traced runs with the same
seed write byte-identical instance files and identical counts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counts that must repeat exactly for the same seed
COUNTS = (
    "ellipsoid.cuts", "ellipsoid.cuts.objective", "ellipsoid.cuts.weight_link",
    "ellipsoid.cuts.alpha_nonnegative", "ellipsoid.cuts.assortment_cost",
    "simplex.pivots", "cost_assortment.oracle_call.calls", "policies.dp_atar.states",
    "suites.cases", "ref.ellipsoid.cuts", "ref.simplex.pivots",
)


def bench(workload: str, trace: int, work: Path) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace), "--quick", "--work-dir", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def instance_files(work: Path, workload: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((work / workload / "instances").glob("*.json"))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    stdout, result = bench(workload, 0, WORK / "a")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert re.search(rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$", stdout, re.M)
    assert re.search(r"^failed_frac = 0\.0 ratio$", stdout, re.M)
    assert re.search(r"^item_tail_s is p\S+ of \d+ items$", stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    stdout, first = bench(workload, 1, WORK / "b")
    files = instance_files(WORK / "b", workload)
    _, second = bench(workload, 1, WORK / "c")
    assert first["correct"] and second["correct"]
    for metric in SPEC["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert re.search(rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$", stdout, re.M)
    assert files == instance_files(WORK / "c", workload)
    assert files or workload == "verify"  # verify generates its instances in process
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
