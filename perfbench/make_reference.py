"""Regenerate ``lp_exact_reference.json``: the ``lp2_exact_small`` objective
and simplex pivot count of every instance in the lp-exact pool, as computed
by the current code.

The lp-exact workload checks each solve against the stored objectives, so a
change to the simplex or the LP build that moves an objective by more than
1e-9 fails the benchmark. The pivot counts only order each class of the pool
into strata for stratified sampling; they are kept fixed so that every
version of the program is measured on the same input distribution.
Regenerate only when an objective change is intended.

Run from the repository root: ``python3 perfbench/make_reference.py``
(takes a few minutes).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twosided.instance import generate, normalize_revenues  # noqa: E402
from twosided.lp import lp2_exact_small  # noqa: E402

import tracing  # noqa: E402
from workloads import LP_REFERENCE_FILE, lp_pool  # noqa: E402


def main() -> None:
    objectives, pivots = {}, {}
    for name, kind, n, m, seed in lp_pool():
        solution, tr = tracing.traced_call(lp2_exact_small, normalize_revenues(generate(kind, n, m, seed)))
        objectives[name] = solution.objective
        pivots[name] = tr.counts["simplex.pivots"]
        print(name, repr(objectives[name]), pivots[name], flush=True)
    doc = {
        "about": "lp2_exact_small(normalize_revenues(generate(kind, n, m, seed))): objective and pivots",
        "objectives": objectives,
        "pivots": pivots,
    }
    LP_REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
