"""The four benchmark workloads: their items, how each item runs, and the
correctness check applied to its output.

Every item is one call of a public entry point: ``twosided.cli.main`` in
process for ``solve``, ``policy`` and ``verify``, or
``twosided.lp2_exact_small`` for ``lp-exact``. Instances are generated from
the benchmark seed and written to files during set-up; the program sees only
those files and the command-line arguments. Checks run outside every timed
window and return a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import twosided
from twosided import cli
from twosided.instance import generate, load_instance, normalize_revenues, save_instance
from twosided.lp import LpSolution, check_lp_solution, lp2_exact_small

HERE = Path(__file__).resolve().parent
LP_REFERENCE_FILE = HERE / "lp_exact_reference.json"

KINDS = ("uniform-random", "same-order-additive", "same-order-multiplicative", "supplier-uniform")
ORDERED_KINDS = KINDS[1:]  # kinds with a common revenue order, so greedy runs certified

SOLVE_SIZES = ((3, 3), (4, 3), (8, 2))
LP_SIZES = ((8, 4), (9, 4), (10, 4))
LP_POOL = 12  # stored-reference instances per (kind, size) class
POLICY_SIZES = ((3, 3), (4, 3), (6, 2), (6, 3))
POLICIES = ("dp", "ftar", "star", "greedy", "rand-static")
STAR_SIZES = ((3, 3), (4, 3), (6, 2))  # star refuses 6x3 (work limit)
TRIALS = 500
RAND_STATIC_T_MAX = 1000
VERIFY_CALLS_PER_ROUND = 3

TOL = 1e-9
SOLVE_BELOW_EXACT = 1e-4  # acceptance criterion 07
MC_STDERRS = 5.0


def derive_seed(*key: int) -> int:
    """A 32-bit seed fixed by ``key`` (benchmark seed, round, item, ...)."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


@dataclass
class Item:
    key: str
    argv: list[str] = field(default_factory=list)
    path: Path | None = None
    out: Path | None = None
    kind: str = ""
    policy: str = ""
    instance: object = None  # lp-exact: the loaded instance
    reference: float | None = None  # lp-exact: stored objective


class Workload:
    name = ""
    nominal_round_s = 1.0  # raw round time on a shared 2-core x86 VM; sets the round count

    def rounds(self, seed: int, rounds: int, quick: bool, workdir: Path) -> list[list[Item]]:
        """Generate and write the inputs of every round (set-up work)."""
        raise NotImplementedError

    def warm_up(self, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, item: Item):
        return cli.main(item.argv)

    def check(self, item: Item, result, diag: dict) -> list[str]:
        raise NotImplementedError


def _write(workdir: Path, key: str, kind: str, n: int, m: int, seed: int) -> Path:
    return save_instance(generate(kind, n, m, seed), workdir / "instances" / f"{key}.json")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _exit_problem(result) -> list[str]:
    return [] if result == cli.EXIT_OK else [f"exit code {result}"]


class SolveWorkload(Workload):
    name = "solve"
    nominal_round_s = 8.0

    def __init__(self):
        self._exact: dict[str, float] = {}

    def rounds(self, seed, rounds, quick, workdir):
        sizes = SOLVE_SIZES[:1] if quick else SOLVE_SIZES
        out = []
        for r in range(rounds):
            items = []
            for s, (n, m) in enumerate(sizes):
                for k, kind in enumerate(KINDS):
                    key = f"r{r}-{kind}-{n}x{m}"
                    path = _write(workdir, key, kind, n, m, derive_seed(seed, r, s, k))
                    sol = workdir / "out" / f"{key}.solution.json"
                    rep = workdir / "out" / f"{key}.report.json"
                    argv = ["solve", str(path), "--out", str(sol), "--report", str(rep), "--format", "summary"]
                    items.append(Item(key=key, argv=argv, path=path, out=sol, kind=kind))
            out.append(items)
        return out

    def warm_up(self, workdir):
        path = _write(workdir, "warm-up", "uniform-random", 2, 2, 1)
        cli.main(["solve", str(path), "--out", str(workdir / "out" / "warm-up.json"),
                  "--report", str(workdir / "out" / "warm-up.report.json"), "--format", "summary"])

    def check(self, item, result, diag):
        problems = _exit_problem(result)
        if problems:
            return problems
        doc = _read_json(item.out)
        inst = normalize_revenues(load_instance(item.path))
        sol = LpSolution(
            x=np.array(doc["x"], dtype=float),
            lam=[{tuple(e["set"]): float(e["p"]) for e in lam} for lam in doc["lam"]],
            objective=float(doc["objective_normalized"]),
        )
        problems = check_lp_solution(inst, sol, tol=TOL)
        if item.key not in self._exact:
            self._exact[item.key] = lp2_exact_small(inst).objective
        exact = self._exact[item.key]
        diag["lp.gap_max"] = max(diag.get("lp.gap_max", 0.0), exact - sol.objective)
        if not exact - SOLVE_BELOW_EXACT <= sol.objective <= exact + TOL:
            problems.append(f"objective {sol.objective!r} outside [exact - 1e-4, exact + 1e-9], exact {exact!r}")
        return problems


class LpExactWorkload(Workload):
    name = "lp-exact"
    nominal_round_s = 6.5

    def rounds(self, seed, rounds, quick, workdir):
        """Stratified draw from the stored pool: each class's pool is sorted
        by its pivot count at the reference commit and cut into one stratum
        per round; the seed picks one instance per stratum and shuffles them
        over the rounds. Every run thus sees the same mix of easy and hard
        LPs, so the seed moves the instances but not the expected work."""
        reference = _read_json(LP_REFERENCE_FILE)
        sizes = LP_SIZES[:1] if quick else LP_SIZES
        picks = {}
        for s, (n, m) in enumerate(sizes):
            for k, kind in enumerate(KINDS):
                names = [pool_name(kind, n, m, pool_seed(s, k, p)) for p in range(LP_POOL)]
                ranked = sorted(range(LP_POOL), key=lambda p: (reference["pivots"][names[p]], p))
                rng = np.random.default_rng([seed, s, k])
                drawn = [int(rng.choice(stratum)) for stratum in np.array_split(ranked, min(rounds, LP_POOL))]
                picks[s, k] = [drawn[i] for i in rng.permutation(len(drawn))]
        out = []
        for r in range(rounds):
            items = []
            for s, (n, m) in enumerate(sizes):
                for k, kind in enumerate(KINDS):
                    inst_seed = pool_seed(s, k, picks[s, k][r % len(picks[s, k])])
                    name = pool_name(kind, n, m, inst_seed)
                    path = _write(workdir, f"r{r}-{name}", kind, n, m, inst_seed)
                    items.append(Item(key=f"r{r}-{name}", path=path, kind=kind,
                                      instance=load_instance(path), reference=reference["objectives"][name]))
            out.append(items)
        return out

    def warm_up(self, workdir):
        lp2_exact_small(normalize_revenues(generate("uniform-random", 4, 2, 1)))

    def run(self, item):
        # through the package attribute, so the traced run sees the call
        return twosided.lp2_exact_small(normalize_revenues(item.instance))

    def check(self, item, result, diag):
        problems = check_lp_solution(normalize_revenues(item.instance), result)
        if abs(result.objective - item.reference) > TOL:
            problems.append(f"objective {result.objective!r} != stored reference {item.reference!r}")
        return problems


def pool_seed(size_index: int, kind_index: int, p: int) -> int:
    """Generator seed of the p-th stored-reference instance of a class."""
    return 70_000 + 1000 * size_index + 100 * kind_index + p


def pool_name(kind: str, n: int, m: int, seed: int) -> str:
    return f"{kind}-{n}x{m}-{seed}"


def lp_pool():
    """Every (name, kind, n, m, seed) of the lp-exact reference pool."""
    for s, (n, m) in enumerate(LP_SIZES):
        for k, kind in enumerate(KINDS):
            for p in range(LP_POOL):
                seed = pool_seed(s, k, p)
                yield pool_name(kind, n, m, seed), kind, n, m, seed


class PolicyWorkload(Workload):
    name = "policy"
    nominal_round_s = 10.0

    def rounds(self, seed, rounds, quick, workdir):
        out = []
        for r in range(rounds):
            items = []
            for p, policy in enumerate(POLICIES):
                sizes = STAR_SIZES if policy == "star" else POLICY_SIZES
                for s, (n, m) in enumerate(sizes[:1] if quick else sizes):
                    for k, kind in enumerate(ORDERED_KINDS):
                        key = f"r{r}-{policy}-{kind}-{n}x{m}"
                        path = _write(workdir, key, kind, n, m, derive_seed(seed, r, s, k))
                        out_path = workdir / "out" / f"{key}.json"
                        argv = ["run", str(path), "--policy", policy, "--out", str(out_path), "--format", "summary"]
                        if policy in ("greedy", "rand-static"):
                            argv += ["--trials", str(TRIALS), "--seed", str(derive_seed(seed, r, s, k, p))]
                        if policy == "rand-static":
                            argv += ["--t-max", str(RAND_STATIC_T_MAX)]
                        items.append(Item(key=key, argv=argv, path=path, out=out_path, kind=kind, policy=policy))
            out.append(items)
        return out

    def warm_up(self, workdir):
        path = _write(workdir, "warm-up", "same-order-additive", 2, 2, 1)
        cli.main(["run", str(path), "--policy", "greedy", "--trials", "10", "--seed", "1",
                  "--out", str(workdir / "out" / "warm-up.json"), "--format", "summary"])

    def check(self, item, result, diag):
        problems = _exit_problem(result)
        if problems:
            return problems
        row = _read_json(item.out)["rows"][0]
        value, dp_opt = row.get("exact_expected_revenue"), row.get("dp_opt")
        if value is None or dp_opt is None:
            return [f"missing exact value ({value}) or dp_opt ({dp_opt})"]
        if item.policy == "dp" and abs(value - dp_opt) > TOL:
            problems.append(f"dp value {value!r} != dp_opt {dp_opt!r}")
        if item.policy in ("ftar", "star", "greedy") and value > dp_opt + TOL:
            problems.append(f"{item.policy} value {value!r} exceeds dp_opt {dp_opt!r}")
        if item.policy == "greedy" and value < 0.5 * dp_opt - TOL:
            problems.append(f"greedy value {value!r} below dp_opt / 2 ({dp_opt!r})")
        if item.policy == "rand-static":
            factor = 1.0 - 1.0 / math.e if item.kind == "supplier-uniform" else 0.5
            if value < factor * row["lp_objective"] - TOL:
                problems.append(f"rand-static value {value!r} below {factor:.4f} x LP {row['lp_objective']!r}")
        if "mc_mean" in row:
            gap = abs(row["mc_mean"] - value)
            if gap > MC_STDERRS * row["mc_stderr"] + TOL:
                problems.append(f"mc_mean {row['mc_mean']!r} is {gap:.3g} from exact {value!r} "
                                f"(stderr {row['mc_stderr']!r})")
        return problems


class VerifyWorkload(Workload):
    name = "verify"
    nominal_round_s = 3.7

    def rounds(self, seed, rounds, quick, workdir):
        calls = 1 if quick else VERIFY_CALLS_PER_ROUND
        out = []
        for r in range(rounds):
            items = []
            for c in range(calls):
                verify_seed = derive_seed(seed, r, c)
                key = f"r{r}-all-{verify_seed}"
                out_path = workdir / "out" / f"{key}.json"
                argv = ["verify", "--suite", "all", "--seed", str(verify_seed),
                        "--out", str(out_path), "--format", "summary"]
                items.append(Item(key=key, argv=argv, out=out_path))
            out.append(items)
        return out

    def warm_up(self, workdir):
        cli.main(["verify", "--suite", "appendix-a", "--seed", "0",
                  "--out", str(workdir / "out" / "warm-up.json"), "--format", "summary"])

    def check(self, item, result, diag):
        problems = _exit_problem(result)
        if problems:
            return problems
        rows = _read_json(item.out)["rows"]
        return [f"report {row['report']} {row['status']}" for row in rows if row["status"] != "pass"]


WORKLOADS = {w.name: w for w in (SolveWorkload, LpExactWorkload, PolicyWorkload, VerifyWorkload)}
