"""Command-line front end: generate, solve, run policies, verify.

Every command is deterministic given its flags (seeds must be explicit;
no environment fallback) and emits either comma-separated rows under a
``#``-prefixed header block recording the full effective configuration, or
a JSON summary object. Exit codes: 0 ok, 1 usage, 2 solver failure,
3 policy precondition, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .ellipsoid import EllipsoidBreakdown, solve_restricted
from .instance import (
    GENERATOR_KINDS,
    detect_same_order,
    generate,
    lexicographic_order,
    load_instance,
    normalize_revenues,
    save_instance,
    validate,
)
from .lp import LpSolverError, lp2_exact_small
from .policies import (
    PolicyPreconditionError,
    RandomizedStaticPolicy,
    SameOrderGreedyPolicy,
    SizeLimitError,
    exact_dp_atar,
    exact_dp_ftar,
    exact_star,
)
from .evaluate import monte_carlo
from .suites import SUITES, run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_POLICY = 3
EXIT_VERIFY = 4

EXACT_POLICIES = ("dp", "ftar", "star")
POLICIES = ("rand-static", "greedy") + EXACT_POLICIES


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _delta(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"delta must be in [0, 1), got {text}")
    return value


def _trials(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"trials must be >= 0, got {text}")
    return value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, (list, tuple)):
        return "|".join(_fmt(v) for v in value)
    return str(value)


def _emit(path: str | None, text: str) -> None:
    if path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_default(value):
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _document(command: str, config: dict, header: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "summary":
        doc = {"command": command, "config": config, "rows": rows}
        return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"
    lines = [f"# command: {command}"]
    for key in sorted(config):
        lines.append(f"# {key}: {_fmt(config[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in header))
    return "\n".join(lines) + "\n"


def _load_valid_instance(path: str):
    inst = load_instance(path)
    errors = validate(inst)
    if errors:
        raise ValueError(f"invalid instance {path}: " + "; ".join(errors))
    return inst


def cmd_gen(args) -> int:
    inst = generate(args.kind, args.n, args.m, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _normalized(inst):
    """The instance with revenues scaled to at most 1, and the factor that
    was divided out (1 for an all-zero instance)."""
    peak = float(inst.r.max())
    return normalize_revenues(inst), peak if peak > 0 else 1.0


def cmd_solve(args) -> int:
    inst = _load_valid_instance(args.instance)
    norm, factor = _normalized(inst)
    solved = solve_restricted(norm, args.t_max, delta=args.delta, trace=bool(args.trace))
    run, solution = solved.run, solved.solution

    config = {
        "instance": args.instance,
        "delta": args.delta,
        "t_max": run.t_max,
        "revenue_factor": factor,
        "guarantee_general": (1.0 - args.delta) / 2.0,
        "guarantee_supplier_uniform": (1.0 - args.delta) * (1.0 - 1.0 / math.e),
    }
    row = {
        "objective": solution.objective * factor,
        "objective_normalized": solution.objective,
        "iterations": run.iterations,
        "incumbent_objective": run.objective,
        "recorded_sets_total": run.violated.total(),
        "recorded_sets_per_supplier": run.violated.counts(),
        "stop_reason": run.stop_reason,
        "certified_gap": solved.certified_gap * factor,
    }
    header = list(row.keys())
    if norm.n <= 4 and norm.m <= 4:
        exact = lp2_exact_small(norm).objective
        row["exact_objective_normalized"] = exact
        row["ratio_vs_exact"] = solution.objective / exact if exact > 0 else 1.0
        header += ["exact_objective_normalized", "ratio_vs_exact"]

    if args.out:
        doc = {
            "n": norm.n,
            "m": norm.m,
            "objective_normalized": solution.objective,
            "revenue_factor": factor,
            "x": solution.x.tolist(),
            "lam": [
                [{"set": list(s), "p": p} for s, p in sorted(lam.items())]
                for lam in solution.lam
            ],
        }
        _emit(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if args.dump_lp:
        _emit(args.dump_lp, json.dumps(solved.columns.lp.to_dict(), sort_keys=True) + "\n")
    if args.trace:
        lines = [json.dumps(rec, sort_keys=True, default=_fmt) for rec in run.trace or []]
        _emit(args.trace, "\n".join(lines) + ("\n" if lines else ""))
    _emit(args.report, _document("solve", config, header, [row], args.format))
    return EXIT_OK


def _unless_too_large(compute):
    """``compute()``, or None when it exceeds its size limit."""
    try:
        return compute()
    except SizeLimitError:
        return None


def cmd_run(args) -> int:
    inst = _load_valid_instance(args.instance)
    if args.trials > 0 and args.policy in EXACT_POLICIES:
        print(f"error: policy {args.policy} is exact; --trials does not apply", file=sys.stderr)
        return EXIT_USAGE
    needs_seed = args.trials > 0 or args.policy == "rand-static"
    if needs_seed and args.seed is None:
        print("error: --seed is required for randomized runs", file=sys.stderr)
        return EXIT_USAGE

    config = {
        "instance": args.instance,
        "policy": args.policy,
        "trials": args.trials,
        "seed": args.seed,
        "delta": args.delta,
        "t_max": args.t_max,
        "force_order": args.force_order,
    }
    row: dict = {"policy": args.policy, "n": inst.n, "m": inst.m}
    policy = None  # a sampled policy; the other choices are exact oracles

    if args.policy == "dp":
        row["exact_expected_revenue"], _ = exact_dp_atar(inst)
    elif args.policy == "ftar":
        row["exact_expected_revenue"] = exact_dp_ftar(inst, tuple(range(inst.n)))
    elif args.policy == "star":
        row["exact_expected_revenue"] = exact_star(inst)
    elif args.policy == "rand-static":
        norm, factor = _normalized(inst)
        solved = solve_restricted(norm, args.t_max, delta=args.delta)
        config["t_max"] = solved.run.t_max
        row["lp_objective"] = solved.solution.objective * factor
        row["certified_gap"] = solved.certified_gap * factor
        policy = RandomizedStaticPolicy(inst, solved.solution)
    else:  # greedy
        cert = detect_same_order(inst)
        if not cert:
            if not args.force_order:
                raise PolicyPreconditionError(
                    "instance has no common revenue order; re-run with --force-order to "
                    "use the lexicographic candidate order as a heuristic"
                )
            policy = SameOrderGreedyPolicy(inst, order=lexicographic_order(inst))
            row["heuristic_order"] = True
        else:
            policy = SameOrderGreedyPolicy(inst, certificate=cert)
    if policy is not None:
        row["exact_expected_revenue"] = _unless_too_large(policy.exact_expected_revenue)

    if args.trials > 0:
        mean, stderr = monte_carlo(policy.sample, args.trials, args.seed)
        row["mc_mean"] = mean
        row["mc_stderr"] = stderr

    # the DP draws no random numbers, so running it after Monte Carlo leaves the draws as they are
    if args.policy == "dp":
        dp_opt = row["exact_expected_revenue"]
    else:
        dp_opt = _unless_too_large(lambda: exact_dp_atar(inst)[0])
    row["dp_opt"] = dp_opt
    achieved = row.get("exact_expected_revenue")
    if achieved is None:
        achieved = row.get("mc_mean")
    if dp_opt is not None and dp_opt > 0 and achieved is not None:
        row["ratio_vs_dp"] = achieved / dp_opt

    header = [
        "policy", "n", "m", "exact_expected_revenue", "mc_mean", "mc_stderr",
        "lp_objective", "certified_gap", "dp_opt", "ratio_vs_dp", "heuristic_order",
    ]
    _emit(args.out, _document("run", config, header, [row], args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suites(args.suite, args.seed)
    config = {"suite": args.suite, "seed": args.seed}
    rows = []
    failed = False
    for rep in reports:
        rows.append(
            {
                "report": rep.name,
                "cases": rep.cases,
                "violations": len(rep.violations),
                "status": "pass" if rep.passed else "FAIL",
                # diagnostic payload; commas swapped out to keep rows parseable
                "first_violation": (
                    json.dumps(rep.violations[0], default=_fmt).replace(",", ";")
                    if rep.violations
                    else None
                ),
            }
        )
        failed = failed or not rep.passed
    header = ["report", "cases", "violations", "status", "first_violation"]
    _emit(args.out, _document("verify", config, header, rows, args.format))
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="twosided", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("kind", choices=GENERATOR_KINDS)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="approximately solve the marginal LP")
    p.add_argument("instance")
    p.add_argument("--delta", type=_delta, default=0.0, help="oracle approximation slack in [0, 1)")
    p.add_argument("--t-max", type=int, default=None, help="cut-step budget override")
    p.add_argument("--out", default=None, help="write the solution document here")
    p.add_argument("--report", default=None, help="write the report here (default stdout)")
    p.add_argument("--dump-lp", default=None, help="write the restricted LP here")
    p.add_argument("--trace", default=None, help="write per-iteration records here")
    p.add_argument("--format", choices=("rows", "summary"), default="rows")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("run", help="run a policy or an exact oracle")
    p.add_argument("instance")
    p.add_argument("--policy", choices=POLICIES, required=True)
    p.add_argument("--trials", type=_trials, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=_delta, default=0.0)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--force-order", action="store_true", help="run greedy without a certificate")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("rows", "summary"), default="rows")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("rows", "summary"), default="rows")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PolicyPreconditionError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # size limits are a solver failure for `solve`, a precondition for `run`
        return EXIT_SOLVER if args.command == "solve" else EXIT_POLICY
    except (LpSolverError, EllipsoidBreakdown) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
