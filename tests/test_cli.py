import argparse
import json
import re
from pathlib import Path

import pytest

from twosided import cli
from twosided.cli import build_parser, main
from twosided.ellipsoid import CERTIFY_FIRST, default_iteration_budget, solve_restricted
from twosided.instance import generate, load_instance, normalize_revenues, save_instance
from twosided.mnl import subset_of
from twosided.simplex import LinearProgram, solve_lp
from twosided.suites import counterexample_instance


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _ = run_cli(capsys, "gen", "uniform-random", "3", "2", "--seed", "7", "--out", str(out))
    assert code == 0
    inst = load_instance(out)
    assert inst.n == 3 and inst.m == 2


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, "gen", "same-order-additive", "3", "2", "--seed", "5", "--out", str(a))[0] == 0
    assert run_cli(capsys, "gen", "same-order-additive", "3", "2", "--seed", "5", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_unknown_kind_usage_error(tmp_path, capsys):
    code = main(["gen", "bogus", "3", "2", "--seed", "1", "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 1


def test_missing_seed_usage_error(tmp_path, capsys):
    code = main(["gen", "uniform-random", "3", "2", "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 1


def test_solve_unit_instance(tmp_path, capsys, unit_instance):
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    report = tmp_path / "report.csv"
    solution = tmp_path / "solution.json"
    code, _ = run_cli(
        capsys, "solve", str(path), "--report", str(report), "--out", str(solution)
    )
    assert code == 0
    text = report.read_text()
    assert text.startswith("# command: solve")
    header, row = text.strip().splitlines()[-2:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["objective"]) >= 0.25 - 1e-6
    doc = json.loads(solution.read_text())
    assert doc["n"] == 1 and doc["m"] == 1
    assert float(doc["objective_normalized"]) >= 0.25 - 1e-6


def test_solve_zero_revenue(tmp_path, capsys, zero_revenue_instance):
    path = tmp_path / "zero.json"
    save_instance(zero_revenue_instance, path)
    report = tmp_path / "report.csv"
    code, _ = run_cli(capsys, "solve", str(path), "--t-max", "2000", "--report", str(report))
    assert code == 0
    header, row = report.read_text().strip().splitlines()[-2:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert abs(float(fields["objective"])) <= 1e-9


def test_solve_ratio_vs_exact(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    assert run_cli(capsys, "gen", "uniform-random", "3", "2", "--seed", "2", "--out", str(inst_path))[0] == 0
    report = tmp_path / "report.csv"
    code, _ = run_cli(capsys, "solve", str(inst_path), "--t-max", "20000", "--report", str(report))
    assert code == 0
    header, row = report.read_text().strip().splitlines()[-2:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["ratio_vs_exact"]) >= 1.0 - 1e-4


def test_solve_dump_lp_and_trace(tmp_path, capsys, unit_instance):
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    dump = tmp_path / "lp.json"
    trace = tmp_path / "trace.jsonl"
    # a budget below the first checkpoint: one trace line per cut of it
    t_max = CERTIFY_FIRST - 1
    code, _ = run_cli(
        capsys, "solve", str(path), "--t-max", str(t_max),
        "--dump-lp", str(dump), "--trace", str(trace), "--report", str(tmp_path / "r.csv"),
    )
    assert code == 0
    lp_doc = json.loads(dump.read_text())
    assert set(lp_doc) >= {"c", "a_eq", "b_eq", "a_ub", "b_ub", "maximize"}
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == t_max
    rec = json.loads(lines[0])
    assert set(rec) == {"t", "cut", "index", "obj", "incumbent_updated"}


def _report_fields(path) -> dict[str, str]:
    header, row = path.read_text().strip().splitlines()[-2:]
    return dict(zip(header.split(","), row.split(",")))


def test_solve_reports_stop_reason(tmp_path, capsys, unit_instance):
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    budget = tmp_path / "budget.csv"
    default = tmp_path / "default.csv"
    t_max = str(CERTIFY_FIRST - 1)
    assert run_cli(capsys, "solve", str(path), "--t-max", t_max, "--report", str(budget))[0] == 0
    assert run_cli(capsys, "solve", str(path), "--report", str(default))[0] == 0
    header = budget.read_text().strip().splitlines()[-2].split(",")
    at = header.index("recorded_sets_per_supplier")
    assert header[at + 1 : at + 5] == ["priced_sets_total", "pricing_rounds", "pivots", "stop_reason"]
    assert "early_exited" not in header
    assert _report_fields(budget)["stop_reason"] == "t_max"
    assert _report_fields(budget)["iterations"] == t_max
    # the default budget reaches the first checkpoint, which certifies; the
    # float64 floor is covered on run_ellipsoid in test_ellipsoid.py
    assert _report_fields(default)["stop_reason"] == "certified"
    assert _report_fields(default)["iterations"] == str(CERTIFY_FIRST)


def _config_fields(path) -> dict[str, str]:
    lines = path.read_text().splitlines()
    return dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))


def test_parser_is_built_once_and_shares_no_flag_values(tmp_path, capsys, unit_instance):
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    budget, default = tmp_path / "budget.csv", tmp_path / "default.csv"
    assert run_cli(capsys, "solve", str(path), "--t-max", "300", "--report", str(budget))[0] == 0
    assert run_cli(capsys, "solve", str(path), "--report", str(default))[0] == 0
    assert cli._parser() is cli._parser()
    assert _config_fields(budget)["t_max"] == "300"
    assert _config_fields(default)["t_max"] == str(default_iteration_budget(normalize_revenues(unit_instance)))


@pytest.mark.parametrize("command", ["gen", "run", "verify"])
def test_negative_seed_is_usage_error_naming_the_flag(tmp_path, capsys, monkeypatch, unit_instance, command):
    # a negative seed once solved the LP and evaluated the policy before
    # numpy refused it, with a message that named no flag
    def unreachable(*args, **kwargs):
        raise AssertionError("the LP was solved for a negative seed")

    monkeypatch.setattr(cli, "solve_restricted", unreachable)
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    out = tmp_path / "out.csv"
    argv = {
        "gen": ["gen", "uniform-random", "2", "2", "--out", str(out)],
        "run": ["run", str(path), "--policy", "rand-static", "--trials", "5", "--out", str(out)],
        "verify": ["verify", "--suite", "appendix-a", "--out", str(out)],
    }[command]
    code = main([*argv, "--seed", "-1"])
    assert code == 1
    assert "argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "run"])
def test_t_max_below_one_is_usage_error_naming_the_flag(tmp_path, capsys, monkeypatch, command):
    # the refusal must come before the exact oracle is built: past 20
    # customers the oracle's own size limit would answer first (exit 2)
    def unreachable(*args, **kwargs):
        raise AssertionError("an oracle was built for --t-max 0")

    monkeypatch.setattr("twosided.ellipsoid.SubDualOracle", unreachable)
    path = tmp_path / "big.json"
    save_instance(generate("uniform-random", 21, 1, 0), path)
    argv = {
        "solve": ["solve", str(path)],
        "run": ["run", str(path), "--policy", "rand-static", "--seed", "1"],
    }[command]
    code = main([*argv, "--t-max", "0"])
    assert code == 1
    assert "argument --t-max: t_max must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "run"])
def test_early_exit_flag_is_gone(tmp_path, capsys, unit_instance, command):
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    extra = ["--policy", "rand-static", "--seed", "1"] if command == "run" else []
    code = main([command, str(path), *extra, "--early-exit"])
    assert "unrecognized arguments: --early-exit" in capsys.readouterr().err
    assert code == 1


def test_default_solve_certifies(tmp_path, capsys):
    inst_path = tmp_path / "c.json"
    assert run_cli(capsys, "gen", "uniform-random", "3", "3", "--seed", "6", "--out", str(inst_path))[0] == 0
    report = tmp_path / "report.csv"
    assert run_cli(capsys, "solve", str(inst_path), "--report", str(report))[0] == 0
    header = report.read_text().strip().splitlines()[-2].split(",")
    assert header[header.index("stop_reason") + 1] == "certified_gap"
    assert header[header.index("iterations") + 1] == "lp_bound" and "incumbent_objective" not in header
    fields = _report_fields(report)
    assert fields["stop_reason"] == "certified"
    assert 0.0 <= float(fields["certified_gap"]) <= 1e-9
    assert float(fields["ratio_vs_exact"]) == pytest.approx(1.0, abs=1e-12)
    # the LP bound is the certificate's objective: at or above the exact
    # optimum, and within the gap of the objective
    factor = float(_config_fields(report)["revenue_factor"])
    assert float(fields["lp_bound"]) / factor >= float(fields["exact_objective_normalized"]) - 1e-12
    gap = float(fields["lp_bound"]) - float(fields["objective"])
    assert abs(gap - float(fields["certified_gap"])) <= 1e-12


def test_solve_reports_pricing(tmp_path, capsys):
    # 8x2 uniform-random seed 77 certifies at the first checkpoint only
    # through pricing rounds; the trace still lists cuts only
    inst_path = tmp_path / "p.json"
    assert run_cli(capsys, "gen", "uniform-random", "8", "2", "--seed", "77", "--out", str(inst_path))[0] == 0
    report, trace, summary = tmp_path / "report.csv", tmp_path / "trace.jsonl", tmp_path / "summary.json"
    argv = ["solve", str(inst_path), "--trace", str(trace)]
    dump = tmp_path / "lp.json"
    assert run_cli(capsys, *argv, "--report", str(report), "--dump-lp", str(dump))[0] == 0
    fields = _report_fields(report)
    assert fields["stop_reason"] == "certified" and fields["iterations"] == str(CERTIFY_FIRST)
    assert int(fields["pricing_rounds"]) > 0
    assert int(fields["priced_sets_total"]) >= int(fields["pricing_rounds"])
    assert int(fields["pivots"]) > 0
    # the report and the dump read the master the solution came from: its
    # pivots, and its LP with the columns in the order they joined it
    inst = load_instance(inst_path)
    solved = solve_restricted(normalize_revenues(inst))
    assert (fields["pivots"], fields["priced_sets_total"]) == (
        str(solved.master.pivots), str(solved.priced_sets_total)
    )
    assert fields["lp_bound"] == repr(solved.certificate.objective * float(inst.r.max()))
    lp_doc = json.loads(dump.read_text())
    assert lp_doc["names"] == list(solved.master.lp.names)
    assert sum(name.startswith("lam[") for name in lp_doc["names"]) >= 2 + int(fields["priced_sets_total"])
    lp = LinearProgram(**{key: lp_doc[key] for key in ("c", "a_eq", "b_eq", "a_ub", "b_ub", "maximize")})
    assert abs(solve_lp(lp).objective - float(fields["objective_normalized"])) <= 1e-12
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [row["t"] for row in rows] == list(range(1, CERTIFY_FIRST + 1))
    # a backlog cut's row names its set by ascending customers; per
    # supplier those are the sets the solve recorded
    shown = [set() for _ in range(inst.m)]
    for row in rows:
        if row["cut"] == "assortment-cost":
            j, customers = row["index"]
            assert customers == sorted(set(customers)) and all(0 <= i < inst.n for i in customers)
            shown[j].add(tuple(customers))
    assert shown == [{subset_of(mask, inst.n) for mask in solved.run.violated[j]} for j in range(inst.m)]
    assert any(shown)
    # a second run reports the same counts
    assert run_cli(capsys, *argv, "--report", str(summary), "--format", "summary")[0] == 0
    row = json.loads(summary.read_text())["rows"][0]
    assert (row["priced_sets_total"], row["pricing_rounds"], row["pivots"], repr(row["lp_bound"])) == (
        int(fields["priced_sets_total"]), int(fields["pricing_rounds"]), int(fields["pivots"]), fields["lp_bound"]
    )


def test_run_reports_pricing_for_rand_static_only(tmp_path, capsys):
    inst_path = tmp_path / "r.json"
    assert run_cli(capsys, "gen", "same-order-additive", "8", "2", "--seed", "77", "--out", str(inst_path))[0] == 0
    static, greedy = tmp_path / "static.csv", tmp_path / "greedy.csv"
    argv = ["run", str(inst_path), "--seed", "1"]
    assert run_cli(capsys, *argv, "--policy", "rand-static", "--t-max", "1000", "--out", str(static))[0] == 0
    assert run_cli(capsys, *argv, "--policy", "greedy", "--out", str(greedy))[0] == 0
    fields = _report_fields(static)
    assert int(fields["pricing_rounds"]) > 0 and int(fields["priced_sets_total"]) > 0
    assert int(fields["pivots"]) > 0
    assert 0.0 <= float(fields["certified_gap"]) <= 1e-9
    header = list(fields)
    assert header[header.index("certified_gap") + 1] == "lp_bound"
    # the LP bound is the objective raised by the certified gap
    gap = float(fields["lp_bound"]) - float(fields["lp_objective"])
    assert abs(gap - float(fields["certified_gap"])) <= 1e-12
    # the same fields as the solve report's, from the same solve
    report = tmp_path / "report.csv"
    assert run_cli(capsys, "solve", str(inst_path), "--t-max", "1000", "--report", str(report))[0] == 0
    shared = ("certified_gap", "lp_bound", "priced_sets_total", "pricing_rounds", "pivots")
    assert [fields[key] for key in shared] == [_report_fields(report)[key] for key in shared]
    fields = _report_fields(greedy)
    assert fields["priced_sets_total"] == fields["pricing_rounds"] == fields["pivots"] == fields["lp_bound"] == ""


@pytest.mark.parametrize("flag", [["--delta", "0.5"], ["--delta", "0"], ["--t-max", "1000"]])
@pytest.mark.parametrize("policy", ["greedy", "dp", "ftar", "star"])
def test_lp_flags_without_rand_static_are_usage_errors(tmp_path, capsys, monkeypatch, policy, flag):
    # these policies solve no LP, so the header would record a delta or a
    # budget that played no part; refused before any oracle runs
    def unreachable(*args, **kwargs):
        raise AssertionError("the policy ran before the usage error")

    for name in ("exact_dp_atar", "exact_dp_ftar", "exact_star", "detect_same_order"):
        monkeypatch.setattr(f"twosided.cli.{name}", unreachable)
    inst_path = tmp_path / "i.json"
    assert run_cli(capsys, "gen", "same-order-additive", "2", "2", "--seed", "3", "--out", str(inst_path))[0] == 0
    out = tmp_path / "run.csv"
    code = main(["run", str(inst_path), "--policy", policy, *flag, "--out", str(out)])
    assert f"{flag[0]} does not apply" in capsys.readouterr().err
    assert code == 1
    assert not out.exists()


def test_run_dp_unit_instance(tmp_path, capsys, unit_instance):
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    out = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, "run", str(path), "--policy", "dp", "--out", str(out))
    assert code == 0
    header, row = out.read_text().strip().splitlines()[-2:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["exact_expected_revenue"]) == pytest.approx(0.25, abs=1e-9)
    assert float(fields["ratio_vs_dp"]) == pytest.approx(1.0, abs=1e-9)


def test_run_greedy_missing_certificate_exit_code(tmp_path, capsys):
    inst = counterexample_instance()
    # break the order: two suppliers ranking customers differently
    import numpy as np
    from twosided.instance import Instance

    broken = Instance(
        n=2, m=2, u=np.ones((2, 2)), w=np.ones((2, 2)), r=[[1.0, 0.0], [0.0, 1.0]]
    )
    path = tmp_path / "broken.json"
    save_instance(broken, path)
    code = main(["run", str(path), "--policy", "greedy"])
    capsys.readouterr()
    assert code == 3
    # escape hatch runs it as a heuristic
    out = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, "run", str(path), "--policy", "greedy", "--force-order", "--out", str(out))
    assert code == 0
    assert "heuristic_order" in out.read_text()


def test_run_greedy_ratio(tmp_path, capsys):
    inst_path = tmp_path / "so.json"
    assert run_cli(capsys, "gen", "same-order-additive", "3", "3", "--seed", "4", "--out", str(inst_path))[0] == 0
    out = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, "run", str(inst_path), "--policy", "greedy", "--out", str(out))
    assert code == 0
    header, row = out.read_text().strip().splitlines()[-2:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["ratio_vs_dp"]) >= 0.5 - 1e-9


def test_run_rand_static_guarantee(tmp_path, capsys):
    inst_path = tmp_path / "r.json"
    assert run_cli(capsys, "gen", "uniform-random", "3", "3", "--seed", "6", "--out", str(inst_path))[0] == 0
    out = tmp_path / "rows.csv"
    code, _ = run_cli(
        capsys, "run", str(inst_path), "--policy", "rand-static", "--seed", "1",
        "--t-max", "20000", "--out", str(out),
    )
    assert code == 0
    header, row = out.read_text().strip().splitlines()[-2:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["exact_expected_revenue"]) >= 0.5 * float(fields["lp_objective"]) - 1e-9
    assert 0.0 <= float(fields["certified_gap"]) <= 1e-9


def test_run_rand_static_requires_seed(tmp_path, capsys):
    inst_path = tmp_path / "r.json"
    assert run_cli(capsys, "gen", "uniform-random", "2", "2", "--seed", "6", "--out", str(inst_path))[0] == 0
    code = main(["run", str(inst_path), "--policy", "rand-static"])
    capsys.readouterr()
    assert code == 1


def test_run_monte_carlo_rows(tmp_path, capsys):
    inst_path = tmp_path / "so.json"
    assert run_cli(capsys, "gen", "same-order-additive", "3", "2", "--seed", "9", "--out", str(inst_path))[0] == 0
    out = tmp_path / "rows.csv"
    code, _ = run_cli(
        capsys, "run", str(inst_path), "--policy", "greedy",
        "--trials", "500", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    header, row = out.read_text().strip().splitlines()[-2:]
    fields = dict(zip(header.split(","), row.split(",")))
    exact = float(fields["exact_expected_revenue"])
    mean = float(fields["mc_mean"])
    stderr = float(fields["mc_stderr"])
    assert abs(mean - exact) <= 4.0 * max(stderr, 1e-12)


def test_verify_suite_passes(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    code, _ = run_cli(capsys, "verify", "--suite", "appendix-a", "--seed", "0", "--out", str(out))
    assert code == 0
    assert "pass" in out.read_text()


def test_verify_chain_small(tmp_path, capsys, monkeypatch):
    import twosided.suites as suites

    monkeypatch.setattr(suites, "CHAIN_COUNT", 20)
    code, _ = run_cli(capsys, "verify", "--suite", "chain", "--seed", "3")
    assert code == 0


def test_verify_summary_format(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "appendix-a", "--seed", "0", "--format", "summary")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert all(row["status"] == "pass" for row in doc["rows"])


def test_missing_instance_file_usage_error(capsys):
    code = main(["solve", "/nonexistent/path.json"])
    capsys.readouterr()
    assert code == 1


def test_cli_outputs_byte_identical(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    assert run_cli(capsys, "gen", "uniform-random", "2", "2", "--seed", "11", "--out", str(inst_path))[0] == 0
    outs = []
    for tag in ("a", "b"):
        report = tmp_path / f"solve-{tag}.csv"
        rows = tmp_path / f"run-{tag}.csv"
        verify = tmp_path / f"verify-{tag}.csv"
        assert run_cli(capsys, "solve", str(inst_path), "--t-max", "3000", "--report", str(report))[0] == 0
        assert run_cli(
            capsys, "run", str(inst_path), "--policy", "rand-static", "--seed", "2",
            "--trials", "50", "--t-max", "3000", "--out", str(rows),
        )[0] == 0
        assert run_cli(capsys, "verify", "--suite", "appendix-a", "--seed", "1", "--out", str(verify))[0] == 0
        outs.append((report.read_bytes(), rows.read_bytes(), verify.read_bytes()))
    assert outs[0] == outs[1]


def test_verify_all_healthy_build(capsys, tmp_path):
    out = tmp_path / "all.csv"
    code, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert all(",pass," in line or line.startswith("#") or line.startswith("report,") for line in lines)


def test_solve_size_limit_is_solver_failure(tmp_path, capsys):
    inst_path = tmp_path / "big.json"
    assert run_cli(capsys, "gen", "uniform-random", "21", "2", "--seed", "0", "--out", str(inst_path))[0] == 0
    code = main(["solve", str(inst_path), "--t-max", "10"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("exponent", [60, 200])
@pytest.mark.parametrize("command", [["solve"], ["run", "--policy", "rand-static", "--trials", "10", "--seed", "1"]])
def test_tiny_weight_past_float64_range_is_solver_failure(tmp_path, capsys, tiny_weight, exponent, command):
    path = tmp_path / "tiny.json"
    save_instance(tiny_weight(exponent), path)
    code = main([command[0], str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("solver error:") and "past float64 range" in err


def test_tiny_weight_in_float64_range_solves(tmp_path, capsys, tiny_weight):
    path, report = tmp_path / "tiny.json", tmp_path / "report.csv"
    save_instance(tiny_weight(48), path)
    assert run_cli(capsys, "solve", str(path), "--report", str(report))[0] == 0
    header, row = report.read_text().strip().splitlines()[-2:]
    assert dict(zip(header.split(","), row.split(",")))["stop_reason"] == "certified"


def test_verify_failure_exit_code(capsys, monkeypatch):
    import twosided.suites as suites
    from twosided.evaluate import PropertyReport

    def failing(seed):
        report = PropertyReport(name="forced", cases=1)
        report.record(kind="synthetic")
        return [report]

    monkeypatch.setitem(suites.SUITES, "gap", failing)
    code = main(["verify", "--suite", "gap", "--seed", "0"])
    capsys.readouterr()
    assert code == 4


def test_solve_summary_format(tmp_path, capsys, unit_instance):
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    code, out = run_cli(capsys, "solve", str(path), "--t-max", "1500", "--format", "summary")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert float(doc["rows"][0]["objective"]) >= 0.25 - 1e-6


def test_solve_with_positive_delta(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    assert run_cli(capsys, "gen", "uniform-random", "3", "2", "--seed", "13", "--out", str(inst_path))[0] == 0
    report = tmp_path / "report.csv"
    code, _ = run_cli(
        capsys, "solve", str(inst_path), "--delta", "0.2", "--t-max", "20000", "--report", str(report)
    )
    assert code == 0
    text = report.read_text()
    assert "# delta: 0.2" in text
    assert "# guarantee_general: 0.4" in text
    header, row = text.strip().splitlines()[-2:]
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["ratio_vs_exact"]) >= (1.0 - 0.2) - 1e-6
    assert float(fields["ratio_vs_exact"]) <= 1.0 + 1e-9


@pytest.mark.parametrize("delta", ["-0.5", "nan", "1.0"])
@pytest.mark.parametrize("command", ["solve", "run"])
def test_delta_outside_unit_interval_is_usage_error(tmp_path, capsys, command, delta):
    # a negative delta once fell back to the exact oracle and reported
    # guarantees above the paper's 1/2 and 1 - 1/e
    inst_path = tmp_path / "i.json"
    assert run_cli(capsys, "gen", "uniform-random", "2", "2", "--seed", "3", "--out", str(inst_path))[0] == 0
    out = tmp_path / "out.csv"
    extra = ["--report", str(out)] if command == "solve" else ["--policy", "dp", "--out", str(out)]
    code = main([command, str(inst_path), "--delta", delta, *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert "delta must be in [0, 1)" in err
    assert not out.exists()


def test_negative_trials_is_usage_error(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    assert run_cli(capsys, "gen", "same-order-additive", "2", "2", "--seed", "3", "--out", str(inst_path))[0] == 0
    out = tmp_path / "run.csv"
    code = main(["run", str(inst_path), "--policy", "greedy", "--trials", "-1", "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "trials must be >= 0" in err
    assert not out.exists()


def test_nan_revenue_scale_is_usage_error(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    assert run_cli(capsys, "gen", "uniform-random", "2", "2", "--seed", "3", "--out", str(inst_path))[0] == 0
    doc = json.loads(inst_path.read_text())
    doc["revenue_scale"] = float("nan")
    inst_path.write_text(json.dumps(doc))
    code = main(["solve", str(inst_path), "--t-max", "10"])
    assert "revenue_scale must be positive and finite" in capsys.readouterr().err
    assert code == 1


def test_trials_with_star_is_usage_error_before_the_size_limit(tmp_path, capsys):
    # 8x2 is over the star oracle's size limit, which once exited 3 first
    inst_path = tmp_path / "big.json"
    assert run_cli(capsys, "gen", "same-order-additive", "8", "2", "--seed", "1", "--out", str(inst_path))[0] == 0
    code = main(["run", str(inst_path), "--policy", "star", "--trials", "5", "--seed", "1"])
    assert "--trials does not apply" in capsys.readouterr().err
    assert code == 1


def test_trials_with_dp_is_refused_before_the_dp_runs(tmp_path, capsys, monkeypatch, unit_instance):
    def unreachable(inst):
        raise AssertionError("the DP ran before the usage error")

    monkeypatch.setattr("twosided.cli.exact_dp_atar", unreachable)
    path = tmp_path / "unit.json"
    save_instance(unit_instance, path)
    code = main(["run", str(path), "--policy", "dp", "--trials", "5", "--seed", "1"])
    assert "--trials does not apply" in capsys.readouterr().err
    assert code == 1


def test_readme_synopses_match_the_parser():
    # the --flag tokens of each `twosided COMMAND` synopsis in the README's
    # command-line block, against the options of that subparser
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    documented: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        if line.startswith("twosided "):
            flags = documented[line.split()[1]] = set()
        flags.update(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        command: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for command, p in sub.choices.items()
    }
    assert documented == parsed
