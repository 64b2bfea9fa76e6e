"""The traced benchmark (``perfbench/tracing.py``) wraps package callables
by name and reads counts from what they return; every name it wraps must
still exist, and traced CLI calls must still yield their counts, or every
traced run breaks."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_tracing().targets()
    assert targets
    for owner, attr, make in targets:
        assert callable(getattr(owner, attr)), f"{getattr(owner, '__name__', owner)}.{attr}"
        assert callable(make)


def test_traced_cli_counts(tmp_path):
    # a change to a result record the tracer reads breaks these counts
    from twosided import cli
    from twosided.ellipsoid import CERTIFY_FIRST

    tracing = _load_tracing()
    # a budget below the first checkpoint, so the budget ends each run
    t_max = CERTIFY_FIRST - 1
    inst = str(tmp_path / "inst.json")
    assert cli.main(["gen", "same-order-additive", "2", "2", "--seed", "3", "--out", inst]) == 0
    out = str(tmp_path / "out")
    runs = {
        "solve": ["solve", inst, "--t-max", str(t_max), "--out", out, "--report", str(tmp_path / "report")],
        "solve-delta": ["solve", inst, "--delta", "0.2", "--t-max", str(t_max), "--out", out],
        "dump-lp": [
            "solve", inst, "--t-max", str(t_max), "--report", str(tmp_path / "report"),
            "--dump-lp", str(tmp_path / "lp"),
        ],
        "rand-static": [
            "run", inst, "--policy", "rand-static", "--trials", "5", "--seed", "1",
            "--t-max", str(t_max), "--out", out,
        ],
        "greedy": ["run", inst, "--policy", "greedy", "--trials", "5", "--seed", "1", "--out", out],
    }
    traced = {}
    for name, argv in runs.items():
        code, traced[name] = tracing.traced_call(cli.main, argv)
        assert code == 0, name
    for name in ("solve", "rand-static"):
        assert traced[name].counts["ellipsoid.cuts"] == t_max
        assert traced[name].counts["lp.aux_columns"] > 0
    # the tracer reads the cut record the master is built from: every
    # recorded set, each cut by at least one oracle call
    header, row = (tmp_path / "report").read_text().strip().splitlines()[-2:]
    report = dict(zip(header.split(","), row.split(",")))
    solve = traced["solve"]
    assert solve.counts["lp.recorded_sets"] == int(report["recorded_sets_total"]) > 0
    assert solve.calls["cost_assortment.oracle_call"] >= solve.counts["ellipsoid.cuts.assortment_cost"] > 0
    # the dump writes the master the solve built: one build per solve
    for name in ("solve", "rand-static", "dump-lp"):
        assert traced[name].calls["lp.build_aux"] == 1, name
    # one oracle per solve at every delta: the cut loop and the pricing
    # share it
    for name in ("solve", "solve-delta", "rand-static", "dump-lp"):
        assert traced[name].calls["cost_assortment.oracle_init"] == 1, name
    for name in ("rand-static", "greedy"):
        assert traced[name].counts["policies.dp_atar.states"] > 0
        # the trials run batched, inside one Monte Carlo call
        assert traced[name].counts["evaluate.trials"] == 5
        assert traced[name].calls["evaluate.monte_carlo"] == 1
