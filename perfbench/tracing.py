"""Per-layer spans for the traced benchmark run.

The tracer wraps the package's public callables from the outside: every
module under ``twosided`` that holds a reference to a wrapped function gets
the wrapper, so ``twosided.cli.run_ellipsoid`` and
``twosided.ellipsoid.run_ellipsoid`` are both covered. Nothing in the
package changes; :meth:`Tracer.uninstall` puts every original back.

A span records its name, start, end, parent span and item id. Spans are kept
in flat arrays in memory and written out once, when the run ends. Counts come
from the values the wrapped calls return (``EllipsoidResult``, ``LpResult``,
the DP policy table, suite reports) or from their arguments.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ITEM_SPAN = "item"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, child seconds]
        self._item = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self._item)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        index, child_s = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def item(self, item_id: int, fn, *args):
        """Run ``fn(*args)`` as item ``item_id`` inside a root span."""
        self._item = item_id
        self._open(ITEM_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(ITEM_SPAN)
            self._item = -1

    def spanned(self, name: str, fn, account=None):
        """Wrapper of ``fn`` that records a span; ``account(tracer, result,
        args, kwargs)`` adds counts from a successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if account is not None:
                account(self, result, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrapper of a hot helper that only counts calls (no span)."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, targets) -> None:
        """Patch every ``(owner, attribute, make_wrapper)`` target.

        A module-level function is replaced in every loaded ``twosided``
        module that refers to it; a class attribute is replaced on the class.
        """
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            wrapper = make(self, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "twosided" and not mod_name.startswith("twosided."):
                    continue
                for name in [k for k, v in vars(module).items() if v is original]:
                    self._patch(module, name, wrapper)

    def install_dict(self, table: dict, make) -> None:
        """Wrap each value of ``table`` (e.g. the suite registry) in place."""
        for key, fn in list(table.items()):
            self._patches.append((table, key, fn))
            table[key] = make(self, key, fn)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def coverage(self) -> float:
        """Share of item time covered by the item's direct child spans."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        item_id = self._name_ids.get(ITEM_SPAN)
        if item_id is None:
            return 0.0
        is_item = names == item_id
        item_s = float((end - start)[is_item].sum())
        has_parent = parents >= 0
        under_item = np.zeros(names.size, dtype=bool)
        under_item[has_parent] = is_item[parents[has_parent]]
        covered = float((end - start)[under_item].sum())
        return covered / item_s if item_s > 0 else 0.0

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# -- what gets wrapped, and the counts taken from each call ---------------


def _ellipsoid(tr: Tracer, res, args, kwargs) -> None:
    c = tr.counts
    c["ellipsoid.cuts"] += res.iterations
    for kind, n in res.cut_counts.items():
        c["ellipsoid.cuts." + kind.replace("-", "_")] += n
    c["ellipsoid.incumbents"] += len(res.incumbent_history)
    if res.degenerate_stop:
        c["ellipsoid.stop.float64_floor"] += 1
    elif res.early_exited:
        c["ellipsoid.stop.early_exit"] += 1
    elif res.iterations >= res.t_max:
        c["ellipsoid.stop.t_max"] += 1


def _build_aux(tr: Tracer, columns, args, kwargs) -> None:
    inst, violated = args[0], args[1]
    tr.counts["lp.aux_columns"] += columns.lp.num_vars
    tr.counts["lp.recorded_sets"] += violated.total()
    tr.counts["lp.possible_sets"] += inst.m * 2**inst.n


def _solve_lp(tr: Tracer, result, args, kwargs) -> None:
    lp = args[0]
    rows = lp.a_eq.shape[0] + lp.a_ub.shape[0]
    # phase-1 tableau: structural + slack + artificial columns, plus rhs
    cells = (rows + 1) * (lp.num_vars + lp.a_ub.shape[0] + rows + 1)
    tr.counts["simplex.pivots"] += result.iterations
    tr.counts["simplex.bytes_computed"] += result.iterations * cells * 8
    tr.maxima["simplex.tableau_cells_max"] = max(tr.maxima["simplex.tableau_cells_max"], cells)


def _dp_atar(tr: Tracer, result, args, kwargs) -> None:
    tr.counts["policies.dp_atar.states"] += len(result[1])


def _monte_carlo(tr: Tracer, result, args, kwargs) -> None:
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    tr.counts["evaluate.trials"] += trials


def _suite(tr: Tracer, reports, args, kwargs) -> None:
    tr.counts["suites.cases"] += sum(rep.cases for rep in reports)


def _span(name, account=None):
    return lambda tr, fn: tr.spanned(name, fn, account)


def _count(name):
    return lambda tr, fn: tr.counted(name, fn)


def targets():
    from twosided import cost_assortment, ellipsoid, evaluate, instance, lp, mnl
    from twosided import policies, rounding, simplex

    return [
        (ellipsoid, "run_ellipsoid", _span("ellipsoid.run", _ellipsoid)),
        (cost_assortment.SubDualOracle, "__init__", _span("cost_assortment.oracle_init")),
        (cost_assortment.SubDualOracle, "__call__", _span("cost_assortment.oracle_call")),
        (lp, "build_aux_primal", _span("lp.build_aux", _build_aux)),
        (simplex, "solve_lp", _span("simplex.solve", _solve_lp)),
        (lp, "check_lp_solution", _span("lp.check")),
        (lp, "lp2_exact_small", _span("lp.exact_small")),
        (lp, "lp1_exact_small", _span("lp.lp1_exact_small")),
        (policies, "exact_dp_atar", _span("policies.dp_atar", _dp_atar)),
        (policies, "exact_dp_ftar", _span("policies.dp_ftar")),
        (policies, "exact_star", _span("policies.star")),
        (policies.SameOrderGreedyPolicy, "exact_expected_revenue", _span("policies.greedy_exact")),
        (policies.RandomizedStaticPolicy, "exact_expected_revenue", _span("policies.rand_static_exact")),
        (policies.SameOrderGreedyPolicy, "sample", _span("policies.sample")),
        (policies.RandomizedStaticPolicy, "sample", _span("policies.sample")),
        (rounding, "mnl_distribution", _span("rounding.mnl_distribution")),
        (rounding, "sample_choice", _span("rounding.sample_choice")),
        (evaluate, "monte_carlo", _span("evaluate.monte_carlo", _monte_carlo)),
        (evaluate, "correlation_gap_check", _span("evaluate.correlation_gap_check")),
        (evaluate, "cost_sharing_check", _span("evaluate.cost_sharing_check")),
        (evaluate, "submodular_order_check", _span("evaluate.submodular_order_check")),
        (evaluate, "interleaved_partition_check", _span("evaluate.interleaved_partition_check")),
        (instance, "load_instance", _span("instance.load")),
        (mnl, "optimal_revenue", _count("mnl.optimal_revenue")),
        (mnl, "optimal_revenue_table", _count("mnl.optimal_revenue_table")),
    ]


def traced_call(fn, *args) -> tuple[object, Tracer]:
    """Call ``fn(*args)`` with the layer wrappers installed; return the
    result and the tracer holding its counts."""
    tracer = Tracer()
    tracer.install(targets())
    try:
        return fn(*args), tracer
    finally:
        tracer.uninstall()


def install(tracer: Tracer) -> None:
    from twosided import suites

    tracer.install(targets())
    tracer.install_dict(
        suites.SUITES, lambda tr, key, fn: tr.spanned(f"suites.{key}", fn, _suite)
    )


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Aggregate spans and counts into the per-layer metric names."""
    out: dict[str, float] = {}
    for name in (
        "ellipsoid.run", "cost_assortment.oracle_init", "cost_assortment.oracle_call",
        "lp.build_aux", "lp.exact_small", "lp.lp1_exact_small", "lp.check", "simplex.solve",
        "rounding.mnl_distribution", "rounding.sample_choice", "policies.dp_atar",
        "policies.dp_ftar", "policies.star", "policies.greedy_exact",
        "policies.rand_static_exact", "policies.sample", "evaluate.monte_carlo",
        "instance.load",
    ):
        out[name + ".calls"] = tr.calls[name]
        out[name + ".s"] = tr.total_s[name]
    for name in ("ellipsoid.run", "lp.exact_small"):
        out[name + ".self_s"] = tr.self_s[name]
    for name in (
        "evaluate.correlation_gap_check", "evaluate.cost_sharing_check",
        "evaluate.submodular_order_check", "evaluate.interleaved_partition_check",
        "suites.appendix-a", "suites.gap", "suites.sharing", "suites.order", "suites.chain",
    ):
        out[name + ".s"] = tr.total_s[name]
    out["mnl.optimal_revenue.calls"] = tr.calls["mnl.optimal_revenue"]
    out["mnl.optimal_revenue_table.calls"] = tr.calls["mnl.optimal_revenue_table"]

    c = tr.counts
    for key in (
        "ellipsoid.cuts", "ellipsoid.cuts.objective", "ellipsoid.cuts.weight_link",
        "ellipsoid.cuts.alpha_nonnegative", "ellipsoid.cuts.assortment_cost",
        "ellipsoid.stop.float64_floor", "ellipsoid.stop.t_max", "ellipsoid.stop.early_exit",
        "ellipsoid.incumbents", "lp.aux_columns", "simplex.pivots", "simplex.bytes_computed",
        "policies.dp_atar.states", "suites.cases",
    ):
        out[key] = c[key]
    out["simplex.tableau_cells_max"] = tr.maxima["simplex.tableau_cells_max"]
    out["ellipsoid.us_per_cut"] = _ratio(1e6 * tr.total_s["ellipsoid.run"], c["ellipsoid.cuts"])
    out["simplex.us_per_pivot"] = _ratio(1e6 * tr.total_s["simplex.solve"], c["simplex.pivots"])
    out["cost_assortment.cut_yield"] = _ratio(
        c["ellipsoid.cuts.assortment_cost"], tr.calls["cost_assortment.oracle_call"]
    )
    out["lp.support_frac"] = _ratio(c["lp.recorded_sets"], c["lp.possible_sets"])
    out["evaluate.trials_per_s"] = _ratio(c["evaluate.trials"], tr.total_s["evaluate.monte_carlo"])
    out["trace.coverage"] = tr.coverage()
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
