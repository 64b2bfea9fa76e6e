"""Named verification suites shared by the CLI and the acceptance tests.

Each suite returns a list of :class:`~twosided.evaluate.PropertyReport`;
an empty violation list on every report means the suite passed. Negative
controls (facts that are supposed to fail, like plain submodularity under
heterogeneous revenues) are inverted so that "control did not fire" is
itself reported as a violation.
"""

from __future__ import annotations

import math

import numpy as np

from . import mnl
from .evaluate import (
    CORRELATED_MAX_SUPPORT,
    PropertyReport,
    check_supports,
    correlation_gap_ratios,
    cost_share,
    cost_sharing_check,
    interleaved_partition_check,
    revenue_order,
    submodular_order_check,
    submodularity_check,
)
from .instance import Instance, detect_same_order, generate
from .lp import lp1_exact_values, lp2_exact_values
from .policies import exact_dp_values, exact_star_values

GAP_GENERAL_BOUND = 2.0
GAP_UNIFORM_BOUND = math.e / (math.e - 1.0)
CHAIN_SLACK = 1e-7
TOL = 1e-9
# sizes of the suites: correlated and exactness draws, sampled checks per suite, chain instances
GAP_DRAWS = 1000
EXACT_DRAWS = 50
SHARING_TRIALS = 1000
ORDER_TRIALS = 1000
CHAIN_COUNT = 200
# customers of each gap-suite instance; a draw keeps the first n of its supplier's row
GAP_CUSTOMERS = 6
# _sub_seed keys of the gap suite: each kind's instance at its key, its other draws at key + 1
GAP_KEYS = {"uniform-random": 1, "supplier-uniform": 3, "exactness": 5}
# chain instances per batched oracle or LP call: bounds the batch's arrays (about 0.6 MiB at 3x2)
CHAIN_GROUP = 50


def counterexample_instance() -> Instance:
    """Three customers, one supplier: the fixture whose optimal-revenue
    function is monotone but not submodular."""
    return Instance(
        n=3,
        m=1,
        u=np.ones((3, 1)),
        w=np.array([[1.0, 1.0, 3.0]]),
        r=np.array([[4.0], [3.0], [2.0]]),
    )


def _sub_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % (2**31 - 1)


def _submodularity_control(name: str) -> PropertyReport:
    """Negative control: plain submodularity must fail on the counterexample
    with its documented witness A = {2}, B = {1, 2}, i = 0."""
    control = PropertyReport(name=name)
    control.cases = 1
    plain = submodularity_check(counterexample_instance(), 0)
    witnessed = any(
        v["A"] == (2,) and v["B"] == (1, 2) and v["i"] == 0 for v in plain.violations
    )
    if plain.passed or not witnessed:
        control.record(kind="missing-documented-witness", found=len(plain.violations))
    return control


def _wrong_order_control(name: str) -> PropertyReport:
    """Negative control: the submodular-order check must fail on the
    counterexample along the non-revenue order (1, 2, 0)."""
    wrong = PropertyReport(name=name)
    wrong.cases = 1
    flipped = submodular_order_check(counterexample_instance(), 0, (1, 2, 0), exhaustive=True)
    if flipped.passed:
        wrong.record(kind="wrong-order-not-detected")
    return wrong


def suite_appendix_a(seed: int = 0) -> list[PropertyReport]:
    del seed  # fully deterministic
    inst = counterexample_instance()
    report = PropertyReport(name="counterexample-values")

    expected = {
        (2,): 1.5,
        (0, 2): 2.0,
        (1, 2): 1.8,
        (0, 1, 2): 7.0 / 3.0,
    }
    for subset, want in expected.items():
        report.cases += 1
        got, _ = mnl.optimal_revenue(inst, 0, subset)
        if abs(got - want) > TOL:
            report.record(kind="value", subset=subset, got=got, want=want)
        brute, _ = mnl.optimal_revenue_bruteforce(inst, 0, subset)
        if abs(brute - want) > TOL:
            report.record(kind="bruteforce-value", subset=subset, got=brute, want=want)

    report.cases += 1
    gain_small = mnl.g_marginal(inst, 0, 0, (2,))
    gain_large = mnl.g_marginal(inst, 0, 0, (1, 2))
    if abs(gain_small - 0.5) > TOL:
        report.record(kind="marginal", base=(2,), got=gain_small, want=0.5)
    if abs(gain_large - 8.0 / 15.0) > TOL:
        report.record(kind="marginal", base=(1, 2), got=gain_large, want=8.0 / 15.0)
    if not gain_small < gain_large:
        report.record(kind="non-submodularity-witness", gain_small=gain_small, gain_large=gain_large)

    report.cases += 1
    shares = [cost_share(inst, 0, i, (0, 1, 2)) for i in range(3)]
    for i, want in enumerate([2.0, 1.0 / 3.0, 0.0]):
        if abs(shares[i] - want) > TOL:
            report.record(kind="cost-share", i=i, got=shares[i], want=want)
    if abs(sum(shares) - 7.0 / 3.0) > TOL:
        report.record(kind="cost-share-total", got=sum(shares), want=7.0 / 3.0)

    ordered = submodular_order_check(inst, 0, revenue_order(inst, 0), exhaustive=True)
    ordered.name = "submodular-order-correct-order"

    return [
        report,
        _submodularity_control("submodularity-negative-control"),
        ordered,
        _wrong_order_control("submodular-order-wrong-order-control"),
    ]


def _correlated_draws(seed: int, kind: str, count: int):
    """``count`` correlated gap draws of ``kind``, as arrays: draw t is
    supplier t of one ``generate(kind, GAP_CUSTOMERS, count, ...)`` instance,
    cut to its first n[t] customers, with the support of
    :meth:`~twosided.evaluate.SubsetDistribution.random_correlated` at
    n[t]: k[t] masks uniform below 2^n[t] with Dirichlet(1) weights (Exp(1)
    draws normalized per row), in draw order and padded to
    ``CORRELATED_MAX_SUPPORT`` with (0, +0.0) pairs. One generator draws
    n, k, the masks and the weights, each as one array.

    Returns ``(inst, n, k, masks, probs)``."""
    key = GAP_KEYS[kind]
    inst = generate(kind, GAP_CUSTOMERS, count, _sub_seed(seed, key))
    rng = np.random.default_rng(_sub_seed(seed, key + 1))
    n = rng.integers(3, GAP_CUSTOMERS + 1, size=count)
    k = rng.integers(1, CORRELATED_MAX_SUPPORT + 1, size=count)
    live = np.arange(CORRELATED_MAX_SUPPORT) < k[:, None]
    masks = rng.integers(0, 1 << n[:, None], size=live.shape) * live
    weights = rng.standard_exponential(live.shape) * live
    return inst, n, k, masks, weights / weights.sum(axis=1, keepdims=True)


def _exactness_draws(seed: int):
    """The exactness draws, as arrays: draw t is supplier t of one
    ``generate("uniform-random", GAP_CUSTOMERS, EXACT_DRAWS, ...)``
    instance, cut to its first n[t] in 2..``GAP_CUSTOMERS`` customers, with
    a point mass on a mask uniform below 2^n[t] and the product
    distribution of U[0, 1] marginals, whose 2^n[t] subsets are padded to
    2^``GAP_CUSTOMERS`` with (0, +0.0) pairs (a marginal of 0 past n[t]
    gives the padding +0.0 and leaves the live probabilities' bits as
    they are).

    Returns ``(inst, n, points, products)``, each of the last two a
    ``(k, masks, probs)`` triple."""
    key = GAP_KEYS["exactness"]
    inst = generate("uniform-random", GAP_CUSTOMERS, EXACT_DRAWS, _sub_seed(seed, key))
    rng = np.random.default_rng(_sub_seed(seed, key + 1))
    n = rng.integers(2, GAP_CUSTOMERS + 1, size=EXACT_DRAWS)
    points = rng.integers(0, 1 << n)[:, None]
    marginals = rng.uniform(0.0, 1.0, size=(EXACT_DRAWS, GAP_CUSTOMERS))
    marginals *= np.arange(GAP_CUSTOMERS) < n[:, None]
    subsets = np.arange(1 << GAP_CUSTOMERS)
    return (
        inst,
        n,
        (np.ones(EXACT_DRAWS, dtype=int), points, np.ones((EXACT_DRAWS, 1))),
        (1 << n, subsets * (subsets < 1 << n[:, None]), mnl.independent_subset_probs(marginals.T).T),
    )


def _gap_ratios(
    inst: Instance, n: np.ndarray, k: np.ndarray, masks: np.ndarray, probs: np.ndarray
) -> list[float | None]:
    """:func:`~twosided.evaluate.correlation_gap_check` of every draw, in
    draw order: draw t is supplier t of ``inst`` cut to its first n[t]
    customers, with the support of row t of ``masks`` and ``probs``, whose
    first k[t] pairs are live and the rest (0, +0.0) padding. The supports
    are refused as :class:`~twosided.evaluate.SubsetDistribution` refuses
    them, in one array check. The g rows of each size are built in one
    pass with the row builders the instance tables come from, bit for bit
    the table rows of the cut instance, and checked in one
    :func:`~twosided.evaluate.correlation_gap_ratios` call over the
    group's widest live support."""
    check_supports(masks, probs)
    values = inst.r.T * inst.w
    out: list[float | None] = [None] * len(n)
    for size in range(1, GAP_CUSTOMERS + 1):  # a fixed range: np.unique would page in numpy's sort
        group = np.flatnonzero(n == size)
        if not group.size:
            continue
        width = int(k[group].max())
        gtabs = mnl.expected_revenue_rows(values[group, :size], inst.w[group, :size])
        ratios = correlation_gap_ratios(mnl.max_over_subsets(gtabs), masks[group, :width], probs[group, :width])
        del gtabs  # freed before the next size's rows are built
        for t, ratio in zip(group.tolist(), ratios):
            out[t] = ratio
    return out


def suite_gap(seed: int) -> list[PropertyReport]:
    """Correlation-gap bound on ``GAP_DRAWS`` random correlated draws, and
    ratio 1 on ``EXACT_DRAWS`` point masses and as many product
    distributions. Each kind's draws come as arrays
    (:func:`_correlated_draws`, :func:`_exactness_draws`): one generated
    instance whose supplier rows, cut to n customers, have the law of
    ``generate`` at n (their entries are iid), and one generator for every
    other value. A correlated draw has the law of
    :meth:`~twosided.evaluate.SubsetDistribution.random_correlated`:
    Dirichlet(1) is normalized Exp(1), and a repeated mask splits its
    probability without changing the distribution. The draws are checked
    per size in one array pass each (:func:`_gap_ratios`), with the
    answers of :func:`~twosided.evaluate.correlation_gap_check` on each
    draw."""
    report = PropertyReport(name="correlation-gap")
    exact = PropertyReport(name="correlation-gap-exactness")
    half = GAP_DRAWS // 2
    specs = [
        ("uniform-random", GAP_GENERAL_BOUND, half),
        ("supplier-uniform", GAP_UNIFORM_BOUND, GAP_DRAWS - half),
    ]
    max_seen = {"uniform-random": 0.0, "supplier-uniform": 0.0}
    for kind, bound, count in specs:
        for ratio in _gap_ratios(*_correlated_draws(seed, kind, count)):
            report.cases += 1
            if ratio is None:
                # 0/0: the draw put all its mass on the empty set, so both
                # expectations vanish; counted but consistent with the bound.
                # A positive numerator over 0 reads inf and breaks the bound
                report.notes["undefined-draws"] = report.notes.get("undefined-draws", 0) + 1
                continue
            max_seen[kind] = max(max_seen[kind], ratio)
            if ratio > bound + TOL:
                report.record(kind=f"gap-bound-{kind}", ratio=ratio, bound=bound)
    report.notes["max-ratio"] = max_seen

    inst, n, points, products = _exactness_draws(seed)
    for point, product in zip(_gap_ratios(inst, n, *points), _gap_ratios(inst, n, *products)):
        exact.cases += 1
        if point is not None and abs(point - 1.0) > 1e-12:
            exact.record(kind="point-mass", ratio=point)
        exact.cases += 1
        if product is None or abs(product - 1.0) > 1e-12:
            exact.record(kind="product", ratio=product)
    return [report, exact]


def suite_sharing(seed: int) -> list[PropertyReport]:
    reports: list[PropertyReport] = []
    per_instance = max(1, SHARING_TRIALS // 5)
    for k in range(5):
        inst = generate("uniform-random", 8, 2, _sub_seed(seed, 31 + k))
        j = k % inst.m
        rep = cost_sharing_check(inst, j, per_instance, _sub_seed(seed, 57 + k))
        rep.name = f"cost-sharing[{k}]"
        reports.append(rep)

    reports.append(_submodularity_control("sharing-negative-control"))
    return reports


def suite_order(seed: int) -> list[PropertyReport]:
    reports: list[PropertyReport] = []
    kinds = ("same-order-additive", "same-order-multiplicative", "supplier-uniform")
    per_instance = max(1, ORDER_TRIALS // 6)
    for k in range(6):
        kind = kinds[k % 3]
        inst = generate(kind, 6, 2, _sub_seed(seed, 101 + k))
        cert = detect_same_order(inst)
        rep = PropertyReport(name=f"order[{k}]-{kind}")
        if not cert:
            rep.record(kind="certificate-missing", seed=_sub_seed(seed, 101 + k))
            reports.append(rep)
            continue
        j = k % inst.m
        sub = submodular_order_check(inst, j, cert.sigma, trials=per_instance, seed=_sub_seed(seed, 211 + k))
        sub.name = rep.name + "-marginals"
        inter = interleaved_partition_check(inst, j, cert.sigma, trials=per_instance, seed=_sub_seed(seed, 307 + k))
        inter.name = rep.name + "-interleaved"
        reports.extend([sub, inter])

    reports.append(_wrong_order_control("order-negative-control"))
    return reports


def suite_chain(seed: int) -> list[PropertyReport]:
    """Value chain on random 3x2 instances: static <= fixed-order <=
    adaptive <= assortment-distribution LP <= marginal LP. The three exact
    oracles and the two LPs run batched, one call each per group of
    ``CHAIN_GROUP`` instances (:func:`~twosided.policies.exact_star_values`,
    :func:`~twosided.policies.exact_dp_values`,
    :func:`~twosided.lp.lp1_exact_values`,
    :func:`~twosided.lp.lp2_exact_values`), with bit for bit the values of
    one call per instance."""
    report = PropertyReport(name="relaxation-chain")
    for first in range(0, CHAIN_COUNT, CHAIN_GROUP):
        seeds = [_sub_seed(seed, 401 + k) for k in range(first, min(first + CHAIN_GROUP, CHAIN_COUNT))]
        group = [generate("uniform-random", 3, 2, s) for s in seeds]
        oracles = exact_star_values(group), exact_dp_values(group, range(3)), exact_dp_values(group)
        lps = lp1_exact_values(group), lp2_exact_values(group)
        for case_seed, star, ftar, atar, lp1, lp2 in zip(seeds, *(values.tolist() for values in oracles), *lps):
            report.cases += 1
            chain = [
                ("static", star), ("fixed-order", ftar), ("adaptive", atar), ("lp-sets", lp1), ("lp-marginal", lp2)
            ]
            for (lo_name, lo), (hi_name, hi) in zip(chain, chain[1:]):
                if lo > hi + CHAIN_SLACK:
                    report.record(
                        kind="chain-violation",
                        seed=case_seed,
                        lower=lo_name,
                        upper=hi_name,
                        lo=lo,
                        hi=hi,
                    )
    return [report]


SUITES = {
    "appendix-a": suite_appendix_a,
    "gap": suite_gap,
    "sharing": suite_sharing,
    "order": suite_order,
    "chain": suite_chain,
}


def run_suites(name: str, seed: int) -> list[PropertyReport]:
    if name == "all":
        out: list[PropertyReport] = []
        for suite in SUITES.values():
            out.extend(suite(seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)
