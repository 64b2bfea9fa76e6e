"""Executable policies and exact desk-scale oracles.

Oracles: a dynamic program over per-customer statuses for the
adaptive-order problem, swept backwards one array batch per number of
unprocessed customers; the same program with a forced processing order;
and exhaustive search over static assortment profiles. All three are exact
and exist to verify the approximation guarantees of the two policies:

* randomized static -- sample each customer's assortment from the nested
  distribution induced by LP marginals, then let every supplier keep the
  best subset of its backlog;
* same-order greedy -- process customers along the common revenue order,
  offering the assortment that maximizes marginal revenue weighted by
  choice probabilities.

Both sampled policies run one realized-run loop, which differs only in the
offer rule: each customer in turn is shown an assortment and makes an MNL
choice, the choice grows that supplier's backlog, and at the end every
supplier keeps the best subset of its backlog. A policy builds each choice
CDF, offer and supplier optimum once and reuses it across sampled runs;
every draw equals the ``Generator.choice`` draw it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import mnl
from .mnl import SizeLimitError
from .instance import Instance, SameOrderCertificate, as_permutation
from .lp import LpSolution
from .rounding import choice_table, draw, mnl_distribution

UNPROCESSED = -2
OUTSIDE = -1

DP_WORK_LIMIT = 4_000_000
STAR_WORK_LIMIT = 4_000_000
GREEDY_TREE_LIMIT = 200_000
EXACT_EVAL_MAX_N = 15


class PolicyPreconditionError(RuntimeError):
    """A policy prerequisite (e.g. a same-order certificate) is missing."""


@dataclass
class SupplierOutcome:
    backlog: tuple[int, ...]
    offered: tuple[int, ...]
    value: float


@dataclass
class PolicyOutcome:
    expected_revenue: float
    per_supplier: list[SupplierOutcome]
    trace: list[dict] | None = None


class _RunTables:
    """What one policy reuses across its sampled runs: the MNL choice CDF of
    each (customer, offered set) and the optimal revenue of each
    (supplier, backlog)."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self._choices: dict[tuple[int, tuple[int, ...]], tuple[list[int | None], np.ndarray]] = {}
        self._revenues: dict[tuple[int, tuple[int, ...]], tuple[float, tuple[int, ...]]] = {}

    def choose(self, i: int, offered: tuple[int, ...], rng: np.random.Generator) -> int | None:
        """Customer i's MNL choice from ``offered``, drawn as
        :func:`~twosided.rounding.sample_choice` draws it."""
        table = self._choices.get((i, offered))
        if table is None:
            table = self._choices[(i, offered)] = choice_table(self.inst.u[i], offered)
        options, cdf = table
        return options[draw(cdf, rng)]

    def optimal_revenue(self, j: int, backlog: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
        best = self._revenues.get((j, backlog))
        if best is None:
            best = self._revenues[(j, backlog)] = mnl.optimal_revenue(self.inst, j, backlog)
        return best

    def run(self, order, offer, rng: np.random.Generator) -> PolicyOutcome:
        """One realized run: customers in ``order`` are each shown
        ``offer(i, backlogs, rng)`` and choose; every supplier then keeps
        the best subset of its backlog."""
        backlogs: list[tuple[int, ...]] = [()] * self.inst.m
        trace: list[dict] = []
        for i in order:
            offered = offer(i, backlogs, rng)
            pick = self.choose(i, offered, rng)
            trace.append({"customer": i, "offered": list(offered), "choice": pick})
            if pick is not None:
                backlogs[pick] = tuple(sorted(backlogs[pick] + (i,)))
        per: list[SupplierOutcome] = []
        total = 0.0
        for j, backlog in enumerate(backlogs):
            value, offered = self.optimal_revenue(j, backlog)
            per.append(SupplierOutcome(backlog=backlog, offered=offered, value=value))
            total += value
        return PolicyOutcome(expected_revenue=total, per_supplier=per, trace=trace)


def _require_dp_size(inst: Instance) -> None:
    work = (inst.m + 2) ** inst.n * 2**inst.m * max(inst.n, 1)
    if work > DP_WORK_LIMIT:
        raise SizeLimitError(
            f"adaptive dynamic program needs ~{work} state-action steps for "
            f"{inst.n}x{inst.m}; limit is {DP_WORK_LIMIT}"
        )


class _DpLayer(NamedTuple):
    """The states of one DP layer and their (state, candidate) pairs, state
    by state with candidates ascending: each pair's customer and successor
    codes, outside option first, then supplier j at column j+1."""

    states: np.ndarray  # (N,) codes
    customers: np.ndarray  # (P,) candidate customer of each pair
    successors: np.ndarray  # (P, m+1) codes


class _DpStructure(NamedTuple):
    """Instance-free shape of a DP over per-customer statuses.

    A status is an integer in base m+2 whose digit i is customer i's status
    plus 2: 0 unprocessed, 1 outside, j+2 chose supplier j. ``layers[k-1]``
    holds the states with k unprocessed customers; ``keys`` are the status
    tuples of those states, layer by layer, for the policy table."""

    size: int
    final_states: np.ndarray  # (N0,) codes of the fully processed states
    final_masks: np.ndarray  # (m, N0) each supplier's backlog bitmask
    layers: tuple[_DpLayer, ...]
    keys: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=8)
def _dp_structure(n: int, m: int, order: tuple[int, ...] | None) -> _DpStructure:
    """The states, candidates and successors of the DP for n customers and
    m suppliers: every status without ``order``, with it only those whose
    processed customers are a prefix of ``order``. Cached like
    :func:`mnl.subset_masks`; nothing in it depends on the instance."""
    base = m + 2
    size = base**n
    powers = base ** np.arange(n, dtype=np.int32)
    codes = np.arange(size, dtype=np.int32)
    digits = (codes[:, None] // powers % base).astype(np.int8)  # (size, n)
    unprocessed = digits == 0
    if order is None:
        left = unprocessed.sum(axis=1)
        members = [left == k for k in range(n + 1)]
    else:
        members = [(unprocessed == np.isin(np.arange(n), order[n - k:])).all(axis=1) for k in range(n + 1)]
    final_states = codes[members[0]]
    final_digits = digits[members[0]]
    final_masks = np.stack(
        [((final_digits == j + 2) << np.arange(n, dtype=np.int32)).sum(axis=1, dtype=np.int32) for j in range(m)]
    )
    outcomes = np.arange(1, m + 2, dtype=np.int32)  # outside, then supplier j as j+2
    layers = []
    keys: list[tuple[int, ...]] = []
    for k in range(1, n + 1):
        states = codes[members[k]]
        if order is None:
            pair_states, customers = np.nonzero(unprocessed[states])
        else:
            pair_states, customers = np.arange(states.size), np.full(states.size, order[n - k])
        successors = states[pair_states, None] + outcomes * powers[customers][:, None]
        layers.append(_DpLayer(states, customers.astype(np.int8), successors))
        keys += zip(*(digits[states] - 2).T.tolist())  # no per-row lists
    for array in (final_states, final_masks, *(a for layer in layers for a in layer)):
        array.setflags(write=False)  # shared by every later call
    return _DpStructure(size, final_states, final_masks, tuple(layers), tuple(keys))


_START_SUMS = np.array([[0.0], [1.0]])


def _layer_step(values: np.ndarray, layer: _DpLayer, u: np.ndarray):
    """Best value and action of every state in ``layer`` from its
    successors' ``values``. Each (state, candidate) pair takes the prefix
    rule of :func:`mnl.best_prefix`, batched, with the same floating-point
    operations: a stable sort of the gains, running sums from 0 and 1, the
    first best prefix (index 0 is the empty offer), then each state keeps
    its first best candidate. Returns the state values and, per state, the
    chosen customer, its supplier ranking and its prefix length."""
    succ = values[layer.successors]  # (P, m+1)
    succ_out = succ[:, 0]
    gains = succ[:, 1:] - succ_out[:, None]
    rank = np.argsort(-gains, axis=1, kind="stable")
    pairs = np.arange(rank.shape[0])[:, None]
    weights = u[layer.customers[:, None], rank]
    sums = np.empty((2,) + succ.shape)  # running sums of rho*u and of u
    sums[:, :, 0] = _START_SUMS
    sums[0, :, 1:] = gains[pairs, rank] * weights
    sums[1, :, 1:] = weights
    np.cumsum(sums, axis=2, out=sums)
    ratio = np.divide(sums[0], sums[1], out=sums[0])
    length = ratio.argmax(axis=1)
    v = (succ_out + ratio[pairs[:, 0], length]).reshape(layer.states.size, -1)
    chosen = np.arange(v.shape[0]) * v.shape[1] + v.argmax(axis=1)
    return v.max(axis=1), (layer.customers[chosen], rank[chosen], length[chosen])


def _dp(inst: Instance, order: tuple[int, ...] | None):
    """Backward induction over per-customer statuses (unprocessed / outside
    / chosen supplier), one array batch per number of unprocessed
    customers (see :func:`_layer_step`). With ``order`` the t-th step
    processes ``order[t]``; without it every unprocessed customer is a
    candidate and the first best one (in index order) is kept. The
    boundary value sums each supplier's optimal revenue over its backlog in
    supplier order. Values and actions are those of the memoized recursion
    this replaced, bit for bit.
    Returns (value, {status: (customer, assortment)}).
    """
    _require_dp_size(inst)
    n, m = inst.n, inst.m
    shape = _dp_structure(n, m, order)
    values = np.empty(shape.size)
    total = np.zeros(shape.final_states.size)
    for j in range(m):
        total += mnl.optimal_revenue_table(inst, j)[shape.final_masks[j]]
    values[shape.final_states] = total
    picked = []
    for layer in shape.layers:
        values[layer.states], action = _layer_step(values, layer, inst.u)
        picked.append(action)
    customers, ranks, lengths = (np.concatenate(parts) for parts in zip(*picked))
    offers = np.where(np.arange(m) < lengths[:, None], 1 << ranks, 0).sum(axis=1)
    ids = (customers.astype(np.int64) << m | offers).tolist()
    # one (customer, offer) tuple per distinct action, shared by its states
    actions = {a: (a >> m, mnl.subset_of(a & (2**m - 1), m)) for a in set(ids)}
    policy = dict(zip(shape.keys, map(actions.__getitem__, ids)))
    return float(values[0]), policy


def exact_dp_atar(inst: Instance):
    """Optimal adaptive value and policy table.

    At each state the program picks the remaining customer and supplier
    assortment of highest value; see :func:`_dp`.
    Returns (optimal value, {status: (customer, assortment)}).
    """
    return _dp(inst, None)


def exact_dp_ftar(inst: Instance, order) -> float:
    """Optimal value when customers must be processed in ``order`` but
    assortments stay adaptive. Never exceeds the adaptive-order value."""
    return _dp(inst, as_permutation(order, inst.n))[0]


def exact_star(inst: Instance) -> float:
    """Optimal value over deterministic static assortment profiles, all
    customers processed simultaneously.

    Under a static profile customers choose independently, so supplier j's
    backlog is product-Bernoulli with inclusion probabilities
    phi_i(j, S_i); by linearity of expectation a profile's value is the sum
    over suppliers of that distribution integrated against the
    optimal-revenue table. All profiles are evaluated at once.
    """
    n, m = inst.n, inst.m
    work = (2**m) ** n * (m + 1) ** n
    if work > STAR_WORK_LIMIT:
        raise SizeLimitError(
            f"static exhaustive search needs ~{work} outcome evaluations for "
            f"{n}x{m}; limit is {STAR_WORK_LIMIT}"
        )
    offers = mnl.subset_masks(m)  # row a is the offer with bitmask a
    # phi[i, a, j]: probability that customer i picks supplier j from offer a
    phi = inst.u[:, None, :] * offers / (1.0 + inst.u @ offers.T)[:, :, None]
    # column k is one profile: customer i is offered mask profiles[i, k]
    profiles = np.indices((2**m,) * n).reshape(n, -1)
    customers = np.arange(n)[:, None]
    values = sum(
        mnl.expected_optimal_revenue_independent(inst, j, phi[customers, profiles, j]) for j in range(m)
    )
    return float(values.max())


class RandomizedStaticPolicy:
    """Static policy realized from a feasible marginal-LP point: every
    customer is shown an assortment drawn from the nested distribution with
    their x marginals, independently of all other customers."""

    def __init__(self, inst: Instance, solution: LpSolution):
        self.inst = inst
        self.x = np.clip(np.asarray(solution.x, dtype=float), 0.0, 1.0)
        self.distributions = [
            mnl_distribution(solution.x[i], inst.u[i]) for i in range(inst.n)
        ]
        self._tables = _RunTables(inst)

    def sample(self, seed) -> PolicyOutcome:
        """One realized run with assortments drawn from the nested
        distributions."""
        return self._tables.run(
            range(self.inst.n),
            lambda i, backlogs, rng: self.distributions[i].sample(rng),
            np.random.default_rng(seed),
        )

    def exact_expected_revenue(self) -> float:
        """True expectation over all backlog realizations: per supplier the
        backlog is product-Bernoulli with the x marginals (n <= 15); see
        :func:`mnl.expected_optimal_revenue_independent`."""
        n = self.inst.n
        if n > EXACT_EVAL_MAX_N:
            raise SizeLimitError(
                f"exact evaluation enumerates 2^{n} backlogs per supplier; limit n <= {EXACT_EVAL_MAX_N}"
            )
        total = 0.0
        for j in range(self.inst.m):
            total += float(mnl.expected_optimal_revenue_independent(self.inst, j, self.x[:, j]))
        return total


def best_marginal_assortment(rho, u_row) -> tuple[tuple[int, ...], float]:
    """Maximize sum_{j in S} rho[j] * phi(j, S) over supplier assortments S
    for nonnegative values rho: the prefix rule of :func:`mnl.best_prefix`.
    Returns (assortment, value)."""
    value, offer = mnl.best_prefix(rho, u_row, range(len(rho)))
    return offer, value


@dataclass
class GreedyStep:
    customer: int
    offered: tuple[int, ...]
    choice: int | None
    backlogs_before: tuple[tuple[int, ...], ...]


@dataclass
class GreedyPath:
    probability: float
    steps: list[GreedyStep]
    backlogs: tuple[tuple[int, ...], ...]
    value: float


class SameOrderGreedyPolicy:
    """Deterministic adaptive greedy for instances whose suppliers share a
    common descending revenue order over customers.

    Refuses to run without a certificate: the 1/2 guarantee needs the
    common order. Passing ``order`` explicitly runs it anyway as a labeled
    heuristic.
    """

    def __init__(
        self,
        inst: Instance,
        certificate: SameOrderCertificate | None = None,
        order: tuple[int, ...] | None = None,
    ):
        if certificate is not None and certificate.sigma is not None:
            self.order = certificate.sigma
        elif order is not None:
            self.order = as_permutation(order, inst.n)
        else:
            raise PolicyPreconditionError(
                "no same-order certificate; pass an explicit order to run as a heuristic"
            )
        self.inst = inst
        self._tables = _RunTables(inst)
        self._offers: dict[tuple[int, tuple[tuple[int, ...], ...]], tuple[tuple[int, ...], float]] = {}

    def _g(self, j: int, members: tuple[int, ...]) -> float:
        return self._tables.optimal_revenue(j, members)[0]

    def _marginals(self, i: int, backlogs: list[tuple[int, ...]]) -> list[float]:
        out = []
        for j in range(self.inst.m):
            grown = tuple(sorted(backlogs[j] + (i,)))
            out.append(self._g(j, grown) - self._g(j, backlogs[j]))
        return out

    def offered_assortment(self, i: int, backlogs: list[tuple[int, ...]]):
        key = (i, tuple(backlogs))
        offer = self._offers.get(key)
        if offer is None:
            offer = self._offers[key] = best_marginal_assortment(self._marginals(i, backlogs), self.inst.u[i])
        return offer

    def sample(self, seed) -> PolicyOutcome:
        """One realized run with the marginal-value offer along the order."""
        return self._tables.run(
            self.order,
            lambda i, backlogs, rng: self.offered_assortment(i, backlogs)[0],
            np.random.default_rng(seed),
        )

    def exact_expected_revenue(self, collect_paths: bool = False):
        """True expectation by full outcome-tree enumeration; optionally
        also returns every path with its steps and probability."""
        n, m = self.inst.n, self.inst.m
        if (m + 1) ** n > GREEDY_TREE_LIMIT:
            raise SizeLimitError(
                f"outcome tree has up to {(m + 1) ** n} paths for {n}x{m}; "
                f"limit is {GREEDY_TREE_LIMIT}"
            )
        backlogs: list[tuple[int, ...]] = [() for _ in range(m)]
        steps: list[GreedyStep] = []
        paths: list[GreedyPath] = []
        total = 0.0

        def walk(t: int, prob: float) -> None:
            nonlocal total
            if t == n:
                value = sum(self._g(j, backlogs[j]) for j in range(m))
                total += prob * value
                if collect_paths:
                    paths.append(
                        GreedyPath(
                            probability=prob,
                            steps=list(steps),
                            backlogs=tuple(backlogs),
                            value=value,
                        )
                    )
                return
            i = self.order[t]
            offered, _ = self.offered_assortment(i, backlogs)
            u_i = self.inst.u[i]
            den = 1.0 + sum(u_i[j] for j in offered)
            before = tuple(backlogs)
            steps.append(GreedyStep(i, offered, None, before))
            walk(t + 1, prob / den)
            steps.pop()
            for j in offered:
                old = backlogs[j]
                backlogs[j] = tuple(sorted(old + (i,)))
                steps.append(GreedyStep(i, offered, j, before))
                walk(t + 1, prob * u_i[j] / den)
                steps.pop()
                backlogs[j] = old

        walk(0, 1.0)
        if collect_paths:
            return total, paths
        return total
