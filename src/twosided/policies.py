"""Executable policies and exact desk-scale oracles.

Oracles: a dynamic program over per-customer statuses for the
adaptive-order problem, swept backwards one array batch per number of
unprocessed customers; the same program with a forced processing order;
and exhaustive search over static assortment profiles. All three are exact
and exist to verify the approximation guarantees of the two policies.
Each runs batched over a group of instances of one size, with a leading
instance axis on every array (:func:`exact_dp_values`,
:func:`exact_star_values`); the one-instance entry points are the batch of
one, and every instance's value is bit for bit the same in any batch.
The two policies are:

* randomized static -- sample each customer's assortment from the nested
  distribution induced by LP marginals, then let every supplier keep the
  best subset of its backlog;
* same-order greedy -- process customers along the common revenue order,
  offering the assortment that maximizes marginal revenue weighted by
  choice probabilities.

Both sampled policies run one realized-run loop, which differs only in the
offer rule: each customer in turn is shown an assortment and makes an MNL
choice, the choice grows that supplier's backlog, and at the end every
supplier keeps the best subset of its backlog. The loop runs a batch of
runs at once, one row of uniforms per run: the randomized static policy
takes two per customer (offer, then choice), the greedy one (choice). Runs
that share an offered set draw from its CDF together, and the greedy looks
up one offer per group of runs with the same backlogs. A policy builds
each choice CDF, offer and supplier optimum once and reuses it across
runs; every draw equals the ``Generator.choice`` draw that consumes the
same uniform. ``sample(seed)`` is the one-run batch on the uniforms of
``default_rng(seed)``, and :func:`~twosided.evaluate.monte_carlo` feeds the
loop whole batches of one generator's uniforms.

The adaptive program returns its policy as a :class:`PolicyTable`, a
read-only mapping over the arrays the sweep computes.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import mnl
from .mnl import SizeLimitError
from .instance import Instance, SameOrderCertificate, as_permutation, batch_size
from .lp import LpSolution
from .rounding import choice_table, inverse_cdf, mnl_distribution

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


class _History(NamedTuple):
    """The choices of a batch of runs so far (``OUTSIDE`` where none is made
    yet), and the runs grouped by equal choices so far: the first run of
    each group and the group of each run."""

    choice: np.ndarray  # (T, n)
    first: np.ndarray  # (G,)
    group: np.ndarray  # (T,)


def _backlog(choice: np.ndarray, j: int) -> tuple[int, ...]:
    """The customers of one run that chose supplier j."""
    return tuple(np.flatnonzero(choice == j).tolist())


def _require_dp_size(inst: Instance) -> None:
    n, m = inst.n, inst.m
    # the largest arrays hold one element per state and customer or per state and supplier
    work, bits = (m + 2) ** n * max(n, m, 1), m + (n - 1).bit_length()  # PolicyTable packs customer << m | offer
    if work > DP_WORK_LIMIT or bits > 63:
        raise SizeLimitError(
            f"adaptive dynamic program needs ~{work} array elements and {bits}-bit actions for {n}x{m}; "
            f"limits are {DP_WORK_LIMIT} and 63"
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
    holds the states with k unprocessed customers."""

    size: int
    final_states: np.ndarray  # (N0,) codes of the fully processed states
    final_masks: np.ndarray  # (m, N0) each supplier's backlog bitmask
    layers: tuple[_DpLayer, ...]


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
    for k in range(1, n + 1):
        states = codes[members[k]]
        if order is None:
            pair_states, customers = np.nonzero(unprocessed[states])
        else:
            pair_states, customers = np.arange(states.size), np.full(states.size, order[n - k])
        successors = states[pair_states, None] + outcomes * powers[customers][:, None]
        layers.append(_DpLayer(states, customers.astype(np.int8), successors))
    for array in (final_states, final_masks, *(a for layer in layers for a in layer)):
        array.setflags(write=False)  # shared by every later call
    return _DpStructure(size, final_states, final_masks, tuple(layers))


_START_SUMS = np.array([[0.0], [1.0]])


def _layer_step(values: np.ndarray, layer: _DpLayer, u: np.ndarray):
    """Best value and action of every state in ``layer`` from its
    successors' ``values``, for a batch of k instances: ``values`` holds one
    row of state values per instance and ``u`` one (n, m) block, and the
    (state, candidate) pairs of all k are swept as one array, instance by
    instance. Each pair takes the prefix rule of :func:`mnl.best_prefix`,
    batched, with the same floating-point operations: a stable sort of the
    gains, running sums from 0 and 1, the first best prefix (index 0 is the
    empty offer), then each state keeps its first best candidate. Every
    step is elementwise or along one pair's row, so an instance's results
    do not depend on the batch. Returns the (k, N) state values and, per
    state, the chosen customer, its supplier ranking and its prefix
    length."""
    batch, n, m = u.shape
    succ = values.take(layer.successors, axis=1).reshape(-1, m + 1)  # (k*P, m+1)
    succ_out = succ[:, 0]
    gains = succ[:, 1:] - succ_out[:, None]
    rank = np.argsort(-gains, axis=1, kind="stable")
    pairs = np.arange(rank.shape[0])[:, None]
    rows = (np.arange(0, batch * n, n)[:, None] + layer.customers).reshape(-1, 1)  # each pair's row of the stacked u
    weights = u.reshape(-1, m)[rows, rank]
    sums = np.empty((2,) + succ.shape)  # running sums of rho*u and of u
    sums[:, :, 0] = _START_SUMS
    sums[0, :, 1:] = gains[pairs, rank] * weights
    sums[1, :, 1:] = weights
    np.cumsum(sums, axis=2, out=sums)
    ratio = np.divide(sums[0], sums[1], out=sums[0])
    length = ratio.argmax(axis=1)
    v = (succ_out + ratio[pairs[:, 0], length]).reshape(batch * layer.states.size, -1)
    chosen = np.arange(v.shape[0]) * v.shape[1] + v.argmax(axis=1)
    customers = layer.customers[chosen % layer.customers.size].reshape(batch, -1)
    ranks = rank.take(chosen, axis=0).reshape(batch, -1, m)
    return v.max(axis=1).reshape(batch, -1), (customers, ranks, length[chosen].reshape(batch, -1))


class PolicyTable(Mapping):
    """The DP's policy as a read-only mapping from status tuples to
    (customer, assortment), over every state with a customer left to
    process. It iterates layer by layer, fewest unprocessed customers first,
    in code order within a layer. Backed by the state codes (see
    :class:`_DpStructure`) and one action per state, the customer shifted
    left by m and or-ed with the offer's supplier bitmask; an entry is
    decoded only when it is read."""

    def __init__(self, n: int, m: int, codes: np.ndarray, actions: np.ndarray):
        self._n, self._m = n, m
        self._codes, self._actions = codes, actions
        self._decoded: dict[int, tuple[int, tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return self._codes.size

    def __iter__(self):
        base = self._m + 2
        digits = self._codes[:, None] // base ** np.arange(self._n) % base - 2
        return map(tuple, digits.tolist())

    @cached_property
    def _positions(self) -> np.ndarray:
        """Each code's index among the states, -1 for codes that are none."""
        positions = np.full((self._m + 2) ** self._n, -1, dtype=np.intp)
        positions[self._codes] = np.arange(self._codes.size)
        return positions

    def __getitem__(self, status):
        base = self._m + 2
        if not isinstance(status, tuple) or len(status) != self._n:
            raise KeyError(status)
        code = 0
        for s in reversed(status):
            try:
                digit = operator.index(s) + 2
            except TypeError:
                raise KeyError(status) from None
            if not 0 <= digit < base:
                raise KeyError(status)
            code = code * base + digit
        position = self._positions[code]
        if position < 0:
            raise KeyError(status)
        action = int(self._actions[position])
        decoded = self._decoded.get(action)
        if decoded is None:  # one tuple per distinct action, shared by its states
            decoded = self._decoded[action] = (action >> self._m, mnl.subset_of(action & (1 << self._m) - 1, self._m))
        return decoded


def _dp_batch(insts: Sequence[Instance], order: tuple[int, ...] | None):
    """Backward induction over per-customer statuses (unprocessed / outside
    / chosen supplier) for a batch of instances of one size, one array
    batch per number of unprocessed customers across the whole batch (see
    :func:`_layer_step`). With ``order`` the t-th step processes
    ``order[t]``; without it every unprocessed customer is a candidate and
    the first best one (in index order) is kept. The boundary value sums
    each supplier's optimal revenue over its backlog in supplier order,
    from each instance's own tables. Values and actions must equal, bit for
    bit, those of the memoized recursion
    ``tests/oracles.py::reference_prefix_dp`` on each instance. Returns each
    instance's value (k,), the state codes (S,) of every state with a
    customer left, and each instance's (k, S) actions as
    :class:`PolicyTable` packs them.
    """
    n, m = batch_size(insts)
    _require_dp_size(insts[0])
    shape = _dp_structure(n, m, order)
    u = np.array([inst.u for inst in insts])
    gtabs = np.array([inst.optimal_revenue_tables for inst in insts])
    values = np.empty((len(insts), shape.size))
    values[:, shape.final_states] = sum(gtabs[:, j].take(shape.final_masks[j], axis=1) for j in range(m))
    picked = []
    for layer in shape.layers:
        values[:, layer.states], action = _layer_step(values, layer, u)
        picked.append(action)
    customers, ranks, lengths = (np.concatenate(parts, axis=1) for parts in zip(*picked))
    offers = np.where(np.arange(m) < lengths[..., None], 1 << ranks, 0).sum(axis=2)
    codes = np.concatenate([layer.states for layer in shape.layers])
    return values[:, 0], codes, customers.astype(np.int64) << m | offers


def _dp(inst: Instance, order: tuple[int, ...] | None):
    """:func:`_dp_batch` on the batch of one ``inst``. Returns (value,
    :class:`PolicyTable`)."""
    values, codes, actions = _dp_batch([inst], order)
    return float(values[0]), PolicyTable(inst.n, inst.m, codes, actions[0])


def exact_dp_atar(inst: Instance):
    """Optimal adaptive value and policy table.

    At each state the program picks the remaining customer and supplier
    assortment of highest value; see :func:`_dp_batch`.
    Returns (optimal value, :class:`PolicyTable` of status -> (customer,
    assortment)).
    """
    return _dp(inst, None)


def exact_dp_ftar(inst: Instance, order) -> float:
    """Optimal value when customers must be processed in ``order`` but
    assortments stay adaptive. Never exceeds the adaptive-order value."""
    return _dp(inst, as_permutation(order, inst.n))[0]


def exact_dp_values(insts: Sequence[Instance], order=None) -> np.ndarray:
    """The :func:`exact_dp_atar` value of each instance of a batch of one
    size, or with ``order`` its :func:`exact_dp_ftar` value, from one sweep
    over the batch (:func:`_dp_batch`); bit for bit the one-instance
    values."""
    if order is not None:
        order = as_permutation(order, batch_size(insts)[0])
    return _dp_batch(insts, order)[0]


def exact_star(inst: Instance) -> float:
    """Optimal value over deterministic static assortment profiles, all
    customers processed simultaneously.

    Under a static profile customers choose independently, so supplier j's
    backlog is product-Bernoulli with inclusion probabilities
    phi_i(j, S_i); by linearity of expectation a profile's value is the sum
    over suppliers of that distribution integrated against the
    optimal-revenue table. All profiles are evaluated at once; this is
    :func:`exact_star_values` on the batch of one.
    """
    return float(exact_star_values([inst])[0])


def exact_star_values(insts: Sequence[Instance]) -> np.ndarray:
    """The :func:`exact_star` value of each instance of a batch of one
    size. The choice probabilities and every supplier's backlog
    distributions are built for the whole batch as one array each, laid
    out so that each instance's (2^n, profiles) block is contiguous; each
    instance then integrates its own optimal-revenue row against its block,
    one product per supplier, so every value is bit for bit the one
    instance's."""
    n, m = batch_size(insts)
    # elements of a supplier's backlog distributions over all profiles and
    # of the choice probabilities phi, the largest arrays built below
    work = 2**n * 2 ** (m * n) + n * 2**m * m
    if work > STAR_WORK_LIMIT:
        raise SizeLimitError(
            f"static exhaustive search needs ~{work} array elements for "
            f"{n}x{m}; limit is {STAR_WORK_LIMIT}"
        )
    phi = mnl.choice_prob_table(np.array([inst.u for inst in insts]))
    # column k is one profile: customer i is offered the mask a with
    # offers[i, k] = i * 2^m + a, its entry in a row of phi[..., j]
    offers = np.indices((2**m,) * n).reshape(n, -1)
    offers += (np.arange(n) << m)[:, None]
    probs = np.empty((len(insts), 2**n, offers.shape[1]))
    values = np.zeros((len(insts), offers.shape[1]))
    for j in range(m):
        q = phi[..., j].reshape(len(insts), -1).take(offers, axis=1)  # (k, n, profiles)
        # q and the probabilities with the instance axis second: the doubling
        # runs along the bitmask axis and each instance's block stays contiguous
        mnl.independent_subset_probs(q.transpose(1, 0, 2), out=probs.transpose(1, 0, 2))
        for value, inst, block in zip(values, insts, probs):
            value += inst.optimal_revenue_tables[j] @ block
    return values.max(axis=1)


class _SampledPolicy:
    """A policy whose runs are driven by ``draws`` uniforms each, consumed
    customer by customer along ``order``; ``_offer(i, history, draws)``
    gives each run's offer id at customer i (see :meth:`_run`). It keeps
    what it reuses across its runs: the offered sets seen so far, the MNL
    choice table of each (customer, offered set) and the optimal revenue of
    each (supplier, backlog)."""

    def __init__(self, inst: Instance, order: Sequence[int], draws: int):
        self.inst = inst
        self.order = order
        self.draws = draws
        self.offer_sets: list[tuple[int, ...]] = []
        self._offer_ids: dict[tuple[int, ...], int] = {}
        self._choices: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._revenues: dict[tuple[int, tuple[int, ...]], tuple[float, tuple[int, ...]]] = {}

    def _offer(self, i: int, history: _History, draws: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _offer_id(self, offered: tuple[int, ...]) -> int:
        found = self._offer_ids.get(offered)
        if found is None:
            found = self._offer_ids[offered] = len(self.offer_sets)
            self.offer_sets.append(offered)
        return found

    def _choice_table(self, i: int, offer: int) -> tuple[np.ndarray, np.ndarray]:
        """Customer i's choice options from an offered set (``OUTSIDE`` last)
        and their :func:`~twosided.rounding.choice_cdf`."""
        table = self._choices.get((i, offer))
        if table is None:
            options, cdf = choice_table(self.inst.u[i], self.offer_sets[offer])
            table = self._choices[(i, offer)] = (np.array(options[:-1] + [OUTSIDE]), cdf)
        return table

    def _optimal_revenue(self, j: int, backlog: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
        best = self._revenues.get((j, backlog))
        if best is None:
            best = self._revenues[(j, backlog)] = mnl.optimal_revenue(self.inst, j, backlog)
        return best

    def _run(self, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One realized run per row of ``uniforms``. Customers in ``order``
        are each shown ``_offer(i, history, draws)`` -- one offer id per run,
        from the step's draws but its last -- and choose with the step's last
        draw; every supplier then keeps the best subset of its backlog, and
        the run's revenue adds those optima in supplier order. Runs that
        share an offered set draw from its CDF in one
        :func:`~twosided.rounding.inverse_cdf` call, which draws as
        ``Generator.choice`` does from one uniform. Returns, one row per run
        and one column per customer, the id of the set each customer was
        offered (an index into ``offer_sets``) and their choice (``OUTSIDE``
        for the outside option); and each run's revenue."""
        trials, n, m = uniforms.shape[0], self.inst.n, self.inst.m
        steps = uniforms.reshape(trials, n, -1)
        offered = np.empty((trials, n), dtype=np.intp)
        choice = np.full((trials, n), OUTSIDE, dtype=np.intp)
        first, group = np.zeros(1, dtype=np.intp), np.zeros(trials, dtype=np.intp)
        for t, i in enumerate(self.order):
            offered[:, i] = self._offer(i, _History(choice, first, group), steps[:, t, :-1])
            for a in np.unique(offered[:, i]).tolist():
                runs = np.flatnonzero(offered[:, i] == a)
                options, cdf = self._choice_table(i, a)
                choice[runs, i] = options[inverse_cdf(cdf, steps[runs, t, -1])]
            _, first, group = np.unique(group * (m + 1) + choice[:, i] + 1, return_index=True, return_inverse=True)
        revenue = np.zeros(trials)
        for j in range(m):
            chose = np.packbits(choice == j, axis=1)
            rows = chose.view(f"V{chose.shape[1]}").ravel()  # one bytes key per run
            _, firsts, backlog = np.unique(rows, return_index=True, return_inverse=True)
            values = [self._optimal_revenue(j, _backlog(choice[r], j))[0] for r in firsts.tolist()]
            revenue += np.array(values)[backlog]
        return offered, choice, revenue

    def revenues(self, uniforms: np.ndarray) -> np.ndarray:
        """Revenue of one realized run per row of the (trials, ``draws``)
        array ``uniforms``."""
        return self._run(uniforms)[2]

    def sample(self, seed) -> PolicyOutcome:
        """One realized run on the draws of ``np.random.default_rng(seed)``,
        with its trace and supplier optima: the one-row case of
        :meth:`revenues`."""
        offered, choice, revenue = self._run(np.random.default_rng(seed).random((1, self.draws)))
        choice = choice[0]
        trace = []
        for i in self.order:
            pick = int(choice[i])
            shown = self.offer_sets[offered[0, i]]
            trace.append({"customer": i, "offered": list(shown), "choice": None if pick == OUTSIDE else pick})
        per: list[SupplierOutcome] = []
        for j in range(self.inst.m):
            backlog = _backlog(choice, j)
            value, kept = self._optimal_revenue(j, backlog)
            per.append(SupplierOutcome(backlog=backlog, offered=kept, value=value))
        return PolicyOutcome(expected_revenue=float(revenue[0]), per_supplier=per, trace=trace)


class RandomizedStaticPolicy(_SampledPolicy):
    """Static policy realized from a feasible marginal-LP point: every
    customer is shown an assortment drawn from the nested distribution with
    their x marginals, independently of all other customers. A run draws
    two uniforms per customer: the offer, then the choice."""

    def __init__(self, inst: Instance, solution: LpSolution):
        super().__init__(inst, range(inst.n), 2 * inst.n)
        self.x = np.clip(np.asarray(solution.x, dtype=float), 0.0, 1.0)
        self.distributions = [
            mnl_distribution(solution.x[i], inst.u[i]) for i in range(inst.n)
        ]
        self._support_ids = [np.array([self._offer_id(s) for s in d.sets]) for d in self.distributions]

    def _offer(self, i, history, draws):
        # the support index that AssortmentDistribution.sample draws
        return self._support_ids[i][inverse_cdf(self.distributions[i].cdf, draws[:, 0])]

    def exact_expected_revenue(self) -> float:
        """True expectation over all backlog realizations: per supplier the
        backlog is product-Bernoulli with the x marginals (n <= 15),
        integrated against its optimal-revenue table."""
        n = self.inst.n
        if n > EXACT_EVAL_MAX_N:
            raise SizeLimitError(
                f"exact evaluation enumerates 2^{n} backlogs per supplier; limit n <= {EXACT_EVAL_MAX_N}"
            )
        total = 0.0
        for j in range(self.inst.m):
            total += float(mnl.optimal_revenue_table(self.inst, j) @ mnl.independent_subset_probs(self.x[:, j]))
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


class SameOrderGreedyPolicy(_SampledPolicy):
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
            order = certificate.sigma
        elif order is not None:
            order = as_permutation(order, inst.n)
        else:
            raise PolicyPreconditionError(
                "no same-order certificate; pass an explicit order to run as a heuristic"
            )
        super().__init__(inst, order, inst.n)  # one choice per customer
        self._offers: dict[tuple[int, tuple[tuple[int, ...], ...]], tuple[tuple[int, ...], float]] = {}

    def _g(self, j: int, members: tuple[int, ...]) -> float:
        return self._optimal_revenue(j, members)[0]

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

    def _offer(self, i, history, draws):
        # runs with the same choices so far share one backlog state
        m = self.inst.m
        ids = [
            self._offer_id(self.offered_assortment(i, [_backlog(history.choice[r], j) for j in range(m)])[0])
            for r in history.first.tolist()
        ]
        return np.array(ids)[history.group]

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
