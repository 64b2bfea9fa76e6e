"""The platform LP relaxations and their duals at desk scale.

Two relaxations are represented. The assortment-distribution LP puts one
probability variable on every (customer assortment, customer) pair and one
on every (backlog set, supplier) pair. The marginal LP replaces customer
assortment variables by per-pair choice marginals x[i][j] constrained
through the MNL identity x[i][j]/u[i][j] + sum_l x[i][l] <= 1. Both are
instantiated in full (every subset variable) at desk scale only. Both are
solved one way: their columns are written straight into one column-major
array, and the phase-2 simplex runs from a basis known to be feasible, so
no LP here runs phase 1. A batch of LPs of one size is solved in lockstep
(``simplex._optimize_lockstep``, :func:`lp1_exact_values`,
:func:`lp2_exact_values`), each LP bit for bit its one-LP solve
(``simplex._optimize``), which also takes every LP that leaves the
lockstep. ``lp1_exact_values`` builds the first; ``lp1_exact_small`` is its
batch of one. Every marginal LP, full or with the backlog support the
ellipsoid module generates, is built by a ``RestrictedMaster``, which is
its own revised basis and keeps that basis between solves; a batch stacks
one master's structure. The master's ``lp`` property gives the named
``LinearProgram`` only when read. Its lambda columns are keyed ``j << n | mask`` (bit i: customer i): the full LP is the
keys ``0 .. m 2^n - 1``, and only a solution's support is decoded. A key is
also the flat index of the instance's (m, 2^n) revenue tables, which its
lambda costs and the oracle read (``inst.expected_revenue_tables``). A
large master prices its lambda columns from those keys and one cached
half-subset-sum matrix per (n, m) (``RestrictedMaster.pricing``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import mnl
from .cost_assortment import SubDualOracle
from .instance import Instance, batch_size
from .simplex import LinearProgram, LpResult, LpSolverError
from .simplex import _optimize, _optimize_lockstep, _RevisedBasis

LP2_MAX_N = 10
LP2_MAX_M = 4
LP1_MAX_N = 4
LP1_MAX_M = 4

SUPPORT_EPS = 1e-12
# lambda columns from which a master prices them from their keys. Below it,
# one dense product with the duals costs less than the key path's numpy
# calls. Per pivot over a full marginal LP (best of 15, 2-core VM): 8x2's
# 512 lambda columns 6.1 us dense against 10.0 us from keys, 8x4's 1,024
# 15.9 against 9.9, 10x4's 4,096 123 against 32
KEY_PRICING_MIN = 1024


@dataclass
class LpSolution:
    """A feasible point of the marginal LP.

    x: (n, m) per-pair choice marginals.
    lam: per supplier, the backlog distribution as {customer subset: prob}
         restricted to its support.
    objective: expected-revenue objective value of the point.
    """

    x: np.ndarray
    lam: list[dict[tuple[int, ...], float]]
    objective: float


@dataclass
class DualPoint:
    """A point of the dual of the marginal LP: multipliers alpha (n, m) >= 0
    on the MNL rows, beta (m,) on the distribution rows and gamma (n, m) on
    the marginal-consistency rows."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)

    @property
    def objective(self) -> float:
        return float(self.beta.sum() + self.alpha.sum())


def weight_link_slack(inst: Instance, alpha: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Slack of every weight-link row of the dual as an (n, m) array,
    alpha_ij / u_ij + sum_k alpha_ik - gamma_ij; the row holds where it is
    >= 0. The cut loop and :func:`dual_feasibility_report` both test this one
    expression, so an incumbent the loop accepts passes the report at zero
    tolerance."""
    return alpha / inst.u + alpha.sum(axis=1, keepdims=True) - gamma


class ViolatedSets:
    """Per supplier, an insertion-ordered collection of backlog sets, each
    as its bitmask (bit i: customer i); repeats are ignored. An ellipsoid
    run records the sets whose backlog constraint it cut."""

    def __init__(self, m: int):
        self._sets: list[dict[int, None]] = [{} for _ in range(m)]

    def add(self, j: int, mask: int) -> bool:
        sets = self._sets[j]
        if mask in sets:
            return False
        sets[mask] = None
        return True

    def counts(self) -> list[int]:
        return [len(sets) for sets in self._sets]

    def total(self) -> int:
        return sum(self.counts())

    def __getitem__(self, j: int) -> list[int]:
        return list(self._sets[j])


def _require_lp2_size(n: int, m: int) -> None:
    if n > LP2_MAX_N or m > LP2_MAX_M:
        raise mnl.SizeLimitError(f"exact marginal LP limited to n <= {LP2_MAX_N}, m <= {LP2_MAX_M}; got {n}x{m}")


def lp2_exact_small(inst: Instance) -> LpSolution:
    """Solve the marginal LP exactly by instantiating every backlog variable
    (n <= 10, m <= 4): one :class:`RestrictedMaster` over every key, solved
    from its start basis."""
    _require_lp2_size(inst.n, inst.m)
    master = RestrictedMaster(inst, np.arange(inst.m << inst.n))
    return master.extract(master.solve())


def lp2_exact_values(insts: Sequence[Instance]) -> list[float]:
    """The marginal LP optimum of every instance of a batch of one (n, m),
    each bit for bit ``lp2_exact_small(inst).objective``.

    The batch stacks the structure of one full :class:`RestrictedMaster`,
    writes each instance's MNL coefficients and lambda costs with the
    master's own statement (:func:`_write_instance`), and solves every LP in
    lockstep from the master's start basis (``simplex._optimize_lockstep``).
    An LP that leaves the lockstep is solved by :func:`lp2_exact_small`, as
    is every LP of a size whose master prices by key (``KEY_PRICING_MIN``
    lambda columns or more: 8x4, 9x2, 10x1 and larger), which the lockstep's
    dense pricing would not match bit for bit."""
    n, m = batch_size(insts)
    _require_lp2_size(n, m)
    master = RestrictedMaster(insts[0], np.arange(m << n))
    if master.key_priced:
        return [lp2_exact_small(inst).objective for inst in insts]
    k, nm = len(insts), n * m
    cols = np.empty((k,) + master.cols.T.shape).transpose(0, 2, 1)  # each block column-major
    cols[:] = master.cols
    c = np.zeros((k, master._c.size))
    revenue = np.array([inst.expected_revenue_tables for inst in insts]).reshape(k, -1)
    _write_instance(cols, c, np.array([inst.u for inst in insts]), revenue, master.keys)
    b = np.tile(master._b, (k, 1))
    x, left = _optimize_lockstep(cols, np.tile(master.basis, (k, 1)), cols[:, :, master.basis], b, -c)
    values = [float(c[t, nm:] @ x[t, nm:]) for t in range(k)]
    for t in left:
        values[t] = lp2_exact_small(insts[t]).objective
    return values


def build_aux_primal(inst: Instance, violated: ViolatedSets) -> RestrictedMaster:
    """The :class:`RestrictedMaster` over the recorded backlog sets, each
    supplier's empty set first so the distribution rows stay satisfiable."""
    keys = (j << inst.n | mask for j in range(inst.m) for mask in [0, *violated[j]])
    return RestrictedMaster(inst, list(dict.fromkeys(keys)))


def dual_certificate(
    oracle: SubDualOracle, point: DualPoint
) -> tuple[DualPoint, float, list[tuple[int, int]]]:
    """Lift the duals of a restricted marginal LP to a dual-feasible point
    of the full one, and return it with the gap it certifies and the sets
    that price out.

    Restricting the primal to some backlog columns drops only backlog
    constraints from the dual, so ``point`` is feasible up to those. The
    ``oracle``, called exactly, prices each supplier, ``v_j = max(0,
    oracle(j, gamma) - beta_j)``, and ``(alpha, beta + v, gamma)``
    satisfies every one. Its objective bounds the LP optimum from above, at
    ``sum v`` above the restricted optimum. The third value lists ``(j, mask)``, the oracle's
    set as its bitmask, for every supplier with ``v_j > 0``: the backlog
    columns with the largest positive reduced cost.
    """
    v = np.zeros(point.beta.size)
    priced: list[tuple[int, int]] = []
    for j in range(point.beta.size):
        value, mask = oracle(j, point.gamma)
        v[j] = max(0.0, value - point.beta[j])
        if v[j] > 0.0:
            priced.append((j, mask))
    return DualPoint(alpha=point.alpha, beta=point.beta + v, gamma=point.gamma), float(v.sum()), priced


class RestrictedMaster(_RevisedBasis):
    """The marginal LP over a growing set of backlog columns in standard
    form, and its own revised basis, kept between solves; the only builder
    of that LP. Rows are the m distribution rows, the nm consistency rows
    and the nm MNL rows. Columns have fixed ids: the nm MNL slacks, x
    (row-major), then lambda in key order (``keys``), all in one
    column-major array (``cols``). The start basis is lambda_{j,{}} on
    distribution row j, x_ij on its consistency row and the slack on its MNL
    row: its matrix [[I, 0, 0], [0, -I, 0], [0, U, I]] (U the MNL
    coefficients of x) is its own inverse and its basic values are b = (1,
    0, 1), so no solve needs phase 1. An appended column is nonbasic, so the
    basis and its inverse carry over.

    Per instance, only the MNL coefficients 1 + 1/u_ij and the lambda costs
    differ (:func:`_write_instance`).

    A lambda column is 1 on its supplier's distribution row j and on the
    consistency row of each member i, so its min-form reduced cost is its
    cost less ``y_j + sum_{i in S} y_ij``. With the customers split at
    h = n // 2, that sum is one entry of a table of the low half's subset
    sums, y_j folded in, plus one of the high half's; one product of the
    duals with a fixed matrix per (n, m) gives the table
    (:func:`_half_sum_matrix`, cached per size), and a column's two entries
    follow from its key. A large master prices its lambda columns so
    (:meth:`pricing`), and keeps nothing for it between solves."""

    def __init__(self, inst: Instance, keys):
        """The master over a lambda column for every key ``j << n | mask``
        of ``keys``, in the given order and without repeats. The keys must
        include every supplier's empty set, ``j << n``."""
        n, m = inst.n, inst.m
        nm, me = n * m, m + n * m
        self.inst, self.n, self.m, self.pivots = inst, n, m, 0
        # R_j(S) of every backlog, at flat index j 2^n + mask: a column's key
        self._revenue = inst.expected_revenue_tables.reshape(-1)
        self.keys = np.asarray(keys, dtype=np.int64)
        self._b = np.concatenate([np.ones(m), np.zeros(nm), np.ones(nm)])
        cols, self._c = self._with_lambdas(2 * nm, self.keys)
        # the MNL slacks; x_ij is -1 on its consistency row, and the MNL
        # rows read x_ij/u_ij + sum_l x_il <= 1
        pairs, x = np.arange(nm), cols[:, nm : 2 * nm]
        cols[me + pairs, pairs] = 1.0
        x[m + pairs, pairs] = -1.0
        x[me + pairs[:, None], (pairs // m * m)[:, None] + np.arange(m)] = 1.0
        _write_instance(cols, self._c, inst.u, self._revenue, self.keys)
        empty = [2 * nm + np.flatnonzero(self.keys == j << n)[0] for j in range(m)]
        basis = np.concatenate([empty, np.arange(nm, 2 * nm), np.arange(nm)])
        super().__init__(cols, basis, np.ascontiguousarray(cols[:, basis]), self._b.copy())

    def _with_lambdas(self, head: int, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A column-major array and a zero objective, one allocation each:
        ``head`` zero columns for the caller, then the lambda columns of keys
        ``new``, without their costs."""
        c = np.zeros(head + new.size)
        cols = np.zeros((self._b.size, c.size), order="F")
        # per supplier the lambdas form a distribution; per pair the lambda
        # mass containing customer i matches x[i][j]; the MNL rows stay zero
        supplier, col = new >> self.n, np.arange(new.size)
        cols[supplier, head + col] = 1.0
        # the consistency rows m + i m + j as (customer i, supplier j, column)
        consistency = cols[self.m : self.m + self.n * self.m, head:].reshape(self.n, self.m, new.size)
        assert np.shares_memory(consistency, cols)
        consistency[:, supplier, col] = new >> np.arange(self.n)[:, None] & 1
        return cols, c

    def add(self, keys) -> list[int]:
        """Append, in the given order, a lambda column for every key of
        ``keys`` the master lacks, and return those keys."""
        keys = np.fromiter(dict.fromkeys(keys), dtype=np.int64)
        new = keys[~(keys[:, None] == self.keys).any(axis=1)]
        if new.size:
            head = self._c.size
            cols, c = self._with_lambdas(head, new)
            cols[:, :head], c[:head], c[head:] = self.cols, self._c, self._revenue[new]
            self.cols, self._c, self.keys = cols, c, np.concatenate([self.keys, new])
        return new.tolist()

    @property
    def lam_index(self) -> list[tuple[int, tuple[int, ...]]]:
        """Every lambda column's (supplier, set): its key's bits from n up, and below n."""
        return [(key >> self.n, mnl.subset_of(key, self.n)) for key in self.keys.tolist()]

    @property
    def lp(self) -> LinearProgram:
        """The master's LP over x, then lambda in key order, as a named
        :class:`LinearProgram` (what ``--dump-lp`` writes): read-only views
        of the master's arrays, named afresh on every read."""
        nm, me = self.n * self.m, self.m + self.n * self.m
        views = (self._c[nm:], self.cols[:me, nm:], self._b[:me], self.cols[me:, nm:], self._b[me:])
        for view in views:
            view.flags.writeable = False
        xs = [f"x[{i},{j}]" for i in range(self.n) for j in range(self.m)]
        lams = (f"lam[{j},{{{','.join(map(str, subset))}}}]" for j, subset in self.lam_index)
        return LinearProgram(*views, maximize=True, names=(*xs, *lams))

    def extract(self, result: LpResult) -> LpSolution:
        """The :class:`LpSolution` of ``result``, a solve of this master's
        LP: x, and per supplier the lambda support in key order."""
        if result.status != "optimal" or result.x is None:
            raise LpSolverError(f"marginal LP solve failed with status {result.status!r}")
        nm = self.n * self.m
        x = result.x[:nm].reshape(self.n, self.m).copy()
        lam: list[dict[tuple[int, ...], float]] = [{} for _ in range(self.m)]
        support = np.flatnonzero(result.x[nm:] > SUPPORT_EPS)
        for key, p in zip(self.keys[support].tolist(), result.x[nm + support].tolist()):
            lam[key >> self.n][mnl.subset_of(key, self.n)] = p
        return LpSolution(x=x, lam=lam, objective=float(result.objective))

    def dual_point(self, result: LpResult) -> DualPoint:
        """The optimal duals of the marginal LP's rows as a ``DualPoint``:
        beta from the distribution rows, gamma from the consistency rows
        (+1 on lambda, -1 on x, so a backlog column prices out at
        R_j(S) - beta_j - sum_S gamma) and alpha from the MNL rows."""
        if result.status != "optimal" or result.duals is None:
            raise LpSolverError(f"marginal LP solve failed with status {result.status!r}")
        n, m = self.n, self.m
        y = result.duals
        return DualPoint(
            alpha=y[m + n * m :].reshape(n, m),
            beta=y[:m],
            gamma=y[m : m + n * m].reshape(n, m),
        )

    def solve(self) -> LpResult:
        """The phase-2 solve ``simplex._optimize`` from the current basis:
        the start basis on a first solve, so even a master over every set
        (:func:`lp2_exact_small`) needs no phase 1. Returned as an
        :class:`LpResult` in the LP's own (max) sense for x, then lambda in
        ``lam_index`` order (``basis`` empty). An optimum that fails the KKT
        check is pivoted and checked again from a basis inverted afresh; a
        second failure raises :class:`LpSolverError`."""
        before = self.pivots
        try:
            x, y = self._solve_once()
        except LpSolverError:
            self._reinvert()
            x, y = self._solve_once()
        x, c = x[self.n * self.m :], self._c[self.n * self.m :]
        return LpResult("optimal", x, float(c @ x), iterations=self.pivots - before, duals=-y)

    def _solve_once(self) -> tuple[np.ndarray, np.ndarray]:
        """Pivot to a KKT-checked optimum: every column's value, row duals."""
        pivots, x, y = _optimize(self, self._b, -self._c, self._c.size)
        if pivots < 0:
            raise LpSolverError("the restricted master reported unbounded; basis inverse corrupt")
        self.pivots += pivots
        return x, y

    def _reinvert(self) -> None:
        try:
            self.binv = np.linalg.inv(self.cols[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise LpSolverError(f"restricted master basis cannot be re-inverted: {exc}") from exc
        self.x_b = self.binv @ self._b

    def pricing(self, cost: np.ndarray, n_cols: int):
        """The reduced costs of the master's ``n_cols`` columns as a function
        of the row duals: :meth:`key_pricing` once the master has at least
        ``KEY_PRICING_MIN`` lambda columns and at least as many as the
        half-subset-sum table has rows, and one dense product below that,
        where the table's fixed cost exceeds the product it saves."""
        return self.key_pricing(cost, n_cols) if self.key_priced else super().pricing(cost, n_cols)

    @property
    def key_priced(self) -> bool:
        """Whether :meth:`pricing` prices from keys: at least
        ``KEY_PRICING_MIN`` lambda columns, and at least as many as the
        half-subset-sum table has rows."""
        h = self.n // 2
        return self.keys.size >= max(KEY_PRICING_MIN, self.m * (2**h + 2 ** (self.n - h)))

    def key_pricing(self, cost: np.ndarray, n_cols: int):
        """The reduced costs of the master's ``n_cols`` columns as a function
        of the row duals: the lambda columns' from two entries each of the
        half-subset-sum table, read from their keys, and the slack and x
        columns' by one dense product."""
        n, m, h = self.n, self.m, self.n // 2
        matrix = _half_sum_matrix(n, m)
        j, mask = self.keys >> n, self.keys & ((1 << n) - 1)
        low, high = (mask & ((1 << h) - 1)) * m + j, (m << h) + (mask >> h) * m + j
        head = n_cols - self.keys.size
        dense, lam_cost = super().pricing(cost, head), cost[head:n_cols]
        reduced = np.empty(n_cols)
        lam = reduced[head:]

        def price(y: np.ndarray) -> np.ndarray:
            sums = matrix @ y[: matrix.shape[1]]
            reduced[:head] = dense(y)
            np.subtract(lam_cost, sums[low], out=lam)
            np.subtract(lam, sums[high], out=lam)
            return reduced

        return price


def _write_instance(cols: np.ndarray, c: np.ndarray, u: np.ndarray, revenue: np.ndarray, keys: np.ndarray) -> None:
    """Write what the marginal LP of :class:`RestrictedMaster` takes from the
    instance beyond its size: x_ij's coefficient 1 + 1/u_ij on its own MNL
    row, and the trailing lambda columns' costs, ``revenue`` (the flat
    revenue tables) read at their ``keys``. The arrays are one master's, or
    stacked on a leading axis: cols (k, rows, columns), c (k, columns), u
    (k, n, m) and revenue (k, m 2^n)."""
    n, m = u.shape[-2:]
    nm, pairs = n * m, np.arange(n * m)
    cols[..., m + nm + pairs, nm + pairs] = 1.0 + 1.0 / u.reshape(*u.shape[:-2], nm)
    c[..., c.shape[-1] - keys.size :] = revenue[..., keys]


@lru_cache(maxsize=32)
def _half_sum_matrix(n: int, m: int) -> np.ndarray:
    """The 0/1 matrix whose product with the duals of the distribution and
    consistency rows is the half-subset-sum table of the lambda columns,
    with the customers split at h = n // 2. Row ``l m + j``, per low-half
    bitmask l (customers 0 .. h-1) and supplier j, is y_j plus the sum of
    y_ij over the members of l; row ``m 2^h + u m + j``, per high-half
    bitmask u (customers h .. n-1), is the sum of y_ij over the members of
    u. The key ``j << n | mask`` reads the low row of ``mask``'s low h bits
    and the high row of the rest. Read-only, cached like
    :func:`mnl.subset_masks`."""
    h = n // 2
    low = np.hstack([np.ones((2**h, 1)), mnl.subset_masks(h), np.zeros((2**h, n - h))])
    high = np.hstack([np.zeros((2 ** (n - h), 1 + h)), mnl.subset_masks(n - h)])
    matrix = np.kron(np.vstack([low, high]), np.eye(m))
    matrix.setflags(write=False)
    return matrix


def lp1_exact_small(inst: Instance) -> float:
    """Exact optimum of the assortment-distribution LP (n <= 4, m <= 4):
    :func:`lp1_exact_values` of the batch of one."""
    return lp1_exact_values([inst])[0]


def lp1_exact_values(insts: Sequence[Instance]) -> list[float]:
    """Exact optimum of the assortment-distribution LP (n <= 4, m <= 4) of
    every instance of a batch of one (n, m), each the same in any batch.

    Variables: one distribution over customer backlogs per supplier (valued
    by the optimal-revenue function) and one distribution over supplier
    assortments per customer, linked through the MNL choice probabilities.
    The 0/1 structure, b and the start basis are one per batch; per
    instance, only the costs and the choice probabilities are written.

    Solved in lockstep (``simplex._optimize_lockstep``) without phase 1 from
    the feasible basis lambda_{j,{}} on supplier row j, tau_{i,{}} on
    customer row i and lambda_{j,{i}} on link row (i, j): its matrix [[I, 0,
    E], [0, I, 0], [0, 0, I]] (E: lambda_{j,{i}} on row j) has for inverse
    the same with -E, and its values are b = (1, 1, 0). An LP that leaves
    the lockstep is solved alone by ``simplex._optimize`` from that basis.
    """
    n, m = batch_size(insts)
    if n > LP1_MAX_N or m > LP1_MAX_M:
        raise mnl.SizeLimitError(
            f"exact assortment-distribution LP limited to n <= {LP1_MAX_N}, m <= {LP1_MAX_M}; got {n}x{m}"
        )
    k, n_sets, n_offers = len(insts), 2**n, 2**m
    # columns: lambda[j, backlog mask] at j 2^n + mask, then tau[i, offer mask]
    lam, tau = np.arange(m * n_sets), np.arange(n * n_offers)
    c = np.zeros((k, lam.size + tau.size))
    c[:, : lam.size] = np.array([inst.optimal_revenue_tables for inst in insts]).reshape(k, -1)
    # rows: each distribution sums to 1, then per pair (i, j) the lambda mass
    # of backlogs containing i equals i's probability of choosing j
    b = np.zeros(m + n + n * m)
    b[: m + n] = 1.0
    cols = np.zeros((k, c.shape[1], b.size)).transpose(0, 2, 1)  # each block column-major
    cols[:, lam // n_sets, lam] = 1.0
    cols[:, m + tau // n_offers, lam.size + tau] = 1.0
    link = m + n + np.arange(n * m).reshape(n, m, 1)
    cols[:, link, lam.reshape(1, m, n_sets)] = mnl.subset_masks(n).T[:, None, :]
    phi = mnl.choice_prob_table(np.array([inst.u for inst in insts]))
    cols[:, link, lam.size + tau.reshape(n, 1, n_offers)] = -phi.transpose(0, 1, 3, 2)

    singletons = (lam[::n_sets] + (1 << np.arange(n))[:, None]).reshape(-1)
    basis = np.concatenate([lam[::n_sets], lam.size + tau[::n_offers], singletons])
    # B = I + N with N the E block and N N = 0, so B^-1 = I - N = 2I - B
    binv = 2 * np.eye(b.size) - cols[:, :, basis]
    x, left = _optimize_lockstep(cols, np.tile(basis, (k, 1)), binv, np.tile(b, (k, 1)), -c)
    for t in left:
        start = _RevisedBasis(cols[t], basis.copy(), binv[t].copy(), b.copy())
        pivots, alone, _ = _optimize(start, b, -c[t], c.shape[1])
        if pivots < 0:
            raise LpSolverError("assortment-distribution LP solve failed: unbounded")
        x[t] = alone
    return [float(c[t] @ x[t]) for t in range(k)]


def check_lp_solution(inst: Instance, sol: LpSolution, tol: float = 1e-9) -> list[str]:
    """Return violated feasibility invariants of ``sol`` (empty if none).
    Every comparison fails on NaN."""
    problems: list[str] = []
    for j in range(inst.m):
        total = sum(sol.lam[j].values())
        if not abs(total - 1.0) <= tol:
            problems.append(f"supplier {j}: distribution mass {total} != 1")
        if not all(p >= -tol for p in sol.lam[j].values()):
            problems.append(f"supplier {j}: negative probability")
        mass = np.zeros(inst.n)
        for subset, p in sol.lam[j].items():
            for i in subset:
                mass[i] += p
        for i in range(inst.n):
            if not abs(mass[i] - sol.x[i, j]) <= tol:
                problems.append(
                    f"pair ({i},{j}): marginal mass {mass[i]} != x {sol.x[i, j]}"
                )
    row_sums = sol.x.sum(axis=1)
    for i in range(inst.n):
        for j in range(inst.m):
            lhs = sol.x[i, j] / inst.u[i, j] + row_sums[i]
            if not lhs <= 1.0 + tol:
                problems.append(f"pair ({i},{j}): MNL row {lhs} > 1")
    if not (sol.x >= -tol).all():
        problems.append("negative marginal")
    return problems


@dataclass
class DualViolation:
    kind: str  # "alpha-nonnegative" | "weight-link" | "assortment-cost"
    index: tuple
    amount: float
    witness: tuple[int, ...] | None = None


@dataclass
class DualFeasibilityReport:
    violations: list[DualViolation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations


def dual_feasibility_report(
    inst: Instance, point: DualPoint, tol: float = 1e-9
) -> DualFeasibilityReport:
    """List every violated constraint of the dual at ``point``; the
    exponentially many backlog constraints are checked by the instance's
    exact oracle (``inst.sub_dual_oracle``, n <= 20). A point with a
    non-finite entry raises ``ValueError``."""
    alpha, beta, gamma = point.alpha, point.beta, point.gamma
    if not all(np.isfinite(part).all() for part in (alpha, beta, gamma)):
        raise ValueError("dual point has non-finite entries")
    oracle = inst.sub_dual_oracle
    report = DualFeasibilityReport()
    # row sums as the cut loop takes them (its alpha is C-ordered), whatever
    # the point's memory layout
    slack = weight_link_slack(inst, np.ascontiguousarray(alpha), gamma)
    for i in range(inst.n):
        for j in range(inst.m):
            if alpha[i, j] < -tol:
                report.violations.append(
                    DualViolation("alpha-nonnegative", (i, j), float(-alpha[i, j]))
                )
            if slack[i, j] < -tol:
                report.violations.append(DualViolation("weight-link", (i, j), float(-slack[i, j])))
    for j in range(inst.m):
        value, mask = oracle(j, gamma)
        if value > beta[j] + tol:
            report.violations.append(
                DualViolation("assortment-cost", (j,), float(value - beta[j]), mnl.subset_of(mask, inst.n))
            )
    return report
