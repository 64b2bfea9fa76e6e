"""MNL choice probabilities and supplier-side revenue functions.

Subsets of agents are sorted tuples of distinct indices. ``k=None`` denotes
the outside option in :func:`choice_prob`. Tables over all 2^n subsets are
indexed by bitmask and summed by :func:`subset_sums`. An instance owns its
(m, 2^n) tables R and g, each built once by the row builders
(:func:`expected_revenue_rows`, :func:`max_over_subsets`); the table
functions read a row. The correlation-gap suite builds its stacked rows
with the same two functions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .instance import SUBSET_TABLE_LIMIT, Instance


class SizeLimitError(ValueError):
    """An exact computation would exceed its desk-scale budget."""


def as_subset(items) -> tuple[int, ...]:
    """Normalize to a sorted tuple of distinct indices."""
    members = tuple(sorted(int(i) for i in items))
    for a, b in zip(members, members[1:]):
        if a == b:
            raise ValueError(f"duplicate index {a} in subset")
    return members


def in_universe(items, n: int) -> tuple[int, ...]:
    """:func:`as_subset` of ``items``, refused with ``IndexError`` unless
    every index is in range(n): a negative one would read from the end."""
    members = as_subset(items)
    if members and not (0 <= members[0] and members[-1] < n):
        raise IndexError(f"subset {members} outside universe of size {n}")
    return members


def check_supplier(inst: Instance, j: int) -> int:
    """``j``, refused with ``IndexError`` unless in range(m): -1 would read supplier m - 1."""
    if not 0 <= j < inst.m:
        raise IndexError(f"supplier {j} outside the platform's {inst.m} suppliers")
    return j


def choice_prob(weights, subset, k: int | None) -> float:
    """Probability that an MNL agent with the given weights picks ``k`` from
    the offered ``subset``; ``k=None`` is the outside option (weight 1)."""
    weights = np.asarray(weights, dtype=float)
    members = in_universe(subset, weights.size)
    denom = 1.0 + sum(weights[i] for i in members)
    if k is None:
        return 1.0 / denom
    if k in members:
        return float(weights[k]) / denom
    return 0.0


def expected_revenue(inst: Instance, j: int, customers) -> float:
    """Expected revenue when supplier j is shown exactly the set ``customers``."""
    check_supplier(inst, j)
    members = in_universe(customers, inst.n)
    num = 0.0
    den = 1.0
    for i in members:
        num += float(inst.r[i, j] * inst.w[j, i])
        den += float(inst.w[j, i])
    return num / den


def best_prefix(values, weights, candidates) -> tuple[float, tuple[int, ...]]:
    """Best MNL assortment over ``candidates``: maximize
    sum_{i in S} values[i] * weights[i] / (1 + sum_{i in S} weights[i]).

    The optimum is a prefix of the candidates sorted by descending value
    (ties by ascending index), so only |C|+1 prefixes are scanned; ties in
    objective keep the shorter prefix. Returns (value, sorted subset); the
    empty set gives 0.
    """
    order = sorted(candidates, key=lambda i: (-values[i], i))
    best_val = 0.0
    best_len = 0
    num = 0.0
    den = 1.0
    for t, i in enumerate(order, start=1):
        num += float(values[i] * weights[i])
        den += float(weights[i])
        val = num / den
        if val > best_val:
            best_val = val
            best_len = t
    return best_val, tuple(sorted(order[:best_len]))


def optimal_revenue(inst: Instance, j: int, customers) -> tuple[float, tuple[int, ...]]:
    """Best expected revenue over all subsets of ``customers`` for supplier j
    (see :func:`best_prefix`). Returns (value, maximizing subset)."""
    check_supplier(inst, j)
    return best_prefix(inst.r[:, j], inst.w[j], in_universe(customers, inst.n))


def optimal_revenue_bruteforce(inst: Instance, j: int, customers) -> tuple[float, tuple[int, ...]]:
    """Exhaustive maximum of the expected revenue over all 2^|C| subsets.

    Independent oracle for :func:`optimal_revenue`; |C| <= 20.
    """
    members = as_subset(customers)
    k = len(members)
    if k > SUBSET_TABLE_LIMIT:
        raise SizeLimitError(f"bruteforce limited to {SUBSET_TABLE_LIMIT} customers, got {k}")
    check_supplier(inst, j)
    in_universe(members, inst.n)
    w = inst.w[j, list(members)]
    values = subset_sums(inst.r[list(members), j] * w) / subset_sums(w, 1.0)
    best = int(np.argmax(values))
    chosen = tuple(members[b] for b in range(k) if best >> b & 1)
    return float(values[best]), chosen


def g_marginal(inst: Instance, j: int, i: int, customers) -> float:
    """Marginal optimal revenue of adding customer i to the universe ``customers``."""
    members = as_subset(customers)
    if i in members:
        raise ValueError(f"customer {i} already in {members}")
    with_i, _ = optimal_revenue(inst, j, members + (i,))
    without, _ = optimal_revenue(inst, j, members)
    return with_i - without


@lru_cache(maxsize=32)
def subset_masks(k: int) -> np.ndarray:
    """(2^k, k) 0/1 membership matrix; row b describes bitmask b (bit i <->
    element i). Read-only, cached."""
    masks = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(float)
    masks.setflags(write=False)
    return masks


def choice_prob_table(u: np.ndarray) -> np.ndarray:
    """phi[..., i, a, j]: probability that customer i, of customer weights
    ``u[..., i, :]``, picks supplier j from the supplier offer with bitmask
    a (zero where j is not offered): an (n, 2^m, m) array from an
    instance's (n, m) ``u``, or one such array per instance from stacked
    (k, n, m) weights, each bit for bit its instance's table."""
    offers = subset_masks(u.shape[-1])  # row a is the offer with bitmask a
    return u[..., None, :] * offers / (1.0 + u @ offers.T)[..., None]


def subset_sums(v, start=0.0) -> np.ndarray:
    """``start`` plus the sum of the members' ``v[i]`` for every subset of
    the indices of ``v``, indexed by bitmask (bit i: index i), in numpy's
    dtype for ``v + start``. Built by doubling, so members are added in
    ascending order, as :func:`expected_revenue` adds them. A stacked (k, n)
    ``v`` gives (k, 2^n) sums in one pass; each row is bit for bit the 1-D
    call on its row, as the same additions run in the same order."""
    v = np.asarray(v)
    sums = np.empty(v.shape[:-1] + (1 << v.shape[-1],), np.result_type(v, start))
    doubled = sums.T  # the bitmask axis first: 1-D and (k, n) sums double along axis 0
    doubled[0] = start
    k = 1
    for x in v.T:
        np.add(doubled[:k], x, doubled[k : 2 * k])  # the sets whose top member is x
        k *= 2
    return sums


def expected_revenue_rows(values, weights) -> np.ndarray:
    """Expected revenue of every subset, by bitmask, for k stacked
    suppliers: row t is the members' ``values[t]`` (r·w) summed over 1 plus
    their ``weights[t]``, a (k, 2^n) array from (k, n) inputs. Each row is
    bit for bit the 1-D call on its inputs (see :func:`subset_sums`)."""
    rows = subset_sums(values)
    rows /= subset_sums(weights, 1.0)
    return rows


def max_over_subsets(rows: np.ndarray) -> np.ndarray:
    """Sweep C-contiguous (k, 2^n) ``rows`` in place so that each entry
    becomes the max over its subsets, and return them. At bit b the rows,
    end to end, are viewed as (row and high bits, bit b, low bits); every
    entry with the bit set takes the max with its partner."""
    if not rows.flags.c_contiguous:
        raise ValueError("the sweep reshapes its rows in place, so they must be C-contiguous")
    for b in range(rows.shape[-1].bit_length() - 1):
        v = rows.reshape(-1, 2, 1 << b)
        np.maximum(v[:, 1], v[:, 0], out=v[:, 1])
    return rows


def build_expected_revenue_tables(inst: Instance) -> np.ndarray:
    """R, read as ``inst.expected_revenue_tables``: row j, by bitmask, is
    bit for bit :func:`expected_revenue` of each set for supplier j."""
    return expected_revenue_rows(inst.r.T * inst.w, inst.w)


def build_optimal_revenue_tables(inst: Instance) -> np.ndarray:
    """g, read as ``inst.optimal_revenue_tables``: :func:`max_over_subsets`
    of R, so it does not rely on the revenue-ordered prefix structure."""
    return max_over_subsets(inst.expected_revenue_tables.copy())


def expected_revenue_table(inst: Instance, j: int) -> np.ndarray:
    """Supplier j's row of ``inst.expected_revenue_tables``."""
    return inst.expected_revenue_tables[check_supplier(inst, j)]


def optimal_revenue_table(inst: Instance, j: int) -> np.ndarray:
    """Supplier j's row of ``inst.optimal_revenue_tables``."""
    return inst.optimal_revenue_tables[check_supplier(inst, j)]


def independent_subset_probs(q, out: np.ndarray | None = None) -> np.ndarray:
    """Probability of every subset, indexed by bitmask, when element i is
    included independently with probability q[i].

    ``q`` of shape (n, k) gives k product distributions at once, one per
    column, as a (2^n, k) array; more trailing axes work the same way.
    Built by doubling into one array: the sets with element i take the
    first half's probabilities times q[i], then the first half is
    multiplied by 1 - q[i]. ``out``, a (2^n, …) array of any strides, is
    filled and returned instead of a new array; the products are the same.
    """
    q = np.asarray(q, dtype=float)
    probs = np.empty((1 << q.shape[0],) + q.shape[1:]) if out is None else out
    probs[0] = 1.0
    k = 1
    for x in q:
        np.multiply(probs[:k], x, out=probs[k : 2 * k])
        probs[:k] *= 1.0 - x
        k *= 2
    return probs


def mask_of(subset, n: int) -> int:
    mask = 0
    for i in in_universe(subset, n):
        mask |= 1 << i
    return mask


def subset_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple([i for i in range(n) if mask >> i & 1])
