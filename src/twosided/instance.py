"""Platform instances: validation, normalization, generators and file I/O.

An instance is a bipartite platform with ``n`` customers and ``m`` suppliers.
Every agent carries an individual MNL choice model whose outside option has
weight 1, and every customer-supplier pair carries a nonnegative revenue.
All indices are 0-based.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

GENERATOR_KINDS = (
    "uniform-random",
    "same-order-additive",
    "same-order-multiplicative",
    "supplier-uniform",
)

# Preference weights are drawn log-uniformly from this range; a harness
# choice, nothing in the model bounds weight magnitudes.
WEIGHT_LOW = 0.1
WEIGHT_HIGH = 10.0
SUBSET_TABLE_LIMIT = 20  # customers past which an instance builds no (m, 2^n) table


@dataclass(frozen=True, eq=False)
class Instance:
    """A two-sided platform instance.

    Attributes:
        n: number of customers.
        m: number of suppliers.
        u: (n, m) customer preference weights, u[i][j] > 0. The outside
           option weight of every customer is implicitly 1.
        w: (m, n) supplier preference weights, w[j][i] > 0, outside option 1.
        r: (n, m) pair revenues, r[i][j] >= 0.
        revenue_scale: accumulated factor divided out of ``r`` by
            :func:`normalize_revenues` (1.0 when no normalization applied).
    """

    n: int
    m: int
    u: np.ndarray
    w: np.ndarray
    r: np.ndarray
    revenue_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("u", "w", "r"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "revenue_scale", float(self.revenue_scale))

    @cached_property
    def expected_revenue_tables(self) -> np.ndarray:
        """R: row j is supplier j's expected revenue of every customer set,
        by bitmask (:func:`mnl.build_expected_revenue_tables`)."""
        return self._subset_table("build_expected_revenue_tables")

    @cached_property
    def optimal_revenue_tables(self) -> np.ndarray:
        """g: the same for the optimal revenue (:func:`mnl.build_optimal_revenue_tables`)."""
        return self._subset_table("build_optimal_revenue_tables")

    def _subset_table(self, builder: str) -> np.ndarray:
        """``mnl.<builder>(self)``, read-only and kept from its first read, so
        every solver, DP and check of the instance reads one array (``u``,
        ``w`` and ``r`` are read-only too). Refused before it allocates past
        ``SUBSET_TABLE_LIMIT`` customers."""
        from . import mnl  # mnl imports this module
        if self.n > SUBSET_TABLE_LIMIT:
            raise mnl.SizeLimitError(f"subset tables limited to {SUBSET_TABLE_LIMIT} customers, got {self.n}")
        table = getattr(mnl, builder)(self)
        table.setflags(write=False)
        return table

    def customers(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class SameOrderCertificate:
    """A customer permutation along which every supplier's revenues are
    nonincreasing, or ``sigma=None`` when no such permutation exists."""

    sigma: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.sigma is not None


def validate(inst: Instance) -> list[str]:
    """Return the list of violated invariants (empty means valid)."""
    errors: list[str] = []
    if inst.n < 1:
        errors.append(f"customer count must be positive, got {inst.n}")
    if inst.m < 1:
        errors.append(f"supplier count must be positive, got {inst.m}")
    shapes = {"u": (inst.n, inst.m), "w": (inst.m, inst.n), "r": (inst.n, inst.m)}
    for name, want in shapes.items():
        arr = getattr(inst, name)
        if arr.shape != want:
            errors.append(f"{name} has shape {arr.shape}, expected {want}")
    if errors:
        return errors

    if not np.isfinite(inst.u).all():
        errors.append("non-finite customer weight")
    elif (inst.u <= 0).any():
        i, j = np.argwhere(inst.u <= 0)[0]
        errors.append(f"nonpositive customer weight u[{i}][{j}] = {inst.u[i, j]}")
    if not np.isfinite(inst.w).all():
        errors.append("non-finite supplier weight")
    elif (inst.w <= 0).any():
        j, i = np.argwhere(inst.w <= 0)[0]
        errors.append(f"nonpositive supplier weight w[{j}][{i}] = {inst.w[j, i]}")
    if not np.isfinite(inst.r).all():
        errors.append("non-finite revenue")
    elif (inst.r < 0).any():
        i, j = np.argwhere(inst.r < 0)[0]
        errors.append(f"negative revenue r[{i}][{j}] = {inst.r[i, j]}")
    if not np.isfinite(inst.revenue_scale) or inst.revenue_scale <= 0:
        errors.append(f"revenue_scale must be positive and finite, got {inst.revenue_scale}")
    return errors


def as_permutation(order, n: int) -> tuple[int, ...]:
    """``order`` as a tuple, checked to be a permutation of range(n)."""
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of range({n})")
    return order


def batch_size(insts: Sequence[Instance]) -> tuple[int, int]:
    """The (n, m) that every instance of a batch shares; ``ValueError`` for
    an empty batch or one of mixed sizes."""
    sizes = {(inst.n, inst.m) for inst in insts}
    if len(sizes) != 1:
        raise ValueError(f"a batch needs instances of one size (n, m), got {sorted(sizes)}")
    return sizes.pop()


def normalize_revenues(inst: Instance) -> Instance:
    """Rescale revenues so the largest pair revenue is exactly 1.

    The factor divided out accumulates into ``revenue_scale``. All-zero
    revenue matrices pass through unchanged. Idempotent: a second call
    divides by 1.
    """
    peak = float(inst.r.max()) if inst.r.size else 0.0
    if peak <= 0.0:
        return inst
    return Instance(
        n=inst.n,
        m=inst.m,
        u=inst.u,
        w=inst.w,
        r=inst.r / peak,
        revenue_scale=inst.revenue_scale * peak,
    )


def lexicographic_order(inst: Instance) -> tuple[int, ...]:
    """The lexicographic candidate order: customers sorted descending by
    their revenue vector (supplier 0 first, ties broken by supplier 1, ...,
    then by customer index)."""
    return tuple(sorted(inst.customers(), key=lambda i: tuple(-inst.r[i]) + (i,)))


def detect_same_order(inst: Instance) -> SameOrderCertificate:
    """Find a customer order along which every supplier's revenue column is
    nonincreasing, if one exists.

    The lexicographic candidate order is verified against every supplier.
    O(n log n * m).
    """
    order = lexicographic_order(inst)
    for t in range(inst.n - 1):
        if not (inst.r[order[t]] >= inst.r[order[t + 1]]).all():
            return SameOrderCertificate(None)
    return SameOrderCertificate(order)


def generate(kind: str, n: int, m: int, seed: int) -> Instance:
    """Generate a random instance, deterministic in ``seed``.

    Weights are log-uniform in [0.1, 10] on both sides. Revenues depend on
    ``kind``: independent U[0,1] entries, additive r_i + r_j, multiplicative
    r_i * r_j, or a per-supplier constant r_j.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    lo, hi = np.log10(WEIGHT_LOW), np.log10(WEIGHT_HIGH)
    u = 10.0 ** rng.uniform(lo, hi, size=(n, m))
    w = 10.0 ** rng.uniform(lo, hi, size=(m, n))
    if kind == "uniform-random":
        r = rng.uniform(0.0, 1.0, size=(n, m))
    elif kind == "same-order-additive":
        ri = rng.uniform(0.0, 1.0, size=n)
        rj = rng.uniform(0.0, 1.0, size=m)
        r = ri[:, None] + rj[None, :]
    elif kind == "same-order-multiplicative":
        ri = rng.uniform(0.0, 1.0, size=n)
        rj = rng.uniform(0.0, 1.0, size=m)
        r = ri[:, None] * rj[None, :]
    else:  # supplier-uniform
        rj = rng.uniform(0.0, 1.0, size=m)
        r = np.tile(rj, (n, 1))
    return Instance(n=n, m=m, u=u, w=w, r=r)


def to_dict(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "u": inst.u.tolist(),
        "w": inst.w.tolist(),
        "r": inst.r.tolist(),
        "revenue_scale": inst.revenue_scale,
    }


def from_dict(data: dict) -> Instance:
    try:
        inst = Instance(
            n=int(data["n"]),
            m=int(data["m"]),
            u=np.array(data["u"], dtype=float),
            w=np.array(data["w"], dtype=float),
            r=np.array(data["r"], dtype=float),
            revenue_scale=float(data.get("revenue_scale", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    return inst


def dumps(inst: Instance) -> str:
    """Serialize to the canonical instance document (byte-stable; floats
    round-trip at full precision via repr)."""
    return json.dumps(to_dict(inst), sort_keys=True, indent=2) + "\n"


def save_instance(inst: Instance, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(inst), encoding="utf-8")
    return path


def load_instance(path: str | Path) -> Instance:
    text = Path(path).read_text(encoding="utf-8")
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("instance document root must be an object")
    return from_dict(data)
