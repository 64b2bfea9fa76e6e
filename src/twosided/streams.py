"""The uniforms of many per-trial generators at once.

Trial k of a Monte Carlo run draws from
``np.random.default_rng(np.random.SeedSequence((master_seed, k)))``. Building
one ``Generator`` per trial costs more than the trial's own work, so
:func:`trial_uniforms` computes the same numbers for a whole batch of trials
with array arithmetic: the ``SeedSequence`` entropy pool and its
``generate_state`` hash on uint32 words, then ``PCG64``'s seeding, its
128-bit LCG step and XSL-RR output on pairs of uint64 words, and
``Generator.random``'s 53-bit conversion. Every value equals the one the
trial's own generator returns; the equivalence tests hold it to ``==``.
"""

from __future__ import annotations

import operator

import numpy as np

WORD = 32
WORD_MASK = (1 << WORD) - 1
POOL_SIZE = 4  # SeedSequence's default pool, in uint32 words
# SeedSequence's hash constants
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = np.uint32(WORD // 2)
# PCG64's 128-bit multiplier, as high and low 64-bit words
PCG_MULT_HIGH, PCG_MULT_LOW = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
TO_UNIT = 1.0 / (1 << 53)


def _words(value) -> list[int]:
    """The uint32 entropy words SeedSequence takes from one integer: little
    endian, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    words = [value & WORD_MASK]
    while value > WORD_MASK:
        value >>= WORD
        words.append(value & WORD_MASK)
    return words


class _Hash:
    """SeedSequence's running hash: the constant steps the same way for
    every trial, the values are one uint32 per trial."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & WORD_MASK
        value = value * np.uint32(self.const)
        return value ^ (value >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return result ^ (result >> XSHIFT)


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` per trial, from
    each trial's uint32 entropy words."""
    count = entropy[0].size
    hashmix = _Hash(INIT_A, MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(count, np.uint32)) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_out = _Hash(INIT_B, MULT_B)
    halves = [hash_out(pool[i % POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [halves[2 * w] | halves[2 * w + 1] << np.uint64(WORD) for w in range(4)]


def _mul_high(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b."""
    mask, shift = np.uint64(WORD_MASK), np.uint64(WORD)
    a_lo, a_hi = a & mask, a >> shift
    b_lo, b_hi = b & mask, b >> shift
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (lo_lo >> shift) + (hi_lo & mask) + (lo_hi & mask)
    return a_hi * b_hi + (hi_lo >> shift) + (lo_hi >> shift) + (mid >> shift)


def _add(a_hi, a_lo, b_hi, b_lo):
    """128-bit sums of (high, low) word pairs, modulo 2^128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _uniforms(entropy: list[np.ndarray], draws: int) -> np.ndarray:
    """``Generator(PCG64(SeedSequence(words))).random(draws)`` per trial,
    from each trial's uint32 entropy words."""
    init_hi, init_lo, seq_hi, seq_lo = _seed_state(entropy)
    one = np.uint64(1)
    inc_hi = seq_hi << one | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << one | one

    def step(hi, lo):  # state * multiplier + increment
        hi = _mul_high(lo, PCG_MULT_LOW) + lo * PCG_MULT_HIGH + hi * PCG_MULT_LOW
        return _add(hi, lo * PCG_MULT_LOW, inc_hi, inc_lo)

    # PCG64's seeding from a zero state: step, add the initial state, step
    hi, lo = step(*_add(inc_hi, inc_lo, init_hi, init_lo))
    out = np.empty((init_hi.size, draws))
    for d in range(draws):
        hi, lo = step(hi, lo)
        folded, turn = hi ^ lo, hi >> np.uint64(58)
        rotated = folded >> turn | folded << (np.uint64(64) - turn & np.uint64(63))
        out[:, d] = (rotated >> np.uint64(11)).astype(np.float64) * TO_UNIT
    return out


def trial_uniforms(master_seed: int, first: int, count: int, draws: int) -> np.ndarray:
    """(count, draws) uniforms: row r holds the first ``draws`` values of
    ``np.random.default_rng(np.random.SeedSequence((master_seed, first +
    r))).random()``, in order."""
    master = [np.full(count, word, dtype=np.uint32) for word in _words(master_seed)]
    last = first + count - 1
    split = 1 << WORD * len(_words(first))
    if last >= split:  # trial indices that need one more entropy word start here
        head = trial_uniforms(master_seed, first, split - first, draws)
        return np.concatenate([head, trial_uniforms(master_seed, split, last + 1 - split, draws)])
    trials = np.arange(first, first + count, dtype=np.uint64)
    index = [(trials >> np.uint64(WORD * w) & np.uint64(WORD_MASK)).astype(np.uint32)
             for w in range(len(_words(first)))]
    return _uniforms(master + index, draws)
