from itertools import combinations

import numpy as np
import pytest

from oracles import reference_sub_dual_exact
from twosided.cost_assortment import SubDualOracle, rev_cost
from twosided.ellipsoid import solve_restricted
from twosided.instance import Instance, generate
from twosided.mnl import expected_revenue, expected_revenue_table, optimal_revenue, subset_of

TOL = 1e-9


def decoded(oracle, j, gamma, delta=0.0):
    """The oracle's answer with its mask spelled out as a customer tuple,
    the form of ``reference_sub_dual_exact``."""
    value, mask = oracle(j, gamma, delta)
    return value, subset_of(mask, oracle.inst.n)


def test_rev_cost_zero_costs_is_expected_revenue(counterexample):
    gamma = np.zeros((3, 1))
    for subset in [(0,), (0, 2), (0, 1, 2)]:
        assert rev_cost(counterexample, 0, subset, gamma) == pytest.approx(
            expected_revenue(counterexample, 0, subset), abs=TOL
        )


def test_rev_cost_empty_set(counterexample):
    assert rev_cost(counterexample, 0, (), np.full((3, 1), 0.1)) == 0.0


def test_rev_cost_counterexample_flat_cost(counterexample):
    gamma = np.full((3, 1), 0.1)
    got = rev_cost(counterexample, 0, (0, 2), gamma)
    assert got == pytest.approx(2.0 - 0.2, abs=TOL)
    # cross-check against direct enumeration of the formula
    want = expected_revenue(counterexample, 0, (0, 2)) - 0.2
    assert got == pytest.approx(want, abs=TOL)


def test_sub_dual_large_costs_pick_empty(counterexample):
    gamma = np.full((3, 1), 5.0)  # above every revenue
    value, mask = SubDualOracle(counterexample)(0, gamma)
    assert value == 0.0 and mask == 0


def test_sub_dual_zero_costs_equals_optimal_revenue(counterexample):
    value, subset = decoded(SubDualOracle(counterexample), 0, np.zeros((3, 1)))
    want, _ = optimal_revenue(counterexample, 0, (0, 1, 2))
    assert value == pytest.approx(want, abs=TOL)
    assert rev_cost(counterexample, 0, subset, np.zeros((3, 1))) == pytest.approx(value, abs=TOL)


def test_sub_dual_matches_explicit_enumeration(counterexample):
    gamma = np.full((3, 1), 0.1)
    best = max(
        rev_cost(counterexample, 0, subset_of(mask, 3), gamma) for mask in range(8)
    )
    value, subset = decoded(SubDualOracle(counterexample), 0, gamma)
    assert value == pytest.approx(best, abs=TOL)
    assert rev_cost(counterexample, 0, subset, gamma) == pytest.approx(best, abs=TOL)


def test_sub_dual_dominates_every_set():
    rng = np.random.default_rng(4)
    for seed in range(20):
        inst = generate("uniform-random", 5, 2, seed)
        gamma = rng.normal(0.0, 0.3, (5, 2))
        j = seed % 2
        value, _ = SubDualOracle(inst)(j, gamma)
        assert value >= -TOL
        for _ in range(10):
            subset = subset_of(int(rng.integers(0, 32)), 5)
            assert value >= rev_cost(inst, j, subset, gamma) - TOL


def test_sub_dual_monotone_in_costs():
    rng = np.random.default_rng(9)
    for seed in range(20):
        inst = generate("uniform-random", 5, 2, seed)
        gamma = rng.normal(0.0, 0.3, (5, 2))
        j = seed % 2
        base, _ = SubDualOracle(inst)(j, gamma)
        lowered = gamma.copy()
        lowered[int(rng.integers(0, 5)), j] -= rng.uniform(0.0, 0.5)
        value, _ = SubDualOracle(inst)(j, lowered)
        assert value >= base - TOL


def test_default_oracle_identical_to_exact(counterexample):
    gamma = np.full((3, 1), 0.1)
    assert decoded(SubDualOracle(counterexample), 0, gamma) == reference_sub_dual_exact(counterexample, 0, gamma)


def test_default_oracle_zero_costs(counterexample):
    oracle = SubDualOracle(counterexample)
    assert not hasattr(oracle, "delta")
    value, _ = oracle(0, np.zeros((3, 1)))
    want, _ = optimal_revenue(counterexample, 0, (0, 1, 2))
    assert value == pytest.approx(want, abs=TOL)


def test_relaxed_oracle_respects_its_guarantee():
    rng = np.random.default_rng(13)
    for seed in range(10):
        inst = generate("uniform-random", 5, 2, seed)
        gamma = rng.normal(0.0, 0.3, (5, 2))
        j = seed % 2
        oracle = SubDualOracle(inst)
        exact, _ = oracle(j, gamma)
        value, subset = decoded(oracle, j, gamma, 0.25)
        assert value == pytest.approx(rev_cost(inst, j, subset, gamma), abs=TOL)
        assert value >= (1.0 - 0.25) * exact - TOL


def test_relaxed_oracle_delta_zero_matches_exact():
    inst = generate("uniform-random", 4, 2, 3)
    gamma = np.zeros((4, 2))
    assert decoded(SubDualOracle(inst), 0, gamma, 0.0) == reference_sub_dual_exact(inst, 0, gamma)


def test_oracle_config_validation(counterexample, unit_instance, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an oracle was built for an invalid delta")

    oracle = SubDualOracle(counterexample)
    for delta in (-0.1, 1.0, float("nan")):
        with pytest.raises(ValueError, match="delta must be in"):
            oracle(0, np.zeros((3, 1)), delta)
    # a solve refuses the slack before it builds its oracle, so before its
    # first cut
    monkeypatch.setattr("twosided.ellipsoid.SubDualOracle", unreachable)
    for delta in (-0.1, 1.0, float("nan")):
        with pytest.raises(ValueError, match="delta must be in"):
            solve_restricted(unit_instance, 40, delta=delta)


def test_tie_break_smaller_then_lex():
    # all-zero revenues: every set scores 0, the empty set must win
    inst = generate("uniform-random", 4, 2, 0)
    zero = np.zeros((4, 2))
    value, mask = SubDualOracle(
        type(inst)(n=4, m=2, u=inst.u, w=inst.w, r=np.zeros((4, 2)))
    )(0, zero)
    assert value == 0.0 and mask == 0


def test_relaxed_picks_match_size_then_lex_scan():
    # brute force: walk sets by size, lexicographically within a size, and
    # take the first whose value reaches (1 - delta) times the maximum
    rng = np.random.default_rng(21)
    n = 5
    for seed in range(4):
        inst = generate("uniform-random", n, 2, seed)
        oracle = SubDualOracle(inst)  # one oracle answers at every delta
        for delta in (0.0, 0.1, 0.25, 0.5, 0.9):
            for _ in range(5):
                gamma = rng.normal(0.0, 0.3, (n, 2))
                j = int(rng.integers(0, 2))
                values = {
                    subset: expected_revenue_table(inst, j)[sum(1 << i for i in subset)]
                    - sum(gamma[i, j] for i in subset)
                    for size in range(n + 1)
                    for subset in combinations(range(n), size)
                }
                target = (1.0 - delta) * max(values.values())
                want = next(s for s, v in values.items() if v >= target - 1e-12)
                got_value, got_subset = decoded(oracle, j, gamma, delta)
                assert got_subset == want
                assert got_value == pytest.approx(values[want], abs=TOL)


def test_exact_oracle_matches_tie_break_on_ties():
    # zero costs on a zero-revenue instance tie all 16 sets, so the empty
    # set must win. Four identical customers at uniform cost 0.1 score
    # k/(1+k) - 0.1k on every set of size k, which peaks at k = 2: all six
    # pairs tie exactly, and the lex-first (0, 1) must win. The cases where
    # customers 2 and 3 earn nothing hold the oracle to the reference
    # without same-size ties, since adding such a customer lowers the MNL
    # revenue.
    ones = np.ones((4, 2))
    same = Instance(n=4, m=2, u=ones, w=ones.T, r=ones)
    uniform = np.full((4, 2), 0.1)
    for j in range(2):
        assert SubDualOracle(same)(j, uniform) == (2.0 / 3.0 - 0.2, 0b11)
    rng = np.random.default_rng(5)
    base = generate("uniform-random", 4, 2, 7)
    r = np.array(base.r)
    r[2:, :] = 0.0
    inst = Instance(n=4, m=2, u=base.u, w=base.w, r=r)
    flat = Instance(n=4, m=2, u=base.u, w=base.w, r=np.zeros((4, 2)))
    cases = [(flat, np.zeros((4, 2))), (same, uniform)]
    for _ in range(20):
        gamma = rng.normal(0.0, 0.3, (4, 2))
        gamma[2:, :] = 0.0
        cases.append((inst, gamma))
        cases.append((inst, rng.normal(0.0, 0.3, (4, 2))))
    for case, gamma in cases:
        oracle = SubDualOracle(case)
        for j in range(2):
            for _ in range(2):  # a repeat call gives the same answer
                assert decoded(oracle, j, gamma) == reference_sub_dual_exact(case, j, gamma)
