from collections import Counter

import numpy as np
import pytest

from twosided import mnl
from twosided.cost_assortment import SubDualOracle, rev_cost
from twosided.ellipsoid import solve_restricted
from twosided.evaluate import cost_share, revenue_order, submodularity_check
from twosided.instance import GENERATOR_KINDS, generate, normalize_revenues
from twosided.lp import RestrictedMaster
from twosided.suites import suite_chain
from twosided.mnl import (
    choice_prob,
    expected_revenue,
    expected_revenue_table,
    g_marginal,
    mask_of,
    optimal_revenue,
    optimal_revenue_bruteforce,
    optimal_revenue_table,
    subset_of,
    subset_sums,
)

TOL = 1e-9


def test_choice_prob_empty_assortment_outside():
    assert choice_prob([2.0, 5.0], (), None) == 1.0


def test_choice_prob_counterexample_weights():
    # weights (1, 1, 3), offered {0, 2}: last option picked w.p. 3/5
    assert choice_prob([1.0, 1.0, 3.0], (0, 2), 2) == pytest.approx(3.0 / 5.0, abs=TOL)


def test_choice_prob_single_unit_weight():
    assert choice_prob([1.0], (0,), 0) == pytest.approx(0.5, abs=TOL)


def test_choice_prob_not_offered_is_zero():
    assert choice_prob([1.0, 2.0], (0,), 1) == 0.0


def test_choice_prob_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        weights = rng.uniform(0.1, 10.0, k)
        mask = int(rng.integers(0, 2**k))
        subset = subset_of(mask, k)
        total = choice_prob(weights, subset, None) + sum(
            choice_prob(weights, subset, j) for j in subset
        )
        assert total == pytest.approx(1.0, abs=TOL)


def test_expected_revenue_empty_is_zero(counterexample):
    assert expected_revenue(counterexample, 0, ()) == 0.0


def test_expected_revenue_counterexample_values(counterexample):
    assert expected_revenue(counterexample, 0, (0, 2)) == pytest.approx(2.0, abs=TOL)
    assert expected_revenue(counterexample, 0, (2,)) == pytest.approx(1.5, abs=TOL)


def test_optimal_revenue_counterexample_values(counterexample):
    val, _ = optimal_revenue(counterexample, 0, (0, 1, 2))
    assert val == pytest.approx(7.0 / 3.0, abs=TOL)
    val, _ = optimal_revenue(counterexample, 0, (1, 2))
    assert val == pytest.approx(9.0 / 5.0, abs=TOL)
    assert optimal_revenue(counterexample, 0, ()) == (0.0, ())


def test_optimal_revenue_bounded_by_max_revenue(counterexample):
    val, chosen = optimal_revenue(counterexample, 0, (1, 2))
    assert val <= max(counterexample.r[i, 0] for i in (1, 2)) + TOL
    assert set(chosen) <= {1, 2}


def test_bruteforce_tie_on_counterexample(counterexample):
    val, chosen = optimal_revenue_bruteforce(counterexample, 0, (0, 2))
    assert val == pytest.approx(2.0, abs=TOL)
    assert chosen in ((0,), (0, 2))  # both achieve the max
    assert optimal_revenue_bruteforce(counterexample, 0, ()) == (0.0, ())


def test_prefix_search_matches_bruteforce():
    for seed in range(60):
        inst = generate("uniform-random", 8, 2, seed)
        j = seed % 2
        subset = subset_of(seed * 37 % 256, 8)
        fast, _ = optimal_revenue(inst, j, subset)
        slow, _ = optimal_revenue_bruteforce(inst, j, subset)
        assert fast == pytest.approx(slow, abs=TOL)


def test_bruteforce_size_limit():
    inst = generate("uniform-random", 4, 2, 0)
    with pytest.raises(ValueError):
        optimal_revenue_bruteforce(inst, 0, tuple(range(25)))


def test_g_marginal_counterexample(counterexample):
    assert g_marginal(counterexample, 0, 0, (2,)) == pytest.approx(0.5, abs=TOL)
    assert g_marginal(counterexample, 0, 0, (1, 2)) == pytest.approx(8.0 / 15.0, abs=TOL)


def test_g_marginal_on_empty_base():
    inst = generate("uniform-random", 4, 2, 17)
    for i in range(4):
        want = max(0.0, inst.r[i, 0] * inst.w[0, i] / (1.0 + inst.w[0, i]))
        assert g_marginal(inst, 0, i, ()) == pytest.approx(want, abs=TOL)


def test_g_marginal_rejects_member(counterexample):
    with pytest.raises(ValueError, match="already in"):
        g_marginal(counterexample, 0, 2, (1, 2))


def test_g_monotone():
    rng = np.random.default_rng(11)
    for seed in range(20):
        inst = generate("uniform-random", 6, 2, seed)
        j = seed % 2
        base_mask = int(rng.integers(0, 2**6))
        base = subset_of(base_mask, 6)
        for i in range(6):
            if i in base:
                continue
            assert g_marginal(inst, j, i, base) >= -TOL


def test_g_not_submodular_witness(counterexample):
    assert g_marginal(counterexample, 0, 0, (2,)) < g_marginal(counterexample, 0, 0, (1, 2))


def test_submodular_order_marginal_inequality():
    # customers indexed along the certificate order: marginals of a later
    # customer shrink as the base grows
    rng = np.random.default_rng(7)
    for seed in range(10):
        inst = generate("same-order-additive", 6, 2, seed)
        from twosided.instance import detect_same_order

        order = detect_same_order(inst).sigma
        assert order is not None
        pos = {c: t for t, c in enumerate(order)}
        for _ in range(30):
            b_mask = int(rng.integers(0, 2**6))
            a_mask = b_mask & int(rng.integers(0, 2**6))
            members_b = subset_of(b_mask, 6)
            last = max((pos[c] for c in members_b), default=-1)
            late = [order[t] for t in range(last + 1, 6)]
            if not late:
                continue
            i = late[int(rng.integers(0, len(late)))]
            j = seed % 2
            gain_b = g_marginal(inst, j, i, members_b)
            gain_a = g_marginal(inst, j, i, subset_of(a_mask, 6))
            assert gain_b <= gain_a + TOL


def test_tables_match_pointwise():
    inst = generate("uniform-random", 6, 2, 23)
    for j in range(2):
        rtab = expected_revenue_table(inst, j)
        gtab = optimal_revenue_table(inst, j)
        for mask in range(2**6):
            subset = subset_of(mask, 6)
            assert rtab[mask] == pytest.approx(expected_revenue(inst, j, subset), abs=TOL)
            assert gtab[mask] == pytest.approx(optimal_revenue(inst, j, subset)[0], abs=TOL)


def test_mask_roundtrip():
    assert mask_of((0, 2, 3), 5) == 0b1101
    assert subset_of(0b1101, 5) == (0, 2, 3)


def test_subset_sums_add_members_in_ascending_order():
    rng = np.random.default_rng(3)
    for n in range(8):
        v = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        got = subset_sums(v, 1.0)
        assert got.shape == (2**n,)
        for mask in range(2**n):
            want = 1.0
            for i in subset_of(mask, n):
                want += v[i]
            assert got[mask] == want  # the same additions, in the same order
    ints = subset_sums(np.array([3, 5], dtype=np.int64), 7)
    assert ints.dtype == np.int64 and ints.tolist() == [7, 10, 12, 15]
    assert subset_sums([]).tolist() == [0.0]
    # an (m, n) array sums each row as the 1-D call does
    floats = rng.normal(size=(3, 6)) * 10.0 ** rng.integers(-8, 8, size=(3, 6))
    for v, start in ((floats, 1.0), (rng.integers(-50, 50, size=(4, 5)), 7)):
        got = subset_sums(v, start)
        assert got.shape == (v.shape[0], 2 ** v.shape[1]) and got.dtype == v.dtype
        for row, sums in zip(v, got):
            assert sums.tobytes() == subset_sums(row, start).tobytes()


def test_stacked_row_builders_give_each_instance_table_row_bit_for_bit():
    # one supplier of each of several instances of one size, as the
    # correlation-gap suite stacks them
    for n in (1, 3, 6, 10):
        picks = [(generate(kind, n, 3, 60 + n), s % 3) for s, kind in enumerate(GENERATOR_KINDS * 2)]
        values = np.stack([inst.r[:, j] * inst.w[j] for inst, j in picks])
        weights = np.stack([inst.w[j] for inst, j in picks])
        rtabs = mnl.expected_revenue_rows(values, weights)
        gtabs = mnl.max_over_subsets(rtabs.copy())
        for (inst, j), rtab, gtab in zip(picks, rtabs, gtabs):
            assert rtab.tobytes() == expected_revenue_table(inst, j).tobytes()
            assert gtab.tobytes() == optimal_revenue_table(inst, j).tobytes()
    # the sweep reshapes in place, which a strided view would silently copy
    with pytest.raises(ValueError, match="C-contiguous"):
        mnl.max_over_subsets(np.zeros((8, 4)).T)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_revenue_table_is_expected_revenue_bit_for_bit(kind):
    for n in range(1, 11):
        inst = generate(kind, n, 2, 40 + n)
        for j in range(inst.m):
            table = expected_revenue_table(inst, j)
            want = [expected_revenue(inst, j, subset_of(mask, n)) for mask in range(2**n)]
            assert table.tobytes() == np.array(want).tobytes(), (n, j)


def test_revenue_tables_and_brute_force_form_no_mask_matrix(monkeypatch):
    def unreachable(k):
        raise AssertionError(f"a ({2**k}, {k}) mask matrix was formed")

    monkeypatch.setattr(mnl, "subset_masks", unreachable)
    inst = generate("uniform-random", 16, 2, 7)
    expected_revenue_table(inst, 1)
    optimal_revenue_table(inst, 0)
    RestrictedMaster(inst, [0, 1 << 16, 5, 1 << 16 | 0xBEEF])
    value, subset = optimal_revenue_bruteforce(inst, 0, range(16))
    assert value == pytest.approx(optimal_revenue(inst, 0, range(16))[0], abs=TOL)


def test_an_instance_builds_each_table_once(monkeypatch):
    builds, rows = Counter(), Counter()
    for name in ("build_expected_revenue_tables", "build_optimal_revenue_tables"):

        def counted(inst, _real=getattr(mnl, name), _name=name):
            table = _real(inst)
            builds[_name] += 1
            rows[_name] += table.shape[0]
            return table

        monkeypatch.setattr(mnl, name, counted)
    inst = normalize_revenues(generate("uniform-random", 8, 2, 77))
    solve = solve_restricted(inst)
    # the solve's oracle and master, and any later reader, share one table
    assert np.shares_memory(SubDualOracle(inst)._rtab, solve.master._revenue)
    assert builds == {"build_expected_revenue_tables": 1}
    for owned, row in (
        (inst.expected_revenue_tables, expected_revenue_table),
        (inst.optimal_revenue_tables, optimal_revenue_table),
    ):
        assert not owned.flags.writeable
        assert row(inst, 1).base is owned
        with pytest.raises(ValueError, match="read-only"):
            row(inst, 1)[0] = 1.0
    assert inst.optimal_revenue_tables is inst.optimal_revenue_tables
    assert builds == {"build_expected_revenue_tables": 1, "build_optimal_revenue_tables": 1}
    builds.clear()
    rows.clear()
    # STAR, both DPs and both exact LPs of each 3x2 instance read one set
    suite_chain(1)
    assert builds == {"build_expected_revenue_tables": 200, "build_optimal_revenue_tables": 200}
    assert rows == {"build_expected_revenue_tables": 400, "build_optimal_revenue_tables": 400}


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda inst, bad: expected_revenue(inst, 0, (bad, 2)),
        lambda inst, bad: optimal_revenue(inst, 0, (bad, 2)),
        lambda inst, bad: optimal_revenue_bruteforce(inst, 0, (bad, 2)),
        lambda inst, bad: g_marginal(inst, 0, 0, (bad, 2)),
        lambda inst, bad: g_marginal(inst, 0, bad, (2,)),
        lambda inst, bad: rev_cost(inst, 0, (bad, 2), np.zeros((3, 2))),
        lambda inst, bad: cost_share(inst, 0, bad, (0, 2)),
        lambda inst, bad: choice_prob(inst.w[0], (bad, 2), 2),
        lambda inst, bad: mask_of((bad, 2), 3),
    ],
    ids=["expected_revenue", "optimal_revenue", "bruteforce", "g_marginal_universe", "g_marginal_customer",
         "rev_cost", "cost_share", "choice_prob", "mask_of"],
)
def test_customers_outside_the_universe_are_refused(call, bad):
    # index -1 would read customer n - 1: here (-1, 2) would count customer
    # 2 twice, 0.0959 against 0.0746 for (2,)
    inst = generate("uniform-random", 3, 2, 1)
    with pytest.raises(IndexError, match="outside universe of size 3"):
        call(inst, bad)


@pytest.mark.parametrize("bad", [-1, 2])
@pytest.mark.parametrize(
    "call",
    [
        lambda inst, bad: expected_revenue(inst, bad, (0, 2)),
        lambda inst, bad: optimal_revenue(inst, bad, (0, 2)),
        lambda inst, bad: optimal_revenue_bruteforce(inst, bad, (0, 2)),
        lambda inst, bad: g_marginal(inst, bad, 0, (2,)),
        lambda inst, bad: rev_cost(inst, bad, (0, 2), np.zeros((3, 2))),
        lambda inst, bad: expected_revenue_table(inst, bad),
        lambda inst, bad: optimal_revenue_table(inst, bad),
        lambda inst, bad: cost_share(inst, bad, 0, (0, 2)),
        lambda inst, bad: submodularity_check(inst, bad),
        lambda inst, bad: revenue_order(inst, bad),
        lambda inst, bad: SubDualOracle(inst)(bad, np.zeros((3, 2))),
    ],
    ids=["expected_revenue", "optimal_revenue", "bruteforce", "g_marginal", "rev_cost",
         "expected_revenue_table", "optimal_revenue_table", "cost_share", "submodularity_check",
         "revenue_order", "oracle"],
)
def test_suppliers_outside_the_platform_are_refused(call, bad):
    # supplier -1 would read supplier m - 1, as customer -1 reads customer n - 1
    inst = generate("uniform-random", 3, 2, 1)
    with pytest.raises(IndexError, match=f"supplier {bad} outside the platform's 2 suppliers"):
        call(inst, bad)
