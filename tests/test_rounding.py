import numpy as np
import pytest

from twosided.rounding import (
    AssortmentDistribution,
    MarginalsInfeasible,
    choice_cdf,
    induced_marginals,
    inverse_cdf,
    mnl_distribution,
    validate_marginals,
)

TOL = 1e-9


def random_feasible_row(rng: np.random.Generator, m: int, tight: bool = False):
    """Random (x, u) with x in the MNL marginal polytope; ``tight`` pins the
    binding constraint to exactly 1."""
    u = 10.0 ** rng.uniform(-1.0, 1.0, m)
    z = rng.uniform(0.0, 1.0, m)
    if rng.uniform() < 0.2:
        z[rng.integers(0, m)] = 0.0
    cap = float((z / u).max() + z.sum())
    if cap == 0.0:
        return z, u
    theta = 1.0 if tight else float(rng.uniform(0.0, 1.0))
    return z * (theta / cap), u


def test_zero_marginals_give_empty_assortment():
    dist = mnl_distribution([0.0, 0.0], [1.0, 2.0])
    assert dict(dist.support)[()] == pytest.approx(1.0, abs=TOL)
    assert validate_marginals(dist, [1.0, 2.0], [0.0, 0.0]) <= TOL


def test_single_supplier_hand_values():
    dist = mnl_distribution([0.25], [1.0])
    support = dict(dist.support)
    assert support[()] == pytest.approx(0.5, abs=TOL)
    assert support[(0,)] == pytest.approx(0.5, abs=TOL)
    assert induced_marginals(dist, [1.0])[0] == pytest.approx(0.25, abs=TOL)


def test_tight_row_hand_values():
    # x/u + sum(x) = 1 exactly: all mass on the full assortment
    dist = mnl_distribution([1.0 / 3.0, 1.0 / 3.0], [1.0, 1.0])
    support = dict(dist.support)
    assert support[()] == pytest.approx(0.0, abs=TOL)
    assert support[(0, 1)] == pytest.approx(1.0, abs=TOL)
    assert validate_marginals(dist, [1.0, 1.0], [1.0 / 3.0, 1.0 / 3.0]) <= TOL


def test_support_is_nested_chain():
    rng = np.random.default_rng(2)
    x, u = random_feasible_row(rng, 5)
    dist = mnl_distribution(x, u)
    sets = dist.sets
    assert sets[0] == ()
    for small, large in zip(sets, sets[1:]):
        assert set(small) < set(large)


def test_marginals_match_on_random_rows():
    rng = np.random.default_rng(10)
    for k in range(300):
        m = int(rng.integers(1, 9))
        x, u = random_feasible_row(rng, m, tight=(k % 7 == 0))
        dist = mnl_distribution(x, u)
        probs = dist.probabilities
        assert (probs >= 0.0).all()
        assert probs.sum() == pytest.approx(1.0, abs=TOL)
        assert validate_marginals(dist, u, x) <= TOL


def test_corrupted_distribution_detected():
    dist = mnl_distribution([0.25], [1.0])
    corrupted = AssortmentDistribution(support=(((), 0.6), ((0,), 0.4)))
    assert validate_marginals(corrupted, [1.0], [0.25]) > 0.01


def test_tie_order_invariance():
    # equal x/u ratios: ties keep index order, so reversing the suppliers
    # takes the other tie order, and both induce identical marginals
    u = np.array([1.0, 2.0])
    x = np.array([0.2, 0.4])
    a = mnl_distribution(x, u)
    b = mnl_distribution(x[::-1], u[::-1])
    assert a.sets != [tuple(sorted(1 - j for j in s)) for s in b.sets]
    assert np.allclose(induced_marginals(a, u), induced_marginals(b, u[::-1])[::-1], atol=1e-12)
    assert validate_marginals(a, u, x) <= TOL
    assert validate_marginals(b, u[::-1], x[::-1]) <= TOL


def test_infeasible_row_rejected():
    with pytest.raises(MarginalsInfeasible):
        mnl_distribution([0.9, 0.9], [1.0, 1.0])
    with pytest.raises(MarginalsInfeasible):
        mnl_distribution([-0.1], [1.0])


@pytest.mark.parametrize(
    "x, u",
    [
        ([np.nan, 0.1], [1.0, 1.0]),
        ([0.1, 0.1], [1.0, np.nan]),
        ([np.inf, 0.1], [1.0, 1.0]),
        ([0.1, 0.1], [np.inf, 1.0]),
        ([0.0, 0.1], [0.0, 1.0]),
    ],
)
def test_non_finite_row_or_zero_weight_rejected(x, u):
    # a NaN marginal, or a zero weight's 0/0 ratio, passes every inequality
    # check and would give all-NaN probabilities, refused only when a run
    # reads their CDF
    with pytest.raises(MarginalsInfeasible, match="non-finite"):
        mnl_distribution(x, u)


def test_tiny_violation_clamped_larger_rejected():
    # rounding noise within -1e-12 of mass is clamped and renormalized ...
    x = np.array([1.0 / 3.0, 1.0 / 3.0]) * (1.0 + 2e-13)
    dist = mnl_distribution(x, [1.0, 1.0])
    probs = dist.probabilities
    assert (probs >= 0.0).all()
    assert probs.sum() == pytest.approx(1.0, abs=TOL)
    # ... but a row inside the 1e-9 precondition slack that produces more
    # negative mass than the clamp allows is an error, not a repair
    x = np.array([1.0 / 3.0, 1.0 / 3.0]) * (1.0 + 5e-10)
    with pytest.raises(MarginalsInfeasible, match="clamp"):
        mnl_distribution(x, [1.0, 1.0])


def test_empirical_sampling_matches_marginals():
    rng = np.random.default_rng(42)
    x, u = random_feasible_row(np.random.default_rng(3), 4)
    dist = mnl_distribution(x, u)
    draws = 100_000
    counts = np.zeros(4)
    sets = dist.sets
    set_counts = rng.multinomial(draws, dist.probabilities)
    for subset, cnt in zip(sets, set_counts):
        if not subset or cnt == 0:
            continue
        weights = np.array([u[j] for j in subset])
        probs = np.concatenate([weights, [1.0]]) / (1.0 + weights.sum())
        picks = rng.multinomial(cnt, probs)
        for pos, j in enumerate(subset):
            counts[j] += picks[pos]
    freq = counts / draws
    stderr = np.sqrt(np.maximum(x * (1.0 - x), 1e-12) / draws)
    assert (np.abs(freq - x) <= 3.0 * stderr + 1e-12).all()


def test_inverse_cdf_takes_the_first_entry_above_the_uniform():
    # Generator.choice's rule: a uniform on a breakpoint selects the next entry
    cdf = choice_cdf([0.25, 0.0, 0.25, 0.5])  # [0.25, 0.25, 0.5, 1.0]
    u = np.array([0.0, 0.2, 0.25, 0.3, 0.5, 0.75, 0.999])
    assert inverse_cdf(cdf, u).tolist() == [0, 0, 2, 2, 3, 3, 3]
    assert [int(inverse_cdf(cdf, x)) for x in u] == [0, 0, 2, 2, 3, 3, 3]
