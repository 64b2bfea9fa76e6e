import dataclasses

import numpy as np
import pytest

from twosided.instance import Instance, generate, normalize_revenues
from twosided.suites import counterexample_instance


@pytest.fixture
def unit_instance() -> Instance:
    """One customer, one supplier, all parameters 1."""
    return Instance(n=1, m=1, u=[[1.0]], w=[[1.0]], r=[[1.0]])


@pytest.fixture
def counterexample() -> Instance:
    """Single supplier, weights (1, 1, 3), revenues (4, 3, 2): monotone but
    not submodular optimal-revenue function."""
    return counterexample_instance()


@pytest.fixture
def zero_revenue_instance() -> Instance:
    rng = np.random.default_rng(5)
    return Instance(
        n=3,
        m=2,
        u=rng.uniform(0.5, 2.0, (3, 2)),
        w=rng.uniform(0.5, 2.0, (2, 3)),
        r=np.zeros((3, 2)),
    )


@pytest.fixture
def tiny_weight():
    """uniform-random 3x2 seed 1 with u[0][0] = 10^-exponent, normalized:
    one customer weight far below the others, as a near-forbidden pair."""

    def make(exponent: float) -> Instance:
        inst = generate("uniform-random", 3, 2, 1)
        u = inst.u.copy()
        u[0][0] = 10.0**-exponent
        return normalize_revenues(dataclasses.replace(inst, u=u))

    return make
