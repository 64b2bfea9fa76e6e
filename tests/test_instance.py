import json

import numpy as np
import pytest

from twosided.instance import (
    GENERATOR_KINDS,
    Instance,
    detect_same_order,
    dumps,
    generate,
    load_instance,
    normalize_revenues,
    save_instance,
    validate,
)


def test_validate_minimal_instance_ok(unit_instance):
    assert validate(unit_instance) == []


def test_validate_flags_nonpositive_weight():
    inst = Instance(n=1, m=1, u=[[0.0]], w=[[1.0]], r=[[1.0]])
    errors = validate(inst)
    assert any("nonpositive customer weight" in e for e in errors)


def test_validate_flags_negative_revenue():
    inst = Instance(n=1, m=1, u=[[1.0]], w=[[1.0]], r=[[-0.5]])
    errors = validate(inst)
    assert any("negative revenue" in e for e in errors)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_validate_flags_non_finite_revenue_scale(scale):
    inst = Instance(n=1, m=1, u=[[1.0]], w=[[1.0]], r=[[1.0]], revenue_scale=scale)
    assert any("revenue_scale must be positive and finite" in e for e in validate(inst))


def test_validate_flags_dimension_mismatch():
    inst = Instance(n=2, m=1, u=[[1.0]], w=[[1.0, 1.0]], r=[[1.0], [1.0]])
    assert any("shape" in e for e in validate(inst))


def test_normalize_divides_by_peak(counterexample):
    norm = normalize_revenues(counterexample)
    assert norm.revenue_scale == 4.0
    assert np.allclose(norm.r[:, 0], [1.0, 0.75, 0.5])
    assert float(norm.r.max()) == 1.0


def test_normalize_zero_revenues_passthrough(zero_revenue_instance):
    norm = normalize_revenues(zero_revenue_instance)
    assert norm.revenue_scale == 1.0
    assert np.array_equal(norm.r, zero_revenue_instance.r)


def test_normalize_idempotent(counterexample):
    once = normalize_revenues(counterexample)
    twice = normalize_revenues(once)
    assert np.array_equal(once.r, twice.r)
    assert twice.revenue_scale == once.revenue_scale


def test_normalize_max_one_keeps_values():
    inst = Instance(n=1, m=2, u=[[1.0, 1.0]], w=[[1.0], [1.0]], r=[[1.0, 0.25]])
    norm = normalize_revenues(inst)
    assert np.array_equal(norm.r, inst.r)
    assert norm.revenue_scale == 1.0


def test_detect_same_order_additive_identity():
    # r[i][j] = r_i + r_j with descending r_i makes the identity an order
    ri = np.array([3.0, 2.0, 1.0])
    rj = np.array([0.5, 1.5])
    inst = Instance(
        n=3, m=2, u=np.ones((3, 2)), w=np.ones((2, 3)), r=ri[:, None] + rj[None, :]
    )
    cert = detect_same_order(inst)
    assert cert.sigma == (0, 1, 2)


def test_detect_same_order_absent():
    inst = Instance(n=2, m=2, u=np.ones((2, 2)), w=np.ones((2, 2)), r=[[1.0, 0.0], [0.0, 1.0]])
    cert = detect_same_order(inst)
    assert cert.sigma is None
    assert not cert


def test_detect_same_order_single_customer():
    inst = Instance(n=1, m=3, u=np.ones((1, 3)), w=np.ones((3, 1)), r=[[0.3, 0.1, 0.9]])
    assert detect_same_order(inst).sigma == (0,)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_always_valid(kind):
    for seed in range(10):
        inst = generate(kind, 4, 3, seed)
        assert validate(inst) == []
        assert (inst.u >= 0.1).all() and (inst.u <= 10.0).all()
        assert (inst.w >= 0.1).all() and (inst.w <= 10.0).all()


@pytest.mark.parametrize("kind", ["same-order-additive", "same-order-multiplicative", "supplier-uniform"])
def test_generate_structured_kinds_have_certificate(kind):
    for seed in range(10):
        assert detect_same_order(generate(kind, 5, 3, seed))


def test_generate_supplier_uniform_columns_constant():
    inst = generate("supplier-uniform", 4, 3, 8)
    for j in range(3):
        assert np.all(inst.r[:, j] == inst.r[0, j])


def test_generate_deterministic():
    a = generate("uniform-random", 4, 3, 21)
    b = generate("uniform-random", 4, 3, 21)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w) and np.array_equal(a.r, b.r)


def test_generate_unknown_kind():
    with pytest.raises(ValueError, match="unknown generator kind"):
        generate("bogus", 2, 2, 0)


def test_normalize_preserves_same_order_outcome():
    for seed in range(5):
        inst = generate("same-order-additive", 4, 2, seed)
        assert detect_same_order(normalize_revenues(inst)).sigma == detect_same_order(inst).sigma
    inst = Instance(n=2, m=2, u=np.ones((2, 2)), w=np.ones((2, 2)), r=[[2.0, 0.0], [0.0, 2.0]])
    assert detect_same_order(normalize_revenues(inst)).sigma is None


def test_file_roundtrip_exact(tmp_path):
    inst = generate("uniform-random", 3, 2, 99)
    path = save_instance(inst, tmp_path / "inst.json")
    back = load_instance(path)
    assert back.n == inst.n and back.m == inst.m
    assert np.array_equal(back.u, inst.u)
    assert np.array_equal(back.w, inst.w)
    assert np.array_equal(back.r, inst.r)
    assert back.revenue_scale == inst.revenue_scale
    # canonical serialization is byte-stable
    assert dumps(back) == dumps(inst)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "m": 1}), encoding="utf-8")
    with pytest.raises(ValueError, match="malformed"):
        load_instance(path)
