import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polquat import (
    Axis,
    I,
    J,
    K,
    ONE,
    OrthogonalityClass,
    Quaternion,
    allclose,
    classify_orthogonality,
    precess,
)
from util import rand_quat, rand_unit_vector

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_hand_expanded_product():
    # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)


def test_identity_and_scalar_multiplication():
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert ONE * q == q
    assert q * ONE == q
    assert 2.0 * q == q * 2.0 == q + q


def test_conjugate():
    q = Quaternion(1, 1, 1, 1)
    assert q.conjugate() == Quaternion(1, -1, -1, -1)
    assert q.conjugate().conjugate() == q


@given(quats, quats)
def test_conjugate_product_rule(p, q):
    assert allclose((p * q).conjugate(), q.conjugate() * p.conjugate(), 1e-10)


def test_norm_values():
    assert Quaternion(1, 1, 1, 1).norm() == 2.0
    assert allclose((3.0 * I).normalized(), I, 1e-15)
    with pytest.raises(ValueError):
        Quaternion().normalized()


@given(quats)
def test_norm_squared_is_scalar_of_qdagq(q):
    m = q.conjugate() * q
    assert abs(m.q0 - q.norm_sq()) <= 1e-9 * max(1.0, q.norm_sq())
    assert max(abs(m.q1), abs(m.q2), abs(m.q3)) <= 1e-12 * max(1.0, q.norm_sq())


def test_division_examples():
    assert allclose(J / I, K, 1e-15)          # since k * i = j
    assert allclose(I.left_div(K), J, 1e-15)  # since i * j = k
    q = Quaternion(0.5, -0.25, 1.0, 2.0)
    assert allclose(q / q, ONE, 1e-12)


def test_division_round_trips():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p, q = rand_quat(rng), rand_quat(rng)
        if q.norm() < 1e-3:
            continue
        assert allclose((p / q) * q, p, 1e-10)
        assert allclose(q * q.left_div(p), p, 1e-10)


def test_division_by_zero_raises():
    with pytest.raises(ValueError):
        ONE / Quaternion()
    with pytest.raises(ValueError):
        Quaternion().left_div(ONE)


def test_exp_euler_cases():
    assert allclose((I * (math.pi / 2)).exp(), I, 1e-15)
    assert allclose(Quaternion().exp(), ONE, 1e-15)
    v = Quaternion(0, 0.6, 0.8, 0.0)
    got = (v * 0.5).exp()
    assert allclose(got, Quaternion(math.cos(0.5), 0.6 * math.sin(0.5),
                                    0.8 * math.sin(0.5), 0.0), 1e-15)


def test_exp_additivity_for_parallel_vector_parts():
    rng = np.random.default_rng(8)
    for _ in range(50):
        v = rand_unit_vector(rng)
        a0, a1, b0, b1 = rng.normal(size=4)
        p = Quaternion(float(a0), 0, 0, 0) + v * float(a1)
        q = Quaternion(float(b0), 0, 0, 0) + v * float(b1)
        lhs = p.exp() * q.exp()
        rhs = (p + q).exp()
        scale = max(1.0, rhs.norm())
        assert allclose(lhs, rhs, 1e-12 * scale)
        assert allclose(lhs, q.exp() * p.exp(), 1e-12 * scale)


def test_log_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(200):
        v = rand_unit_vector(rng)
        theta = rng.uniform(0.01, math.pi - 0.01)
        assert allclose((v * theta).exp().log(), v * theta, 1e-10)


def test_log_conventions():
    with pytest.raises(ValueError):
        Quaternion().log()
    # negative real axis: i axis and angle pi by convention
    assert allclose(Quaternion(-2.0, 0, 0, 0).log(),
                    Quaternion(math.log(2.0), math.pi, 0, 0), 1e-15)
    assert allclose(Quaternion(3.0, 0, 0, 0).log(),
                    Quaternion(math.log(3.0), 0, 0, 0), 1e-15)


def test_partial_conjugate_componentwise():
    q = Quaternion(1, 1, 1, 1)
    assert q.partial_conjugate(Axis.I) == Quaternion(1, -1, 1, 1)
    assert q.partial_conjugate(Axis.J) == Quaternion(1, 1, -1, 1)
    assert q.partial_conjugate(Axis.K) == Quaternion(1, 1, 1, -1)


@given(quats)
def test_partial_conjugate_closed_form(q):
    # componentwise definition must agree with -v conj(q) v
    for axis in Axis:
        v = axis.unit
        assert allclose(q.partial_conjugate(axis), -(v * q.conjugate() * v), 1e-12)


@given(quats, quats)
def test_partial_conjugate_product_rule_exchanges(p, q):
    for axis in Axis:
        lhs = (p * q).partial_conjugate(axis)
        rhs = q.partial_conjugate(axis) * p.partial_conjugate(axis)
        assert allclose(lhs, rhs, 1e-9)


def test_partial_conjugate_sum_and_products_lack_axis_component():
    rng = np.random.default_rng(10)
    for _ in range(50):
        q = rand_quat(rng)
        for axis, pick in ((Axis.I, "q1"), (Axis.J, "q2"), (Axis.K, "q3")):
            qc = q.partial_conjugate(axis)
            assert getattr(q + qc, pick) == 0.0
            assert abs(getattr(q * qc, pick)) <= 1e-12
            assert abs(getattr(qc * q, pick)) <= 1e-12


def test_double_conjugate_componentwise():
    q = Quaternion(1, 1, 1, 1)
    assert q.double_conjugate(Axis.K) == Quaternion(1, -1, -1, 1)
    assert q.double_conjugate(Axis.I) == Quaternion(1, 1, -1, -1)
    assert q.double_conjugate(Axis.J) == Quaternion(1, -1, 1, -1)


@given(quats)
def test_double_conjugate_closed_form(q):
    # -v q v (no inner conjugate), checked against the componentwise form
    for axis in Axis:
        v = axis.unit
        assert allclose(q.double_conjugate(axis), -(v * q * v), 1e-12)


@given(quats, quats)
def test_double_conjugate_product_rule_keeps_order(p, q):
    for axis in Axis:
        lhs = (p * q).double_conjugate(axis)
        rhs = p.double_conjugate(axis) * q.double_conjugate(axis)
        assert allclose(lhs, rhs, 1e-9)


def test_precess_quarter_turn():
    assert allclose(precess(I, J, math.pi / 4), K, 1e-15)


def test_precess_identity_and_invariants():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rand_quat(rng)
        v = rand_unit_vector(rng)
        theta = rng.uniform(-3, 3)
        out = precess(q, v, theta)
        assert allclose(precess(q, v, 0.0), q, 1e-15)
        assert abs(out.q0 - q.q0) <= 1e-12
        assert abs(out.vector_norm() - q.vector_norm()) <= 1e-12


def test_precess_rejects_bad_axis():
    with pytest.raises(ValueError):
        precess(ONE, Quaternion(0.5, 1, 0, 0), 0.3)
    with pytest.raises(ValueError):
        precess(ONE, Quaternion(0, 2, 0, 0), 0.3)


def is_orthogonal(p, q):
    """Sc(p conj(q)) vanishes: the classes whose m = p conj(q) has m0 = 0."""
    return classify_orthogonality(p, q) in (OrthogonalityClass.QUATERNION_ORTHOGONAL,
                                            OrthogonalityClass.ORTHOGONAL_SOP,
                                            OrthogonalityClass.SAME_SOP_ORTHOGONAL_PHASE)


def test_orthogonality():
    assert is_orthogonal(ONE, I)
    assert not is_orthogonal(ONE, ONE)
    rng = np.random.default_rng(12)
    for _ in range(50):
        q = rand_quat(rng)
        v = rand_unit_vector(rng)
        p = rand_quat(rng)
        if q.norm() < 1e-3 or p.norm() < 1e-3:
            continue
        assert is_orthogonal(q, q * v)
        assert is_orthogonal(q, v * q)
        # a vector factor inserted anywhere makes the product orthogonal to
        # the product without it: Sc(pq (pvq)^dag) = |p|^2 |q|^2 Sc(v^dag) = 0
        assert is_orthogonal(p * q, p * v * q)
        assert not is_orthogonal(q.normalized(), q.normalized())


def test_unit_vector_squares_to_minus_one():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        v = rand_unit_vector(rng)
        assert allclose(v * v, -ONE, 1e-12)


# -- multiplication reordering rules -------------------------------------------

def test_reordering_rule_1_parallel_vector_parts_commute():
    rng = np.random.default_rng(14)
    for _ in range(50):
        v = rand_unit_vector(rng)
        p = Quaternion(rng.normal(), 0, 0, 0) + v * rng.normal()
        q = Quaternion(rng.normal(), 0, 0, 0) + v * rng.normal()
        assert allclose(p * q, q * p, 1e-12)


def test_reordering_rule_2_orthogonal_vector_flips_conjugate():
    rng = np.random.default_rng(15)
    for _ in range(50):
        q = rand_quat(rng)
        # orthogonality of a vector quaternion to q only involves the vector
        # parts, so project a random 3-vector off Ve(q)
        qv = np.array([q.q1, q.q2, q.q3])
        w = rng.normal(size=3)
        if np.linalg.norm(qv) > 1e-12:
            w = w - qv * float(w @ qv) / float(qv @ qv)
        if np.linalg.norm(w) < 1e-3:
            continue
        w = w / np.linalg.norm(w)
        v = Quaternion(0.0, *(float(x) for x in w))
        assert abs((q * v.conjugate()).q0) <= 1e-12 * max(1.0, q.norm())
        assert allclose(q * v, v * q.conjugate(), 1e-10)


def test_reordering_rule_3_swaps_exponential_axis():
    rng = np.random.default_rng(16)
    for _ in range(50):
        u = rand_unit_vector(rng)
        w = rand_unit_vector(rng)
        w = w - u * (u * w.conjugate()).q0
        if w.norm() < 1e-3:
            continue
        v = w.normalized()
        theta = rng.uniform(-3, 3)
        uv = u * v
        lhs = (ONE + uv) * (u * theta).exp()
        rhs = (v * theta).exp() * (ONE + uv)
        assert allclose(lhs, rhs, 1e-10)
        lhs = (ONE - uv) * (u * theta).exp()
        rhs = (v * (-theta)).exp() * (ONE - uv)
        assert allclose(lhs, rhs, 1e-10)


def test_reordering_rule_4_precessed_axis():
    rng = np.random.default_rng(17)
    for _ in range(50):
        u = rand_unit_vector(rng)
        v = rand_unit_vector(rng)
        alpha, beta = rng.uniform(-3, 3, size=2)
        w = (u * alpha).exp() * v * (u * (-alpha)).exp()
        lhs = (u * alpha).exp() * (v * beta).exp()
        rhs = (w * beta).exp() * (u * alpha).exp()
        assert allclose(lhs, rhs, 1e-10)


# -- serialization -----------------------------------------------------------------

def test_text_round_trip_is_exact():
    rng = np.random.default_rng(19)
    for _ in range(100):
        q = rand_quat(rng, scale=10.0)
        assert Quaternion.from_text(",".join(map(repr, q))) == q
    assert Quaternion.from_text("1, -2.5,3e-4 ,0") == Quaternion(1.0, -2.5, 3e-4, 0.0)


def test_list_round_trip():
    q = Quaternion(0.1, -0.2, 0.3, -0.4)
    assert Quaternion(*q.to_list()) == q
    assert list(q) == q.to_list() == [0.1, -0.2, 0.3, -0.4]


@pytest.mark.parametrize("bad", ["1,2,3", "1,2,3,4,5", "a,b,c,d", ""])
def test_malformed_text_raises(bad):
    with pytest.raises(ValueError):
        Quaternion.from_text(bad)


@settings(max_examples=50)
@given(quats, quats, quats)
def test_bilinearity(p, q, r):
    lhs = p * (q + r)
    rhs = p * q + p * r
    scale = max(1.0, p.norm() * (q.norm() + r.norm()))
    assert allclose(lhs, rhs, 1e-10 * scale)
