import math
import random

import pytest

from polquat import (
    Axis,
    I,
    J,
    K,
    ONE,
    OrthogonalityClass,
    Quaternion,
    allclose,
    apply_phase,
    classify_orthogonality,
    precess,
)
from polquat.checks import _rand_quat
from polquat.quaternion import _new, _product


def _float(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform on [lo, hi], but one draw in four is an edge value in that
    range: lo, hi, +-0.0 or the smallest denormal +-5e-324."""
    if rng.random() < 0.25:
        return rng.choice([x for x in (lo, hi, 0.0, -0.0, 5e-324, -5e-324) if lo <= x <= hi])
    return rng.uniform(lo, hi)


def _draws(seed: int, count: int = 100):
    """`count` draws of three quaternions and a float, every number from
    `_float` on [-10, 10]."""
    rng = random.Random(seed)
    for _ in range(count):
        yield (*(Quaternion(*(_float(rng, -10.0, 10.0) for _ in range(4))) for _ in range(3)),
               _float(rng, -10.0, 10.0))


def _unit_vector(rng: random.Random) -> Quaternion:
    """The direction of the vector part of a drawn quaternion."""
    return Quaternion(0.0, *_rand_quat(rng)[1:]).normalized()


def test_hand_expanded_product():
    # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)
    # the operator writes `_product` out: the same floats, signs of zero and
    # the overflows and underflows of huge and denormal components included
    rng = random.Random(33)
    for _ in range(400):
        p, q = (Quaternion(*(_float(rng, -10.0, 10.0) * rng.choice((1.0, 1e300, 1e-310))
                             for _ in range(4))) for _ in range(2))
        assert repr(p * q) == repr(_new(Quaternion, _product(p, q))), (p, q)


def test_identity_and_scalar_multiplication():
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert ONE * q == q
    assert q * ONE == q
    assert q * 2.0 == q + q


def test_arithmetic_builds_quaternions_of_the_componentwise_floats():
    # repr tells a Quaternion from another record or a tuple, and -0.0 from 0.0
    for q, p, _, phi in _draws(91):
        q0, q1, q2, q3 = q
        p0, p1, p2, p3 = p
        phase = Quaternion(math.cos(phi), math.sin(phi), 0.0, 0.0)
        for got, want in [(q + p, (q0 + p0, q1 + p1, q2 + p2, q3 + p3)),
                          (q - p, (q0 - p0, q1 - p1, q2 - p2, q3 - p3)),
                          (-q, (-q0, -q1, -q2, -q3)),
                          (q.conjugate(), (q0, -q1, -q2, -q3)),
                          (apply_phase(p, phi), tuple(phase * p))]:
            assert repr(got) == repr(Quaternion(*want)), (q, p, phi)


def test_conjugate_product_rule():
    for p, q, _, _ in _draws(92):
        assert allclose((p * q).conjugate(), q.conjugate() * p.conjugate(), 1e-10), (p, q)


def test_norm_values():
    assert Quaternion(1, 1, 1, 1).norm() == 2.0
    assert allclose((I * 3.0).normalized(), I, 1e-15)


# power-of-two, denormal, tiny, unit and huge scales; 1e308 times a component
# of at most 1 still fits a float, and small-integer components keep their
# ratios exactly even at denormal scale
NORMALIZE_SCALES = (2.0 ** -1060, 1e-310, 1e-170, 1.0, 1e160, 1e300, 1e308)
DIRECTIONS = ((1.0, 1.0, 1.0, 1.0), (1.0, 0.0, -1.0, 0.0),
              (0.0, -1.0, 1.0, 1.0), (0.0, 0.0, 0.0, -1.0))


@pytest.mark.parametrize("scale", NORMALIZE_SCALES)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_normalized_is_the_unit_direction_at_every_scale(direction, scale):
    want = Quaternion(*direction).normalized()
    got = (Quaternion(*direction) * scale).normalized()
    assert abs(got.norm() - 1.0) <= 1e-15
    assert allclose(got, want, 1e-15)
    if math.frexp(scale)[0] == 0.5:   # a power of two scales exactly
        assert repr(got) == repr(want)


def test_norm_squared_is_scalar_of_qdagq():
    for q, _, _, _ in _draws(93):
        m = q.conjugate() * q
        assert abs(m.q0 - q.norm_sq()) <= 1e-9 * max(1.0, q.norm_sq()), q
        assert max(abs(m.q1), abs(m.q2), abs(m.q3)) <= 1e-12 * max(1.0, q.norm_sq()), q


def test_division_examples():
    assert allclose(J / I, K, 1e-15)          # since k * i = j
    q = Quaternion(0.5, -0.25, 1.0, 2.0)
    assert allclose(q / q, ONE, 1e-12)


@pytest.mark.parametrize("scale", (1e-300, 1e-170, 1.0, 1e160, 1e300, 1e308))
def test_division_round_trips_at_every_divisor_scale(scale):
    rng = random.Random(10)
    for _ in range(100):
        p, q = _rand_quat(rng), _rand_quat(rng)
        divisor = q * scale
        if q.norm() < 1e-3 or not all(map(math.isfinite, divisor)):
            continue
        assert allclose((p / divisor) * divisor, p, 1e-12 * max(1.0, p.norm() / q.norm()))
    assert allclose((ONE / (J * scale)) * (J * scale), ONE, 1e-15)
    # four components of one size: at 1e308, |divisor| = 2e308 exceeds the
    # largest float, and the quotient conj(q) / |q|^2 is denormal
    four = Quaternion(1.0, -1.0, 1.0, 1.0) * scale
    quotient = ONE / four
    assert allclose(quotient * scale, Quaternion(0.25, 0.25, -0.25, -0.25), 1e-14)
    assert allclose(quotient * four, ONE, 1e-14)


def test_exp_euler_cases():
    assert allclose((I * (math.pi / 2)).exp(), I, 1e-15)
    assert allclose(Quaternion(0.0, 0.0, 0.0, 0.0).exp(), ONE, 1e-15)
    v = Quaternion(0, 0.6, 0.8, 0.0)
    got = (v * 0.5).exp()
    assert allclose(got, Quaternion(math.cos(0.5), 0.6 * math.sin(0.5),
                                    0.8 * math.sin(0.5), 0.0), 1e-15)


def test_log_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        v = _unit_vector(rng)
        theta = rng.uniform(0.01, math.pi - 0.01)
        assert allclose((v * theta).exp().log(), v * theta, 1e-10)


def test_log_conventions():
    # negative real axis: i axis and angle pi by convention
    assert allclose(Quaternion(-2.0, 0, 0, 0).log(),
                    Quaternion(math.log(2.0), math.pi, 0, 0), 1e-15)
    assert allclose(Quaternion(3.0, 0, 0, 0).log(),
                    Quaternion(math.log(3.0), 0, 0, 0), 1e-15)


@pytest.mark.parametrize("scale", (1e308, 1e-310))
@pytest.mark.parametrize("signs", ((1.0, 1.0, 1.0, 1.0), (-1.0, 1.0, -1.0, 1.0)))
def test_log_holds_where_the_norm_is_past_a_normal_float(signs, scale):
    # |q| = 2 scale: above the largest float at 1e308, denormal at 1e-310
    q = Quaternion(*signs) * scale
    got = q.log()
    assert math.isclose(got.q0, math.log(2.0) + math.log(scale), rel_tol=1e-12)
    unit = q.normalized().log()
    assert allclose(Quaternion(0.0, *got[1:]), Quaternion(0.0, *unit[1:]), 1e-15)


def test_partial_conjugate_product_rule_exchanges():
    for p, q, _, _ in _draws(94):
        for axis in Axis:
            lhs = (p * q).partial_conjugate(axis)
            rhs = q.partial_conjugate(axis) * p.partial_conjugate(axis)
            assert allclose(lhs, rhs, 1e-9), (p, q, axis)


def test_partial_conjugate_sum_and_products_lack_axis_component():
    rng = random.Random(10)
    for _ in range(50):
        q = _rand_quat(rng)
        for axis, pick in ((Axis.I, "q1"), (Axis.J, "q2"), (Axis.K, "q3")):
            qc = q.partial_conjugate(axis)
            assert getattr(q + qc, pick) == 0.0
            assert abs(getattr(q * qc, pick)) <= 1e-12
            assert abs(getattr(qc * q, pick)) <= 1e-12


def test_double_conjugate_product_rule_keeps_order():
    for p, q, _, _ in _draws(95):
        for axis in Axis:
            lhs = (p * q).double_conjugate(axis)
            rhs = p.double_conjugate(axis) * q.double_conjugate(axis)
            assert allclose(lhs, rhs, 1e-9), (p, q, axis)


def test_precess_quarter_turn():
    assert allclose(precess(I, J, math.pi / 4), K, 1e-15)


def test_precess_identity_and_invariants():
    rng = random.Random(11)
    for _ in range(50):
        q = _rand_quat(rng)
        v = _unit_vector(rng)
        theta = rng.uniform(-3, 3)
        out = precess(q, v, theta)
        assert allclose(precess(q, v, 0.0), q, 1e-15)
        assert abs(out.q0 - q.q0) <= 1e-12
        assert abs(out.vector_norm() - q.vector_norm()) <= 1e-12


def is_orthogonal(p, q):
    """Sc(p conj(q)) vanishes: the classes whose m = p conj(q) has m0 = 0."""
    return classify_orthogonality(p, q) in (OrthogonalityClass.QUATERNION_ORTHOGONAL,
                                            OrthogonalityClass.ORTHOGONAL_SOP,
                                            OrthogonalityClass.SAME_SOP_ORTHOGONAL_PHASE)


def test_orthogonality():
    assert is_orthogonal(ONE, I)
    assert not is_orthogonal(ONE, ONE)
    rng = random.Random(12)
    for _ in range(50):
        q = _rand_quat(rng)
        v = _unit_vector(rng)
        p = _rand_quat(rng)
        if q.norm() < 1e-3 or p.norm() < 1e-3:
            continue
        assert is_orthogonal(q, q * v)
        assert is_orthogonal(q, v * q)
        # a vector factor inserted anywhere makes the product orthogonal to
        # the product without it: Sc(pq (pvq)^dag) = |p|^2 |q|^2 Sc(v^dag) = 0
        assert is_orthogonal(p * q, p * v * q)
        assert not is_orthogonal(q.normalized(), q.normalized())


def test_unit_vector_squares_to_minus_one():
    rng = random.Random(13)
    for _ in range(1000):
        v = _unit_vector(rng)
        assert allclose(v * v, -ONE, 1e-12)


# -- multiplication reordering rules -------------------------------------------

def test_reordering_rule_1_parallel_vector_parts_commute():
    rng = random.Random(14)
    for _ in range(50):
        v = _unit_vector(rng)
        a0, a1, b0, b1 = _rand_quat(rng)
        p = Quaternion(a0, 0.0, 0.0, 0.0) + v * a1
        q = Quaternion(b0, 0.0, 0.0, 0.0) + v * b1
        assert allclose(p * q, q * p, 1e-12)
        # so e^p e^q = e^(p + q) = e^q e^p
        lhs = p.exp() * q.exp()
        rhs = (p + q).exp()
        scale = max(1.0, rhs.norm())
        assert allclose(lhs, rhs, 1e-12 * scale)
        assert allclose(lhs, q.exp() * p.exp(), 1e-12 * scale)


def test_reordering_rule_2_orthogonal_vector_flips_conjugate():
    rng = random.Random(15)
    for _ in range(50):
        q = _rand_quat(rng)
        # orthogonality of a vector quaternion to q only involves the vector
        # parts, so project a random vector quaternion off Ve(q); the dot
        # product of vector quaternions a, b is Sc(a conj(b))
        qv = Quaternion(0.0, *q[1:])
        w = Quaternion(0.0, *_rand_quat(rng)[1:])
        if qv.norm() > 1e-12:
            w = w - qv * ((w * qv.conjugate()).q0 / qv.norm_sq())
        if w.norm() < 1e-3:
            continue
        v = w.normalized()
        assert abs((q * v.conjugate()).q0) <= 1e-12 * max(1.0, q.norm())
        assert allclose(q * v, v * q.conjugate(), 1e-10)


def test_reordering_rule_3_swaps_exponential_axis():
    rng = random.Random(16)
    for _ in range(50):
        u = _unit_vector(rng)
        w = _unit_vector(rng)
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
    rng = random.Random(17)
    for _ in range(50):
        u = _unit_vector(rng)
        v = _unit_vector(rng)
        alpha, beta = rng.uniform(-3, 3), rng.uniform(-3, 3)
        w = (u * alpha).exp() * v * (u * (-alpha)).exp()
        lhs = (u * alpha).exp() * (v * beta).exp()
        rhs = (w * beta).exp() * (u * alpha).exp()
        assert allclose(lhs, rhs, 1e-10)


# -- serialization -----------------------------------------------------------------

def test_text_round_trip_is_exact():
    rng = random.Random(19)
    for _ in range(100):
        q = _rand_quat(rng) * 10.0
        assert Quaternion.from_text(",".join(map(repr, q))) == q
    assert Quaternion.from_text("1, -2.5,3e-4 ,0") == Quaternion(1.0, -2.5, 3e-4, 0.0)


def test_list_round_trip():
    q = Quaternion(0.1, -0.2, 0.3, -0.4)
    assert Quaternion(*q.to_list()) == q
    assert list(q) == q.to_list() == [0.1, -0.2, 0.3, -0.4]


def test_bilinearity():
    for p, q, r, _ in _draws(96, 50):
        lhs = p * (q + r)
        rhs = p * q + p * r
        scale = max(1.0, p.norm() * (q.norm() + r.norm()))
        assert allclose(lhs, rhs, 1e-10 * scale), (p, q, r)
