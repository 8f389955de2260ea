import math
import random

import pytest

from polquat import (
    Axis,
    EllipseParams,
    I,
    J,
    JonesVector,
    K,
    ONE,
    OrthogonalityClass,
    Quaternion,
    StokesQuaternion,
    allclose,
    apply_phase,
    classical_from_jones,
    classify_orthogonality,
    from_ellipse,
    from_jones,
    orthogonal_sop,
    stokes,
    to_ellipse,
    to_jones,
)
from polquat.checks import _rand_quat

from test_inputs import _NON_FINITE_ROWS, _rejects
from test_quaternion import _float

SQ2 = math.sqrt(2.0)


# Table II: quaternion <-> optical signal
TABLE_SIGNALS = [
    (ONE, JonesVector(1, 0)),                       # horizontal, zero phase
    (I, JonesVector(1j, 0)),                        # horizontal, pi/2 phase
    (J, JonesVector(0, 1)),                         # vertical, zero phase
    (K, JonesVector(0, 1j)),                        # vertical, pi/2 phase
    (ONE + J, JonesVector(1, 1)),                   # linear at pi/4
    (ONE + K, JonesVector(1, 1j)),                  # left circular
    (ONE - K, JonesVector(1, -1j)),                 # right circular
]


@pytest.mark.parametrize("q,v", TABLE_SIGNALS)
def test_jones_table(q, v):
    assert from_jones(v) == q
    got = to_jones(q)
    assert got.ex == v.ex and got.ey == v.ey


def test_jones_round_trip_exact():
    rng = random.Random(20)
    for _ in range(100):
        q = _rand_quat(rng)
        assert from_jones(to_jones(q)) == q


def test_stokes_values():
    assert stokes(ONE) == StokesQuaternion(1.0, 0.0, 0.0)
    s = stokes(ONE + K)
    assert abs(s.s1) <= 1e-15 and abs(s.s2 + 2.0) <= 1e-15 and abs(s.s3) <= 1e-15


def test_stokes_matches_the_product_form():
    rng = random.Random(26)
    for _ in range(2000):
        q = _rand_quat(rng) * 3.0
        raw = I * q.partial_conjugate(Axis.I) * q
        # the product's scalar part is exactly zero, so stokes stores none
        assert raw.q0 == 0.0
        s = stokes(q)
        worst = max(abs(s.s1 - raw.q1), abs(s.s2 - raw.q2), abs(s.s3 - raw.q3))
        assert worst <= 1e-14 * q.norm_sq()


def test_stokes_norm_is_power():
    rng = random.Random(23)
    for _ in range(100):
        q = _rand_quat(rng)
        assert abs(math.hypot(*stokes(q)) - q.norm_sq()) <= 1e-12 * max(1.0, q.norm_sq())


def test_classical_values():
    c = classical_from_jones(JonesVector(1, 0))
    assert (c.S1, c.S2, c.S3) == (1.0, 0.0, 0.0)
    h = 1 / SQ2
    c = classical_from_jones(JonesVector(h, h))
    assert abs(c.S1) <= 1e-15 and abs(c.S2 - 1.0) <= 1e-15 and abs(c.S3) <= 1e-15


def test_apply_phase():
    assert allclose(apply_phase(ONE, math.pi / 2), I, 1e-15)
    q = Quaternion(0.1, 0.2, 0.3, 0.4)
    assert apply_phase(q, 0.0) == q
    rng = random.Random(25)
    for _ in range(50):
        q = _rand_quat(rng)
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        assert allclose(apply_phase(apply_phase(q, a), b),
                        apply_phase(q, a + b), 1e-12)


def test_orthogonal_sop():
    assert allclose(apply_phase(orthogonal_sop(ONE), 0.0), J, 1e-15)
    assert allclose(apply_phase(orthogonal_sop(ONE), math.pi / 2), K, 1e-15)


def test_classify_quaternion_orthogonal_only():
    # right multiplication by a vector unit is 4D-orthogonal but generically
    # lands in no more specific class
    rng = random.Random(33)
    for _ in range(20):
        q = _rand_quat(rng)
        if q.norm() < 1e-3:
            continue
        assert classify_orthogonality(q * I, q) is OrthogonalityClass.QUATERNION_ORTHOGONAL


@pytest.mark.parametrize("scale", [1e-310, 1e-170, 1.0, 1e160, 1e300])
@pytest.mark.parametrize("p, q, want", [
    (ONE, J, OrthogonalityClass.ORTHOGONAL_SOP),
    (ONE, I, OrthogonalityClass.SAME_SOP_ORTHOGONAL_PHASE),
    (ONE + I + J, ONE, OrthogonalityClass.NONE),
    # 4D-orthogonal but neither same nor orthogonal SOP: only m0 vanishes
    (I + J, ONE, OrthogonalityClass.QUATERNION_ORTHOGONAL),
    (ONE + J, (ONE + J) * 3.0, OrthogonalityClass.SAME_SOP),
    # m = 1 - i - j has nonzero scalar, i and j parts
    (ONE, ONE + I + J, OrthogonalityClass.NONE),
], ids=["orthogonal-sop", "same-sop-orthogonal-phase", "none", "quaternion-orthogonal",
        "same-sop", "none-reversed"])
def test_classify_is_scale_invariant(p, q, want, scale):
    # at 1e-170 and 1e160, p conj(q) itself would underflow to 0 or overflow
    # to inf; a denormal scale leaves no reciprocal of the norm
    assert classify_orthogonality(p * scale, q * scale) is want
    assert classify_orthogonality(p * scale, q) is want
    assert classify_orthogonality(p, q * scale) is want


def test_from_ellipse_values():
    assert allclose(from_ellipse(EllipseParams(1, 0, 0, 0)), ONE, 1e-15)
    # r = 0 is in range: the zero signal
    assert from_ellipse(EllipseParams(0.0, 0.0, 0.0, 0.0)) == Quaternion(0.0, 0.0, 0.0, 0.0)
    left = from_ellipse(EllipseParams(SQ2, 0, math.pi / 4, 0))
    assert allclose(left, ONE + K, 1e-15)
    diag = from_ellipse(EllipseParams(1, 0, 0, math.pi / 4))
    assert allclose(diag, Quaternion(1 / SQ2, 0, 1 / SQ2, 0), 1e-15)


def test_to_ellipse_values():
    e = to_ellipse(ONE + K)
    assert abs(e.r - SQ2) <= 1e-12
    assert e.theta == 0.0 and abs(e.phi) <= 1e-12
    assert abs(e.epsilon - math.pi / 4) <= 1e-12

    e = to_ellipse(Quaternion(1 / SQ2, 0, 1 / SQ2, 0))
    assert abs(e.r - 1) <= 1e-12 and abs(e.phi) <= 1e-12
    assert abs(e.epsilon) <= 1e-12 and abs(e.theta - math.pi / 4) <= 1e-12


@pytest.mark.parametrize("q, want", [
    # (r, phi, epsilon, theta) of signals too small or too large to square
    (Quaternion(1e-320, 0, 0, 0), (1e-320, 0.0, 0.0, 0.0)),
    (Quaternion(1e170, 0, 1e170, 0), (SQ2 * 1e170, 0.0, 0.0, math.pi / 4)),
    (Quaternion(1e-200, 0, 1e-200, 0), (SQ2 * 1e-200, 0.0, 0.0, math.pi / 4)),
    (Quaternion(0, 0, 1e-310, 0), (1e-310, 0.0, 0.0, math.pi / 2)),
    (Quaternion(1e300, 0, 0, 1e300), (SQ2 * 1e300, 0.0, math.pi / 4, 0.0)),
    # s1 < 0 with s3 = -0.0: atan2 gives -pi, and theta wraps to pi/2
    (Quaternion(-0.0, 0.0, 1.0, -0.0), (1.0, 0.0, 0.0, math.pi / 2)),
    # a negative real with q1 = q3 = -0.0: atan2 gives -pi, and phi wraps to pi
    (Quaternion(-1.0, -0.0, 0.0, -0.0), (1.0, math.pi, 0.0, 0.0)),
    # the two ends of the unit-scale path, which takes q itself as u
    (Quaternion(0.5, 0, 0.5, 0), (SQ2 * 0.5, 0.0, 0.0, math.pi / 4)),
    (Quaternion(0.9999999999999999, 0, 0, 0.9999999999999999),
     (SQ2 * 0.9999999999999999, 0.0, math.pi / 4, 0.0)),
])
def test_to_ellipse_is_scale_safe(q, want):
    e = to_ellipse(q)
    assert math.isclose(e.r, want[0], rel_tol=1e-12)
    assert max(abs(got - w) for got, w in zip((e.phi, e.epsilon, e.theta), want[1:])) <= 1e-15
    # the same angles as the unit-scale signal
    unit = to_ellipse(Quaternion(*(math.copysign(1.0, c) if c else 0.0 for c in q)))
    assert (e.phi, e.epsilon, e.theta) == (unit.phi, unit.epsilon, unit.theta)


def test_to_ellipse_of_the_plain_tuple_is_the_checked_record():
    # unit, huge, tiny and denormal signals; the ramp rows pass plain tuples
    rng = random.Random(97)
    for _ in range(100):
        q = Quaternion(0.0, 0.0, 0.0, 0.0)
        while not any(q):   # a zero signal has no ellipse: draw again
            u = [_float(rng, -1.0, 1.0) for _ in range(4)]
            scale = rng.choice([1.0, 2.0 ** 1000, 2.0 ** -1000, 2.0 ** -1060])
            q = Quaternion(*(x * scale for x in u))
        e = to_ellipse(q)
        assert repr(to_ellipse(tuple(q))) == repr(e) == repr(EllipseParams(*e)), q


# the non-finite rows of the one rejection table, tests/test_inputs.py's
# _REJECTIONS, each named by the function and the value it is given
@pytest.mark.parametrize("name", [name for name, *_ in _NON_FINITE_ROWS])
def test_a_non_finite_input_is_rejected_by_name(name):
    _rejects(name)


def test_ellipse_round_trip_params():
    rng = random.Random(98)
    for _ in range(100):
        r = _float(rng, 0.05, 10.0)
        phi = _float(rng, -math.pi + 1e-6, math.pi)
        eps = _float(rng, -math.pi / 4 + 0.01, math.pi / 4 - 0.01)
        theta = _float(rng, -math.pi / 2 + 1e-6, math.pi / 2)
        e = EllipseParams(r, phi, eps, theta)
        back = to_ellipse(from_ellipse(e))
        assert abs(back.r - r) <= 1e-10 * max(1.0, r), e
        assert abs(math.remainder(back.phi - phi, 2 * math.pi)) <= 1e-10, e
        assert abs(back.epsilon - eps) <= 1e-10, e
        assert abs(math.remainder(back.theta - theta, math.pi)) <= 1e-10, e


def test_ellipse_round_trip_quaternion():
    rng = random.Random(28)
    for _ in range(300):
        q = _rand_quat(rng)
        if q.norm() < 1e-2:
            continue
        assert allclose(from_ellipse(to_ellipse(q)), q, 1e-10 * max(1.0, q.norm()))
    # within d of a circular state, where theta is all but undefined
    for d in (4e-13, 1e-10, 4e-10, 4e-9):
        for _ in range(50):
            phi = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            eps = rng.choice([1.0, -1.0]) * (math.pi / 4 - d)
            q = from_ellipse(EllipseParams(1.0, phi, eps, theta))
            assert allclose(from_ellipse(to_ellipse(q)), q, 1e-10), (d, q)


def test_circular_phase_orientation_ambiguity():
    # orientation is degenerate with phase on the circular states; the trade
    # is (phi+d, theta-d) for right circular and (phi+d, theta+d) for left
    rng = random.Random(29)
    for _ in range(50):
        phi = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(-1.0, 1.0)
        delta = rng.uniform(-0.4, 0.4)
        right = from_ellipse(EllipseParams(2.0, phi, -math.pi / 4, theta))
        assert allclose(
            from_ellipse(EllipseParams(2.0, phi + delta, -math.pi / 4, theta - delta)),
            right, 1e-12)
        left = from_ellipse(EllipseParams(2.0, phi, math.pi / 4, theta))
        assert allclose(
            from_ellipse(EllipseParams(2.0, phi + delta, math.pi / 4, theta + delta)),
            left, 1e-12)


def test_poincare_angle_doubling_for_linear_states():
    rng = random.Random(30)
    for _ in range(100):
        theta = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        q = from_ellipse(EllipseParams(1.0, 0.0, 0.0, theta))
        s = stokes(q)
        assert abs(math.remainder(math.atan2(s.s3, s.s1) - 2 * theta, 2 * math.pi)) <= 1e-12


def test_classify_invariances():
    rng = random.Random(31)
    for _ in range(100):
        p, q = _rand_quat(rng), _rand_quat(rng)
        if p.norm() < 1e-3 or q.norm() < 1e-3:
            continue
        base = classify_orthogonality(p, q)
        assert classify_orthogonality(apply_phase(p, 0.7), q) is base
        assert classify_orthogonality(p, apply_phase(q, -1.3)) is base
        assert classify_orthogonality(p * 3.0, q * 0.2) is base
