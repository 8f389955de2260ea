import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    to_classical,
    to_ellipse,
    to_jones,
    waveplate_to_orthogonal,
)
from util import rand_quat, rand_unit

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
    rng = np.random.default_rng(20)
    for _ in range(100):
        q = rand_quat(rng)
        assert from_jones(to_jones(q)) == q


def test_stokes_values():
    assert stokes(ONE) == StokesQuaternion(1.0, 0.0, 0.0)
    s = stokes(ONE + K)
    assert abs(s.s1) <= 1e-15 and abs(s.s2 + 2.0) <= 1e-15 and abs(s.s3) <= 1e-15


def test_stokes_scalar_part_is_exactly_zero():
    rng = np.random.default_rng(21)
    for _ in range(200):
        q = rand_quat(rng, scale=3.0)
        raw = I * q.partial_conjugate(Axis.I) * q
        assert raw.q0 == 0.0


def test_stokes_matches_the_product_form():
    rng = np.random.default_rng(26)
    for _ in range(2000):
        q = rand_quat(rng, scale=3.0)
        raw = I * q.partial_conjugate(Axis.I) * q
        s = stokes(q)
        worst = max(abs(s.s1 - raw.q1), abs(s.s2 - raw.q2), abs(s.s3 - raw.q3))
        assert worst <= 1e-14 * q.norm_sq()


def test_stokes_phase_blind():
    rng = np.random.default_rng(22)
    for _ in range(100):
        q = rand_quat(rng)
        phi = rng.uniform(-math.pi, math.pi)
        a, b = stokes(apply_phase(q, phi)), stokes(q)
        assert max(abs(a.s1 - b.s1), abs(a.s2 - b.s2), abs(a.s3 - b.s3)) <= 1e-12 * max(1.0, q.norm_sq())


def test_stokes_norm_is_power():
    rng = np.random.default_rng(23)
    for _ in range(100):
        q = rand_quat(rng)
        assert abs(stokes(q).norm() - q.norm_sq()) <= 1e-12 * max(1.0, q.norm_sq())


def test_classical_values():
    c = classical_from_jones(JonesVector(1, 0))
    assert (c.S1, c.S2, c.S3) == (1.0, 0.0, 0.0)
    h = 1 / SQ2
    c = classical_from_jones(JonesVector(h, h))
    assert abs(c.S1) <= 1e-15 and abs(c.S2 - 1.0) <= 1e-15 and abs(c.S3) <= 1e-15


def test_classical_paths_agree():
    # Eq-by-eq differential check of the component reordering s2<->S3, s3<->S2
    rng = np.random.default_rng(24)
    for _ in range(1000):
        q = rand_quat(rng)
        a = to_classical(stokes(q))
        b = classical_from_jones(to_jones(q))
        assert max(abs(a.S1 - b.S1), abs(a.S2 - b.S2), abs(a.S3 - b.S3)) <= 1e-12


def test_apply_phase():
    assert allclose(apply_phase(ONE, math.pi / 2), I, 1e-15)
    q = Quaternion(0.1, 0.2, 0.3, 0.4)
    assert apply_phase(q, 0.0) == q
    rng = np.random.default_rng(25)
    for _ in range(50):
        q = rand_quat(rng)
        a, b = rng.uniform(-3, 3, size=2)
        assert allclose(apply_phase(apply_phase(q, a), b),
                        apply_phase(q, a + b), 1e-12)


def test_orthogonal_sop():
    assert allclose(orthogonal_sop(ONE, 0.0), J, 1e-15)
    assert allclose(orthogonal_sop(ONE, math.pi / 2), K, 1e-15)
    rng = np.random.default_rng(26)
    for _ in range(100):
        q = rand_quat(rng)
        phi = rng.uniform(-math.pi, math.pi)
        a = stokes(orthogonal_sop(q, phi))
        b = -stokes(q)
        assert max(abs(a.s1 - b.s1), abs(a.s2 - b.s2), abs(a.s3 - b.s3)) <= 1e-12 * max(1.0, q.norm_sq())


def test_classify_examples():
    assert classify_orthogonality(ONE, J) is OrthogonalityClass.ORTHOGONAL_SOP
    assert classify_orthogonality(ONE, I) is OrthogonalityClass.SAME_SOP_ORTHOGONAL_PHASE
    # p * conj(q) = 1 * (1-i-j) has nonzero scalar, i and j parts
    assert classify_orthogonality(ONE, ONE + I + J) is OrthogonalityClass.NONE


def test_classify_constructed_families():
    rng = np.random.default_rng(27)
    for _ in range(100):
        q = rand_quat(rng)
        if q.norm() < 1e-3:
            continue
        scale = float(rng.uniform(0.1, 5.0))
        phi = rng.uniform(-math.pi, math.pi)
        same = apply_phase(q, phi) * scale
        assert classify_orthogonality(same, q) is OrthogonalityClass.SAME_SOP
        ortho = orthogonal_sop(q, phi) * scale
        assert classify_orthogonality(ortho, q) is OrthogonalityClass.ORTHOGONAL_SOP
        quad = I * q * (scale if rng.random() < 0.5 else -scale)
        assert classify_orthogonality(quad, q) is OrthogonalityClass.SAME_SOP_ORTHOGONAL_PHASE


def test_classify_quaternion_orthogonal_only():
    # 4D-orthogonal but neither same nor orthogonal SOP: m = p conj(q) has
    # only its scalar part vanishing
    assert classify_orthogonality(I + J, ONE) is OrthogonalityClass.QUATERNION_ORTHOGONAL
    # right multiplication by a vector unit is 4D-orthogonal but generically
    # lands in no more specific class
    rng = np.random.default_rng(33)
    for _ in range(20):
        q = rand_quat(rng)
        if q.norm() < 1e-3:
            continue
        assert classify_orthogonality(q * I, q) is OrthogonalityClass.QUATERNION_ORTHOGONAL


def test_classify_rejects_zero():
    with pytest.raises(ValueError):
        classify_orthogonality(Quaternion(), ONE)


def test_from_ellipse_values():
    assert allclose(from_ellipse(EllipseParams(1, 0, 0, 0)), ONE, 1e-15)
    left = from_ellipse(EllipseParams(SQ2, 0, math.pi / 4, 0))
    assert allclose(left, ONE + K, 1e-15)
    diag = from_ellipse(EllipseParams(1, 0, 0, math.pi / 4))
    assert allclose(diag, Quaternion(1 / SQ2, 0, 1 / SQ2, 0), 1e-15)


def test_ellipse_range_validation():
    with pytest.raises(ValueError):
        EllipseParams(-1.0, 0, 0, 0)
    with pytest.raises(ValueError):
        EllipseParams(1.0, 4.0, 0, 0)
    with pytest.raises(ValueError):
        EllipseParams(1.0, 0, 1.0, 0)
    with pytest.raises(ValueError):
        EllipseParams(1.0, 0, 0, 2.0)


def test_to_ellipse_values():
    e = to_ellipse(ONE + K)
    assert abs(e.r - SQ2) <= 1e-12
    assert e.theta == 0.0 and abs(e.phi) <= 1e-12
    assert abs(e.epsilon - math.pi / 4) <= 1e-12

    e = to_ellipse(Quaternion(1 / SQ2, 0, 1 / SQ2, 0))
    assert abs(e.r - 1) <= 1e-12 and abs(e.phi) <= 1e-12
    assert abs(e.epsilon) <= 1e-12 and abs(e.theta - math.pi / 4) <= 1e-12

    with pytest.raises(ValueError):
        to_ellipse(Quaternion())


@pytest.mark.parametrize("q, want", [
    # (r, phi, epsilon, theta) of signals too small or too large to square
    (Quaternion(1e-320, 0, 0, 0), (1e-320, 0.0, 0.0, 0.0)),
    (Quaternion(1e170, 0, 1e170, 0), (SQ2 * 1e170, 0.0, 0.0, math.pi / 4)),
    (Quaternion(1e-200, 0, 1e-200, 0), (SQ2 * 1e-200, 0.0, 0.0, math.pi / 4)),
    (Quaternion(0, 0, 1e-310, 0), (1e-310, 0.0, 0.0, math.pi / 2)),
    (Quaternion(1e300, 0, 0, 1e300), (SQ2 * 1e300, 0.0, math.pi / 4, 0.0)),
])
def test_to_ellipse_is_scale_safe(q, want):
    e = to_ellipse(q)
    assert math.isclose(e.r, want[0], rel_tol=1e-12)
    assert max(abs(got - w) for got, w in zip((e.phi, e.epsilon, e.theta), want[1:])) <= 1e-15
    # the same angles as the unit-scale signal
    unit = to_ellipse(Quaternion(*(math.copysign(1.0, c) if c else 0.0 for c in q)))
    assert (e.phi, e.epsilon, e.theta) == (unit.phi, unit.epsilon, unit.theta)


angles = st.floats(min_value=-math.pi + 1e-6, max_value=math.pi,
                   allow_nan=False, allow_infinity=False)


@given(st.floats(min_value=0.05, max_value=10.0),
       angles,
       st.floats(min_value=-math.pi / 4 + 0.01, max_value=math.pi / 4 - 0.01),
       st.floats(min_value=-math.pi / 2 + 1e-6, max_value=math.pi / 2))
def test_ellipse_round_trip_params(r, phi, eps, theta):
    e = EllipseParams(r, phi, eps, theta)
    back = to_ellipse(from_ellipse(e))
    assert abs(back.r - r) <= 1e-10 * max(1.0, r)
    assert abs(math.remainder(back.phi - phi, 2 * math.pi)) <= 1e-10
    assert abs(back.epsilon - eps) <= 1e-10
    assert abs(math.remainder(back.theta - theta, math.pi)) <= 1e-10


def test_ellipse_round_trip_quaternion():
    rng = np.random.default_rng(28)
    for _ in range(300):
        q = rand_quat(rng)
        if q.norm() < 1e-2:
            continue
        assert allclose(from_ellipse(to_ellipse(q)), q, 1e-10 * max(1.0, q.norm()))
    # within d of a circular state, where theta is all but undefined
    for d in (4e-13, 1e-10, 4e-10, 4e-9):
        for _ in range(50):
            phi = float(rng.uniform(-math.pi, math.pi))
            theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
            eps = float(rng.choice([1.0, -1.0])) * (math.pi / 4 - d)
            q = from_ellipse(EllipseParams(1.0, phi, eps, theta))
            assert allclose(from_ellipse(to_ellipse(q)), q, 1e-10), (d, q)


def test_circular_phase_orientation_ambiguity():
    # orientation is degenerate with phase on the circular states; the trade
    # is (phi+d, theta-d) for right circular and (phi+d, theta+d) for left
    rng = np.random.default_rng(29)
    for _ in range(50):
        phi = float(rng.uniform(-1.0, 1.0))
        theta = float(rng.uniform(-1.0, 1.0))
        delta = float(rng.uniform(-0.4, 0.4))
        right = from_ellipse(EllipseParams(2.0, phi, -math.pi / 4, theta))
        assert allclose(
            from_ellipse(EllipseParams(2.0, phi + delta, -math.pi / 4, theta - delta)),
            right, 1e-12)
        left = from_ellipse(EllipseParams(2.0, phi, math.pi / 4, theta))
        assert allclose(
            from_ellipse(EllipseParams(2.0, phi + delta, math.pi / 4, theta + delta)),
            left, 1e-12)


def test_poincare_angle_doubling_for_linear_states():
    rng = np.random.default_rng(30)
    for _ in range(100):
        theta = float(rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01))
        q = from_ellipse(EllipseParams(1.0, 0.0, 0.0, theta))
        s = stokes(q)
        assert abs(math.remainder(math.atan2(s.s3, s.s1) - 2 * theta, 2 * math.pi)) <= 1e-12


def test_classify_invariances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p, q = rand_quat(rng), rand_quat(rng)
        if p.norm() < 1e-3 or q.norm() < 1e-3:
            continue
        base = classify_orthogonality(p, q)
        assert classify_orthogonality(apply_phase(p, 0.7), q) is base
        assert classify_orthogonality(p, apply_phase(q, -1.3)) is base
        assert classify_orthogonality(p * 3.0, q * 0.2) is base


def test_waveplate_to_orthogonal():
    assert allclose(waveplate_to_orthogonal(ONE, 0.0), J, 1e-15)
    assert allclose(waveplate_to_orthogonal(ONE, math.pi / 2), K, 1e-15)
    with pytest.raises(ValueError):
        waveplate_to_orthogonal(ONE + I, 0.0)
    rng = np.random.default_rng(32)
    for _ in range(100):
        q = rand_unit(rng)
        phi = rng.uniform(-math.pi, math.pi)
        p = waveplate_to_orthogonal(q, phi)
        assert abs(p.norm() - 1.0) <= 1e-12
        assert allclose(q * p, apply_phase(J * q, phi), 1e-12)
        assert classify_orthogonality(q, q * p) is OrthogonalityClass.ORTHOGONAL_SOP

