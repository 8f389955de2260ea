import math
import random

from polquat import (
    EllipseParams,
    I,
    J,
    K,
    ONE,
    PartialPolarizer,
    Quaternion,
    Waveplate,
    allclose,
    apply,
    apply_phase,
    compose,
    from_ellipse,
    hwp,
    orthogonal_sop,
    polarizer_apply,
    qwp,
    rotate_element,
    stokes,
    waveplate_from_axis,
)
from polquat.checks import _rand_quat, _rand_unit

SQH = math.sqrt(0.5)
QWP_H = Quaternion(SQH, SQH, 0, 0)


def test_apply_examples():
    assert allclose(apply(ONE, Waveplate(QWP_H)), QWP_H, 1e-15)
    q = Quaternion(0.1, 0.2, 0.3, 0.4)
    assert apply(q, Waveplate(ONE)) == q
    # fast-axis state of the horizontal half plate is retarded by -eta
    assert allclose(apply(J, Waveplate(I)), -K, 1e-15)


def test_compose():
    # the table1-golden group checks that two quarter plates compose to a half plate
    w = Waveplate(_rand_unit(random.Random(40)))
    inv = Waveplate(w.q.conjugate())
    assert allclose(compose([w, inv]).q, ONE, 1e-12)


def test_compose_matches_sequential_application():
    rng = random.Random(41)
    for _ in range(100):
        q = _rand_quat(rng)
        plates = [Waveplate(_rand_unit(rng)) for _ in range(3)]
        seq = q
        for p in plates:
            seq = apply(seq, p)
        assert allclose(apply(q, compose(plates)), seq, 1e-12)


def test_near_unit_plates_compose_to_a_unit_plate():
    # each plate and the slow axis pass the 1e-9 unit check, while the
    # product of two or three is up to 2.7e-9 off unit
    plates = [Waveplate(qwp(psi).q * (1.0 + 0.9e-9)) for psi in (0.1, 0.7, -1.2)]
    slow = Quaternion(0.6, 0.0, 0.0, 0.8) * (1.0 + 0.9e-9)
    for plate in (compose(plates[:2]), compose(plates), waveplate_from_axis(slow, 0.3)):
        assert abs(plate.q.norm() - 1.0) <= 1e-15


def test_waveplate_from_axis_two_construction_paths():
    rng = random.Random(42)
    diag = Quaternion(SQH, 0, SQH, 0)
    direct = waveplate_from_axis(diag, math.pi / 2).q
    assert allclose(direct, diag.conjugate() * I * diag, 1e-12)
    for _ in range(100):
        slow = _rand_unit(rng)
        eta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        plate = waveplate_from_axis(slow, eta)
        s = stokes(slow).as_quaternion().normalized()
        assert allclose(plate.q, (s * eta).exp(), 1e-12)
        # the slow-axis state gains eta, the fast-axis one loses it
        slow_in = apply_phase(slow, phi)
        assert allclose(apply(slow_in, plate), apply_phase(slow_in, eta), 1e-12)
        fast_in = apply_phase(orthogonal_sop(slow), phi)
        assert allclose(apply(fast_in, plate), apply_phase(fast_in, -eta), 1e-12)


def test_axis_retardance():
    # a plate's log is eta * slow axis: QWP_H and I are pi/4 and pi/2 about i
    assert allclose(Waveplate(QWP_H).q.log(), I * (math.pi / 4), 1e-15)
    assert allclose(Waveplate(I).q.log(), I * (math.pi / 2), 1e-15)
    # the +-1 plates have no axis; log gives 0 and pi * i by its convention
    assert allclose(Waveplate(ONE).q.log(), Quaternion(0, 0, 0, 0), 1e-15)
    assert allclose(Waveplate(-ONE).q.log(), I * math.pi, 1e-15)


def test_rotate_element():
    assert allclose(rotate_element(Waveplate(I), math.pi / 4).q, K, 1e-15)
    w = Waveplate(_rand_unit(random.Random(44)))
    assert allclose(rotate_element(w, 0.0).q, w.q, 1e-15)
    rng = random.Random(45)
    for _ in range(50):
        w = Waveplate(_rand_unit(rng))
        psi = rng.uniform(-math.pi, math.pi)
        if w.q.vector_norm() < 1e-6:
            continue
        assert abs(rotate_element(w, psi).q.log().vector_norm()
                   - w.q.log().vector_norm()) <= 1e-10


def test_standard_plates():
    assert allclose(qwp(0.0).q, QWP_H, 1e-15)
    assert allclose(hwp(math.pi / 4).q, K, 1e-15)


def test_polarizer_examples():
    pol = PartialPolarizer(ONE, 0.0)
    assert allclose(polarizer_apply(ONE + J, pol), ONE, 1e-15)
    # a pass-axis input near the largest float comes through unchanged
    huge = Quaternion(1.5e308, 1.5e308, 0.0, 0.0)
    assert polarizer_apply(huge, PartialPolarizer(ONE, 0.5)) == huge
    # so does any input of a lossless polarizer, though I * q * s overflows
    # on the way for this one
    four = Quaternion(1.5e308, 1.5e308, 1.5e308, 1.5e308)
    axis = from_ellipse(EllipseParams(1.0, 0.0, math.pi / 8, math.pi / 4))
    assert polarizer_apply(four, PartialPolarizer(axis, 1.0)) == four


def test_polarizer_linearity():
    rng = random.Random(50)
    for _ in range(100):
        pol = PartialPolarizer(_rand_unit(rng), rng.uniform(0, 1))
        q1, q2 = _rand_quat(rng), _rand_quat(rng)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        lhs = polarizer_apply(q1 * a + q2 * b, pol)
        rhs = polarizer_apply(q1, pol) * a + polarizer_apply(q2, pol) * b
        assert allclose(lhs, rhs, 1e-12)
