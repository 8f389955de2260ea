import math

import numpy as np
import pytest

from polquat import (
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
    axis_retardance,
    compose,
    hwp,
    orthogonal_sop,
    polarizer_apply,
    qwp,
    rotate_element,
    stokes,
    waveplate_from_axis,
)
from util import rand_quat, rand_unit

SQH = math.sqrt(0.5)
QWP_H = Quaternion(SQH, SQH, 0, 0)


def test_apply_examples():
    assert allclose(apply(ONE, Waveplate(QWP_H)), QWP_H, 1e-15)
    q = Quaternion(0.1, 0.2, 0.3, 0.4)
    assert apply(q, Waveplate(ONE)) == q
    # fast-axis state of the horizontal half plate is retarded by -eta
    assert allclose(apply(J, Waveplate(I)), -K, 1e-15)


def test_waveplate_requires_unit():
    with pytest.raises(ValueError):
        Waveplate(Quaternion(1, 1, 0, 0))


def test_compose():
    assert allclose(compose([Waveplate(QWP_H), Waveplate(QWP_H)]).q, I, 1e-15)
    w = Waveplate(rand_unit(np.random.default_rng(40)))
    inv = Waveplate(w.q.conjugate())
    assert allclose(compose([w, inv]).q, ONE, 1e-12)
    with pytest.raises(ValueError):
        compose([])


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(41)
    for _ in range(100):
        q = rand_quat(rng)
        plates = [Waveplate(rand_unit(rng)) for _ in range(3)]
        seq = q
        for p in plates:
            seq = apply(seq, p)
        assert allclose(apply(q, compose(plates)), seq, 1e-12)


def test_waveplate_from_axis_table1():
    assert allclose(waveplate_from_axis(ONE, math.pi / 4).q, QWP_H, 1e-15)
    assert allclose(waveplate_from_axis(ONE, math.pi / 2).q, I, 1e-15)
    with pytest.raises(ValueError):
        waveplate_from_axis(ONE + I, 0.3)


def test_waveplate_from_axis_two_construction_paths():
    rng = np.random.default_rng(42)
    diag = Quaternion(SQH, 0, SQH, 0)
    direct = waveplate_from_axis(diag, math.pi / 2).q
    assert allclose(direct, diag.conjugate() * I * diag, 1e-12)
    for _ in range(100):
        slow = rand_unit(rng)
        eta = rng.uniform(0.0, math.pi)
        via_division = waveplate_from_axis(slow, eta).q
        s = stokes(slow).as_quaternion().normalized()
        via_exp = (s * eta).exp()
        assert allclose(via_division, via_exp, 1e-12)


def test_axis_retardance():
    form = axis_retardance(Waveplate(QWP_H))
    assert allclose(form.axis, I, 1e-15)
    assert abs(form.eta - math.pi / 4) <= 1e-15
    assert abs(form.retardance - math.pi / 2) <= 1e-15
    form = axis_retardance(Waveplate(I))
    assert allclose(form.axis, I, 1e-15) and abs(form.eta - math.pi / 2) <= 1e-15
    with pytest.raises(ValueError):
        axis_retardance(Waveplate(ONE))
    with pytest.raises(ValueError):
        axis_retardance(Waveplate(-ONE))


def test_axis_retardance_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(100):
        slow = rand_unit(rng)
        eta = rng.uniform(0.01, math.pi - 0.01)
        plate = waveplate_from_axis(slow, eta)
        form = axis_retardance(plate)
        assert abs(form.eta - eta) <= 1e-10
        assert allclose((form.axis * form.eta).exp(), plate.q, 1e-10)


def test_rotate_element():
    assert allclose(rotate_element(Waveplate(I), math.pi / 4).q, K, 1e-15)
    w = Waveplate(rand_unit(np.random.default_rng(44)))
    assert allclose(rotate_element(w, 0.0).q, w.q, 1e-15)
    rng = np.random.default_rng(45)
    for _ in range(50):
        w = Waveplate(rand_unit(rng))
        psi = rng.uniform(-math.pi, math.pi)
        if w.q.vector_norm() < 1e-6:
            continue
        assert abs(axis_retardance(rotate_element(w, psi)).eta
                   - axis_retardance(w).eta) <= 1e-10


def test_standard_plates():
    assert allclose(qwp(0.0).q, QWP_H, 1e-15)
    assert allclose(hwp(0.0).q, I, 1e-15)
    assert allclose(hwp(math.pi / 4).q, K, 1e-15)


def test_unitarity():
    rng = np.random.default_rng(46)
    for _ in range(100):
        q = rand_quat(rng)
        w = Waveplate(rand_unit(rng))
        assert abs(apply(q, w).norm() - q.norm()) <= 1e-12 * max(1.0, q.norm())


def test_eigenstates_gain_and_lose_eta():
    rng = np.random.default_rng(47)
    for _ in range(100):
        slow = rand_unit(rng)
        eta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        plate = waveplate_from_axis(slow, eta)
        slow_in = apply_phase(slow, phi)
        assert allclose(apply(slow_in, plate), apply_phase(slow_in, eta), 1e-12)
        fast_in = apply_phase(orthogonal_sop(slow), phi)
        assert allclose(apply(fast_in, plate), apply_phase(fast_in, -eta), 1e-12)


def test_polarizer_examples():
    pol = PartialPolarizer(ONE, 0.0)
    assert allclose(polarizer_apply(ONE + J, pol), ONE, 1e-15)
    with pytest.raises(ValueError):
        PartialPolarizer(ONE, 1.5)
    with pytest.raises(ValueError):
        PartialPolarizer(ONE, -0.1)
    with pytest.raises(ValueError):
        PartialPolarizer(ONE + I, 0.5)


def test_polarizer_linearity():
    rng = np.random.default_rng(50)
    for _ in range(100):
        pol = PartialPolarizer(rand_unit(rng), float(rng.uniform(0, 1)))
        q1, q2 = rand_quat(rng), rand_quat(rng)
        a, b = rng.uniform(-2, 2, size=2)
        lhs = polarizer_apply(q1 * float(a) + q2 * float(b), pol)
        rhs = polarizer_apply(q1, pol) * float(a) + polarizer_apply(q2, pol) * float(b)
        assert allclose(lhs, rhs, 1e-12)
