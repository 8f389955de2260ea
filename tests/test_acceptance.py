"""Acceptance suite: every release criterion at its stated tolerance.

One test body, `test_release_criterion`, runs each criterion under its own
name.  The nine check groups of `polquat.checks` are nine of them, each run
at `RELEASE_TRIALS` where the group takes a trial count, so the shipped
self-check and the release criteria share one implementation.  `TESTS_ONLY`
holds the other five, written here on the same engine: pure Python, draws
from a seeded `random.Random` through `checks._rand_quat`/`_rand_unit`,
failures through `checks._require`/`_within`.  Run `pytest
tests/test_acceptance.py -v -s` to see one line per criterion with the worst
errors it measured.
"""

import inspect
import math
import random
import re
from functools import partial
from pathlib import Path

import pytest

from polquat import (
    Axis,
    I,
    J,
    K,
    OrthogonalityClass,
    PartialPolarizer,
    Quaternion,
    allclose,
    apply,
    apply_phase,
    classify_orthogonality,
    compose,
    hwp,
    orthogonal_sop,
    polarizer_apply,
    qwp,
    stokes,
    to_classical,
    to_ellipse,
    to_jones,
    waveplate_from_axis,
)
from polquat import checks
from polquat.checks import FIG5_Q, FIG5_R, _rand_quat, _rand_unit, _require, _within
from polquat.jones import jones_column, quat_to_matrix

# random trials per check group at release (the self-check runs QUICK_TRIALS)
RELEASE_TRIALS = 10_000


def _matmul(m: tuple, n: tuple) -> tuple:
    """The product of two 2x2 matrices given as pairs of row tuples."""
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _oracle_anti_homomorphism() -> str:
    rng = random.Random(102)
    worst = 0.0
    for _ in range(10_000):
        p, q = _rand_quat(rng), _rand_quat(rng)
        lhs = quat_to_matrix(p * q)
        rhs = _matmul(quat_to_matrix(q), quat_to_matrix(p))
        worst = max(worst, *(abs(x - y) for lrow, rrow in zip(lhs, rhs)
                             for x, y in zip(lrow, rrow)))
        _require(jones_column(p) == to_jones(p), "jones_column(%s) is not to_jones", p)
    return _within("M(pq) - M(q) M(p)", worst, 1e-12)


def _rodrigues(axis: tuple, angle: float, v: tuple) -> tuple:
    """v rotated by angle about the unit 3-vector axis, right-hand rule:
    (1 + sin(angle) K + (1 - cos(angle)) K^2) v with K v = axis x v.  It
    shares no code with the quaternions: it is the reference for the
    Poincare-sphere precession law."""
    kx, ky, kz = axis
    x, y, z = v
    cx, cy, cz = ky * z - kz * y, kz * x - kx * z, kx * y - ky * x
    ccx, ccy, ccz = ky * cz - kz * cy, kz * cx - kx * cz, kx * cy - ky * cx
    s, t = math.sin(angle), 1.0 - math.cos(angle)
    return (x + s * cx + t * ccx, y + s * cy + t * ccy, z + s * cz + t * ccz)


def _precession() -> str:
    """A plate of retardance 2 eta about the slow axis `slow` turns every
    Stokes vector by 2 eta about the Stokes vector of `slow`, and its log is
    eta times that vector: a vector part of norm eta whose exp is the plate."""
    rng = random.Random(106)
    worst = worst_log = 0.0
    for _ in range(1000):
        q = _rand_quat(rng)
        slow = _rand_unit(rng)
        eta = rng.uniform(0.01, math.pi - 0.01)
        plate = waveplate_from_axis(slow, eta)
        s = stokes(slow)
        log = plate.q.log()
        worst_log = max(worst_log, (log - s.as_quaternion() * eta).norm(),
                        abs(log.vector_norm() - eta), (log.exp() - plate.q).norm())
        s_out = to_classical(stokes(apply(q, plate)))
        want = _rodrigues(to_classical(s), 2.0 * eta, to_classical(stokes(q)))
        worst = max(worst, *(abs(g - w) for g, w in zip(s_out, want)))
    return ", ".join([_within("precession", worst, 1e-10), _within("log", worst_log, 1e-12)])


def _polarizer() -> str:
    rng = random.Random(107)
    worst = worst_forms = 0.0
    for _ in range(1000):
        p = _rand_unit(rng)
        mu = rng.uniform(0.0, 1.0)
        phi = rng.uniform(-math.pi, math.pi)
        pol = PartialPolarizer(p, mu)
        passed = apply_phase(p, phi)
        worst = max(worst, (polarizer_apply(passed, pol) - passed).norm())
        blocked = apply_phase(J * p, phi)
        worst = max(worst, (polarizer_apply(blocked, pol) - blocked * mu).norm())
        q = _rand_quat(rng)
        s = stokes(p).as_quaternion()
        alt = (q * (1 + mu) - q.double_conjugate(Axis.I) * I * s * (1 - mu)) * 0.5
        worst_forms = max(worst_forms, (polarizer_apply(q, pol) - alt).norm())
    return ", ".join([_within("eigen", worst, 1e-12), _within("forms", worst_forms, 1e-12)])


def _conjugation_properties() -> str:
    rng = random.Random(108)
    for _ in range(1000):
        q = _rand_quat(rng)
        for axis, v in zip(Axis, (I, J, K)):
            _require(allclose(q.partial_conjugate(axis), -(v * q.conjugate() * v), 1e-12),
                     "partial conjugate of %s about %s", q, axis)
            _require(allclose(q.double_conjugate(axis), -(v * q * v), 1e-12),
                     "double conjugate of %s about %s", q, axis)
        phi = rng.uniform(-math.pi, math.pi)
        sa = stokes(apply_phase(orthogonal_sop(q), phi))
        sb = stokes(q)
        _require(max(abs(sa.s1 + sb.s1), abs(sa.s2 + sb.s2), abs(sa.s3 + sb.s3)) <= 1e-12,
                 "the orthogonal SOP of %s has Stokes vector %s", q, sa)
        if q.norm() > 1e-3:
            scale = rng.uniform(0.1, 4.0)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            for other, want in (
                    (apply_phase(orthogonal_sop(q), phi) * scale,
                     OrthogonalityClass.ORTHOGONAL_SOP),
                    (apply_phase(q, phi) * scale, OrthogonalityClass.SAME_SOP),
                    (I * q * (scale * sign), OrthogonalityClass.SAME_SOP_ORTHOGONAL_PHASE)):
                got = classify_orthogonality(other, q)
                _require(got is want, "%s against %s is %s, expected %s", other, q, got, want)
    # double conjugate: explicit componentwise definition
    q = Quaternion(1, 1, 1, 1)
    _require(q.double_conjugate(Axis.K) == Quaternion(1, -1, -1, 1), "double conjugate about k")
    return ""


def _evans_property() -> str:
    """Five-plate stack from generic parts: two quarter plates funnel the
    input SOP to a circular state, the mirrored pair restores the output SOP,
    and rotating the central half plate by alpha shifts phase by exactly
    2 alpha."""
    eq = to_ellipse(FIG5_Q)
    er = to_ellipse(FIG5_R)

    def evans_output(alpha: float) -> Quaternion:
        stack = compose([
            qwp(eq.theta),
            qwp(eq.theta + eq.epsilon + math.pi / 4),
            hwp(alpha),
            qwp(er.theta + er.epsilon + math.pi / 4),
            qwp(er.theta + math.pi / 2),
        ])
        return apply(FIG5_Q, stack)

    base = evans_output(0.0)
    base_ell = to_ellipse(base)
    sop = max(abs(base_ell.epsilon - er.epsilon),
              abs(math.remainder(base_ell.theta - er.theta, math.pi)))
    worst_resid = worst_phase = 0.0
    for step in range(1, 31):
        alpha = 0.1 * step
        out = evans_output(alpha)
        worst_resid = max(worst_resid, (out - apply_phase(base, 2 * alpha)).norm())
        measured = math.remainder(to_ellipse(out).phi - base_ell.phi, 2 * math.pi)
        worst_phase = max(worst_phase, abs(math.remainder(measured - 2 * alpha, 2 * math.pi)))
    return ", ".join([_within("sop", sop, 1e-9), _within("resid", worst_resid, 1e-9),
                      _within("phase", worst_phase, 1e-9)])


# the five criteria that only this suite verifies
TESTS_ONLY = {
    "oracle-anti-homomorphism": _oracle_anti_homomorphism,
    "precession": _precession,
    "polarizer": _polarizer,
    "conjugation-properties": _conjugation_properties,
    "evans-property": _evans_property,
}
# every release criterion: each check group under its own name, then those five
_CRITERIA = {**dict(checks.CHECK_GROUPS), **TESTS_ONLY}


@pytest.mark.parametrize("name", list(_CRITERIA))
def test_release_criterion(name):
    run = _CRITERIA[name]
    if "trials" in inspect.signature(run).parameters:
        run = partial(run, trials=RELEASE_TRIALS)
    # `run` raises AssertionError naming the failed bound
    print(f"{name}: {run()}")


def test_the_claim_table_names_real_groups_and_criteria():
    # README maps each sentence of the abstract to the groups and criteria
    # that verify it; every check group verifies some sentence
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### The abstract's claims and what verifies them")[1]
    rows = [line.split("|") for line in section.split("\n## ")[0].splitlines()
            if re.match(r"\| \d+ \|", line)]
    groups = {name for row in rows for name in re.findall(r"`([^`]+)`", row[3])}
    criteria = {name for row in rows for name in re.findall(r"`([^`]+)`", row[4])}
    assert groups == set(dict(checks.CHECK_GROUPS))
    assert criteria == set(TESTS_ONLY) and criteria.isdisjoint(groups), criteria
