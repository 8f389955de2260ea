"""The acceptance checks of the paper's results, one implementation each.

`polquat check` runs every group in CHECK_GROUPS with its default (quick)
trial count; tests/test_acceptance.py runs the same groups at the release
count.  Each group draws from its own seeded `random.Random`, raises
AssertionError on failure (through `_require`, so also under `python -O`)
and returns a short summary of the worst errors it measured.  This module
(like the jones oracle it drives) is part of the verification surface, not of
any production code path.
"""

from __future__ import annotations

import math
import random

from . import jones, shifter
from .components import (
    PartialPolarizer,
    Waveplate,
    compose,
    hwp,
    polarizer_apply,
    qwp,
    waveplate_from_axis,
)
from .quaternion import I, J, K, ONE, Quaternion, allclose
from .signal import (
    _HALF_PI,
    EllipseParams,
    apply_phase,
    classical_from_jones,
    from_ellipse,
    from_jones,
    stokes,
    to_classical,
    to_ellipse,
    to_jones,
)

FIG5_Q = Quaternion(-8 / 9, 2 / 9, 1 / 3, 2 / 9)
FIG5_R = Quaternion(2 / 7, -3 / 7, 0.0, -6 / 7)
FIG7_Q = Quaternion(-5 / 6, 1 / 6, 1 / 2, 1 / 6)
FIG7_R = Quaternion(1 / 3, -2 / 3, 0.0, -2 / 3)

# random trials per group for `polquat check`; the acceptance suite uses more
QUICK_TRIALS = 200
# samples of the closed 2*pi ramps of Fig. 5 and Fig. 7
RAMP_SAMPLES = 256


def _rand_quat(rng: random.Random) -> Quaternion:
    return Quaternion(*(rng.gauss(0.0, 1.0) for _ in range(4)))


def _rand_unit(rng: random.Random) -> Quaternion:
    while True:
        q = _rand_quat(rng)
        if q.norm() > 1e-3:
            return q.normalized()


def _require(ok: bool, message: str, *args) -> None:
    """Fail the group with AssertionError(message % args) unless ok.  Unlike
    an `assert` statement it also runs under `python -O`."""
    if not ok:
        raise AssertionError(message % args)


def _within(label: str, worst: float, bound: float) -> str:
    _require(worst <= bound, "%s %.3e exceeds %g", label, worst, bound)
    return f"{label} {worst:.2e}"


def check_eq1_table(trials: int = QUICK_TRIALS) -> str:
    units = (ONE, I, J, K)
    names = "1ijk"
    expected = {
        "11": ONE, "1i": I, "1j": J, "1k": K,
        "i1": I, "ii": -ONE, "ij": K, "ik": -J,
        "j1": J, "ji": -K, "jj": -ONE, "jk": I,
        "k1": K, "ki": J, "kj": -I, "kk": -ONE,
    }
    for a, na in zip(units, names):
        for b, nb in zip(units, names):
            got = a * b
            want = expected[na + nb]
            _require(got == want, "%s*%s = %s, expected %s", na, nb, got, want)
    rng = random.Random(10)
    worst_assoc = worst_norm = worst_div = 0.0
    for _ in range(trials):
        p, q, r = (_rand_quat(rng) for _ in range(3))
        norm_pq = p.norm() * q.norm()
        scale = norm_pq * r.norm()
        if scale < 1e-12:
            continue
        pq = p * q
        worst_assoc = max(worst_assoc, (pq * r - p * (q * r)).norm() / scale)
        worst_norm = max(worst_norm, abs(pq.norm() - norm_pq) / norm_pq)
        worst_div = max(worst_div, (pq / q - p).norm() / p.norm())
    return ", ".join([_within("assoc", worst_assoc, 1e-12),
                      _within("norm-mult", worst_norm, 1e-12),
                      _within("quotient", worst_div, 1e-12)])


def check_table1_golden() -> str:
    s = math.sqrt(0.5)
    qwp_h = Quaternion(s, s, 0.0, 0.0)
    _require(allclose(waveplate_from_axis(ONE, math.pi / 4).q, qwp_h, 1e-15), "axis-form qwp")
    _require(allclose(waveplate_from_axis(ONE, math.pi / 2).q, I, 1e-15), "axis-form hwp")
    twice = compose([qwp(0.0), qwp(0.0)])
    _require(allclose(twice.q, I, 1e-15), "two quarter plates must make a half plate")
    _require(allclose(hwp(0.0).q, I, 1e-15), "the horizontal half plate is not i")
    _require(compose([hwp(0.0), hwp(0.0)]).q.log() == Quaternion(0.0, math.pi, 0.0, 0.0),
             "two half plates must make the full-wave plate -1 = e^(i pi)")
    return ""


def check_table2_golden() -> str:
    states = (ONE, I, J, K, ONE + J, ONE + K, ONE - K)
    for q in states:
        _require(from_jones(to_jones(q)) == q, "jones round trip %s", q)
    # and three edge states of to_ellipse: atan2 gives -pi and theta must
    # wrap; atan2 gives -pi and phi must wrap; 4e-10 from circular
    for q in states + (Quaternion(-0.0, 0.0, 1.0, -0.0), Quaternion(-1.0, -0.0, 0.0, -0.0),
                       from_ellipse(EllipseParams(1.0, 0.3, math.pi / 4 - 4e-10, 0.7))):
        _require(allclose(from_ellipse(to_ellipse(q)), q, 1e-12), "ellipse round trip %s", q)
    return ""


def check_stokes_equivalence(trials: int = QUICK_TRIALS) -> str:
    rng = random.Random(11)
    worst = worst_phase = 0.0
    for _ in range(trials):
        q = _rand_quat(rng)
        base = stokes(q)
        s = to_classical(base)
        c = classical_from_jones(to_jones(q))
        worst = max(worst, abs(s.S1 - c.S1), abs(s.S2 - c.S2), abs(s.S3 - c.S3))
        shifted = stokes(apply_phase(q, rng.uniform(-math.pi, math.pi)))
        worst_phase = max(worst_phase, abs(shifted.s1 - base.s1),
                          abs(shifted.s2 - base.s2), abs(shifted.s3 - base.s3))
    return ", ".join([_within("paths", worst, 1e-12),
                      _within("phase", worst_phase, 1e-12)])


def check_eq4_symmetry(trials: int = QUICK_TRIALS) -> str:
    rng = random.Random(12)
    worst_det = 0.0
    for _ in range(trials):
        plate = Waveplate(_rand_unit(rng))
        m = jones.quat_to_matrix(plate.q)
        _require(jones.is_waveplate_matrix(m), "plate image must have retarder symmetry")
        worst_det = max(worst_det, abs(m[0][0] * m[1][1] - m[0][1] * m[1][0] - 1.0))
    return _within("det-1", worst_det, 1e-12)


def check_oracle_differential(trials: int = QUICK_TRIALS) -> str:
    rng = random.Random(13)
    worst_plate = worst_pol = 0.0
    for _ in range(trials):
        q = _rand_quat(rng)
        plate = Waveplate(_rand_unit(rng))
        q_jones = to_jones(q)
        via_quat = to_jones(q * plate.q)
        via_mat = jones.oracle_apply(q_jones, plate)
        worst_plate = max(worst_plate, abs(via_quat.ex - via_mat.ex),
                          abs(via_quat.ey - via_mat.ey))
        pol = PartialPolarizer(_rand_unit(rng), rng.random())
        r_quat = to_jones(polarizer_apply(q, pol))
        r_mat = jones.oracle_polarizer(q_jones, pol)
        worst_pol = max(worst_pol, abs(r_quat.ex - r_mat.ex), abs(r_quat.ey - r_mat.ey))
    return ", ".join([_within("plates", worst_plate, 1e-12),
                      _within("polarizers", worst_pol, 1e-12)])


def _assert_reduced(angles: shifter.WaveplateAngles) -> None:
    _require(all(-_HALF_PI < psi <= _HALF_PI for psi in angles),
             "plate angle outside (-pi/2, pi/2]: %s", angles)


def _composed(angles: shifter.WaveplateAngles) -> Quaternion:
    """The stack realized from the plates themselves, not from the closed form
    that `shifter.forward_transform` evaluates."""
    return compose([qwp(angles.psi_a), hwp(angles.psi_b), qwp(angles.psi_c)]).q


def check_shifter_inversion(trials: int = QUICK_TRIALS) -> str:
    """The target p = `shifter.target_transform(q, r, phi)` of random
    (q, r, phi) is unit and meets q p = e^(i phi) r; then both branches of
    each regular p, and trials // 50 draws of each singular family
    (p = +-i e^(j x) and p = +-e^(j x)), each triple realized as a composed
    qwp-hwp-qwp stack."""
    rng = random.Random(14)
    worst_unit = worst_defining = worst = 0.0
    regular = 0
    for _ in range(trials):
        q, r = _rand_unit(rng), _rand_unit(rng)
        phi = rng.uniform(-math.pi, math.pi)
        p = shifter.target_transform(q, r, phi)
        worst_unit = max(worst_unit, abs(p.norm() - 1.0))
        worst_defining = max(worst_defining, (q * p - apply_phase(r, phi)).norm())
        sol = shifter.solve_angles(p)
        if sol.classification is not shifter.Classification.REGULAR:
            continue
        regular += 1
        for angles in sol.branches:
            _assert_reduced(angles)
            worst = max(worst, (_composed(angles) - p).norm())
    _require(regular >= trials - trials // 1000,
             "only %d of %d solves regular", regular, trials)
    worst_family = 0.0
    for _ in range(trials // 50):
        x = rng.uniform(-math.pi, math.pi)
        rot = Quaternion(math.cos(x), 0.0, math.sin(x), 0.0) * rng.choice((1.0, -1.0))
        for p, want in ((I * rot, shifter.Classification.SINGULAR_A),
                        (rot, shifter.Classification.SINGULAR_B)):
            sol = shifter.solve_angles(p)
            _require(sol.classification is want, "%s solved as %s", p, sol.classification)
            samples = sol.family_samples
            _require(len(samples) == 16, "%d family samples, expected 16", len(samples))
            for angles in samples:
                _assert_reduced(angles)
                worst_family = max(worst_family, (_composed(angles) - p).norm())
    return ", ".join([_within("target-unit", worst_unit, 2e-15),
                      _within("defining-property", worst_defining, 2e-15),
                      _within("branches", worst, 1e-13),
                      _within("families", worst_family, 1e-13)])


def _constant_sop(rows) -> str:
    """The output SOP holds still along a ramp: the spreads of the output
    orientation and ellipticity over the rows of `shifter.ramp_rows`."""
    thetas = [ell.theta for _, ell in rows]
    epss = [ell.epsilon for _, ell in rows]
    return ", ".join([_within("orientation", max(thetas) - min(thetas), 1e-13),
                      _within("ellipticity", max(epss) - min(epss), 1e-13)])


def check_fig5_ramp() -> str:
    """Smooth, unflagged ramp on one branch: constant output SOP and an
    output phase that runs along a straight line through exactly 2*pi.  Both
    ramp groups check the rows `polquat ramp` writes (`shifter.ramp_rows`)."""
    rows = list(shifter.ramp_rows(FIG5_Q, FIG5_R, RAMP_SAMPLES))
    residual = _within("residual", max(pt.residual for pt, _ in rows), 1e-13)
    phases = []
    for pt, ell in rows:
        _require(not pt.flagged, "no singular crossing expected, flagged at phi=%r", pt.phi)
        _require(pt.branch == rows[0][0].branch, "branch changed at phi=%r", pt.phi)
        # unwrapped: each step is the wrapped phase difference, in [-pi, pi]
        prev = phases[-1] if phases else ell.phi
        phases.append(prev + math.remainder(ell.phi - prev, 2.0 * math.pi))
    span = phases[-1] - phases[0]
    line = max(abs(phase - (phases[0] + pt.phi)) for phase, (pt, _) in zip(phases, rows))
    return ", ".join([residual, _constant_sop(rows),
                      _within("span-2pi", abs(span - 2.0 * math.pi), 1e-13),
                      _within("line", line, 1e-13)])


def check_fig7_singular() -> str:
    """Equal-ellipticity pair: constant output SOP across exactly two flagged
    crossings, each a ~pi/2 jump."""
    eq, er = to_ellipse(FIG7_Q), to_ellipse(FIG7_R)
    _require(abs(eq.epsilon + 0.23) <= 0.01, "input ellipticity %r", eq.epsilon)
    eps = _within("equal-ellipticity", abs(eq.epsilon - er.epsilon), 1e-12)
    rows = list(shifter.ramp_rows(FIG7_Q, FIG7_R, RAMP_SAMPLES))
    points = [pt for pt, _ in rows]
    residual = _within("residual", max(pt.residual for pt in points), 1e-13)
    flagged = [i for i, pt in enumerate(points) if pt.flagged]
    _require(len(flagged) == 2, "expected 2 singular crossings, saw %d", len(flagged))
    steps = [shifter.triple_distance(points[i].angles, points[i - 1].angles) for i in flagged]
    return ", ".join([eps, residual, _constant_sop(rows),
                      _within("step-pi/2", max(abs(s - _HALF_PI) for s in steps), 0.1)])


CHECK_GROUPS = [
    ("eq1-table", check_eq1_table),
    ("table1-golden", check_table1_golden),
    ("table2-golden", check_table2_golden),
    ("stokes-equivalence", check_stokes_equivalence),
    ("eq4-symmetry", check_eq4_symmetry),
    ("oracle-differential", check_oracle_differential),
    ("shifter-inversion", check_shifter_inversion),
    ("fig5-ramp", check_fig5_ramp),
    ("fig7-singular", check_fig7_singular),
]
