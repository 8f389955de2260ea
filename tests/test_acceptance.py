"""Acceptance suite: every release criterion at its stated tolerance.

Criteria that `polquat check` also verifies call the same group from
`polquat.checks` at the release trial count, so the shipped self-check and
the release criteria share one implementation; the remaining criteria are
implemented here.  Run `pytest tests/test_acceptance.py -v -s` to see one
PASS/FAIL line per criterion.
"""

import math

import numpy as np

from polquat import (
    Axis,
    I,
    J,
    OrthogonalityClass,
    PartialPolarizer,
    Quaternion,
    allclose,
    apply,
    apply_phase,
    axis_retardance,
    classify_orthogonality,
    compose,
    hwp,
    polarizer_apply,
    qwp,
    stokes,
    to_classical,
    to_ellipse,
    to_jones,
    waveplate_from_axis,
)
from polquat import checks
from polquat.checks import FIG5_Q, FIG5_R
from polquat.jones import jones_column, quat_to_matrix
from util import rand_quat, rand_unit, rodrigues

# random trials per check group at release (the self-check runs QUICK_TRIALS)
RELEASE_TRIALS = 10_000


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _run_group(name: str, group, *args) -> None:
    try:
        detail = group(*args)
    except AssertionError as exc:
        _report(name, False, str(exc))
    _report(name, True, detail)


def test_criterion_01_base_algebra():
    _run_group("criterion-01 base-algebra", checks.check_eq1_table, RELEASE_TRIALS)


def test_criterion_02_oracle_anti_homomorphism():
    rng = np.random.default_rng(102)
    worst = 0.0
    columns_exact = True
    for _ in range(10_000):
        p, q = rand_quat(rng), rand_quat(rng)
        lhs = quat_to_matrix(p * q)
        rhs = np.array(quat_to_matrix(q)) @ np.array(quat_to_matrix(p))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        col = jones_column(p)
        jv = to_jones(p)
        columns_exact &= (col.ex == jv.ex and col.ey == jv.ey)
    _report("criterion-02 oracle-anti-homomorphism",
            worst <= 1e-12 and columns_exact, f"worst {worst:.2e}")


def test_criterion_03_table1_golden():
    _run_group("criterion-03 table1-golden", checks.check_table1_golden)


def test_criterion_04_table2_golden():
    _run_group("criterion-04 table2-golden", checks.check_table2_golden)


def test_criterion_05_stokes_equivalence():
    _run_group("criterion-05 stokes-equivalence", checks.check_stokes_equivalence,
               RELEASE_TRIALS)


def test_criterion_06_precession():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        q = rand_quat(rng)
        plate = waveplate_from_axis(rand_unit(rng),
                                    float(rng.uniform(0.01, math.pi - 0.01)))
        form = axis_retardance(plate)
        s_in = to_classical(stokes(q))
        s_out = to_classical(stokes(apply(q, plate)))
        axis = np.array([form.axis.q1, form.axis.q3, form.axis.q2])
        want = rodrigues(axis, form.retardance) @ np.array([s_in.S1, s_in.S2, s_in.S3])
        got = np.array([s_out.S1, s_out.S2, s_out.S3])
        worst = max(worst, float(np.max(np.abs(got - want))))
    _report("criterion-06 precession", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_07_polarizer():
    rng = np.random.default_rng(107)
    worst = worst_forms = 0.0
    for _ in range(1000):
        p = rand_unit(rng)
        mu = float(rng.uniform(0, 1))
        phi = float(rng.uniform(-math.pi, math.pi))
        pol = PartialPolarizer(p, mu)
        passed = apply_phase(p, phi)
        worst = max(worst, (polarizer_apply(passed, pol) - passed).norm())
        blocked = apply_phase(J * p, phi)
        worst = max(worst, (polarizer_apply(blocked, pol) - blocked * mu).norm())
        q = rand_quat(rng)
        s = stokes(p).as_quaternion()
        alt = (q * (1 + mu) - q.double_conjugate(Axis.I) * I * s * (1 - mu)) * 0.5
        worst_forms = max(worst_forms, (polarizer_apply(q, pol) - alt).norm())
    _report("criterion-07 polarizer", worst <= 1e-12 and worst_forms <= 1e-12,
            f"eigen {worst:.2e}, forms {worst_forms:.2e}")


def test_criterion_08_conjugation_properties():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(1000):
        q = rand_quat(rng)
        for axis in Axis:
            v = axis.unit
            ok &= allclose(q.partial_conjugate(axis), -(v * q.conjugate() * v), 1e-12)
            ok &= allclose(q.double_conjugate(axis), -(v * q * v), 1e-12)
        phi = float(rng.uniform(-math.pi, math.pi))
        sa = stokes(apply_phase(J * q, phi))
        sb = stokes(q)
        ok &= (abs(sa.s1 + sb.s1) <= 1e-12 and abs(sa.s2 + sb.s2) <= 1e-12
               and abs(sa.s3 + sb.s3) <= 1e-12)
        if q.norm() > 1e-3:
            scale = float(rng.uniform(0.1, 4.0))
            ok &= classify_orthogonality(apply_phase(J * q, phi) * scale, q) \
                is OrthogonalityClass.ORTHOGONAL_SOP
            ok &= classify_orthogonality(apply_phase(q, phi) * scale, q) \
                is OrthogonalityClass.SAME_SOP
            sign = 1.0 if rng.random() < 0.5 else -1.0
            ok &= classify_orthogonality(I * q * (scale * sign), q) \
                is OrthogonalityClass.SAME_SOP_ORTHOGONAL_PHASE
    # double conjugate: explicit componentwise definition
    q = Quaternion(1, 1, 1, 1)
    ok &= q.double_conjugate(Axis.K) == Quaternion(1, -1, -1, 1)
    _report("criterion-08 conjugation-properties", ok)


def test_criterion_09_shifter_inversion():
    _run_group("criterion-09 shifter-inversion", checks.check_shifter_inversion,
               RELEASE_TRIALS)


def test_criterion_10_fig5_reproduction():
    _run_group("criterion-10 fig5-reproduction", checks.check_fig5_ramp)


def test_criterion_11_fig7_reproduction():
    _run_group("criterion-11 fig7-reproduction", checks.check_fig7_singular)


def test_criterion_12_evans_property():
    # five-plate stack from generic parts: two quarter plates funnel the
    # input SOP to a circular state, the mirrored pair restores the output
    # SOP, and rotating the central half plate by alpha shifts phase by
    # exactly 2 alpha
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
    sop_ok = (abs(base_ell.epsilon - er.epsilon) <= 1e-9
              and abs(math.remainder(base_ell.theta - er.theta, math.pi)) <= 1e-9)
    worst_resid = worst_phase = 0.0
    for step in range(1, 31):
        alpha = 0.1 * step
        out = evans_output(alpha)
        worst_resid = max(worst_resid, (out - apply_phase(base, 2 * alpha)).norm())
        measured = math.remainder(to_ellipse(out).phi - base_ell.phi, 2 * math.pi)
        worst_phase = max(worst_phase,
                          abs(math.remainder(measured - 2 * alpha, 2 * math.pi)))
    _report("criterion-12 evans-property",
            sop_ok and worst_resid <= 1e-9 and worst_phase <= 1e-9,
            f"resid {worst_resid:.2e}, phase {worst_phase:.2e}")


def test_eq4_symmetry():
    _run_group("eq4-symmetry", checks.check_eq4_symmetry, RELEASE_TRIALS)


def test_oracle_differential():
    _run_group("oracle-differential", checks.check_oracle_differential, RELEASE_TRIALS)
