import itertools
import math

import numpy as np
import pytest

from polquat import (
    Classification,
    EllipseParams,
    I,
    ONE,
    Quaternion,
    WaveplateAngles,
    allclose,
    apply_phase,
    compose,
    forward_transform,
    from_ellipse,
    hwp,
    qwp,
    ramp_trajectory,
    singular_signal_conditions,
    solve_angles,
    stokes,
    target_transform,
)
from polquat.checks import FIG5_Q, FIG5_R, FIG7_Q, FIG7_R
from polquat.shifter import (
    NEAR_SINGULAR_TOL,
    SINGULAR_TOL,
    SingularFamily,
    _best_family_point,
    _branch,
    _split,
    _target_line,
    reduce_angle,
    triple_distance,
)
from polquat.signal import _CIRCULAR_TOL
from util import rand_unit

HALF_PI = math.pi / 2


def jc(x: float, y: float) -> complex:
    """A 'complex number in j' (x + y*j) as an ordinary complex value."""
    return complex(x, y)


def test_target_transform_examples():
    q = rand_unit(np.random.default_rng(70))
    assert allclose(target_transform(q, q, 0.0), ONE, 1e-12)
    assert allclose(target_transform(ONE, ONE, HALF_PI), I, 1e-12)


def test_target_transform_defining_property():
    rng = np.random.default_rng(71)
    for _ in range(300):
        q, r = rand_unit(rng), rand_unit(rng)
        phi = rng.uniform(-math.pi, math.pi)
        p = target_transform(q, r, phi)
        assert abs(p.norm() - 1.0) <= 1e-12
        assert (q * p - apply_phase(r, phi)).norm() <= 1e-12


def test_target_transform_matches_the_product_form():
    # the closed line cos(phi) P0 + sin(phi) s P0 against exp(s phi) conj(q) r
    rng = np.random.default_rng(73)
    for _ in range(2000):
        q, r = rand_unit(rng), rand_unit(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        s = stokes(q).as_quaternion().normalized()
        want = (s * phi).exp() * q.conjugate() * r
        assert allclose(target_transform(q, r, phi), want, 1e-14)


def test_target_line_has_the_floats_of_the_record_algebra():
    # (P0, s P0) on floats is bit for bit the Quaternion algebra it replaces,
    # signed zeros included
    rng = np.random.default_rng(74)
    circular = Quaternion(1.0, 0.0, 0.0, 1.0).normalized()
    pairs = [(FIG5_Q, FIG5_R), (FIG7_Q, FIG7_R), (ONE, ONE), (circular, FIG5_R)] + [
        (rand_unit(rng), rand_unit(rng)) for _ in range(200)]
    for q, r in pairs:
        p0 = q.conjugate() * r
        want = (tuple(p0), tuple(stokes(q).as_quaternion().normalized() * p0))
        got = _target_line(q, r)
        assert got == want
        assert [x.hex() for part in got for x in part] == \
            [x.hex() for part in want for x in part], (q, r)


def test_target_transform_rejects_non_unit():
    with pytest.raises(ValueError):
        target_transform(ONE + I, ONE, 0.0)
    with pytest.raises(ValueError):
        target_transform(ONE, ONE * 2.0, 0.0)


def test_forward_transform_all_zero():
    # qwp(0) hwp(0) qwp(0): the quarter plates bracket the half plate and the
    # product collapses to -1
    assert allclose(forward_transform(WaveplateAngles(0, 0, 0)), -ONE, 1e-15)


def test_forward_transform_split_complex_equations():
    # p0 + p2 j = -e^(j(c-a)) cos(-a+2b-c), p1 + p3 j = j e^(j(a+c)) sin(-a+2b-c)
    rng = np.random.default_rng(72)
    for _ in range(300):
        a, b, c = rng.uniform(-math.pi, math.pi, size=3)
        p = forward_transform(WaveplateAngles(a, b, c))
        delta = -a + 2 * b - c
        lhs02 = jc(p.q0, p.q2)
        rhs02 = -np.exp(1j * (c - a)) * math.cos(delta)
        lhs13 = jc(p.q1, p.q3)
        rhs13 = 1j * np.exp(1j * (a + c)) * math.sin(delta)
        assert abs(lhs02 - rhs02) <= 1e-12
        assert abs(lhs13 - rhs13) <= 1e-12


def test_forward_transform_matches_the_composed_stack():
    rng = np.random.default_rng(75)
    # (-pi, pi]^3: negate draws from [-pi, pi)
    for a, b, c in -rng.uniform(-math.pi, math.pi, size=(10000, 3)):
        want = compose([qwp(a), hwp(b), qwp(c)]).q
        assert allclose(forward_transform(WaveplateAngles(a, b, c)), want, 1e-14)


def test_end_to_end_through_physical_plates():
    # the solved angles, realized as an actual qwp/hwp/qwp train, must send
    # q to e^(i phi) r
    from polquat import apply

    rng = np.random.default_rng(80)
    for _ in range(200):
        q, r = rand_unit(rng), rand_unit(rng)
        phi = rng.uniform(-math.pi, math.pi)
        sol = solve_angles(target_transform(q, r, phi))
        if sol.classification is not Classification.REGULAR:
            continue
        for angles in sol.branches:
            out = apply(apply(apply(q, qwp(angles.psi_a)), hwp(angles.psi_b)),
                        qwp(angles.psi_c))
            assert (out - apply_phase(r, phi)).norm() <= 1e-9


def test_solve_rejects_non_unit():
    with pytest.raises(ValueError):
        solve_angles(ONE * 1.1)


def test_sign_pairing_is_the_verified_one():
    # swapping the psi_b sign choice between branches breaks the solution:
    # the +- options of the closed-form inversion must be taken consistently
    rng = np.random.default_rng(74)
    checked = 0
    for _ in range(200):
        p = rand_unit(rng)
        if math.hypot(p.q0, p.q2) < 0.1 or math.hypot(p.q1, p.q3) < 0.1:
            continue
        sol = solve_angles(p)
        b1, b2 = sol.branches
        mixed = WaveplateAngles(b1.psi_a, b2.psi_b, b1.psi_c)
        assert (forward_transform(mixed) - p).norm() > 1e-3
        checked += 1
    assert checked > 100


def classify(p: Quaternion) -> Classification:
    return solve_angles(p).classification


def test_is_singular_classification():
    assert classify(ONE) is Classification.SINGULAR_B
    assert classify(-ONE) is Classification.SINGULAR_B
    assert classify(I) is Classification.SINGULAR_A
    assert classify(Quaternion(math.sqrt(0.5), math.sqrt(0.5), 0, 0)) \
        is Classification.REGULAR


def _target_with_c(rng, c: float, small_first: bool) -> Quaternion:
    """Unit p whose c1 = |p0 + p2 j| (small_first) or c2 = |p1 + p3 j| is c."""
    a, b = rng.uniform(-math.pi, math.pi, size=2)
    big = math.sqrt(1.0 - c * c)
    small = (c * math.cos(b), c * math.sin(b))
    large = (big * math.cos(a), big * math.sin(a))
    if small_first:
        return Quaternion(small[0], large[0], small[1], large[1])
    return Quaternion(large[0], small[0], large[1], small[1])


@pytest.mark.parametrize("small_first", [True, False], ids=["A-side", "B-side"])
def test_every_target_is_solved_within_the_bound(small_first):
    # exact answers at every distance c from the singular set: a family
    # member realizes the nearest c = 0 target, so its residual is about c,
    # which the singular threshold keeps below the 1e-9 bound of the checks
    rng = np.random.default_rng(84)
    worst = {}
    for c in [0.0] + [10.0 ** -e for e in range(300, 0, -1)]:
        for _ in range(20):
            p = _target_with_c(rng, c, small_first)
            sol = solve_angles(p)
            triples = sol.branches or sol.family_samples
            worst[c] = max([worst.get(c, 0.0)]
                           + [(forward_transform(a) - p).norm() for a in triples])
    assert max(worst.values()) <= 1e-9, {c: w for c, w in worst.items() if w > 1e-9}


def test_singular_b_family_identity_case():
    sol = solve_angles(ONE)
    assert sol.classification is Classification.SINGULAR_B
    base = sol.family.at(0.0)
    for x in (0.3, -1.1):   # every angle moves with +x
        moved = sol.family.at(x)
        assert all(abs(reduce_angle(m - b - x)) <= 1e-12
                   for m, b in zip(moved.as_tuple(), base.as_tuple()))
    for psi_b in np.linspace(-1.5, 1.5, 8):
        angles = sol.family.at(float(psi_b))
        # arg(p0 + p2 j) = 0, so psi_a = psi_c = psi_b + pi/2
        assert abs(reduce_angle(angles.psi_a - angles.psi_b) - HALF_PI) <= 1e-12
        assert abs(reduce_angle(angles.psi_c - angles.psi_b) - HALF_PI) <= 1e-12
        assert (forward_transform(angles) - ONE).norm() <= 1e-9


def test_family_callable_matches_samples():
    sol = solve_angles(I)
    base, moved = sol.family.at(0.0), sol.family.at(0.3)   # (+x, constant, -x)
    assert abs(reduce_angle(moved.psi_a - base.psi_a - 0.3)) <= 1e-12
    assert moved.psi_b == base.psi_b
    assert abs(reduce_angle(moved.psi_c - base.psi_c + 0.3)) <= 1e-12
    assert len(sol.family.parameters) == 16
    assert len(sol.family_samples) == 16
    for m, (x, angles) in enumerate(zip(sol.family.parameters, sol.family_samples)):
        assert x == -HALF_PI + math.pi * m / 16
        assert angles == sol.family.at(x)


def test_both_branches_lie_on_the_family():
    # a family is branch 1 with the half angle that c = 0 leaves undefined set
    # free, so the branch formulas at an exactly singular target are members
    assert SINGULAR_TOL < NEAR_SINGULAR_TOL   # every family ramp row is flagged
    rng = np.random.default_rng(85)
    for x in rng.uniform(-math.pi, math.pi, size=500):
        rot = Quaternion(math.cos(x), 0.0, math.sin(x), 0.0) * float(rng.choice([1.0, -1.0]))
        for p, kind in ((I * rot, Classification.SINGULAR_A),
                        (rot, Classification.SINGULAR_B)):
            split = _split(p.q0, p.q1, p.q2, p.q3)
            assert split[0] is kind
            family = solve_angles(p).family
            for branch in (1, 2):
                br = _branch(branch, *split[3:])
                assert triple_distance(_best_family_point(family, br), br) <= 1e-12


def test_best_family_point_is_no_farther_than_a_fine_grid_minimum():
    # the closed form against brute force over x, for families of both kinds
    rng = np.random.default_rng(86)
    grid = np.linspace(-HALF_PI, HALF_PI, 2001)
    for kind in (Classification.SINGULAR_A, Classification.SINGULAR_B):
        for _ in range(50):
            family = SingularFamily(kind, *map(float, rng.uniform(-math.pi, math.pi, 2)))
            prev = WaveplateAngles(*(reduce_angle(float(a))
                                     for a in rng.uniform(-math.pi, math.pi, 3)))
            brute = min(triple_distance(family.at(float(x)), prev) for x in grid)
            assert triple_distance(_best_family_point(family, prev), prev) <= brute + 1e-12


def test_singular_signal_conditions_examples():
    q = rand_unit(np.random.default_rng(76))
    assert singular_signal_conditions(q, q) is Classification.SINGULAR_B
    # horizontal in, pi/2 phase jump with mirrored (zero) ellipticity: A case
    assert singular_signal_conditions(ONE, I) is Classification.SINGULAR_A
    assert classify(target_transform(ONE, I, 0.0)) is Classification.SINGULAR_A


def test_singular_signal_conditions_constructed():
    from polquat import EllipseParams, from_ellipse

    rng = np.random.default_rng(77)
    for _ in range(100):
        phi = float(rng.uniform(-2.0, 2.0))
        eps = float(rng.uniform(-math.pi / 4 + 0.05, math.pi / 4 - 0.05))
        th1 = float(rng.uniform(-1.4, 1.4))
        th2 = float(rng.uniform(-1.4, 1.4))
        q = from_ellipse(EllipseParams(1.0, phi, eps, th1))

        dphi = HALF_PI if rng.random() < 0.5 else -HALF_PI
        phi_a = math.remainder(phi + dphi, 2 * math.pi)
        t_a = from_ellipse(EllipseParams(1.0, phi_a, -eps, th2))
        assert singular_signal_conditions(q, t_a) is Classification.SINGULAR_A
        assert classify(q.conjugate() * t_a) is Classification.SINGULAR_A

        dphi = 0.0 if rng.random() < 0.5 else math.pi
        phi_b = math.remainder(phi + dphi, 2 * math.pi)
        t_b = from_ellipse(EllipseParams(1.0, phi_b, eps, th2))
        assert singular_signal_conditions(q, t_b) is Classification.SINGULAR_B
        assert classify(q.conjugate() * t_b) is Classification.SINGULAR_B


def test_singular_signal_conditions_agree_with_target_classification():
    rng = np.random.default_rng(78)
    for _ in range(1000):
        q, r = rand_unit(rng), rand_unit(rng)
        phi = rng.uniform(-math.pi, math.pi)
        t = apply_phase(r, phi)
        predicted = singular_signal_conditions(q, t)
        actual = classify(target_transform(q, r, phi))
        assert predicted is actual
    # t = q p with min(|c1|, |c2|) = c on both sides of the singular threshold
    for c in (5e-11, 9.9e-11, 1.01e-10, 2e-10):
        for small_first in (True, False):
            for _ in range(50):
                q = rand_unit(rng)
                t = q * _target_with_c(rng, c, small_first)
                assert singular_signal_conditions(q, t) is classify(q.conjugate() * t), \
                    (c, small_first, q, t)
    # nearly circular inputs, d from a circular state, and exactly singular p:
    # the ellipse must reproduce q well within the singular threshold
    assert _CIRCULAR_TOL < SINGULAR_TOL
    for d in (4e-13, 1e-10, 4e-10, 4e-9):
        for small_first in (True, False):
            for _ in range(50):
                phi = float(rng.uniform(-math.pi, math.pi))
                theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
                eps = float(rng.choice([1.0, -1.0])) * (math.pi / 4 - d)
                q = from_ellipse(EllipseParams(1.0, phi, eps, theta))
                t = q * _target_with_c(rng, 0.0, small_first)
                assert singular_signal_conditions(q, t) is classify(q.conjugate() * t), \
                    (d, small_first, q, t)


def test_ramp_constant_phase_is_constant_and_unflagged():
    points = list(ramp_trajectory(FIG5_Q, FIG5_R, [0.4] * 16))
    first = points[0].angles
    for pt in points:
        assert triple_distance(pt.angles, first) <= 1e-12
        assert not pt.flagged
        assert pt.residual <= 1e-9


def test_ramp_starting_on_a_singularity():
    points = list(ramp_trajectory(ONE, ONE, [0.0, 0.01, 0.02]))
    assert points[0].branch == 0 and points[0].flagged
    assert all(pt.residual <= 1e-9 for pt in points)


def test_ramp_rejects_non_unit():
    with pytest.raises(ValueError):
        ramp_trajectory(ONE * 2.0, ONE, [0.0])


def test_ramp_checks_the_signals_at_the_call():
    # the phases are drawn only as rows are read, so an endless ramp is fine
    with pytest.raises(ValueError):
        ramp_trajectory(ONE * 2.0, ONE, itertools.count())


_RAMP_PAIRS = [(FIG5_Q, FIG5_R), (FIG7_Q, FIG7_R), (ONE, ONE)] + [
    (rand_unit(np.random.default_rng(seed)), rand_unit(np.random.default_rng(seed + 100)))
    for seed in (81, 82, 83)]


@pytest.mark.parametrize("q, r", _RAMP_PAIRS)
@pytest.mark.parametrize("samples", [9, 257])
def test_ramp_matches_the_per_sample_path_exactly(q, r, samples):
    # the fused row loop must give the public per-sample path's floats: the
    # kept branch of solve_angles and the residual against apply_phase.  The
    # 9-sample identity ramp alternates family rows with rows on branch 1 and 2
    phis = [2.0 * math.pi * k / (samples - 1) for k in range(samples)]
    for phi, pt in zip(phis, ramp_trajectory(q, r, phis)):
        assert pt.phi == phi
        if pt.branch:
            sol = solve_angles(target_transform(q, r, phi))
            assert pt.angles == sol.branches[pt.branch - 1]
        assert pt.residual == (q * forward_transform(pt.angles) - apply_phase(r, phi)).norm()
