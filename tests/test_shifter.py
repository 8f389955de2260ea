import cmath
import math
import random

import pytest

from polquat import (
    Classification,
    EllipseParams,
    I,
    J,
    ONE,
    Quaternion,
    WaveplateAngles,
    allclose,
    apply,
    apply_phase,
    compose,
    forward_transform,
    from_ellipse,
    hwp,
    qwp,
    ramp_trajectory,
    solve_angles,
    stokes,
    target_transform,
)
from polquat.checks import FIG5_Q, FIG5_R, FIG7_Q, FIG7_R, _rand_unit
from polquat.shifter import (
    NEAR_SINGULAR_TOL,
    SINGULAR_TOL,
    ShifterSolution,
    SingularFamily,
    _best_family_point,
    _branch,
    _target_line,
    reduce_angle,
    triple_distance,
)

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4
EPS = 2.0 ** -52


def jc(x: float, y: float) -> complex:
    """A 'complex number in j' (x + y*j) as an ordinary complex value."""
    return complex(x, y)


def test_target_transform_matches_the_product_form():
    # the closed line cos(phi) P0 + sin(phi) P1 against the paper's
    # exp(s phi) conj(q) r, s the Stokes unit vector of q: an independent
    # form of the same p, first at r = q with no phase (the identity) and at
    # q = r = 1 with a quarter turn (i)
    same = _rand_unit(random.Random(70))
    rng = random.Random(73)
    cases = [(same, same, 0.0), (ONE, ONE, HALF_PI)] + [
        (_rand_unit(rng), _rand_unit(rng), rng.uniform(-math.pi, math.pi)) for _ in range(2000)]
    for q, r, phi in cases:
        s = stokes(q).as_quaternion().normalized()
        want = (s * phi).exp() * q.conjugate() * r
        assert allclose(target_transform(q, r, phi), want, 1e-14)


def test_target_line_has_the_floats_of_the_record_algebra():
    # (P0, P1) on floats is bit for bit the Quaternion algebra conj(q) r and
    # conj(q) times i r = (-r1, r0, -r3, r2), signed zeros included
    rng = random.Random(74)
    circular = Quaternion(1.0, 0.0, 0.0, 1.0).normalized()
    pairs = [(FIG5_Q, FIG5_R), (FIG7_Q, FIG7_R), (ONE, ONE), (circular, FIG5_R)] + [
        (_rand_unit(rng), _rand_unit(rng)) for _ in range(200)]
    for q, r in pairs:
        turned = Quaternion(-r.q1, r.q0, -r.q3, r.q2)
        want = (tuple(q.conjugate() * r), tuple(q.conjugate() * turned))
        got = _target_line(q, r)
        assert got == want
        assert [x.hex() for part in got for x in part] == \
            [x.hex() for part in want for x in part], (q, r)


def test_forward_transform_all_zero():
    # qwp(0) hwp(0) qwp(0): the quarter plates bracket the half plate and the
    # product collapses to -1
    assert allclose(forward_transform(WaveplateAngles(0, 0, 0)), -ONE, 1e-15)


def test_forward_transform_split_complex_equations():
    # p0 + p2 j = -e^(j(c-a)) cos(-a+2b-c), p1 + p3 j = j e^(j(a+c)) sin(-a+2b-c)
    rng = random.Random(72)
    for _ in range(300):
        a, b, c = (rng.uniform(-math.pi, math.pi) for _ in range(3))
        p = forward_transform(WaveplateAngles(a, b, c))
        delta = -a + 2 * b - c
        lhs02 = jc(p.q0, p.q2)
        rhs02 = -cmath.exp(1j * (c - a)) * math.cos(delta)
        lhs13 = jc(p.q1, p.q3)
        rhs13 = 1j * cmath.exp(1j * (a + c)) * math.sin(delta)
        assert abs(lhs02 - rhs02) <= 1e-12
        assert abs(lhs13 - rhs13) <= 1e-12


def test_forward_transform_matches_the_composed_stack():
    rng = random.Random(75)
    for _ in range(10000):
        # (-pi, pi]^3: negate draws from [-pi, pi)
        a, b, c = (-rng.uniform(-math.pi, math.pi) for _ in range(3))
        want = compose([qwp(a), hwp(b), qwp(c)]).q
        assert allclose(forward_transform(WaveplateAngles(a, b, c)), want, 1e-14)


def test_end_to_end_through_physical_plates():
    # the solved angles of a regular target, realized as an actual
    # qwp/hwp/qwp train, must send q to e^(i phi) r (the check group
    # shifter-inversion asserts that p is unit and q p = e^(i phi) r)
    rng = random.Random(80)
    for _ in range(300):
        q, r = _rand_unit(rng), _rand_unit(rng)
        phi = rng.uniform(-math.pi, math.pi)
        want = apply_phase(r, phi)
        for angles in solve_angles(target_transform(q, r, phi)).branches:
            out = apply(apply(apply(q, qwp(angles.psi_a)), hwp(angles.psi_b)),
                        qwp(angles.psi_c))
            assert (out - want).norm() <= 1e-9


def test_sign_pairing_is_the_verified_one():
    # swapping the psi_b sign choice between branches breaks the solution:
    # the +- options of the closed-form inversion must be taken consistently
    rng = random.Random(74)
    checked = 0
    for _ in range(200):
        p = _rand_unit(rng)
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


def _target_with_c(rng, c: float, small_first: bool) -> Quaternion:
    """Unit p whose c1 = |p0 + p2 j| (small_first) or c2 = |p1 + p3 j| is c."""
    a, b = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
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
    # which the singular threshold of 8 eps keeps at rounding level: 16 eps
    # holds that c and a branch's rounding (these draws read at most 6.3 eps)
    rng = random.Random(84)
    worst, regular = {}, {}
    for c in [0.0] + [10.0 ** -e for e in range(300, 0, -1)]:
        for _ in range(20):
            p = _target_with_c(rng, c, small_first)
            sol = solve_angles(p)
            triples = sol.branches or sol.family_samples
            regular[c] = regular.get(c, True) and sol.family is None
            worst[c] = max([worst.get(c, 0.0)]
                           + [(forward_transform(a) - p).norm() for a in triples])
    bound = 16 * EPS
    assert max(worst.values()) <= bound, {c: w for c, w in worst.items() if w > bound}
    assert regular[1e-11] and regular[1e-13]


def test_singular_b_family_identity_case():
    sol = solve_angles(ONE)
    assert sol.classification is Classification.SINGULAR_B
    base = sol.family.at(0.0)
    for x in (0.3, -1.1):   # every angle moves with +x
        moved = sol.family.at(x)
        assert all(abs(reduce_angle(m - b - x)) <= 1e-12
                   for m, b in zip(moved, base))
    for psi_b in (-1.5 + 3.0 * m / 7 for m in range(8)):
        angles = sol.family.at(psi_b)
        # arg(p0 + p2 j) = 0, so psi_a = psi_c = psi_b + pi/2
        assert abs(reduce_angle(angles.psi_a - angles.psi_b) - HALF_PI) <= 1e-12
        assert abs(reduce_angle(angles.psi_c - angles.psi_b) - HALF_PI) <= 1e-12
        assert (forward_transform(angles) - ONE).norm() <= 1e-9


def _bits(angles) -> tuple:
    # repr tells -0.0 from 0.0, which == does not
    return tuple(map(repr, angles))


@pytest.mark.parametrize("kind", [Classification.SINGULAR_A, Classification.SINGULAR_B])
def test_family_members_are_branch_1_bit_for_bit(kind):
    # the affine form of a member keeps every float operation of branch 1 at
    # the half angles the family frees, signs of zero included
    assert SingularFamily.parameters == tuple(-HALF_PI + math.pi * m / 16 for m in range(16))
    rng = random.Random(20)
    halves = [0.0, -0.0, QUARTER_PI, -HALF_PI] + [rng.uniform(-math.pi, math.pi)
                                                  for _ in range(20)]
    xs = [*SingularFamily.parameters, 0.0, -0.0, HALF_PI, -HALF_PI,
          *(rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(40))]
    for half in halves:
        family = SingularFamily(kind, half)
        for x in xs:
            if kind is Classification.SINGULAR_A:
                want = _branch(1, half, -x, 0.0)
            else:
                want = _branch(1, x + QUARTER_PI, half, QUARTER_PI)
            assert _bits(family.at(x)) == _bits(want), (half, x)
        samples = ShifterSolution(None, family).family_samples
        assert samples == tuple(map(family.at, family.parameters))
        assert list(map(_bits, samples)) == [_bits(family.at(x)) for x in family.parameters]


def test_both_branches_lie_on_the_family():
    # a family is branch 1 with the half angle that c = 0 leaves undefined set
    # free, so the branch formulas at an exactly singular target are members
    assert SINGULAR_TOL < NEAR_SINGULAR_TOL   # every family ramp row is flagged
    # first +-1 and +-i, then 500 draws
    rng = random.Random(85)
    draws = [(0.0, 1.0), (0.0, -1.0)] + [
        (rng.uniform(-math.pi, math.pi), rng.choice([1.0, -1.0])) for _ in range(500)]
    for x, sign in draws:
        rot = Quaternion(math.cos(x), 0.0, math.sin(x), 0.0) * sign
        for p, kind in ((I * rot, Classification.SINGULAR_A),
                        (rot, Classification.SINGULAR_B)):
            family = solve_angles(p).family
            assert family.kind is kind
            # the half angles a_half, b_half and t_half of the branch formulas
            halves = (0.5 * math.atan2(p.q3, p.q1), 0.5 * math.atan2(p.q2, p.q0),
                      0.5 * math.atan2(math.hypot(p.q0, p.q2), math.hypot(p.q1, p.q3)))
            for branch in (1, 2):
                br = _branch(branch, *halves)
                assert triple_distance(_best_family_point(family, br), br) <= 1e-12


def test_best_family_point_is_no_farther_than_a_fine_grid_minimum():
    # the closed form against brute force over x, for families of both kinds
    rng = random.Random(86)
    grid = [-HALF_PI + math.pi * m / 2000 for m in range(2001)]
    for kind in (Classification.SINGULAR_A, Classification.SINGULAR_B):
        for _ in range(50):
            a_half, b_half = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            family = SingularFamily(kind, a_half if kind is Classification.SINGULAR_A else b_half)
            prev = WaveplateAngles(*(reduce_angle(rng.uniform(-math.pi, math.pi))
                                     for _ in range(3)))
            brute = min(triple_distance(family.at(x), prev) for x in grid)
            assert triple_distance(_best_family_point(family, prev), prev) <= brute + 1e-12


def test_singular_set_of_ellipse_conditions():
    # opposite ellipticity with a +-pi/2 phase advance gives p0 = p2 = 0 (A),
    # equal ellipticity with an advance of 0 or pi gives p1 = p3 = 0 (B),
    # whatever the two orientations
    rng = random.Random(77)
    for _ in range(100):
        phi = rng.uniform(-2.0, 2.0)
        eps = rng.uniform(-math.pi / 4 + 0.05, math.pi / 4 - 0.05)
        th1 = rng.uniform(-1.4, 1.4)
        th2 = rng.uniform(-1.4, 1.4)
        q = from_ellipse(EllipseParams(1.0, phi, eps, th1))

        dphi = HALF_PI if rng.random() < 0.5 else -HALF_PI
        phi_a = math.remainder(phi + dphi, 2 * math.pi)
        t_a = from_ellipse(EllipseParams(1.0, phi_a, -eps, th2))
        assert classify(q.conjugate() * t_a) is Classification.SINGULAR_A

        dphi = 0.0 if rng.random() < 0.5 else math.pi
        phi_b = math.remainder(phi + dphi, 2 * math.pi)
        t_b = from_ellipse(EllipseParams(1.0, phi_b, eps, th2))
        assert classify(q.conjugate() * t_b) is Classification.SINGULAR_B
    # horizontal in, pi/2 phase jump with mirrored (zero) ellipticity: A case
    assert classify(target_transform(ONE, I, 0.0)) is Classification.SINGULAR_A


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


def test_ramp_of_signals_within_the_unit_tolerance_yields_every_row():
    # each signal passes the call's check, while the product of the two
    # norms, the norm of every row's target, is 1.8e-9 off unit
    q, r = ONE * (1.0 + 0.9e-9), J * (1.0 + 0.9e-9)
    phis = [2.0 * math.pi * k / 63 for k in range(64)]
    points = list(ramp_trajectory(q, r, phis))
    assert [pt.phi for pt in points] == phis
    assert max(pt.residual for pt in points) <= 1e-9


def test_a_ramp_residual_is_measured_against_the_signals_as_given():
    # the rows solve for the unit states; measured against signals within
    # 1e-9 of unit, a residual exceeds its rounding by at most the signals'
    # own norm errors, here 1.8e-9 together
    q, r = FIG5_Q * (1 + 0.9e-9), FIG5_R * (1 - 0.9e-9)
    phis = [2.0 * math.pi * k / 255 for k in range(256)]
    excess = abs(1.0 - q.norm()) + abs(1.0 - r.norm())
    worst = max(pt.residual for pt in ramp_trajectory(q, r, phis))
    assert 1e-9 < worst <= excess + 2e-15
    assert max(pt.residual for pt in ramp_trajectory(q.normalized(), r.normalized(),
                                                     phis)) <= 2e-15


@pytest.mark.parametrize("scale", [1.0 + 0.9e-9, 1.0 - 0.9e-9], ids=["long", "short"])
def test_solve_of_signals_within_the_unit_tolerance_meets_the_bound(scale):
    # each signal passes the unit check, while their product is 1.8e-9 off
    # unit: the target is that of the unit states they approximate
    q, r = ONE * scale, J * scale
    for phi in (0.0, 0.3, 2.0, -1.1):
        p = target_transform(q, r, phi)
        assert allclose(p, target_transform(q.normalized(), r.normalized(), phi), 1e-15)
        sol = solve_angles(p)
        triples = sol.branches or sol.family_samples
        assert max((forward_transform(a) - p).norm() for a in triples) <= 1e-9


@pytest.mark.parametrize("phis, kept", [([0.5, 0.0, 0.5, 1.0], 1),
                                         ([-0.5, 0.0, 0.5, 1.0], 2)],
                         ids=["back-to-1", "over-to-2"])
def test_the_row_after_a_mid_ramp_family_row_takes_the_nearer_branch(phis, kept):
    # at phi = 0 the identity problem's target is exactly 1: SINGULAR_B
    points = list(ramp_trajectory(ONE, ONE, phis))
    assert (points[1].branch, points[1].flagged) == (0, True)
    branches = solve_angles(target_transform(ONE, ONE, 0.5)).branches
    d1, d2 = (triple_distance(angles, points[1].angles) for angles in branches)
    assert kept == (1 if d1 <= d2 else 2)
    assert (points[2].branch, points[2].angles) == (kept, branches[kept - 1])
    assert points[3].branch == kept


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_phase_is_rejected(bad):
    # the ramp streams: the row before the bad phase comes out, then it raises
    points = ramp_trajectory(FIG5_Q, FIG5_R, [0.0, bad, 1.0])
    assert next(points).branch == 1
    # the whole message: nan, inf and -inf hold no regex metacharacter
    with pytest.raises(ValueError, match=f"^phase must be a finite number, got {bad!r}$"):
        next(points)


@pytest.mark.parametrize("d, flagged", [(1e-5, True), (9e-5, True), (1.1e-4, False),
                                        (2e-4, False)])
def test_near_singular_rows_are_flagged_by_c_alone(d, flagged):
    # at phi = 0 the target is r itself, so min(c1, c2) = |p1 + p3 j| = sin d,
    # on either side of NEAR_SINGULAR_TOL; the second row moves by about 1e-9,
    # so no jump can flag it
    r = Quaternion(math.cos(d), 0.0, 0.0, math.sin(d))
    points = list(ramp_trajectory(ONE, r, [0.0, 1e-9]))
    assert [pt.branch for pt in points] == [1, 1]
    assert [pt.flagged for pt in points] == [flagged, flagged]


_RAMP_PAIRS = [(FIG5_Q, FIG5_R), (FIG7_Q, FIG7_R), (ONE, ONE)] + [
    (_rand_unit(random.Random(seed)), _rand_unit(random.Random(seed + 100)))
    for seed in (81, 82, 83)] + [
    # the negative-zero ramps of tests/test_cli.py, as `polquat ramp` reads them
    (Quaternion.from_text(q).normalized(), Quaternion.from_text(r).normalized())
    for q, r in [("-1,0,0,0", "1,0,0,0"), ("0,1,0,0", "0,-1,0,0"), ("-1,0,0,0", "0,-1,0,0"),
                 ("-1,0,0,0", "0.7071067811865475,0,0.7071067811865475,0"),
                 ("-0.7071067811865475,0,-0.7071067811865475,0", "0,-1,0,0")]]


@pytest.mark.parametrize("q, r", _RAMP_PAIRS)
@pytest.mark.parametrize("samples", [9, 257])
def test_ramp_matches_the_per_sample_path_exactly(q, r, samples):
    # the fused row loop must give the public per-sample path's floats, bit
    # for bit (the reprs tell -0.0 from 0.0): the kept branch of solve_angles
    # and the residual against apply_phase.  The 9-sample identity ramp
    # alternates family rows with rows on branch 1 and 2
    phis = [2.0 * math.pi * k / (samples - 1) for k in range(samples)]
    for phi, pt in zip(phis, ramp_trajectory(q, r, phis)):
        assert pt.phi == phi
        if pt.branch:
            sol = solve_angles(target_transform(q, r, phi))
            assert repr(pt.angles) == repr(sol.branches[pt.branch - 1])
        residual = (q * forward_transform(pt.angles) - apply_phase(r, phi)).norm()
        assert repr(pt.residual) == repr(residual)
