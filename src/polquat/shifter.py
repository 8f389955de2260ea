"""Closed-form design of a three-plate (QWP-HWP-QWP) endless phase shifter.

Given a unit input signal q, a unit output signal r and a desired phase shift
phi, the plate stack must realize the unit transform

    p = exp(s * phi) * conj(q) * r,    s = Stokes unit vector quaternion of q,

because q * p = e^(i phi) * r.  Writing the rotated stack as a product of
exponentials, the four components of p split into two complex numbers in j,

    c1 = p0 + p2*j = -e^(j(psi_c - psi_a)) * cos(-psi_a + 2 psi_b - psi_c)
    c2 = p1 + p3*j =  j e^(j(psi_a + psi_c)) * sin(-psi_a + 2 psi_b - psi_c)

which invert in closed form.  Away from |c1| = 0 or |c2| = 0 there are
exactly two angle triples (branch 1 and branch 2); at those singular
conditions one constraint disappears and a one-parameter family of triples
solves the problem instead.

Read forwards, the same split is the six-trig closed form of the stack that
`forward_transform` evaluates.  The target is linear in (cos phi, sin phi),
p(phi) = cos(phi) P0 + sin(phi) s P0 with P0 = conj(q) r, so a ramp computes
P0 and s P0 once.

All plate angles are reduced modulo pi into (-pi/2, pi/2]; the physical
plates are pi-periodic so the reduction never changes the transform.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from enum import Enum

from .quaternion import UNIT_TOL, Quaternion, _record, _require_unit
from .signal import _stokes_parts, to_ellipse

_PI = math.pi
_HALF_PI = math.pi / 2
_QUARTER_PI = math.pi / 4

# |c1| or |c2| at or below this is treated as exactly singular.  A family
# member realizes the nearest target with c = 0, so its residual is about c:
# the threshold sits below the 1e-9 residual bound the checks apply.
SINGULAR_TOL = 1e-10
# Below this the regular solve is still returned but the sample is flagged:
# the angle sensitivity diverges as the singularity is approached.
NEAR_SINGULAR_TOL = 1e-4
# A per-angle step of at least this size between consecutive ramp samples
# marks a singular crossing (the characteristic jump size is pi/2).
JUMP_FLAG_STEP = math.pi / 4
# Evenly spaced triples a singular solution reports for its family.
FAMILY_SAMPLES = 16


class Classification(Enum):
    REGULAR = "regular"
    SINGULAR_A = "singular_a"   # p0 = p2 = 0
    SINGULAR_B = "singular_b"   # p1 = p3 = 0


# an enum member looked up on its class costs a descriptor call (CPython 3.11),
# and `SingularFamily.at` runs once per family sample
_SINGULAR_A = Classification.SINGULAR_A


class WaveplateAngles(_record("WaveplateAngles", "psi_a psi_b psi_c")):
    """Orientations of the three plates, each in (-pi/2, pi/2]."""

    __slots__ = ()

    def as_tuple(self) -> tuple:
        return tuple(self)


class SingularFamily(_record("SingularFamily", "kind a_half b_half")):
    """The one-parameter family of triples solving a singular target.

    It is branch 1 with the half angle that c = 0 leaves undefined set free:
    at c1 = 0 (SINGULAR_A) b_half = -x, and at c2 = 0 (SINGULAR_B), where
    t_half = pi/4, a_half = x + pi/4, so x is psi_b itself.  Both branches
    are members.  The angles move with x as (+x, constant, -x) in the A case
    and (+x, +x, +x) in the B case.
    """

    __slots__ = ()
    # the free parameters x = -pi/2 + pi*m/FAMILY_SAMPLES the samples sit at
    parameters = tuple(-_HALF_PI + _PI * m / FAMILY_SAMPLES for m in range(FAMILY_SAMPLES))

    def at(self, x: float) -> WaveplateAngles:
        if self.kind is _SINGULAR_A:
            return _branch(1, self.a_half, -x, 0.0)
        return _branch(1, x + _QUARTER_PI, self.b_half, _QUARTER_PI)


class ShifterSolution(_record("ShifterSolution", "branches family", (None, None))):
    """Either two regular branches (`branches`, a pair of triples) or a
    one-parameter singular family (`family`); the other field is None."""

    __slots__ = ()

    @property
    def classification(self) -> Classification:
        return Classification.REGULAR if self.family is None else self.family.kind

    @property
    def family_samples(self) -> tuple | None:
        """The family's triples at its `parameters`; None for a regular solution."""
        family = self.family
        return None if family is None else tuple(map(family.at, family.parameters))


class RampPoint(_record("RampPoint", "phi angles branch residual flagged")):
    """One sample of a ramp trajectory.

    branch is 1 or 2 for a regular solve and 0 for a singular-family point;
    flagged marks singular or near-singular samples and the pi/2-scale jump
    a crossing forces.  residual = |q * forward(angles) - e^(i phi) r|.
    """

    __slots__ = ()

    @property
    def branch_label(self) -> str:
        return "singular" if self.flagged else str(self.branch)


def reduce_angle(psi: float) -> float:
    """Reduce modulo pi into (-pi/2, pi/2]."""
    r = math.remainder(psi, _PI)
    if r <= -_HALF_PI:
        r += _PI
    return r


def triple_distance(a: WaveplateAngles, b: WaveplateAngles) -> float:
    """Max per-angle modulo-pi distance between two triples."""
    return max(abs(math.remainder(a.psi_a - b.psi_a, _PI)),
               abs(math.remainder(a.psi_b - b.psi_b, _PI)),
               abs(math.remainder(a.psi_c - b.psi_c, _PI)))


def _target_line(q_in: Quaternion, r_out: Quaternion) -> tuple:
    """(P0, s P0) as float 4-tuples, P0 = conj(q) r and s the unit Stokes
    vector of q, after checking both signals are unit.  Every operation of
    `stokes(q).as_quaternion().normalized()` and the two `Quaternion`
    products is written out, zero terms included, so the floats are theirs.
    """
    _require_unit(q_in, "input signal")
    _require_unit(r_out, "output signal")
    q0, q1, q2, q3 = q_in
    s1, s2, s3 = _stokes_parts(q0, q1, q2, q3)
    inv = 1.0 / math.hypot(0.0, s1, s2, s3)
    s0, s1, s2, s3 = 0.0 * inv, s1 * inv, s2 * inv, s3 * inv
    # P0 = conj(q) * r
    c1, c2, c3 = -q1, -q2, -q3
    r0, r1, r2, r3 = r_out
    a0 = q0 * r0 - c1 * r1 - c2 * r2 - c3 * r3
    a1 = q0 * r1 + r0 * c1 + (c2 * r3 - c3 * r2)
    a2 = q0 * r2 + r0 * c2 + (c3 * r1 - c1 * r3)
    a3 = q0 * r3 + r0 * c3 + (c1 * r2 - c2 * r1)
    return ((a0, a1, a2, a3),
            (s0 * a0 - s1 * a1 - s2 * a2 - s3 * a3,
             s0 * a1 + a0 * s1 + (s2 * a3 - s3 * a2),
             s0 * a2 + a0 * s2 + (s3 * a1 - s1 * a3),
             s0 * a3 + a0 * s3 + (s1 * a2 - s2 * a1)))


def target_transform(q_in: Quaternion, r_out: Quaternion, phi: float) -> Quaternion:
    """The unit transform p = exp(s phi) conj(q) r with q p = e^(i phi) r.

    Evaluated as cos(phi) P0 + sin(phi) s P0 with P0 = conj(q) r, since s is
    a unit vector quaternion and exp(s phi) = cos(phi) + s sin(phi).
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3) = _target_line(q_in, r_out)
    c = math.cos(phi)
    n = math.sin(phi)
    return Quaternion(c * a0 + n * b0, c * a1 + n * b1, c * a2 + n * b2, c * a3 + n * b3)


def forward_transform(angles: WaveplateAngles) -> Quaternion:
    """Transform of the stack qwp(psi_a), hwp(psi_b), qwp(psi_c).

    Closed form of the composed plates: with g = 2 psi_b - psi_a - psi_c,

        p = (-cos g cos(c - a), -sin g sin(a + c),
             -cos g sin(c - a),  sin g cos(a + c))

    for a = psi_a, c = psi_c, i.e. c1 = p0 + p2 j = -e^(j(c-a)) cos g and
    c2 = p1 + p3 j = j e^(j(a+c)) sin g.
    """
    a, b, c = angles
    g = 2.0 * b - a - c
    cg = math.cos(g)
    sg = math.sin(g)
    diff = c - a
    total = a + c
    return Quaternion(-cg * math.cos(diff), -sg * math.sin(total),
                      -cg * math.sin(diff), sg * math.cos(total))


def _split(p0: float, p1: float, p2: float, p3: float) -> tuple:
    """The c1/c2 split of the unit target p = (p0, p1, p2, p3).

    Returns (classification, c1, c2, a_half, b_half, t_half) with the
    classification of `_classify`, the moduli c1 = |p0 + p2 j| and
    c2 = |p1 + p3 j|, the half angles a_half = arg(p1 + p3 j) / 2 and
    b_half = arg(p0 + p2 j) / 2, and t_half = arctan(c1 / c2) / 2.  Raises
    ValueError unless |p| = 1.
    """
    norm = math.hypot(p0, p1, p2, p3)
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise ValueError(f"target transform must be a unit quaternion, |q| = {norm!r}")
    c1 = math.hypot(p0, p2)
    c2 = math.hypot(p1, p3)
    return (_classify(c1, c2), c1, c2, 0.5 * math.atan2(p3, p1), 0.5 * math.atan2(p2, p0),
            0.5 * math.atan2(c1, c2))


def _classify(c1: float, c2: float) -> Classification:
    """The singular decision on the moduli c1 = |p0 + p2 j| and c2 = |p1 + p3 j|
    of a unit target (c1^2 + c2^2 = 1): singular where the smaller one is at
    most SINGULAR_TOL, on the side it belongs to."""
    if min(c1, c2) > SINGULAR_TOL:
        return Classification.REGULAR
    return Classification.SINGULAR_A if c1 <= c2 else Classification.SINGULAR_B


def _branch(branch: int, a_half: float, b_half: float, t_half: float) -> WaveplateAngles:
    """Regular branch 1 or 2 from the half angles of `_split`."""
    quarter, t = (_QUARTER_PI, -t_half) if branch == 1 else (-_QUARTER_PI, t_half)
    return WaveplateAngles(reduce_angle(a_half - b_half + quarter),
                           reduce_angle(a_half + t),
                           reduce_angle(a_half + b_half + quarter))


def solve_angles(p: Quaternion) -> ShifterSolution:
    """All plate angle solutions realizing the unit transform p exactly.

    Regular case: the two branches

        branch 1: psi_a = A/2 - B/2 + pi/4   branch 2: psi_a = A/2 - B/2 - pi/4
                  psi_b = A/2 - t/2                    psi_b = A/2 + t/2
                  psi_c = A/2 + B/2 + pi/4             psi_c = A/2 + B/2 - pi/4

    with A = arg(p1 + p3 j), B = arg(p0 + p2 j) and t = arctan(|c1| / |c2|)
    taken in [0, pi/2].  Singular cases return the one-parameter family.
    The solver targets the signed p: p and -p differ by a global pi phase.
    """
    kind, _, _, a_half, b_half, t_half = _split(*p)
    if kind is Classification.REGULAR:
        return ShifterSolution(branches=(_branch(1, a_half, b_half, t_half),
                                         _branch(2, a_half, b_half, t_half)))
    return ShifterSolution(family=SingularFamily(kind, a_half, b_half))


def singular_signal_conditions(q_in: Quaternion, target_out: Quaternion) -> Classification:
    """Predict the singularity class from ellipse parameters alone.

    target_out is the full output including phase, t = e^(i phi) * r.  With
    d = phi_out - phi_in and e+- = eps_out +- eps_in, the target conj(q) t
    has the moduli

        c1 = |p0 + p2 j| = hypot(cos d cos e-, sin d sin e+)
        c2 = |p1 + p3 j| = hypot(sin d cos e+, cos d sin e-)

    (the orientations are j-rotations on either side of the target and leave
    both moduli alone), so the p0 = p2 = 0 case needs eps_out = -eps_in and a
    phase advanced by +-pi/2, the p1 = p3 = 0 case eps_out = eps_in and an
    advance of 0 or pi.  The decision is the one `solve_angles` makes, so the
    prediction agrees with solve_angles(conj(q) * t).classification wherever
    `to_ellipse` reproduces both signals to well within SINGULAR_TOL, which it
    does everywhere: to rounding, and to about 1e-12 within 1e-12 of a
    circular state, where it reports theta = 0.
    """
    e_in = to_ellipse(q_in)
    e_out = to_ellipse(target_out)
    d = e_out.phi - e_in.phi
    e_plus = e_out.epsilon + e_in.epsilon
    e_minus = e_out.epsilon - e_in.epsilon
    cd, sd = math.cos(d), math.sin(d)
    return _classify(math.hypot(cd * math.cos(e_minus), sd * math.sin(e_plus)),
                     math.hypot(sd * math.cos(e_plus), cd * math.sin(e_minus)))


def _best_family_point(family: SingularFamily,
                       prev: WaveplateAngles) -> WaveplateAngles:
    """Family point minimizing the max angular change from `prev`.

    Each moving angle is base +- x, base being the member at x = 0, so its
    distance from `prev` is |x - z| modulo pi, z being that angle's zero (the
    constant psi_b of the A case adds the same distance at every x).  The max
    of those is least at the centre of the shortest arc, modulo pi, that holds
    every zero: the arc left by the largest gap between neighbouring zeros.
    """
    base = family.at(0.0)
    if family.kind is _SINGULAR_A:   # psi_a = base + x, psi_c = base - x
        zeros = [prev.psi_a - base.psi_a, base.psi_c - prev.psi_c]
    else:                            # every angle is base + x
        zeros = [p - b for p, b in zip(prev, base)]
    zeros = sorted(math.remainder(z, _PI) for z in zeros)
    gap, k = max((zeros[j + 1] - zeros[j], j) for j in range(len(zeros) - 1))
    if zeros[0] + _PI - zeros[-1] >= gap:   # the largest gap wraps round
        return family.at(0.5 * (zeros[0] + zeros[-1]))
    return family.at(0.5 * (zeros[k] + zeros[k + 1]) + _HALF_PI)


def ramp_trajectory(q_in: Quaternion, r_out: Quaternion,
                    phi_samples: Iterable[float]) -> Iterator[RampPoint]:
    """Solve the stack along a phase ramp, keeping the angles trackable.

    Regular samples stay on one branch family; crossing a singularity then
    shows up as the physical pi/2-scale jump in plate orientation, which is
    flagged (as are samples with |c1| or |c2| below NEAR_SINGULAR_TOL).
    Exactly singular samples pick the family point closest to the previous
    triple under the max modulo-pi metric.

    The signals are checked at the call (ValueError unless unit); the
    returned iterator then draws, solves and yields one `RampPoint` per phase.

    Both the target p and the wanted output e^(i phi) r are linear in
    (cos phi, sin phi), so each sample costs two trig calls for them; a
    regular sample builds only the branch it keeps.
    """
    return _ramp_points(q_in, r_out, _target_line(q_in, r_out), phi_samples)


def _ramp_points(q_in: Quaternion, r_out: Quaternion, line: tuple,
                 phi_samples: Iterable[float]) -> Iterator[RampPoint]:
    (a0, a1, a2, a3), (b0, b1, b2, b3) = line
    # e^(i phi) r = cos(phi) r + sin(phi) i r, with i r = (-r1, r0, -r3, r2)
    r0, r1, r2, r3 = r_out
    ir0, ir1, ir2, ir3 = -r1, r0, -r3, r2
    prev: WaveplateAngles | None = None
    prev_was_family = False
    branch_id = 1
    for phi in phi_samples:
        c = math.cos(phi)
        n = math.sin(phi)
        p0, p1, p2, p3 = c * a0 + n * b0, c * a1 + n * b1, c * a2 + n * b2, c * a3 + n * b3
        kind, c1, c2, a_half, b_half, t_half = _split(p0, p1, p2, p3)
        if kind is Classification.REGULAR:
            if prev is not None and prev_was_family:
                d1 = triple_distance(_branch(1, a_half, b_half, t_half), prev)
                d2 = triple_distance(_branch(2, a_half, b_half, t_half), prev)
                branch_id = 1 if d1 <= d2 else 2
            choice = _branch(branch_id, a_half, b_half, t_half)
            bid = branch_id
            prev_was_family = False
        else:
            family = SingularFamily(kind, a_half, b_half)
            choice = family.at(0.0) if prev is None else _best_family_point(family, prev)
            bid = 0
            prev_was_family = True
        step = 0.0 if prev is None else triple_distance(choice, prev)
        # a family row has min(c1, c2) <= SINGULAR_TOL < NEAR_SINGULAR_TOL
        flagged = min(c1, c2) <= NEAR_SINGULAR_TOL or step >= JUMP_FLAG_STEP
        out = q_in * forward_transform(choice)
        residual = math.hypot(out.q0 - (c * r0 + n * ir0), out.q1 - (c * r1 + n * ir1),
                              out.q2 - (c * r2 + n * ir2), out.q3 - (c * r3 + n * ir3))
        yield RampPoint(phi, choice, bid, residual, flagged)
        prev = choice
