"""Closed-form design of a three-plate (QWP-HWP-QWP) endless phase shifter.

Given a unit input signal q, a unit output signal r and a desired phase shift
phi, the plate stack must realize the unit transform

    p = conj(q) * e^(i phi) * r,

because q * p = e^(i phi) * r; the same p is exp(s phi) conj(q) r, with s
the Stokes unit vector quaternion of q.  Writing the rotated stack as a
product of exponentials, the four components of p split into two complex
numbers in j,

    c1 = p0 + p2*j = -e^(j(psi_c - psi_a)) * cos(-psi_a + 2 psi_b - psi_c)
    c2 = p1 + p3*j =  j e^(j(psi_a + psi_c)) * sin(-psi_a + 2 psi_b - psi_c)

which invert in closed form.  Away from |c1| = 0 or |c2| = 0 there are
exactly two angle triples (branch 1 and branch 2); at those singular
conditions one constraint disappears and a one-parameter family of triples
solves the problem instead.

Read forwards, the same split is the six-trig closed form of the stack that
`forward_transform` evaluates.  The target is linear in (cos phi, sin phi),
p(phi) = cos(phi) P0 + sin(phi) P1 with P0 = conj(q) r and P1 = conj(q) i r,
so a ramp computes P0 and P1 once.

All plate angles are reduced modulo pi into (-pi/2, pi/2]; the physical
plates are pi-periodic so the reduction never changes the transform.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from enum import Enum

from .quaternion import (UNIT_TOL, Quaternion, _new, _product, _record, _require_finite,
                         _require_unit)
from .signal import _HALF_PI, _PI, _QUARTER_PI, reduce_angle, to_ellipse

# |c1| or |c2| at or below this is treated as exactly singular: 8 eps, with
# eps = 2^-52.  A family member realizes the nearest target with c = 0, so
# its residual is about c, at rounding level as a branch's is.
SINGULAR_TOL = 8 * 2.0 ** -52
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


class WaveplateAngles(_record("WaveplateAngles", "psi_a psi_b psi_c")):
    """Orientations of the three plates, each in (-pi/2, pi/2]."""

    __slots__ = ()

    def as_tuple(self) -> tuple:
        return tuple(self)


def _b_column(x: float) -> tuple:
    """(s, psi_b) of the SINGULAR_B member at x: s = x + pi/4 and the plate
    angle reduce(s - pi/4), which depends on x alone."""
    s = x + _QUARTER_PI
    return s, reduce_angle(s - _QUARTER_PI)


class SingularFamily(_record("SingularFamily", "kind half")):
    """The one-parameter family of triples solving a singular target.

    It is branch 1 with the half angle that c = 0 leaves undefined set free,
    and `half` is the one it keeps: at c1 = 0 (SINGULAR_A) b_half = -x and
    half = a_half = arg(p1 + p3 j) / 2; at c2 = 0 (SINGULAR_B), where
    t_half = pi/4, a_half = x + pi/4, so x is psi_b itself, and half =
    b_half = arg(p0 + p2 j) / 2.  Both branches are members.  Written out,
    the members are affine in x:

        A:  (reduce(half + x + pi/4), reduce(half), reduce(half - x + pi/4))
        B:  (reduce(s - half + pi/4), reduce(s - pi/4), reduce(s + half + pi/4))

    with s = x + pi/4 and reduce = `reduce_angle`: the float operations of
    branch 1 at those half angles, so the angles move as (+x, constant, -x)
    in the A case and (+x, +x, +x) in the B case.  A's psi_b is the same for
    every member, and B's depends on no target, so neither is reduced per
    member of `ShifterSolution.family_samples`.
    """

    __slots__ = ()
    # the free parameters x = -pi/2 + pi*m/FAMILY_SAMPLES the samples sit at
    parameters = tuple(-_HALF_PI + _PI * m / FAMILY_SAMPLES for m in range(FAMILY_SAMPLES))
    # `_b_column` of each of `parameters`
    _b_columns = tuple(map(_b_column, parameters))

    def at(self, x: float) -> WaveplateAngles:
        return self._members((x,), (_b_column(x),))[0]

    def _members(self, xs: tuple, b_columns: tuple) -> tuple:
        """The members at the free parameters `xs`; a B family reads their
        `_b_column`s from `b_columns` instead.  Each moving angle is
        `reduce_angle` written out, as in `_branch`, so a member enters no
        frame of its own."""
        kind, half = self
        remainder = math.remainder
        if kind is Classification.SINGULAR_A:
            psi_b = reduce_angle(half)
            return tuple([_new(WaveplateAngles, (
                a + _PI if (a := remainder(half + x + _QUARTER_PI, _PI)) <= -_HALF_PI else a,
                psi_b,
                c + _PI if (c := remainder(half - x + _QUARTER_PI, _PI)) <= -_HALF_PI else c))
                for x in xs])
        return tuple([_new(WaveplateAngles, (
            a + _PI if (a := remainder(s - half + _QUARTER_PI, _PI)) <= -_HALF_PI else a,
            psi_b,
            c + _PI if (c := remainder(s + half + _QUARTER_PI, _PI)) <= -_HALF_PI else c))
            for s, psi_b in b_columns])


class ShifterSolution(_record("ShifterSolution", "branches family")):
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
        return None if family is None else family._members(family.parameters, family._b_columns)


class RampPoint(_record("RampPoint", "phi angles branch residual flagged")):
    """One sample of a ramp trajectory.

    branch is 1 or 2 for a regular solve and 0 for a singular-family point;
    flagged marks singular or near-singular samples and the pi/2-scale jump
    a crossing forces.  residual = |q * forward(angles) - e^(i phi) r|, for
    the signals q and r as given (see `ramp_trajectory`).
    """

    __slots__ = ()


def triple_distance(a: WaveplateAngles, b: WaveplateAngles) -> float:
    """Max per-angle modulo-pi distance between two triples."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return max(abs(math.remainder(a0 - b0, _PI)),
               abs(math.remainder(a1 - b1, _PI)),
               abs(math.remainder(a2 - b2, _PI)))


def _target_line(q_in: Quaternion, r_out: Quaternion) -> tuple:
    """(P0, P1) = (conj(q) r, conj(q) i r) as float 4-tuples, after checking
    both signals are unit; i r = (-r1, r0, -r3, r2).  The products are
    `Quaternion`'s, so the floats are theirs.

    P1 is orthogonal to P0 and as long, so every target cos(phi) P0 +
    sin(phi) P1 is as long as P0.  Two signals each within UNIT_TOL of unit
    can have |P0| = |q| |r| up to twice that off unit; both vectors are then
    divided by that one norm, so the line is that of the unit states the
    signals approximate and every target is unit.
    """
    _require_unit(q_in, "input signal")
    _require_unit(r_out, "output signal")
    (q0, q1, q2, q3), (r0, r1, r2, r3) = q_in, r_out
    conj = (q0, -q1, -q2, -q3)
    base, turned = _product(conj, r_out), _product(conj, (-r1, r0, -r3, r2))
    norm = math.hypot(*base)
    if abs(norm - 1.0) > UNIT_TOL:
        return tuple([x / norm for x in base]), tuple([x / norm for x in turned])
    return base, turned


def target_transform(q_in: Quaternion, r_out: Quaternion, phi: float) -> Quaternion:
    """The unit transform p = conj(q) e^(i phi) r, so that q p = e^(i phi) r.

    Evaluated as cos(phi) P0 + sin(phi) P1 with P0 = conj(q) r and
    P1 = conj(q) i r, since e^(i phi) = cos(phi) + i sin(phi).
    Raises ValueError unless both signals are unit and phi is finite.  p is
    unit even where the product of the two signals' norms is not (see
    `_target_line`), so `solve_angles` accepts it.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3) = _target_line(q_in, r_out)
    if not math.isfinite(phi):
        _require_finite(phi, "phase")
    c, n = math.cos(phi), math.sin(phi)
    return _new(Quaternion, (c * a0 + n * b0, c * a1 + n * b1, c * a2 + n * b2,
                             c * a3 + n * b3))


def forward_transform(angles: WaveplateAngles) -> Quaternion:
    """Transform of the stack qwp(psi_a), hwp(psi_b), qwp(psi_c).

    Closed form of the composed plates: with g = 2 psi_b - psi_a - psi_c,

        p = (-cos g cos(c - a), -sin g sin(a + c),
             -cos g sin(c - a),  sin g cos(a + c))

    for a = psi_a, c = psi_c, i.e. c1 = p0 + p2 j = -e^(j(c-a)) cos g and
    c2 = p1 + p3 j = j e^(j(a+c)) sin g.

    It takes solver output, whose angles are finite and reduced, and checks
    nothing: a ramp row calls it twice.  A non-finite angle gives NaN.
    """
    a, b, c = angles
    g = 2.0 * b - a - c
    cg = math.cos(g)
    sg = math.sin(g)
    diff = c - a
    total = a + c
    return _new(Quaternion, (-cg * math.cos(diff), -sg * math.sin(total),
                             -cg * math.sin(diff), sg * math.cos(total)))


def _branch(branch: int, a_half: float, b_half: float, t_half: float) -> WaveplateAngles:
    """Regular branch 1 or 2 from the half angles of `_solve`: each angle is
    `reduce_angle` of its sum, written out."""
    quarter, t = (_QUARTER_PI, -t_half) if branch == 1 else (-_QUARTER_PI, t_half)
    a = math.remainder(a_half - b_half + quarter, _PI)
    b = math.remainder(a_half + t, _PI)
    c = math.remainder(a_half + b_half + quarter, _PI)
    return _new(WaveplateAngles, (a + _PI if a <= -_HALF_PI else a,
                                  b + _PI if b <= -_HALF_PI else b,
                                  c + _PI if c <= -_HALF_PI else c))


def _solve(p0: float, p1: float, p2: float, p3: float) -> ShifterSolution:
    """`solve_angles` of the unit target p = (p0, p1, p2, p3), which the
    caller has checked: `solve_angles` checks p itself, and a ramp row's
    target lies on the unit line of `_target_line`.

    It splits p into the moduli c1 = |p0 + p2 j| and c2 = |p1 + p3 j| and
    the half angles a_half = arg(p1 + p3 j) / 2 and b_half =
    arg(p0 + p2 j) / 2.  Where the smaller modulus is at most SINGULAR_TOL
    (since c1^2 + c2^2 = 1, at most one side is small), the solution is the
    `SingularFamily` of that side, holding the one half angle its members
    use; else it is the two branches at those half angles and
    t_half = arctan(c1 / c2) / 2.
    """
    c1 = math.hypot(p0, p2)
    c2 = math.hypot(p1, p3)
    a_half = 0.5 * math.atan2(p3, p1)
    b_half = 0.5 * math.atan2(p2, p0)
    if min(c1, c2) > SINGULAR_TOL:
        t_half = 0.5 * math.atan2(c1, c2)
        return _new(ShifterSolution, ((_branch(1, a_half, b_half, t_half),
                                       _branch(2, a_half, b_half, t_half)), None))
    return _new(ShifterSolution, (None, _new(SingularFamily, (
        (Classification.SINGULAR_A, a_half) if c1 <= c2
        else (Classification.SINGULAR_B, b_half)))))


def solve_angles(p: Quaternion) -> ShifterSolution:
    """All plate angle solutions realizing the unit transform p.

    Regular case: the two branches

        branch 1: psi_a = A/2 - B/2 + pi/4   branch 2: psi_a = A/2 - B/2 - pi/4
                  psi_b = A/2 - t/2                    psi_b = A/2 + t/2
                  psi_c = A/2 + B/2 + pi/4             psi_c = A/2 + B/2 - pi/4

    with A = arg(p1 + p3 j), B = arg(p0 + p2 j) and t = arctan(|c1| / |c2|)
    taken in [0, pi/2].  Singular cases, min(|c1|, |c2|) at or below
    SINGULAR_TOL = 8 eps (eps = 2^-52), return the one-parameter family,
    whose members realize the nearest target with c = 0.  Every returned
    triple a meets |forward_transform(a) - p| <= 16 eps, about 3.6e-15: a
    branch to rounding, a member to rounding plus c.
    The solver targets the signed p: p and -p differ by a global pi phase.
    Raises ValueError unless |p| = 1.
    """
    _require_unit(p, "target transform")
    return _solve(*p)


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
    if family.kind is Classification.SINGULAR_A:   # psi_a = base + x, psi_c = base - x
        zeros = [prev.psi_a - base.psi_a, base.psi_c - prev.psi_c]
    else:                                          # every angle is base + x
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
    returned iterator then draws, solves and yields one `RampPoint` per phase,
    and raises ValueError at the first phase that is not finite.
    A row's target is unit by construction, so no row checks it again.

    Each row solves for the unit states the signals approximate, and its
    residual is measured against the signals as given.  For unit signals it
    meets the 1e-9 bound by about six orders; for signals within 1e-9 of
    unit it can exceed that rounding (about 1e-15) by up to
    |1 - |q|| + |1 - |r||, so up to 2e-9.  `polquat ramp` passes the
    normalized signals, so its CSV meets 1e-9.

    Both the target p and the wanted output e^(i phi) r are linear in
    (cos phi, sin phi), so each sample costs two trig calls for them; a
    regular sample builds only the branch it keeps, and every record of a
    row is built in one C call, not through its Python constructor.  A
    regular row on its kept branch evaluates `_solve`'s split in the row loop
    itself, and every row its step, float for float (see `_ramp_points`).
    """
    return _ramp_points(q_in, r_out, _target_line(q_in, r_out), phi_samples)


def _ramp_points(q_in: Quaternion, r_out: Quaternion, line: tuple,
                 phi_samples: Iterable[float]) -> Iterator[RampPoint]:
    """The rows of `ramp_trajectory` on the target line (P0, P1) of
    `_target_line`.

    `branch` is the one branch state: 1 or 2 on a regular row, the branch it
    keeps, and 0 on a family row, after which the next regular row takes the
    branch nearer the family point and keeps the triple it measured.  It is
    also the row's `RampPoint.branch`.

    A regular row builds three records, its `WaveplateAngles`, the
    `Quaternion` of `forward_transform` and its `RampPoint`, each with one
    `_new` call; its residual takes the product q * forward(angles) as
    floats.  A family row takes its `SingularFamily` from `_solve` and also
    builds the members `_best_family_point` visits.

    The fused row: while `branch` is nonzero and c_min is above
    SINGULAR_TOL, the row computes c1, c2 and the three half angles of
    `_solve` in this frame and passes them to `_branch`; every row takes its
    step as `triple_distance(choice, prev)` written out.  The operations and
    their order are those of the functions, so the floats are theirs.  A
    family row and the row after one take their solution from `_solve`, as
    `solve_angles` does, and the row after one keeps the branch nearer
    `prev` by `triple_distance`.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3) = line
    # e^(i phi) r = cos(phi) r + sin(phi) i r, with i r = (-r1, r0, -r3, r2)
    r0, r1, r2, r3 = r_out
    ir0, ir1, ir2, ir3 = -r1, r0, -r3, r2
    hypot, atan2, remainder, isfinite = math.hypot, math.atan2, math.remainder, math.isfinite
    prev: WaveplateAngles | None = None
    branch = 1
    for phi in phi_samples:
        if not isfinite(phi):
            _require_finite(phi, "phase")
        c, n = math.cos(phi), math.sin(phi)
        p0, p1, p2, p3 = c * a0 + n * b0, c * a1 + n * b1, c * a2 + n * b2, c * a3 + n * b3
        c1 = hypot(p0, p2)
        c2 = hypot(p1, p3)
        c_min = min(c1, c2)
        if branch and c_min > SINGULAR_TOL:   # a regular row on its kept branch
            choice = _branch(branch, 0.5 * atan2(p3, p1), 0.5 * atan2(p2, p0),
                             0.5 * atan2(c1, c2))
        else:
            branches, family = _solve(p0, p1, p2, p3)
            if family is not None:
                choice = family.at(0.0) if prev is None else _best_family_point(family, prev)
                branch = 0
            else:   # the row after a family row: prev is that family's point
                first, second = branches
                branch = 1 if triple_distance(first, prev) <= triple_distance(second, prev) else 2
                choice = branches[branch - 1]
        if prev is None:
            step = 0.0
        else:   # triple_distance(choice, prev)
            (x0, x1, x2), (y0, y1, y2) = choice, prev
            step = max(abs(remainder(x0 - y0, _PI)), abs(remainder(x1 - y1, _PI)),
                       abs(remainder(x2 - y2, _PI)))
        # a family row has c_min <= SINGULAR_TOL < NEAR_SINGULAR_TOL
        flagged = c_min <= NEAR_SINGULAR_TOL or step >= JUMP_FLAG_STEP
        o0, o1, o2, o3 = _product(q_in, forward_transform(choice))
        residual = math.hypot(o0 - (c * r0 + n * ir0), o1 - (c * r1 + n * ir1),
                              o2 - (c * r2 + n * ir2), o3 - (c * r3 + n * ir3))
        yield _new(RampPoint, (phi, choice, branch, residual, flagged))
        prev = choice


def ramp_rows(q: Quaternion, r: Quaternion, samples: int) -> Iterator[tuple]:
    """The rows of the closed 0..2*pi ramp of `samples` phases: each solved
    `RampPoint` with the ellipse of its output q * forward(angles).

    The signals are checked before this returns (ValueError unless unit);
    then each phase is drawn, solved and given its ellipse as its row is
    read, so no row is kept.
    """
    points = ramp_trajectory(q, r, (2.0 * math.pi * k / (samples - 1) for k in range(samples)))
    return ((pt, to_ellipse(_product(q, forward_transform(pt.angles)))) for pt in points)
