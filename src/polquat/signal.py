"""Optical signal representations and conversions.

A fully polarized, single-frequency optical field is carried as a quaternion
q = q0 + q1*i + q2*j + q3*k.  Four equivalent descriptions interconvert here:

* quaternion        q = Ex + Ey*j, with Ex, Ey complex in the i unit
* Jones vector      (Ex, Ey), complex field components
* Stokes vector     phase-blind SOP + power description
* ellipse           magnitude R, phase phi, ellipticity epsilon, orientation
                    theta, via q = R * e^(i phi) * e^(k epsilon) * e^(j theta)

Component-order warning: the vector quaternion s = i * q^(dag i) * q carries
the Stokes information with its 2nd and 3rd components exchanged relative to
the conventional (S1, S2, S3) ordering, i.e. s1 = S1, s2 = S3, s3 = S2.
Two distinct types keep the orderings from being mixed up silently.

Sign conventions implied by the representation: the left circular state
(quaternion 1 + k) has epsilon = +pi/4 and conventional S3 = -R^2; right
circular (1 - k) has epsilon = -pi/4 and S3 = +R^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .quaternion import J, Quaternion, _require_unit

_PI = math.pi


@dataclass(frozen=True)
class JonesVector:
    """Complex transverse field components (arbitrary field units)."""

    ex: complex
    ey: complex


@dataclass(frozen=True)
class EllipseParams:
    """Polarization ellipse description of a signal.

    r        field magnitude, >= 0
    phi      optical phase, in (-pi, pi]
    epsilon  angle of ellipticity, in [-pi/4, pi/4]; +-pi/4 are the circular
             states (orientation is then degenerate with phase)
    theta    orientation of the major axis, in (-pi/2, pi/2]
    """

    r: float
    phi: float
    epsilon: float
    theta: float

    def __post_init__(self):
        if not self.r >= 0.0:
            raise ValueError(f"magnitude must be nonnegative, got {self.r!r}")
        if not -_PI < self.phi <= _PI:
            raise ValueError(f"phase {self.phi!r} outside (-pi, pi]")
        if not -_PI / 4 <= self.epsilon <= _PI / 4:
            raise ValueError(f"ellipticity {self.epsilon!r} outside [-pi/4, pi/4]")
        if not -_PI / 2 < self.theta <= _PI / 2:
            raise ValueError(f"orientation {self.theta!r} outside (-pi/2, pi/2]")


@dataclass(frozen=True)
class StokesQuaternion:
    """Vector quaternion i * q^(dag i) * q: components along (i, j, k).

    Quaternion ordering: (s1, s2, s3) = (S1, S3, S2) of the conventional
    Stokes vector.  The scalar part is identically zero and is not stored.
    """

    s1: float
    s2: float
    s3: float

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.s1, self.s2, self.s3)

    def norm(self) -> float:
        return math.hypot(self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class ClassicalStokes:
    """Conventional Stokes components (field-squared units).

    S1 = |Ex|^2 - |Ey|^2, S2 = 2 Re(Ex Ey*), S3 = 2 Im(Ex Ey*).
    """

    S1: float
    S2: float
    S3: float


class OrthogonalityClass(Enum):
    """How two signals relate, read off the product m = p * conj(q)."""

    QUATERNION_ORTHOGONAL = "quaternion_orthogonal"   # m0 = 0
    ORTHOGONAL_SOP = "orthogonal_sop"                 # m0 = m1 = 0
    SAME_SOP = "same_sop"                             # m2 = m3 = 0
    SAME_SOP_ORTHOGONAL_PHASE = "same_sop_orthogonal_phase"  # m0 = m2 = m3 = 0
    NONE = "none"


# -- Jones <-> quaternion ----------------------------------------------------

def from_jones(v: JonesVector) -> Quaternion:
    """q = Ex + Ey*j with Ex, Ey read as complex numbers in i."""
    return Quaternion(v.ex.real, v.ex.imag, v.ey.real, v.ey.imag)


def to_jones(q: Quaternion) -> JonesVector:
    return JonesVector(complex(q.q0, q.q1), complex(q.q2, q.q3))


# -- Stokes ------------------------------------------------------------------

def _stokes_parts(q0: float, q1: float, q2: float, q3: float) -> tuple:
    """(s1, s2, s3) of the expanded product i * q^(dag i) * q."""
    return (q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3,
            2.0 * (q1 * q2 - q0 * q3),
            2.0 * (q0 * q2 + q1 * q3))


def stokes(q: Quaternion) -> StokesQuaternion:
    """Stokes vector quaternion s = i * q^(dag i) * q.

    Evaluated as the expanded product, whose scalar part vanishes identically:

        s1 = q0^2 + q1^2 - q2^2 - q3^2
        s2 = 2 (q1 q2 - q0 q3)
        s3 = 2 (q0 q2 + q1 q3)

    Phase-blind: stokes(e^(i phi) * q) == stokes(q).
    """
    return StokesQuaternion(*_stokes_parts(q.q0, q.q1, q.q2, q.q3))


def to_classical(s: StokesQuaternion) -> ClassicalStokes:
    """Reorder quaternion components (s1, s2, s3) -> (S1, S2, S3) = (s1, s3, s2)."""
    return ClassicalStokes(s.s1, s.s3, s.s2)


def classical_from_jones(v: JonesVector) -> ClassicalStokes:
    """Conventional Stokes components straight from the field components."""
    ax2 = v.ex.real * v.ex.real + v.ex.imag * v.ex.imag
    ay2 = v.ey.real * v.ey.real + v.ey.imag * v.ey.imag
    c = v.ex * v.ey.conjugate()
    return ClassicalStokes(ax2 - ay2, 2.0 * c.real, 2.0 * c.imag)


# -- phase and SOP manipulation ----------------------------------------------

def apply_phase(q: Quaternion, phi: float) -> Quaternion:
    """Left multiplication by e^(i phi): shifts the optical phase by phi."""
    return Quaternion(math.cos(phi), math.sin(phi), 0.0, 0.0) * q


def orthogonal_sop(q: Quaternion, phi: float = 0.0) -> Quaternion:
    """A state orthogonal in polarization to q: e^(i phi) * j * q.

    Its Stokes vector quaternion is the negative of stokes(q); phi sweeps the
    full set of orthogonal states.
    """
    return apply_phase(J * q, phi)


# A component of m = p * conj(q) at most this fraction of |m| counts as zero.
_CLASSIFY_TOL = 1e-9


def classify_orthogonality(p: Quaternion, q: Quaternion) -> OrthogonalityClass:
    """Classify the relation of two nonzero signals from m = p * conj(q).

    The tolerance is relative to |m|, so the answer is invariant under global
    phase and positive scaling of either argument.  The most specific class
    that matches is returned.
    """
    if p.norm() == 0.0 or q.norm() == 0.0:
        raise ValueError("cannot classify the zero signal")
    m = p * q.conjugate()
    t = _CLASSIFY_TOL * m.norm()
    z0 = abs(m.q0) <= t
    z1 = abs(m.q1) <= t
    z2 = abs(m.q2) <= t
    z3 = abs(m.q3) <= t
    if z0 and z2 and z3:
        return OrthogonalityClass.SAME_SOP_ORTHOGONAL_PHASE
    if z0 and z1:
        return OrthogonalityClass.ORTHOGONAL_SOP
    if z2 and z3:
        return OrthogonalityClass.SAME_SOP
    if z0:
        return OrthogonalityClass.QUATERNION_ORTHOGONAL
    return OrthogonalityClass.NONE


# -- polarization ellipse ------------------------------------------------------

# Orientation is treated as undefined (and set to 0) when |cos 2 epsilon|
# drops below this fraction; the residual orientation folds into the phase.
# It stays below shifter.SINGULAR_TOL, so the ellipse reproduces q finely
# enough to predict the singular set, and above the ~1e-15 rounding noise of
# exactly circular states, so that noise never picks their theta.
_CIRCULAR_TOL = 1e-12

# The recovered phase factor must be a pure e^(i phi); leftover j/k components
# above this bound indicate a range or branch bug and raise immediately.
_PHASE_RESIDUAL_TOL = 1e-9


def from_ellipse(e: EllipseParams) -> Quaternion:
    """q = R * e^(i phi) * e^(k epsilon) * e^(j theta).

    The exponential order i-k-j is what makes the three angles be the phase,
    ellipticity and orientation; other orders describe the same state with
    different parameter meanings.
    """
    phase = Quaternion(math.cos(e.phi), math.sin(e.phi), 0.0, 0.0)
    ell = Quaternion(math.cos(e.epsilon), 0.0, 0.0, math.sin(e.epsilon))
    ori = Quaternion(math.cos(e.theta), 0.0, math.sin(e.theta), 0.0)
    return (phase * ell * ori) * e.r


def to_ellipse(q: Quaternion) -> EllipseParams:
    """Extract (R, phi, epsilon, theta) from a nonzero signal quaternion.

    Uses sin(2 epsilon) = -s2 / R^2 and tan(2 theta) = s3 / s1 in the
    quaternion component ordering, then recovers phi from the residual
    q * e^(-j theta) * e^(-k epsilon) / R, which must be a pure phase factor.
    For circular states theta is undefined and reported as 0.

    The angles come from u = q / 2^e, with 2^e just above the largest
    component: the power-of-two scale is exact, so unit-scale signals give
    the same angles as q itself, while huge and denormal ones neither
    overflow nor underflow when squared.
    """
    u0, u1, u2, u3 = q.q0, q.q1, q.q2, q.q3
    r = math.hypot(u0, u1, u2, u3)
    if r == 0.0:
        raise ValueError("zero signal has no ellipse parameters")
    _, e = math.frexp(max(abs(u0), abs(u1), abs(u2), abs(u3)))
    if e:
        u0, u1, u2, u3 = (math.ldexp(u0, -e), math.ldexp(u1, -e),
                          math.ldexp(u2, -e), math.ldexp(u3, -e))
    s1, s2, s3 = _stokes_parts(u0, u1, u2, u3)
    # two-argument form of sin(2 eps) = -s2 / |s|: the in-plane magnitude
    # hypot(s1, s3) equals |s| cos(2 eps) >= 0, and atan2 stays accurate
    # where asin would be ill-conditioned (the circular states)
    in_plane = math.hypot(s1, s3)
    epsilon = 0.5 * math.atan2(-s2, in_plane)
    if in_plane <= _CIRCULAR_TOL * math.hypot(s1, s2, s3):
        theta = 0.0
    else:
        theta = 0.5 * math.atan2(s3, s1)
        if theta <= -_PI / 2:
            theta += _PI
    # res = u * e^(-j theta) * e^(-k epsilon) / |u|, expanded
    ct, st = math.cos(theta), math.sin(theta)
    ce, se = math.cos(epsilon), math.sin(epsilon)
    a0, a1 = u0 * ct + u2 * st, u1 * ct + u3 * st
    a2, a3 = u2 * ct - u0 * st, u3 * ct - u1 * st
    inv = 1.0 / math.hypot(u0, u1, u2, u3)
    res0, res1 = (a0 * ce + a3 * se) * inv, (a1 * ce - a2 * se) * inv
    res2, res3 = (a2 * ce + a1 * se) * inv, (a3 * ce - a0 * se) * inv
    if max(abs(res2), abs(res3)) > _PHASE_RESIDUAL_TOL:
        raise ValueError("phase residual is not a pure phase factor: "
                         f"{Quaternion(res0, res1, res2, res3)}")
    phi = math.atan2(res1, res0)
    if phi == -_PI:
        phi = _PI
    return EllipseParams(r, phi, epsilon, theta)


# -- waveplate for a prescribed SOP jump ----------------------------------------

def waveplate_to_orthogonal(q: Quaternion, phi: float = 0.0) -> Quaternion:
    """The waveplate transform p with q * p = e^(i phi) * j * q.

    Sends the (unit) signal q to a state orthogonal in polarization; p is a
    unit quaternion, hence a valid waveplate.
    """
    _require_unit(q, "signal")
    return q.left_div(orthogonal_sop(q, phi))
