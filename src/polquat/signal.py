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
from enum import Enum

from .quaternion import (J, Quaternion, _new, _prescaled, _product, _record,
                         _require_finite, _require_finite_components, _require_finite_result)

_PI = math.pi
_QUARTER_PI = _PI / 4
_HALF_PI = _PI / 2


def reduce_angle(psi: float) -> float:
    """Reduce modulo pi into (-pi/2, pi/2]: the range of an ellipse
    orientation and of a plate angle."""
    r = math.remainder(psi, _PI)
    if r <= -_HALF_PI:
        r += _PI
    return r


class JonesVector(_record("JonesVector", "ex ey")):
    """Complex transverse field components (arbitrary field units)."""

    __slots__ = ()


def _check_ellipse(r: float, phi: float, epsilon: float, theta: float) -> tuple:
    """(r, phi, epsilon, theta) after the range rule of `EllipseParams`;
    ValueError names the first field outside its range."""
    if not 0.0 <= r < math.inf:
        _require_finite(r, "magnitude")
        raise ValueError(f"magnitude must be nonnegative, got {r!r}")
    if not -_PI < phi <= _PI:
        raise ValueError(f"phase {phi!r} outside (-pi, pi]")
    if not -_QUARTER_PI <= epsilon <= _QUARTER_PI:
        raise ValueError(f"ellipticity {epsilon!r} outside [-pi/4, pi/4]")
    if not -_HALF_PI < theta <= _HALF_PI:
        raise ValueError(f"orientation {theta!r} outside (-pi/2, pi/2]")
    return (r, phi, epsilon, theta)


class EllipseParams(_record("EllipseParams", "r phi epsilon theta")):
    """Polarization ellipse description of a signal.

    r        field magnitude, finite and >= 0
    phi      optical phase, in (-pi, pi]
    epsilon  angle of ellipticity, in [-pi/4, pi/4]; +-pi/4 are the circular
             states (orientation is then degenerate with phase)
    theta    orientation of the major axis, in (-pi/2, pi/2]
    """

    __slots__ = ()

    def __new__(cls, r: float, phi: float, epsilon: float, theta: float):
        return _new(cls, _check_ellipse(r, phi, epsilon, theta))


class StokesQuaternion(_record("StokesQuaternion", "s1 s2 s3")):
    """Vector quaternion i * q^(dag i) * q: components along (i, j, k).

    Quaternion ordering: (s1, s2, s3) = (S1, S3, S2) of the conventional
    Stokes vector.  The scalar part is identically zero and is not stored.
    """

    __slots__ = ()

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.s1, self.s2, self.s3)


class ClassicalStokes(_record("ClassicalStokes", "S1 S2 S3")):
    """Conventional Stokes components (field-squared units).

    S1 = |Ex|^2 - |Ey|^2, S2 = 2 Re(Ex Ey*), S3 = 2 Im(Ex Ey*).
    """

    __slots__ = ()


class OrthogonalityClass(Enum):
    """How two signals relate, read off the product m = p * conj(q)."""

    QUATERNION_ORTHOGONAL = "quaternion_orthogonal"   # m0 = 0
    ORTHOGONAL_SOP = "orthogonal_sop"                 # m0 = m1 = 0
    SAME_SOP = "same_sop"                             # m2 = m3 = 0
    SAME_SOP_ORTHOGONAL_PHASE = "same_sop_orthogonal_phase"  # m0 = m2 = m3 = 0
    NONE = "none"


# -- Jones <-> quaternion ----------------------------------------------------

def from_jones(v: JonesVector) -> Quaternion:
    """q = Ex + Ey*j with Ex, Ey read as complex numbers in i; raises
    ValueError naming a non-finite part."""
    q = (v.ex.real, v.ex.imag, v.ey.real, v.ey.imag)
    _require_finite_components(q, "Jones vector")
    return _new(Quaternion, q)


def to_jones(q: Quaternion) -> JonesVector:
    """(Ex, Ey) = (q0 + q1 i, q2 + q3 i); raises ValueError naming a
    non-finite component."""
    _require_finite_components(q, "signal")
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

    Phase-blind: stokes(e^(i phi) * q) == stokes(q).  Raises ValueError
    naming a non-finite component, and where a component of s overflows a
    float.
    """
    _require_finite_components(q, "signal")
    return StokesQuaternion(*_require_finite_result(_stokes_parts(*q), "the Stokes vector"))


def to_classical(s: StokesQuaternion) -> ClassicalStokes:
    """Reorder quaternion components (s1, s2, s3) -> (S1, S2, S3) = (s1, s3, s2).
    Raises ValueError naming a non-finite component."""
    _require_finite_components(s, "Stokes")
    return ClassicalStokes(s.s1, s.s3, s.s2)


def classical_from_jones(v: JonesVector) -> ClassicalStokes:
    """Conventional Stokes components straight from the field components;
    raises ValueError naming a non-finite part, and where a component
    overflows a float."""
    _require_finite_components((v.ex.real, v.ex.imag, v.ey.real, v.ey.imag), "Jones vector")
    ax2 = v.ex.real * v.ex.real + v.ex.imag * v.ex.imag
    ay2 = v.ey.real * v.ey.real + v.ey.imag * v.ey.imag
    c = v.ex * v.ey.conjugate()
    return ClassicalStokes(*_require_finite_result((ax2 - ay2, 2.0 * c.real, 2.0 * c.imag),
                                                   "the Stokes vector"))


# -- phase and SOP manipulation ----------------------------------------------

def apply_phase(q: Quaternion, phi: float) -> Quaternion:
    """Left multiplication by e^(i phi): shifts the optical phase by phi.
    Raises ValueError unless phi and the components of q are finite, and
    where a component of the result overflows a float.  Each check calls its
    helper only where a fast `isfinite` test fails."""
    if not math.isfinite(phi):
        _require_finite(phi, "phase")
    if not math.isfinite(sum(q)):
        _require_finite_components(q, "signal")
    out = _product((math.cos(phi), math.sin(phi), 0.0, 0.0), q)
    if not math.isfinite(sum(out)):
        _require_finite_result(out, "the phase-shifted signal")
    return _new(Quaternion, out)


def orthogonal_sop(q: Quaternion) -> Quaternion:
    """A state orthogonal in polarization to q: j * q.

    Its Stokes vector quaternion is the negative of stokes(q);
    `apply_phase(orthogonal_sop(q), phi)` sweeps the full set of orthogonal
    states as phi does.  Raises ValueError naming a non-finite component.
    """
    _require_finite_components(q, "signal")
    return J * q


# A component of m = p * conj(q) at most this fraction of |m| counts as zero.
_CLASSIFY_TOL = 1e-9


def classify_orthogonality(p: Quaternion, q: Quaternion) -> OrthogonalityClass:
    """Classify the relation of two nonzero signals from m = p * conj(q).

    m is formed from the directions `p.normalized()` and `q.normalized()`,
    so it is a unit quaternion at every scale: no product underflows or
    overflows, and the tolerance, relative to |m|, makes the answer invariant
    under global phase and positive scaling of either argument.  The most
    specific class that matches is returned.
    """
    if not any(p) or not any(q):
        raise ValueError("cannot classify the zero signal")
    m = _product(p.normalized(), q.normalized().conjugate())
    t = _CLASSIFY_TOL * math.hypot(*m)
    z0, z1, z2, z3 = (abs(x) <= t for x in m)
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
# drops below this fraction; the residual orientation folds into the phase,
# so the ellipse still reproduces q to about 1e-12.  It stays above the ~1e-15
# rounding noise of exactly circular states, so that noise never picks their
# theta.
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
    ell = Quaternion(math.cos(e.epsilon), 0.0, 0.0, math.sin(e.epsilon))
    ori = Quaternion(math.cos(e.theta), 0.0, math.sin(e.theta), 0.0)
    return (apply_phase(ell, e.phi) * ori) * e.r


def to_ellipse(q: Quaternion) -> EllipseParams:
    """Extract (R, phi, epsilon, theta) from a nonzero signal quaternion.

    Uses sin(2 epsilon) = -s2 / R^2 and tan(2 theta) = s3 / s1 in the
    quaternion component ordering, then recovers phi from the residual
    q * e^(-j theta) * e^(-k epsilon) / R, which must be a pure phase factor.
    For circular states theta is undefined and reported as 0.

    The angles come from u = q / 2^e of `quaternion._prescaled`: the
    power-of-two scale is exact, so unit-scale signals give the same angles
    as q itself, while huge and denormal ones neither overflow nor underflow
    when squared.  Where the largest |component| lies in [0.5, 1), as it
    does for a unit signal with no component at +-1, e is 0: that unit-scale
    path takes q itself as u without calling `_prescaled`, so its floats are
    the same.  Raises ValueError for the zero signal, for a signal with a
    non-finite component and for a signal whose norm R overflows a float.  q
    may also be the plain 4-tuple of the components (the ramp rows pass the
    one `_product` returns).
    """
    u0, u1, u2, u3 = q
    if 0.5 <= max(abs(u0), abs(u1), abs(u2), abs(u3)) < 1.0:
        # where `_prescaled` takes e = 0: u is q, and its norm is R
        r = n = math.hypot(u0, u1, u2, u3)
    else:
        (u0, u1, u2, u3), _, n = _prescaled(q)
        r = math.hypot(*q)
    if r == 0.0:
        raise ValueError("zero signal has no ellipse parameters")
    if not r < math.inf:   # hypot is inf for an inf component, nan for a nan one
        _require_finite_components(q, "signal")
        raise ValueError("the signal's norm overflows a float")
    # `_stokes_parts` of u, written out
    s1 = u0 * u0 + u1 * u1 - u2 * u2 - u3 * u3
    s2 = 2.0 * (u1 * u2 - u0 * u3)
    s3 = 2.0 * (u0 * u2 + u1 * u3)
    # two-argument form of sin(2 eps) = -s2 / |s|: the in-plane magnitude
    # hypot(s1, s3) equals |s| cos(2 eps) >= 0, and atan2 stays accurate
    # where asin would be ill-conditioned (the circular states)
    in_plane = math.hypot(s1, s3)
    epsilon = 0.5 * math.atan2(-s2, in_plane)
    if in_plane <= _CIRCULAR_TOL * math.hypot(s1, s2, s3):
        theta = 0.0
    else:
        theta = reduce_angle(0.5 * math.atan2(s3, s1))
    # res = u * e^(-j theta) * e^(-k epsilon) / |u|, expanded
    ct, st = math.cos(theta), math.sin(theta)
    ce, se = math.cos(epsilon), math.sin(epsilon)
    a0, a1 = u0 * ct + u2 * st, u1 * ct + u3 * st
    a2, a3 = u2 * ct - u0 * st, u3 * ct - u1 * st
    inv = 1.0 / n
    res0, res1 = (a0 * ce + a3 * se) * inv, (a1 * ce - a2 * se) * inv
    res2, res3 = (a2 * ce + a1 * se) * inv, (a3 * ce - a0 * se) * inv
    if max(abs(res2), abs(res3)) > _PHASE_RESIDUAL_TOL:
        raise ValueError("phase residual is not a pure phase factor: "
                         f"{Quaternion(res0, res1, res2, res3)}")
    phi = math.atan2(res1, res0)
    if phi == -_PI:
        phi = _PI
    return _new(EllipseParams, _check_ellipse(r, phi, epsilon, theta))
