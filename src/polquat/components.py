"""Waveplates and partial polarizers as quaternion operations.

A waveplate is a unit quaternion applied to the signal by right
multiplication; propagation through a sequence of plates reads left to right.
A partial polarizer cannot be a single right factor and is applied through
the two-term expression of `polarizer_apply`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .quaternion import Quaternion, _require_unit
from .signal import stokes

_SQRT_HALF = math.sqrt(0.5)

# Below this vector-part magnitude a plate is the identity (up to sign):
# retardance zero, axis genuinely undefined.
_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class Waveplate:
    """Lossless retarder; `q` is the unit-quaternion transform."""

    q: Quaternion

    def __post_init__(self):
        _require_unit(self.q, "waveplate transform")


@dataclass(frozen=True)
class WaveplateAxisForm:
    """Axis-angle form of a plate: exp(axis * eta) with unit vector `axis`
    (the Stokes unit vector of the slow axis) and eta half the retardance."""

    axis: Quaternion
    eta: float

    @property
    def retardance(self) -> float:
        return 2.0 * self.eta


@dataclass(frozen=True)
class PartialPolarizer:
    """Polarization dependent loss element.

    `pass_axis` is a unit signal quaternion on the high-transmission SOP; the
    orthogonal SOP is scaled in field by mu, 0 <= mu <= 1.
    """

    pass_axis: Quaternion
    mu: float

    def __post_init__(self):
        _require_unit(self.pass_axis, "polarizer pass axis")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"field extinction mu = {self.mu!r} outside [0, 1]")


def apply(signal: Quaternion, plate: Waveplate) -> Quaternion:
    """Transmit `signal` through `plate`: right multiplication signal * q."""
    return signal * plate.q


def compose(plates) -> Waveplate:
    """Combine plates in propagation order (first plate leftmost)."""
    plates = list(plates)
    if not plates:
        raise ValueError("cannot compose an empty plate sequence")
    return Waveplate(reduce(lambda a, b: a * b, (p.q for p in plates)))


def waveplate_from_axis(slow: Quaternion, eta: float) -> Waveplate:
    """Plate of retardance 2*eta whose slow axis is the unit signal `slow`.

    p = conj(slow) * e^(i eta) * slow, which equals exp(s * eta) for s the
    Stokes unit vector quaternion of the slow axis.  Slow-axis inputs gain
    phase eta; the orthogonal (fast) axis loses phase eta.
    """
    _require_unit(slow, "slow axis signal")
    phase = Quaternion(math.cos(eta), math.sin(eta), 0.0, 0.0)
    return Waveplate(slow.conjugate() * phase * slow)


def axis_retardance(plate: Waveplate) -> WaveplateAxisForm:
    """Principal log of the plate: unit axis plus eta in (0, pi).

    Raises for the identity plate (either sign), whose axis is undefined.
    """
    q = plate.q
    a = q.vector_norm()
    if a < _IDENTITY_TOL:
        raise ValueError("zero retardance, axis undefined")
    eta = math.atan2(a, q.q0)
    axis = Quaternion(0.0, q.q1 / a, q.q2 / a, q.q3 / a)
    return WaveplateAxisForm(axis, eta)


def rotate_element(plate: Waveplate, psi: float) -> Waveplate:
    """The same plate physically rotated by psi: e^(-j psi) * q * e^(j psi)."""
    c = math.cos(psi)
    s = math.sin(psi)
    e_neg = Quaternion(c, 0.0, -s, 0.0)
    e_pos = Quaternion(c, 0.0, s, 0.0)
    return Waveplate(e_neg * plate.q * e_pos)


def qwp(psi: float = 0.0) -> Waveplate:
    """Quarter waveplate with slow axis at angle psi."""
    return rotate_element(Waveplate(Quaternion(_SQRT_HALF, _SQRT_HALF, 0.0, 0.0)), psi)


def hwp(psi: float = 0.0) -> Waveplate:
    """Half waveplate with slow axis at angle psi."""
    return rotate_element(Waveplate(Quaternion(0.0, 1.0, 0.0, 0.0)), psi)


def polarizer_apply(q: Quaternion, pol: PartialPolarizer) -> Quaternion:
    """Output of the partial polarizer for input q.

    r = ((1 + mu) q - (1 - mu) i q s) / 2 with s the Stokes unit vector
    quaternion of the pass axis.  Pass-axis inputs e^(i phi) p come through
    unchanged; the blocked axis e^(i phi) j p is scaled by mu.  Linear in q
    over real coefficients.
    """
    s = stokes(pol.pass_axis).as_quaternion()
    i_q_s = Quaternion(0.0, 1.0, 0.0, 0.0) * q * s
    return (q * (1.0 + pol.mu) - i_q_s * (1.0 - pol.mu)) * 0.5

