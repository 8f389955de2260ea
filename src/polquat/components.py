"""Waveplates and partial polarizers as quaternion operations.

A waveplate is a unit quaternion applied to the signal by right
multiplication; propagation through a sequence of plates reads left to right.
Its axis-angle form is its quaternion log: `plate.q.log()` is eta * s, with
s the Stokes unit vector of the slow axis and eta half the retardance.
A partial polarizer cannot be a single right factor and is applied through
the two-term expression of `polarizer_apply`.
"""

from __future__ import annotations

import math
from functools import reduce

from .quaternion import (I, J, Quaternion, _new, _record, _renormalized, _require_finite,
                         _require_finite_components, _require_finite_result, _require_unit,
                         precess)
from .signal import stokes

_SQRT_HALF = math.sqrt(0.5)


class Waveplate(_record("Waveplate", "q")):
    """Lossless retarder; `q` is the unit-quaternion transform."""

    __slots__ = ()

    def __new__(cls, q: Quaternion):
        _require_unit(q, "waveplate transform")
        return _new(cls, (q,))


class PartialPolarizer(_record("PartialPolarizer", "pass_axis mu")):
    """Polarization dependent loss element.

    `pass_axis` is a unit signal quaternion on the high-transmission SOP; the
    orthogonal SOP is scaled in field by mu, 0 <= mu <= 1.
    """

    __slots__ = ()

    def __new__(cls, pass_axis: Quaternion, mu: float):
        _require_unit(pass_axis, "polarizer pass axis")
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"field extinction mu = {mu!r} outside [0, 1]")
        return _new(cls, (pass_axis, mu))


def apply(signal: Quaternion, plate: Waveplate) -> Quaternion:
    """Transmit `signal` through `plate`: right multiplication signal * q.
    Raises ValueError naming a non-finite component of `signal`, and where a
    component of the result overflows a float."""
    _require_finite_components(signal, "signal")
    return _require_finite_result(signal * plate.q, "the transmitted signal")


def compose(plates) -> Waveplate:
    """Combine plates in propagation order (first plate leftmost).  Each
    plate is unit within UNIT_TOL, and their product, up to a multiple of
    that off unit, is divided by its norm where it is further off."""
    plates = list(plates)
    if not plates:
        raise ValueError("cannot compose an empty plate sequence")
    return Waveplate(_renormalized(reduce(lambda a, b: a * b, (p.q for p in plates))))


def waveplate_from_axis(slow: Quaternion, eta: float) -> Waveplate:
    """Plate of retardance 2*eta whose slow axis is the unit signal `slow`.

    p = conj(slow) * e^(i eta) * slow, which equals exp(s * eta) for s the
    Stokes unit vector quaternion of the slow axis.  Slow-axis inputs gain
    phase eta; the orthogonal (fast) axis loses phase eta.  Raises ValueError
    unless slow is unit and eta is finite.  A slow axis within UNIT_TOL of
    unit gives a product up to twice that off, which is divided by its norm.
    """
    _require_unit(slow, "slow axis signal")
    _require_finite(eta, "eta")
    phase = Quaternion(math.cos(eta), math.sin(eta), 0.0, 0.0)
    return Waveplate(_renormalized(slow.conjugate() * phase * slow))


def rotate_element(plate: Waveplate, psi: float) -> Waveplate:
    """The same plate physically rotated by psi: its precession about j,
    e^(-j psi) * q * e^(j psi).  Raises ValueError unless psi is finite."""
    _require_finite(psi, "plate angle")
    return Waveplate(precess(plate.q, J, psi))


# the unrotated plates `qwp` and `hwp` rotate, slow axis at psi = 0
_QWP = Waveplate(Quaternion(_SQRT_HALF, _SQRT_HALF, 0.0, 0.0))
_HWP = Waveplate(Quaternion(0.0, 1.0, 0.0, 0.0))


def qwp(psi: float) -> Waveplate:
    """Quarter waveplate with slow axis at angle psi."""
    return rotate_element(_QWP, psi)


def hwp(psi: float) -> Waveplate:
    """Half waveplate with slow axis at angle psi."""
    return rotate_element(_HWP, psi)


def polarizer_apply(q: Quaternion, pol: PartialPolarizer) -> Quaternion:
    """Output of the partial polarizer for input q.

    r = ((1 + mu) q - (1 - mu) i q s) / 2 with s the Stokes unit vector
    quaternion of the pass axis.  Pass-axis inputs e^(i phi) p come through
    unchanged; the blocked axis e^(i phi) j p is scaled by mu.  Linear in q
    over real coefficients.  Raises ValueError naming a non-finite component
    of q, and where a component of the result overflows a float.
    """
    _require_finite_components(q, "signal")
    s = stokes(pol.pass_axis).as_quaternion()
    i_q_s = I * q * s
    # halving the coefficients, not the sum, is exact and keeps q * (1 + mu)
    # from overflowing
    return _require_finite_result(q * ((1.0 + pol.mu) * 0.5) - i_q_s * ((1.0 - pol.mu) * 0.5),
                                  "the polarized signal")

