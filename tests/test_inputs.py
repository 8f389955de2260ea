"""The library's rejections, one row each: a call outside an operation's
domain, the exception type it raises and its exact message.  The table holds
the rejections whose message polquat writes, the record contract's and the
non-finite inputs' included; messages that CPython writes stay in the tests
of their contract.  Each row is named by one shell word, and a name given
twice or holding a space fails collection instead of replacing a row."""

import itertools
import math
import re
from functools import partial

import pytest

from polquat import (EllipseParams, I, J, JonesVector, ONE, PartialPolarizer, Quaternion,
                     StokesQuaternion, Waveplate, apply, apply_phase, classical_from_jones,
                     classify_orthogonality, compose, from_ellipse, from_jones, hwp,
                     orthogonal_sop, polarizer_apply, precess, qwp, ramp_trajectory,
                     rotate_element, solve_angles, stokes, target_transform, to_classical,
                     to_ellipse, to_jones, waveplate_from_axis)
from polquat.signal import _check_ellipse

from test_records import _ANGLES, _Q

ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
_ROOT_2 = "1.4142135623730951"   # |1 + i|
_ELLIPSE = EllipseParams(1.0, 0.0, 0.0, 0.0)


def _with(x: float) -> Quaternion:
    """A unit signal with its q2 component replaced by x."""
    return Quaternion(0.6, 0.0, x, 0.8)


def _named(*rows) -> dict:
    """{name: (call, exception, message)} of the rows (name, call, exception,
    message).  A repeated name raises: a dict merge would keep only its last
    row.  So does a name with a space, which would split its test id."""
    names = [name for name, *_ in rows]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"rejection rows share a name: {repeated}")
    spaced = [name for name in names if " " in name]
    if spaced:
        raise ValueError(f"rejection row names hold a space: {spaced}")
    return {name: tuple(row) for name, *row in rows}


# each public function that takes a real number or a signal rejects a
# non-finite one, naming it, where it would return NaN, fail in a math call or
# report only a non-unit norm; (name, call of x, what the message names)
_NON_FINITE_ROWS = tuple(
    (f"{name}-{value!r}", partial(call, value), ValueError,
     f"{what} must be a finite number, got {value!r}")
    for name, call, what in [
        ("apply_phase", lambda x: apply_phase(ONE, x), "phase"),
        ("precess", lambda x: precess(I, J, x), "precession angle"),
        ("target_transform", lambda x: target_transform(ONE, J, x), "phase"),
        ("to_ellipse", lambda x: to_ellipse(_with(x)), "signal component"),
        ("target_transform_q", lambda x: target_transform(_with(x), J, 0.3),
         "input signal component"),
        ("target_transform_r", lambda x: target_transform(ONE, _with(x), 0.3),
         "output signal component"),
        ("solve_angles", lambda x: solve_angles(_with(x)), "target transform component"),
        ("ramp_trajectory", lambda x: ramp_trajectory(_with(x), J, [0.0]),
         "input signal component"),
        ("Waveplate", lambda x: Waveplate(_with(x)), "waveplate transform component"),
        ("PartialPolarizer", lambda x: PartialPolarizer(_with(x), 0.5),
         "polarizer pass axis component"),
        ("waveplate_from_axis", lambda x: waveplate_from_axis(_with(x), 0.3),
         "slow axis signal component"),
        ("stokes", lambda x: stokes(_with(x)), "signal component"),
        ("stokes_q0", lambda x: stokes(Quaternion(x, 0.0, 0.0, 0.8)), "signal component"),
        ("stokes_q1", lambda x: stokes(Quaternion(0.6, x, 0.0, 0.8)), "signal component"),
        ("stokes_q3", lambda x: stokes(Quaternion(0.6, 0.0, 0.0, x)), "signal component"),
        ("to_jones", lambda x: to_jones(_with(x)), "signal component"),
        ("apply_phase_q", lambda x: apply_phase(_with(x), 0.3), "signal component"),
        ("orthogonal_sop", lambda x: orthogonal_sop(_with(x)), "signal component"),
        ("apply", lambda x: apply(_with(x), Waveplate(J)), "signal component"),
        ("polarizer_apply", lambda x: polarizer_apply(_with(x), PartialPolarizer(ONE, 0.5)),
         "signal component"),
        ("from_jones", lambda x: from_jones(JonesVector(complex(0.6, x), 0.8 + 0j)),
         "Jones vector component"),
        ("EllipseParams", lambda x: EllipseParams(x, 0.3, 0.1, 0.2), "magnitude"),
        ("qwp", qwp, "plate angle"),
        ("hwp", hwp, "plate angle"),
        ("rotate_element", lambda x: rotate_element(Waveplate(J), x), "plate angle"),
        ("waveplate_from_axis_eta", lambda x: waveplate_from_axis(ONE, x), "eta"),
        ("precess_q", lambda x: precess(_with(x), J, 0.3), "quaternion component"),
        ("classical_from_jones",
         lambda x: classical_from_jones(JonesVector(complex(0.6, x), 0.8 + 0j)),
         "Jones vector component"),
        ("to_classical", lambda x: to_classical(StokesQuaternion(0.6, x, 0.8)),
         "Stokes component"),
        ("exp", lambda x: _with(x).exp(), "quaternion component"),
        ("log", lambda x: _with(x).log(), "quaternion component")]
    for value in (math.nan, math.inf, -math.inf))


_REJECTIONS = _named(
    # quaternion: a quotient component, e^(q0) and a rotated vector past the
    # largest float
    ("quotient-overflow",
     lambda: Quaternion(1e300, 0.0, 0.0, 0.0) / Quaternion(1e-300, 0.0, 0.0, 0.0),
     OverflowError, "math range error"),
    ("exp-overflow", Quaternion(1000.0, 0.0, 0.0, 0.0).exp, OverflowError, "math range error"),
    ("exp-vector-overflow", Quaternion(0.0, 1.5e308, 1.5e308, 1.5e308).exp, ValueError,
     "the vector part's norm overflows a float"),
    ("precess-overflow", partial(precess, Quaternion(0.0, 1.5e308, 1.5e308, 1.5e308), J, 0.3),
     ValueError, "the precessed quaternion overflows a float"),
    ("divide-by-zero", lambda: ONE / ZERO, ValueError, "division by zero quaternion"),
    ("normalize-zero", ZERO.normalized, ValueError, "cannot normalize the zero quaternion"),
    ("log-zero", ZERO.log, ValueError, "zero quaternion has no logarithm"),
    # normalized() names the first non-finite component
    *((f"normalize-{q}", q.normalized, ValueError,
       f"quaternion component must be a finite number, got {bad}")
      for q, bad in [(Quaternion(math.nan, 0.0, 0.0, 0.0), "nan"),
                     (Quaternion(0.0, math.inf, 0.0, 0.0), "inf"),
                     (Quaternion(1.0, 0.0, -math.inf, 0.0), "-inf"),
                     (Quaternion(math.nan, math.inf, 0.0, 1.0), "nan")]),
    # a long axis with a scalar part, a long one, a unit one with a scalar part
    *((f"precess-axis-{v}", partial(precess, ONE, v, 0.3), ValueError,
       "axis must be a unit vector quaternion")
      for v in (Quaternion(0.5, 1, 0, 0), Quaternion(0, 2, 0, 0),
                Quaternion(0.6, 0.8, 0.0, 0.0))),
    *((f"text-{text or 'empty'}", partial(Quaternion.from_text, text), ValueError, message)
      for text, message in [("1,2,3", "expected 4 comma-separated reals, got '1,2,3'"),
                            ("1,2,3,4,5", "expected 4 comma-separated reals, got '1,2,3,4,5'"),
                            ("a,b,c,d", "bad quaternion text 'a,b,c,d'"),
                            ("", "expected 4 comma-separated reals, got ''")]),
    # signal: the record and its range rule raise the same message, also at
    # the open edge of each half-open range
    *((f"{check.__name__}-{field}", partial(check, *args), ValueError, message)
      for check in (EllipseParams, _check_ellipse)
      for field, args, message in [
          ("r", (-1.0, 0, 0, 0), "magnitude must be nonnegative, got -1.0"),
          ("phi", (1.0, 4.0, 0, 0), "phase 4.0 outside (-pi, pi]"),
          ("phi-open-edge", (1.0, -math.pi, 0, 0), "phase -3.141592653589793 outside (-pi, pi]"),
          ("epsilon", (1.0, 0, 1.0, 0), "ellipticity 1.0 outside [-pi/4, pi/4]"),
          ("theta", (1.0, 0, 0, 2.0), "orientation 2.0 outside (-pi/2, pi/2]"),
          ("theta-open-edge", (1.0, 0, 0, -math.pi / 2),
           "orientation -1.5707963267948966 outside (-pi/2, pi/2]")]),
    ("classify-zero", lambda: classify_orthogonality(ZERO, ONE), ValueError,
     "cannot classify the zero signal"),
    ("ellipse-of-zero", lambda: to_ellipse(ZERO), ValueError,
     "zero signal has no ellipse parameters"),
    ("ellipse-norm-overflow", lambda: to_ellipse(Quaternion(1e308, 1e308, 1e308, 1e308)),
     ValueError, "the signal's norm overflows a float"),
    # a Stokes vector is quadratic in the field, so a field near 1e200 overflows it
    ("stokes-overflow", partial(stokes, Quaternion(1e200, 1e200, 0.0, 0.0)), ValueError,
     "the Stokes vector overflows a float"),
    ("classical-stokes-overflow",
     partial(classical_from_jones, JonesVector(1e200 + 0j, 1e200 + 0j)), ValueError,
     "the Stokes vector overflows a float"),
    # a rotated or multiplied component past the largest float
    ("apply-phase-overflow", partial(apply_phase, Quaternion(1.5e308, 1.5e308, 0.0, 0.0), 0.7),
     ValueError, "the phase-shifted signal overflows a float"),
    # components
    ("apply-overflow", lambda: apply(Quaternion(1.5e308, 1.5e308, 0.0, 0.0), qwp(0.3)),
     ValueError, "the transmitted signal overflows a float"),
    # the pass axis's Stokes vector is (0, -1, 1) / sqrt(2), so an input of
    # four equal components leaves with q0 = q3 about 1.207 times theirs
    ("polarizer-overflow",
     lambda: polarizer_apply(Quaternion(1.5e308, 1.5e308, 1.5e308, 1.5e308), PartialPolarizer(
         from_ellipse(EllipseParams(1.0, 0.0, math.pi / 8, math.pi / 4)), 0.0)),
     ValueError, "the polarized signal overflows a float"),
    ("compose-nothing", lambda: compose([]), ValueError, "cannot compose an empty plate sequence"),
    ("polarizer-mu-above-1", lambda: PartialPolarizer(ONE, 1.5), ValueError,
     "field extinction mu = 1.5 outside [0, 1]"),
    ("polarizer-mu-below-0", lambda: PartialPolarizer(ONE, -0.1), ValueError,
     "field extinction mu = -0.1 outside [0, 1]"),
    # a plate, a polarizer or a target is a unit quaternion, and so is each
    # signal of a target or a ramp; a ramp checks its signals at the call,
    # before it reads a phase, so an endless phase sequence is fine
    *((f"{what.replace(' ', '-')}-not-unit", call, ValueError,
       f"{what} must be a unit quaternion, |q| = {norm}")
      for call, what, norm in [
          (lambda: Waveplate(Quaternion(1, 1, 0, 0)), "waveplate transform", _ROOT_2),
          (lambda: waveplate_from_axis(ONE + I, 0.3), "slow axis signal", _ROOT_2),
          (lambda: PartialPolarizer(ONE + I, 0.5), "polarizer pass axis", _ROOT_2),
          (lambda: target_transform(ONE + I, ONE, 0.0), "input signal", _ROOT_2),
          (lambda: target_transform(ONE, ONE * 2.0, 0.0), "output signal", "2.0"),
          (lambda: solve_angles(Quaternion(1.1, 0.0, 0.0, 0.0)), "target transform", "1.1")]),
    ("ramp-signal-not-unit", lambda: ramp_trajectory(ONE * 2.0, ONE, itertools.count()),
     ValueError, "input signal must be a unit quaternion, |q| = 2.0"),
    # a short signal fails as a long one does
    ("short-signal-not-unit", lambda: target_transform(ONE * 0.5, ONE, 0.0), ValueError,
     "input signal must be a unit quaternion, |q| = 0.5"),
    # records: a validated record is validated on every construction path
    *((f"{case}-{path}", call, ValueError, message)
      for case, record, field, bad, message in [
          ("ellipse", _ELLIPSE, "phi", 9.0, "phase 9.0 outside (-pi, pi]"),
          ("waveplate", Waveplate(ONE), "q", ONE * 2.0,
           "waveplate transform must be a unit quaternion, |q| = 2.0"),
          ("polarizer", PartialPolarizer(ONE, 0.5), "mu", 1.5,
           "field extinction mu = 1.5 outside [0, 1]"),
          ("ellipse-epsilon", _ELLIPSE, "epsilon", 1.0, "ellipticity 1.0 outside [-pi/4, pi/4]"),
          ("ellipse-theta", _ELLIPSE, "theta", -2.0, "orientation -2.0 outside (-pi/2, pi/2]")]
      for path, call in [
          ("constructor", partial(type(record), **{**record._asdict(), field: bad})),
          ("_replace", partial(record._replace, **{field: bad})),
          ("_make", partial(type(record)._make, {**record._asdict(), field: bad}.values()))]),
    # no record has tuple ordering, concatenation or repetition
    *((name, call, TypeError, f"{record} has no ordering, concatenation or repetition")
      for name, call, record in [
          ("q-lt", lambda: _Q < ONE, "Quaternion"),
          ("q-le", lambda: _Q <= ONE, "Quaternion"),
          ("q-gt", lambda: _Q > ONE, "Quaternion"),
          ("q-ge", lambda: _Q >= ONE, "Quaternion"),
          ("tuple-plus-q", lambda: (1, 0, 0, 0) + _Q, "Quaternion"),
          # a scalar multiplies a quaternion from the right only
          ("2-times-q", lambda: 2 * _Q, "Quaternion"),
          ("2.0-times-q", lambda: 2.0 * _Q, "Quaternion"),
          ("angles-lt-tuple", lambda: _ANGLES < (0.2, 0.0, 0.0), "WaveplateAngles"),
          ("tuple-ge-angles", lambda: (0.2, 0.0, 0.0) >= _ANGLES, "WaveplateAngles"),
          ("sorted", lambda: sorted([_ANGLES, _ANGLES]), "WaveplateAngles"),
          ("angles-plus-tuple", lambda: _ANGLES + (1,), "WaveplateAngles"),
          ("tuple-plus-angles", lambda: (1,) + _ANGLES, "WaveplateAngles"),
          ("angles-times-2", lambda: _ANGLES * 2, "WaveplateAngles"),
          ("2-times-angles", lambda: 2 * _ANGLES, "WaveplateAngles")]),
    *_NON_FINITE_ROWS,
)


def _rejects(name: str) -> None:
    """Row `name` of _REJECTIONS raises its exception with its whole message."""
    call, exception, message = _REJECTIONS[name]
    with pytest.raises(exception, match="^" + re.escape(message) + "$"):
        call()


# the non-finite rows run as test_signal.py's
# test_a_non_finite_input_is_rejected_by_name, under the ids they have always had
_NON_FINITE_NAMES = {name for name, *_ in _NON_FINITE_ROWS}


@pytest.mark.parametrize("name", [name for name in _REJECTIONS if name not in _NON_FINITE_NAMES])
def test_each_rejection_raises_its_exact_message(name):
    _rejects(name)
