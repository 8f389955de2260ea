"""The library's rejections, one row each: a call outside an operation's
domain, the exception type it raises and its exact message.  The table holds
the rejections whose message polquat writes, the record contract's included;
the non-finite inputs, whose messages one rule derives from the name of the
argument, are a table of their own in tests/test_signal.py, and messages
that CPython writes stay in the tests of their contract.  Each row is named,
and a name given twice fails collection instead of replacing a row."""

import itertools
import math
import re
from functools import partial

import pytest

from polquat import (EllipseParams, I, J, JonesVector, ONE, PartialPolarizer, Quaternion,
                     Waveplate, classical_from_jones, classify_orthogonality, compose, precess,
                     ramp_trajectory, solve_angles, stokes, target_transform, to_ellipse,
                     waveplate_from_axis)
from polquat.signal import _check_ellipse

from test_records import _ANGLES, _Q

ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
_ROOT_2 = "1.4142135623730951"   # |1 + i|
_ELLIPSE = EllipseParams(1.0, 0.0, 0.0, 0.0)


def _named(*rows) -> dict:
    """{name: (call, exception, message)} of the rows (name, call, exception,
    message).  A repeated name raises: a dict merge would keep only its last
    row."""
    names = [name for name, *_ in rows]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"rejection rows share a name: {repeated}")
    return {name: tuple(row) for name, *row in rows}


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
    # components
    ("compose-nothing", lambda: compose([]), ValueError, "cannot compose an empty plate sequence"),
    ("polarizer-mu-above-1", lambda: PartialPolarizer(ONE, 1.5), ValueError,
     "field extinction mu = 1.5 outside [0, 1]"),
    ("polarizer-mu-below-0", lambda: PartialPolarizer(ONE, -0.1), ValueError,
     "field extinction mu = -0.1 outside [0, 1]"),
    # a plate, a polarizer or a target is a unit quaternion, and so is each
    # signal of a target or a ramp; a ramp checks its signals at the call,
    # before it reads a phase, so an endless phase sequence is fine
    *((f"{what} not unit", call, ValueError, f"{what} must be a unit quaternion, |q| = {norm}")
      for call, what, norm in [
          (lambda: Waveplate(Quaternion(1, 1, 0, 0)), "waveplate transform", _ROOT_2),
          (lambda: waveplate_from_axis(ONE + I, 0.3), "slow axis signal", _ROOT_2),
          (lambda: PartialPolarizer(ONE + I, 0.5), "polarizer pass axis", _ROOT_2),
          (lambda: target_transform(ONE + I, ONE, 0.0), "input signal", _ROOT_2),
          (lambda: target_transform(ONE, ONE * 2.0, 0.0), "output signal", "2.0"),
          (lambda: solve_angles(Quaternion(1.1, 0.0, 0.0, 0.0)), "target transform", "1.1")]),
    ("ramp signal not unit", lambda: ramp_trajectory(ONE * 2.0, ONE, itertools.count()),
     ValueError, "input signal must be a unit quaternion, |q| = 2.0"),
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
)


@pytest.mark.parametrize("name", list(_REJECTIONS))
def test_each_rejection_raises_its_exact_message(name):
    call, exception, message = _REJECTIONS[name]
    with pytest.raises(exception, match="^" + re.escape(message) + "$"):
        call()
