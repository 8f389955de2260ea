"""The record contract: signals, plates and results are immutable named
tuples that never equal a record of another type or a plain tuple, and the
validated ones are validated on every construction path."""

import math
import re

import pytest

from polquat import (
    ONE,
    ClassicalStokes,
    EllipseParams,
    PartialPolarizer,
    Quaternion,
    RampPoint,
    ShifterSolution,
    StokesQuaternion,
    Waveplate,
    WaveplateAngles,
    forward_transform,
    orthogonal_sop,
    ramp_trajectory,
    solve_angles,
    target_transform,
    to_ellipse,
)
from polquat.checks import FIG5_Q, FIG5_R, FIG7_Q, FIG7_R
from polquat.shifter import SingularFamily, ramp_rows


@pytest.mark.parametrize("a, b", [
    (StokesQuaternion(1.0, 0.0, 0.0), ClassicalStokes(1.0, 0.0, 0.0)),
    (Quaternion(1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
    (WaveplateAngles(0.1, 0.2, 0.3), (0.1, 0.2, 0.3)),
], ids=["stokes-orderings", "quaternion-tuple", "angles-tuple"])
def test_records_of_other_types_never_compare_equal(a, b):
    assert a != b and b != a
    assert not (a == b or b == a)


def test_equal_records_hash_equal():
    a, b = WaveplateAngles(0.1, 0.2, 0.3), WaveplateAngles(0.1, 0.2, 0.3)
    assert a == b and hash(a) == hash(b)
    assert len({Quaternion(1.0, 0.0, 0.0, 0.0), ONE}) == 1


@pytest.mark.parametrize("call", [
    lambda: Quaternion(1.0, 0.0, 0.0),
    lambda: ShifterSolution(None),
    lambda: orthogonal_sop(ONE, 0.4),
], ids=["quaternion-3-fields", "solution-1-field", "orthogonal-sop-phase"])
def test_constructors_take_every_field_and_no_dropped_argument(call):
    # no field has a default (a short Quaternion does not mean q3 = 0), and
    # orthogonal_sop takes no phase: apply_phase(orthogonal_sop(q), phi)
    with pytest.raises(TypeError):
        call()


def test_fields_cannot_be_assigned():
    with pytest.raises(AttributeError):
        ONE.q0 = 2.0
    with pytest.raises(AttributeError):
        WaveplateAngles(0.1, 0.2, 0.3).psi_b = 0.0


def test_quaternion_arithmetic_is_not_tuple_arithmetic():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(TypeError):
        q + (1, 0, 0, 0)
    # a scalar multiplies from the right; from the left it is tuple repetition,
    # which the record contract refuses
    assert q * 2.0 == Quaternion(2.0, 4.0, 6.0, 8.0)
    for scalar in (2, 2.0):
        with pytest.raises(TypeError, match="^Quaternion has no ordering, concatenation or "
                                            "repetition$"):
            scalar * q


_Q = Quaternion(1.0, 2.0, 3.0, 4.0)
_ANGLES = WaveplateAngles(0.1, 0.2, 0.3)


@pytest.mark.parametrize("operation", [
    lambda: _Q < ONE, lambda: _Q <= ONE, lambda: _Q > ONE, lambda: _Q >= ONE,
    lambda: _ANGLES < (0.2, 0.0, 0.0), lambda: (0.2, 0.0, 0.0) >= _ANGLES,
    lambda: sorted([_ANGLES, _ANGLES]),
    lambda: (1, 0, 0, 0) + _Q, lambda: _ANGLES + (1,), lambda: (1,) + _ANGLES,
    lambda: _ANGLES * 2, lambda: 2 * _ANGLES,
], ids=["q-lt", "q-le", "q-gt", "q-ge", "angles-lt-tuple", "tuple-ge-angles", "sorted",
        "tuple-plus-q", "angles-plus-tuple", "tuple-plus-angles", "angles-times-2",
        "2-times-angles"])
def test_records_have_no_tuple_ordering_concatenation_or_repetition(operation):
    with pytest.raises(TypeError):
        operation()


def test_records_keep_length_indexing_and_unpacking():
    assert len(_Q) == 4 and _Q[0] == 1.0 and _ANGLES[-1] == 0.3
    q0, q1, q2, q3 = _Q
    assert (q0, q1, q2, q3) == tuple(_Q) == (1.0, 2.0, 3.0, 4.0)
    assert _Q + ONE == Quaternion(2.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("record, field, bad, message", [
    (EllipseParams(1.0, 0.0, 0.0, 0.0), "phi", 9.0, "phase 9.0 outside (-pi, pi]"),
    (Waveplate(ONE), "q", ONE * 2.0, "waveplate transform must be a unit quaternion, |q| = 2.0"),
    (PartialPolarizer(ONE, 0.5), "mu", 1.5, "field extinction mu = 1.5 outside [0, 1]"),
    (EllipseParams(1.0, 0.0, 0.0, 0.0), "epsilon", 1.0, "ellipticity 1.0 outside [-pi/4, pi/4]"),
    (EllipseParams(1.0, 0.0, 0.0, 0.0), "theta", -2.0, "orientation -2.0 outside (-pi/2, pi/2]"),
], ids=["ellipse", "waveplate", "polarizer", "ellipse-epsilon", "ellipse-theta"])
def test_every_construction_path_validates(record, field, bad, message):
    values = dict(record._asdict(), **{field: bad})
    for build in (lambda: type(record)(**values), lambda: record._replace(**{field: bad}),
                  lambda: type(record)._make(values.values())):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build()


def _assert_constructor_twin(record, cls):
    twin = cls(*record)
    assert record == twin and twin == record
    assert (repr(record), hash(record), len(record)) == (repr(twin), hash(twin), len(twin))


@pytest.mark.parametrize("q, r", [(FIG5_Q, FIG5_R), (FIG7_Q, FIG7_R), (ONE, ONE)],
                         ids=["fig5", "fig7", "identity"])
def test_fast_built_records_equal_their_constructors(q, r):
    # the hot paths build records without their Python constructor; each must
    # be the record that constructor builds from the same fields, of the same
    # type (== is type-strict).  The identity ramp has singular-family rows.
    phis = [2.0 * math.pi * k / 16 for k in range(17)]
    records = [(q * r, Quaternion), (r * q, Quaternion)]
    for pt in ramp_trajectory(q, r, phis):
        p = target_transform(q, r, pt.phi)
        sol = solve_angles(p)
        records += [(pt, RampPoint), (pt.angles, WaveplateAngles), (p, Quaternion),
                    (forward_transform(pt.angles), Quaternion), (sol, ShifterSolution),
                    (to_ellipse(q * forward_transform(pt.angles)), EllipseParams)]
        if sol.family is None:
            records += [(angles, WaveplateAngles) for angles in sol.branches]
        else:
            records += [(angles, WaveplateAngles) for angles in sol.family_samples]
            records.append((sol.family, SingularFamily))
    if q is ONE:
        assert any(cls is SingularFamily for _, cls in records)
    for record, cls in records:
        _assert_constructor_twin(record, cls)


@pytest.mark.parametrize("q, r", [(FIG5_Q, FIG5_R), (FIG7_Q, FIG7_R)], ids=["fig5", "fig7"])
def test_ramp_row_ellipses_are_the_records_of_to_ellipse(q, r):
    # a ramp row passes its output to to_ellipse as a plain tuple; its ellipse
    # is the record to_ellipse builds for the output Quaternion
    rows = list(ramp_rows(q, r, 256))
    assert len(rows) == 256
    for pt, ellipse in rows:
        assert repr(ellipse) == repr(to_ellipse(q * forward_transform(pt.angles)))
        _assert_constructor_twin(ellipse, EllipseParams)
