"""The record contract: signals, plates and results are immutable named
tuples that never equal a record of another type or a plain tuple, and the
validated ones are validated on every construction path."""

import pytest

from polquat import (
    ONE,
    ClassicalStokes,
    EllipseParams,
    PartialPolarizer,
    Quaternion,
    StokesQuaternion,
    Waveplate,
    WaveplateAngles,
)


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
    assert len({Quaternion(1.0), ONE}) == 1


def test_fields_cannot_be_assigned():
    with pytest.raises(AttributeError):
        ONE.q0 = 2.0
    with pytest.raises(AttributeError):
        WaveplateAngles(0.1, 0.2, 0.3).psi_b = 0.0


def test_quaternion_arithmetic_is_not_tuple_arithmetic():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(TypeError):
        q + (1, 0, 0, 0)
    assert 2 * q == q * 2.0 == Quaternion(2.0, 4.0, 6.0, 8.0)


@pytest.mark.parametrize("record, field, bad", [
    (EllipseParams(1.0, 0.0, 0.0, 0.0), "phi", 9.0),
    (Waveplate(ONE), "q", Quaternion(2.0)),
    (PartialPolarizer(ONE, 0.5), "mu", 1.5),
], ids=["ellipse", "waveplate", "polarizer"])
def test_every_construction_path_validates(record, field, bad):
    values = dict(record._asdict(), **{field: bad})
    with pytest.raises(ValueError):
        type(record)(**values)
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(ValueError):
        type(record)._make(values.values())
