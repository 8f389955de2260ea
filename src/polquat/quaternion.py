"""Scalar quaternion arithmetic.

A quaternion q = q0 + q1*i + q2*j + q3*k is held as four floats.  The three
imaginary units obey the Hamilton rules

    i*i = j*j = k*k = i*j*k = -1
    i*j = -j*i = k,   j*k = -k*j = i,   k*i = -i*k = j

All values are immutable and every operation is a pure function, so the
module is safe under arbitrary concurrency.  Angles are radians throughout.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

# |norm - 1| tolerance accepted when an operation requires a unit quaternion.
# Inputs often arrive from text or JSON with finite precision.
UNIT_TOL = 1e-9


class Axis(Enum):
    """One of the three base vector quaternions, used to select a
    partial-conjugation axis."""

    I = "i"
    J = "j"
    K = "k"

    @property
    def unit(self) -> "Quaternion":
        return _AXIS_UNITS[self]


def _same_type_eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _same_type_ne(self, other) -> bool:
    return not _same_type_eq(self, other)


def _no_tuple_operator(self, other):
    # raised, not returned as NotImplemented: tuple's own slot would answer
    raise TypeError(f"{type(self).__name__} has no ordering, concatenation or repetition")


def _record(typename: str, fields: str, defaults=None) -> type:
    """Base of an immutable record type: a named tuple (subclasses add
    `__slots__ = ()`) with three changes.

    * A record equals only a record of its own type.  A plain named tuple
      equals any tuple with the same values, which would make, say, a
      `StokesQuaternion` equal the `ClassicalStokes` of the other ordering.
    * Ordering, concatenation and repetition raise TypeError from either
      side (`Quaternion` defines its own `+` and `*`).
    * `_make`, and with it `_replace`, builds through the constructor, so a
      record that validates in `__new__` is validated on every path.
    """
    base = namedtuple(typename, fields, defaults=defaults)
    base.__eq__ = _same_type_eq
    base.__ne__ = _same_type_ne
    base.__hash__ = tuple.__hash__
    for name in ("__lt__", "__le__", "__gt__", "__ge__",
                 "__add__", "__radd__", "__mul__", "__rmul__"):
        setattr(base, name, _no_tuple_operator)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Quaternion(_record("Quaternion", "q0 q1 q2 q3", (0.0, 0.0, 0.0, 0.0))):
    __slots__ = ()

    # -- construction / serialization ------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Quaternion":
        """Parse the comma-separated text form "q0,q1,q2,q3"."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 4 comma-separated reals, got {text!r}")
        try:
            return cls(*(float(p.strip()) for p in parts))
        except ValueError as exc:
            raise ValueError(f"bad quaternion text {text!r}") from exc

    def to_list(self) -> list:
        return list(self)

    def __str__(self) -> str:
        terms = []
        for value, unit in zip(self, ("", "i", "j", "k")):
            terms.append(f"{value:+g}{unit}")
        return "".join(terms)

    # -- parts ------------------------------------------------------------

    def vector_norm(self) -> float:
        return math.hypot(self.q1, self.q2, self.q3)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.q0 + other.q0, self.q1 + other.q1,
                          self.q2 + other.q2, self.q3 + other.q3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.q0 - other.q0, self.q1 - other.q1,
                          self.q2 - other.q2, self.q3 - other.q3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            p0, p1, p2, p3 = self
            q0, q1, q2, q3 = other
            return Quaternion(
                p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
                p0 * q1 + q0 * p1 + (p2 * q3 - p3 * q2),
                p0 * q2 + q0 * p2 + (p3 * q1 - p1 * q3),
                p0 * q3 + q0 * p3 + (p1 * q2 - p2 * q1),
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.q0 * other, self.q1 * other,
                              self.q2 * other, self.q3 * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        """Right division p / q = p * conj(q) / |q|^2."""
        if isinstance(other, Quaternion):
            n2 = other.norm_sq()
            if n2 == 0.0:
                raise ValueError("division by zero quaternion")
            return (self * other.conjugate()) * (1.0 / n2)
        return NotImplemented

    def left_div(self, other: "Quaternion") -> "Quaternion":
        """Left division self \\ other = conj(self) * other / |self|^2,
        the x solving self * x = other."""
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ValueError("division by zero quaternion")
        return (self.conjugate() * other) * (1.0 / n2)

    # -- conjugations -------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.q0, -self.q1, -self.q2, -self.q3)

    def partial_conjugate(self, axis: Axis) -> "Quaternion":
        """Negate only the `axis` component of the vector part.

        Equals -v * conj(q) * v for the base vector v of `axis`.
        """
        if axis is Axis.I:
            return Quaternion(self.q0, -self.q1, self.q2, self.q3)
        if axis is Axis.J:
            return Quaternion(self.q0, self.q1, -self.q2, self.q3)
        return Quaternion(self.q0, self.q1, self.q2, -self.q3)

    def double_conjugate(self, kept: Axis) -> "Quaternion":
        """Negate the two vector components other than `kept`.

        Equals -v * q * v for the base vector v of `kept` (note: no inner
        conjugate, unlike the single partial conjugate).
        """
        if kept is Axis.I:
            return Quaternion(self.q0, self.q1, -self.q2, -self.q3)
        if kept is Axis.J:
            return Quaternion(self.q0, -self.q1, self.q2, -self.q3)
        return Quaternion(self.q0, -self.q1, -self.q2, self.q3)

    # -- norms ---------------------------------------------------------------

    def norm_sq(self) -> float:
        return (self.q0 * self.q0 + self.q1 * self.q1
                + self.q2 * self.q2 + self.q3 * self.q3)

    def norm(self) -> float:
        return math.hypot(*self)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero quaternion")
        return self * (1.0 / n)

    def is_unit(self) -> bool:
        return abs(self.norm() - 1.0) <= UNIT_TOL

    # -- transcendental -------------------------------------------------------

    def exp(self) -> "Quaternion":
        """Quaternion exponential e^(q0) * (cos|v| + v_hat sin|v|) with v the
        vector part.  For a unit vector v, exp(v*t) = cos t + v sin t."""
        a = self.vector_norm()
        s = math.exp(self.q0)
        if a == 0.0:
            return Quaternion(s, 0.0, 0.0, 0.0)
        f = s * math.sin(a) / a
        return Quaternion(s * math.cos(a), f * self.q1, f * self.q2, f * self.q3)

    def log(self) -> "Quaternion":
        """Principal logarithm; the vector angle atan2(|v|, q0) lies in [0, pi].

        A negative real quaternion (zero vector part, q0 < 0) has no preferred
        axis; by convention the i axis is returned with angle pi.
        """
        n = self.norm()
        if n == 0.0:
            raise ValueError("zero quaternion has no logarithm")
        a = self.vector_norm()
        if a == 0.0:
            if self.q0 > 0.0:
                return Quaternion(math.log(n), 0.0, 0.0, 0.0)
            return Quaternion(math.log(n), math.pi, 0.0, 0.0)
        theta = math.atan2(a, self.q0)
        f = theta / a
        return Quaternion(math.log(n), f * self.q1, f * self.q2, f * self.q3)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

_AXIS_UNITS = {Axis.I: I, Axis.J: J, Axis.K: K}


def precess(q: Quaternion, v: Quaternion, theta: float) -> Quaternion:
    """exp(-v theta) * q * exp(v theta) for unit vector quaternion v.

    The scalar part and the vector-part magnitude are preserved; the vector
    part is rotated by angle 2*theta about axis v.
    """
    _require_unit_vector(v)
    c = math.cos(theta)
    s = math.sin(theta)
    e_pos = Quaternion(c, v.q1 * s, v.q2 * s, v.q3 * s)
    e_neg = Quaternion(c, -v.q1 * s, -v.q2 * s, -v.q3 * s)
    return e_neg * q * e_pos


def allclose(p: Quaternion, q: Quaternion, tol: float = 1e-12) -> bool:
    """Componentwise absolute agreement within tol."""
    return (abs(p.q0 - q.q0) <= tol and abs(p.q1 - q.q1) <= tol
            and abs(p.q2 - q.q2) <= tol and abs(p.q3 - q.q3) <= tol)


def _require_unit(q: Quaternion, what: str = "quaternion") -> None:
    if not q.is_unit():
        raise ValueError(f"{what} must be a unit quaternion, |q| = {q.norm()!r}")


def _require_unit_vector(v: Quaternion, what: str = "axis") -> None:
    if v.q0 != 0.0 and abs(v.q0) > UNIT_TOL:
        raise ValueError(f"{what} must have zero scalar part")
    if not v.is_unit():
        raise ValueError(f"{what} must be a unit vector quaternion")
