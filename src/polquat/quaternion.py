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


def _same_type_eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _same_type_ne(self, other) -> bool:
    return not _same_type_eq(self, other)


def _no_tuple_operator(self, other):
    # raised, not returned as NotImplemented: tuple's own slot would answer
    raise TypeError(f"{type(self).__name__} has no ordering, concatenation or repetition")


_new = tuple.__new__


def _record(typename: str, fields: str) -> type:
    """Base of an immutable record type: a named tuple (subclasses add
    `__slots__ = ()`) with three changes.

    * A record equals only a record of its own type.  A plain named tuple
      equals any tuple with the same values, which would make, say, a
      `StokesQuaternion` equal the `ClassicalStokes` of the other ordering.
    * Ordering, concatenation and repetition raise TypeError from either
      side (`Quaternion` defines its own `+` and `*`).
    * `_make`, and with it `_replace`, builds through the constructor, so a
      record that validates in `__new__` is validated on every path.

    No field has a default: a constructor takes every field.  `__eq__` is
    set after the class is made, so the class keeps tuple's `__hash__`.

    `_new(cls, values)`, with `values` a tuple of every field in field order,
    builds the record in one C call, skipping the Python `__new__` frame the
    named tuple generates.  It checks nothing, so it builds only the types
    whose constructor checks nothing, ends a validating `__new__` only after
    that `__new__` has made its checks, and builds a validating record only
    from values that its own check has just returned (`to_ellipse` builds
    its `EllipseParams` from the tuple `_check_ellipse` returns).
    """
    base = namedtuple(typename, fields)
    base.__eq__ = _same_type_eq
    base.__ne__ = _same_type_ne
    for name in ("__lt__", "__le__", "__gt__", "__ge__",
                 "__add__", "__radd__", "__mul__", "__rmul__"):
        setattr(base, name, _no_tuple_operator)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Quaternion(_record("Quaternion", "q0 q1 q2 q3")):
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
        (p0, p1, p2, p3), (q0, q1, q2, q3) = self, other
        return _new(Quaternion, (p0 + q0, p1 + q1, p2 + q2, p3 + q3))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        (p0, p1, p2, p3), (q0, q1, q2, q3) = self, other
        return _new(Quaternion, (p0 - q0, p1 - q1, p2 - q2, p3 - q3))

    def __neg__(self) -> "Quaternion":
        q0, q1, q2, q3 = self
        return _new(Quaternion, (-q0, -q1, -q2, -q3))

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            # `_product` written out, every operation in its order: one frame
            (a0, a1, a2, a3), (b0, b1, b2, b3) = self, other
            return _new(Quaternion, (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                                     a0 * b1 + b0 * a1 + (a2 * b3 - a3 * b2),
                                     a0 * b2 + b0 * a2 + (a3 * b1 - a1 * b3),
                                     a0 * b3 + b0 * a3 + (a1 * b2 - a2 * b1)))
        if isinstance(other, (int, float)):
            return _new(Quaternion, (self.q0 * other, self.q1 * other,
                                     self.q2 * other, self.q3 * other))
        return NotImplemented

    def __truediv__(self, other):
        """Right division p / q = p * conj(q / |q|) / |q|.

        The divisor enters through its direction `q.normalized()`, and the
        product is divided by |q| = 2^e |u| (see `_prescaled`) as a division
        by |u| and then an exact scaling by 2^-e, so no intermediate
        underflows or overflows: a divisor at 1e-300 or 1e308 scale divides
        as well as a unit one, even where |q| itself exceeds the largest
        float.  Raises ValueError for the zero divisor and for a non-finite
        one, and OverflowError where a component of the quotient exceeds the
        largest float.
        """
        if isinstance(other, Quaternion):
            _, e, n = _prescaled(other)
            if n == 0.0:
                raise ValueError("division by zero quaternion")
            m0, m1, m2, m3 = _product(self, other.normalized().conjugate())
            return _new(Quaternion, (math.ldexp(m0 / n, -e), math.ldexp(m1 / n, -e),
                                     math.ldexp(m2 / n, -e), math.ldexp(m3 / n, -e)))
        return NotImplemented

    # -- conjugations -------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        q0, q1, q2, q3 = self
        return _new(Quaternion, (q0, -q1, -q2, -q3))

    def partial_conjugate(self, axis: Axis) -> "Quaternion":
        """Negate only the `axis` component of the vector part: the full
        conjugate of the double conjugate that keeps `axis`.

        Equals -v * conj(q) * v for the base vector v of `axis`.
        """
        return self.double_conjugate(axis).conjugate()

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
        q0, q1, q2, q3 = self   # unpacked: `*self` copies a tuple subclass first
        return math.hypot(q0, q1, q2, q3)

    def normalized(self) -> "Quaternion":
        """The unit quaternion in the direction of self, at every scale.

        The components are first divided by 2^e (see `_prescaled`).  That
        division is exact, so a unit-scale quaternion gives exactly the
        floats of self * (1 / |self|), while a denormal or huge one neither
        underflows nor overflows on the way.
        Raises ValueError for the zero quaternion and for a non-finite one.
        """
        (u0, u1, u2, u3), _, n = _prescaled(self)
        if not 0.0 < n < math.inf:   # hypot is inf or nan for a non-finite component
            _require_finite_components(self, "quaternion")
            raise ValueError("cannot normalize the zero quaternion")
        inv = 1.0 / n
        return _new(Quaternion, (u0 * inv, u1 * inv, u2 * inv, u3 * inv))

    def is_unit(self) -> bool:
        return abs(math.hypot(*self) - 1.0) <= UNIT_TOL

    # -- transcendental -------------------------------------------------------

    def exp(self) -> "Quaternion":
        """Quaternion exponential e^(q0) * (cos|v| + v_hat sin|v|) with v the
        vector part.  For a unit vector v, exp(v*t) = cos t + v sin t.
        Raises ValueError naming a non-finite component or where the vector
        part's norm overflows a float, and OverflowError where e^(q0) exceeds
        the largest float (q0 above about 709.78)."""
        _require_finite_components(self, "quaternion")
        a = self.vector_norm()
        if a == math.inf:
            raise ValueError("the vector part's norm overflows a float")
        s = math.exp(self.q0)
        if a == 0.0:
            return Quaternion(s, 0.0, 0.0, 0.0)
        f = s * math.sin(a) / a
        return Quaternion(s * math.cos(a), f * self.q1, f * self.q2, f * self.q3)

    def log(self) -> "Quaternion":
        """Principal logarithm; the vector angle atan2(|v|, q0) lies in [0, pi].

        A negative real quaternion (zero vector part, q0 < 0) has no preferred
        axis; by convention the i axis is returned with angle pi.  The angle
        comes from u = q / 2^e (see `_prescaled`) and, where |q| is not a
        normal float, the scalar from log|u| + e ln 2: the log is finite for
        every finite nonzero q, also where |q| exceeds the largest float.
        Raises ValueError for the zero quaternion and for a non-finite one.
        """
        (u0, u1, u2, u3), e, n = _prescaled(self)
        if not 0.0 < n < math.inf:   # hypot is inf or nan for a non-finite component
            _require_finite_components(self, "quaternion")
            raise ValueError("zero quaternion has no logarithm")
        # log|q| itself where |q| = 2^e |u| is a normal float; past either end
        # of that range, log|u| + e ln 2
        log_n = math.log(math.ldexp(n, e)) if -1022 < e < 1024 else math.log(n) + e * _LN2
        a = math.hypot(u1, u2, u3)
        if a == 0.0:
            if u0 > 0.0:
                return Quaternion(log_n, 0.0, 0.0, 0.0)
            return Quaternion(log_n, math.pi, 0.0, 0.0)
        theta = math.atan2(a, u0)
        f = theta / a
        return Quaternion(log_n, f * u1, f * u2, f * u3)


_LN2 = math.log(2.0)


def _prescaled(q) -> tuple:
    """(u, e, |u|) for a 4-sequence q: u = q / 2^e, with 2^e the power of
    two just above the largest |component| (e = 0 for the zero q).

    The division is exact and, for a finite nonzero q, |u| lies in [0.5, 2),
    so |q| = 2^e |u| even where |q| itself overflows or underflows a float.
    |u| is inf or nan for a non-finite q.
    """
    u0, u1, u2, u3 = q
    _, e = math.frexp(max(abs(u0), abs(u1), abs(u2), abs(u3)))
    if e:
        u0, u1, u2, u3 = (math.ldexp(u0, -e), math.ldexp(u1, -e),
                          math.ldexp(u2, -e), math.ldexp(u3, -e))
    return (u0, u1, u2, u3), e, math.hypot(u0, u1, u2, u3)


def _product(p, q) -> tuple:
    """The Hamilton product p q of two 4-sequences of floats, as a tuple.
    `Quaternion.__mul__` writes out the same operations in the same order."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + q0 * p1 + (p2 * q3 - p3 * q2),
            p0 * q2 + q0 * p2 + (p3 * q1 - p1 * q3),
            p0 * q3 + q0 * p3 + (p1 * q2 - p2 * q1))


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def precess(q: Quaternion, v: Quaternion, theta: float) -> Quaternion:
    """exp(-v theta) * q * exp(v theta) for unit vector quaternion v.

    The scalar part and the vector-part magnitude are preserved; the vector
    part is rotated by angle 2*theta about axis v.  Raises ValueError unless
    v is a unit vector quaternion and theta and the components of q are
    finite, and where a component of the result overflows a float.
    """
    if abs(v.q0) > UNIT_TOL or not v.is_unit():
        raise ValueError("axis must be a unit vector quaternion")
    _require_finite(theta, "precession angle")
    _require_finite_components(q, "quaternion")
    c = math.cos(theta)
    s = math.sin(theta)
    e_pos = (c, v.q1 * s, v.q2 * s, v.q3 * s)
    e_neg = (c, -v.q1 * s, -v.q2 * s, -v.q3 * s)
    return _new(Quaternion, _require_finite_result(_product(_product(e_neg, q), e_pos),
                                                   "the precessed quaternion"))


def allclose(p: Quaternion, q: Quaternion, tol: float) -> bool:
    """Componentwise absolute agreement within tol."""
    return (abs(p.q0 - q.q0) <= tol and abs(p.q1 - q.q1) <= tol
            and abs(p.q2 - q.q2) <= tol and abs(p.q3 - q.q3) <= tol)


def _require_unit(q: Quaternion, what: str) -> None:
    # `is_unit` written out, q unpacked as in `norm`; a non-finite q is
    # never unit, so naming its component costs a passing check nothing
    q0, q1, q2, q3 = q
    if not abs(math.hypot(q0, q1, q2, q3) - 1.0) <= UNIT_TOL:
        _require_finite_components(q, what)
        raise ValueError(f"{what} must be a unit quaternion, |q| = {q.norm()!r}")


def _renormalized(q):
    """q, or q divided by its norm where that is more than UNIT_TOL off 1.

    A product of n factors each within UNIT_TOL of unit can be about n times
    that off; divided, it is the product of the unit states they
    approximate.  A product within UNIT_TOL comes back as it is, so its
    floats are unchanged.  q is a Quaternion or a tuple of floats; the
    result has its type.
    """
    norm = math.hypot(*q)
    if abs(norm - 1.0) > UNIT_TOL:
        return _new(type(q), (x / norm for x in q))
    return q


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")


def _require_finite_result(values: tuple, what: str) -> tuple:
    """values, or ValueError `<what> overflows a float` where a component is
    not finite: from finite inputs, only an overflow makes one."""
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ValueError(f"{what} overflows a float")
    return values


def _require_finite_components(q, what: str) -> None:
    """ValueError `<what> component must be a finite number, got <value>`
    for the first non-finite component of the sequence q."""
    if math.isfinite(sum(q)):   # a finite sum has finite terms: one sum passes q
        return
    for x in q:
        if not math.isfinite(x):   # the message is formatted only for a failing one
            _require_finite(x, f"{what} component")
