"""Independent 2x2 complex-matrix (Jones) reference path.

Cross-checks every quaternion computation through ordinary complex linear
algebra.  The embedding sends the quaternion units to

    1 -> [[1, 0], [0, 1]]      i -> [[h, 0], [0, -h]]
    j -> [[0, -1], [1, 0]]     k -> [[0, h], [h, 0]]

with h the scalar imaginary unit.  Matrix multiplication runs opposite to the
left-to-right optical order, so the map is an anti-homomorphism:
M(p q) = M(q) M(p).

A matrix is a pair of row tuples of Python `complex`; the oracle's
independence comes from that representation, not from any array library.
This module exists for differential testing (and the CLI self check) only;
production code paths never import it.
"""

from __future__ import annotations

from .components import PartialPolarizer, Waveplate
from .quaternion import Quaternion
from .signal import JonesVector

# the images of 1, i, j and k, as listed above
_BASIS = {"M_ONE": ((1 + 0j, 0j), (0j, 1 + 0j)),
          "M_I": ((1j, 0j), (0j, -1j)),
          "M_J": ((0j, -1 + 0j), (1 + 0j, 0j)),
          "M_K": ((0j, 1j), (1j, 0j))}

# largest asymmetry, relative to the largest entry, of a retarder matrix
_SYMMETRY_TOL = 1e-12


def __getattr__(name: str):
    # numpy views of the basis for the batched oracle of benchmarks/verify.py;
    # numpy is imported only when one of them is read
    if name in _BASIS:
        import numpy as np
        return np.array(_BASIS[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def quat_to_matrix(q: Quaternion) -> tuple:
    """q0 M(1) + q1 M(i) + q2 M(j) + q3 M(k), entry by entry."""
    return ((complex(q.q0, q.q1), complex(-q.q2, q.q3)),
            (complex(q.q2, q.q3), complex(q.q0, -q.q1)))


def is_waveplate_matrix(m) -> bool:
    """True if m has the retarder symmetry [[a, -b*], [b, a*]]."""
    a, c, b, d = m[0][0], m[0][1], m[1][0], m[1][1]
    tol = _SYMMETRY_TOL * max(1.0, abs(a), abs(b), abs(c), abs(d))
    return abs(d - a.conjugate()) <= tol and abs(c + b.conjugate()) <= tol


def jones_column(q: Quaternion) -> JonesVector:
    """First column of M(q); identical to signal.to_jones(q)."""
    (a, _), (b, _) = quat_to_matrix(q)
    return JonesVector(a, b)


def oracle_apply(v: JonesVector, plate: Waveplate) -> JonesVector:
    """Matrix-vector product M(plate) v."""
    (a, b), (c, d) = quat_to_matrix(plate.q)
    return JonesVector(a * v.ex + b * v.ey, c * v.ex + d * v.ey)


def oracle_polarizer(v: JonesVector, pol: PartialPolarizer) -> JonesVector:
    """Partial polarizer by explicit projection onto pass and block axes."""
    pv = jones_column(pol.pass_axis)
    bv = JonesVector(-pv.ey.conjugate(), pv.ex.conjugate())   # orthogonal to pv
    along = pv.ex.conjugate() * v.ex + pv.ey.conjugate() * v.ey
    across = pol.mu * (bv.ex.conjugate() * v.ex + bv.ey.conjugate() * v.ey)
    return JonesVector(pv.ex * along + bv.ex * across,
                       pv.ey * along + bv.ey * across)
