"""Independent 2x2 complex-matrix (Jones) reference path.

Cross-checks every quaternion computation through ordinary complex linear
algebra.  The embedding sends the quaternion units to

    1 -> [[1, 0], [0, 1]]      i -> [[h, 0], [0, -h]]
    j -> [[0, -1], [1, 0]]     k -> [[0, h], [h, 0]]

with h the scalar imaginary unit.  Matrix multiplication runs opposite to the
left-to-right optical order, so the map is an anti-homomorphism:
M(p q) = M(q) M(p).

This module exists for differential testing (and the CLI self check) only;
production code paths never import it.
"""

from __future__ import annotations

import numpy as np

from .components import PartialPolarizer, Waveplate
from .quaternion import J, Quaternion
from .signal import JonesVector

M_ONE = np.eye(2, dtype=complex)
M_I = np.array([[1j, 0.0], [0.0, -1j]])
M_J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
M_K = np.array([[0.0, 1j], [1j, 0.0]])

# largest asymmetry, relative to the largest entry, of a retarder matrix
_SYMMETRY_TOL = 1e-12


def quat_to_matrix(q: Quaternion) -> np.ndarray:
    """Weigh the four basis matrices by the quaternion coefficients."""
    return q.q0 * M_ONE + q.q1 * M_I + q.q2 * M_J + q.q3 * M_K


def is_waveplate_matrix(m: np.ndarray) -> bool:
    """True if m has the retarder symmetry [[a, -b*], [b, a*]]."""
    m = np.asarray(m, dtype=complex)
    tol = _SYMMETRY_TOL * max(1.0, float(np.abs(m).max()))
    return (abs(m[1, 1] - m[0, 0].conjugate()) <= tol
            and abs(m[0, 1] + m[1, 0].conjugate()) <= tol)


def jones_column(q: Quaternion) -> JonesVector:
    """First column of M(q); identical to signal.to_jones(q)."""
    m = quat_to_matrix(q)
    return JonesVector(complex(m[0, 0]), complex(m[1, 0]))


def oracle_apply(v: JonesVector, plate: Waveplate) -> JonesVector:
    """Matrix-vector product M(plate) @ v."""
    m = quat_to_matrix(plate.q)
    out = m @ np.array([v.ex, v.ey])
    return JonesVector(complex(out[0]), complex(out[1]))


def oracle_polarizer(v: JonesVector, pol: PartialPolarizer) -> JonesVector:
    """Partial polarizer by explicit projection onto pass and block axes."""
    pv = jones_column(pol.pass_axis)
    bv = jones_column(J * pol.pass_axis)
    pass_vec = np.array([pv.ex, pv.ey])
    block_vec = np.array([bv.ex, bv.ey])
    field = np.array([v.ex, v.ey])
    out = (pass_vec * np.vdot(pass_vec, field)
           + pol.mu * block_vec * np.vdot(block_vec, field))
    return JonesVector(complex(out[0]), complex(out[1]))
