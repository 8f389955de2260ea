#!/usr/bin/env python3
"""Tour of the four equivalent signal descriptions.

A fully polarized optical field is one quaternion q = Ex + Ey*j.  This script
walks the classic states through the quaternion, Jones, Stokes and ellipse
forms and shows they all agree.
"""

import math

from polquat import (
    ONE, I, J, K,
    from_ellipse, from_jones, stokes, to_classical, to_ellipse, to_jones,
    apply_phase, orthogonal_sop, classify_orthogonality,
)

STATES = [
    ("horizontal, zero phase", ONE),
    ("horizontal, +90deg phase", I),
    ("vertical, zero phase", J),
    ("vertical, +90deg phase", K),
    ("linear at 45deg", ONE + J),
    ("left circular", ONE + K),
    ("right circular", ONE - K),
]

print("=== signal dictionary ===")
for label, q in STATES:
    v = to_jones(q)
    s = to_classical(stokes(q))
    e = to_ellipse(q)
    print(f"\n{label}")
    print(f"  quaternion   {q}")
    print(f"  Jones        Ex={v.ex:+.3f}  Ey={v.ey:+.3f}")
    print(f"  Stokes       S1={s.S1:+.3f}  S2={s.S2:+.3f}  S3={s.S3:+.3f}")
    print(f"  ellipse      R={e.r:.4f}  phi={e.phi:+.4f}  "
          f"eps={e.epsilon:+.4f}  theta={e.theta:+.4f}")

print("\n=== phase shifts are left multiplications ===")
q = ONE
for phi in (0.0, math.pi / 4, math.pi / 2, math.pi):
    print(f"  e^(i {phi:+.4f}) * 1 = {apply_phase(q, phi)}")

print("\n=== building a state from its ellipse ===")
e_in = dict(r=1.0, phi=0.3, epsilon=-0.2, theta=0.9)
from polquat import EllipseParams
q = from_ellipse(EllipseParams(**e_in))
print(f"  parameters in  {e_in}")
print(f"  quaternion     {q}")
back = to_ellipse(q)
print(f"  parameters out r={back.r:.12f} phi={back.phi:.12f} "
      f"eps={back.epsilon:.12f} theta={back.theta:.12f}")

print("\n=== orthogonality classes from p * conj(q) ===")
base = from_jones(to_jones(ONE + K))
pairs = [
    ("same state, scaled+phased", apply_phase(base, 1.1) * 2.5),
    ("orthogonal SOP", apply_phase(orthogonal_sop(base), 0.4)),
    ("same SOP, quadrature phase", I * base),
    ("unrelated", base + J),
]
for label, other in pairs:
    print(f"  {label:28s} -> {classify_orthogonality(other, base).value}")
