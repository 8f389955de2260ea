#!/usr/bin/env python3
"""Waveplates as unit quaternions: composition, rotation, precession.

A plate of retardance 2*eta with slow axis s (a Stokes unit vector) is the
exponential exp(s * eta), so its log `plate.q.log()` is s * eta.  On the
Poincare sphere it precesses the Stokes vector of the input by the
retardance about that axis.
"""

import math
import random

from polquat import (
    apply, compose, hwp, qwp, rotate_element, Quaternion,
    stokes, to_classical, waveplate_from_axis, from_ellipse, EllipseParams,
)


def axis_eta(plate):
    """The slow axis and half retardance of a plate, from its log eta * axis."""
    v = plate.q.log()
    eta = v.vector_norm()
    # the log's scalar is log|q|, about 1e-16 for a unit plate: the axis is pure
    return Quaternion(0.0, v.q1 / eta, v.q2 / eta, v.q3 / eta), eta


print("=== the standard plates ===")
print(f"  qwp(0)      {qwp(0.0).q}")
print(f"  hwp(0)      {hwp(0.0).q}")
print(f"  hwp(pi/4)   {hwp(math.pi / 4).q}")

print("\n=== two quarter plates make a half plate ===")
print(f"  qwp(0) * qwp(0) = {compose([qwp(0.0), qwp(0.0)]).q}")

print("\n=== axis + retardance form ===")
for psi in (0.0, 0.3, 1.0):
    axis, eta = axis_eta(qwp(psi))
    print(f"  qwp({psi:.1f}): axis {axis}, retardance {2.0 * eta:.6f}")

print("\n=== rotation preserves retardance, moves the axis ===")
plate = waveplate_from_axis(from_ellipse(EllipseParams(1, 0, 0.35, 0.2)), 0.8)
for psi in (0.0, 0.5, 1.0):
    axis, eta = axis_eta(rotate_element(plate, psi))
    print(f"  psi={psi:.1f}: axis ({axis.q1:+.4f}, {axis.q2:+.4f}, "
          f"{axis.q3:+.4f}), 2*eta={2.0 * eta:.6f}")

print("\n=== precession on the Poincare sphere ===")
signal = from_ellipse(EllipseParams(1.0, 0.0, 0.0, math.pi / 4))
s_in = to_classical(stokes(signal))
print(f"  input Stokes   ({s_in.S1:+.4f}, {s_in.S2:+.4f}, {s_in.S3:+.4f})")
plate = qwp(0.0)  # rotation by pi/2 about the S1 axis
out = apply(signal, plate)
s_out = to_classical(stokes(out))
print(f"  after qwp(0)   ({s_out.S1:+.4f}, {s_out.S2:+.4f}, {s_out.S3:+.4f})")
print("  the 45-degree linear state moves to the circular pole")

print("\n=== a stack acts like one plate ===")
rng = random.Random(5)
stack = [qwp(rng.uniform(-1, 1)) for _ in range(4)]
combined = compose(stack)
probe = from_ellipse(EllipseParams(1, 0.2, -0.1, 0.7))
step = probe
for p in stack:
    step = apply(step, p)
print(f"  sequential: {step}")
print(f"  composed:   {apply(probe, combined)}")
