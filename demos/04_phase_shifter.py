#!/usr/bin/env python3
"""The three-waveplate endless phase shifter, end to end.

Given input SOP, output SOP and a phase target, the closed form returns the
three plate orientations directly.  Sweeping the phase through 2*pi produces
the actuator trajectories; a pair of states with equal ellipticity takes the
trajectory through two singular configurations.  The ramp keeps its branch, so
each crossing shows as a pi/2 jump on that branch.

Writes ramp_typical.csv and ramp_singular.csv (the CSV of `polquat ramp`) next
to this script and, when matplotlib is importable, a PNG of the trajectories.
"""

import csv
import pathlib
import sys

from polquat import (
    Quaternion, cli, forward_transform, solve_angles, target_transform, to_ellipse,
)

HERE = pathlib.Path(__file__).resolve().parent

# the two worked state pairs: a typical one and one with matched ellipticity
Q_TYP = Quaternion(-8 / 9, 2 / 9, 1 / 3, 2 / 9)
R_TYP = Quaternion(2 / 7, -3 / 7, 0.0, -6 / 7)
Q_SNG = Quaternion(-5 / 6, 1 / 6, 1 / 2, 1 / 6)
R_SNG = Quaternion(1 / 3, -2 / 3, 0.0, -2 / 3)

print("=== one solve, both branches ===")
p = target_transform(Q_TYP, R_TYP, 1.0)
sol = solve_angles(p)
for label, angles in zip(("branch 1", "branch 2"), sol.branches):
    resid = (forward_transform(angles) - p).norm()
    print(f"  {label}: psi = ({angles.psi_a:+.6f}, {angles.psi_b:+.6f}, "
          f"{angles.psi_c:+.6f}), residual {resid:.2e}")

print("\n=== ellipticities decide whether the ramp crosses a singularity ===")
for name, q, r in (("typical", Q_TYP, R_TYP), ("matched", Q_SNG, R_SNG)):
    print(f"  {name}: eps_in={to_ellipse(q).epsilon:+.6f}  "
          f"eps_out={to_ellipse(r).epsilon:+.6f}")

N = 256


def write_ramp(name, q, r):
    # the CSV is the one `polquat ramp` writes; the printout and plot read it back
    path = HERE / name
    code = cli.main(["ramp", "--q", ",".join(map(repr, q)), "--r", ",".join(map(repr, r)),
                     "--samples", str(N), "--out", str(path)])
    if code:
        sys.exit(code)
    with open(path, newline="") as fh:
        rows = [{key: text if key == "branch" else float(text) for key, text in row.items()}
                for row in csv.DictReader(fh)]
    crossings = sum(row["branch"] == "singular" for row in rows)
    worst = max(row["residual"] for row in rows)
    print(f"  {name}: {crossings} singular crossings, worst residual {worst:.2e}")
    return rows


print("\n=== full 2*pi ramps ===")
typ = write_ramp("ramp_typical.csv", Q_TYP, R_TYP)
sng = write_ramp("ramp_singular.csv", Q_SNG, R_SNG)

print("\noutput state along the typical ramp (must be constant SOP, linear phase):")
for k in (0, N // 4, N // 2, 3 * N // 4, N - 1):
    row = typ[k]
    print(f"  phi={row['phi']:6.3f}  out phase={row['out_phase']:+.4f}  "
          f"theta={row['out_theta']:+.6f}  eps={row['out_epsilon']:+.6f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fig, axes = plt.subplots(2, 1, figsize=(7, 7), sharex=True)
    for ax, rows, title in ((axes[0], typ, "typical states"),
                            (axes[1], sng, "matched ellipticity (two singular crossings)")):
        for name in ("psi_a", "psi_b", "psi_c"):
            ax.plot([row["phi"] for row in rows], [row[name] for row in rows],
                    ".", markersize=2, label=name)
        ax.set_ylabel("plate angle (rad)")
        ax.set_title(title)
        ax.legend(loc="upper right")
    axes[1].set_xlabel("commanded phase (rad)")
    fig.tight_layout()
    out_png = HERE / "phase_shifter_ramps.png"
    fig.savefig(out_png, dpi=120)
    print(f"\nwrote {out_png}")
