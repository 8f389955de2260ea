"""Mutation harness: which one-line faults `polquat check` and tests/ catch.

    python3 tools/mutants.py

Each row of MUTANTS is (file, old, new, why): a fault made by replacing the
text `old`, which occurs exactly once in `file`, with `new`.  The script
copies the tree once, before the table, so an edit made while it runs
reaches no row.  For each row it copies that snapshot into a fresh
temporary directory, applies the row there and runs `python -m polquat
check` and `python -m pytest -q tests` (without tests/test_mutants.py,
which fails on every mutant) with that copy's `src` on the import path and
no bytecode written.  It first
runs an unmutated copy the same way and stops unless both pass.  Then the
rows run side by side, one per CPU, and it prints the kill table in row
order: per mutant the exit code of `check`, the number of failing test
cases and test functions, and the failing test ids.  After the table it
prints each mutant's unique killer (the one test function that fails on it,
if only one does) and the test functions that fail on no mutant.

Standard library only, and not part of the test suite (a mutant costs one
full run of tests/); tests/test_mutants.py checks that every row still
applies to the tree.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIFTER = "src/polquat/shifter.py"
SIGNAL = "src/polquat/signal.py"
COMPONENTS = "src/polquat/components.py"
QUATERNION = "src/polquat/quaternion.py"
CLI = "src/polquat/cli.py"
JONES = "src/polquat/jones.py"

MUTANTS = [
    (SHIFTER, "SINGULAR_TOL = 8 * 2.0 ** -52", "SINGULAR_TOL = 1e-7",
     "a looser singular threshold: targets up to 1e-7 from the singular set get families"),
    (SIGNAL, "_CIRCULAR_TOL = 1e-12", "_CIRCULAR_TOL = 1e-9",
     "a looser circular-state threshold: the PR 8 defect"),
    (SHIFTER,
     "choice = family.at(0.0) if prev is None else _best_family_point(family, prev)",
     "choice = family.at(0.0)",
     "family rows take the member at x = 0, not the one nearest the previous row"),
    (SHIFTER,
     "branch = 1 if triple_distance(first, prev) <= triple_distance(second, prev) else 2",
     "branch = 1",
     "the row after a family keeps branch 1 instead of the nearer branch"),
    (SHIFTER, "(-cg * math.cos(diff),", "(-cg * math.cos(diff) + 1e-11,",
     "forward_transform adds 1e-11 to q0"),
    (SIGNAL, "theta = reduce_angle(0.5 * math.atan2(s3, s1))",
     "theta = 0.5 * math.atan2(s3, s1)",
     "to_ellipse drops its theta wrap into (-pi/2, pi/2]"),
    (SHIFTER, "NEAR_SINGULAR_TOL = 1e-4", "NEAR_SINGULAR_TOL = 1e-6",
     "fewer near-singular ramp rows are flagged"),
    (SIGNAL, "phi = _PI", "phi = -_PI", "to_ellipse keeps phi = -pi"),
    (SHIFTER, "JUMP_FLAG_STEP = math.pi / 4", "JUMP_FLAG_STEP = math.pi / 3",
     "fewer ramp steps are flagged as jumps"),
    (QUATERNION, "return _new(Quaternion, (x / norm for x in q))", "return _new(Quaternion, q)",
     "_renormalized skips its division: near-unit plate products stay off unit"),
    (SHIFTER, "return family.at(0.5 * (zeros[k] + zeros[k + 1]) + _HALF_PI)",
     "return family.at(0.5 * (zeros[k] + zeros[k + 1]))",
     "_best_family_point drops its + pi/2"),
    (SIGNAL, "if r <= -_HALF_PI:", "if r < -_HALF_PI:",
     "reduce_angle takes < for <=: -pi/2 is no longer mapped to pi/2"),
    (SHIFTER, "(_QUARTER_PI, -t_half)", "(_QUARTER_PI, t_half)",
     "branch 1 takes +t_half"),
    (COMPONENTS, "u * ((1.0 + pol.mu) * 0.5) - I * u * s * ((1.0 - pol.mu) * 0.5)",
     "u * ((1.0 + pol.mu) * 0.5) + I * u * s * ((1.0 - pol.mu) * 0.5)",
     "polarizer_apply flips the sign of its (1 - mu) term"),
    (SHIFTER,
     "a_half = 0.5 * math.atan2(p3, p1)\n    b_half = 0.5 * math.atan2(p2, p0)",
     "a_half = 0.5 * math.atan2(p2, p0)\n    b_half = 0.5 * math.atan2(p3, p1)",
     "_solve swaps a_half and b_half"),
    (SHIFTER, "half - x + _QUARTER_PI", "half - x - _QUARTER_PI",
     "family A's psi_c takes - pi/4"),
    (QUATERNION, "p0 * q1 + q0 * p1 + (p2 * q3 - p3 * q2)",
     "p0 * q1 + q0 * p1 + (p3 * q2 - p2 * q3)",
     "the product's i component flips the sign of its cross term"),
    (QUATERNION, "return Quaternion(log_n, math.pi, 0.0, 0.0)",
     "return Quaternion(log_n, 0.0, 0.0, math.pi)",
     "log of a negative real takes the k axis, not the i axis"),
    (QUATERNION, "return self.double_conjugate(axis).conjugate()",
     "return self.double_conjugate(axis)",
     "partial_conjugate returns the double conjugate"),
    (QUATERNION, "math.ldexp(m0 / n, -e)", "m0 / n",
     "the quotient's scalar part skips its 2^-e rescale"),
    (SIGNAL, "2.0 * (q1 * q2 - q0 * q3)", "2.0 * (q1 * q2 + q0 * q3)",
     "stokes s2 flips the sign of its q0 q3 term"),
    (SIGNAL, "if z0 and z1:", "if z1:",
     "classify_orthogonality reads m1 = 0 alone as an orthogonal SOP"),
    (COMPONENTS, "precess(plate.q, J, psi)", "precess(plate.q, J, -psi)",
     "rotate_element turns the plate the wrong way"),
    (COMPONENTS, "slow.conjugate() * phase * slow", "slow * phase * slow.conjugate()",
     "waveplate_from_axis conjugates the slow axis on the wrong side"),
    (CLI, "if not isinstance(value, float):", "if not isinstance(value, (int, float)):",
     "a JSON boolean is read as a number"),
    (CLI, "return q.normalized()", "return q",
     "an accepted near-unit --q or --r is used as given, not as its unit state"),
    (CLI, "        return 3", "        return 2",
     "an unrecoverable conversion exits 2, not 3"),
    (JONES, "complex(-q.q2, q.q3)", "complex(q.q2, q.q3)",
     "the oracle's M(q) takes +q2 in its top-right entry"),
    (QUATERNION, "math.ldexp(u2, -e)", "math.ldexp(u2, e)",
     "_prescaled scales q2 by 2^e instead of 2^-e"),
    (QUATERNION, "if math.isfinite(sum(q)):", "if math.isfinite(sum(q[1:])):",
     "the finite fast path sums q1..q3 only, so a non-finite q0 passes"),
    (QUATERNION, "if abs(v.q0) > UNIT_TOL or not v.is_unit():", "if not v.is_unit():",
     "precess accepts a unit axis with a scalar part"),
    (QUATERNION, 'raise ValueError("division by zero quaternion")', "pass",
     "division by zero falls through to normalized()'s ValueError"),
    (SIGNAL, 'raise ValueError("cannot classify the zero signal")', "pass",
     "classify_orthogonality of a zero signal falls through to normalized()'s ValueError"),
    (CLI, 'print(f"error: {exc}", file=sys.stderr)\n        return 4', "raise",
     "main lets an OSError escape as a traceback instead of exit 4"),
    *((CLI, f"{column} + 0.0", f"{column} - 0.0",
       f"the ramp CSV prints a negative zero in {column} as -0")
      for column in ("psi_a", "psi_b", "psi_c", "out_epsilon", "out_theta")),
    (SIGNAL, "-_PI < phi", "-_PI <= phi", "EllipseParams accepts phi = -pi"),
    (SIGNAL, "0.0 <= r", "0.0 < r", "EllipseParams rejects r = 0"),
    (SIGNAL, "-_HALF_PI < theta", "-_HALF_PI <= theta", "EllipseParams accepts theta = -pi/2"),
    (SHIFTER, "0.5 * atan2(p3, p1), 0.5 * atan2(p2, p0)",
     "0.5 * atan2(p2, p0), 0.5 * atan2(p3, p1)", "the fused ramp row swaps a_half and b_half"),
    (SHIFTER, "abs(math.remainder(a1 - b1, _PI))", "abs(a1 - b1)",
     "a step of psi_b drops its modulo-pi reduction"),
    (SHIFTER, "b + _PI if b <= -_HALF_PI else b", "b + _PI if b < -_HALF_PI else b",
     "_branch's psi_b takes < for <=: -pi/2 is no longer mapped to pi/2"),
    (SIGNAL, "if 0.5 <= max(", "if 0.0 <= max(",
     "to_ellipse's unit-scale path takes tiny signals too, whose squares underflow"),
    (SIGNAL, "s2 = 2.0 * (u1 * u2 - u0 * u3)", "s2 = 2.0 * (u1 * u2 + u0 * u3)",
     "to_ellipse's written-out s2 flips the sign of its u0 u3 term"),
    (QUATERNION, "a0 * b2 + b0 * a2 + (a3 * b1 - a1 * b3)",
     "a0 * b2 + b0 * a2 + (a1 * b3 - a3 * b1)",
     "the written-out quaternion product flips the sign of its j cross term"),
    (QUATERNION, "not abs(math.hypot(q0, q1, q2, q3) - 1.0) <= UNIT_TOL",
     "not math.hypot(q0, q1, q2, q3) - 1.0 <= UNIT_TOL",
     "_require_unit's written-out test drops its abs: a short signal passes as unit"),
    (SHIFTER, "(half + x + _QUARTER_PI, _PI)) <= -_HALF_PI",
     "(half + x + _QUARTER_PI, _PI)) < -_HALF_PI",
     "family A's written-out psi_a takes < for <=: -pi/2 is no longer mapped to pi/2"),
    (SHIFTER, "(s + half + _QUARTER_PI, _PI)) <= -_HALF_PI",
     "(s + half + _QUARTER_PI, _PI)) < -_HALF_PI",
     "family B's written-out psi_c takes < for <=: -pi/2 is no longer mapped to pi/2"),
    (SIGNAL, "if not math.isfinite(phi):", "if math.isnan(phi):",
     "apply_phase's fast path lets an infinite phase through"),
    (SIGNAL, "if not math.isfinite(sum(q)):", "if not math.isfinite(sum(q[:2])):",
     "apply_phase's fast path sums q0 and q1 only, so a non-finite q2 passes"),
    (SIGNAL, "if not math.isfinite(sum(out)):", "if math.isnan(sum(out)):",
     "apply_phase's result check lets a component that overflows to inf through"),
    (SHIFTER, "_product(conj, (-r1, r0, -r3, r2))", "_product(conj, (r1, -r0, r3, -r2))",
     "_target_line turns r the wrong way: -i r, not i r"),
    (SHIFTER,
     "return tuple([x / norm for x in base]), tuple([x / norm for x in turned])",
     "return base, turned",
     "_target_line skips the shared division: near-unit targets stay off unit"),
    (SHIFTER, "(c * a0 + n * b0, c * a1 + n * b1,", "(c * a0 + n * b0, c * a1 - n * b1,",
     "target_transform flips the sign of its sin(phi) term in p1"),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
# a -rfE summary line: the test id, which may hold spaces, then " - " and
# the reason, or the end of the line
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)
_PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py",
           "tests"]


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def _function(test_id: str) -> str:
    """The test function of a test id: the id without its parameters."""
    return test_id.split("[")[0]


def _run(tree: Path) -> tuple:
    """(exit code of `check`, failing test ids) of the tree copy at `tree`;
    a pytest run that fails without naming a test reports its exit code."""
    check = subprocess.run([sys.executable, "-m", "polquat", "check"], cwd=tree,
                           env=_env(tree), capture_output=True, text=True, check=False)
    tests = subprocess.run([sys.executable, *_PYTEST, "-rfE"], cwd=tree, env=_env(tree),
                           capture_output=True, text=True, check=False)
    failed = _FAILED.findall(tests.stdout)
    if tests.returncode != 0 and not failed:
        failed = [f"(pytest exit {tests.returncode})"]
    return check.returncode, failed


def _mutant_run(snapshot: Path, row) -> tuple:
    """`_run` of a fresh copy of the tree snapshot with `row` applied (None:
    unmutated)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(snapshot, tree)
        if row is not None:
            path, old, new, _ = row
            text = (tree / path).read_text()
            if text.count(old) != 1:
                sys.exit(f"{path}: {old!r} does not occur exactly once")
            (tree / path).write_text(text.replace(old, new))
        return _run(tree)


def _test_functions(snapshot: Path) -> list:
    """The test functions the kill table's pytest run collects, in file order."""
    out = subprocess.run([sys.executable, *_PYTEST, "--collect-only"], cwd=snapshot,
                         env=_env(snapshot), capture_output=True, text=True,
                         check=True).stdout
    return list(dict.fromkeys(_function(line) for line in out.splitlines() if "::" in line))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "tree"
        shutil.copytree(ROOT, snapshot, ignore=_IGNORE)
        return _table(snapshot)


def _table(snapshot: Path) -> int:
    """Run and print the kill table for the tree snapshot at `snapshot`."""
    code, failed = _mutant_run(snapshot, None)
    if code != 0 or failed:
        print(f"the unmutated tree fails: check exit {code}, failing tests {failed}")
        return 1
    print("| # | mutant | `check` | `tests/` (cases; functions) | failing tests |")
    print("|---|---|---|---|---|")
    check_kills = test_kills = 0
    killers = []
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        runs = zip(MUTANTS, pool.map(partial(_mutant_run, snapshot), MUTANTS))
        for n, (row, (code, failed)) in enumerate(runs, 1):
            killers.append(sorted(set(map(_function, failed))))
            check_kills += code != 0
            test_kills += bool(failed)
            print(f"| {n} | {row[3]} | exit {code} | {len(failed)}; {len(killers[-1])} | "
                  f"{', '.join(failed) or 'survives'} |", flush=True)
    print(f"\n`check` kills {check_kills} of {len(MUTANTS)}, tests/ kills {test_kills}.")
    print("\nUnique killers, the one test function that fails on a mutant:\n")
    for n, functions in enumerate(killers, 1):
        print(f"- {n}: " + (functions[0] if len(functions) == 1
                             else f"none ({len(functions)} functions fail)"))
    killing = set().union(*killers)
    idle = [name for name in _test_functions(snapshot) if name not in killing]
    print(f"\nTest functions that kill no mutant ({len(idle)}):\n")
    for name in idle:
        print(f"- {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
