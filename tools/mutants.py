"""Mutation harness: which one-line faults `polquat check` and tests/ catch.

    python3 tools/mutants.py

Each row of MUTANTS is (file, old, new, why): a fault made by replacing the
text `old`, which occurs exactly once in `file`, with `new`.  For each row
the script copies the tree into a fresh temporary directory, applies the
row there and runs `python -m polquat check` and `python -m pytest -q
tests` (without tests/test_mutants.py, which fails on every mutant) with
that copy's `src` on the import path and no bytecode written.  It first
runs the unmutated copy the same way and stops unless both pass.  It prints the kill table: per mutant the exit
code of `check`, the number of failing test cases and test functions, and
the failing test ids.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIFTER = "src/polquat/shifter.py"
SIGNAL = "src/polquat/signal.py"
COMPONENTS = "src/polquat/components.py"

MUTANTS = [
    (SHIFTER, "SINGULAR_TOL = 1e-10", "SINGULAR_TOL = 1e-7",
     "a looser singular threshold: the PR 6 defect"),
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
    (SIGNAL, "theta += _PI", "theta += 0.0",
     "to_ellipse drops its theta wrap into (-pi/2, pi/2]"),
    (SHIFTER, "NEAR_SINGULAR_TOL = 1e-4", "NEAR_SINGULAR_TOL = 1e-6",
     "fewer near-singular ramp rows are flagged"),
    (SIGNAL, "phi = _PI", "phi = -_PI", "to_ellipse keeps phi = -pi"),
    (SHIFTER, "JUMP_FLAG_STEP = math.pi / 4", "JUMP_FLAG_STEP = math.pi / 3",
     "fewer ramp steps are flagged as jumps"),
    (SHIFTER, "base = tuple(x / norm for x in base)", "base = tuple(base)",
     "_target_line skips renormalizing P0"),
    (SHIFTER, "return family.at(0.5 * (zeros[k] + zeros[k + 1]) + _HALF_PI)",
     "return family.at(0.5 * (zeros[k] + zeros[k + 1]))",
     "_best_family_point drops its + pi/2"),
    (SHIFTER, "if r <= -_HALF_PI:", "if r < -_HALF_PI:",
     "reduce_angle takes < for <=: -pi/2 is no longer mapped to pi/2"),
    (SHIFTER, "(_QUARTER_PI, -t_half)", "(_QUARTER_PI, t_half)",
     "branch 1 takes +t_half"),
    (COMPONENTS, "return (q * (1.0 + pol.mu) - i_q_s * (1.0 - pol.mu)) * 0.5",
     "return (q * (1.0 + pol.mu) + i_q_s * (1.0 - pol.mu)) * 0.5",
     "polarizer_apply flips the sign of its (1 - mu) term"),
    (SHIFTER,
     "a_half = 0.5 * math.atan2(p3, p1)\n    b_half = 0.5 * math.atan2(p2, p0)",
     "a_half = 0.5 * math.atan2(p2, p0)\n    b_half = 0.5 * math.atan2(p3, p1)",
     "_split swaps a_half and b_half"),
    (SHIFTER, "half - x + _QUARTER_PI", "half - x - _QUARTER_PI",
     "family A's psi_c takes - pi/4"),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _run(tree: Path) -> tuple:
    """(exit code of `check`, failing test ids) of the tree copy at `tree`;
    a pytest run that fails without naming a test reports its exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    check = subprocess.run([sys.executable, "-m", "polquat", "check"], cwd=tree, env=env,
                           capture_output=True, text=True, check=False)
    tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                            "no:cacheprovider", "--ignore=tests/test_mutants.py", "tests"],
                           cwd=tree, env=env, capture_output=True, text=True, check=False)
    failed = _FAILED.findall(tests.stdout)
    if tests.returncode != 0 and not failed:
        failed = [f"(pytest exit {tests.returncode})"]
    return check.returncode, failed


def _mutant_run(row) -> tuple:
    """`_run` of a fresh copy of the tree with `row` applied (None: unmutated)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        if row is not None:
            path, old, new, _ = row
            text = (tree / path).read_text()
            if text.count(old) != 1:
                sys.exit(f"{path}: {old!r} does not occur exactly once")
            (tree / path).write_text(text.replace(old, new))
        return _run(tree)


def main() -> int:
    code, failed = _mutant_run(None)
    if code != 0 or failed:
        print(f"the unmutated tree fails: check exit {code}, failing tests {failed}")
        return 1
    print("| # | mutant | `check` | `tests/` (cases; functions) | failing tests |")
    print("|---|---|---|---|---|")
    check_kills = test_kills = 0
    for n, row in enumerate(MUTANTS, 1):
        code, failed = _mutant_run(row)
        functions = sorted({test_id.split("[")[0] for test_id in failed})
        check_kills += code != 0
        test_kills += bool(failed)
        print(f"| {n} | {row[3]} | exit {code} | {len(failed)}; {len(functions)} | "
              f"{', '.join(failed) or 'survives'} |", flush=True)
    print(f"\n`check` kills {check_kills} of {len(MUTANTS)}, tests/ kills {test_kills}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
