"""Compare what two polquat source trees print and write, byte for byte.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories (the ones holding
`polquat/`) of the two trees.  Each tree runs in its own interpreter with its
`src` first on the import path, every command in process through
`polquat.cli.main`.  The artifacts compared:

* the ramp CSVs of FIG5, FIG7, the identity (1, 1), (1, i) and three
  `random.Random(2024)` unit pairs, each at 2, 256 and 4096 samples;
* `check` stdout;
* `solve` output for the first 2000 `benchmarks/inputs.solve_cases(1)`
  targets (generic, exactly singular and near-singular), every fourth with
  `--degrees`, every tenth with `--branch 1` (exit 2 on a singular target);
* `convert` output for every (--from, --to) pair of the four forms on two
  inputs each, the second with `--degrees`: 32 runs, the six Stokes-to-other
  ones exit 3;
* the records themselves, which a wrong type or field order changes even
  where the text printed from them stays the same: the `repr` of every
  `shifter.ramp_trajectory` point of FIG5, FIG7 and the identity at 256
  samples (the phases `polquat ramp` uses) and of the `to_ellipse` of its
  output q * forward_transform(angles); of `solve_angles(
  target_transform(q, r, phi))` and its `family_samples` for each of the
  solve targets above, and of q - r, q + r, q * r, q * 2.0, -q,
  q.conjugate() and apply_phase(r, phi) for the same (q, r, phi); and of
  `to_ellipse` of the ramp signals and of ELLIPSE_EDGES scaled to huge and
  denormal size;
* the `repr` of `polarizer_apply(q * scale, PartialPolarizer(r, mu))` for
  each solve target's (q, r), each mu of POLARIZER_MUS and each scale of
  POLARIZER_SCALES, at which no intermediate underflows or overflows;
* the `repr` of a `SingularFamily`'s `at(x)` and of the `family_samples`
  of its `ShifterSolution`, for both singular kinds and FAMILY_HALVES
  `random.Random(2024)` (a_half, b_half) pairs, which include +-0.0, at x
  over the family `parameters`, +-0.0, +-pi/2 and FAMILY_XS random values:
  the solve targets reach only about 140 families.  A family holds the one
  half angle its kind uses (a_half for SINGULAR_A, b_half for SINGULAR_B);
* the `repr` of `partial_conjugate` and `double_conjugate` about every axis
  and of `normalized()`, for each solve target's q and r, and of `qwp(psi)`
  and `hwp(psi)` on a grid of `PLATE_ANGLES` orientations over [-pi, pi];
* the `classify_orthogonality` answer (its `.value`) for each solve target's
  (q, r), (q, e^(i phi) j q) and (q, i q);
* the public surface: for each public name of `dir(polquat)` right after
  `import polquat`, the name, the type name of its value and the value's
  `__module__` (a submodule's own name), so a package that drops or
  misroutes a name differs;
* each demo script and the README quick start of the tree (`src/..`), as
  `tools/reach.py` lists them, each run in its own interpreter: copied into
  a temporary directory, which is also the working directory, with numpy
  unimportable.  The directory's path reads the same in both trees' output.

A run's output is its exit code, stdout and stderr.  One line per artifact,
`identical` or `different`; an artifact of several runs adds how many differ
and names the first that does: its argv for `solve` and `convert`, its index
(the row of a ramp, the target of `solve_angles`) for the records.  The exit
status is 0 when all are identical.
Standard library only, and not part of the test suite: run it on a change
that must keep the program's output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import types
from itertools import islice, zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import inputs  # noqa: E402  (stdlib only)
import reach  # noqa: E402  (stdlib only)

RAMP_SAMPLES = (2, 256, 4096)
RECORD_RAMP_SAMPLES = 256
# huge, unit, tiny and denormal: the scales of the `to_ellipse` record artifact
ELLIPSE_SCALES = (2.0 ** 1000, 1e300, 1.0, 2.0 ** -1000, 1e-310)
# a signal whose orientation 0.5 * atan2(s3, s1) is exactly -pi/2 before its
# wrap to pi/2, and the left circular state, whose orientation is set to 0
ELLIPSE_EDGES = ([-0.0, 0.0, 1.0, -0.0], [1.0, 0.0, 0.0, 1.0])
POLARIZER_MUS = (0.0, 0.5, 1.0)
POLARIZER_SCALES = (1e-300, 1.0, 1e300)
SOLVE_RUNS = 2000
PLATE_ANGLES = 4001
FAMILY_HALVES = 200
FAMILY_XS = 40
FORMS = ("quat", "jones", "ellipse", "stokes")
CONVERT_INPUTS = {
    "quat": ("[0.6,0.2,-0.5,0.3]", "[0.7071067811865476,0,0,0.7071067811865476]"),
    "jones": ('{"ex":[0.6,0.2],"ey":[-0.5,0.3]}', '{"ex":[1,0],"ey":[0,1]}'),
    "ellipse": ('{"r":1.5,"phi":0.3,"epsilon":-0.2,"theta":1.1}',
                '{"r":1,"phi":-3.0,"epsilon":0.7853981633974483,"theta":0}'),
    "stokes": ('{"s1":0.3,"s2":-0.4,"s3":0.5}', '{"s1":1,"s2":0,"s3":0}'),
}


def _ramp_pairs() -> list:
    rng = random.Random(2024)
    pairs = [("fig5", *inputs.FIG5), ("fig7", *inputs.FIG7),
             ("identity", (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
             ("one-i", (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))]
    pairs += [(f"random{k}", inputs.rand_unit(rng), inputs.rand_unit(rng)) for k in range(3)]
    return [(name, inputs.quat_text(q), inputs.quat_text(r)) for name, q, r in pairs]


def _solve_cases() -> list:
    return list(islice(inputs.solve_cases(1), SOLVE_RUNS))


def _solve_argvs() -> list:
    argvs = []
    for k, case in enumerate(_solve_cases()):
        argv = ["--degrees"] * (k % 4 == 0) + [
            "solve", "--q=" + inputs.quat_text(case.q), "--r=" + inputs.quat_text(case.r),
            "--phi", repr(case.phi)]
        argvs.append(argv + ["--branch", "1"] * (k % 10 == 0))
    return argvs


def _convert_argvs() -> list:
    return [["--degrees"] * degrees + ["convert", "--from", src, "--to", dst,
                                       "--input", CONVERT_INPUTS[src][degrees]]
            for src in FORMS for dst in FORMS for degrees in (0, 1)]


# a script runs with numpy unimportable, as tools/reach.py runs it
_WITHOUT_NUMPY = """
import runpy
import sys
sys.modules["numpy"] = None   # any `import numpy` now raises ImportError
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def _run_scripts(src: Path) -> dict:
    """{artifact name: [digest]} of each demo and README quick start of the
    tree whose `src` directory is `src`, each run in a fresh temporary
    directory with `src` first on the import path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    digests = {}
    for file_name, text in reach._scripts(src.parent):
        with tempfile.TemporaryDirectory() as tmp:
            script = Path(tmp) / file_name
            script.write_text(text)
            proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(script)],
                                  cwd=tmp, env=env, capture_output=True, text=True,
                                  check=False)
        out = f"{proc.returncode}\n{proc.stdout}\n{proc.stderr}\n".replace(tmp, "<tmp>")
        block = re.fullmatch(r"quick_start_(\d+)\.py", file_name)
        name = f"README quick start {block[1]}" if block else f"demo {file_name}"
        digests[name] = [hashlib.sha256(out.encode()).hexdigest()]
    return digests


def _child() -> None:
    """Run the spec read from stdin with the `polquat` on the import path and
    print {"polquat": its file, "artifacts": {name: [digest per run]}}."""
    import polquat

    # taken before any other import, so the names are those `import polquat`
    # alone makes public
    surface = []
    for name in dir(polquat):
        if not name.startswith("_"):
            value = getattr(polquat, name)
            module = value.__name__ if isinstance(value, types.ModuleType) else value.__module__
            surface.append((name, type(value).__name__, module))
    from polquat import (Axis, Classification, I, PartialPolarizer, Quaternion, cli, hwp,
                         polarizer_apply, qwp, shifter, signal)

    def digest(argv, path=None) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()
        if path is not None:
            text += Path(path).read_bytes()
        return hashlib.sha256(text).hexdigest()

    def digest_repr(record) -> str:
        return hashlib.sha256(repr(record).encode()).hexdigest()

    spec = json.load(sys.stdin)
    artifacts = {name: [digest(argv, path)] for name, argv, path in spec["ramps"]}
    artifacts["public surface"] = list(map(digest_repr, surface))
    n = RECORD_RAMP_SAMPLES
    phis = [2.0 * math.pi * k / (n - 1) for k in range(n)]
    for name, q, r in spec["record_ramps"]:
        q = Quaternion(*q)
        points = list(shifter.ramp_trajectory(q, Quaternion(*r), phis))
        artifacts[f"ramp_trajectory records {name} {n}"] = list(map(digest_repr, points))
        artifacts[f"to_ellipse records {name} {n}"] = [
            digest_repr(signal.to_ellipse(q * shifter.forward_transform(pt.angles)))
            for pt in points]
    solves = [(Quaternion(*q), Quaternion(*r), phi) for q, r, phi in spec["record_solves"]]
    solutions = (shifter.solve_angles(shifter.target_transform(q, r, phi))
                 for q, r, phi in solves)
    artifacts["solve_angles records"] = [digest_repr((sol, sol.family_samples))
                                         for sol in solutions]
    xs = [*shifter.SingularFamily.parameters, *spec["family_xs"]]
    families = [shifter.SingularFamily(kind, half)
                for a_half, b_half in spec["family_halves"]
                for kind, half in ((Classification.SINGULAR_A, a_half),
                                   (Classification.SINGULAR_B, b_half))]
    artifacts["singular family members"] = [
        digest_repr((*map(family.at, xs), shifter.ShifterSolution(None, family).family_samples))
        for family in families]
    artifacts["arithmetic records"] = [
        digest_repr((q - r, q + r, q * r, q * 2.0, -q, q.conjugate(),
                     signal.apply_phase(r, phi)))
        for q, r, phi in solves]
    psis = [math.pi * (2.0 * k / (PLATE_ANGLES - 1) - 1.0) for k in range(PLATE_ANGLES)]
    artifacts["conjugation, normalized and plate records"] = [
        digest_repr((*map(x.partial_conjugate, Axis), *map(x.double_conjugate, Axis),
                     x.normalized()))
        for q, r, _ in solves for x in (q, r)] + [
        digest_repr((qwp(psi), hwp(psi))) for psi in psis]
    artifacts["classification"] = [
        digest_repr(tuple(signal.classify_orthogonality(q, other).value for other in (
            r, signal.apply_phase(signal.orthogonal_sop(q), phi), I * q)))
        for q, r, phi in solves]
    artifacts["to_ellipse records scaled"] = [
        digest_repr(signal.to_ellipse(Quaternion(*q) * scale))
        for q in spec["ellipse_signals"] for scale in ELLIPSE_SCALES]
    artifacts["polarizer records"] = [
        digest_repr(polarizer_apply(q * scale, PartialPolarizer(r, mu)))
        for q, r, _ in solves for mu in POLARIZER_MUS for scale in POLARIZER_SCALES]
    artifacts["check stdout"] = [digest(["check"])]
    artifacts["solve output"] = [digest(argv) for argv in spec["solves"]]
    artifacts["convert output"] = [digest(argv) for argv in spec["converts"]]
    json.dump({"polquat": polquat.__file__, "artifacts": artifacts}, sys.stdout)


def _record_spec() -> dict:
    """The inputs of the record artifacts, as JSON-ready float lists."""
    one = (1.0, 0.0, 0.0, 0.0)
    rng = random.Random(2024)
    halves = [(0.0, -0.0), (-0.0, 0.0)] + [
        (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        for _ in range(FAMILY_HALVES - 2)]
    xs = [0.0, -0.0, math.pi / 2, -math.pi / 2] + [
        rng.uniform(-2.0 * math.pi, 2.0 * math.pi) for _ in range(FAMILY_XS)]
    return {"family_halves": halves, "family_xs": xs,
            "record_ramps": [("fig5", *inputs.FIG5), ("fig7", *inputs.FIG7),
                             ("identity", one, one)],
            "record_solves": [(case.q, case.r, case.phi) for case in _solve_cases()],
            "ellipse_signals": [[float(x) for x in text.split(",")]
                                for _, q, r in _ramp_pairs() for text in (q, r)]
            + list(ELLIPSE_EDGES)}


def _run_tree(src: Path, spec: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        ramps = []
        for name, q, r in _ramp_pairs():
            for samples in RAMP_SAMPLES:
                path = os.path.join(tmp, f"{name}-{samples}.csv")
                ramps.append((f"ramp {name} {samples}", ["ramp", "--q=" + q, "--r=" + r,
                              "--samples", str(samples), "--out", path], path))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tools")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import same_output; same_output._child()"],
            input=json.dumps({"ramps": ramps, **spec}),
            env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{src}: the run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["polquat"]).resolve().is_relative_to(src):
        sys.exit(f"{src}: imported polquat from {result['polquat']}")
    return {**result["artifacts"], **_run_scripts(src)}


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_output.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    spec = {"solves": _solve_argvs(), "converts": _convert_argvs(), **_record_spec()}
    parent, change = (_run_tree(Path(src).resolve(), spec) for src in argv)
    argvs = {"solve output": spec["solves"], "convert output": spec["converts"]}
    different = 0
    for name in {**parent, **change}:   # a name only one tree has differs
        runs = list(zip_longest(parent.get(name, ()), change.get(name, ())))
        diff = [k for k, (a, b) in enumerate(runs) if a != b]
        different += bool(diff)
        runs_note = ""
        if len(runs) > 1:
            runs_note = f" ({len(diff)} of {len(runs)} runs differ"
            if diff:
                first = shlex.join(argvs[name][diff[0]]) if name in argvs else diff[0]
                runs_note += f"; first: {first}"
            runs_note += ")"
        print(f"{'different' if diff else 'identical'}  {name}{runs_note}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
