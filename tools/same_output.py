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
  ones exit 3.

A run's output is its exit code, stdout and stderr.  One line per artifact,
`identical` or `different`; the exit status is 0 when all are identical.
Standard library only, and not part of the test suite: run it on a change
that must keep the program's output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import inputs  # noqa: E402  (stdlib only)

RAMP_SAMPLES = (2, 256, 4096)
SOLVE_RUNS = 2000
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


def _solve_argvs() -> list:
    argvs = []
    for k, case in enumerate(islice(inputs.solve_cases(1), SOLVE_RUNS)):
        argv = ["--degrees"] * (k % 4 == 0) + [
            "solve", "--q=" + inputs.quat_text(case.q), "--r=" + inputs.quat_text(case.r),
            "--phi", repr(case.phi)]
        argvs.append(argv + ["--branch", "1"] * (k % 10 == 0))
    return argvs


def _convert_argvs() -> list:
    return [["--degrees"] * degrees + ["convert", "--from", src, "--to", dst,
                                       "--input", CONVERT_INPUTS[src][degrees]]
            for src in FORMS for dst in FORMS for degrees in (0, 1)]


def _child() -> None:
    """Run the spec read from stdin with the `polquat` on the import path and
    print {"polquat": its file, "artifacts": {name: [digest per run]}}."""
    import polquat
    from polquat import cli

    def digest(argv, path=None) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()
        if path is not None:
            text += Path(path).read_bytes()
        return hashlib.sha256(text).hexdigest()

    spec = json.load(sys.stdin)
    artifacts = {name: [digest(argv, path)] for name, argv, path in spec["ramps"]}
    artifacts["check stdout"] = [digest(["check"])]
    artifacts["solve output"] = [digest(argv) for argv in spec["solves"]]
    artifacts["convert output"] = [digest(argv) for argv in spec["converts"]]
    json.dump({"polquat": polquat.__file__, "artifacts": artifacts}, sys.stdout)


def _run_tree(src: Path, solves: list, converts: list) -> dict:
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
            input=json.dumps({"ramps": ramps, "solves": solves, "converts": converts}),
            env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{src}: the run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["polquat"]).resolve().is_relative_to(src.resolve()):
        sys.exit(f"{src}: imported polquat from {result['polquat']}")
    return result["artifacts"]


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_output.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    solves, converts = _solve_argvs(), _convert_argvs()
    parent, change = (_run_tree(Path(src), solves, converts) for src in argv)
    different = 0
    for name, runs in parent.items():
        diff = sum(a != b for a, b in zip(runs, change[name]))
        different += diff > 0
        runs_note = f" ({diff} of {len(runs)} runs differ)" if len(runs) > 1 else ""
        print(f"{'different' if diff else 'identical'}  {name}{runs_note}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
