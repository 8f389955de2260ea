"""Every function and method of src/polquat is called from an entry point, or
is listed in `_UNREACHED` with the reason it stays.

`tools/reach.py` traces the CLI on the argv table of tests/test_cli.py and
the four pinned 256-sample ramps (the identity and (1, i) rows reach the
singular-family code), then `check`, the demos and the README quick start,
and prints what no call reached.  A new function with no caller and no
reason fails here, and so does a reason whose function is now called or
gone.  The run is also the one that runs the demos and the quick start, each
with numpy unimportable and a temporary working directory: one that exits
nonzero, raises or prints a traceback fails here.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from test_cli import _ARGVS, _RAMP_SHA256

ROOT = Path(__file__).resolve().parent.parent

_UNREACHED = {
    "polquat.__dir__": "serves `dir(polquat)`",
    "polquat.jones.__getattr__": "serves the numpy basis images only to benchmarks/verify.py; "
                                 "goes once the benchmark owns them (ROADMAP item 1b)",
    "polquat.shifter.WaveplateAngles.as_tuple": "called only from benchmarks/; goes once "
                                                "they write tuple(a) (ROADMAP item 1b)",
    "polquat.quaternion._same_type_ne": "the record contract: `!=` agrees with `==`",
    "polquat.quaternion._no_tuple_operator": "the record contract: tuple ordering, "
                                             "concatenation and repetition raise TypeError",
    "polquat.quaternion.Quaternion.exp": "the abstract's log-exp relation; ROADMAP item 4 "
                                         "plans a check group for it",
    "polquat.quaternion.Quaternion.partial_conjugate": "the abstract's partial conjugation; "
                                                       "ROADMAP item 4 plans a check group",
    "polquat.quaternion.Quaternion.double_conjugate": "partial conjugation's two-axis form; "
                                                      "ROADMAP item 4 plans a check group",
}


def test_every_function_has_an_entry_point_or_a_reason(tmp_path):
    argvs = [param.values[0] for param in _ARGVS]
    argvs += [("ramp", "--q", q, "--r", r, "--samples", "256", "--out", str(tmp_path / f"{k}.csv"))
              for k, (q, r) in enumerate(_RAMP_SHA256)]
    # in `tmp_path`, where the table's ramps write their relative --out paths
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")], cwd=tmp_path,
                          input=json.dumps(argvs), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert printed == sorted(_UNREACHED), (
        f"no caller and no reason: {sorted(set(printed) - set(_UNREACHED))}, "
        f"a reason but a caller or no definition: {sorted(set(_UNREACHED) - set(printed))}")


def test_the_run_holds_the_demos_and_one_quick_start():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    names = [name for name, _ in reach._scripts()]
    assert len([name for name in names if not name.startswith("quick_start_")]) >= 4
    assert [name for name in names if name.startswith("quick_start_")] == ["quick_start_0.py"]
