"""Benchmark past trees with their own harness and write BENCH_<pr>.json.

    python3 tools/bench_history.py PR=COMMIT ...

Each PR=COMMIT names a commit (any git revision, or WORKTREE for the
checkout's tracked and untracked, not ignored, files as they are now).  Each
tree is extracted with `git archive` into a temporary directory, and its own
`benchmarks/run.py` runs there, against that tree's `src/`, for the ramp,
solve and cli workloads at seed SEED for SECONDS, REPEATS times.  The runs
alternate: each repeat runs every workload on every tree in turn, so a
drift in the host's speed falls on all trees alike.  Each run's last stdout
line, the JSON object {"correct", "attempted", "failed", "metrics"}, is kept
as printed: its timings are scaled by the tree's reference loop
(REFERENCE_S of its run.py), which the file records too.

BENCH_<pr>.json at the repository root holds the commit, the machine
(platform, Python, CPU count and model), the seed, seconds, repeat count and
reference-loop time, and per workload the list of run objects.  No file
under `benchmarks/` is changed.  Standard library only; not part of the test
suite.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ramp", "solve", "cli")
WORKTREE = "WORKTREE"
# one seed and run length for every file, so the files compare
SEED = 1
SECONDS = 10.0
REPEATS = 2


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def _extract(commit: str, dest: Path) -> str:
    """Write the tree of `commit` into `dest`; return the full commit id
    (for WORKTREE, that of the commit it is on)."""
    if commit == WORKTREE:
        for name in _git("ls-files", "-z", "--cached", "--others",
                         "--exclude-standard").decode().split("\0"):
            if name and (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                (dest / name).write_bytes((ROOT / name).read_bytes())
        return f"{WORKTREE} on {_git('rev-parse', 'HEAD').decode().strip()}"
    full = _git("rev-parse", "--verify", commit + "^{commit}").decode().strip()
    archive = subprocess.Popen(["git", "archive", full], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        sys.exit(f"git archive {commit} failed")
    return full


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "cpu_model": model}


def _reference_s(tree: Path) -> float | None:
    match = re.search(r"^REFERENCE_S = (\S+)", (tree / "benchmarks" / "run.py").read_text(),
                      re.MULTILINE)
    return float(match.group(1)) if match else None


def _run(tree: Path, workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS)],
                          cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def main(argv: list) -> int:
    if not argv or not all("=" in spec for spec in argv):
        print("usage: python3 tools/bench_history.py PR=COMMIT ...", file=sys.stderr)
        return 2
    machine = _machine()
    with tempfile.TemporaryDirectory() as tmp:
        records = {}
        for spec in argv:
            pr, _, commit = spec.partition("=")
            tree = Path(tmp) / f"pr{pr}"
            tree.mkdir()
            records[pr] = (tree, {
                "pr": int(pr), "commit": _extract(commit, tree), "machine": machine,
                "seed": SEED, "seconds": SECONDS, "repeats": REPEATS,
                "reference_s": _reference_s(tree),
                "workloads": {w: [] for w in WORKLOADS}})
        for repeat in range(REPEATS):
            for workload in WORKLOADS:
                for pr, (tree, record) in records.items():
                    result = _run(tree, workload)
                    record["workloads"][workload].append(result)
                    print(f"repeat {repeat + 1}, {workload}, PR {pr}: "
                          f"{json.dumps(result.get('metrics', result))}", flush=True)
    for pr, (_, record) in records.items():
        path = ROOT / f"BENCH_{pr}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
