"""polquat benchmark: `ramp`, `solve` and `cli` workloads, checked against an oracle.

    python3 benchmarks/run.py --workload {ramp,solve,cli} --seed N --seconds S --trace {0,1}

Runs from any directory; the program is imported from the `src/` tree next
to this directory and never from an installed copy.  All load comes from
this one process, one operation at a time (a closed loop with one client).

* `ramp`: in-process `polquat.cli.main(["ramp", ..., "--samples", "4096",
  "--out", CSV])`, cycling through FIG5, FIG7 and a seeded random (q, r).
* `solve`: in-process target_transform -> solve_angles -> residual of every
  returned triple, on fresh seeded targets: 90% generic, 5% exactly singular,
  5% near-singular.  Near-singular targets the program solves as exactly
  singular are counted as known misses (`near_miss_share`), not as failures.
* `cli`: one `python -m polquat` subprocess at a time: `ramp --samples 256`
  (FIG5), `solve`, `check`.

Every output is re-checked by `verify` (Jones-matrix oracle, strict JSON,
CSV shape).  With --trace 0 the run measures for S seconds and reports the
end-to-end metrics, with each timing scaled by a reference loop timed next
to it (see REFERENCE_S); with --trace 1 it does the same untraced
measurement, then re-runs the first few operations with every program layer
wrapped (`spans`) and reports per-layer metrics instead, normalised per CSV
row (ramp), per solve (solve) or per command (cli); their times are raw.
Human-readable lines come first; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Each workload reports its tail latency at one fixed percentile (its
# `tail_percentile`) and runs at least long enough to have TAIL_BEYOND samples
# above it, up to MAX_RUN_FACTOR times --seconds.  A percentile that followed
# the sample count would move with the host's speed from run to run.
TAIL_BEYOND = 10
MAX_RUN_FACTOR = 3
SETUP_REPEATS = 15
# Every timing is also measured in units of a fixed pure-Python reference loop
# timed next to it, then scaled to a machine on which that loop takes
# REFERENCE_S.  On a shared host the CPU's speed swings by up to 1.7x within
# seconds; the program and the loop swing together, so the scaled figures
# hold still while the raw ones (printed alongside) do not.
REFERENCE_S = 2.5e-3
SOLVE_CHUNK = 512
COMMAND_TIMEOUT_S = 120
# `polquat check` groups, one `checks.<group>.ms` metric each
CHECK_GROUPS = ("eq1-table", "table1-golden", "table2-golden", "stokes-equivalence",
                "eq4-symmetry", "oracle-differential", "shifter-inversion",
                "fig5-ramp", "fig7-singular")


@dataclass
class Sample:
    case: object
    seconds: float    # wall time of the operation
    cpu_seconds: float  # CPU time the program spent on it
    items: int        # CSV rows (ramp), solves (solve), commands (cli)
    verdict: object
    bytes_out: int = 0
    reference_s: float = REFERENCE_S  # reference loop time measured around it

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.reference_s


def timed(fn, tracer=None) -> tuple:
    """(result or the exception raised, wall s, CPU s) of one in-process operation."""
    cpu = time.thread_time()
    start = time.perf_counter()
    try:
        with tracer.op() if tracer else nullcontext():
            result = fn()
    except Exception as exc:  # a crash is a failed operation, not a dead run
        result = exc
    wall = time.perf_counter() - start
    return result, wall, time.thread_time() - cpu


@dataclass(frozen=True)
class _RefQuat:
    """The reference loop's value type: a frozen dataclass quaternion, built
    and multiplied the way the program's own `Quaternion` is."""

    a: float
    b: float
    c: float
    d: float

    def __mul__(self, o: "_RefQuat") -> "_RefQuat":
        return _RefQuat(self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d,
                        self.a * o.b + o.a * self.b + self.c * o.d - self.d * o.c,
                        self.a * o.c + o.a * self.c + self.d * o.b - self.b * o.d,
                        self.a * o.d + o.a * self.d + self.b * o.c - self.c * o.b)


def reference_s() -> float:
    """CPU time of one pass of the fixed reference loop."""
    p, q = _RefQuat(0.5, 0.5, 0.5, 0.5), _RefQuat(0.1, 0.2, 0.3, 0.9)
    start = time.thread_time()
    for _ in range(1000):
        p = p * q
        n = 1.0 / math.hypot(p.a, p.b, p.c, p.d)
        p = _RefQuat(p.a * n, p.b * n, p.c * n, p.d * n)
    return time.thread_time() - start


def run_calibrated(workload, cases: list, tracer=None) -> list:
    """workload.run(cases) with the reference loop timed before and after."""
    before = reference_s()
    samples = workload.run(cases, tracer)
    reference = 0.5 * (before + reference_s())
    for s in samples:
        s.reference_s = reference
    return samples


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_command(argv: list, env: dict) -> tuple:
    """(wall s, child CPU s, exit code, stdout, stderr) of one command run to
    completion; commands run one at a time, so the children's CPU time grows
    by this command's alone."""
    cpu = _children_cpu_s()
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=COMMAND_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = -1, "", f"timed out after {exc.timeout} s"
    return time.perf_counter() - start, _children_cpu_s() - cpu, code, out, err


def probe_peak_rss_mb(commands: list, env: dict) -> float:
    """Largest peak RSS of the program over the given polquat commands."""
    report = OUT / "tmp" / "probe.json"
    peak = 0
    for argv in commands:
        _, _, code, _, err = run_command(
            [sys.executable, str(HERE / "child.py"), str(report), "--", *argv], env)
        if code != 0:
            raise RuntimeError(f"memory probe {argv[0]} exited {code}: {err.strip()[-300:]}")
        peak = max(peak, json.loads(report.read_text())["peak_rss_kb"])
    return peak / 1024.0


def measure_setup_s(env: dict) -> tuple:
    """Median wall time of `import polquat` in fresh interpreters: (scaled,
    raw, count)."""
    code = ("import time; t = time.perf_counter(); import polquat; "
            "d = time.perf_counter() - t; print(repr(d)); print(polquat.__file__)")
    raw, scaled = [], []
    for attempt in range(SETUP_REPEATS + 1):   # the first one fills the bytecode cache
        before = reference_s()
        _, _, rc, out, err = run_command([sys.executable, "-c", code], env)
        reference = 0.5 * (before + reference_s())
        lines = out.split()
        if rc != 0 or not Path(lines[1]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"cannot import polquat from {SRC}: {err.strip()[-300:]}")
        if attempt:
            raw.append(float(lines[0]))
            scaled.append(raw[-1] * REFERENCE_S / reference)
    return statistics.median(scaled), statistics.median(raw), len(raw)


class RampWorkload:
    name = "ramp"
    item = "rows"
    chunk = 1
    tail_percentile = 75.0   # ~50 ramps in 30 s
    traced_ops = 3   # one FIG5, one FIG7 and one random ramp

    def __init__(self, seed: int, env: dict):
        from polquat import cli

        self.cli = cli
        self.cases = inputs.ramp_cases(seed)
        self.csv = OUT / "tmp" / "ramp.csv"

    def next_cases(self) -> list:
        return [next(self.cases)]

    def memory_commands(self) -> list:
        q, r = inputs.FIG5
        return [inputs.ramp_argv(q, r, inputs.RAMP_SAMPLES, str(self.csv))]

    def run(self, cases: list, tracer=None) -> list:
        import verify

        samples = []
        for case in cases:
            argv = list(inputs.ramp_argv(case.q, case.r, inputs.RAMP_SAMPLES, str(self.csv)))
            self.csv.unlink(missing_ok=True)
            verdict = verify.Verdict()
            code, seconds, cpu = timed(lambda: self.cli.main(argv), tracer)
            text = ""
            if verify.check_exit(verdict, code):
                text = self.csv.read_text()
                verify.check_ramp_csv(verdict, text, case.q, case.r, inputs.RAMP_SAMPLES)
            samples.append(Sample(case, seconds, cpu, inputs.RAMP_SAMPLES, verdict,
                                  len(text.encode())))
        return samples


def near_miss_bound(case, triples: int) -> float:
    """Largest residual that is the known miss (see `verify`) for a solve of
    `case` that returned `triples` triples: a near-singular target answered
    with the singular family; 0 for any other solve."""
    import verify

    if case.kind == "near" and triples == verify.FAMILY_SIZE:
        return 2.0 * case.c + verify.ACCEPT_BOUND
    return 0.0


class SolveWorkload:
    name = "solve"
    item = "solves"
    chunk = SOLVE_CHUNK
    # the slow singular-family solves (16 triples each, ~8% of solves); above
    # p97 the figure follows the host's scheduling more than the program
    tail_percentile = 95.0
    traced_ops = 4 * SOLVE_CHUNK

    def __init__(self, seed: int, env: dict):
        from polquat import Quaternion, shifter, signal

        self.quaternion, self.shifter, self.signal = Quaternion, shifter, signal
        self.cases = inputs.solve_cases(seed)
        self.first = None

    def next_cases(self) -> list:
        cases = [next(self.cases) for _ in range(self.chunk)]
        self.first = self.first or cases[0]
        return cases

    def memory_commands(self) -> list:
        case = self.first
        return [("solve", "--q=" + inputs.quat_text(case.q), "--r=" + inputs.quat_text(case.r),
                 "--phi", repr(case.phi))]

    def solve(self, q, r, phi):
        """The measured operation; returns (triples, residuals)."""
        shifter = self.shifter
        sol = shifter.solve_angles(shifter.target_transform(q, r, phi))
        triples = sol.branches if sol.branches is not None else sol.family_samples
        want = self.signal.apply_phase(r, phi)
        return triples, [(q * shifter.forward_transform(a) - want).norm() for a in triples]

    def run(self, cases: list, tracer=None) -> list:
        import numpy as np
        import verify

        quat = self.quaternion
        done = []
        for case in cases:
            q, r = quat(*case.q), quat(*case.r)
            done.append((case, *timed(lambda: self.solve(q, r, case.phi), tracer)))
        # one vectorised oracle pass over every returned triple of the chunk
        rows = [(case, a, res) for case, result, _, _ in done
                if not isinstance(result, Exception) for a, res in zip(*result)]
        oracle = iter(verify.oracle_residuals(
            np.array([c.q for c, _, _ in rows]).reshape(-1, 4),
            np.array([c.r for c, _, _ in rows]).reshape(-1, 4),
            np.array([c.phi for c, _, _ in rows]),
            np.array([a.as_tuple() for _, a, _ in rows]).reshape(-1, 3)))
        samples = []
        for case, result, seconds, cpu in done:
            verdict = verify.Verdict()
            if isinstance(result, Exception):
                verdict.fail(f"raised {result!r}", wrong=True)
            elif not result[0]:
                verdict.fail("no solution returned", wrong=True)
            else:
                got = [next(oracle) for _ in result[0]]
                verify.judge_residuals(verdict, got, result[1], "solve ",
                                       near_miss_bound(case, len(result[0])))
            samples.append(Sample(case, seconds, cpu, 1, verdict))
        return samples


class CliWorkload:
    name = "cli"
    item = "commands"
    chunk = 1
    # inside the `check` commands, the slowest third of the rotation, below
    # the scatter of their own slowest runs
    tail_percentile = 75.0
    traced_ops = 3   # one ramp256, one solve, one check

    def __init__(self, seed: int, env: dict):
        self.csv = OUT / "tmp" / "cli-ramp.csv"
        self.seed = seed
        self.cases = inputs.cli_cases(seed, str(self.csv))
        self.env = env
        self.child_aggregate = {}
        self.traced = 0

    def next_cases(self) -> list:
        return [next(self.cases)]

    def memory_commands(self) -> list:
        rotation = inputs.cli_cases(self.seed, str(self.csv))
        return [next(rotation).argv for _ in range(3)]

    def run(self, cases: list, tracer=None) -> list:
        import spans
        import verify

        samples = []
        for case in cases:
            self.csv.unlink(missing_ok=True)
            if tracer is None:
                argv = [sys.executable, "-m", "polquat", *case.argv]
            else:
                self.traced += 1
                report = OUT / "tmp" / "traced.json"
                argv = [sys.executable, str(HERE / "child.py"), str(report),
                        "--spans", str(OUT / f"spans-cli-{self.traced}.bin"),
                        "--", *case.argv]
            seconds, cpu, code, out, err = run_command(argv, self.env)
            verdict = verify.Verdict()
            size = len(out.encode())
            if verify.check_exit(verdict, code, err):
                if tracer is not None:
                    spans.merge(self.child_aggregate,
                                json.loads(report.read_text())["aggregate"])
                if case.label == "ramp256":
                    text = self.csv.read_text()
                    size += len(text.encode())
                    verify.check_ramp_csv(verdict, text, case.q, case.r,
                                          inputs.CLI_RAMP_SAMPLES)
                elif case.label == "solve":
                    verify.check_solve_json(verdict, out, case.q, case.r, case.phi)
                else:
                    verify.check_check_output(verdict, out)
            samples.append(Sample(case, seconds, cpu, 1, verdict, size))
        return samples


WORKLOADS = {w.name: w for w in (RampWorkload, SolveWorkload, CliWorkload)}


def tail(values: list, percentile: float) -> tuple:
    """(nearest-rank value at the percentile, number of samples above it)."""
    ordered = sorted(values)
    k = max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)
    return ordered[k], len(ordered) - 1 - k


def min_ops_for_tail(percentile: float) -> int:
    return math.ceil(TAIL_BEYOND / (1.0 - percentile / 100.0))


def measure(workload, seconds: float, min_ops: int) -> list:
    """Operations for `seconds`, continued to `min_ops` operations while the
    run is shorter than MAX_RUN_FACTOR * seconds."""
    samples = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(samples) >= min_ops
                                   or elapsed >= MAX_RUN_FACTOR * seconds):
            return samples
        samples.extend(run_calibrated(workload, workload.next_cases()))


def tally(samples: list) -> dict:
    """The run's verdict: an operation with any failure counts as failed, and
    any finding that an output is wrong makes the whole run incorrect.  Known
    misses (see `verify`) are counted apart, by `near_miss_share`."""
    failed = [s.verdict for s in samples if s.verdict.failures]
    return {"correct": not any(v.wrong for v in failed), "attempted": len(samples),
            "failed": len(failed)}


def near_miss_share(samples: list) -> tuple:
    """(share, count) of operations with a known miss."""
    known = sum(1 for s in samples if s.verdict.known)
    return known / len(samples), known


def _latency_rate(samples: list, percentile: float, scaled: bool) -> tuple:
    """(p50 ms, (tail ms, samples above), items per CPU s)."""
    def scale(s):
        return s.scale if scaled else 1.0
    op_ms = [s.seconds * scale(s) * 1e3 for s in samples]
    rate = sum(s.items for s in samples) / sum(s.cpu_seconds * scale(s) for s in samples)
    return statistics.median(op_ms), tail(op_ms, percentile), rate


def end_to_end(workload, samples: list, setup: tuple, peak_rss_mb: float) -> dict:
    """Print every end-to-end figure and return the JSON metrics.

    Latencies are wall time.  The rate is items per CPU second of the process
    doing the work, which a neighbour preempting the shared CPU does not move.
    JSON carries the figures scaled to the reference loop (see REFERENCE_S);
    the raw figure follows each printed one.
    """
    n = len(samples)
    p = workload.tail_percentile
    p50, (tail_ms, beyond), rate = _latency_rate(samples, p, True)
    raw_p50, (raw_tail, _), raw_rate = _latency_rate(samples, p, False)
    import verify

    failed = tally(samples)["failed"]
    miss, misses = near_miss_share(samples)
    tail_note = f"p{p:g}, {beyond} above, n={n}"
    # (printed name, scaled value, raw value, unit, note, JSON metric it feeds)
    w = workload.name
    if w == "ramp":
        lines = [("ramp_samples_per_s", rate, raw_rate, "1/s",
                  f"per CPU s, {n} ramps of {inputs.RAMP_SAMPLES} rows", "items_per_cpu_s"),
                 ("ramp_op_ms_p50", p50, raw_p50, "ms", f"n={n}", "op_ms_p50"),
                 ("ramp_op_ms_tail", tail_ms, raw_tail, "ms", tail_note, "op_ms_tail")]
    elif w == "solve":
        lines = [("solve_ops_per_s", rate, raw_rate, "1/s", f"per CPU s, n={n}",
                  "items_per_cpu_s"),
                 ("solve_op_us_p50", p50 * 1e3, raw_p50 * 1e3, "us", f"n={n}", "op_ms_p50"),
                 ("solve_op_us_tail", tail_ms * 1e3, raw_tail * 1e3, "us", tail_note,
                  "op_ms_tail")]
    else:
        lines = []
        for label in ("ramp256", "solve", "check"):
            some = [s for s in samples if s.case.label == label]
            lines.append((f"cli_{label}_ms_p50", _latency_rate(some, p, True)[0],
                          _latency_rate(some, p, False)[0], "ms", f"n={len(some)}", ""))
        lines += [("cli_commands_per_s", rate, raw_rate, "1/s",
                   f"per CPU s of the commands, n={n}", "items_per_cpu_s"),
                  ("cli_command_ms_p50", p50, raw_p50, "ms", f"all commands, n={n}",
                   "op_ms_p50"),
                  ("cli_command_ms_tail", tail_ms, raw_tail, "ms", tail_note, "op_ms_tail")]
    lines += [("setup_s", setup[0], setup[1], "s",
               f"median of {setup[2]} fresh interpreters", "setup_s"),
              ("peak_rss_mb", peak_rss_mb, peak_rss_mb, "MB",
               "largest VmHWM of the probe commands", "peak_rss_mb"),
              ("fail_share", failed / n, failed / n, "share", f"{failed} of {n} failed", ""),
              ("near_miss_share", miss, miss, "share",
               f"{misses} of {n}: near-singular target solved as singular, "
               f"residual above {verify.ACCEPT_BOUND:g}", "")]
    for name, value, raw, unit, note, key in lines:
        print(f"{name:<22} {value:>12.6g} {unit:<5} (raw {raw:.6g}; {note})"
              + (f" -> {key}" if key else ""))
    metrics = {"items_per_cpu_s": (rate, "1/s"), "op_ms_p50": (p50, "ms"),
               "op_ms_tail": (tail_ms, "ms"), "setup_s": (setup[0], "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def per_layer(workload, agg: dict, traced: list, overhead: float) -> dict:
    """Per-layer metrics from the span aggregate of the traced samples,
    normalised per op."""
    per_op = sum(s.items for s in traced)
    bytes_out = sum(s.bytes_out for s in traced)

    def calls(name):
        return agg.get(name, [0])[0] / per_op

    def self_us(name):
        return agg.get(name, [0, 0.0])[1] / per_op * 1e6

    def layer_us(layer):
        return sum(v[1] for k, v in agg.items() if k.split(".")[0] == layer) / per_op * 1e6

    solves = agg.get("shifter.solve_angles", [0])[0]
    singular = agg.get("shifter.solve_angles!marked", [0])[0]
    metrics = {
        "quaternion.mul.calls": (calls("quaternion.Quaternion.__mul__"), "count"),
        "quaternion.new.calls": (calls("quaternion.Quaternion.__init__"), "count"),
        "quaternion.self_us": (layer_us("quaternion"), "us"),
        "components.waveplate.new.calls": (calls("components.Waveplate.__init__"), "count"),
        "components.rotate_element.calls": (calls("components.rotate_element"), "count"),
        "components.self_us": (layer_us("components"), "us"),
        "shifter.forward_transform.calls": (calls("shifter.forward_transform"), "count"),
        "shifter.forward_transform.self_us": (self_us("shifter.forward_transform"), "us"),
        "shifter.target_transform.calls": (calls("shifter.target_transform"), "count"),
        "shifter.target_transform.self_us": (self_us("shifter.target_transform"), "us"),
        "shifter.solve_angles.self_us": (self_us("shifter.solve_angles"), "us"),
        "shifter.singular_share": (singular / solves if solves else 0.0, "share"),
        "shifter.near_miss_share": (near_miss_share(traced)[0], "share"),
        "shifter.ramp_trajectory.self_us": (self_us("shifter.ramp_trajectory"), "us"),
        "signal.to_ellipse.calls": (calls("signal.to_ellipse"), "count"),
        "signal.stokes.calls": (calls("signal.stokes"), "count"),
        "signal.self_us": (layer_us("signal"), "us"),
        "cli.self_us": (layer_us("cli"), "us"),
        "cli.bytes_out": (bytes_out / per_op, "B"),
    }
    for group in CHECK_GROUPS:
        total = agg.get(f"checks.group.{group}", [0, 0.0, 0.0])[2]
        metrics[f"checks.{group}.ms"] = (total / per_op * 1e3, "ms")
    metrics["jones.self_us"] = (layer_us("jones"), "us")
    metrics["trace.overhead_x"] = (overhead, "x")
    print(f"per-layer metrics per {workload.item[:-1]}, from {per_op} traced {workload.item}:")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(workload, untraced: list) -> dict:
    """Re-run the first operations with every layer wrapped; per-layer metrics."""
    import spans

    cases = [s.case for s in untraced[:workload.traced_ops]]
    tracer = spans.Tracer()
    spans.instrument(tracer)
    traced = []
    for i in range(0, len(cases), workload.chunk):
        traced.extend(run_calibrated(workload, cases[i:i + workload.chunk], tracer))
    agg = tracer.aggregate()
    if isinstance(workload, CliWorkload):
        spans.merge(agg, workload.child_aggregate)
    tracer.write(OUT / f"spans-{workload.name}.bin")
    with open(OUT / f"layers-{workload.name}.json", "w") as fh:
        json.dump(agg, fh, indent=0, sort_keys=True)
    base = sum(s.seconds * s.scale for s in untraced[:len(traced)])
    overhead = sum(s.seconds * s.scale for s in traced) / base
    return traced, per_layer(workload, agg, traced, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polquat" / "__init__.py").is_file():
        print(f"error: no polquat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polquat

    if not Path(polquat.__file__).resolve().is_relative_to(SRC):
        print(f"error: polquat imported from {polquat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env()
    workload = WORKLOADS[args.workload](args.seed, env)

    setup = None if args.trace else measure_setup_s(env)
    workload.run(workload.next_cases())          # warm-up, not measured
    samples = measure(workload, args.seconds,
                      max(workload.traced_ops, min_ops_for_tail(workload.tail_percentile)))
    print(f"workload {workload.name}, seed {args.seed}: {len(samples)} operations "
          f"in {args.seconds:g} s, one client, closed loop")
    if args.trace:
        traced, metrics = traced_run(workload, samples)
        samples = samples + traced
    else:
        peak_rss_mb = probe_peak_rss_mb(workload.memory_commands(), env)
        metrics = end_to_end(workload, samples, setup, peak_rss_mb)
    for reason in sorted({r for s in samples for r in s.verdict.failures})[:5]:
        print(f"failure: {reason}")
    for reason in sorted({r for s in samples for r in s.verdict.known})[:2]:
        print(f"known miss: {reason}")
    for tmp in (OUT / "tmp").iterdir():
        tmp.unlink()
    print(json.dumps({**tally(samples), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
