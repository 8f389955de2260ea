"""Tests of the benchmark itself: inputs, output checks, spans.

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from polquat import cli, shifter  # noqa: E402
from polquat.quaternion import Quaternion  # noqa: E402

SCRATCH = HERE / "out" / "test"


@pytest.fixture
def scratch():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH)


def take(gen, n):
    return [next(gen) for _ in range(n)]


# -- seeded inputs ---------------------------------------------------------------

def test_same_seed_gives_identical_inputs():
    assert take(inputs.solve_cases(7), 500) == take(inputs.solve_cases(7), 500)
    assert take(inputs.ramp_cases(7), 9) == take(inputs.ramp_cases(7), 9)
    assert take(inputs.cli_cases(7, "x.csv"), 9) == take(inputs.cli_cases(7, "x.csv"), 9)
    assert take(inputs.solve_cases(7), 50) != take(inputs.solve_cases(8), 50)


def test_solve_mix_and_constructed_targets():
    cases = take(inputs.solve_cases(3), 20000)
    share = {k: sum(c.kind == k for c in cases) / len(cases)
             for k in ("generic", "singular", "near")}
    assert abs(share["generic"] - 0.90) < 0.01
    assert abs(share["singular"] - 0.05) < 0.005
    assert abs(share["near"] - 0.05) < 0.005
    for case in cases[:2000]:
        if case.kind == "generic":
            continue
        # the target the program derives, conj(q) e^(i phi) r, has min(|c1|,|c2|) = c
        q_conj = (case.q[0], -case.q[1], -case.q[2], -case.q[3])
        phase = (math.cos(case.phi), math.sin(case.phi), 0.0, 0.0)
        p = inputs.qmul(q_conj, inputs.qmul(phase, case.r))
        c = min(math.hypot(p[0], p[2]), math.hypot(p[1], p[3]))
        assert c == pytest.approx(case.c, rel=1e-6, abs=1e-15)
        assert inputs.NEAR_C_RANGE[0] <= case.c <= inputs.NEAR_C_RANGE[1] or case.c == 0.0


def test_quat_text_round_trips_exactly():
    q = inputs.rand_unit(inputs._stream(1, "t"))
    assert Quaternion.from_text(inputs.quat_text(q)).to_list() == list(q)


# -- oracle and failure accounting -----------------------------------------------

def test_oracle_matches_program_and_catches_a_wrong_angle():
    for case in take(inputs.solve_cases(5), 50):
        q, r = Quaternion(*case.q), Quaternion(*case.r)
        sol = shifter.solve_angles(shifter.target_transform(q, r, case.phi))
        triples = sol.branches or sol.family_samples
        got = verify.oracle_residuals(case.q, case.r, [case.phi] * len(triples),
                                      [a.as_tuple() for a in triples])
        program = [(q * shifter.forward_transform(a)
                    - Quaternion(math.cos(case.phi), math.sin(case.phi), 0, 0) * r).norm()
                   for a in triples]
        assert abs(got - program).max() < 1e-13
    bent = verify.oracle_residuals(case.q, case.r, [case.phi],
                                   [[triples[0].psi_a + 1e-6, triples[0].psi_b, triples[0].psi_c]])
    assert bent[0] > 1e-7


def ramp_csv(scratch, samples=32):
    q, r = inputs.FIG5
    path = scratch / "ramp.csv"
    assert cli.main(list(inputs.ramp_argv(q, r, samples, str(path)))) == 0
    return path.read_text(), q, r


def solve_json(capsys):
    q, r = inputs.FIG5
    argv = ["solve", "--q=" + inputs.quat_text(q), "--r=" + inputs.quat_text(r), "--phi", "0.7"]
    assert cli.main(argv) == 0
    return capsys.readouterr().out, q, r, 0.7


def sample(verdict):
    return run.Sample(case=None, seconds=1e-3, cpu_seconds=1e-3, items=1, verdict=verdict)


def test_clean_outputs_pass(scratch, capsys):
    good = verify.Verdict()
    text, q, r = ramp_csv(scratch)
    verify.check_ramp_csv(good, text, q, r, 32)
    out, q, r, phi = solve_json(capsys)
    verify.check_solve_json(good, out, q, r, phi)
    verify.check_exit(good, 0)
    assert good.failures == [] and good.wrong == []
    assert run.tally([sample(good)]) == {"correct": True, "attempted": 1, "failed": 0}


def test_planted_bad_residual_counts_as_failed(scratch):
    text, q, r = ramp_csv(scratch)
    header, first, *rest = text.split("\n")
    fields = first.split(",")
    fields[1] = repr(float(fields[1]) + 1e-8)     # off by ~1e-8: fails the 1e-9 bound
    planted = "\n".join([header, ",".join(fields), *rest])
    bad = verify.Verdict()
    verify.check_ramp_csv(bad, planted, q, r, 32)
    assert any("above 1e-09" in f for f in bad.failures)
    tally = run.tally([sample(bad), sample(verify.Verdict())])
    assert tally["failed"] == 1 and tally["attempted"] == 2
    # the residual column still claims ~1e-16: the program's report is wrong
    assert not tally["correct"]


def test_honest_accuracy_miss_fails_the_op_but_not_the_run():
    # a truthful residual of ~1e-8 that no known defect explains
    miss = verify.Verdict()
    verify.judge_residuals(miss, [3e-16, 2e-8], [3e-16, 2e-8])
    assert run.tally([sample(miss)]) == {"correct": True, "attempted": 1, "failed": 1}
    assert run.near_miss_share([sample(miss)]) == (0.0, 0)
    wrong = verify.Verdict()
    verify.judge_residuals(wrong, [1e-3], [1e-3])
    assert run.tally([sample(wrong)])["correct"] is False


def near_case(c):
    return inputs.SolveCase("near", inputs.FIG5[0], inputs.FIG5[1], 0.0, c)


def test_known_near_singular_miss_is_counted_apart_from_failures():
    # the known defect: c = 5e-8 answered with the singular family, residual ~c
    bound = run.near_miss_bound(near_case(5e-8), verify.FAMILY_SIZE)
    known = verify.Verdict()
    verify.judge_residuals(known, [5e-8] * 16, [5e-8] * 16, known_bound=bound)
    assert known.failures == [] and known.known
    assert run.tally([sample(known)]) == {"correct": True, "attempted": 1, "failed": 0}
    assert run.near_miss_share([sample(known), sample(verify.Verdict())]) == (0.5, 1)
    # a residual the snap cannot explain still fails
    worse = verify.Verdict()
    verify.judge_residuals(worse, [5e-7], [5e-7], known_bound=bound)
    assert worse.failures and not worse.known
    # regular branches and generic or exactly singular targets get no allowance
    assert run.near_miss_bound(near_case(5e-8), 2) == 0.0
    assert run.near_miss_bound(inputs.SolveCase("singular", (1, 0, 0, 0), (1, 0, 0, 0),
                                                0.0, 0.0), verify.FAMILY_SIZE) == 0.0


def test_near_singular_solves_in_the_defect_band_do_not_fail():
    # c in (1e-9, 1e-7]: exact answers or, while the defect lasts, known misses
    workload = run.SolveWorkload(0, {})
    cases = [c for c in take(inputs.solve_cases(0), 20000)
             if c.kind == "near" and 1e-9 < c.c <= 1e-7][:3]
    assert cases
    assert run.tally(workload.run(cases)) == {"correct": True, "attempted": len(cases),
                                              "failed": 0}


def test_planted_nonzero_exit_counts_as_failed():
    bad = verify.Verdict()
    assert not verify.check_exit(bad, 1, "Traceback ...")
    assert run.tally([sample(bad)]) == {"correct": False, "attempted": 1, "failed": 1}


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_planted_nan_in_json_counts_as_failed(capsys, constant):
    out, q, r, phi = solve_json(capsys)
    obj = json.loads(out)
    planted = out.replace(repr(obj["solutions"][0]["residual"]), constant, 1)
    assert constant in planted
    bad = verify.Verdict()
    verify.check_solve_json(bad, planted, q, r, phi)
    assert bad.failures and run.tally([sample(bad)])["failed"] == 1


def test_wrong_row_count_or_header_counts_as_failed(scratch):
    text, q, r = ramp_csv(scratch)
    short = verify.Verdict()
    verify.check_ramp_csv(short, text, q, r, 33)
    renamed = verify.Verdict()
    verify.check_ramp_csv(renamed, text.replace("phi,", "phase,", 1), q, r, 32)
    assert short.failures and renamed.failures


# -- spans -----------------------------------------------------------------------

def test_self_time_of_a_hand_built_span_tree():
    #  op [0, 10]
    #  +- a [1, 6]
    #  |  +- b [2, 3]
    #  |  +- b [4, 5]
    #  +- a [7, 9]
    names = ["op", "a", "b"]
    name_id = [0, 1, 2, 2, 1]
    parent = [-1, 0, 1, 1, 0]
    start = [0.0, 1.0, 2.0, 4.0, 7.0]
    end = [10.0, 6.0, 3.0, 5.0, 9.0]
    agg = spans.aggregate(names, name_id, parent, start, end)
    assert agg["op"] == [1, pytest.approx(3.0), pytest.approx(10.0)]
    assert agg["a"] == [2, pytest.approx(5.0), pytest.approx(7.0)]
    assert agg["b"] == [2, pytest.approx(2.0), pytest.approx(2.0)]


def test_tracer_records_only_inside_operations():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda x: x + 1, "layer.leaf")
    outer = tracer.wrap(lambda x: leaf(leaf(x)), "layer.outer", mark=lambda res: res > 2)
    assert outer(0) == 2                      # outside an operation: not recorded
    with tracer.op():
        outer(0)
        outer(5)
    agg = tracer.aggregate()
    assert agg["layer.outer"][0] == 2 and agg["layer.leaf"][0] == 4
    assert agg[spans.OP_SPAN][0] == 1
    assert agg["layer.outer" + spans.MARK_SUFFIX][0] == 1
    assert list(tracer.parent) == [-1, 0, 1, 1, 0, 4, 4]


def test_traced_call_counts_repeat_exactly(scratch):
    q, r = inputs.FIG7
    counts = []
    for attempt in range(2):
        report = scratch / f"report{attempt}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(report),
                "--spans", str(scratch / f"spans{attempt}.bin"), "--",
                *inputs.ramp_argv(q, r, 64, str(scratch / "ramp.csv"))]
        proc = subprocess.run(argv, env=run.child_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        agg = json.loads(report.read_text())["aggregate"]
        counts.append({name: entry[0] for name, entry in agg.items()})
    assert counts[0] == counts[1]
    assert counts[0]["shifter.forward_transform"] == 2 * 64
    assert counts[0]["shifter.ramp_trajectory"] == 1


def test_tail_percentile_and_run_length():
    assert run.tail(list(range(1, 101)), 90.0) == (90, 10)
    assert run.tail(list(range(1, 41)), 75.0) == (30, 10)
    for workload in run.WORKLOADS.values():
        n = run.min_ops_for_tail(workload.tail_percentile)
        assert run.tail(list(range(n)), workload.tail_percentile)[1] >= run.TAIL_BEYOND


def test_run_refuses_a_tree_without_the_program(scratch):
    bare = scratch / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    for name in ("run.py", "inputs.py", "verify.py", "spans.py", "child.py"):
        shutil.copy(HERE / name, bare / "benchmarks" / name)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "ramp",
                           "--seed", "1", "--seconds", "1"], cwd=bare, capture_output=True,
                          text=True, timeout=120, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert "{" not in proc.stdout
