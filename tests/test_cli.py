import contextlib
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from polquat import Quaternion, checks, shifter, to_ellipse
from polquat.checks import _rand_unit, check_fig5_ramp, check_fig7_singular
from polquat.cli import CSV_HEADER, main

FIG5_Q = ",".join(map(repr, checks.FIG5_Q))
FIG5_R = ",".join(map(repr, checks.FIG5_R))
FIG7_Q = ",".join(map(repr, checks.FIG7_Q))
FIG7_R = ",".join(map(repr, checks.FIG7_R))


def run(*argv, out=None):
    """`main(argv)` with its output captured: (exit code, stdout, stderr).  The
    SystemExit of an argparse rejection gives its code; any other exception
    escapes and fails the test.  `out` replaces the captured stdout."""
    out, err = out or io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _opt(argv, name):
    """The value of option `name` in `argv`, spelled `name=value` or `name value`."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    raise KeyError(name)


def _check(argv, codes, want=None):
    """Run `argv` and assert the CLI contract: an exit code in `codes`, no
    traceback on stderr, and on stdout strict JSON, or nothing after a
    failure.  A solve that succeeds prints at least one solution.  A ramp
    that succeeds prints nothing and writes its `--out` CSV: the header and
    one row per `--samples` sample, with no field `-0`.  The command is the
    first entry of `argv` that is not the global `--degrees`.  `want` is a
    phrase of stderr, a test of the JSON that stdout holds, or that JSON
    itself, which stdout must print exactly, keys in order."""
    code, out, err = run(*argv)
    assert code in codes and "Traceback" not in err, (argv, code, err)
    command = next(arg for arg in argv if arg != "--degrees")
    if isinstance(want, str):
        assert want in err, (argv, err)
    if code != 0 or command == "ramp":
        assert out == "", (argv, out)
    if code == 0 and command == "ramp":
        lines = Path(_opt(argv, "--out")).read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == int(_opt(argv, "--samples")) + 1, argv
        # identical values print identically: a negative zero prints as 0
        assert "-0" not in {field for line in lines for field in line.split(",")}, argv
    elif code == 0:
        got = json.loads(out, parse_constant=_no_constant)
        assert command != "solve" or got["solutions"], (argv, out)
        if callable(want):
            assert want(got), (argv, out)
        elif isinstance(want, (list, dict)):
            assert out == json.dumps(want) + "\n", (argv, out)


def _convert(src, dst, text):
    return ("convert", "--from", src, "--to", dst, "--input", text)


def _solved(classification, branches):
    """A test of `solve` output: its class, the branch of each solution, and
    every residual below the 1e-9 bound."""
    return lambda got: (got["classification"] == classification
                        and [s["branch"] for s in got["solutions"]] == branches
                        and all(s["residual"] < 1e-9 for s in got["solutions"]))


_STOKES = '{"s1":1,"s2":0,"s3":0}'
_FIG7_CROSSING = "1.2490457723982544"   # the Fig. 7 ramp crosses a singularity here

def test_convert_quat_ellipse_round_trip():
    q = [0.48, 0.36, 0.64, -0.48]
    code, out, _ = run("convert", "--from", "quat", "--to", "ellipse",
                       "--input", json.dumps(q))
    assert code == 0
    code, out, _ = run("convert", "--from", "ellipse", "--to", "quat",
                       "--input", out.strip())
    assert code == 0
    got = json.loads(out)
    assert max(abs(a - b) for a, b in zip(got, q)) <= 1e-12


def test_solve_prints_the_family_at_its_parameters():
    from polquat import solve_angles

    code, out, _ = run("solve", "--q", FIG7_Q, "--r", FIG7_R, "--phi", _FIG7_CROSSING)
    assert code == 0
    got = json.loads(out)
    family = solve_angles(Quaternion(*got["target_p"])).family
    assert [entry["parameter"] for entry in got["solutions"]] == list(family.parameters)
    for entry in got["solutions"]:
        angles = family.at(entry["parameter"])
        assert (entry["psi_a"], entry["psi_b"], entry["psi_c"]) == \
            (angles.psi_a, angles.psi_b, angles.psi_c)


def test_ramp_two_identical_rows_for_identity_problem(tmp_path):
    out_path = tmp_path / "two.csv"
    code, _, _ = run("ramp", "--q", "1,0,0,0", "--r", "1,0,0,0",
                     "--samples", "2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    for c in (1, 2, 3):
        assert abs(float(first[c]) - float(second[c])) <= 1e-9


@pytest.mark.parametrize("q, samples", [("2,0,0,0", "256"), ("1,0,0,0", "1")],
                         ids=["non-unit-q", "one-sample"])
def test_ramp_checks_its_inputs_before_it_opens_the_file(tmp_path, q, samples):
    out_path = tmp_path / "ramp.csv"
    _check(("ramp", "--q", q, "--r", "1,0,0,0", "--samples", samples, "--out", str(out_path)),
           (2,))
    assert not out_path.exists()


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_a_failed_write_to_stdout_is_exit_4():
    for argv in (_convert("quat", "quat", "[1,0,0,0]"),
                 ("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0")):
        assert run(*argv, out=_FullDisk()) == (
            4, "", "error: [Errno 28] No space left on device\n"), argv


# a ramp that built its rows first would run out of the 256 MiB address space
_STREAM_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, resource.getrlimit(resource.RLIMIT_AS)[1]))
from polquat.checks import FIG5_Q, FIG5_R
from polquat.shifter import ramp_rows
pt, ell = next(ramp_rows(FIG5_Q, FIG5_R, 10**12))
print(pt.phi)
"""


def test_ramp_rows_streams_the_first_row_at_once():
    proc = _run_probe("-c", _STREAM_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.0\n"


# sha256 of the 256-sample ramp CSVs: the byte contract of `ramp`.  The
# identity and (1, i) ramps start and end on a singular-family row.
_RAMP_SHA256 = {
    (FIG5_Q, FIG5_R): "3455a198b5c654aed8a8806118a7c0203f64cd7b73eba0a942777e1359aaad59",
    (FIG7_Q, FIG7_R): "7e4ccc398f9929d214b507d79976c1c24e91deee0ffd227eae89efad52ef96d8",
    ("1,0,0,0", "1,0,0,0"): "0dcab1d92c2776bcd911837e3db793a2e74f1a5be3cd1d2fb2c6ddb28719d7d1",
    ("1,0,0,0", "0,1,0,0"): "c25d46b12b47aaa81d38046c901f5729bb7eacce35c8bce0269f40fc671a6a84",
}


# ramp columns are radians whatever --degrees says, so FIG5 under it writes
# the same bytes
@pytest.mark.parametrize("q, r, degrees", [(*pair, False) for pair in _RAMP_SHA256]
                         + [(FIG5_Q, FIG5_R, True)],
                         ids=["fig5", "fig7", "identity", "one-i", "fig5-degrees"])
def test_ramp_csv_bytes_are_pinned(tmp_path, q, r, degrees):
    out_path = tmp_path / "ramp.csv"
    code, _, _ = run(*["--degrees"] * degrees, "ramp", "--q", q, "--r", r, "--samples", "256",
                     "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == _RAMP_SHA256[q, r]


def _j_k_swapped(out):
    """The ellipse of the output with its j and k components swapped."""
    q0, q1, q2, q3 = out
    return to_ellipse(Quaternion(q0, q1, q3, q2))


@pytest.mark.parametrize("wrong, failure", [
    (_j_k_swapped, "orientation"),
    (lambda out: to_ellipse(out)._replace(phi=0.0), "span-2pi"),
], ids=["j-k-swapped", "phase-frozen"])
def test_fig5_group_checks_the_ellipses_ramp_writes(monkeypatch, wrong, failure):
    # the group reads the rows of `shifter.ramp_rows`, so a wrong ellipse there fails it
    monkeypatch.setattr(shifter, "to_ellipse", wrong)
    with pytest.raises(AssertionError, match=failure):
        check_fig5_ramp()


def test_fig7_group_checks_the_output_sop(monkeypatch):
    monkeypatch.setattr(shifter, "to_ellipse", _j_k_swapped)
    with pytest.raises(AssertionError, match="orientation"):
        check_fig7_singular()


# The CLI contract as one argv table: each row is (argv, exit code, want) for
# `_check`.  Each row names itself, so a row inserted anywhere renames no
# other test; a new row takes the next free argv number.  A ramp's relative
# --out path lands in the test's temporary directory.
_ARGVS = [
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "nan"), 2, None,
                 id="argv0-2"),
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "inf"), 2, None,
                 id="argv1-2"),
    pytest.param(_convert("quat", "quat", '{"1":0.5,"2":0.5,"3":0.5,"4":0.5}'), 2, None,
                 id="argv2-2"),
    pytest.param(_convert("jones", "quat", '{"ex":[1,0,7],"ey":[0,0]}'), 2, None, id="argv3-2"),
    pytest.param(_convert("jones", "quat", '{"ex":[1,0],"ey":[0,0,7]}'), 2, None, id="argv4-2"),
    pytest.param(_convert("quat", "ellipse", "[0,0,0,0]"), 3, None, id="argv5-3"),
    pytest.param(_convert("quat", "stokes", "[1e300,1e300,0,0]"), 3, None, id="argv6-3"),
    pytest.param(_convert("quat", "ellipse", "[1e-320,0,0,0]"), 0, None, id="argv7-0"),
    pytest.param(_convert("quat", "ellipse", "[1e170,0,1e170,0]"), 0, None, id="argv8-0"),
    pytest.param(_convert("quat", "ellipse", "[1e-200,0,1e-200,0]"), 0, None, id="argv9-0"),
    pytest.param(_convert("quat", "ellipse", "[0,0,1e-310,0]"), 0, None, id="argv10-0"),
    pytest.param(_convert("quat", "quat", "[1e999,0,0,0]"), 2, None, id="argv11-2"),
    pytest.param(_convert("quat", "jones", "[NaN,0,0,0]"), 2, None, id="argv12-2"),
    pytest.param(_convert("stokes", "stokes", '{"s1":1e999,"s2":0,"s3":0}'), 2, None,
                 id="argv13-2"),
    pytest.param(_convert("quat", "quat", "[1" + "0" * 400 + ",0,0,0]"), 2, None, id="argv14-2"),
    pytest.param(_convert("quat", "quat", "[" * 100000), 2, None, id="argv15-2"),
    pytest.param(_convert("quat", "quat", '"1234"'), 2, None, id="argv16-2"),
    pytest.param(_convert("jones", "quat", '{"ex":"12","ey":"34"}'), 2, None, id="argv17-2"),
    pytest.param(_convert("ellipse", "quat", '{"r":"1","phi":0,"epsilon":0,"theta":0}'), 2, None,
                 id="argv18-2"),
    pytest.param(_convert("quat", "quat", "[true,false,0,0]"), 2, None, id="argv19-2"),
    # objects have exactly their keys: unknown keys and missing ones are bad input
    pytest.param(_convert("ellipse", "quat", '{"r":1,"phi":0,"epsilon":0,"theta":0,"junk":5}'),
                 2, None, id="argv20-2"),
    pytest.param(_convert("stokes", "stokes", '{"s1":1,"s2":0,"s3":0,"s4":9}'), 2, None,
                 id="argv21-2"),
    pytest.param(_convert("jones", "quat", '{"ex":[1,0],"ey":[0,0],"ez":[1,1]}'), 2, None,
                 id="argv22-2"),
    pytest.param(_convert("ellipse", "quat", '{"r":1,"phi":0,"epsilon":0}'), 2, None,
                 id="argv23-2"),
    pytest.param(_convert("jones", "ellipse", '{"ex":[1,0],"ey":[0,1],"phase":0}'), 2, None,
                 id="argv24-2"),
    # the stokes form is read before the conversion is refused
    pytest.param(_convert("stokes", "quat", '{"s1":"1","s2":0,"s3":0}'), 2, None, id="argv25-2"),
    # a singular target has a family, not two branches to pick from
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0",
                  "--branch", "2"), 2, "singular", id="argv26-2"),
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "0,1,0,0", "--phi", "0",
                  "--branch", "1"), 2, "singular", id="argv27-2"),
    # too few samples, and payloads of the wrong length or out of range
    pytest.param(("ramp", "--q", "1,0,0,0", "--r", "1,0,0,0", "--samples", "1",
                  "--out", "/no/such/dir/unused.csv"), 2, None, id="argv28-2"),
    pytest.param(_convert("quat", "quat", "[1,2]"), 2, None, id="argv29-2"),
    pytest.param(_convert("ellipse", "quat", '{"r":-1,"phi":0,"epsilon":0,"theta":0}'), 2, None,
                 id="argv30-2"),
    pytest.param(("frobnicate",), 2, None, id="argv31-2"),
    # a negative value follows its option in any float spelling
    pytest.param(("solve", "--q", "-1,0,0,0", "--r", "1,0,0,0", "--phi", "0.3"), 0, None,
                 id="argv32-0"),
    pytest.param(("solve", "--q", "-1e-1,0,0,0.99498743710662", "--r", "1,0,0,0",
                  "--phi", "0.3"), 0, None, id="argv33-0"),
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "-1e-3"), 0, None,
                 id="argv34-0"),
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "-.6,0,0,.8", "--phi", "-.5"), 0, None,
                 id="argv35-0"),
    # a negative value is read after its option; an unknown option is still one
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0", "--bogus"), 2, None,
                 id="argv36-2"),
    # each form's reader and writer agree; stokes keys print in their order
    pytest.param(_convert("jones", "quat", '{"ex":[1,0],"ey":[0,0]}'), 0, [1.0, 0.0, 0.0, 0.0],
                 id="argv37-0"),
    pytest.param(_convert("ellipse", "quat",
                          '{"r":1.4142135,"phi":0,"epsilon":0.7853981,"theta":0}'), 0,
                 lambda got: max(abs(a - b) for a, b in zip(got, [1.0, 0.0, 0.0, 1.0])) <= 1e-5,
                 id="argv38-0"),
    pytest.param(_convert("stokes", "stokes", _STOKES), 0, {"s1": 1.0, "s2": 0.0, "s3": 0.0},
                 id="argv39-0"),
    pytest.param(_convert("stokes", "quat", _STOKES), 3, "phase", id="argv40-3"),
    pytest.param(_convert("quat", "quat", "[0.1,-0.2,0.3,-0.4]"), 0, [0.1, -0.2, 0.3, -0.4],
                 id="argv41-0"),
    pytest.param(_convert("jones", "jones", '{"ey":[0,2],"ex":[1.5,-0.5]}'), 0,
                 {"ex": [1.5, -0.5], "ey": [0.0, 2.0]}, id="argv42-0"),
    pytest.param(_convert("stokes", "stokes", '{"s3":0.5,"s1":1,"s2":-2}'), 0,
                 {"s1": 1.0, "s2": -2.0, "s3": 0.5}, id="argv43-0"),
    pytest.param(_convert("quat", "quat", "[1,2,"), 2, "JSON", id="argv44-2"),
    pytest.param(("--degrees", *_convert("quat", "ellipse", "[0,0,0,1]")), 0,
                 lambda got: max(abs(got["phi_deg"] - 90.0), abs(got["theta_deg"] - 90.0)) <= 1e-9,
                 id="argv45-0"),
    # a solve prints its class and the branch of each solution
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0"), 0,
                 _solved("singular_b", ["singular"] * 16), id="argv46-0"),
    pytest.param(("solve", "--q", FIG5_Q, "--r", FIG5_R, "--phi", "1.0"), 0,
                 _solved("regular", [1, 2]), id="argv47-0"),
    pytest.param(("solve", "--q", FIG5_Q, "--r", FIG5_R, "--phi", "0.3", "--branch", "2"), 0,
                 _solved("regular", [2]), id="argv48-0"),
    pytest.param(("solve", "--q", FIG7_Q, "--r", FIG7_R, "--phi", _FIG7_CROSSING), 0,
                 _solved("singular_b", ["singular"] * 16), id="argv49-0"),
    pytest.param(("solve", "--q", "1,1,0,0", "--r", "1,0,0,0", "--phi", "0"), 2, "unit",
                 id="argv50-2"),
    pytest.param(("ramp", "--q", "1,0,0,0", "--r", "1,0,0,0", "--samples", "4",
                  "--out", "/no/such/dir/x.csv"), 4, "cannot write", id="argv51-4"),
    # ramps that meet a negative zero in out_epsilon, out_theta, psi_b, psi_c
    # and psi_a, which each print as 0
    *(pytest.param(("ramp", "--q", q, "--r", r, "--samples", "256", "--out", "ramp.csv"), 0,
                   None, id=f"argv{n}-0")
      for n, q, r in [(52, "-1,0,0,0", "1,0,0,0"), (53, "0,1,0,0", "0,-1,0,0"),
                      (54, "-1,0,0,0", "0,-1,0,0"),
                      (55, "-1,0,0,0", "0.7071067811865475,0,0.7071067811865475,0"),
                      (56, "-0.7071067811865475,0,-0.7071067811865475,0", "0,-1,0,0")]),
    # --degrees shows each family member's parameter in degrees
    pytest.param(("--degrees", "solve", "--q=1,0,0,0", "--r=1,0,0,0", "--phi", "0"), 0,
                 lambda got: [(list(s), s["parameter_deg"]) for s in got["solutions"]] == [
                     (["branch", "parameter_deg", "psi_a_deg", "psi_b_deg", "psi_c_deg",
                       "residual"], math.degrees(x)) for x in shifter.SingularFamily.parameters],
                 id="argv57-0"),
]


@pytest.mark.parametrize("argv, code, want", _ARGVS)
def test_bad_values_keep_the_exit_code_contract(argv, code, want, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _check(argv, (code,), want)


def _any_float(rng):
    """NaN, +-inf or +-0.0 one draw in four, else a float of 64 random bits:
    every sign and exponent."""
    if rng.random() < 0.25:
        return rng.choice([math.nan, math.inf, -math.inf, 0.0, -0.0])
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


_SPECIAL = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1e300", "-1e300",
            "5e-324", "-1e-310", "0", "1" + "0" * 400]


def _component(rng):
    """A number of a convert payload: half the time a `_SPECIAL` spelling,
    else the repr of a finite `_any_float`."""
    if rng.random() < 0.5:
        return rng.choice(_SPECIAL)
    x = _any_float(rng)
    return repr(x) if math.isfinite(x) else _component(rng)


def _payload(kind, xs):
    if kind == "quat":
        return "[" + ",".join(xs) + "]"
    if kind == "jones":
        return '{"ex":[%s,%s],"ey":[%s,%s]}' % tuple(xs)
    keys = ("r", "phi", "epsilon", "theta") if kind == "ellipse" else ("s1", "s2", "s3")
    return "{" + ",".join(f'"{k}":{x}' for k, x in zip(keys, xs)) + "}"


def test_convert_keeps_the_exit_code_contract_on_any_number():
    forms = ["quat", "jones", "ellipse", "stokes"]
    rng = random.Random(99)
    for _ in range(300):
        src, dst = rng.choice(forms), rng.choice(forms)
        xs = [_component(rng) for _ in range(4)]
        degrees = rng.choice((False, True))
        _check(["--degrees"] * degrees + ["convert", "--from", src, "--to", dst,
                                          "--input", _payload(src, xs)], (0, 2, 3))


def _scaled(text, scale):
    return ",".join(repr(float(x) * scale) for x in text.split(","))


@pytest.mark.parametrize("q_scale, r_scale", [(1 + 9e-10, 1 + 9e-10), (1 - 9e-10, 1 - 9e-10),
                                              (1 + 9e-10, 1 - 9e-10)])
def test_near_unit_inputs_are_solved_as_unit_states(tmp_path, q_scale, r_scale):
    # |q| and |r| within 1e-9 of 1 are accepted; their product must not then
    # fail the target's own unit check
    q, r = _scaled(FIG5_Q, q_scale), _scaled(FIG5_R, r_scale)
    _check(("solve", "--q=" + q, "--r=" + r, "--phi", "0.3"), (0,),
           lambda got: all(s["residual"] <= 1e-9 for s in got["solutions"]))
    out_path = tmp_path / "near.csv"
    _check(("ramp", "--q=" + q, "--r=" + r, "--samples=64", f"--out={out_path}"), (0,))
    rows = out_path.read_text().splitlines()[1:]
    assert all(float(row.split(",")[8]) <= 1e-9 for row in rows)


def _quat_text(rng, scales):
    """--q text of a `checks._rand_unit` signal at one of `scales`."""
    scale = rng.choice(scales)
    return ",".join(repr(x * scale) for x in _rand_unit(rng))


def _near_unit(rng):
    return _quat_text(rng, [1.0, 1 + 9e-10, 1 - 9e-10])


def _any_quat(rng):
    """--q text of one of four kinds: near-unit, off-unit, four floats of any
    spelling, or malformed."""
    return rng.choice([
        _near_unit,
        lambda rng: _quat_text(rng, [1 + 3e-9, 0.5, 1e300, 1e-300]),
        lambda rng: ",".join(rng.choice([repr(_any_float(rng)), rng.choice(
            ["nan", "inf", "-inf", "5e-324", "-1e-310", "1e300", "1e999", "0"])])
                             for _ in range(4)),
        lambda rng: rng.choice(["", "1,0,0", "1,0,0,0,0", "a,b,c,d", "1,,0,0", "1;0;0;0"]),
    ])(rng)


# the Fig. 7 crossing, a huge phase, the edges of [-10, 10] and the non-finite
_PHI_SPECIAL = [float(_FIG7_CROSSING), 1e300, -10.0, 10.0, 0.0, -0.0, 5e-324, -5e-324,
                math.nan, math.inf, -math.inf]


def test_solve_and_ramp_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(100)
    for i in range(300):
        command = rng.choice(["solve", "ramp"])
        # half the draws are an accepted (q, r) pair, so the success path is exercised
        pick = _near_unit if rng.random() < 0.5 else _any_quat
        q, r = pick(rng), pick(rng)
        phi = rng.choice([rng.uniform(-10.0, 10.0), rng.choice(_PHI_SPECIAL), _any_float(rng)])
        samples = rng.randint(-2, 8)
        argv = [command, "--q=" + q, "--r=" + r]
        argv += ([f"--phi={phi!r}"] if command == "solve"
                 else [f"--samples={samples}", f"--out={tmp_path / f'ramp{i}.csv'}"])
        _check(argv, (0, 2, 3, 4))


def _run_probe(*argv):
    """`python *argv` with the source tree first on the import path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


# the public names of `import polquat`: its 40 functions, types and constants
# and the 4 library submodules
_PUBLIC = sorted("""
    quaternion Axis I J K ONE Quaternion allclose precess
    signal ClassicalStokes EllipseParams JonesVector OrthogonalityClass StokesQuaternion
    apply_phase classical_from_jones classify_orthogonality from_ellipse from_jones
    orthogonal_sop stokes to_classical to_ellipse to_jones
    components PartialPolarizer Waveplate apply compose hwp polarizer_apply qwp
    rotate_element waveplate_from_axis
    shifter Classification RampPoint ShifterSolution WaveplateAngles forward_transform
    ramp_trajectory solve_angles target_transform
""".split())


# one fresh interpreter, under -S so that no .pth file of the installed
# Python imports anything: it prints one fact a line, then runs `check`
_IMPORT_PROBE = """
import io, sys
import polquat
print(sorted(m for m in sys.modules if m.startswith("polquat")))
print(sorted(n for n in dir(polquat) if not n.startswith("_")))
from polquat import cli
print(sorted({"dataclasses", "inspect", "typing"} & set(sys.modules)))
sys.path += sys.argv[4:]   # the test's path, on which numpy can be imported
stdout, sys.stdout = sys.stdout, io.StringIO()
codes = [cli.main(["convert", "--from", "quat", "--to", "ellipse", "--input", "[1,0,0,0]"]),
         cli.main(["solve", "--q=" + sys.argv[1], "--r=" + sys.argv[2], "--phi", "0.3"]),
         cli.main(["ramp", "--q", "1,0,0,0", "--r", "1,0,0,0", "--samples", "9",
                   "--out", sys.argv[3]])]
sys.stdout = stdout
print(codes, [m for m in ("numpy", "polquat.jones", "polquat.checks", "polquat.components")
              if m in sys.modules])
names = {}
exec("from polquat import *", names)
print(sorted(n for n in names if n != "__builtins__"))
sys.modules["numpy"] = None   # any `import numpy` now raises ImportError
sys.exit(cli.main(["check"]))
"""


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """The import probe's finished process; the tests below each read their lines."""
    out = tmp_path_factory.mktemp("probe") / "ramp.csv"
    return _run_probe("-S", "-c", _IMPORT_PROBE, FIG5_Q, FIG5_R, str(out), *sys.path)


def test_import_polquat_loads_no_submodule(import_probe):
    assert import_probe.stdout.splitlines()[:1] == ["['polquat']"], import_probe.stderr


def test_each_public_name_is_the_attribute_of_its_submodule(import_probe):
    import importlib

    import polquat

    assert sorted(polquat._SUBMODULE) == _PUBLIC
    for name, module in polquat._SUBMODULE.items():
        sub = importlib.import_module("polquat." + module)
        assert getattr(polquat, name) is (sub if name == module else getattr(sub, name))
    with pytest.raises(AttributeError, match="^module 'polquat' has no attribute 'nope'$"):
        polquat.nope
    with pytest.raises(ImportError):
        from polquat import nope  # noqa: F401
    # in the fresh interpreter: `dir` before any submodule is loaded, then the
    # names a star import binds
    assert import_probe.stdout.splitlines()[1:5:3] == [repr(_PUBLIC)] * 2, import_probe.stderr


def test_cold_import_loads_no_dataclasses_inspect_or_typing(import_probe):
    assert import_probe.stdout.splitlines()[2:3] == ["[]"], import_probe.stderr


def test_commands_never_import_the_oracle_or_numpy(import_probe):
    # numpy stays out of every command, and the Jones oracle out of every
    # command but `check`; `polquat.components`, which only `check` and the
    # demos use, stays out of these three
    assert import_probe.stdout.splitlines()[3:4] == ["[0, 0, 0] []"], import_probe.stderr


def test_check_runs_without_numpy(import_probe):
    assert import_probe.returncode == 0, import_probe.stderr
    assert import_probe.stdout.splitlines()[5:] == [
        *(f"PASS {name}" for name, _ in checks.CHECK_GROUPS), "all checks passed"]


_BROKEN_CHECK = """
import sys
from polquat import checks, cli
checks.hwp = checks.qwp   # breaks bounds: AssertionError
sys.exit(cli.main(["check"]))
"""


def test_check_fails_a_broken_bound_under_python_O():
    # the groups fail through checks._require, which -O does not strip
    proc = _run_probe("-O", "-c", _BROKEN_CHECK)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL table1-golden: the horizontal half plate is not i\n" in proc.stdout
    assert "FAIL shifter-inversion: branches " in proc.stdout
    assert proc.stdout.endswith("\n2 group(s) failed\n")


def test_check_reports_a_group_that_raises_and_runs_the_rest(monkeypatch):
    # every stack raises ValueError
    monkeypatch.setattr(checks, "qwp",
                        lambda psi: checks.Waveplate(Quaternion(2.0, 0.0, 0.0, 0.0)))
    code, out, err = run("check")
    assert code == 1, err
    assert err == ""
    error = "ValueError: waveplate transform must be a unit quaternion, |q| = 2.0"
    assert out == "".join(
        f"FAIL {name}: {error}\n" if name in ("table1-golden", "shifter-inversion")
        else f"PASS {name}\n" for name, _ in checks.CHECK_GROUPS) + "2 group(s) failed\n"
