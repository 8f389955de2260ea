import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polquat import Quaternion, shifter, to_ellipse
from polquat.checks import check_fig5_ramp, check_fig7_singular
from polquat.cli import CSV_HEADER, main

FIG5_Q = "-0.8888888888888888,0.2222222222222222,0.3333333333333333,0.2222222222222222"
FIG5_R = "0.2857142857142857,-0.42857142857142855,0,-0.8571428571428571"
FIG7_Q = "-0.8333333333333334,0.16666666666666666,0.5,0.16666666666666666"
FIG7_R = "0.3333333333333333,-0.6666666666666666,0,-0.6666666666666666"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

# The command examples as one argv table.  Each row is a list of (argv, exit
# code, want) steps and runs as the test `test_<name>`; `want` is a phrase of
# the error message, a test on the JSON that stdout holds, or that JSON itself,
# which stdout must print exactly, keys in order.
_EXAMPLES = {
    "convert_jones_to_quat": [
        (_convert("jones", "quat", '{"ex":[1,0],"ey":[0,0]}'), 0, [1.0, 0.0, 0.0, 0.0])],
    "convert_ellipse_to_quat": [
        (_convert("ellipse", "quat", '{"r":1.4142135,"phi":0,"epsilon":0.7853981,"theta":0}'),
         0, lambda got: max(abs(a - b) for a, b in zip(got, [1.0, 0.0, 0.0, 1.0])) <= 1e-5)],
    "convert_stokes_round_trip_and_rejection": [
        (_convert("stokes", "stokes", _STOKES), 0, {"s1": 1.0, "s2": 0.0, "s3": 0.0}),
        (_convert("stokes", "quat", _STOKES), 3, "phase")],
    # each form's reader and writer agree; stokes keys print in their order
    "json_forms_round_trip": [
        (_convert("quat", "quat", "[0.1,-0.2,0.3,-0.4]"), 0, [0.1, -0.2, 0.3, -0.4]),
        (_convert("jones", "jones", '{"ey":[0,2],"ex":[1.5,-0.5]}'), 0,
         {"ex": [1.5, -0.5], "ey": [0.0, 2.0]}),
        (_convert("stokes", "stokes", '{"s3":0.5,"s1":1,"s2":-2}'), 0,
         {"s1": 1.0, "s2": -2.0, "s3": 0.5})],
    "convert_malformed_json_is_exit_2": [(_convert("quat", "quat", "[1,2,"), 2, "JSON")],
    "convert_degrees_display": [
        (("--degrees", *_convert("quat", "ellipse", "[0,0,0,1]")), 0,
         lambda got: max(abs(got["phi_deg"] - 90.0), abs(got["theta_deg"] - 90.0)) <= 1e-9)],
    "solve_identity_is_singular_b": [
        (("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0"), 0,
         _solved("singular_b", ["singular"] * 16))],
    "solve_fig5_regular": [
        (("solve", "--q", FIG5_Q, "--r", FIG5_R, "--phi", "1.0"), 0, _solved("regular", [1, 2]))],
    "solve_branch_filter": [
        (("solve", "--q", FIG5_Q, "--r", FIG5_R, "--phi", "0.3", "--branch", "2"), 0,
         _solved("regular", [2]))],
    "solve_fig7_singular_phase": [
        (("solve", "--q", FIG7_Q, "--r", FIG7_R, "--phi", _FIG7_CROSSING), 0,
         _solved("singular_b", ["singular"] * 16))],
    "solve_non_unit_is_exit_2": [
        (("solve", "--q", "1,1,0,0", "--r", "1,0,0,0", "--phi", "0"), 2, "unit")],
    "ramp_untouchable_path_is_exit_4": [
        (("ramp", "--q", "1,0,0,0", "--r", "1,0,0,0", "--samples", "4",
          "--out", "/no/such/dir/x.csv"), 4, "cannot write")],
}


def _example_test(steps):
    def test(capsys):
        for argv, want_code, want in steps:
            code, out, err = run(capsys, *argv)
            assert code == want_code, err
            if isinstance(want, str):
                assert want in err
            elif callable(want):
                assert want(json.loads(out))
            else:
                assert out == json.dumps(want) + "\n"
    return test


for _name, _steps in _EXAMPLES.items():
    globals()["test_" + _name] = _example_test(_steps)


def test_convert_quat_ellipse_round_trip(capsys):
    q = [0.48, 0.36, 0.64, -0.48]
    code, out, _ = run(capsys, "convert", "--from", "quat", "--to", "ellipse",
                       "--input", json.dumps(q))
    assert code == 0
    code, out, _ = run(capsys, "convert", "--from", "ellipse", "--to", "quat",
                       "--input", out.strip())
    assert code == 0
    got = json.loads(out)
    assert max(abs(a - b) for a, b in zip(got, q)) <= 1e-12


def test_solve_prints_the_family_at_its_parameters(capsys):
    from polquat import solve_angles

    code, out, _ = run(capsys, "solve", "--q", FIG7_Q, "--r", FIG7_R, "--phi", _FIG7_CROSSING)
    assert code == 0
    got = json.loads(out)
    family = solve_angles(Quaternion(*got["target_p"])).family
    assert [entry["parameter"] for entry in got["solutions"]] == list(family.parameters)
    for entry in got["solutions"]:
        angles = family.at(entry["parameter"])
        assert (entry["psi_a"], entry["psi_b"], entry["psi_c"]) == \
            (angles.psi_a, angles.psi_b, angles.psi_c)


def test_degrees_shows_the_family_parameter_in_degrees(capsys):
    argv = ("solve", "--q=1,0,0,0", "--r=1,0,0,0", "--phi", "0")
    radians = json.loads(run(capsys, *argv)[1])["solutions"]
    code, out, _ = run(capsys, "--degrees", *argv)
    assert code == 0
    shown = json.loads(out)["solutions"]
    assert len(shown) == len(radians) == 16
    for rad, deg in zip(radians, shown):
        assert list(deg) == ["branch", "parameter_deg", "psi_a_deg", "psi_b_deg",
                             "psi_c_deg", "residual"]
        assert deg["parameter_deg"] == math.degrees(rad["parameter"])


def test_ramp_two_identical_rows_for_identity_problem(tmp_path, capsys):
    out_path = tmp_path / "two.csv"
    code, _, _ = run(capsys, "ramp", "--q", "1,0,0,0", "--r", "1,0,0,0",
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
def test_ramp_checks_its_inputs_before_it_opens_the_file(tmp_path, capsys, q, samples):
    out_path = tmp_path / "ramp.csv"
    code, _, err = run(capsys, "ramp", "--q", q, "--r", "1,0,0,0", "--samples", samples,
                       "--out", str(out_path))
    assert code == 2 and "Traceback" not in err
    assert not out_path.exists()


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
    (FIG5_Q, FIG5_R): "f9f12147800b81a7694b7a667c41f2d6c407334f87a666a160e69822f5cfcf63",
    (FIG7_Q, FIG7_R): "00344cce0edc274694a732e4be9a8a30b885ad3636cda60d4b8cdff6c0019b13",
    ("1,0,0,0", "1,0,0,0"): "0dcab1d92c2776bcd911837e3db793a2e74f1a5be3cd1d2fb2c6ddb28719d7d1",
    ("1,0,0,0", "0,1,0,0"): "c25d46b12b47aaa81d38046c901f5729bb7eacce35c8bce0269f40fc671a6a84",
}


@pytest.mark.parametrize("q, r", list(_RAMP_SHA256), ids=["fig5", "fig7", "identity", "one-i"])
def test_ramp_csv_bytes_are_pinned(tmp_path, capsys, q, r):
    out_path = tmp_path / "ramp.csv"
    code, _, _ = run(capsys, "ramp", "--q", q, "--r", r, "--samples", "256",
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


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# Each row of an argv table names itself, so a row inserted anywhere renames no
# other test; a new row takes the next free argv number.
@pytest.mark.parametrize("argv, want", [
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "nan"), 2, id="argv0-2"),
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "inf"), 2, id="argv1-2"),
    pytest.param(("convert", "--from", "quat", "--to", "quat", "--input",
                  '{"1":0.5,"2":0.5,"3":0.5,"4":0.5}'), 2, id="argv2-2"),
    pytest.param(("convert", "--from", "jones", "--to", "quat", "--input",
                  '{"ex":[1,0,7],"ey":[0,0]}'), 2, id="argv3-2"),
    pytest.param(("convert", "--from", "jones", "--to", "quat", "--input",
                  '{"ex":[1,0],"ey":[0,0,7]}'), 2, id="argv4-2"),
    pytest.param(("convert", "--from", "quat", "--to", "ellipse", "--input",
                  "[0,0,0,0]"), 3, id="argv5-3"),
    pytest.param(("convert", "--from", "quat", "--to", "stokes", "--input",
                  "[1e300,1e300,0,0]"), 3, id="argv6-3"),
    pytest.param(("convert", "--from", "quat", "--to", "ellipse", "--input",
                  "[1e-320,0,0,0]"), 0, id="argv7-0"),
    pytest.param(("convert", "--from", "quat", "--to", "ellipse", "--input",
                  "[1e170,0,1e170,0]"), 0, id="argv8-0"),
    pytest.param(("convert", "--from", "quat", "--to", "ellipse", "--input",
                  "[1e-200,0,1e-200,0]"), 0, id="argv9-0"),
    pytest.param(("convert", "--from", "quat", "--to", "ellipse", "--input",
                  "[0,0,1e-310,0]"), 0, id="argv10-0"),
    pytest.param(("convert", "--from", "quat", "--to", "quat", "--input",
                  "[1e999,0,0,0]"), 2, id="argv11-2"),
    pytest.param(("convert", "--from", "quat", "--to", "jones", "--input",
                  "[NaN,0,0,0]"), 2, id="argv12-2"),
    pytest.param(("convert", "--from", "stokes", "--to", "stokes", "--input",
                  '{"s1":1e999,"s2":0,"s3":0}'), 2, id="argv13-2"),
    pytest.param(("convert", "--from", "quat", "--to", "quat", "--input",
                  "[1" + "0" * 400 + ",0,0,0]"), 2, id="argv14-2"),
    pytest.param(("convert", "--from", "quat", "--to", "quat", "--input",
                  "[" * 100000), 2, id="argv15-2"),
    pytest.param(("convert", "--from", "quat", "--to", "quat", "--input",
                  '"1234"'), 2, id="argv16-2"),
    pytest.param(("convert", "--from", "jones", "--to", "quat", "--input",
                  '{"ex":"12","ey":"34"}'), 2, id="argv17-2"),
    pytest.param(("convert", "--from", "ellipse", "--to", "quat", "--input",
                  '{"r":"1","phi":0,"epsilon":0,"theta":0}'), 2, id="argv18-2"),
    pytest.param(("convert", "--from", "quat", "--to", "quat", "--input",
                  "[true,false,0,0]"), 2, id="argv19-2"),
    # objects have exactly their keys: unknown keys and missing ones are bad input
    pytest.param(("convert", "--from", "ellipse", "--to", "quat", "--input",
                  '{"r":1,"phi":0,"epsilon":0,"theta":0,"junk":5}'), 2, id="argv20-2"),
    pytest.param(("convert", "--from", "stokes", "--to", "stokes", "--input",
                  '{"s1":1,"s2":0,"s3":0,"s4":9}'), 2, id="argv21-2"),
    pytest.param(("convert", "--from", "jones", "--to", "quat", "--input",
                  '{"ex":[1,0],"ey":[0,0],"ez":[1,1]}'), 2, id="argv22-2"),
    pytest.param(("convert", "--from", "ellipse", "--to", "quat", "--input",
                  '{"r":1,"phi":0,"epsilon":0}'), 2, id="argv23-2"),
    pytest.param(("convert", "--from", "jones", "--to", "ellipse", "--input",
                  '{"ex":[1,0],"ey":[0,1],"phase":0}'), 2, id="argv24-2"),
    # the stokes form is read before the conversion is refused
    pytest.param(("convert", "--from", "stokes", "--to", "quat", "--input",
                  '{"s1":"1","s2":0,"s3":0}'), 2, id="argv25-2"),
    # a singular target has a family, not two branches to pick from
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0",
                  "--branch", "2"), 2, id="argv26-2"),
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "0,1,0,0", "--phi", "0",
                  "--branch", "1"), 2, id="argv27-2"),
    # too few samples, and payloads of the wrong length or out of range
    pytest.param(("ramp", "--q", "1,0,0,0", "--r", "1,0,0,0", "--samples", "1",
                  "--out", "/no/such/dir/unused.csv"), 2, id="argv28-2"),
    pytest.param(("convert", "--from", "quat", "--to", "quat", "--input",
                  "[1,2]"), 2, id="argv29-2"),
    pytest.param(("convert", "--from", "ellipse", "--to", "quat", "--input",
                  '{"r":-1,"phi":0,"epsilon":0,"theta":0}'), 2, id="argv30-2"),
])
def test_bad_values_keep_the_exit_code_contract(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want
    assert "Traceback" not in err
    if argv[0] == "solve" and "--branch" in argv:
        assert "singular" in err
    if out:
        json.loads(out, parse_constant=_no_constant)


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)   # any other escaping exception fails the test
        except SystemExit as exc:   # argparse rejects a malformed option
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, want", [
    pytest.param(("solve", "--q", "-1,0,0,0", "--r", "1,0,0,0", "--phi", "0.3"), 0, id="argv0-0"),
    pytest.param(("solve", "--q", "-1e-1,0,0,0.99498743710662", "--r", "1,0,0,0",
                  "--phi", "0.3"), 0, id="argv1-0"),
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "-1e-3"), 0, id="argv2-0"),
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "-.6,0,0,.8", "--phi", "-.5"), 0,
                 id="argv3-0"),
    # a negative value is read after its option; an unknown option is still one
    pytest.param(("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0", "--bogus"), 2,
                 id="argv4-2"),
])
def test_negative_values_follow_an_option_in_any_float_spelling(argv, want):
    code, out, err = _run_quiet(list(argv))
    assert code == want, err
    if want == 0:
        assert json.loads(out)["solutions"]


_COMPONENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1e300", "-1e300",
                     "5e-324", "-1e-310", "0", "1" + "0" * 400]))


def _payload(kind, xs):
    if kind == "quat":
        return "[" + ",".join(xs) + "]"
    if kind == "jones":
        return '{"ex":[%s,%s],"ey":[%s,%s]}' % tuple(xs)
    keys = ("r", "phi", "epsilon", "theta") if kind == "ellipse" else ("s1", "s2", "s3")
    return "{" + ",".join(f'"{k}":{x}' for k, x in zip(keys, xs)) + "}"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["quat", "jones", "ellipse", "stokes"]),
       st.sampled_from(["quat", "jones", "ellipse", "stokes"]),
       st.lists(_COMPONENTS, min_size=4, max_size=4), st.booleans())
def test_convert_keeps_the_exit_code_contract_on_any_number(src, dst, xs, degrees):
    argv = ["--degrees"] * degrees + ["convert", "--from", src, "--to", dst,
                                      "--input", _payload(src, xs)]
    code, out, err = _run_quiet(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_no_constant)
    else:
        assert out == ""


def _scaled(text, scale):
    return ",".join(repr(float(x) * scale) for x in text.split(","))


@pytest.mark.parametrize("q_scale, r_scale", [(1 + 9e-10, 1 + 9e-10), (1 - 9e-10, 1 - 9e-10),
                                              (1 + 9e-10, 1 - 9e-10)])
def test_near_unit_inputs_are_solved_as_unit_states(tmp_path, capsys, q_scale, r_scale):
    # |q| and |r| within 1e-9 of 1 are accepted; their product must not then
    # fail the target's own unit check
    q, r = _scaled(FIG5_Q, q_scale), _scaled(FIG5_R, r_scale)
    code, out, err = run(capsys, "solve", "--q=" + q, "--r=" + r, "--phi", "0.3")
    assert code == 0 and "Traceback" not in err
    assert all(s["residual"] <= 1e-9 for s in json.loads(out)["solutions"])
    out_path = tmp_path / "near.csv"
    code, _, err = run(capsys, "ramp", "--q=" + q, "--r=" + r, "--samples", "64",
                       "--out", str(out_path))
    assert code == 0 and "Traceback" not in err
    rows = out_path.read_text().splitlines()[1:]
    assert len(rows) == 64
    assert all(float(row.split(",")[8]) <= 1e-9 for row in rows)


_UNIT = (st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
         .filter(lambda v: math.hypot(*v) > 1e-3)
         .map(lambda v: [x / math.hypot(*v) for x in v]))


def _quat_text(scales):
    return st.builds(lambda v, scale: ",".join(repr(x * scale) for x in v), _UNIT,
                     st.sampled_from(scales))


_NEAR_UNIT = _quat_text([1.0, 1 + 9e-10, 1 - 9e-10])
_ANY_QUAT = st.one_of(
    _NEAR_UNIT,
    _quat_text([1 + 3e-9, 0.5, 1e300, 1e-300]),
    st.lists(st.one_of(st.floats().map(repr),
                       st.sampled_from(["5e-324", "-1e-310", "1e300", "1e999", "0"])),
             min_size=4, max_size=4).map(",".join),
    st.sampled_from(["", "1,0,0", "1,0,0,0,0", "a,b,c,d", "1,,0,0", "1;0;0;0"]))
# half the draws are an accepted (q, r) pair, so the success path is exercised
_PAIR = st.one_of(st.tuples(_NEAR_UNIT, _NEAR_UNIT), st.tuples(_ANY_QUAT, _ANY_QUAT))
_PHI = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1.2490457723982544, 1e300]),
                 st.floats())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["solve", "ramp"]), _PAIR, _PHI, st.integers(-2, 8))
def test_solve_and_ramp_keep_the_exit_code_contract(command, pair, phi, samples):
    q, r = pair
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "ramp.csv")
        argv = [command, "--q=" + q, "--r=" + r]
        argv += ([f"--phi={phi!r}"] if command == "solve"
                 else [f"--samples={samples}", "--out", out_path])
        code, out, err = _run_quiet(argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if command == "solve" and code == 0:
            json.loads(out, parse_constant=_no_constant)
        elif code == 0:
            with open(out_path) as fh:
                lines = fh.read().splitlines()
            assert lines[0] == CSV_HEADER and len(lines) == samples + 1
        else:
            assert out == ""


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


_IMPORT_PROBE = """
import sys
import polquat
from polquat import cli

codes = [cli.main(["convert", "--from", "quat", "--to", "ellipse", "--input", "[1,0,0,0]"]),
         cli.main(["solve", "--q=" + sys.argv[1], "--r=" + sys.argv[2], "--phi", "0.3"]),
         cli.main(["ramp", "--q", "1,0,0,0", "--r", "1,0,0,0", "--samples", "9",
                   "--out", sys.argv[3]])]
loaded = [m for m in ("numpy", "polquat.jones", "polquat.checks", "polquat.components")
          if m in sys.modules]
print("probe", codes, loaded)
"""


def _run_probe(*argv):
    """`python *argv` with the source tree first on the import path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_commands_never_import_the_oracle_or_numpy(tmp_path):
    # numpy stays out of every command, and the Jones oracle out of every
    # command but `check` (which needs no numpy either, see below); the lazy
    # package keeps `polquat.components`, which only `check` and the demos
    # use, out of these three
    proc = _run_probe("-c", _IMPORT_PROBE, FIG5_Q, FIG5_R, str(tmp_path / "ramp.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "probe [0, 0, 0] []"


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips `site`, so no .pth file of the installed Python imports them
    proc = _run_probe("-S", "-c", "import sys, polquat.cli; print(sorted("
                      "{'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_import_polquat_loads_no_submodule():
    proc = _run_probe("-c", "import sys, polquat; "
                      "print(sorted(m for m in sys.modules if m.startswith('polquat')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['polquat']\n"


_SURFACE_PROBE = """
import polquat
print(sorted(n for n in dir(polquat) if not n.startswith("_")))
names = {}
exec("from polquat import *", names)
print(sorted(n for n in names if n != "__builtins__"))
"""


def test_each_public_name_is_the_attribute_of_its_submodule():
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
    # in a fresh interpreter: `dir` before any submodule is loaded, then the
    # names a star import binds
    proc = _run_probe("-c", _SURFACE_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [repr(_PUBLIC)] * 2


_NO_NUMPY_CHECK = """
import sys
sys.modules["numpy"] = None   # any `import numpy` now raises ImportError
from polquat import cli
sys.exit(cli.main(["check"]))
"""


def test_check_runs_without_numpy():
    from polquat.checks import CHECK_GROUPS

    proc = _run_probe("-c", _NO_NUMPY_CHECK)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"PASS {name}\n" for name, _ in CHECK_GROUPS) \
        + "all checks passed\n"


_BROKEN_CHECK = """
import sys
from polquat import checks, cli
from polquat.quaternion import Quaternion
if sys.argv[1] == "wrong-half-plate":   # breaks bounds: AssertionError
    checks.hwp = checks.qwp
else:                                    # every stack raises ValueError
    checks.qwp = lambda psi: checks.Waveplate(Quaternion(2.0, 0.0, 0.0, 0.0))
sys.exit(cli.main(["check"]))
"""


def test_check_fails_a_broken_bound_under_python_O():
    # the groups fail through checks._require, which -O does not strip
    proc = _run_probe("-O", "-c", _BROKEN_CHECK, "wrong-half-plate")
    assert proc.returncode == 1, proc.stderr
    assert "FAIL table1-golden: the horizontal half plate is not i\n" in proc.stdout
    assert "FAIL shifter-inversion: branches " in proc.stdout
    assert proc.stdout.endswith("\n2 group(s) failed\n")


def test_check_reports_a_group_that_raises_and_runs_the_rest():
    from polquat.checks import CHECK_GROUPS

    proc = _run_probe("-c", _BROKEN_CHECK, "non-unit-quarter-plate")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    error = "ValueError: waveplate transform must be a unit quaternion, |q| = 2.0"
    assert proc.stdout == "".join(
        f"FAIL {name}: {error}\n" if name in ("table1-golden", "shifter-inversion")
        else f"PASS {name}\n" for name, _ in CHECK_GROUPS) + "2 group(s) failed\n"
