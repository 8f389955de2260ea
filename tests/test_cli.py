import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polquat.cli import CSV_HEADER, main

FIG5_Q = "-0.8888888888888888,0.2222222222222222,0.3333333333333333,0.2222222222222222"
FIG5_R = "0.2857142857142857,-0.42857142857142855,0,-0.8571428571428571"
FIG7_Q = "-0.8333333333333334,0.16666666666666666,0.5,0.16666666666666666"
FIG7_R = "0.3333333333333333,-0.6666666666666666,0,-0.6666666666666666"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convert_jones_to_quat(capsys):
    code, out, _ = run(capsys, "convert", "--from", "jones", "--to", "quat",
                       "--input", '{"ex":[1,0],"ey":[0,0]}')
    assert code == 0
    assert json.loads(out) == [1.0, 0.0, 0.0, 0.0]


def test_convert_ellipse_to_quat(capsys):
    code, out, _ = run(capsys, "convert", "--from", "ellipse", "--to", "quat",
                       "--input",
                       '{"r":1.4142135,"phi":0,"epsilon":0.7853981,"theta":0}')
    assert code == 0
    got = json.loads(out)
    assert max(abs(a - b) for a, b in zip(got, [1.0, 0.0, 0.0, 1.0])) <= 1e-5


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


def test_convert_stokes_round_trip_and_rejection(capsys):
    code, out, _ = run(capsys, "convert", "--from", "stokes", "--to", "stokes",
                       "--input", '{"s1":1,"s2":0,"s3":0}')
    assert code == 0
    assert json.loads(out) == {"s1": 1.0, "s2": 0.0, "s3": 0.0}
    code, _, err = run(capsys, "convert", "--from", "stokes", "--to", "quat",
                       "--input", '{"s1":1,"s2":0,"s3":0}')
    assert code == 3
    assert "phase" in err


def test_convert_malformed_json_is_exit_2(capsys):
    code, _, err = run(capsys, "convert", "--from", "quat", "--to", "quat",
                       "--input", "[1,2,")
    assert code == 2
    assert "JSON" in err


def test_convert_bad_payload_is_exit_2(capsys):
    code, _, _ = run(capsys, "convert", "--from", "quat", "--to", "quat",
                     "--input", "[1,2]")
    assert code == 2
    code, _, _ = run(capsys, "convert", "--from", "ellipse", "--to", "quat",
                     "--input", '{"r":-1,"phi":0,"epsilon":0,"theta":0}')
    assert code == 2


def test_convert_degrees_display(capsys):
    code, out, _ = run(capsys, "--degrees", "convert", "--from", "quat",
                       "--to", "ellipse", "--input", "[0,0,0,1]")
    assert code == 0
    got = json.loads(out)
    assert abs(got["phi_deg"] - 90.0) <= 1e-9
    assert abs(got["theta_deg"] - 90.0) <= 1e-9


def test_solve_identity_is_singular_b(capsys):
    code, out, _ = run(capsys, "solve", "--q", "1,0,0,0", "--r", "1,0,0,0",
                       "--phi", "0")
    assert code == 0
    got = json.loads(out)
    assert got["classification"] == "singular_b"
    assert len(got["solutions"]) == 16
    assert all(s["residual"] < 1e-9 for s in got["solutions"])
    assert all(s["branch"] == "singular" for s in got["solutions"])


def test_solve_fig5_regular(capsys):
    code, out, _ = run(capsys, "solve", "--q", FIG5_Q, "--r", FIG5_R,
                       "--phi", "1.0")
    assert code == 0
    got = json.loads(out)
    assert got["classification"] == "regular"
    assert [s["branch"] for s in got["solutions"]] == [1, 2]
    assert all(s["residual"] < 1e-9 for s in got["solutions"])


def test_solve_branch_filter(capsys):
    code, out, _ = run(capsys, "solve", "--q", FIG5_Q, "--r", FIG5_R,
                       "--phi", "0.3", "--branch", "2")
    assert code == 0
    got = json.loads(out)
    assert [s["branch"] for s in got["solutions"]] == [2]


def test_solve_fig7_singular_phase(capsys):
    # the ramp for the Fig. 7 pair crosses a singularity at this phase
    code, out, _ = run(capsys, "solve", "--q", FIG7_Q, "--r", FIG7_R,
                       "--phi", "1.2490457723982544", "--tol", "1e-6")
    assert code == 0
    got = json.loads(out)
    assert got["classification"] == "singular_b"
    assert len(got["solutions"]) == 16


def test_solve_non_unit_is_exit_2(capsys):
    code, _, err = run(capsys, "solve", "--q", "1,1,0,0", "--r", "1,0,0,0",
                       "--phi", "0")
    assert code == 2
    assert "unit" in err


def test_ramp_fig5(tmp_path, capsys):
    out_path = tmp_path / "fig5.csv"
    code, _, _ = run(capsys, "ramp", "--q", FIG5_Q, "--r", FIG5_R,
                     "--samples", "256", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 257
    rows = [line.split(",") for line in lines[1:]]
    thetas = [float(r[6]) for r in rows]
    epss = [float(r[7]) for r in rows]
    assert max(thetas) - min(thetas) <= 1e-8
    assert max(epss) - min(epss) <= 1e-8
    phases = np.unwrap([float(r[5]) for r in rows])
    phis = [float(r[0]) for r in rows]
    assert abs((phases[-1] - phases[0]) - 2 * math.pi) <= 1e-8
    fit = phases - (phases[0] + np.array(phis))
    assert np.max(np.abs(fit)) <= 1e-8
    assert all(float(r[8]) <= 1e-9 for r in rows)
    assert all(r[4] == rows[0][4] for r in rows)


def test_ramp_fig7_flags_two_singular_rows(tmp_path, capsys):
    out_path = tmp_path / "fig7.csv"
    code, _, _ = run(capsys, "ramp", "--q", FIG7_Q, "--r", FIG7_R,
                     "--samples", "256", "--out", str(out_path))
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    singular_rows = [i for i, r in enumerate(rows) if r[4] == "singular"]
    assert len(singular_rows) == 2
    for i in singular_rows:
        step = max(
            abs(math.remainder(float(rows[i][c]) - float(rows[i - 1][c]), math.pi))
            for c in (1, 2, 3))
        assert step >= math.pi / 2 - 0.1


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


def test_ramp_untouchable_path_is_exit_4(capsys):
    code, _, err = run(capsys, "ramp", "--q", "1,0,0,0", "--r", "1,0,0,0",
                       "--samples", "4", "--out", "/no/such/dir/x.csv")
    assert code == 4
    assert "cannot write" in err


def test_ramp_too_few_samples_is_exit_2(capsys):
    code, _, _ = run(capsys, "ramp", "--q", "1,0,0,0", "--r", "1,0,0,0",
                     "--samples", "1", "--out", "/tmp/unused.csv")
    assert code == 2


def test_ramp_csv_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "ramp", "--q", FIG7_Q, "--r", FIG7_R,
                         "--samples", "64", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("argv, want", [
    (("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "nan"), 2),
    (("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "inf"), 2),
    (("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0", "--tol", "nan"), 2),
    (("solve", "--q", "1,0,0,0", "--r", "1,0,0,0", "--phi", "0", "--tol", "-1"), 2),
    (("ramp", "--q", "1,0,0,0", "--r", "1,0,0,0", "--samples", "2",
      "--out", "/tmp/unused.csv", "--tol", "nan"), 2),
    (("convert", "--from", "quat", "--to", "ellipse", "--input", "[0,0,0,0]"), 3),
    (("convert", "--from", "quat", "--to", "stokes", "--input", "[1e300,1e300,0,0]"), 3),
    (("convert", "--from", "quat", "--to", "ellipse", "--input", "[1e-320,0,0,0]"), 0),
    (("convert", "--from", "quat", "--to", "ellipse", "--input", "[1e170,0,1e170,0]"), 0),
    (("convert", "--from", "quat", "--to", "ellipse", "--input", "[1e-200,0,1e-200,0]"), 0),
    (("convert", "--from", "quat", "--to", "ellipse", "--input", "[0,0,1e-310,0]"), 0),
    (("convert", "--from", "quat", "--to", "quat", "--input", "[1e999,0,0,0]"), 2),
    (("convert", "--from", "quat", "--to", "jones", "--input", "[NaN,0,0,0]"), 2),
    (("convert", "--from", "stokes", "--to", "stokes",
      "--input", '{"s1":1e999,"s2":0,"s3":0}'), 2),
    (("convert", "--from", "quat", "--to", "quat", "--input", "[1" + "0" * 400 + ",0,0,0]"), 2),
])
def test_bad_values_keep_the_exit_code_contract(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want
    assert "Traceback" not in err
    if out:
        json.loads(out, parse_constant=_no_constant)


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
    out, err = io.StringIO(), io.StringIO()
    argv = ["--degrees"] * degrees + ["convert", "--from", src, "--to", dst,
                                      "--input", _payload(src, xs)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)   # an escaping exception fails the test: no traceback
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        assert out.getvalue() == ""


def test_check_passes_and_reports_required_groups(capsys):
    from polquat.checks import CHECK_GROUPS

    code, out, _ = run(capsys, "check")
    assert code == 0
    assert out.splitlines() == ([f"PASS {name}" for name, _ in CHECK_GROUPS]
                                + ["all checks passed"])


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
