"""Command line surface: conversions, shifter solving, ramps, self check.

Exit codes: 0 success, 1 self-check failure, 2 bad input, 3 unrecoverable
conversion, 4 I/O error.  Angles are radians on input and output; --degrees
reformats angle fields of convert/solve output (keys gain a _deg suffix) and
never affects parsing.  Ramp CSV columns are always radians.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import shifter
from .quaternion import Quaternion
from .signal import (
    EllipseParams,
    JonesVector,
    from_ellipse,
    from_jones,
    stokes,
    to_ellipse,
    to_jones,
)

CSV_HEADER = "phi,psi_a,psi_b,psi_c,branch,out_phase,out_theta,out_epsilon,residual"


class BadInput(Exception):
    pass


class UnrecoverableConversion(Exception):
    pass


def _parse_quat_arg(text: str, name: str) -> Quaternion:
    try:
        q = Quaternion.from_text(text)
    except ValueError as exc:
        raise BadInput(f"{name}: {exc}") from exc
    if not q.is_unit():
        raise BadInput(f"{name} must be a unit quaternion, |q| = {q.norm()!r}")
    # an accepted input is the unit state it approximates: products of two
    # inputs 1e-9 off unit would otherwise fail the unit checks downstream
    return q.normalized()


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise BadInput(f"{name} must be a finite number, got {value!r}")
    return value


def _strict_json(obj) -> str:
    # strict JSON has no NaN or Infinity; a value that overflowed is not a result
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise UnrecoverableConversion(f"result is not finite: {obj}") from exc


# The JSON form of each representation.  A form is None for a number, n for
# an array of exactly n numbers, or a dict for an object with exactly its keys,
# each holding the value of the form it maps to.
_FORMS = {
    "jones": {"ex": 2, "ey": 2},
    "quat": 4,
    "ellipse": dict.fromkeys(("r", "phi", "epsilon", "theta")),
    "stokes": dict.fromkeys(("s1", "s2", "s3")),
}


def _read(value, form, name: str):
    """`value` checked against `form`, with every leaf a float.

    The parse hooks make every JSON number a float; a string, boolean or null
    is not a number even where float() would read it.
    """
    if form is None:
        if not isinstance(value, float):
            raise BadInput(f"{name} must be a number, got {value!r:.40}")
        return value
    if isinstance(form, int):
        if not (isinstance(value, list) and len(value) == form):
            raise BadInput(f"{name} must be a JSON array of {form} numbers")
        return [_read(x, None, name) for x in value]
    if not (isinstance(value, dict) and value.keys() == form.keys()):
        raise BadInput(f"{name} must be a JSON object with exactly the keys "
                       + ", ".join(form))
    return {key: _read(value[key], sub, key) for key, sub in form.items()}


def _load_signal(kind: str, value) -> Quaternion:
    """The signal of a `quat`, `jones` or `ellipse` value read by `_read`."""
    if kind == "quat":
        return Quaternion(*value)
    if kind == "jones":
        return from_jones(JonesVector(complex(*value["ex"]), complex(*value["ey"])))
    try:
        return from_ellipse(EllipseParams(**value))
    except ValueError as exc:  # a parameter outside its range
        raise BadInput(f"bad ellipse input: {exc}") from exc


# the output keys that hold angles; --degrees shows each as <key>_deg in degrees
_ANGLES = {"phi", "epsilon", "theta", "psi_a", "psi_b", "psi_c"}


def _shown(obj: dict, degrees: bool) -> dict:
    if not degrees:
        return obj
    return dict((f"{k}_deg", math.degrees(v)) if k in _ANGLES else (k, v)
                for k, v in obj.items())


def _dump_signal(kind: str, q: Quaternion, degrees: bool):
    if kind == "quat":
        return q.to_list()
    if kind == "jones":
        v = to_jones(q)
        return {"ex": [v.ex.real, v.ex.imag], "ey": [v.ey.real, v.ey.imag]}
    if kind == "stokes":
        return stokes(q)._asdict()
    return _shown(to_ellipse(q)._asdict(), degrees)


def _finite_number(text: str) -> float:
    # every input number is read as a float; one that overflows (1e999, or an
    # integer literal of 400 digits) is bad input, not a conversion failure
    value = float(text)
    if not math.isfinite(value):
        raise BadInput(f"JSON number {text[:40]} is out of range")
    return value


def _no_constant(name: str):
    raise BadInput(f"JSON input has the non-finite constant {name}")


def cmd_convert(args) -> int:
    try:
        obj = json.loads(args.input, parse_float=_finite_number, parse_int=_finite_number,
                         parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise BadInput(f"malformed JSON input: {exc}") from exc
    except RecursionError as exc:
        raise BadInput("JSON input is nested too deeply") from exc
    value = _read(obj, _FORMS[args.src], f"{args.src} input")
    if args.src == "stokes":
        if args.dst != "stokes":
            raise UnrecoverableConversion(
                "the optical phase cannot be recovered from Stokes parameters")
        out = value
    else:
        q = _load_signal(args.src, value)
        try:
            out = _dump_signal(args.dst, q, args.degrees)
        except ValueError as exc:  # e.g. the zero signal has no ellipse
            raise UnrecoverableConversion(f"cannot convert to {args.dst}: {exc}") from exc
    print(_strict_json(out))
    return 0


def cmd_solve(args) -> int:
    q = _parse_quat_arg(args.q, "--q")
    r = _parse_quat_arg(args.r, "--r")
    p = shifter.target_transform(q, r, _finite(args.phi, "--phi"))
    sol = shifter.solve_angles(p)
    if sol.family is None:
        wanted = (1, 2) if args.branch == "all" else (int(args.branch),)
        rows = [({"branch": idx}, sol.branches[idx - 1]) for idx in wanted]
    elif args.branch != "all":
        raise BadInput(f"--branch {args.branch}: the target is {sol.classification.value}")
    else:
        rows = [({"branch": "singular", "parameter": x}, angles)
                for x, angles in zip(sol.family.parameters, sol.family_samples)]
    solutions = []
    for entry, angles in rows:
        entry.update(_shown(angles._asdict(), args.degrees))
        entry["residual"] = (shifter.forward_transform(angles) - p).norm()
        solutions.append(entry)
    print(_strict_json({"target_p": p.to_list(),
                        "classification": sol.classification.value,
                        "solutions": solutions}))
    return 0


def ramp_rows(q: Quaternion, r: Quaternion, samples: int):
    """The rows of the closed 0..2*pi ramp of `samples` phases: each solved
    `shifter.RampPoint` with the ellipse of its output q * forward(angles).

    The signals are checked before this returns (ValueError unless unit);
    then each phase is drawn, solved and given its ellipse as its row is
    read, so no row is kept.
    """
    points = shifter.ramp_trajectory(
        q, r, (2.0 * math.pi * k / (samples - 1) for k in range(samples)))
    return ((pt, to_ellipse(q * shifter.forward_transform(pt.angles))) for pt in points)


# one ramp CSV row; + 0.0 on each value turns a negative zero into 0.0, so
# identical values print identically
_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%s,%.12g,%.12g,%.12g,%.12g\n"


def cmd_ramp(args) -> int:
    q = _parse_quat_arg(args.q, "--q")
    r = _parse_quat_arg(args.r, "--r")
    if args.samples < 2:
        raise BadInput("--samples must be at least 2")
    rows = ramp_rows(q, r, args.samples)
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for pt, (_, out_phase, out_epsilon, out_theta) in rows:
                phi, (psi_a, psi_b, psi_c), _, residual, _ = pt
                fh.write(_CSV_ROW % (phi + 0.0, psi_a + 0.0, psi_b + 0.0, psi_c + 0.0,
                                     pt.branch_label, out_phase + 0.0, out_theta + 0.0,
                                     out_epsilon + 0.0, residual + 0.0))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    return 0


def cmd_check(args) -> int:
    # imported here so normal commands never touch the oracle module
    from . import checks

    failures = 0
    for name, fn in checks.CHECK_GROUPS:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} group(s) failed")
        return 1
    print("all checks passed")
    return 0


def _accept_negative_values(parser: argparse.ArgumentParser) -> None:
    # quaternion arguments like "-1,0,0,0" and phases like "-1e-3" start with
    # '-'; read anything that goes on with a digit or '.' as a value (no option
    # is spelled that way), whatever the float spelling after it
    try:
        import re
        parser._negative_number_matcher = re.compile(r"^-[\d.]")
    except AttributeError:  # future argparse internals; --q=... still works
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polquat",
        description="Quaternion polarization calculus toolbox",
        epilog="exit codes: 0 ok, 1 check failure, 2 bad input, "
               "3 unrecoverable conversion, 4 I/O error")
    parser.add_argument("--degrees", action="store_true",
                        help="display output angles in degrees (input is always radians)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("convert", help="convert between signal representations")
    p_conv.add_argument("--from", dest="src", required=True, choices=_FORMS)
    p_conv.add_argument("--to", dest="dst", required=True, choices=_FORMS)
    p_conv.add_argument("--input", required=True, help="JSON value of the source form")
    p_conv.set_defaults(func=cmd_convert)

    p_solve = sub.add_parser("solve", help="solve the three-plate phase shifter")
    p_solve.add_argument("--q", required=True, help='input signal "q0,q1,q2,q3"')
    p_solve.add_argument("--r", required=True, help='output signal "q0,q1,q2,q3"')
    p_solve.add_argument("--phi", required=True, type=float, help="phase shift (rad)")
    p_solve.add_argument("--branch", choices=("1", "2", "all"), default="all")
    p_solve.set_defaults(func=cmd_solve)

    p_ramp = sub.add_parser("ramp", help="write a full 2*pi phase ramp as CSV")
    p_ramp.add_argument("--q", required=True)
    p_ramp.add_argument("--r", required=True)
    p_ramp.add_argument("--samples", required=True, type=int)
    p_ramp.add_argument("--out", required=True, help="output CSV path")
    p_ramp.set_defaults(func=cmd_ramp)

    p_check = sub.add_parser("check", help="run the built-in verification suite")
    p_check.set_defaults(func=cmd_check)

    for p in (parser, p_conv, p_solve, p_ramp):
        _accept_negative_values(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnrecoverableConversion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
