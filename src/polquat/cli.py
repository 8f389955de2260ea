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
    StokesQuaternion,
    from_ellipse,
    from_jones,
    stokes,
    to_ellipse,
    to_jones,
)

CSV_HEADER = "phi,psi_a,psi_b,psi_c,branch,out_phase,out_theta,out_epsilon,residual"

_REPRESENTATIONS = ("jones", "quat", "ellipse", "stokes")


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


def _array(obj, size: int, name: str):
    # a JSON object or a longer array would otherwise be read by its keys or
    # cut to its first elements
    if not (isinstance(obj, list) and len(obj) == size):
        raise BadInput(f"{name} must be a JSON array of {size} numbers")
    return obj


def _load_signal(kind: str, obj):
    try:
        if kind == "quat":
            return Quaternion.from_list(_array(obj, 4, "quat input"))
        if kind == "jones":
            _array(obj["ex"], 2, "ex")
            _array(obj["ey"], 2, "ey")
            return from_jones(JonesVector.from_json_obj(obj))
        if kind == "ellipse":
            return from_ellipse(EllipseParams.from_json_obj(obj))
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise BadInput(f"bad {kind} input: {exc}") from exc
    raise BadInput(f"unknown representation {kind!r}")


def _dump_signal(kind: str, q: Quaternion, degrees: bool):
    if kind == "quat":
        return q.to_list()
    if kind == "jones":
        return to_jones(q).to_json_obj()
    if kind == "stokes":
        return stokes(q).to_json_obj()
    e = to_ellipse(q)
    if degrees:
        return {"r": e.r, "phi_deg": math.degrees(e.phi),
                "epsilon_deg": math.degrees(e.epsilon),
                "theta_deg": math.degrees(e.theta)}
    return e.to_json_obj()


def _finite_number(text: str) -> float:
    # every input number is read as a float; one that overflows (1e999, or an
    # integer literal of 400 digits) is bad input, not a conversion failure
    value = float(text)
    if not math.isfinite(value):
        raise BadInput(f"JSON number {text[:40]} is out of range")
    return value


def _no_constant(name: str):
    raise BadInput(f"JSON input has the non-finite constant {name}")


def _require_number_leaves(obj) -> None:
    # the parse hooks make every JSON number a float; a string, boolean or
    # null is not a number even where float() would read it
    pending = [obj]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, list):
            pending.extend(item)
        elif not isinstance(item, float):
            raise BadInput(f"JSON input has the non-numeric value {item!r:.40}")


def cmd_convert(args) -> int:
    try:
        obj = json.loads(args.input, parse_float=_finite_number, parse_int=_finite_number,
                         parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise BadInput(f"malformed JSON input: {exc}") from exc
    except RecursionError as exc:
        raise BadInput("JSON input is nested too deeply") from exc
    _require_number_leaves(obj)
    if args.src == "stokes":
        if args.dst != "stokes":
            raise UnrecoverableConversion(
                "the optical phase cannot be recovered from Stokes parameters")
        try:
            out = StokesQuaternion.from_json_obj(obj).to_json_obj()
        except (ValueError, TypeError, KeyError) as exc:
            raise BadInput(f"bad stokes input: {exc}") from exc
    else:
        q = _load_signal(args.src, obj)
        try:
            out = _dump_signal(args.dst, q, args.degrees)
        except ValueError as exc:  # e.g. the zero signal has no ellipse
            raise UnrecoverableConversion(f"cannot convert to {args.dst}: {exc}") from exc
    print(_strict_json(out))
    return 0


def _angles_obj(angles: shifter.WaveplateAngles, degrees: bool) -> dict:
    if degrees:
        return {"psi_a_deg": math.degrees(angles.psi_a),
                "psi_b_deg": math.degrees(angles.psi_b),
                "psi_c_deg": math.degrees(angles.psi_c)}
    return {"psi_a": angles.psi_a, "psi_b": angles.psi_b, "psi_c": angles.psi_c}


def cmd_solve(args) -> int:
    q = _parse_quat_arg(args.q, "--q")
    r = _parse_quat_arg(args.r, "--r")
    p = shifter.target_transform(q, r, _finite(args.phi, "--phi"))
    sol = shifter.solve_angles(p)

    def residual(angles):
        return (shifter.forward_transform(angles) - p).norm()

    solutions = []
    if sol.classification is shifter.Classification.REGULAR:
        wanted = (1, 2) if args.branch == "all" else (int(args.branch),)
        for idx in wanted:
            angles = sol.branches[idx - 1]
            entry = {"branch": idx}
            entry.update(_angles_obj(angles, args.degrees))
            entry["residual"] = residual(angles)
            solutions.append(entry)
    else:
        samples = sol.family_samples
        for m, angles in enumerate(samples):
            entry = {"branch": "singular", "parameter": -math.pi / 2 + math.pi * m / len(samples)}
            entry.update(_angles_obj(angles, args.degrees))
            entry["residual"] = residual(angles)
            solutions.append(entry)
    print(_strict_json({"target_p": p.to_list(),
                        "classification": sol.classification.value,
                        "solutions": solutions}))
    return 0


def cmd_ramp(args) -> int:
    q = _parse_quat_arg(args.q, "--q")
    r = _parse_quat_arg(args.r, "--r")
    n = args.samples
    if n < 2:
        raise BadInput("--samples must be at least 2")
    phis = [2.0 * math.pi * k / (n - 1) for k in range(n)]
    points = shifter.ramp_trajectory(q, r, phis)
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for pt in points:
                a = pt.angles
                ell = to_ellipse(q * shifter.forward_transform(a))
                # +0.0 normalizes a negative zero so identical values print identically
                fh.write(f"{pt.phi + 0.0:.12g},{a.psi_a + 0.0:.12g},{a.psi_b + 0.0:.12g},"
                         f"{a.psi_c + 0.0:.12g},{pt.branch_label},{ell.phi + 0.0:.12g},"
                         f"{ell.theta + 0.0:.12g},{ell.epsilon + 0.0:.12g},"
                         f"{pt.residual + 0.0:.12g}\n")
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
            status = "PASS"
        except AssertionError as exc:
            status = "FAIL"
            failures += 1
            print(f"FAIL {name}: {exc}")
            continue
        print(f"{status} {name}")
    if failures:
        print(f"{failures} group(s) failed")
        return 1
    print("all checks passed")
    return 0


def _accept_negative_values(parser: argparse.ArgumentParser) -> None:
    # quaternion arguments like "-0.5,0.5,0.5,0.5" start with '-'; widen the
    # stock negative-number matcher so they are read as values, not options
    try:
        import re
        parser._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d")
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
    p_conv.add_argument("--from", dest="src", required=True, choices=_REPRESENTATIONS)
    p_conv.add_argument("--to", dest="dst", required=True, choices=_REPRESENTATIONS)
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
