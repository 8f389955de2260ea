"""Seeded inputs for the benchmark workloads.

Every value derives from the seed alone, so one seed always gives the same
inputs.  Quaternions are plain 4-tuples here; the program only receives the
numbers (as `Quaternion` objects in-process, as text on its command line).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The paper's two reference ramps: FIG5 stays regular, FIG7 crosses the
# singular set twice.
FIG5 = ((-8 / 9, 2 / 9, 1 / 3, 2 / 9), (2 / 7, -3 / 7, 0.0, -6 / 7))
FIG7 = ((-5 / 6, 1 / 6, 1 / 2, 1 / 6), (1 / 3, -2 / 3, 0.0, -2 / 3))

RAMP_SAMPLES = 4096
CLI_RAMP_SAMPLES = 256

# Solve mix: generic targets, exactly singular targets (c1 = 0 or c2 = 0) and
# near-singular targets with min(|c1|, |c2|) log-uniform in NEAR_C_RANGE.
GENERIC_SHARE = 0.90
SINGULAR_SHARE = 0.05
NEAR_C_RANGE = (1e-16, 1e-1)


@dataclass(frozen=True)
class SolveCase:
    kind: str     # "generic", "singular" or "near"
    q: tuple
    r: tuple
    phi: float
    c: float      # constructed min(|c1|, |c2|); nan for generic cases


@dataclass(frozen=True)
class RampCase:
    label: str    # "fig5", "fig7" or "random"
    q: tuple
    r: tuple


@dataclass(frozen=True)
class CliCase:
    label: str    # "ramp256", "solve" or "check"
    argv: tuple
    q: tuple = ()
    r: tuple = ()
    phi: float = 0.0


def qmul(p: tuple, q: tuple) -> tuple:
    """Hamilton product, written out here so inputs never depend on the program."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + q0 * p1 + p2 * q3 - p3 * q2,
            p0 * q2 + q0 * p2 + p3 * q1 - p1 * q3,
            p0 * q3 + q0 * p3 + p1 * q2 - p2 * q1)


def rand_unit(rng: random.Random) -> tuple:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return tuple(x / n for x in v)


def quat_text(q: tuple) -> str:
    """Full-precision "q0,q1,q2,q3" text, read back bit for bit by float()."""
    return ",".join(repr(float(x)) for x in q)


def _stream(seed: int, name: str) -> random.Random:
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"polquat-bench:{seed}:{name}")


def ramp_cases(seed: int):
    """Endless FIG5, FIG7, random-pair rotation."""
    rng = _stream(seed, "ramp")
    while True:
        yield RampCase("fig5", *FIG5)
        yield RampCase("fig7", *FIG7)
        yield RampCase("random", rand_unit(rng), rand_unit(rng))


def _target_with_c(rng: random.Random, c: float) -> tuple:
    """Unit transform p whose smaller half, c1 or c2, has modulus c."""
    big = math.sqrt(1.0 - c * c)
    a = rng.uniform(-math.pi, math.pi)
    b = rng.uniform(-math.pi, math.pi)
    small_half = (c * math.cos(b), c * math.sin(b))
    big_half = (big * math.cos(a), big * math.sin(a))
    if rng.random() < 0.5:   # c1 = p0 + p2 j small
        return (small_half[0], big_half[0], small_half[1], big_half[1])
    return (big_half[0], small_half[0], big_half[1], small_half[1])


def solve_case(rng: random.Random) -> SolveCase:
    q = rand_unit(rng)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    u = rng.random()
    if u < GENERIC_SHARE:
        return SolveCase("generic", q, rand_unit(rng), phi, math.nan)
    if u < GENERIC_SHARE + SINGULAR_SHARE:
        kind, c = "singular", 0.0
    else:
        lo, hi = (math.log10(x) for x in NEAR_C_RANGE)
        kind, c = "near", 10.0 ** rng.uniform(lo, hi)
    # r = e^(-i phi) q p makes p the exact target: q p = e^(i phi) r
    p = _target_with_c(rng, c)
    r = qmul((math.cos(phi), -math.sin(phi), 0.0, 0.0), qmul(q, p))
    return SolveCase(kind, q, r, phi, c)


def solve_cases(seed: int):
    rng = _stream(seed, "solve")
    while True:
        yield solve_case(rng)


def ramp_argv(q: tuple, r: tuple, samples: int, out: str) -> tuple:
    return ("ramp", "--q=" + quat_text(q), "--r=" + quat_text(r),
            "--samples", str(samples), "--out", out)


def cli_cases(seed: int, csv_path: str):
    """Endless `ramp --samples 256` (FIG5), `solve`, `check` rotation."""
    rng = _stream(seed, "cli")
    q5, r5 = FIG5
    while True:
        yield CliCase("ramp256", ramp_argv(q5, r5, CLI_RAMP_SAMPLES, csv_path), q5, r5)
        q, r = rand_unit(rng), rand_unit(rng)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        yield CliCase("solve", ("solve", "--q=" + quat_text(q), "--r=" + quat_text(r),
                                "--phi", repr(phi)), q, r, phi)
        yield CliCase("check", ("check",))
