"""Independent checks of every benchmark output.

Residuals are re-derived through the Jones-matrix embedding of
`polquat.jones` (`M(pq) = M(q) M(p)`), built here from the paper's plate
definitions with numpy.  No quaternion, waveplate or solver code of the
program is used, so a wrong program cannot vouch for itself.

Two verdicts come out of a check:

* a *failure* means the operation missed the acceptance bound (residual above
  ACCEPT_BOUND) or the CLI contract (exit code, CSV shape, strict JSON);
  failures are counted into `failed` / `fail_share`;
* a *known miss* is the one accuracy miss the program is known to make
  (ROADMAP item 3): a near-singular target, 0 < min(|c1|,|c2|) = c, solved as
  if it were exactly singular, so the returned family leaves a residual of
  about c.  A residual above ACCEPT_BOUND but within the caller's
  `known_bound` (2 c + ACCEPT_BOUND) is counted as a known miss
  (`near_miss_share`), not as a failure; any larger residual still fails;
* a *wrong* finding means the output is not a usable answer at all: the
  operation crashed or printed something unparseable, a residual exceeds
  WRONG_BOUND, or the program's own residual disagrees with the oracle.  Any
  wrong finding makes the run's `correct` false.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from polquat import jones

# the residual bound `polquat check` and the acceptance suite apply
ACCEPT_BOUND = 1e-9
# an answer off by more than this is wrong, not merely imprecise
WRONG_BOUND = 1e-6
# largest tolerated gap between a residual the program reports and the
# oracle's; the CSV's 12 significant digits keep the oracle within ~1e-11
AGREE_BOUND = 1e-10

CSV_HEADER = "phi,psi_a,psi_b,psi_c,branch,out_phase,out_theta,out_epsilon,residual"
BRANCH_LABELS = ("1", "2", "singular")
CLASSIFICATIONS = ("regular", "singular_a", "singular_b")
FAMILY_SIZE = 16

_QWP = np.sqrt(0.5) * (jones.M_ONE + jones.M_I)   # M(exp(i pi/4))
_HWP = jones.M_I                                  # M(i)


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    known: list = field(default_factory=list)   # known misses, see the module doc

    def fail(self, reason: str, *, wrong: bool = False) -> None:
        self.failures.append(reason)
        if wrong:
            self.wrong.append(reason)


def embed(x) -> np.ndarray:
    """Stack of oracle matrices for quaternions x of shape (..., 4)."""
    x = np.asarray(x, dtype=float)[..., None, None]
    return (x[..., 0, :, :] * jones.M_ONE + x[..., 1, :, :] * jones.M_I
            + x[..., 2, :, :] * jones.M_J + x[..., 3, :, :] * jones.M_K)


def _rotated(base: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """M(e^(-j psi) plate e^(j psi)) = M(e^(j psi)) M(plate) M(e^(-j psi))."""
    c = np.cos(psi)[..., None, None]
    s = np.sin(psi)[..., None, None]
    return (c * jones.M_ONE + s * jones.M_J) @ base @ (c * jones.M_ONE - s * jones.M_J)


def oracle_residuals(q, r, phi, angles) -> np.ndarray:
    """|q * F(psi_a, psi_b, psi_c) - e^(i phi) r| for a stack of cases.

    q, r broadcast against phi (shape (n,)) as (n, 4) or (4,); angles is
    (n, 3).  F = qwp(psi_a) hwp(psi_b) qwp(psi_c) in propagation order, so
    M(q F) = M(qwp_c) M(hwp_b) M(qwp_a) M(q).  For any quaternion x the
    Frobenius norm of M(x) is sqrt(2) |x|.
    """
    phi = np.asarray(phi, dtype=float)
    angles = np.asarray(angles, dtype=float).reshape(-1, 3)
    stack = (_rotated(_QWP, angles[:, 2]) @ _rotated(_HWP, angles[:, 1])
             @ _rotated(_QWP, angles[:, 0]))
    got = stack @ embed(q)
    phase = (np.cos(phi)[..., None, None] * jones.M_ONE
             + np.sin(phi)[..., None, None] * jones.M_I)
    want = embed(r) @ phase
    return np.sqrt(0.5) * np.linalg.norm(got - want, axis=(-2, -1))


def judge_residuals(verdict: Verdict, oracle, reported=None, what: str = "",
                    known_bound: float = 0.0) -> None:
    """Apply the residual bounds to the oracle's residuals and, when given, to
    the residuals the program reported for the same triples.  A residual above
    ACCEPT_BOUND and at most `known_bound` is a known miss, not a failure."""
    oracle = np.asarray(oracle, dtype=float)
    worst = float(oracle.max()) if oracle.size else 0.0
    if not np.isfinite(oracle).all() or worst > WRONG_BOUND:
        verdict.fail(f"{what}oracle residual {worst:.3g} is a wrong answer", wrong=True)
    elif ACCEPT_BOUND < worst <= known_bound:
        verdict.known.append(f"{what}residual {worst:.3g} of a near-singular target "
                             f"solved as singular")
    elif worst > ACCEPT_BOUND:
        verdict.fail(f"{what}residual {worst:.3g} above {ACCEPT_BOUND:g}")
    if reported is not None:
        gap = np.abs(np.asarray(reported, dtype=float) - oracle)
        if gap.size and not gap.max() <= AGREE_BOUND:
            verdict.fail(f"{what}reported residual disagrees with the oracle by "
                         f"{gap.max():.3g}", wrong=True)


def strict_json(text: str):
    """json.loads that rejects the non-standard NaN / Infinity constants."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _finite_floats(fields) -> list:
    values = [float(x) for x in fields]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite value")
    return values


def check_ramp_csv(verdict: Verdict, text: str, q, r, samples: int) -> None:
    """Check a ramp CSV written for input q, output r and `samples` phases."""
    lines = text.split("\n")
    if lines[-1] != "":
        verdict.fail("CSV does not end with a newline", wrong=True)
        return
    lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        verdict.fail("wrong CSV header", wrong=True)
        return
    rows = lines[1:]
    if len(rows) != samples:
        verdict.fail(f"{len(rows)} CSV rows for {samples} samples", wrong=True)
        return
    try:
        table = []
        for row in rows:
            fields = row.split(",")
            if len(fields) != 9 or fields[4] not in BRANCH_LABELS:
                raise ValueError(f"malformed row {row!r}")
            table.append(_finite_floats(fields[:4] + fields[5:]))
    except ValueError as exc:
        verdict.fail(f"CSV: {exc}", wrong=True)
        return
    data = np.array(table)
    want_phi = 2.0 * np.pi * np.arange(samples) / (samples - 1)
    if np.abs(data[:, 0] - want_phi).max() > 1e-9:
        verdict.fail("phi column is not the 2*pi*k/(n-1) grid", wrong=True)
    oracle = oracle_residuals(q, r, data[:, 0], data[:, 1:4])
    judge_residuals(verdict, oracle, data[:, 7], "ramp ")


def check_solve_json(verdict: Verdict, text: str, q, r, phi: float) -> None:
    """Check `polquat solve` stdout against the oracle."""
    try:
        obj = strict_json(text)
        cls = obj["classification"]
        solutions = obj["solutions"]
        angles = [[float(s["psi_a"]), float(s["psi_b"]), float(s["psi_c"])]
                  for s in solutions]
        reported = [float(s["residual"]) for s in solutions]
    except (ValueError, KeyError, TypeError) as exc:
        verdict.fail(f"solve output: {exc}", wrong=True)
        return
    want = 2 if cls == "regular" else FAMILY_SIZE
    if cls not in CLASSIFICATIONS or len(angles) != want:
        verdict.fail(f"{len(angles)} solutions for classification {cls!r}", wrong=True)
        return
    judge_residuals(verdict, oracle_residuals(q, r, np.full(want, phi), angles),
                    reported, "solve ")


def check_check_output(verdict: Verdict, text: str) -> None:
    lines = text.strip().split("\n")
    groups = lines[:-1]
    if lines[-1] != "all checks passed" or not all(g.startswith("PASS ") for g in groups):
        verdict.fail("check reported a failing group", wrong=True)


def check_exit(verdict: Verdict, code: int, stderr: str = "") -> bool:
    if code != 0:
        verdict.fail(f"exit code {code}: {stderr.strip()[-200:]}", wrong=True)
        return False
    return True
