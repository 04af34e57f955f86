"""Correctness gate: every CLI operation's output is checked here.

``check(op, result)`` returns ``None`` when the output is right and a
one-line reason otherwise.  Expected exit codes, verdicts and report
fields follow from how the instance was generated; the dense sweep CSV is
compared with an eigenvalue reference built from Kronecker products.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from workloads import BLOCK_FAMILIES, ESTIMATE_EPS, Op, sweep_grid

# Levels from the CLI must match the Kronecker reference to this relative
# accuracy (relative to 1 + |level|).
REFERENCE_RTOL = 1e-9
# Sweeps are held to the reference at this many evenly spaced grid rows.
SAMPLED_ROWS = 5
# A certified instance's gap can fall below the sweep's crossing tolerance
# (1e-8 of 1 + width) at an avoided crossing between distant basis states,
# where the coupling is a high power of (1 - s).  A reported closing (a
# crossing, an estimate refusal) is accepted only if the reference gap
# falls below this share of (1 + width): 100 times the CLI's own
# tolerance, room for a different minimizer.
CLOSING_CONFIRM_RTOL = 1e-6


@dataclass(frozen=True)
class OpResult:
    code: int | None
    stdout: str
    stderr: str
    out_text: str | None
    seconds: float
    error: str | None = None


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _structured(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        _require(bool(sep), f"malformed structured line {line!r}")
        fields[key] = value
    return fields


def _number(fields: dict[str, str], key: str) -> float:
    _require(key in fields, f"missing field {key}")
    try:
        return float(fields[key])
    except ValueError:
        raise CheckFailed(f"field {key} = {fields[key]!r} is not a number") from None


def _condition(text: str, number: int) -> str:
    match = re.search(rf"^condition \({number}\)[^:]*: (\w+)", text, re.MULTILINE)
    _require(match is not None, f"no condition ({number}) line")
    return match.group(1)


class ReferenceCache:
    """Reference levels per (instance, grid, rows, m), computed once."""

    def __init__(self):
        self._levels = {}

    def levels(self, op: Op, rows: tuple[int, ...], m: int) -> np.ndarray:
        key = (op.instance.name, op.grid, rows, m)
        if key not in self._levels:
            self._levels[key] = op.instance.reference_levels(op.grid, rows, m)
        return self._levels[key]


def _sampled_rows(grid: int) -> tuple[int, ...]:
    return tuple(sorted({round(i * (grid - 1) / (SAMPLED_ROWS - 1)) for i in range(SAMPLED_ROWS)}))


def _confirm_closing(op: Op) -> None:
    gap, width = op.instance.reference_min_gap(op.grid)
    _require(
        gap <= CLOSING_CONFIRM_RTOL * (1.0 + width),
        f"reports a closing where the reference minimum gap is {gap:.3e}",
    )


def _confirm_crossing(op: Op, s_star: float, width: float) -> None:
    gap = op.instance.reference_gap_at(s_star)
    _require(
        gap <= CLOSING_CONFIRM_RTOL * (1.0 + width),
        f"reports a crossing at s = {s_star!r} where the reference gap is {gap:.3e}",
    )


def _check_certify(op: Op, r: OpResult) -> None:
    inst = op.instance
    if inst.certified:
        _require(r.code == 0, f"exit {r.code}, expected 0")
        _require(_condition(r.stdout, 1) == "pass", "condition (1) not pass")
        _require(_condition(r.stdout, 2) == "pass", "condition (2) not pass")
        _require("verdict: certified" in r.stdout, "verdict is not certified")
    elif inst.family == "counterexample":
        _require(r.code == 2, f"exit {r.code}, expected 2")
        _require(_condition(r.stdout, 1) == "pass", "condition (1) not pass")
        _require(_condition(r.stdout, 2) == "fail", "condition (2) not fail")
    else:  # weight-conserving: degenerate or zero-component ground state
        _require(r.code == 2, f"exit {r.code}, expected 2")
        _require(_condition(r.stdout, 1) == "fail", "condition (1) not fail")
    if not inst.certified:
        _require("verdict: not certified" in r.stdout, "verdict is not 'not certified'")


def _check_sweep_structured(op: Op, r: OpResult, refs: ReferenceCache) -> None:
    inst = op.instance
    _require(r.code == 0, f"exit {r.code}, expected 0")
    fields = _structured(r.stdout)
    value = _number(fields, "min_gap.value")
    s_min = _number(fields, "min_gap.s")
    width = _number(fields, "spectral_width")
    count = int(_number(fields, "crossings.count"))
    _require(math.isfinite(value) and value >= 0.0, f"min gap {value}")
    _require(0.0 <= s_min < 1.0, f"min gap location {s_min}")
    _require(len(fields) == 4 + count, "crossing lines do not match crossings.count")
    crossings = []
    for k in range(count):
        _require(f"crossings.{k}" in fields, f"missing crossings.{k}")
        s_lo, s_hi, s_star, gap_star = (float(x) for x in fields[f"crossings.{k}"].split())
        _require(s_lo <= s_star <= s_hi, f"crossing {k}: s_star outside its bracket")
        crossings.append((s_lo, s_hi, s_star, gap_star))

    # The reported minimum is refined, so it can only lie below the
    # reference gap at any grid point.
    ref = refs.levels(op, _sampled_rows(op.grid), 2)
    ref_gap = float(np.min(ref[:, 1] - ref[:, 0]))
    _require(
        value <= ref_gap + REFERENCE_RTOL * (1.0 + width),
        f"min gap {value!r} above the reference gap {ref_gap!r} at a grid point",
    )
    if inst.certified:
        # A crossing here is the CLI's tolerance, not a closing: confirm
        # that the reference gap at the reported point is that small too.
        for _, _, s_star, _ in crossings:
            _confirm_crossing(op, s_star, width)
        _require(value > 0.0, "zero minimum gap on a certified instance")
    elif inst.family == "counterexample":
        _require(count == 1, f"{count} crossings, expected 1")
        s_lo, s_hi, _, _ = crossings[0]
        _require(s_lo < 0.5 < s_hi, f"crossing bracket [{s_lo}, {s_hi}] misses 0.5")


def _parse_csv(text: str, grid: int, levels: int) -> np.ndarray:
    lines = text.splitlines()
    header = "s," + ",".join(f"eps{i}" for i in range(levels)) + ",gap1"
    _require(bool(lines) and lines[0] == header, "bad CSV header")
    _require(len(lines) == grid + 1, f"{len(lines) - 1} CSV rows, expected {grid}")
    try:
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError:
        raise CheckFailed("non-numeric CSV field") from None
    _require(rows.shape == (grid, levels + 2), "ragged CSV rows")
    return rows


def _check_sweep_csv(op: Op, r: OpResult, refs: ReferenceCache) -> None:
    _require(r.code == 0, f"exit {r.code}, expected 0")
    _require(r.out_text is not None, "no CSV file written")
    summary = re.fullmatch(r"min_gap = \S+ at s = \S+; crossings = (\d+)\n", r.stdout)
    _require(summary is not None, f"summary line {r.stdout!r}")
    if int(summary.group(1)) > 0:
        _confirm_closing(op)
    rows = _parse_csv(r.out_text, op.grid, op.levels)
    _require(np.array_equal(rows[:, 0], sweep_grid(op.grid)), "grid column differs")
    levels = rows[:, 1:-1]
    gap = levels[:, 1] - levels[:, 0]
    _require(
        bool(np.all(np.abs(rows[:, -1] - gap) <= 1e-12 * (1.0 + np.abs(levels[:, 1])))),
        "gap1 column is not eps1 - eps0",
    )
    rows = _sampled_rows(op.grid)
    ref = refs.levels(op, rows, op.levels)
    defect = np.abs(levels[list(rows)] - ref) / (1.0 + np.abs(ref))
    worst = float(np.max(defect))
    _require(worst <= REFERENCE_RTOL, f"levels differ from the reference by {worst:.3e}")


def _check_verify_proof(op: Op, r: OpResult) -> None:
    if op.instance.certified:
        _require(r.code == 0, f"exit {r.code}, expected 0")
        _require(f"samples: {op.grid}\n" in r.stdout, "sample count line")
        _require("all checks passed at every sampled s" in r.stdout, "chain not all-pass")
    else:
        _require(r.code == 2, f"exit {r.code}, expected 2")
        _require("proof chain not run" in r.stderr, "missing 'not run' notice")


def _check_blocks(op: Op, r: OpResult) -> None:
    _require(op.instance.family in BLOCK_FAMILIES, "blocks on a non-block family")
    _require(r.code == 0, f"exit {r.code}, expected 0")
    expected = [
        f"block k={k}: dim {math.comb(op.instance.n, k)}, verdict certified"
        for k in range(op.instance.n + 1)
    ]
    _require(r.stdout.splitlines() == expected, "block list or verdicts differ")


def _check_estimate(op: Op, r: OpResult) -> None:
    if r.code == 1:
        _require("profile contains gap closings" in r.stderr, f"stderr {r.stderr!r}")
        _confirm_closing(op)
        return
    _require(r.code == 0, f"exit {r.code}, expected 0")
    fields = _structured(r.stdout)
    ratio = _number(fields, "worst_ratio")
    _require(math.isfinite(ratio) and ratio > 0.0, f"worst_ratio {ratio}")
    suggested = _number(fields, "suggested_T")
    _require(abs(suggested - ratio / ESTIMATE_EPS) <= 1e-12 * suggested, "suggested_T")
    _require(_number(fields, "target_epsilon") == ESTIMATE_EPS, "target_epsilon")
    _require(0.0 <= _number(fields, "worst_s") < 1.0, "worst_s outside [0, 1)")
    level = _number(fields, "worst_level")
    _require(level in range(1, op.levels), f"worst_level {level}")


def check(op: Op, r: OpResult, refs: ReferenceCache) -> str | None:
    """Return ``None`` when the output is right, else why it is not."""
    if r.error is not None:
        return f"raised {r.error}"
    try:
        if op.kind == "certify":
            _check_certify(op, r)
        elif op.kind == "sweep" and op.out_path is None:
            _check_sweep_structured(op, r, refs)
        elif op.kind == "sweep":
            _check_sweep_csv(op, r, refs)
        elif op.kind == "verify-proof":
            _check_verify_proof(op, r)
        elif op.kind == "blocks":
            _check_blocks(op, r)
        elif op.kind == "estimate":
            _check_estimate(op, r)
        else:
            return f"no check for operation kind {op.kind!r}"
    except CheckFailed as exc:
        return str(exc)
    return None
