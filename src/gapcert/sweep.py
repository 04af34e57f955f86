"""Spectral sweeps of the interpolation and what they imply.

A sweep samples the lowest ``m`` levels of ``a(t) h_i + b(t) h_p`` on a
uniform grid over the half-open interval [0, 1 - 1/grid_points] (the
endpoint itself is irrelevant to validity: a crossing exactly at the end
does no harm).  The first gap is scanned for (near-)closings: every local
minimum that could hide a closing is refined off-grid, minima below
``1e-8 * (1 + spectral width)`` are reported as crossings, and ``min_gap``
always refers to the refined minimum so it does not depend on whether the
true minimizer lands on a grid point.  Every solve, at a grid point or
inside the refinement, is one call of :func:`~gapcert.spectral.pencil_pairs`
and computes only the levels it reports.

Grid and refinement points share that solve: one driver call per point,
then one stacked pass over the points that phase-fixes and checks every
pair, and the sweep differentiates from its products.  The grid goes
through it in chunks of at most ``CHUNK_BYTES`` of stacked eigenvectors,
the refinement with two levels at one point, or at a step's two probes,
at a time, so a failed check names its point by ``s`` either way.

Every solve also yields, for almost nothing, one block of Hellmann--Feynman
matrix elements ``<psi_k| dH/ds |psi_j>`` (j = 0, 1) from its checked
eigenvectors, with ``dH/ds = a' h_i + b' diag(h_p)`` at the schedule's
one-sided slopes; it reuses the solve's products ``h_i @ V`` and
``diag(h_p) @ V``.  Its diagonal gives the gap's slope, and the gap times
its slope, ``q = d(gap**2)/ds / 2``, guides the refinement.  ``q`` has the
slope's sign, but where two levels cross or nearly cross, ``gap**2`` is
smooth and the gap is not, so ``q`` has a simple root at the minimum.
Where ``q`` at the two ends of a grid step goes (-, +), its root is found
there to ``REFINE_XATOL``.  A step that holds interior sample times of a
tabulated schedule (knots, where the slope jumps) is probed at those, with
one-sided slopes on each side; any other step is probed at its two
golden-section points first, where a dip hidden inside it shows.  A step
whose gap is exactly 0 at an end is not searched.  The block's first
column, ``<psi_k| dH/ds |psi_0>`` for k >= 1, is kept at every grid point
as the profile's ``couplings``.

``estimate_runtime`` turns a crossing-free profile into the standard
worst-case adiabatic ratio ``max |<psi_m| dH |psi_0>| / gap_m**2`` over
the grid and all computed excited levels, read from the couplings, and a
suggested total time ``worst_ratio / target_epsilon``.  A degenerate
excited level counts as one: its numerator is the norm of its couplings,
which does not depend on the basis the eigensolver picked in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .paulialg import HermitianMatrix, _max_abs, diagonal_values
from .specfile import LINEAR, InstanceSpec, ScheduleSpec
from .spectral import (
    CHUNK_BYTES,
    DEGENERACY_RTOL,
    MAX_GRID_POINTS,
    pencil_pairs,
    top_eigenvalue,
)

# A refined gap minimum below CROSSING_RTOL * (1 + spectral width) is a crossing.
CROSSING_RTOL = 1e-8
# Where the gap's slope changes sign from - to + between two solved points,
# the root of gap * slope (the reported location) is found to this absolute
# accuracy in s.
REFINE_XATOL = 1e-12

class CrossingPresent(RuntimeError):
    """A runtime estimate was requested for a profile with crossings."""


class MinGap(NamedTuple):
    value: float
    s: float


class CrossingInterval(NamedTuple):
    """A bracketed gap closing: the bracketing grid interval, the refined
    location of the minimum, and the refined gap value there."""

    s_lo: float
    s_hi: float
    s_star: float
    gap_star: float


@dataclass(frozen=True, eq=False)
class GapProfile:
    """Result of one sweep.

    ``grid`` holds the scaled times, ``levels`` the lowest eigenvalues
    (one row per grid point, ascending), ``gap1`` the first gap,
    ``couplings`` the matrix elements ``<psi_k| dH/ds |psi_0>`` for
    k = 1..m-1 (shape ``(points, m - 1)``, real when the eigenvectors
    are), and ``schedule`` the coefficient functions the sweep used
    (linear for plain sweeps).
    """

    grid: np.ndarray
    levels: np.ndarray
    gap1: np.ndarray
    min_gap: MinGap
    crossings: tuple[CrossingInterval, ...]
    spectral_width: float
    schedule: ScheduleSpec
    couplings: np.ndarray

    def __post_init__(self) -> None:
        if self.levels.ndim != 2 or self.levels.shape[0] != self.grid.size:
            raise ValueError("levels shape inconsistent with grid")
        if self.gap1.shape != (self.grid.size,):
            raise ValueError("gap1 shape inconsistent with grid")
        if self.couplings.shape != (self.grid.size, self.levels.shape[1] - 1):
            raise ValueError("couplings shape inconsistent with levels")
        for array in (self.grid, self.levels, self.gap1, self.couplings):
            array.flags.writeable = False

    @property
    def crossing_tolerance(self) -> float:
        return CROSSING_RTOL * (1.0 + self.spectral_width)


def _schedule_max_slopes(schedule: ScheduleSpec) -> tuple[float, float]:
    da, db = schedule.slopes([0.0, *schedule.knots])
    return float(np.max(np.abs(da))), float(np.max(np.abs(db)))


def _hellmann_feynman(av, pv, vecs, da, db) -> tuple[np.ndarray, np.ndarray]:
    """The gap's slope and the couplings at a stack of solved points.

    ``vecs`` holds each point's eigenvectors of ``a h_i + b diag(hp)``,
    shape ``(points, d, m)``, ``av`` and ``pv`` the products ``h_i @ vecs``
    and ``diag(hp) @ vecs``, and ``da``, ``db`` the schedule's slopes
    there, shape ``(points,)``.  The block
    ``<psi_k| dH/ds |psi_j>``, j = 0, 1, gives the gap's slope
    ``E_1' - E_0'`` on its diagonal (Hellmann--Feynman) and the couplings
    ``<psi_k| dH/ds |psi_0>``, k >= 1, in its first column.
    """
    derivative = da[:, None, None] * av[:, :, :2] + db[:, None, None] * pv[:, :, :2]
    block = vecs.conj().swapaxes(1, 2) @ derivative
    return (block[:, 1, 1] - block[:, 0, 0]).real, block[:, 1:, 0]


# Golden-section fraction: where a bounded search of a bracket probes first.
_GOLDEN = 0.5 * (3.0 - 5.0**0.5)
# The root search's relative tolerance: scipy's brentq default.
_ROOT_RTOL = 4.0 * np.finfo(float).eps


class _Refined(NamedTuple):
    x: float  # where the refined minimum lies
    fun: float  # its gap
    nfev: int  # how many new points the refinement solved


def _slope_root(slope, xpre: float, fpre: float, xcur: float, fcur: float, xtol: float) -> float:
    """A root of ``slope`` between ``xpre`` and ``xcur``, where its known
    values ``fpre`` and ``fcur`` are nonzero and of opposite sign.

    Brent's method (R. P. Brent, *Algorithms for Minimization Without
    Derivatives*, 1973, ch. 4), ported step for step from scipy's ``brentq``
    with its default ``rtol`` and 100 iterations: ``slope`` is called at
    exactly the points scipy's calls after the two ends.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = slope(xcur)
    return xcur


def _slope_guided(fun, bracket, known, knots=()) -> _Refined:
    """The crossing refinement of one candidate.

    ``bracket`` lists two or three consecutive grid points and
    ``fun(points)`` returns ``(gap, left slope, right slope)`` at each of a
    sequence of points, from one solve; the two slopes differ only at a
    ``knot``, an interior sample time of a tabulated schedule, where the
    schedule's own slopes jump.  ``known`` maps every point solved so far,
    each bracket point included, to that triple; it grows in place, so a
    point shared with an earlier candidate is never solved twice and
    ``nfev`` counts new points only.

    The search runs on ``q = gap * slope = d(gap**2)/ds / 2``, which has
    the slope's sign wherever the gap is positive.  Near two levels that
    cross or nearly cross, ``gap**2`` is smooth where the gap itself has a
    kink, so ``q`` has a simple root at the minimum either way.  A grid
    step whose end values of ``q`` go (-, +) holds a minimum: the root of
    ``q`` is found there to ``REFINE_XATOL``, starting from the known end
    values.  A step that holds knots gets them as its probes; any other
    step first gets its two golden-section probes, solved together, which
    is where a dip hidden inside it shows.  Each piece the probes leave
    whose end values go (-, +) is refined the same way.  A step with a
    zero gap at an end gets no search: that end is its minimum.  The
    result is the smallest gap evaluated strictly between the bracket's
    grid points, or at the best of them when nothing there was solved.
    """
    solved = len(known)
    inside: list[float] = []

    def evaluate(points: tuple[float, ...]) -> None:
        new = [s for s in points if s not in known]
        if new:
            known.update(zip(new, fun(new)))
        inside.extend(s for s in points if s not in bracket)

    def rising(s: float) -> float:  # q at a known point, right-hand slope
        gap, _, slope = known[s]
        return gap * slope

    def falling(s: float) -> float:  # q at a known point, left-hand slope
        gap, slope, _ = known[s]
        return gap * slope

    def rate(s: float) -> float:
        evaluate((s,))
        return rising(s)

    for lo, hi in zip(bracket, bracket[1:]):
        points: tuple[float, ...] = tuple(t for t in knots if lo < t < hi)
        if points:
            evaluate(points)
        elif known[lo][0] == 0.0 or known[hi][0] == 0.0:
            continue
        elif not rising(lo) < 0.0 < falling(hi):
            points = (lo + _GOLDEN * (hi - lo), hi - _GOLDEN * (hi - lo))
            evaluate(points)
        points = (lo, *points, hi)
        for left, right in zip(points, points[1:]):
            if rising(left) < 0.0 < falling(right):
                _slope_root(rate, left, rising(left), right, falling(right), REFINE_XATOL)
    s_best = min(inside or bracket, key=lambda s: known[s][0])
    return _Refined(x=s_best, fun=known[s_best][0], nfev=len(known) - solved)


# The name gapbench/spans.py traces the refinement by; its tracer rebinds
# every attribute holding the function, the one sweep_pair calls included.
minimize_scalar = _slope_guided


def sweep_pair(
    h_i: HermitianMatrix,
    h_p,
    grid_points: int = 1001,
    m_levels: int | None = None,
    schedule: ScheduleSpec = LINEAR,
) -> GapProfile:
    """Sweep an explicit operator pair (see module docstring).

    ``h_p`` may take any form :func:`~gapcert.paulialg.diagonal_values`
    accepts.  ``m_levels`` defaults to 4, clamped to the dimension.
    """
    if grid_points < 2:
        raise ValueError("grid needs at least two points")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"grid takes at most {MAX_GRID_POINTS} points, got {grid_points}")
    hp = diagonal_values(h_p, h_i.dim)
    d = h_i.dim
    if m_levels is None:
        m_levels = min(4, d)
    if not 2 <= m_levels <= d:
        raise ValueError(f"m_levels must lie in 2..{d}, got {m_levels}")

    grid = np.linspace(0.0, 1.0 - 1.0 / grid_points, grid_points)
    # h_i was validated (and, if real, stored as float64) when it was built;
    # every operator below is Hermitian by construction.
    A = h_i.entries

    # every point's operator is formed in this one work array
    operator = np.empty_like(A)
    # the size of each operator's entries is at most a * |A| + b * |hp|
    max_a, max_hp = _max_abs(A), float(np.max(np.abs(hp)))

    knots = schedule.knots

    def solve(points: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
        # The one solve of the sweep, at grid and refinement points alike:
        # the pencil's checked pairs, then the Hellmann--Feynman block,
        # which reuses its products of h_i and of diag(hp) with the vectors.
        # Its gap slope is the right-hand one; at a knot the schedule's
        # slopes jump, and the left-hand slope takes a second block there.
        a, b = schedule.coefficients(points)
        values, vecs, av, pv = pencil_pairs(
            A, hp, a, b, m, points, a * max_a + b * max_hp, operator
        )
        rises, couplings = _hellmann_feynman(av, pv, vecs, *schedule.slopes(points))
        falls = rises
        if knots and (at := np.isin(points, knots)).any():
            falls = rises.copy()
            falls[at] = _hellmann_feynman(
                av[at], pv[at], vecs[at], *schedule.slopes(points[at], side="left")
            )[0]
        return values, falls, rises, couplings

    per_chunk = max(1, CHUNK_BYTES // (d * m_levels * A.itemsize))
    chunks = [
        solve(grid[start : start + per_chunk], m_levels)
        for start in range(0, grid_points, per_chunk)
    ]
    # the couplings' dtype is the solved eigenvectors' own
    levels, falls, rises, couplings = (np.concatenate(parts) for parts in zip(*chunks))
    gap1 = levels[:, 1] - levels[:, 0]
    width = float(levels.max() - levels.min())
    tolerance = CROSSING_RTOL * (1.0 + width)

    def gaps_and_slopes(points: list[float]) -> list[tuple[float, float, float]]:
        w, left, right, _ = solve(np.array(points), 2)
        return list(zip((w[:, 1] - w[:, 0]).tolist(), left.tolist(), right.tolist()))

    # Any true closing between grid points leaves a local minimum whose
    # grid value is at most (gap slope) * (grid step); only those need a
    # crossing-refinement pass.  The global minimum is always refined so
    # min_gap does not depend on grid placement.
    slope_a, slope_b = _schedule_max_slopes(schedule)
    # |h_i| is the larger of the top eigenvalues of h_i and of -h_i.  Every
    # schedule has a(0) = 1 and b(0) = 0 and grid[0] is 0, so the first grid
    # operator is h_i itself and -levels[0, 0] is the top eigenvalue of -h_i.
    norm_a = max(top_eigenvalue(A), -float(levels[0, 0]))
    gap_slope = 2.0 * (slope_a * norm_a + slope_b * max_hp)
    step = grid[1] - grid[0]
    candidate_cut = max(tolerance, 2.0 * gap_slope * step)

    # a local minimum is no higher than either neighbour; the ends have one
    beside = np.pad(gap1, 1, constant_values=np.inf)
    low = (gap1 <= candidate_cut) & (gap1 <= beside[:-2]) & (gap1 <= beside[2:])
    candidates = {int(np.argmin(gap1)), *np.flatnonzero(low).tolist()}

    # each candidate's bracket and refined minimum, closing or not
    refined: list[CrossingInterval] = []
    known: dict[float, tuple[float, float, float]] = {}
    for k in sorted(candidates):
        around = range(max(k - 1, 0), min(k + 2, grid_points))
        known.update(
            (float(grid[j]), (float(gap1[j]), float(falls[j]), float(rises[j]))) for j in around
        )
        bracket = tuple(float(grid[j]) for j in around)
        result = _slope_guided(gaps_and_slopes, bracket, known, knots)
        s_star, g_star = float(result.x), float(result.fun)
        if gap1[k] < g_star:  # keep the better of grid vs refined
            s_star, g_star = float(grid[k]), float(gap1[k])
        refined.append(CrossingInterval(bracket[0], bracket[-1], s_star, g_star))

    crossings: list[CrossingInterval] = []
    for interval in refined:
        if interval.gap_star > tolerance:
            continue
        if crossings and abs(interval.s_star - crossings[-1].s_star) <= step:
            continue  # same closing reached from two adjacent candidates
        crossings.append(interval)

    # the grid's minimum is a candidate, so this is never above it
    best = min(refined, key=lambda interval: interval.gap_star)

    return GapProfile(
        grid=grid,
        levels=levels,
        gap1=gap1,
        min_gap=MinGap(value=best.gap_star, s=best.s_star),
        crossings=tuple(crossings),
        spectral_width=width,
        schedule=schedule,
        couplings=couplings,
    )


def schedule_sweep(
    instance: InstanceSpec,
    schedule: ScheduleSpec | None = None,
    grid_points: int = 1001,
    m_levels: int | None = None,
) -> GapProfile:
    """Sweep ``a(t) h_i + b(t) h_p`` along a (possibly tabulated) schedule.

    Defaults to the instance's own schedule.  The profile grid is the
    scaled time t/T.
    """
    if schedule is None:
        schedule = instance.schedule
    return sweep_pair(
        instance.h_i_matrix(),
        instance.h_p,
        grid_points=grid_points,
        m_levels=m_levels,
        schedule=schedule,
    )


@dataclass(frozen=True)
class RuntimeEstimate:
    """Worst-case adiabatic ratio over a crossing-free profile and the
    total-time suggestion ``worst_ratio / target_epsilon``."""

    worst_ratio: float
    target_epsilon: float
    worst_s: float
    worst_level: int

    @property
    def suggested_T(self) -> float:
        return self.worst_ratio / self.target_epsilon


def check_target_epsilon(target_epsilon: float) -> None:
    """Raise ``ValueError`` unless the error budget is positive and finite."""
    if not 0.0 < target_epsilon < np.inf:
        raise ValueError(f"target_epsilon must be positive and finite, got {target_epsilon}")


def estimate_runtime(profile: GapProfile, target_epsilon: float = 0.1) -> RuntimeEstimate:
    """Worst-case ratio ``|<psi_m| dH |psi_0>| / gap_m**2`` over the grid.

    The numerators are the profile's ``couplings``.  Computed levels
    within ``DEGENERACY_RTOL * (1 + spectral width)`` of each other form
    one level, whose numerator is the norm of its members' couplings and
    whose gap is that of its lowest member; ``worst_level`` names that
    member.  A level that continues past the highest computed one is
    summed over its computed members only, so sweep with more levels if
    the top one is degenerate.

    Raises :class:`CrossingPresent` when the profile contains crossings
    (the ratio diverges), and ``ValueError`` when ``target_epsilon`` is not
    positive and finite.
    """
    if profile.crossings:
        raise CrossingPresent(
            "profile contains gap closings; the adiabatic ratio is undefined"
        )
    check_target_epsilon(target_epsilon)

    tolerance = DEGENERACY_RTOL * (1.0 + profile.spectral_width)
    gaps = profile.levels[:, 1:] - profile.levels[:, :1]
    # leads[p, k]: level k + 1 is the lowest member of a level at point p;
    # every member adds its squared couplings into that level's bin
    leads = np.diff(gaps, axis=1, prepend=-np.inf) > tolerance
    rows, slots = gaps.shape
    bins = np.cumsum(leads, axis=1) - 1 + slots * np.arange(rows)[:, np.newaxis]
    weights = np.bincount(
        bins.ravel(), np.abs(profile.couplings.ravel()) ** 2, minlength=rows * slots
    )[bins]
    ratios = np.where(leads, np.sqrt(weights) / gaps**2, 0.0)
    point, slot = divmod(int(np.argmax(ratios)), slots)
    return RuntimeEstimate(
        worst_ratio=float(ratios[point, slot]),
        target_epsilon=target_epsilon,
        worst_s=float(profile.grid[point]),
        worst_level=slot + 1,
    )


# CSV rows formatted at a time, so that no Python list holds the whole table
_EXPORT_ROWS = 4096


def export_profile(profile: GapProfile) -> str:
    """Render a profile as CSV: ``s,eps0,...,epsM,gap1``, one row per grid
    point, 17 significant digits (bit-exact round trip)."""
    m = profile.levels.shape[1]
    blocks = ["s," + ",".join(f"eps{i}" for i in range(m)) + ",gap1\n"]
    for start in range(0, profile.grid.size, _EXPORT_ROWS):
        rows = slice(start, start + _EXPORT_ROWS)
        table = np.column_stack((profile.grid[rows], profile.levels[rows], profile.gap1[rows]))
        blocks.append("".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table.tolist()))
    return "".join(blocks)


def summarize_profile(profile: GapProfile) -> str:
    """One-line sweep summary."""
    return (
        f"min_gap = {profile.min_gap.value:.6g} at s = {profile.min_gap.s:.6g}; "
        f"crossings = {len(profile.crossings)}"
    )


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def export_svg(profile: GapProfile, width: int = 640, height: int = 420) -> str:
    """Minimal standalone SVG of the level curves (presentation only;
    the drawn points are exactly the CSV data)."""
    pad = 40
    xs = profile.grid
    ys = profile.levels
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x: float) -> float:
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="#444"/>',
    ]
    for m in range(ys.shape[1]):
        color = _SVG_COLORS[m % len(_SVG_COLORS)]
        points = " ".join(
            f"{sx(float(xs[i])):.2f},{sy(float(ys[i, m])):.2f}" for i in range(xs.size)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
    mx, my = sx(profile.min_gap.s), sy(float(ys.min()))
    parts.append(
        f'<line x1="{mx:.2f}" y1="{pad}" x2="{mx:.2f}" y2="{height - pad}" '
        f'stroke="#999" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<text x="{pad}" y="{pad - 10}" font-family="monospace" font-size="12">'
        f"min gap {profile.min_gap.value:.4g} at {profile.min_gap.s:.4g}; "
        f"{len(profile.crossings)} crossing(s)</text>"
    )
    parts.append(f'<text x="{width - pad - 10}" y="{height - pad + 24}" '
                 f'font-family="monospace" font-size="12">s</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
