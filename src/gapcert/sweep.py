"""Spectral sweeps of the interpolation and what they imply.

A sweep samples the lowest ``m`` levels of ``a(t) h_i + b(t) h_p`` on a
uniform grid over the half-open interval [0, 1 - 1/grid_points] (the
endpoint itself is irrelevant to validity: a crossing exactly at the end
does no harm).  The first gap is scanned for (near-)closings: every local
minimum that could hide a closing is refined off-grid, minima below
``1e-8 * (1 + spectral width)`` are reported as crossings, and ``min_gap``
always refers to the refined minimum so it does not depend on whether the
true minimizer lands on a grid point.  Every solve, at a grid point or
inside the refinement, goes through :func:`~gapcert.spectral.low_spectrum`
and computes only the levels it reports.

Every solve also yields, for almost nothing, one block of Hellmann--Feynman
matrix elements ``<psi_k| dH/ds |psi_j>`` (j = 0, 1) from its checked
eigenvectors, with ``dH/ds = a' h_i + b' diag(h_p)`` at the schedule's
one-sided slopes.  Its diagonal gives the gap's slope, which guides the
refinement: where the slopes at the two ends of a grid step go (-, +), the
slope's root is found there to ``REFINE_XATOL``; any other step is probed
at its two golden-section points first, where a dip hidden inside it
shows.  Its first column, ``<psi_k| dH/ds |psi_0>`` for k >= 1, is kept at
every grid point as the profile's ``couplings``.

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
from scipy.optimize import OptimizeResult, brentq, minimize_scalar

from .paulialg import HermitianMatrix, diagonal_values
from .specfile import LINEAR, InstanceSpec, ScheduleSpec
from .spectral import DEGENERACY_RTOL, low_spectrum, top_eigenvalue

# A refined gap minimum below CROSSING_RTOL * (1 + spectral width) is a crossing.
CROSSING_RTOL = 1e-8
# Where the gap's slope changes sign from - to + between two solved points,
# its root (the reported location) is found to this absolute accuracy in s.
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
    starts = [0.0] if schedule.kind == "linear" else [t for t, _, _ in schedule.samples[:-1]]
    da, db = schedule.slopes(starts)
    return float(np.max(np.abs(da))), float(np.max(np.abs(db)))


def _hellmann_feynman(A, hp, vecs, da, db) -> tuple[float, np.ndarray]:
    """The gap's slope and the couplings at one solved point.

    ``vecs`` holds the point's eigenvectors of ``a h_i + b diag(hp)``
    (``A`` is ``h_i``'s array) and ``da``, ``db`` the schedule's slopes
    there.  The block ``<psi_k| dH/ds |psi_j>``, j = 0, 1, gives the gap's
    slope ``E_1' - E_0'`` on its diagonal (Hellmann--Feynman) and the
    couplings ``<psi_k| dH/ds |psi_0>``, k >= 1, in its first column.
    """
    pair = vecs[:, :2]
    block = vecs.conj().T @ (da * (A @ pair) + db * (hp[:, None] * pair))
    return float((block[1, 1] - block[0, 0]).real), block[1:, 0]


# Golden-section fraction: where a bounded search of a bracket probes first.
_GOLDEN = 0.5 * (3.0 - 5.0**0.5)


def _slope_guided(fun, args, bracket, bounds, known, xatol) -> OptimizeResult:
    """``minimize_scalar`` method of the crossing refinement.

    ``bracket`` lists two or three consecutive grid points and ``fun(s)``
    returns ``(gap, slope)``.  ``known`` maps every point solved so far,
    each bracket point included, to that pair; it grows in place, so a
    point shared with an earlier candidate is never solved twice and
    ``nfev`` counts new solves only.  ``bounds`` is unused.

    A grid step whose end slopes go (-, +) holds a minimum: the slope's
    root is found there to ``xatol``, starting from the known end values.
    Any other step first gets its two golden-section probes, which is
    where a dip hidden inside it shows, and each of the three pieces they
    leave whose end slopes go (-, +) is refined the same way.  The result
    is the smallest gap evaluated strictly between the bracket's grid
    points.
    """
    nfev = 0
    inside: list[float] = []

    def evaluate(s: float) -> tuple[float, float]:
        nonlocal nfev
        if s not in known:
            known[s] = fun(s, *args)
            nfev += 1
        if s not in bracket:
            inside.append(s)
        return known[s]

    for lo, hi in zip(bracket, bracket[1:]):
        points: tuple[float, ...] = (lo, hi)
        if not known[lo][1] < 0.0 < known[hi][1]:
            probes = (lo + _GOLDEN * (hi - lo), hi - _GOLDEN * (hi - lo))
            for s in probes:
                evaluate(s)
            points = (lo, *probes, hi)
        for left, right in zip(points, points[1:]):
            if known[left][1] < 0.0 < known[right][1]:
                brentq(lambda s: evaluate(s)[1], left, right, xtol=xatol, disp=False)
    s_best = min(inside, key=lambda s: known[s][0])
    return OptimizeResult(x=s_best, fun=known[s_best][0], nfev=nfev, success=True)


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
    hp = diagonal_values(h_p, h_i.dim)
    d = h_i.dim
    if m_levels is None:
        m_levels = min(4, d)
    if not 2 <= m_levels <= d:
        raise ValueError(f"m_levels must lie in 2..{d}, got {m_levels}")

    grid = np.linspace(0.0, 1.0 - 1.0 / grid_points, grid_points)
    a, b = schedule.coefficients(grid)
    # h_i was validated (and, if real, stored as float64) when it was built;
    # every grid operator below is Hermitian by construction.
    A = h_i.entries
    diagonal = np.diag_indices(d)

    def operator_at(aa: float, bb: float) -> np.ndarray:
        op = aa * A
        op[diagonal] += bb * hp
        return op

    da, db = schedule.slopes(grid)
    levels = np.empty((grid_points, m_levels))
    slopes = np.empty(grid_points)
    # collected as returned, so their dtype is the eigenvectors' own
    couplings = []
    for idx in range(grid_points):
        values, vecs = low_spectrum(operator_at(a[idx], b[idx]), m_levels)
        levels[idx] = values
        slopes[idx], coupling = _hellmann_feynman(A, hp, vecs, da[idx], db[idx])
        couplings.append(coupling)
    gap1 = levels[:, 1] - levels[:, 0]
    width = float(levels.max() - levels.min())
    tolerance = CROSSING_RTOL * (1.0 + width)

    def gap_and_slope(tau: float) -> tuple[float, float]:
        at = np.array([tau])
        (aa,), (bb,) = schedule.coefficients(at)
        (da_t,), (db_t,) = schedule.slopes(at)
        w, pair = low_spectrum(operator_at(aa, bb), 2)
        return float(w[1] - w[0]), _hellmann_feynman(A, hp, pair, da_t, db_t)[0]

    # Any true closing between grid points leaves a local minimum whose
    # grid value is at most (gap slope) * (grid step); only those need a
    # crossing-refinement pass.  The global minimum is always refined so
    # min_gap does not depend on grid placement.
    slope_a, slope_b = _schedule_max_slopes(schedule)
    # |h_i| is the larger of the top eigenvalues of h_i and of -h_i.  Every
    # schedule has a(0) = 1 and b(0) = 0 and grid[0] is 0, so the first grid
    # operator is h_i itself and -levels[0, 0] is the top eigenvalue of -h_i.
    norm_a = max(top_eigenvalue(A), -float(levels[0, 0]))
    gap_slope = 2.0 * (slope_a * norm_a + slope_b * float(np.max(np.abs(hp))))
    step = grid[1] - grid[0]
    candidate_cut = max(tolerance, 2.0 * gap_slope * step)

    def is_local_minimum(k: int) -> bool:
        left_ok = k == 0 or gap1[k] <= gap1[k - 1]
        right_ok = k == grid_points - 1 or gap1[k] <= gap1[k + 1]
        return left_ok and right_ok

    candidates = {int(np.argmin(gap1))}
    candidates.update(
        k
        for k in range(grid_points)
        if gap1[k] <= candidate_cut and is_local_minimum(k)
    )

    refined: list[tuple[int, float, float]] = []
    known: dict[float, tuple[float, float]] = {}
    for k in sorted(candidates):
        around = range(max(k - 1, 0), min(k + 2, grid_points))
        known.update((float(grid[j]), (float(gap1[j]), float(slopes[j]))) for j in around)
        result = minimize_scalar(
            gap_and_slope,
            bracket=tuple(float(grid[j]) for j in around),
            method=_slope_guided,
            options={"known": known, "xatol": REFINE_XATOL},
        )
        s_star, g_star = float(result.x), float(result.fun)
        if gap1[k] < g_star:  # keep the better of grid vs refined
            s_star, g_star = float(grid[k]), float(gap1[k])
        refined.append((k, s_star, g_star))

    crossings = []
    last_star = None
    for k, s_star, g_star in refined:
        if g_star > tolerance:
            continue
        if last_star is not None and abs(s_star - last_star) <= step:
            continue  # same closing reached from two adjacent candidates
        crossings.append(
            CrossingInterval(
                s_lo=float(grid[max(k - 1, 0)]),
                s_hi=float(grid[min(k + 1, grid_points - 1)]),
                s_star=s_star,
                gap_star=g_star,
            )
        )
        last_star = s_star

    best_k, best_s, best_g = min(refined, key=lambda item: item[2])
    grid_k = int(np.argmin(gap1))
    if gap1[grid_k] < best_g:
        best_s, best_g = float(grid[grid_k]), float(gap1[grid_k])
    minimum = MinGap(value=best_g, s=best_s)

    return GapProfile(
        grid=grid,
        levels=levels,
        gap1=gap1,
        min_gap=minimum,
        crossings=tuple(crossings),
        spectral_width=width,
        schedule=schedule,
        couplings=np.array(couplings),
    )


def gap_sweep(
    instance: InstanceSpec,
    grid_points: int = 1001,
    m_levels: int | None = None,
) -> GapProfile:
    """Sweep the plain convex interpolation ``(1-s) h_i + s h_p``."""
    return schedule_sweep(instance, LINEAR, grid_points, m_levels)


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
    suggested_T: float
    target_epsilon: float
    worst_s: float
    worst_level: int


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
    grid = profile.grid
    worst = 0.0
    worst_s = float(grid[0])
    worst_level = 1
    for idx in range(grid.size):
        gaps = profile.levels[idx, 1:] - profile.levels[idx, 0]
        starts = np.flatnonzero(np.diff(gaps, prepend=-np.inf) > tolerance)
        weights = np.add.reduceat(np.abs(profile.couplings[idx]) ** 2, starts)
        ratios = np.sqrt(weights) / gaps[starts] ** 2
        m = int(np.argmax(ratios))
        if ratios[m] > worst:
            worst = float(ratios[m])
            worst_s = float(grid[idx])
            worst_level = int(starts[m]) + 1
    return RuntimeEstimate(
        worst_ratio=worst,
        suggested_T=worst / target_epsilon,
        target_epsilon=target_epsilon,
        worst_s=worst_s,
        worst_level=worst_level,
    )


def export_profile(profile: GapProfile) -> str:
    """Render a profile as CSV: ``s,eps0,...,epsM,gap1``, one row per grid
    point, 17 significant digits (bit-exact round trip)."""
    m = profile.levels.shape[1]
    lines = ["s," + ",".join(f"eps{i}" for i in range(m)) + ",gap1"]
    for idx in range(profile.grid.size):
        fields = [f"{profile.grid[idx]:.17g}"]
        fields += [f"{profile.levels[idx, i]:.17g}" for i in range(m)]
        fields.append(f"{profile.gap1[idx]:.17g}")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


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
