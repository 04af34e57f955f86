"""Spectral sweeps of the interpolation and what they imply.

A sweep samples the lowest ``m`` levels of ``a(t) h_i + b(t) h_p`` on a
uniform grid over the half-open interval [0, 1 - 1/grid_points] (the
endpoint itself is irrelevant to validity: a crossing exactly at the end
does no harm).  The first gap is scanned for (near-)closings: every local
minimum that could hide a closing is refined off-grid by bounded
minimization, minima below ``1e-8 * (1 + spectral width)`` are reported
as crossings, and ``min_gap`` always refers to the refined minimum so it
does not depend on whether the true minimizer lands on a grid point.
Every solve, at a grid point or inside the refinement, goes through
:func:`~gapcert.spectral.low_spectrum` and computes only the levels it
reports.

``estimate_runtime`` turns a crossing-free profile into the standard
worst-case adiabatic ratio ``max |<psi_m| dH |psi_0>| / gap_m**2`` over
the grid and all computed excited levels, and a suggested total time
``worst_ratio / target_epsilon``.  A degenerate excited level counts as
one: its numerator is the norm of ``dH |psi_0>`` projected onto the whole
level, which does not depend on the basis the eigensolver picked in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from .paulialg import HermitianMatrix, diagonal_values
from .specfile import LINEAR, InstanceSpec, ScheduleSpec
from .spectral import DEGENERACY_RTOL, low_spectrum, top_eigenvalue

# A refined gap minimum below CROSSING_RTOL * (1 + spectral width) is a crossing.
CROSSING_RTOL = 1e-8
# Reported crossing locations are refined to this absolute accuracy in s.
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
    ``vectors`` the matching eigenvectors when retained (shape
    ``(points, d, m)``, real when ``h_i`` is real), and ``schedule`` the
    coefficient functions the sweep used (linear for plain sweeps).
    """

    grid: np.ndarray
    levels: np.ndarray
    gap1: np.ndarray
    min_gap: MinGap
    crossings: tuple[CrossingInterval, ...]
    spectral_width: float
    schedule: ScheduleSpec
    vectors: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.levels.ndim != 2 or self.levels.shape[0] != self.grid.size:
            raise ValueError("levels shape inconsistent with grid")
        if self.gap1.shape != (self.grid.size,):
            raise ValueError("gap1 shape inconsistent with grid")
        for array in (self.grid, self.levels, self.gap1):
            array.flags.writeable = False
        if self.vectors is not None:
            self.vectors.flags.writeable = False

    @property
    def crossing_tolerance(self) -> float:
        return CROSSING_RTOL * (1.0 + self.spectral_width)


def _schedule_max_slopes(schedule: ScheduleSpec) -> tuple[float, float]:
    if schedule.kind == "linear":
        return 1.0, 1.0
    ts = np.array([t for t, _, _ in schedule.samples])
    a = np.array([x for _, x, _ in schedule.samples])
    b = np.array([x for _, _, x in schedule.samples])
    dt = np.diff(ts)
    return float(np.max(np.abs(np.diff(a)) / dt)), float(
        np.max(np.abs(np.diff(b)) / dt)
    )


def sweep_pair(
    h_i: HermitianMatrix,
    h_p,
    grid_points: int = 1001,
    m_levels: int | None = None,
    schedule: ScheduleSpec = LINEAR,
    keep_vectors: bool = True,
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

    levels = np.empty((grid_points, m_levels))
    vectors = np.empty((grid_points, d, m_levels), dtype=A.dtype) if keep_vectors else None
    for idx in range(grid_points):
        values, vecs = low_spectrum(operator_at(a[idx], b[idx]), m_levels)
        levels[idx] = values
        if vectors is not None:
            vectors[idx] = vecs
    gap1 = levels[:, 1] - levels[:, 0]
    width = float(levels.max() - levels.min())
    tolerance = CROSSING_RTOL * (1.0 + width)

    def gap_at(tau: float) -> float:
        aa, bb = schedule.coefficients(np.array([tau]))
        w = low_spectrum(operator_at(aa[0], bb[0]), 2)[0]
        return float(w[1] - w[0])

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
    for k in sorted(candidates):
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid_points - 1)]
        result = minimize_scalar(
            gap_at, bounds=(lo, hi), method="bounded", options={"xatol": REFINE_XATOL}
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
        vectors=vectors,
    )


def gap_sweep(
    instance: InstanceSpec,
    grid_points: int = 1001,
    m_levels: int | None = None,
    keep_vectors: bool = True,
) -> GapProfile:
    """Sweep the plain convex interpolation ``(1-s) h_i + s h_p``."""
    return schedule_sweep(instance, LINEAR, grid_points, m_levels, keep_vectors)


def schedule_sweep(
    instance: InstanceSpec,
    schedule: ScheduleSpec | None = None,
    grid_points: int = 1001,
    m_levels: int | None = None,
    keep_vectors: bool = True,
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
        keep_vectors=keep_vectors,
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


def estimate_runtime(
    instance: InstanceSpec,
    profile: GapProfile,
    target_epsilon: float = 0.1,
) -> RuntimeEstimate:
    """Worst-case ratio ``|<psi_m| dH |psi_0>| / gap_m**2`` over the grid.

    Computed levels within ``DEGENERACY_RTOL * (1 + spectral width)`` of
    each other form one level, whose numerator is the norm of the
    overlaps with all its vectors and whose gap is that of its lowest
    member; ``worst_level`` names that member.  A level that continues
    past the highest computed one is summed over its computed members
    only, so sweep with more levels if the top one is degenerate.

    Raises :class:`CrossingPresent` when the profile contains crossings
    (the ratio diverges), and ``ValueError`` when the profile was swept
    without retained eigenvectors or ``target_epsilon`` is not positive
    and finite.
    """
    if profile.crossings:
        raise CrossingPresent(
            "profile contains gap closings; the adiabatic ratio is undefined"
        )
    if profile.vectors is None:
        raise ValueError("profile must retain eigenvectors (keep_vectors=True)")
    if not 0.0 < target_epsilon < np.inf:
        raise ValueError(f"target_epsilon must be positive and finite, got {target_epsilon}")

    A = instance.h_i_matrix().entries
    hp = diagonal_values(instance.h_p, A.shape[0])
    tolerance = DEGENERACY_RTOL * (1.0 + profile.spectral_width)
    grid = profile.grid
    if profile.schedule.kind == "linear":
        da = np.full(grid.size, -1.0)
        db = np.full(grid.size, 1.0)
    else:
        a, b = profile.schedule.coefficients(grid)
        da = np.gradient(a, grid)
        db = np.gradient(b, grid)

    worst = 0.0
    worst_s = float(grid[0])
    worst_level = 1
    for idx in range(grid.size):
        dh = da[idx] * A + np.diag(db[idx] * hp)
        v0 = profile.vectors[idx][:, 0]
        overlaps = profile.vectors[idx][:, 1:].conj().T @ (dh @ v0)
        gaps = profile.levels[idx, 1:] - profile.levels[idx, 0]
        starts = np.flatnonzero(np.diff(gaps, prepend=-np.inf) > tolerance)
        weights = np.add.reduceat(np.abs(overlaps) ** 2, starts)
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
