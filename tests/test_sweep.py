"""Tests for interpolation sweeps, crossing detection and exports.

The search-instance pair (uniform-projector initial operator against a
one-hot diagonal) has a closed-form gap, so the sweep is checked pointwise
against sqrt(1 - 2 s (1 - s)) with no linear algebra in the oracle.
"""

import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from gapcert.cases import CaseParams, build_case, weight_blocks
from gapcert.paulialg import (
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    ProjectorSpec,
    build_diagonal,
    build_pauli,
)
from gapcert import spectral
from gapcert import sweep as sweep_module
from gapcert.specfile import LINEAR, InstanceSpec, ScheduleSpec, parse_instance
from gapcert.spectral import DEGENERACY_RTOL, MAX_GRID_POINTS, EigensolverError
from gapcert.sweep import (
    REFINE_XATOL,
    CrossingPresent,
    GapProfile,
    MinGap,
    estimate_runtime,
    export_profile,
    export_svg,
    schedule_sweep,
    summarize_profile,
    sweep_pair,
)
from conftest import patch_solver
from test_acceptance import COUNTEREXAMPLE_TEXT, certified_corpus

SEARCH_INSTANCE = InstanceSpec(
    1, ProjectorSpec.uniform(1), DiagonalSpec.from_values(1, [0.0, 1.0])
)

MIXED_DRIVER = InstanceSpec(
    2,
    PauliExpression.from_terms(
        2, [(-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX")]
    ),
    DiagonalSpec.from_values(2, [0.0, 2.0, 6.0, 8.0]),
)


def search_gap(s):
    return np.sqrt(1.0 - 2.0 * s * (1.0 - s))


# ---------------------------------------------------------------------------
# closed-form cross-check


def test_search_instance_matches_closed_form_pointwise():
    profile = schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=501)
    assert np.max(np.abs(profile.gap1 - search_gap(profile.grid))) < 1e-9
    assert profile.levels.shape == (501, 2)


def test_search_instance_minimum_refined_off_grid():
    # the true minimizer s = 1/2 is not a point of the half-open grid, so
    # the reported minimum must come from refinement
    profile = schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=501)
    assert abs(profile.min_gap.value - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(profile.min_gap.s - 0.5) < 1e-6
    assert not np.any(profile.grid == profile.min_gap.s)
    assert profile.min_gap.value <= float(np.min(profile.gap1))
    assert not profile.crossings


def test_constant_diagonal_interpolation():
    values = [0.0, 1.0, 3.0, 7.0]
    instance = InstanceSpec(
        2,
        DiagonalSpec.from_values(2, values),
        DiagonalSpec.from_values(2, values),
    )
    profile = schedule_sweep(instance, LINEAR, grid_points=101)
    assert np.max(np.abs(profile.gap1 - 1.0)) < 1e-12
    assert profile.min_gap.value == pytest.approx(1.0)
    assert not profile.crossings


# ---------------------------------------------------------------------------
# crossing detection


def test_mixed_driver_crossing_found_and_bracketed():
    profile = schedule_sweep(MIXED_DRIVER, LINEAR, grid_points=501)
    assert len(profile.crossings) == 1
    crossing = profile.crossings[0]
    assert abs(crossing.s_star - 0.5) < 1e-6
    assert crossing.s_lo < crossing.s_star < crossing.s_hi
    assert 0.0 < crossing.s_lo and crossing.s_hi < 1.0
    assert crossing.gap_star <= profile.crossing_tolerance
    assert profile.min_gap.value == crossing.gap_star
    assert summarize_profile(profile).endswith("crossings = 1")


def test_crossing_survives_unaligned_grids():
    # neither 249 nor 500 points puts a node at s = 1/2
    for points in (249, 500):
        profile = schedule_sweep(MIXED_DRIVER, LINEAR, grid_points=points)
        assert len(profile.crossings) == 1, points
        assert abs(profile.crossings[0].s_star - 0.5) < 1e-6


# ---------------------------------------------------------------------------
# grid and profile invariants


def test_grid_is_half_open():
    profile = schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=100)
    assert profile.grid[0] == 0.0
    assert profile.grid[-1] == pytest.approx(1.0 - 1.0 / 100)


def test_endpoint_levels_match_initial_operator():
    rng = np.random.default_rng(20240822)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h_i = HermitianMatrix((a + a.conj().T) / 2.0)
    h_p = HermitianMatrix(np.diag(rng.uniform(0, 5, size=8)).astype(complex))
    profile = sweep_pair(h_i, h_p, grid_points=51)
    want = np.linalg.eigvalsh(h_i.entries)[:4]
    assert np.max(np.abs(profile.levels[0] - want)) < 1e-10


def test_levels_move_no_faster_than_the_operator():
    # eigenvalue continuity: level motion between grid nodes is bounded by
    # the spectral norm of the operator change
    rng = np.random.default_rng(20240823)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h_i = HermitianMatrix((a + a.conj().T) / 2.0)
    h_p = HermitianMatrix(np.diag(rng.uniform(-2, 6, size=8)).astype(complex))
    profile = sweep_pair(h_i, h_p, grid_points=101)
    step = profile.grid[1] - profile.grid[0]
    bound = step * float(
        np.max(np.abs(np.linalg.eigvalsh(h_i.entries - h_p.entries)))
    )
    motion = np.max(np.abs(np.diff(profile.levels, axis=0)))
    assert motion <= bound + 1e-12


def test_default_level_count_clamps_to_dimension():
    small = schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=11)
    assert small.levels.shape[1] == 2
    rng = np.random.default_rng(1)
    h = rng.standard_normal((16, 16))
    h_i = HermitianMatrix(((h + h.T) / 2).astype(complex))
    h_p = HermitianMatrix(np.diag(rng.uniform(0, 1, 16)).astype(complex))
    full = sweep_pair(h_i, h_p, grid_points=11)
    assert full.levels.shape[1] == 4
    explicit = sweep_pair(h_i, h_p, grid_points=11, m_levels=6)
    assert explicit.levels.shape[1] == 6


def test_sweep_validation_errors():
    with pytest.raises(ValueError, match="two points"):
        schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=1)
    with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS} points"):
        schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=MAX_GRID_POINTS + 1)
    with pytest.raises(ValueError, match="m_levels"):
        schedule_sweep(SEARCH_INSTANCE, LINEAR, m_levels=3)  # d = 2
    h_i = HermitianMatrix(np.eye(2, dtype=complex))
    h_p = HermitianMatrix(np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="dimension mismatch"):
        sweep_pair(h_i, h_p)


def test_profile_arrays_frozen_and_couplings_shape_checked():
    profile = schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=21)
    assert profile.couplings.shape == (21, 1)
    for array in (profile.grid, profile.levels, profile.gap1, profile.couplings):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="couplings"):
        replace(profile, couplings=np.zeros((21, 2)))
    assert profile.crossing_tolerance == pytest.approx(
        1e-8 * (1.0 + profile.spectral_width)
    )


# ---------------------------------------------------------------------------
# the eigensolve seam

SEAM_TERMS = [(-1.0, "XII"), (-0.7, "IXI"), (-0.4, "IIX"), (0.5, "ZZI"), (0.3, "IZZ")]
SEAM_PAIRS = {
    "real": build_pauli(PauliExpression.from_terms(3, SEAM_TERMS)),
    "complex": build_pauli(PauliExpression.from_terms(3, SEAM_TERMS + [(0.6, "YZI")])),
}
SEAM_HP = np.array([0.0, 3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 7.0])


@pytest.mark.parametrize("kind", sorted(SEAM_PAIRS))
def test_sweep_levels_and_vectors_from_the_seam(kind, monkeypatch):
    h_i = SEAM_PAIRS[kind]
    assert bool(np.any(h_i.entries.imag)) == (kind == "complex")
    built = []
    validate = HermitianMatrix.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(HermitianMatrix, "__post_init__", counting)
    profile = sweep_pair(h_i, SEAM_HP, grid_points=41)
    assert not built  # h_i is validated once, when it is built
    assert profile.couplings.dtype == (complex if kind == "complex" else float)
    scale = 1.0 + profile.spectral_width
    for idx, s in enumerate(profile.grid):
        h = (1.0 - s) * h_i.entries + np.diag(s * SEAM_HP)
        want = np.linalg.eigvalsh(h)[:4]
        assert np.max(np.abs(profile.levels[idx] - want)) <= 1e-10 * scale


def test_sweep_reuses_its_first_grid_point_for_the_norm_bound(solve_log):
    # the bound needs both extremes of h_i; the bottom one is levels[0, 0]
    profile = sweep_pair(SEAM_PAIRS["real"], SEAM_HP, grid_points=41, m_levels=3)
    assert solve_log.count(1) == 1
    assert solve_log.count(3) == profile.grid.size


def reference_pairs(h, m):
    """Full complex ``eigh``: the sweep's solve before the seam.  The
    vectors are returned because the slopes and couplings come from them."""
    values, vectors = np.linalg.eigh(np.asarray(h, dtype=complex))
    return values[:m], vectors[:, :m]


def test_seam_agrees_with_full_complex_reference(monkeypatch):
    # every tenth criterion-2 instance (all its blocks) plus the counterexample
    pieces = [
        (h_i, diag)
        for _, _, instance_pieces in certified_corpus()[::10]
        for h_i, diag, _ in instance_pieces
        if h_i.dim > 1
    ]
    counterexample = parse_instance(COUNTEREXAMPLE_TEXT)
    pieces.append((counterexample.h_i_matrix(), counterexample.h_p))
    crossings = 0
    for h_i, h_p in pieces:
        seam = sweep_pair(h_i, h_p, grid_points=501, m_levels=2)
        with monkeypatch.context() as patch:
            patch_solver(patch, reference_pairs)
            reference = sweep_pair(h_i, h_p, grid_points=501, m_levels=2)
        scale = 1.0 + reference.spectral_width
        assert np.max(np.abs(seam.levels - reference.levels)) <= 1e-10 * scale
        assert [(c.s_lo, c.s_hi) for c in seam.crossings] == [
            (c.s_lo, c.s_hi) for c in reference.crossings
        ]
        crossings += len(reference.crossings)
        if reference.crossings:
            # a closed gap is zero to rounding: compare on the crossing scale
            assert seam.min_gap.value <= seam.crossing_tolerance
            assert abs(seam.min_gap.s - reference.min_gap.s) < 1e-6
        else:
            assert abs(seam.min_gap.value - reference.min_gap.value) <= (
                1e-10 * reference.min_gap.value
            )
    assert crossings == 1 and len(pieces) > 25


# ---------------------------------------------------------------------------
# the stacked pass: one driver call per point, then one check and
# Hellmann--Feynman block per chunk of points


def chunk_bytes(points, h_i, m_levels):
    """A CHUNK_BYTES that makes each chunk hold ``points`` grid points."""
    return points * h_i.dim * m_levels * h_i.entries.itemsize


STACK_CASES = {
    "real": (SEAM_PAIRS["real"], SEAM_HP),
    "complex": (SEAM_PAIRS["complex"], SEAM_HP),
    "crossing": (MIXED_DRIVER.h_i_matrix(), np.array(MIXED_DRIVER.h_p.values)),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
@pytest.mark.parametrize("points", [1, 3, 41])
def test_chunk_size_leaves_the_profile_bit_identical(case, points, monkeypatch):
    h_i, hp = STACK_CASES[case]
    m_levels = min(4, h_i.dim)
    whole = sweep_pair(h_i, hp, grid_points=41)
    monkeypatch.setattr(sweep_module, "CHUNK_BYTES", chunk_bytes(points, h_i, m_levels))
    chunked = sweep_pair(h_i, hp, grid_points=41)
    for name in ("levels", "gap1", "couplings"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name
    assert chunked.min_gap == whole.min_gap
    assert chunked.crossings == whole.crossings


@pytest.mark.parametrize("kind", sorted(SEAM_PAIRS))
@pytest.mark.parametrize("corrupt", ["value", "vector"])
def test_a_pair_corrupted_inside_a_chunk_names_its_point(kind, corrupt, monkeypatch):
    # chunks of 3 points: grid point 4 sits in the middle of the second
    h_i = SEAM_PAIRS[kind]
    monkeypatch.setattr(sweep_module, "CHUNK_BYTES", chunk_bytes(3, h_i, 4))
    solve = spectral.lapack_pairs
    calls = []

    def corrupted(h, m):
        values, vectors = solve(h, m)
        if len(calls) == 4:
            if corrupt == "value":
                values[1] += 1e-6
            else:
                vectors[:, 1] += 1e-6 * vectors[:, 2]
        calls.append(m)
        return values, vectors

    patch_solver(monkeypatch, corrupted)
    point = re.escape(f" at s = {float(np.linspace(0.0, 1.0 - 1.0 / 41, 41)[4])!r}")
    with pytest.raises(EigensolverError, match=f"(residual|orthonormality) .*{point}$"):
        sweep_pair(h_i, SEAM_HP, grid_points=41)
    assert len(calls) == 6  # the chunk was solved, and nothing after it


@pytest.mark.parametrize("kind", sorted(SEAM_PAIRS))
def test_a_pair_corrupted_at_a_refinement_evaluation_names_its_point(kind, monkeypatch):
    # the grid solves for 4 levels and the norm bound for 1, so the first
    # two-level solve is the refinement's first evaluation
    h_i = SEAM_PAIRS[kind]
    solve = spectral.lapack_pairs
    corrupted_operators = []

    def corrupted(h, m):
        values, vectors = solve(h, m)
        if m == 2 and not corrupted_operators:
            corrupted_operators.append(h.copy())
            values[1] += 1e-6
        return values, vectors

    patch_solver(monkeypatch, corrupted)
    with pytest.raises(EigensolverError, match=r"residual .* at s = \S+$") as failure:
        sweep_pair(h_i, SEAM_HP, grid_points=41)
    s = float(str(failure.value).rsplit(" ", 1)[1])
    assert s not in np.linspace(0.0, 1.0 - 1.0 / 41, 41)
    # the named s is the one whose operator was solved
    (a,), (b,) = LINEAR.coefficients([s])
    assert np.array_equal(corrupted_operators[0], a * h_i.entries + np.diag(b * SEAM_HP))


def test_a_long_sweep_holds_no_stack_of_the_whole_grid():
    instance = hidden_dip_instance()
    h_i, hp = instance.h_i_matrix(), np.array(instance.h_p.values)
    points, d, m_levels = 1001, h_i.dim, 4
    whole_grid_stack = points * d * m_levels * h_i.entries.itemsize
    assert sweep_module.CHUNK_BYTES * 8 <= whole_grid_stack
    tracemalloc.start()
    try:
        profile = sweep_pair(h_i, hp, grid_points=points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.levels.shape == (points, m_levels)
    assert peak < whole_grid_stack / 2


# ---------------------------------------------------------------------------
# slope-guided refinement


def test_counterexample_crossing_located_to_refine_xatol():
    # the counterexample's levels cross exactly at s = 1/2, halfway between
    # two points of the 1001-point grid
    profile = schedule_sweep(parse_instance(COUNTEREXAMPLE_TEXT), LINEAR, grid_points=1001)
    (crossing,) = profile.crossings
    assert abs(crossing.s_star - 0.5) <= 1e-10
    assert crossing.gap_star <= 1e-12 * (1.0 + profile.spectral_width)


def test_a_refined_sweep_leaves_no_reference_cycle(monkeypatch):
    # the refinement's closures hold the sweep's state, h_i included; with
    # the cyclic collector off, h_i is freed with the sweep only if no
    # reference cycle holds any of them
    root_finds = []
    original = sweep_module._slope_root

    def counting(*args, **kwargs):
        root_finds.append(args[1:5:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "_slope_root", counting)
    instance = parse_instance(COUNTEREXAMPLE_TEXT)
    gc.disable()
    try:
        h_i = HermitianMatrix(instance.h_i_matrix().entries.copy())
        entries = weakref.ref(h_i.entries)
        profile = sweep_pair(h_i, instance.h_p, grid_points=101)
        assert len(profile.crossings) == 1 and root_finds
        del h_i
        assert entries() is None
    finally:
        gc.enable()


def test_the_root_search_probes_the_points_scipys_brentq_probes():
    # seeded smooth functions with a sign change over brackets as wide as a
    # grid step or a piece of one; scipy evaluates both ends first, which
    # the port is given
    rng = np.random.default_rng(18)
    brackets = 0
    while brackets < 500:
        c = rng.normal(size=5)
        w = rng.uniform(1.0, 40.0)

        def f(x):
            return c[0] + c[1] * x + c[2] * x * x + c[3] * math.sin(w * x + c[4])

        lo = rng.uniform(0.0, 1.0)
        hi = lo + rng.uniform(1e-4, 0.2)
        f_lo, f_hi = f(lo), f(hi)
        if not f_lo * f_hi < 0.0:
            continue
        brackets += 1
        theirs, ours = [], []
        root = brentq(lambda x: theirs.append(x) or f(x), lo, hi, xtol=REFINE_XATOL)
        port = sweep_module._slope_root(
            lambda x: ours.append(x) or f(x), lo, f_lo, hi, f_hi, REFINE_XATOL
        )
        assert theirs[:2] == [lo, hi]
        assert ours == theirs[2:]
        assert port == root


def hidden_dip_instance():
    """n = 8 single-bit rotations, drawn like the criterion-2 corpus."""
    rng = np.random.default_rng(1)
    params = CaseParams(
        "bit_rotation", 8,
        a0=float(rng.uniform(-2, 2)),
        ai=tuple(float(-rng.uniform(0.1, 2.0)) for _ in range(8)),
    )
    return build_case(params, DiagonalSpec.from_values(8, rng.uniform(0.0, 10.0, size=256)))


def test_refinement_finds_a_dip_hidden_inside_the_last_step():
    instance = hidden_dip_instance()
    profile = schedule_sweep(instance, LINEAR, grid_points=17)
    gap1, grid = profile.gap1, profile.grid
    h_i = instance.h_i_matrix().entries
    hp = np.array(instance.h_p.values)

    def gap_at(s):
        w = np.linalg.eigvalsh((1.0 - s) * h_i + np.diag(s * hp))
        return w[1] - w[0]

    # on the grid the gap is smallest at the last point, and it is still
    # falling there: its slope points out of the sweep interval
    assert int(np.argmin(gap1)) == grid.size - 1
    assert gap_at(grid[-1] + 1e-7) < gap1[-1]

    # fine reference over the last step: a scan, then a bounded search
    # around its lowest sample
    scan = np.linspace(grid[-2], grid[-1], 41)
    j = int(np.argmin([gap_at(s) for s in scan]))
    reference = minimize_scalar(
        gap_at, bounds=(scan[max(j - 1, 0)], scan[min(j + 1, scan.size - 1)]),
        method="bounded", options={"xatol": 1e-12},
    )
    assert grid[-2] < reference.x < grid[-1]
    assert 10.0 * reference.fun <= gap1[-1]
    assert abs(profile.min_gap.value - reference.fun) <= 1e-10 * (1.0 + profile.spectral_width)
    assert grid[-2] < profile.min_gap.s < grid[-1]
    assert not profile.crossings


def refinements(monkeypatch):
    """Every candidate's bracket and refinement result, in order."""
    log = []
    refine = sweep_module._slope_guided

    def recording(fun, bracket, known, *args):
        result = refine(fun, bracket, known, *args)
        log.append((bracket, result))
        return result

    monkeypatch.setattr(sweep_module, "_slope_guided", recording)
    return log


@pytest.mark.parametrize("points", [101, 1001])
def test_the_counterexample_crossing_takes_at_most_8_solves(points, monkeypatch):
    # the gap has a kink at s = 1/2; (gap**2)' / 2 has a simple root there
    log = refinements(monkeypatch)
    profile = schedule_sweep(parse_instance(COUNTEREXAMPLE_TEXT), LINEAR, grid_points=points)
    (crossing,) = profile.crossings
    (result,) = [r for bracket, r in log if bracket[0] < 0.5 < bracket[-1]]
    assert result.nfev <= 8
    assert abs(crossing.s_star - 0.5) <= 1e-13


def test_hopping_crossings_are_crossings_of_two_weight_blocks(monkeypatch):
    log = refinements(monkeypatch)
    instance = build_case(CaseParams("xy_hopping", 4))
    profile = schedule_sweep(instance, LINEAR, grid_points=101)
    hp = np.array(instance.h_p.values)
    blocks = [
        (block.block_matrix.entries, hp[list(block.basis_indices)])
        for block in weight_blocks(instance.h_i_matrix(), 4)
    ]

    def block_grounds(s):
        return [np.linalg.eigvalsh((1.0 - s) * h + np.diag(s * p))[0] for h, p in blocks]

    assert len(profile.crossings) == 2
    nfev = {(bracket[0], bracket[-1]): r.nfev for bracket, r in log}
    for crossing in profile.crossings:
        # the two sectors whose ground levels meet there
        first, second = np.argsort(block_grounds(crossing.s_star))[:2]
        root = brentq(
            lambda s: block_grounds(s)[first] - block_grounds(s)[second],
            crossing.s_lo, crossing.s_hi, xtol=1e-15,
        )
        assert abs(crossing.s_star - root) <= 1e-11
        assert nfev[crossing.s_lo, crossing.s_hi] <= 8


def test_a_minimum_at_a_schedule_sample_is_that_sample(monkeypatch):
    # a + b falls to 0.8 at t = 0.37 and rises after it, where b / (a + b)
    # passes 1/2: the gap's one-sided slopes there are (-, +)
    log = refinements(monkeypatch)
    knot = 0.37
    schedule = ScheduleSpec("tabulated", ((0.0, 1.0, 0.0), (knot, 0.4, 0.4), (1.0, 0.0, 1.0)))
    assert schedule.knots == (knot,)
    instance = replace(SEARCH_INSTANCE, schedule=schedule)
    profile = schedule_sweep(instance, grid_points=41)
    assert knot not in profile.grid
    assert profile.min_gap.s == knot
    w = np.linalg.eigvalsh(instance.h_i_matrix().entries * 0.4 + np.diag([0.0, 0.4]))
    assert abs(profile.min_gap.value - (w[1] - w[0])) <= 1e-12 * (1.0 + profile.spectral_width)
    assert sum(r.nfev for _, r in log) <= 3


def test_a_zero_gap_end_makes_no_search_solve(monkeypatch):
    # the hopping ground level is degenerate at s = 0, where the gap is 0
    log = refinements(monkeypatch)
    profile = schedule_sweep(build_case(CaseParams("xy_hopping", 3)), LINEAR, grid_points=101)
    assert profile.gap1[0] == 0.0
    (result,) = [r for bracket, r in log if bracket[0] == 0.0]
    assert result.nfev == 0 and (result.x, result.fun) == (0.0, 0.0)
    assert profile.crossings[0].s_star == 0.0


SLOPE_CASES = {
    "real": (SEAM_PAIRS["real"], SEAM_HP, LINEAR),
    "complex": (SEAM_PAIRS["complex"], SEAM_HP, LINEAR),
    # a reaches 0 at t = 0.6; b is flat on [0.6, 0.8], so is the gap, and
    # every grid point there is a local minimum that gets refined
    "a reaches 0 early": (
        SEAM_PAIRS["real"],
        SEAM_HP,
        ScheduleSpec(
            "tabulated",
            ((0.0, 1.0, 0.0), (0.3, 0.5, 0.2), (0.6, 0.0, 0.7), (0.8, 0.0, 0.7), (1.0, 0.0, 1.0)),
        ),
    ),
    # levels that cross at s = 1/2
    "crossing": (MIXED_DRIVER.h_i_matrix(), np.array(MIXED_DRIVER.h_p.values), LINEAR),
    # the first excited level of I - |u><u| is (d - 1)-fold at s = 0
    "projector_uniform": (
        InstanceSpec(3, ProjectorSpec.uniform(3), DiagonalSpec.from_values(3, SEAM_HP)).h_i_matrix(),
        SEAM_HP,
        LINEAR,
    ),
}


def recorded_blocks(monkeypatch):
    """Every (gap slope, couplings) pair the sweep computes, in order, one
    per solved point of each stacked block."""
    returned = []
    block = sweep_module._hellmann_feynman

    def recording(*args):
        slopes, couplings = block(*args)
        returned.extend(zip(slopes, couplings))
        return slopes, couplings

    monkeypatch.setattr(sweep_module, "_hellmann_feynman", recording)
    return returned


@pytest.mark.parametrize("case", ["real", "complex", "a reaches 0 early"])
def test_couplings_and_grid_slopes_match_a_dense_block(case, monkeypatch):
    h_i, hp, schedule = SLOPE_CASES[case]
    returned = recorded_blocks(monkeypatch)
    profile = sweep_pair(h_i, hp, grid_points=41, schedule=schedule)
    a, b = schedule.coefficients(profile.grid)
    da, db = schedule.slopes(profile.grid)
    scale = 1.0 + profile.spectral_width
    for idx in range(profile.grid.size):
        _, v = np.linalg.eigh(a[idx] * h_i.entries + np.diag(b[idx] * hp))
        v = v[:, :4]
        dense = v.conj().T @ (da[idx] * h_i.entries + np.diag(db[idx] * hp)) @ v
        # eigenvectors are fixed up to a phase each, so compare moduli
        want = np.abs(dense[1:, 0])
        assert np.max(np.abs(np.abs(profile.couplings[idx]) - want)) <= 1e-10 * scale
        assert abs(returned[idx][0] - (dense[1, 1] - dense[0, 0]).real) <= 1e-10 * scale


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(SLOPE_CASES))
def test_slopes_are_finite_and_refinement_agrees_with_complex_eigh(case, monkeypatch):
    h_i, hp, schedule = SLOPE_CASES[case]
    returned = recorded_blocks(monkeypatch)
    seam = sweep_pair(h_i, hp, grid_points=41, schedule=schedule)
    # every grid point, then every refinement solve
    assert len(returned) > seam.grid.size
    assert all(np.isfinite(slope) and np.isfinite(couplings).all() for slope, couplings in returned)

    # grid slopes against a one-sided difference of the exact gap, away
    # from the degenerate excited level at s = 0
    a, b = schedule.coefficients(seam.grid)
    da, db = schedule.slopes(seam.grid)
    delta = 1e-7
    for idx in range(1, seam.grid.size):
        ahead = (a[idx] + delta * da[idx]) * h_i.entries + np.diag((b[idx] + delta * db[idx]) * hp)
        w = np.linalg.eigvalsh(ahead)
        difference = (w[1] - w[0] - seam.gap1[idx]) / delta
        assert abs(returned[idx][0] - difference) <= 1e-5 * (1.0 + seam.spectral_width)

    with monkeypatch.context() as patch:
        patch_solver(patch, reference_pairs)
        reference = sweep_pair(h_i, hp, grid_points=41, schedule=schedule)
    assert [(c.s_lo, c.s_hi) for c in seam.crossings] == [
        (c.s_lo, c.s_hi) for c in reference.crossings
    ]
    assert len(seam.crossings) == (case == "crossing")
    scale = 1.0 + reference.spectral_width
    assert abs(seam.min_gap.value - reference.min_gap.value) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# schedules


def tabulated_example():
    return ScheduleSpec(
        "tabulated",
        (
            (0.0, 1.0, 0.0),
            (0.3, 0.8, 0.05),
            (0.7, 0.3, 0.6),
            (1.0, 0.0, 1.0),
        ),
    )


def test_schedule_sweep_uses_instance_schedule_by_default():
    instance = InstanceSpec(
        1,
        ProjectorSpec.uniform(1),
        DiagonalSpec.from_values(1, [0.0, 1.0]),
        schedule=tabulated_example(),
    )
    profile = schedule_sweep(instance, grid_points=51)
    assert profile.schedule.kind == "tabulated"
    linear = schedule_sweep(instance, schedule=None, grid_points=51)
    assert linear.schedule is instance.schedule


def test_tabulated_gap_rescales_to_the_linear_profile():
    # a(t) h_i + b(t) h_p = (a + b) [ (1-sigma) h_i + sigma h_p ] with
    # sigma = b / (a + b): every tabulated gap is a scaled linear gap
    instance = MIXED_DRIVER
    schedule = tabulated_example()
    profile = schedule_sweep(instance, schedule=schedule, grid_points=101)
    A = instance.h_i_matrix().entries
    B = build_diagonal(instance.h_p).entries
    a, b = schedule.coefficients(profile.grid)
    scale = a + b
    sigma = b / scale
    for idx in range(profile.grid.size):
        w = np.linalg.eigvalsh((1.0 - sigma[idx]) * A + sigma[idx] * B)
        want = scale[idx] * (w[1] - w[0])
        assert abs(profile.gap1[idx] - want) < 1e-9 * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# runtime estimate


def test_estimate_runtime_zero_for_commuting_pair():
    values = [0.0, 1.0, 3.0, 7.0]
    instance = InstanceSpec(
        2,
        DiagonalSpec.from_values(2, values),
        DiagonalSpec.from_values(2, [0.0, 2.0, 5.0, 9.0]),
    )
    profile = schedule_sweep(instance, LINEAR, grid_points=51)
    estimate = estimate_runtime(profile, target_epsilon=0.05)
    assert estimate.worst_ratio == 0.0
    assert estimate.suggested_T == 0.0
    assert estimate.target_epsilon == 0.05


def test_estimate_runtime_search_instance_scale():
    profile = schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=1001)
    estimate = estimate_runtime(profile, target_epsilon=0.1)
    # the hardest point is the avoided crossing: ratio ~ sqrt(2) there
    assert abs(estimate.worst_ratio - math.sqrt(2.0)) < 1e-3
    assert estimate.suggested_T == pytest.approx(estimate.worst_ratio / 0.1)
    assert abs(estimate.worst_s - 0.5) < 2e-3
    assert estimate.worst_level == 1


def test_estimate_runtime_rejects_bad_inputs():
    crossing_profile = schedule_sweep(MIXED_DRIVER, LINEAR, grid_points=201)
    with pytest.raises(CrossingPresent):
        estimate_runtime(crossing_profile)
    ok = schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=21)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_runtime(ok, target_epsilon=eps)


def reference_estimate(instance, profile):
    """(worst_ratio, worst_s, worst_level) from full ``eigh`` at every grid
    point, with ``dH = a' h_i + b' diag(h_p)`` at the slope of the table
    segment that starts at or before each point."""
    times, a_col, b_col = np.array(instance.schedule.samples).T
    A = instance.h_i_matrix().entries
    hp = np.array(instance.h_p.values)
    m = profile.levels.shape[1]
    tolerance = DEGENERACY_RTOL * (1.0 + profile.spectral_width)
    worst = (0.0, float(profile.grid[0]), 1)
    for s in profile.grid:
        k = int(np.searchsorted(times, s, side="right")) - 1
        da = (a_col[k + 1] - a_col[k]) / (times[k + 1] - times[k])
        db = (b_col[k + 1] - b_col[k]) / (times[k + 1] - times[k])
        a, b = np.interp(s, times, a_col), np.interp(s, times, b_col)
        w, v = np.linalg.eigh(a * A + np.diag(b * hp))
        couplings = v[:, 1:m].conj().T @ (da * A + np.diag(db * hp)) @ v[:, 0]
        gaps = w[1:m] - w[0]
        first = 0
        while first < m - 1:
            last = first + 1
            while last < m - 1 and gaps[last] - gaps[last - 1] <= tolerance:
                last += 1
            ratio = np.linalg.norm(couplings[first:last]) / gaps[first] ** 2
            if ratio > worst[0]:
                worst = (float(ratio), float(s), first + 1)
            first = last
    return worst


def test_estimate_runtime_tabulated_schedule_runs():
    # [0, 5]: the worst point is the grid point just past the sample at
    # t = 0.3, whose slope is the next segment's; [0, 4, 5, 6]: a threefold
    # excited level at t = 0
    for hp in ([0.0, 5.0], [0.0, 4.0, 5.0, 6.0]):
        n = len(hp).bit_length() - 1
        instance = InstanceSpec(
            n,
            ProjectorSpec.uniform(n),
            DiagonalSpec.from_values(n, hp),
            schedule=tabulated_example(),
        )
        profile = schedule_sweep(instance, grid_points=101)
        estimate = estimate_runtime(profile)
        ratio, s, level = reference_estimate(instance, profile)
        assert estimate.worst_ratio == pytest.approx(ratio, rel=1e-10)
        assert estimate.worst_s == pytest.approx(s, rel=1e-10)
        assert estimate.worst_level == level


def test_estimate_runtime_independent_of_basis_inside_a_degenerate_level():
    # I - |u><u| has one threefold excited level at s = 0, where the ratio
    # is |(1 - |u><u|) h_p u| / 1**2, the spread of h_p seen from u
    hp = np.array([0.0, 4.0, 5.0, 6.0])
    instance = InstanceSpec(2, ProjectorSpec.uniform(2), DiagonalSpec.from_values(2, hp))
    swept = schedule_sweep(instance, LINEAR, grid_points=21)
    assert np.ptp(swept.levels[0, 1:]) < 1e-12

    def at_s0(couplings):
        return GapProfile(
            grid=swept.grid[:1],
            levels=swept.levels[:1],
            gap1=swept.gap1[:1],
            min_gap=swept.min_gap,
            crossings=(),
            spectral_width=swept.spectral_width,
            schedule=swept.schedule,
            couplings=couplings,
        )

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    given = swept.couplings[:1].astype(complex)
    # the level's basis V -> V q turns its couplings V^dag dH u into q^dag of them
    turned = given @ q.conj()
    plain = estimate_runtime(at_s0(given))
    rotated = estimate_runtime(at_s0(turned))
    assert plain.worst_ratio == pytest.approx(np.std(hp), rel=1e-12)
    assert rotated.worst_ratio == pytest.approx(plain.worst_ratio, rel=1e-12)
    assert plain.worst_level == rotated.worst_level == 1
    # level by level, the two bases of the same level disagree
    assert np.max(np.abs(np.abs(given) - np.abs(turned))) > 0.1


def looped_estimate(profile):
    """``estimate_runtime``'s grouping one grid point at a time: the
    reference for its vectorised form."""
    tolerance = DEGENERACY_RTOL * (1.0 + profile.spectral_width)
    worst, worst_s, worst_level = 0.0, float(profile.grid[0]), 1
    for idx in range(profile.grid.size):
        gaps = profile.levels[idx, 1:] - profile.levels[idx, 0]
        starts = np.flatnonzero(np.diff(gaps, prepend=-np.inf) > tolerance)
        weights = np.add.reduceat(np.abs(profile.couplings[idx]) ** 2, starts)
        ratios = np.sqrt(weights) / gaps[starts] ** 2
        m = int(np.argmax(ratios))
        if ratios[m] > worst:
            worst = float(ratios[m])
            worst_s, worst_level = float(profile.grid[idx]), int(starts[m]) + 1
    return worst, worst_s, worst_level


@pytest.mark.parametrize("m_levels", [2, 4, 8])
def test_estimate_runtime_matches_its_looped_grouping(m_levels):
    # a threefold level at s = 0 (projector_uniform), real and complex
    # couplings, a tabulated schedule, and a profile whose couplings vanish
    hp = np.array([0.0, 4.0, 5.0, 6.0, 1.0, 3.0, 2.0, 7.0])
    profiles = [
        schedule_sweep(
            InstanceSpec(3, ProjectorSpec.uniform(3), DiagonalSpec.from_values(3, hp)),
            LINEAR,
            grid_points=41,
            m_levels=m_levels,
        ),
        sweep_pair(SEAM_PAIRS["real"], SEAM_HP, grid_points=41, m_levels=m_levels),
        sweep_pair(SEAM_PAIRS["complex"], SEAM_HP, grid_points=41, m_levels=m_levels),
        sweep_pair(SEAM_PAIRS["real"], SEAM_HP, 41, m_levels, tabulated_example()),
    ]
    flat = profiles[1]
    profiles.append(replace(flat, couplings=np.zeros_like(flat.couplings)))
    # the first three points alone, where the threefold level is the worst
    head = profiles[0]
    profiles.append(
        replace(
            head,
            grid=head.grid[:3],
            levels=head.levels[:3],
            gap1=head.gap1[:3],
            couplings=head.couplings[:3],
        )
    )
    for profile in profiles:
        got = estimate_runtime(profile)
        assert (got.worst_ratio, got.worst_s, got.worst_level) == looped_estimate(profile)
    if m_levels > 2:
        assert np.ptp(profiles[0].levels[0, 1:4]) < 1e-12  # the grouping is exercised


# ---------------------------------------------------------------------------
# exports


def test_csv_schema_and_exact_round_trip():
    profile = schedule_sweep(SEARCH_INSTANCE, LINEAR, grid_points=21)
    text = export_profile(profile)
    lines = text.strip().splitlines()
    assert lines[0] == "s,eps0,eps1,gap1"
    assert len(lines) == 22
    for idx, line in enumerate(lines[1:]):
        fields = [float(x) for x in line.split(",")]
        assert fields[0] == profile.grid[idx]
        assert fields[1] == profile.levels[idx, 0]
        assert fields[2] == profile.levels[idx, 1]
        assert fields[3] == profile.gap1[idx]


def test_csv_export_holds_a_block_of_rows_not_the_table():
    # ten blocks of rows: formatted a block at a time, the export peaks at
    # the text and its final join, not at a Python list per row
    rows, m_levels = 40000, 4
    rng = np.random.default_rng(5)
    levels = np.sort(rng.normal(size=(rows, m_levels)), axis=1)
    profile = GapProfile(
        grid=np.linspace(0.0, 1.0 - 1.0 / rows, rows),
        levels=levels,
        gap1=levels[:, 1] - levels[:, 0],
        min_gap=MinGap(1.0, 0.0),
        crossings=(),
        spectral_width=1.0,
        schedule=LINEAR,
        couplings=np.zeros((rows, m_levels - 1)),
    )
    tracemalloc.start()
    try:
        text = export_profile(profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("\n") == rows + 1
    assert peak < 3 * len(text)


def test_csv_and_svg_deterministic():
    a = schedule_sweep(MIXED_DRIVER, LINEAR, grid_points=101)
    b = schedule_sweep(MIXED_DRIVER, LINEAR, grid_points=101)
    assert export_profile(a) == export_profile(b)
    assert export_svg(a) == export_svg(b)


def test_svg_contains_level_curves_and_annotation():
    profile = schedule_sweep(MIXED_DRIVER, LINEAR, grid_points=51)
    svg = export_svg(profile)
    assert svg.startswith("<svg") or svg.startswith("<")
    assert svg.count("<polyline") == profile.levels.shape[1]
    assert "min gap" in svg and "crossing(s)" in svg
    assert "</svg>" in svg


def test_profile_shape_validation():
    grid = np.linspace(0, 0.9, 10)
    with pytest.raises(ValueError, match="levels"):
        GapProfile(
            grid=grid,
            levels=np.zeros((9, 2)),
            gap1=np.zeros(10),
            min_gap=MinGap(1.0, 0.0),
            crossings=(),
            spectral_width=1.0,
            schedule=SEARCH_INSTANCE.schedule,
            couplings=np.zeros((10, 1)),
        )
    with pytest.raises(ValueError, match="gap1"):
        GapProfile(
            grid=grid,
            levels=np.zeros((10, 2)),
            gap1=np.zeros(9),
            min_gap=MinGap(1.0, 0.0),
            crossings=(),
            spectral_width=1.0,
            schedule=SEARCH_INSTANCE.schedule,
            couplings=np.zeros((10, 1)),
        )
