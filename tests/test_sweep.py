"""Tests for interpolation sweeps, crossing detection and exports.

The search-instance pair (uniform-projector initial operator against a
one-hot diagonal) has a closed-form gap, so the sweep is checked pointwise
against sqrt(1 - 2 s (1 - s)) with no linear algebra in the oracle.
"""

import math

import numpy as np
import pytest

from gapcert.paulialg import (
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    ProjectorSpec,
    build_pauli,
)
from gapcert import sweep as sweep_module
from gapcert.specfile import InstanceSpec, ScheduleSpec, parse_instance
from gapcert.sweep import (
    CrossingPresent,
    GapProfile,
    MinGap,
    estimate_runtime,
    export_profile,
    export_svg,
    gap_sweep,
    schedule_sweep,
    summarize_profile,
    sweep_pair,
)
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
    profile = gap_sweep(SEARCH_INSTANCE, grid_points=501)
    assert np.max(np.abs(profile.gap1 - search_gap(profile.grid))) < 1e-9
    assert profile.levels.shape == (501, 2)


def test_search_instance_minimum_refined_off_grid():
    # the true minimizer s = 1/2 is not a point of the half-open grid, so
    # the reported minimum must come from refinement
    profile = gap_sweep(SEARCH_INSTANCE, grid_points=501, keep_vectors=False)
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
    profile = gap_sweep(instance, grid_points=101, keep_vectors=False)
    assert np.max(np.abs(profile.gap1 - 1.0)) < 1e-12
    assert profile.min_gap.value == pytest.approx(1.0)
    assert not profile.crossings


# ---------------------------------------------------------------------------
# crossing detection


def test_mixed_driver_crossing_found_and_bracketed():
    profile = gap_sweep(MIXED_DRIVER, grid_points=501, keep_vectors=False)
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
        profile = gap_sweep(MIXED_DRIVER, grid_points=points, keep_vectors=False)
        assert len(profile.crossings) == 1, points
        assert abs(profile.crossings[0].s_star - 0.5) < 1e-6


# ---------------------------------------------------------------------------
# grid and profile invariants


def test_grid_is_half_open():
    profile = gap_sweep(SEARCH_INSTANCE, grid_points=100, keep_vectors=False)
    assert profile.grid[0] == 0.0
    assert profile.grid[-1] == pytest.approx(1.0 - 1.0 / 100)


def test_endpoint_levels_match_initial_operator():
    rng = np.random.default_rng(20240822)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h_i = HermitianMatrix((a + a.conj().T) / 2.0)
    h_p = HermitianMatrix(np.diag(rng.uniform(0, 5, size=8)).astype(complex))
    profile = sweep_pair(h_i, h_p, grid_points=51, keep_vectors=False)
    want = np.linalg.eigvalsh(h_i.entries)[:4]
    assert np.max(np.abs(profile.levels[0] - want)) < 1e-10


def test_levels_move_no_faster_than_the_operator():
    # eigenvalue continuity: level motion between grid nodes is bounded by
    # the spectral norm of the operator change
    rng = np.random.default_rng(20240823)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h_i = HermitianMatrix((a + a.conj().T) / 2.0)
    h_p = HermitianMatrix(np.diag(rng.uniform(-2, 6, size=8)).astype(complex))
    profile = sweep_pair(h_i, h_p, grid_points=101, keep_vectors=False)
    step = profile.grid[1] - profile.grid[0]
    bound = step * float(
        np.max(np.abs(np.linalg.eigvalsh(h_i.entries - h_p.entries)))
    )
    motion = np.max(np.abs(np.diff(profile.levels, axis=0)))
    assert motion <= bound + 1e-12


def test_default_level_count_clamps_to_dimension():
    small = gap_sweep(SEARCH_INSTANCE, grid_points=11, keep_vectors=False)
    assert small.levels.shape[1] == 2
    rng = np.random.default_rng(1)
    h = rng.standard_normal((16, 16))
    h_i = HermitianMatrix(((h + h.T) / 2).astype(complex))
    h_p = HermitianMatrix(np.diag(rng.uniform(0, 1, 16)).astype(complex))
    full = sweep_pair(h_i, h_p, grid_points=11, keep_vectors=False)
    assert full.levels.shape[1] == 4
    explicit = sweep_pair(h_i, h_p, grid_points=11, m_levels=6, keep_vectors=False)
    assert explicit.levels.shape[1] == 6


def test_sweep_validation_errors():
    with pytest.raises(ValueError, match="two points"):
        gap_sweep(SEARCH_INSTANCE, grid_points=1)
    with pytest.raises(ValueError, match="m_levels"):
        gap_sweep(SEARCH_INSTANCE, m_levels=3)  # d = 2
    h_i = HermitianMatrix(np.eye(2, dtype=complex))
    h_p = HermitianMatrix(np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="dimension mismatch"):
        sweep_pair(h_i, h_p)


def test_profile_arrays_frozen_and_vectors_optional():
    profile = gap_sweep(SEARCH_INSTANCE, grid_points=21)
    assert profile.vectors is not None
    assert profile.vectors.shape == (21, 2, 2)
    for array in (profile.grid, profile.levels, profile.gap1, profile.vectors):
        assert not array.flags.writeable
    assert gap_sweep(SEARCH_INSTANCE, grid_points=21, keep_vectors=False).vectors is None
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
    assert profile.vectors.dtype == (complex if kind == "complex" else float)
    scale = 1.0 + profile.spectral_width
    for idx, s in enumerate(profile.grid):
        h = (1.0 - s) * h_i.entries + np.diag(s * SEAM_HP)
        want = np.linalg.eigvalsh(h)[:4]
        assert np.max(np.abs(profile.levels[idx] - want)) <= 1e-10 * scale
        v = profile.vectors[idx]
        assert np.max(np.abs(h @ v - v * profile.levels[idx])) <= 1e-10 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-12


def test_sweep_reuses_its_first_grid_point_for_the_norm_bound(solve_log):
    # the bound needs both extremes of h_i; the bottom one is levels[0, 0]
    profile = sweep_pair(SEAM_PAIRS["real"], SEAM_HP, grid_points=41, m_levels=3)
    assert solve_log.count(1) == 1
    assert solve_log.count(3) == profile.grid.size


def reference_low_spectrum(h, m):
    """Full complex ``eigvalsh``: the sweep's solve before the seam (levels
    only, so it stands in for sweeps that keep no vectors)."""
    return np.linalg.eigvalsh(np.asarray(h, dtype=complex))[:m], None


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
        seam = sweep_pair(h_i, h_p, grid_points=501, m_levels=2, keep_vectors=False)
        with monkeypatch.context() as patch:
            patch.setattr(sweep_module, "low_spectrum", reference_low_spectrum)
            reference = sweep_pair(h_i, h_p, grid_points=501, m_levels=2, keep_vectors=False)
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
    profile = schedule_sweep(instance, grid_points=51, keep_vectors=False)
    assert profile.schedule.kind == "tabulated"
    linear = schedule_sweep(instance, schedule=None, grid_points=51, keep_vectors=False)
    assert linear.schedule is instance.schedule


def test_tabulated_gap_rescales_to_the_linear_profile():
    # a(t) h_i + b(t) h_p = (a + b) [ (1-sigma) h_i + sigma h_p ] with
    # sigma = b / (a + b): every tabulated gap is a scaled linear gap
    instance = MIXED_DRIVER
    schedule = tabulated_example()
    profile = schedule_sweep(
        instance, schedule=schedule, grid_points=101, keep_vectors=False
    )
    A = instance.h_i_matrix().entries
    B = instance.h_p_matrix().entries
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
    profile = gap_sweep(instance, grid_points=51)
    estimate = estimate_runtime(instance, profile, target_epsilon=0.05)
    assert estimate.worst_ratio == 0.0
    assert estimate.suggested_T == 0.0
    assert estimate.target_epsilon == 0.05


def test_estimate_runtime_search_instance_scale():
    profile = gap_sweep(SEARCH_INSTANCE, grid_points=1001)
    estimate = estimate_runtime(SEARCH_INSTANCE, profile, target_epsilon=0.1)
    # the hardest point is the avoided crossing: ratio ~ sqrt(2) there
    assert abs(estimate.worst_ratio - math.sqrt(2.0)) < 1e-3
    assert estimate.suggested_T == pytest.approx(estimate.worst_ratio / 0.1)
    assert abs(estimate.worst_s - 0.5) < 2e-3
    assert estimate.worst_level == 1


def test_estimate_runtime_rejects_bad_inputs():
    crossing_profile = gap_sweep(MIXED_DRIVER, grid_points=201)
    with pytest.raises(CrossingPresent):
        estimate_runtime(MIXED_DRIVER, crossing_profile)
    no_vectors = gap_sweep(SEARCH_INSTANCE, grid_points=21, keep_vectors=False)
    with pytest.raises(ValueError, match="eigenvectors"):
        estimate_runtime(SEARCH_INSTANCE, no_vectors)
    ok = gap_sweep(SEARCH_INSTANCE, grid_points=21)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_runtime(SEARCH_INSTANCE, ok, target_epsilon=eps)


def test_estimate_runtime_tabulated_schedule_runs():
    instance = InstanceSpec(
        1,
        ProjectorSpec.uniform(1),
        DiagonalSpec.from_values(1, [0.0, 1.0]),
        schedule=tabulated_example(),
    )
    profile = schedule_sweep(instance, grid_points=101)
    estimate = estimate_runtime(instance, profile)
    assert estimate.worst_ratio > 0.0


def test_estimate_runtime_independent_of_basis_inside_a_degenerate_level():
    # I - |u><u| has one threefold excited level at s = 0, where the ratio
    # is |(1 - |u><u|) h_p u| / 1**2, the spread of h_p seen from u
    hp = np.array([0.0, 4.0, 5.0, 6.0])
    instance = InstanceSpec(2, ProjectorSpec.uniform(2), DiagonalSpec.from_values(2, hp))
    swept = gap_sweep(instance, grid_points=21)
    assert np.ptp(swept.levels[0, 1:]) < 1e-12

    def at_s0(vectors):
        return GapProfile(
            grid=swept.grid[:1],
            levels=swept.levels[:1],
            gap1=swept.gap1[:1],
            min_gap=swept.min_gap,
            crossings=(),
            spectral_width=swept.spectral_width,
            schedule=swept.schedule,
            vectors=vectors,
        )

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    given = swept.vectors[:1].astype(complex)
    turned = given.copy()
    turned[0][:, 1:] = given[0][:, 1:] @ q
    plain = estimate_runtime(instance, at_s0(given))
    rotated = estimate_runtime(instance, at_s0(turned))
    assert plain.worst_ratio == pytest.approx(np.std(hp), rel=1e-12)
    assert rotated.worst_ratio == pytest.approx(plain.worst_ratio, rel=1e-12)
    assert plain.worst_level == rotated.worst_level == 1
    # level by level, the two bases of the same level disagree
    dh_u = (np.diag(hp) - instance.h_i_matrix().entries) @ given[0][:, 0]
    per_level = [np.abs(v[0][:, 1:].conj().T @ dh_u) for v in (given, turned)]
    assert np.max(np.abs(per_level[0] - per_level[1])) > 0.1


# ---------------------------------------------------------------------------
# exports


def test_csv_schema_and_exact_round_trip():
    profile = gap_sweep(SEARCH_INSTANCE, grid_points=21, keep_vectors=False)
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


def test_csv_and_svg_deterministic():
    a = gap_sweep(MIXED_DRIVER, grid_points=101, keep_vectors=False)
    b = gap_sweep(MIXED_DRIVER, grid_points=101, keep_vectors=False)
    assert export_profile(a) == export_profile(b)
    assert export_svg(a) == export_svg(b)


def test_svg_contains_level_curves_and_annotation():
    profile = gap_sweep(MIXED_DRIVER, grid_points=51, keep_vectors=False)
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
        )
