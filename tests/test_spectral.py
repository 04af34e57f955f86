"""Tests for the eigensolver wrapper.

The independent oracle is shifted power iteration: iterate B = cI - H with a
Gershgorin upper bound c, so the ground energy of H is c minus the dominant
eigenvalue of B.  No eigh call appears in the oracle.
"""

import ast
import math
import pathlib

import numpy as np
import pytest

from gapcert import spectral
from gapcert.paulialg import HermitianMatrix, PauliExpression, build_pauli
from gapcert.spectral import (
    EigensolverError,
    EigenSystem,
    GroundState,
    eigensystem,
    ground_state,
    low_spectrum,
)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def gershgorin_upper(h):
    radii = np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
    return float(np.max(np.real(np.diag(h)) + radii))


def power_iteration_ground_energy(h, rng, iterations=6000):
    """Ground energy by power iteration on the flipped-and-shifted matrix."""
    c = gershgorin_upper(h) + 1.0
    b = c * np.eye(h.shape[0]) - h
    v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        v = b @ v
        v /= np.linalg.norm(v)
    rayleigh = float(np.real(v.conj() @ b @ v))
    return c - rayleigh


def test_diagonal_matrix_sorted_and_permuted():
    sys = eigensystem(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.array_equal(sys.eigenvalues, [1.0, 2.0, 3.0])
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = want[2, 1] = want[0, 2] = 1.0
    assert np.max(np.abs(sys.eigenvectors - want)) < 1e-15


def test_symmetric_two_level_ground():
    h = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    gs = ground_state(h)
    assert abs(gs.energy) < 1e-15
    assert np.max(np.abs(gs.vector - np.array([1.0, 1.0]) / math.sqrt(2))) < 1e-15
    assert gs.is_unique and abs(gs.degeneracy_gap - 1.0) < 1e-15


def test_mixed_driver_ground_pair_analytic():
    # -2 XI + IX + IZ - 2 XX: ground energy -(2 + sqrt(2)) with an explicit
    # positive eigenvector
    expr = PauliExpression.from_terms(
        2, [(-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX")]
    )
    gs = ground_state(build_pauli(expr))
    assert abs(gs.energy - (-(2.0 + math.sqrt(2.0)))) < 1e-12
    norm = math.sqrt(4.0 + 2.0 * math.sqrt(2.0)) / 4.0
    want = norm * np.array(
        [math.sqrt(2.0) - 1.0, 1.0, math.sqrt(2.0) - 1.0, 1.0]
    )
    assert np.max(np.abs(gs.vector - want)) < 1e-10
    assert gs.is_unique


def test_ground_energy_matches_power_iteration():
    rng = np.random.default_rng(20240813)
    for _ in range(12):
        d = int(rng.integers(2, 17))
        h = random_hermitian(rng, d)
        gs = ground_state(h)
        oracle = power_iteration_ground_energy(h, rng)
        assert abs(gs.energy - oracle) < 1e-8 * (1.0 + abs(oracle))


def test_shift_covariance():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 8)
    base = eigensystem(h)
    shifted = eigensystem(h + 2.5 * np.eye(8))
    assert np.max(np.abs(shifted.eigenvalues - (base.eigenvalues + 2.5))) < 1e-12
    assert np.max(np.abs(shifted.eigenvectors - base.eigenvectors)) < 1e-9


def test_unitary_conjugation_preserves_spectrum():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 10)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    rotated = q @ h @ q.conj().T
    rotated = (rotated + rotated.conj().T) / 2.0
    a = eigensystem(h).eigenvalues
    b = eigensystem(rotated).eigenvalues
    assert np.max(np.abs(a - b)) < 1e-10 * (1.0 + np.max(np.abs(a)))


def test_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(5)
    for d in (2, 5, 16):
        h = random_hermitian(rng, d)
        sys = eigensystem(h)
        assert abs(np.sum(sys.eigenvalues) - np.real(np.trace(h))) < 1e-10 * d


def phase_fixed(vector):
    """One vector brought to the phase convention by the stacked helper."""
    v = np.asarray(vector, dtype=complex)
    return v * spectral._phase_factors(v[np.newaxis, :, np.newaxis])[0, 0]


def test_fix_phase_convention():
    v = np.array([0.3j, -0.9j, 0.3], dtype=complex)
    fixed = phase_fixed(v)
    assert fixed[1].imag == 0.0 and fixed[1].real > 0.0
    # global-phase invariance: e^{i t} v maps to the same representative
    again = phase_fixed(v * np.exp(0.7j))
    assert np.max(np.abs(fixed - again)) < 1e-15
    # tie on magnitude: the lowest index wins
    tie = phase_fixed(np.array([1.0j, 1.0j]))
    assert tie[0].real > 0.0 and abs(tie[0].imag) < 1e-15
    zero = phase_fixed(np.zeros(3, dtype=complex))
    assert np.array_equal(zero, np.zeros(3))


def test_eigensystem_deterministic_across_calls():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 12)
    a = eigensystem(h)
    b = eigensystem(h.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    assert not a.eigenvectors.flags.writeable


def test_non_hermitian_input_rejected():
    with pytest.raises(ValueError):
        eigensystem(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_degenerate_ground_flagged():
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    gs = ground_state(h)
    assert not gs.is_unique
    assert gs.degeneracy_gap == 0.0
    # near-degeneracy below the scaled threshold is flagged too
    h = np.diag([0.0, 1e-10, 1.0]).astype(complex)
    assert not ground_state(h).is_unique


def test_ground_state_is_one_solve(solve_log):
    ground_state(random_hermitian(np.random.default_rng(6), 8))
    assert solve_log == [2]


@pytest.mark.parametrize("dtype", [float, complex])
def test_gershgorin_width_never_below_spectral_width(dtype):
    rng = np.random.default_rng(20261018)
    for d in (1, 2, 3, 5, 8, 16, 33):
        for scale in (1e-6, 1.0, 1e4):
            h = random_hermitian(rng, d) * scale
            h = h.real if dtype is float else h
            values = np.linalg.eigvalsh(h)
            assert spectral._gershgorin_width(h) >= values[-1] - values[0]


def test_gap_below_the_gershgorin_scale_is_not_unique():
    # a dense rotation of diag(0, gap, 5, 10): spectral width 10, Gershgorin
    # width far larger, and a gap between the two degeneracy tolerances
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))

    def rotated(gap):
        h = q @ np.diag([0.0, gap, 5.0, 10.0]) @ q.T
        return (h + h.T) / 2.0

    h = rotated(0.0)
    radii = np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
    gershgorin = float(np.max(np.diag(h) + radii) - np.min(np.diag(h) - radii))
    assert gershgorin > 15.0
    gap = spectral.DEGENERACY_RTOL * (1.0 + (10.0 + gershgorin) / 2.0)
    h = rotated(gap)
    values = np.linalg.eigvalsh(h)
    exact = spectral.DEGENERACY_RTOL * (1.0 + values[-1] - values[0])
    gs = ground_state(h)
    assert exact < gs.degeneracy_gap < spectral.DEGENERACY_RTOL * (1.0 + gershgorin)
    assert not gs.is_unique


def test_one_dimensional_ground_gap_infinite():
    gs = ground_state(np.array([[4.0]], dtype=complex))
    assert gs.energy == 4.0
    assert math.isinf(gs.degeneracy_gap)
    assert gs.is_unique


def test_low_spectrum_consistent_slice():
    # a different LAPACK driver from eigensystem's: equal to rounding, with
    # the same phase convention on a nondegenerate spectrum, where rounding
    # moves a vector by about eps * scale / (distance to the next level)
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 9)
    sys = eigensystem(h)
    values, vectors = low_spectrum(h, 3)
    assert values.shape == (3,) and vectors.shape == (9, 3)
    scale = 1.0 + np.max(np.abs(sys.eigenvalues))
    separation = np.min(np.diff(sys.eigenvalues[:4]))
    assert np.max(np.abs(values - sys.eigenvalues[:3])) < 1e-12 * scale
    assert np.max(np.abs(vectors - sys.eigenvectors[:, :3])) < 1e-12 * scale / separation
    with pytest.raises(ValueError):
        low_spectrum(h, 0)
    with pytest.raises(ValueError):
        low_spectrum(h, 10)


# ---------------------------------------------------------------------------
# the sweep's seam: a real and a complex operator for every check

SEAM_TERMS = [(-1.0, "XII"), (-0.7, "IXI"), (-0.4, "IIX"), (0.5, "ZZI"), (0.3, "IZZ")]
SEAM_OPERATORS = {
    "real": build_pauli(PauliExpression.from_terms(3, SEAM_TERMS)).entries.real,
    "complex": build_pauli(
        PauliExpression.from_terms(3, SEAM_TERMS + [(0.6, "YZI")])
    ).entries,
}


@pytest.fixture(params=sorted(SEAM_OPERATORS))
def seam_operator(request):
    h = SEAM_OPERATORS[request.param]
    assert np.iscomplexobj(h) == (request.param == "complex")
    return h


def test_seam_levels_match_eigvalsh(seam_operator):
    d = seam_operator.shape[0]
    want = np.linalg.eigvalsh(seam_operator)
    for m in (1, 2, 4, d):
        values, _ = low_spectrum(seam_operator, m)
        assert values.shape == (m,)
        assert np.all(np.diff(values) >= 0.0)
        assert np.max(np.abs(values - want[:m])) <= 1e-10 * np.max(np.abs(want))


def test_seam_full_range(seam_operator):
    d = seam_operator.shape[0]
    values, vectors = low_spectrum(seam_operator, d)
    assert values.shape == (d,) and vectors.shape == (d, d)
    assert np.array_equal(values, np.sort(values))
    assert not values.flags.writeable and not vectors.flags.writeable


def test_seam_vectors_orthonormal_and_phase_fixed(seam_operator):
    d = seam_operator.shape[0]
    values, vectors = low_spectrum(seam_operator, 4)
    assert vectors.dtype == seam_operator.dtype
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) < 1e-12
    residual = seam_operator @ vectors - vectors * values
    assert np.max(np.abs(residual)) < 1e-12 * d
    for k in range(4):
        column = vectors[:, k]
        assert np.max(np.abs(phase_fixed(column) - column)) < 1e-15
        # the lowest index within 1e-9 of the largest magnitude is the pivot
        magnitudes = np.abs(column)
        pivot = int(np.nonzero(magnitudes >= (1.0 - 1e-9) * magnitudes.max())[0][0])
        assert column[pivot].real > 0.0 and abs(column[pivot].imag) < 1e-15


def test_seam_rejects_a_perturbed_driver_result(seam_operator, monkeypatch):
    name = "_HEEVR" if np.iscomplexobj(seam_operator) else "_SYEVR"
    driver = getattr(spectral, name)

    def perturbed_value(*args, **kwargs):
        w, z, found, isuppz, info = driver(*args, **kwargs)
        w[0] += 1e-6
        return w, z, found, isuppz, info

    def perturbed_vector(*args, **kwargs):
        w, z, found, isuppz, info = driver(*args, **kwargs)
        z[:, 0] += 1e-6 * z[:, 1]
        return w, z, found, isuppz, info

    def failed(*args, **kwargs):
        w, z, found, isuppz, info = driver(*args, **kwargs)
        return w, z, found - 1, isuppz, info

    for fake, match in (
        (perturbed_value, "residual"),
        (perturbed_vector, "residual|orthonormality"),
        (failed, "pairs"),
    ):
        monkeypatch.setattr(spectral, name, fake)
        with pytest.raises(EigensolverError, match=match):
            low_spectrum(seam_operator, 3)


@pytest.mark.parametrize("size", [1.0, 1e10])
def test_the_residual_bound_scales_with_the_operator(size, monkeypatch):
    # a ground level of exactly zero under entries of any size: the residual
    # LAPACK leaves grows with the entries, and so does the bound
    h = size * build_pauli(
        PauliExpression.from_terms(2, [(1.0, "II"), (-0.6, "XI"), (-0.4, "IX")])
    ).entries
    values, _ = low_spectrum(h, 2)
    assert abs(values[0]) <= 1e-12 * size
    # a shift of the value by 1e-8 of the entries' size still fails
    driver = spectral._SYEVR

    def perturbed_value(*args, **kwargs):
        w, z, found, isuppz, info = driver(*args, **kwargs)
        w[0] += 1e-8 * size
        return w, z, found, isuppz, info

    monkeypatch.setattr(spectral, "_SYEVR", perturbed_value)
    with pytest.raises(EigensolverError, match="residual"):
        low_spectrum(h, 2)


def test_accepts_wrapper_and_array_alike():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 6)
    a = eigensystem(h)
    b = eigensystem(HermitianMatrix(h))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_only_spectral_touches_the_solver():
    # one seam: no other module imports, calls or names LAPACK's drivers,
    # the compiled module they come from and its loader, the raw pairs or
    # the helpers that phase-fix and check them
    guarded = {
        "lapack_pairs",
        "_phase_factors",
        "_validate_pairs",
        "get_lapack_funcs",
        "_load_flapack",
        "_flapack",
        "_FLAPACK",
    }
    package = pathlib.Path(spectral.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert package / "spectral.py" in sources and len(sources) > 5
    for path in sources:
        if path.name == "spectral.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & guarded, (path.name, sorted(names & guarded))
