"""Tests for operator containers and dense matrix builders.

The oracle here is deliberately different from the implementation: matrices
are assembled by chaining ``np.kron`` over explicit 2x2 Pauli factors, while
the library builds them with index arithmetic on computational-basis columns.
"""

import numpy as np
import pytest

from gapcert import paulialg
from gapcert.cases import CaseParams, build_case
from gapcert.paulialg import (
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    PauliString,
    ProjectorSpec,
    build_diagonal,
    build_pauli,
    build_projector_complement,
    interpolate,
    to_matrix,
)

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
FACTORS = {"I": IDENTITY, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def kron_oracle(expression: PauliExpression) -> np.ndarray:
    """Dense matrix via explicit tensor products, qubit 0 leftmost."""
    d = 1 << expression.n_qubits
    out = np.zeros((d, d), dtype=complex)
    for coefficient, string in expression.terms:
        factor = np.array([[1.0]], dtype=complex)
        for axis in string.axes:
            factor = np.kron(factor, FACTORS[axis])
        out += coefficient * factor
    return out


def random_expression(rng, n_qubits, n_terms):
    pairs = []
    for _ in range(n_terms):
        axes = "".join(rng.choice(list("IXYZ")) for _ in range(n_qubits))
        pairs.append((rng.uniform(-3.0, 3.0), axes))
    return PauliExpression.from_terms(n_qubits, pairs)


# ---------------------------------------------------------------------------
# containers


def test_pauli_string_validation():
    assert len(PauliString("XYZI")) == 4
    assert str(PauliString("ZZ")) == "ZZ"
    with pytest.raises(ValueError):
        PauliString("")
    with pytest.raises(ValueError):
        PauliString("XQ")


def test_expression_length_mismatch_rejected():
    with pytest.raises(ValueError):
        PauliExpression.from_terms(3, [(1.0, "XX")])
    with pytest.raises(ValueError):
        PauliExpression.from_terms(1, [(float("nan"), "X")])
    with pytest.raises(ValueError):
        PauliExpression(0, ())


def test_diagonal_spec_validation():
    spec = DiagonalSpec.from_values(2, [0, 2, 6, 8])
    assert spec.values == (0.0, 2.0, 6.0, 8.0)
    with pytest.raises(ValueError):
        DiagonalSpec.from_values(2, [0, 1, 2])
    with pytest.raises(ValueError):
        DiagonalSpec.from_values(1, [0.0, float("inf")])


def test_projector_spec_normalizes_and_compares():
    uniform = ProjectorSpec.uniform(2)
    assert uniform.is_uniform()
    assert np.allclose(np.abs(uniform.amplitudes) ** 2, 0.25)
    by_hand = ProjectorSpec(2, np.ones(4) / 2.0)
    assert uniform == by_hand
    skew = ProjectorSpec(2, np.array([1.0, 1.0, 1.0, 0.0]) / np.sqrt(3))
    assert not skew.is_uniform()
    assert uniform != skew
    with pytest.raises(ValueError):
        ProjectorSpec(2, np.ones(4))  # not normalized


def test_hermitian_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    h = HermitianMatrix(np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex))
    assert h.dim == 2
    assert not h.entries.flags.writeable
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_hermitian_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        HermitianMatrix(np.array([[bad]]))
    entries = np.eye(3, dtype=type(bad))
    entries[2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        HermitianMatrix(entries)


@pytest.mark.parametrize(
    "dtype, where, skew",
    [
        (np.float64, (69, 3), 1e-3),
        (np.float64, (3, 69), 1e-3),
        (np.float64, (40, 66), 1e-3),
        (np.complex128, (66, 40), 1e-3),
        (np.complex128, (3, 69), 1e-3j),
        (np.complex128, (68, 68), 1e-3j),  # an imaginary diagonal entry
    ],
)
def test_hermiticity_defect_is_found_anywhere_in_a_blocked_pass(dtype, where, skew):
    # 70 rows are two whole validation blocks and a partial one
    d = 70
    assert d % paulialg._VALIDATION_ROWS
    rng = np.random.default_rng(7)
    a = rng.normal(size=(d, d)).astype(dtype)
    if dtype is np.complex128:
        a += 1j * rng.normal(size=(d, d))
    hermitian = a + a.conj().T
    assert HermitianMatrix(hermitian.copy()).dim == d
    assert paulialg._max_abs(hermitian) == np.max(np.abs(hermitian))
    skewed = hermitian.copy()
    skewed[where] += skew
    defect = np.max(np.abs(skewed - skewed.conj().T))
    assert paulialg._hermiticity_defect(skewed) == defect
    with pytest.raises(ValueError) as caught:
        HermitianMatrix(skewed)
    assert f"max |M - M^dag| = {defect:.3e} " in str(caught.value)


def test_a_non_finite_entry_in_a_later_block_is_found():
    entries = np.eye(70, dtype=complex)
    entries[65, 65] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        HermitianMatrix(entries)


def test_hermitian_matrix_is_real_unless_an_imaginary_entry_survives():
    real = np.array([[1.0, 2.0], [2.0, -1.0]])
    h = HermitianMatrix(real)
    assert h.entries.dtype == np.float64
    assert np.shares_memory(h.entries, real)  # validated without a copy
    assert HermitianMatrix(real.astype(complex)).entries.dtype == np.float64
    assert HermitianMatrix([[1, 0], [0, 2]]).entries.dtype == np.float64
    hopping = build_case(CaseParams("xy_hopping", 3), None).h_i_matrix()
    assert hopping.entries.dtype == np.float64  # Y Y is a real product
    one_y = build_pauli(PauliExpression.from_terms(2, [(1.0, "XX"), (0.5, "YZ")]))
    assert one_y.entries.dtype == np.complex128
    cancelled = build_pauli(
        PauliExpression.from_terms(2, [(1.0, "XX"), (0.5, "YZ"), (-0.5, "YZ")])
    )
    assert cancelled.entries.dtype == np.float64
    assert build_projector_complement(ProjectorSpec.uniform(2)).entries.dtype == np.float64
    assert build_diagonal(DiagonalSpec.from_values(1, [0.0, 1.0])).entries.dtype == np.float64


# ---------------------------------------------------------------------------
# builder vs kron oracle


def test_single_factor_matrices_match_oracle():
    for axis, factor in FACTORS.items():
        built = build_pauli(PauliExpression.from_terms(1, [(1.0, axis)]))
        assert np.array_equal(built.entries, factor)


def test_builder_matches_kron_oracle_randomized():
    rng = np.random.default_rng(20240811)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        expr = random_expression(rng, n, int(rng.integers(1, 7)))
        built = build_pauli(expr).entries
        want = kron_oracle(expr)
        assert np.max(np.abs(built - want)) < 1e-13 * (1 + np.max(np.abs(want)))


def test_builder_is_linear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        e1 = random_expression(rng, n, 3)
        e2 = random_expression(rng, n, 3)
        joint = PauliExpression(n, e1.terms + e2.terms)
        lhs = build_pauli(joint).entries
        rhs = build_pauli(e1).entries + build_pauli(e2).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_built_matrices_exactly_hermitian():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        h = build_pauli(random_expression(rng, n, 4)).entries
        assert np.array_equal(h, h.conj().T)


# ---------------------------------------------------------------------------
# frozen expected values


def test_two_qubit_mixed_driver_rows():
    # -2 XI + 1 IX + 1 IZ - 2 XX, expanded by hand in the computational basis
    expr = PauliExpression.from_terms(
        2, [(-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX")]
    )
    expected = np.array(
        [
            [1, 1, -2, -2],
            [1, -1, -2, -2],
            [-2, -2, 1, 1],
            [-2, -2, 1, -1],
        ],
        dtype=complex,
    )
    assert np.array_equal(build_pauli(expr).entries, expected)


def test_uniform_projector_complement_entries():
    h = build_projector_complement(ProjectorSpec.uniform(2)).entries
    expected = np.full((4, 4), -0.25, dtype=complex)
    np.fill_diagonal(expected, 0.75)
    assert np.max(np.abs(h - expected)) < 1e-15


def test_projector_complement_general_state():
    amplitudes = np.array([1.0, 1.0j, -1.0, 0.5]) / np.sqrt(3.25)
    spec = ProjectorSpec(2, amplitudes)
    h = build_projector_complement(spec).entries
    want = np.eye(4) - np.outer(amplitudes, amplitudes.conj())
    assert np.max(np.abs(h - want)) < 1e-14
    # eigenvalues are {0, 1, 1, 1}
    vals = np.linalg.eigvalsh(h)
    assert np.max(np.abs(vals - np.array([0.0, 1.0, 1.0, 1.0]))) < 1e-12


def test_build_diagonal_places_values_in_index_order():
    spec = DiagonalSpec.from_values(2, [0, 2, 6, 8])
    h = build_diagonal(spec).entries
    assert np.array_equal(h, np.diag([0.0, 2.0, 6.0, 8.0]).astype(complex))


def test_to_matrix_dispatch():
    diag = DiagonalSpec.from_values(1, [1.0, -1.0])
    assert np.array_equal(to_matrix(diag).entries, SIGMA_Z)
    expr = PauliExpression.from_terms(1, [(1.0, "X")])
    assert np.array_equal(to_matrix(expr).entries, SIGMA_X)
    proj = ProjectorSpec.uniform(1)
    want = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    assert np.max(np.abs(to_matrix(proj).entries - want)) < 1e-15
    h = HermitianMatrix(SIGMA_Y.copy())
    assert to_matrix(h) is h
    with pytest.raises(TypeError):
        to_matrix([[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_endpoints_exact():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h_i = HermitianMatrix(a + a.conj().T)
    h_p = HermitianMatrix(np.diag(rng.normal(size=4)).astype(complex))
    assert np.array_equal(interpolate(h_i, h_p, 0.0).entries, h_i.entries)
    assert np.array_equal(interpolate(h_i, h_p, 1.0).entries, h_p.entries)


def test_interpolate_midpoint_and_bounds():
    h_i = HermitianMatrix(SIGMA_X.copy())
    h_p = HermitianMatrix(SIGMA_Z.copy())
    mid = interpolate(h_i, h_p, 0.5).entries
    assert np.max(np.abs(mid - 0.5 * (SIGMA_X + SIGMA_Z))) < 1e-15
    with pytest.raises(ValueError):
        interpolate(h_i, h_p, -0.01)
    with pytest.raises(ValueError):
        interpolate(h_i, h_p, 1.01)


def test_interpolate_dimension_mismatch():
    h_i = HermitianMatrix(SIGMA_X.copy())
    h_p = HermitianMatrix(np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        interpolate(h_i, h_p, 0.5)
