"""Tests for the named operator families and weight-block helpers."""

import math

import numpy as np
import pytest

from gapcert.cases import (
    COUNTEREXAMPLE_HP,
    COUNTEREXAMPLE_TERMS,
    FAMILIES,
    CaseParams,
    NotWeightSymmetric,
    block_pair,
    build_case,
    case_h_i,
    certify_block,
    default_h_p,
    ground_state_reference,
    weight_blocks,
    weight_operator,
)
from gapcert.paulialg import DiagonalSpec, ProjectorSpec, to_matrix
from gapcert.specfile import parse_instance, serialize_instance
from gapcert.spectral import ground_state


# ---------------------------------------------------------------------------
# parameter validation


def test_family_roster_stable():
    assert FAMILIES == (
        "bit_rotation",
        "xy_hopping",
        "heisenberg",
        "projector_uniform",
        "transverse_positive",
        "counterexample",
    )


def test_params_validation():
    with pytest.raises(ValueError, match="unknown family"):
        CaseParams("ising", 2)
    with pytest.raises(ValueError, match="per qubit"):
        CaseParams("bit_rotation", 3, ai=(-1.0, -1.0))
    with pytest.raises(ValueError, match="a_i < 0"):
        CaseParams("bit_rotation", 2, ai=(-1.0, 0.0))
    with pytest.raises(ValueError, match="pair couplings"):
        CaseParams("heisenberg", 2)
    with pytest.raises(ValueError, match="bad coupling pair"):
        CaseParams("heisenberg", 2, aij=((1, 1, -1.0),))
    with pytest.raises(ValueError, match="duplicate"):
        CaseParams("heisenberg", 3, aij=((0, 1, -1.0), (0, 1, -0.5)))
    with pytest.raises(ValueError, match="a_ij <= 0"):
        CaseParams("heisenberg", 2, aij=((0, 1, 0.5),))
    with pytest.raises(ValueError, match="g > 0"):
        CaseParams("transverse_positive", 2, g=-1.0)
    with pytest.raises(ValueError, match="two-qubit"):
        CaseParams("counterexample", 3)
    with pytest.raises(ValueError, match="no free coefficients"):
        CaseParams("xy_hopping", 2, g=1.0)
    with pytest.raises(ValueError, match="no free coefficients"):
        CaseParams("projector_uniform", 2, ai=(-1.0, -1.0))
    with pytest.raises(ValueError, match=r"1\.\.12"):
        CaseParams("projector_uniform", 40)


@pytest.mark.parametrize(
    "family, stray",
    [
        ("transverse_positive", {"g": 1.0, "a0": 3.0}),
        ("xy_hopping", {"a0": 1.0}),
        ("projector_uniform", {"a0": -1.0}),
        ("counterexample", {"a0": 0.5}),
        ("bit_rotation", {"ai": (-1.0, -1.0), "g": 1.0}),
        ("heisenberg", {"aij": ((0, 1, -1.0),), "g": 1.0}),
        ("bit_rotation", {"ai": (-1.0, -1.0), "aij": ((0, 1, -1.0),)}),
        ("transverse_positive", {"g": 1.0, "aij": ((0, 1, -1.0),)}),
        ("heisenberg", {"aij": ((0, 1, -1.0),), "ai": (-1.0, -1.0)}),
    ],
)
def test_params_reject_a_coefficient_the_family_does_not_take(family, stray):
    # the instance would be written without it, so it is refused
    with pytest.raises(ValueError, match="takes (only|no free)"):
        CaseParams(family, 2, **stray)


def test_params_accept_an_untaken_coefficient_at_its_default():
    assert CaseParams("transverse_positive", 2, g=1.0, a0=0.0).a0 == 0.0
    assert CaseParams("counterexample", 2, ai=None, g=None).g is None


# ---------------------------------------------------------------------------
# operators


def test_bit_rotation_matrix():
    params = CaseParams("bit_rotation", 2, a0=0.25, ai=(-1.0, -0.5))
    h = to_matrix(case_h_i(params)).entries
    want = (
        0.25 * np.eye(4)
        - 1.0 * np.kron([[0, 1], [1, 0]], np.eye(2))
        - 0.5 * np.kron(np.eye(2), [[0, 1], [1, 0]])
    )
    assert np.max(np.abs(h - want)) < 1e-14


def test_counterexample_terms_and_companion_diagonal():
    params = CaseParams("counterexample", 2)
    expr = case_h_i(params)
    assert tuple((c, s.axes) for c, s in expr.terms) == COUNTEREXAMPLE_TERMS
    assert default_h_p(params).values == COUNTEREXAMPLE_HP
    assert COUNTEREXAMPLE_HP == (0.0, 2.0, 6.0, 8.0)


def test_default_ramp_diagonal():
    params = CaseParams("projector_uniform", 3)
    assert default_h_p(params).values == tuple(float(z) for z in range(8))


def test_projector_family_is_uniform_projector():
    h_i = case_h_i(CaseParams("projector_uniform", 2))
    assert isinstance(h_i, ProjectorSpec) and h_i.is_uniform()


def test_build_case_round_trips_through_text():
    for params in (
        CaseParams("bit_rotation", 2, ai=(-1.0, -0.5)),
        CaseParams("xy_hopping", 3),
        CaseParams("heisenberg", 2, aij=((0, 1, -1.0),)),
        CaseParams("counterexample", 2),
    ):
        instance = build_case(params)
        back = parse_instance(serialize_instance(instance))
        assert np.array_equal(
            back.h_i_matrix().entries, instance.h_i_matrix().entries
        )
        assert back.h_p == instance.h_p


# ---------------------------------------------------------------------------
# reference ground states vs numerics


def test_uniform_references_match_numerics():
    for params in (
        CaseParams("bit_rotation", 3, a0=-0.5, ai=(-1.0, -0.7, -0.4)),
        CaseParams("projector_uniform", 3),
    ):
        reference = ground_state_reference(params)
        numeric = ground_state(to_matrix(case_h_i(params))).vector
        assert np.max(np.abs(reference - numeric)) < 1e-12


def test_alternating_sign_reference_matches_numerics():
    params = CaseParams("transverse_positive", 3, g=1.7)
    reference = ground_state_reference(params)
    numeric = ground_state(to_matrix(case_h_i(params))).vector
    # phase convention: both normalize the largest entry real positive, and
    # here all magnitudes tie, so the first component anchors the sign
    if numeric[0].real < 0:
        numeric = -numeric
    assert np.max(np.abs(reference - numeric)) < 1e-12
    weights = np.array([bin(z).count("1") for z in range(8)])
    assert np.allclose(reference.real * math.sqrt(8), (-1.0) ** weights)


def test_counterexample_reference_is_exact_eigenvector():
    params = CaseParams("counterexample", 2)
    reference = ground_state_reference(params)
    h = to_matrix(case_h_i(params)).entries
    residual = h @ reference - (-(2.0 + math.sqrt(2.0))) * reference
    assert np.max(np.abs(residual)) < 1e-12
    numeric = ground_state(h)
    assert np.max(np.abs(reference - numeric.vector)) < 1e-10


def test_block_references_match_block_numerics():
    cases = [
        (CaseParams("xy_hopping", 4), None),
        (CaseParams("heisenberg", 4, aij=((0, 1, -1.0), (1, 2, -0.6), (2, 3, -0.9))), None),
        (CaseParams("heisenberg", 3, a0=0.3, aij=((0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0))), None),
    ]
    for params, _ in cases:
        n = params.n_qubits
        h = to_matrix(case_h_i(params))
        blocks = weight_blocks(h, n)
        for k in range(n + 1):
            reference = ground_state_reference(params, k=k)
            restricted = reference[list(blocks[k].basis_indices)]
            numeric = ground_state(blocks[k].block_matrix).vector
            assert np.max(np.abs(restricted - numeric)) < 1e-12, (params.family, k)


def test_reference_requires_block_index_for_hopping_families():
    with pytest.raises(ValueError, match="fixed-weight"):
        ground_state_reference(CaseParams("xy_hopping", 3))
    with pytest.raises(ValueError, match="fixed-weight"):
        ground_state_reference(
            CaseParams("heisenberg", 3, aij=((0, 1, -1.0),)), k=7
        )


# ---------------------------------------------------------------------------
# weight blocks


def test_weight_operator_frozen():
    assert np.array_equal(weight_operator(2), [0.0, 1.0, 1.0, 2.0])


def test_xy_blocks_structure_and_frozen_matrices():
    h = to_matrix(case_h_i(CaseParams("xy_hopping", 3)))
    blocks = weight_blocks(h, 3)
    assert [b.k for b in blocks] == [0, 1, 2, 3]
    assert [len(b.basis_indices) for b in blocks] == [1, 3, 3, 1]
    assert blocks[1].basis_indices == (1, 2, 4)
    assert blocks[2].basis_indices == (3, 5, 6)
    # hopping between any two weight-1 strings: the complete graph at -1
    want = -(np.ones((3, 3)) - np.eye(3))
    assert np.max(np.abs(blocks[1].block_matrix.entries - want)) < 1e-14
    assert np.max(np.abs(blocks[0].block_matrix.entries)) == 0.0


def test_two_qubit_frozen_blocks():
    h = to_matrix(case_h_i(CaseParams("xy_hopping", 2)))
    blocks = weight_blocks(h, 2)
    assert np.array_equal(
        blocks[1].block_matrix.entries, np.array([[0, -1], [-1, 0]], dtype=complex)
    )
    h = to_matrix(case_h_i(CaseParams("heisenberg", 2, aij=((0, 1, -1.0),))))
    blocks = weight_blocks(h, 2)
    # XX+YY hops with amplitude 2 a_01, ZZ contributes -a_01 on the diagonal
    assert np.array_equal(
        blocks[1].block_matrix.entries, np.array([[1, -2], [-2, 1]], dtype=complex)
    )
    assert np.array_equal(blocks[0].block_matrix.entries, [[-1.0]])


def test_weight_asymmetric_operator_rejected():
    h = to_matrix(case_h_i(CaseParams("bit_rotation", 2, ai=(-1.0, -1.0))))
    with pytest.raises(NotWeightSymmetric, match="Hamming"):
        weight_blocks(h, 2)


def test_block_pair_slices_final_diagonal():
    instance = build_case(
        CaseParams("xy_hopping", 3), DiagonalSpec.from_values(3, range(8))
    )
    h_block, diag = block_pair(instance, 1)
    assert h_block.dim == 3
    assert np.array_equal(diag, [1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="outside"):
        block_pair(instance, 4)


def test_certify_blocks_of_hopping_families():
    instance = build_case(CaseParams("xy_hopping", 3))
    for k in range(4):
        report = certify_block(instance, k)
        assert report.is_certified, k

    instance = build_case(
        CaseParams("heisenberg", 3, aij=((0, 1, -1.0), (1, 2, -0.8), (0, 2, -0.5)))
    )
    for k in range(4):
        assert certify_block(instance, k).is_certified, k


def test_dimension_one_blocks_trivially_certified():
    instance = build_case(CaseParams("xy_hopping", 2))
    for k in (0, 2):
        report = certify_block(instance, k)
        assert report.is_certified
        assert report.condition1.degeneracy_gap == math.inf
