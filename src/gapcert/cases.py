"""Named initial-Hamiltonian families with closed-form ground states.

Families (all with diagonal final operators supplied by the caller):

* ``bit_rotation``        a0 I + sum_i a_i X_i with every a_i < 0;
  ground state is the uniform superposition.
* ``xy_hopping``          -(1/2) sum_{i<j} (X_i X_j + Y_i Y_j); conserves
  Hamming weight, per-block ground state uniform over weight-k strings.
* ``heisenberg``          a0 I + sum_{i<j} a_ij (X X + Y Y + Z Z) with
  a_ij <= 0; same block structure and per-block ground states.
* ``projector_uniform``   I - |u><u| with u the uniform superposition.
* ``transverse_positive`` g sum_i X_i with g > 0; ground state has the
  alternating sign pattern (-1)**weight(z), so the phase gauge is the
  diagonal of Z tensor ... tensor Z.
* ``counterexample``      the fixed two-qubit operator
  -2 XI + IX + IZ - 2 XX whose ground state is strictly positive but
  whose off-diagonal signs break the certificate; paired with
  diag(0, 2, 6, 8) its interpolation has a genuine level crossing.

The weight-block helpers split any operator commuting with the
Hamming-weight counter into its fixed-weight blocks so those families can
be certified block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .certifier import CertificateReport, certify_pair
from .paulialg import (
    MAX_QUBITS, DiagonalSpec, HermitianMatrix, PauliExpression, ProjectorSpec, _max_abs
)
from .specfile import InstanceSpec

# Each family and the coefficients of CaseParams it takes; every other
# coefficient must stay at its default.
COEFFICIENTS = {
    "bit_rotation": ("a0", "ai"),
    "xy_hopping": (),
    "heisenberg": ("a0", "aij"),
    "projector_uniform": (),
    "transverse_positive": ("g",),
    "counterexample": (),
}
FAMILIES = tuple(COEFFICIENTS)

COUNTEREXAMPLE_TERMS = ((-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX"))
COUNTEREXAMPLE_HP = (0.0, 2.0, 6.0, 8.0)

# Commutator with the weight counter is judged at 1e-10 * (1 + max |h|).
WEIGHT_SYMMETRY_RTOL = 1e-10


class NotWeightSymmetric(ValueError):
    """Operator does not commute with the Hamming-weight counter."""


def _axes_with(n: int, placements: dict[int, str]) -> str:
    letters = ["I"] * n
    for q, axis in placements.items():
        letters[q] = axis
    return "".join(letters)


@dataclass(frozen=True)
class CaseParams:
    """Coefficients for one family; those it does not take (``COEFFICIENTS``)
    must stay at their defaults."""

    family: str
    n_qubits: int
    a0: float = 0.0
    ai: tuple[float, ...] | None = None
    aij: tuple[tuple[int, int, float], ...] | None = None
    g: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must lie in 1..{MAX_QUBITS}")
        taken = COEFFICIENTS[self.family]
        stray = [
            f.name for f in fields(self)[2:]  # after family and n_qubits
            if f.name not in taken and getattr(self, f.name) != f.default
        ]
        if stray:
            accepted = "only " + ", ".join(taken) if taken else "no free coefficients"
            raise ValueError(f"{self.family} takes {accepted}, not {', '.join(stray)}")
        if self.family == "bit_rotation":
            if self.ai is None or len(self.ai) != self.n_qubits:
                raise ValueError(
                    "bit_rotation needs one coefficient a_i per qubit"
                )
            if any(a >= 0 for a in self.ai):
                raise ValueError("bit_rotation requires every a_i < 0")
        elif self.family == "heisenberg":
            if self.aij is None or not self.aij:
                raise ValueError("heisenberg needs pair couplings a_ij")
            seen = set()
            for i, j, value in self.aij:
                if not 0 <= i < j < self.n_qubits:
                    raise ValueError(f"bad coupling pair ({i}, {j})")
                if (i, j) in seen:
                    raise ValueError(f"duplicate coupling pair ({i}, {j})")
                seen.add((i, j))
                if value > 0:
                    raise ValueError("heisenberg requires every a_ij <= 0")
        elif self.family == "transverse_positive":
            if self.g is None or self.g <= 0:
                raise ValueError("transverse_positive requires g > 0")
        elif self.family == "counterexample":
            if self.n_qubits != 2:
                raise ValueError("the counterexample is a two-qubit operator")


def case_h_i(params: CaseParams):
    """The initial-operator description for a family."""
    n = params.n_qubits
    family = params.family
    if family == "bit_rotation":
        terms = [(params.a0, "I" * n)]
        terms += [(params.ai[q], _axes_with(n, {q: "X"})) for q in range(n)]
        return PauliExpression.from_terms(n, terms)
    if family == "xy_hopping":
        terms = []
        for i in range(n):
            for j in range(i + 1, n):
                terms.append((-0.5, _axes_with(n, {i: "X", j: "X"})))
                terms.append((-0.5, _axes_with(n, {i: "Y", j: "Y"})))
        return PauliExpression.from_terms(n, terms)
    if family == "heisenberg":
        terms = [(params.a0, "I" * n)]
        for i, j, value in params.aij:
            for axis in "XYZ":
                terms.append((value, _axes_with(n, {i: axis, j: axis})))
        return PauliExpression.from_terms(n, terms)
    if family == "projector_uniform":
        return ProjectorSpec.uniform(n)
    if family == "transverse_positive":
        return PauliExpression.from_terms(
            n, [(params.g, _axes_with(n, {q: "X"})) for q in range(n)]
        )
    # counterexample
    return PauliExpression.from_terms(2, COUNTEREXAMPLE_TERMS)


def default_h_p(params: CaseParams) -> DiagonalSpec:
    """A convenient diagonal when the caller does not supply one.

    The counterexample keeps its companion diagonal (0, 2, 6, 8); every
    other family gets the ramp 0, 1, ..., d-1.
    """
    if params.family == "counterexample":
        return DiagonalSpec(2, COUNTEREXAMPLE_HP)
    d = 1 << params.n_qubits
    return DiagonalSpec.from_values(params.n_qubits, range(d))


def build_case(params: CaseParams, h_p: DiagonalSpec | None = None) -> InstanceSpec:
    """Assemble a full instance for a family (linear schedule)."""
    if h_p is None:
        h_p = default_h_p(params)
    return InstanceSpec(n_qubits=params.n_qubits, h_i=case_h_i(params), h_p=h_p)


def ground_state_reference(params: CaseParams, k: int | None = None) -> np.ndarray:
    """Closed-form ground state of a family's initial operator.

    For the weight-symmetric families (``xy_hopping``, ``heisenberg``)
    the block index ``k`` selects the fixed-weight sector and the vector
    returned is the full-space embedding, uniform with value
    ``1/sqrt(binomial(n, k))`` on the weight-k strings.
    """
    n = params.n_qubits
    d = 1 << n
    family = params.family
    if family in ("bit_rotation", "projector_uniform"):
        return np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    if family == "transverse_positive":
        weights = np.array([bin(z).count("1") for z in range(d)])
        return ((-1.0) ** weights).astype(complex) / math.sqrt(d)
    if family in ("xy_hopping", "heisenberg"):
        if k is None or not 0 <= k <= n:
            raise ValueError(
                f"{family} ground states live in fixed-weight blocks; "
                f"pass k in 0..{n}"
            )
        vector = np.zeros(d, dtype=complex)
        amplitude = 1.0 / math.sqrt(math.comb(n, k))
        for z in range(d):
            if bin(z).count("1") == k:
                vector[z] = amplitude
        return vector
    # counterexample: explicit closed form
    scale = math.sqrt(4.0 + 2.0 * math.sqrt(2.0)) / 4.0
    root = math.sqrt(2.0) - 1.0
    return scale * np.array([root, 1.0, root, 1.0], dtype=complex)


@dataclass(frozen=True)
class WeightBlock:
    """One fixed-weight sector: the weight k, the participating basis
    indices in ascending order, and the restricted operator."""

    k: int
    basis_indices: tuple[int, ...]
    block_matrix: HermitianMatrix


def weight_blocks(h: HermitianMatrix, n_qubits: int) -> list[WeightBlock]:
    """Split an operator into fixed-weight blocks.

    Raises :class:`NotWeightSymmetric` unless ``h`` commutes with the
    weight counter within ``WEIGHT_SYMMETRY_RTOL * (1 + max |h|)``.
    """
    if h.dim != 1 << n_qubits:
        raise ValueError(f"matrix dimension {h.dim} does not match 2**{n_qubits}")
    # the diagonal of the Hamming-weight counter W = sum_i (I - Z_i) / 2
    weights = np.array([bin(z).count("1") for z in range(1 << n_qubits)], dtype=float)
    # [h, W] for diagonal W has entries h_ab (w_b - w_a).
    commutator = h.entries * (weights[np.newaxis, :] - weights[:, np.newaxis])
    defect = float(np.max(np.abs(commutator)))
    tol = WEIGHT_SYMMETRY_RTOL * (1.0 + _max_abs(h.entries))
    if defect > tol:
        raise NotWeightSymmetric(
            f"operator does not conserve Hamming weight: max |[h, W]| = "
            f"{defect:.3e} exceeds {tol:.3e}"
        )
    blocks = []
    for k in range(n_qubits + 1):
        indices = np.nonzero(weights == k)[0]
        block = h.entries[np.ix_(indices, indices)]
        blocks.append(
            WeightBlock(
                k=k,
                basis_indices=tuple(int(z) for z in indices),
                block_matrix=HermitianMatrix(block),
            )
        )
    return blocks


def block_pair(instance: InstanceSpec, k: int) -> tuple[HermitianMatrix, np.ndarray]:
    """Restrict an instance's pair of operators to the weight-k block.

    Returns the restricted initial operator and the corresponding slice
    of the final diagonal.
    """
    if not 0 <= k <= instance.n_qubits:
        raise ValueError(f"block index k = {k} outside 0..{instance.n_qubits}")
    blocks = weight_blocks(instance.h_i_matrix(), instance.n_qubits)
    block = blocks[k]
    diag = np.array([instance.h_p.values[z] for z in block.basis_indices])
    return block.block_matrix, diag


def certify_block(instance: InstanceSpec, k: int) -> CertificateReport:
    """Run the certificate on one fixed-weight block of an instance."""
    return certify_pair(*block_pair(instance, k))
