"""Dense Hermitian operator construction for n-qubit Hamiltonians.

Operators are specified either as real-weighted Pauli strings, as an
explicit diagonal, or as the projector complement ``I - |psi><psi|`` of a
unit vector, and realized as dense matrices in the computational basis,
real unless an imaginary entry survives (see :class:`HermitianMatrix`).
A diagonal final operator is held as its vector of values (see
:func:`diagonal_values`) and densified only on request.

Basis convention: a basis index z is the integer value of the bitstring
with qubit 0 as the *leftmost* tensor factor, i.e. qubit 0 is the most
significant bit.  For two qubits the order is ``00, 01, 10, 11``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PAULI_AXES = "IXYZ"

# Relative tolerance used when validating hermiticity of explicit matrices.
HERMITICITY_RTOL = 1e-12
# Entries below PATTERN_RTOL * (1 + max |entry|) count as structural zeros.
PATTERN_RTOL = 1e-12
# Largest qubit count accepted from outside the program: every operator
# path is dense, and a d x d matrix takes 8 * 4**n bytes when real (128 MiB
# at n = 12) and twice that when complex.
MAX_QUBITS = 12
# Largest norm bound (see norm_bound) of an instance's h_i and h_p together.
# Entries, eigenvalues and gaps are then at most about 1e100, so every square
# and product of them that a solve or a check forms stays finite in float64.
MAX_NORM_BOUND = 1e100


@dataclass(frozen=True)
class PauliString:
    """A word over {I, X, Y, Z}, one letter per qubit, qubit 0 first."""

    axes: str

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("Pauli string must cover at least one qubit")
        bad = set(self.axes) - set(PAULI_AXES)
        if bad:
            raise ValueError(
                f"Pauli string {self.axes!r} contains invalid axes {sorted(bad)}"
            )

    def __len__(self) -> int:
        return len(self.axes)

    def __str__(self) -> str:
        return self.axes


@dataclass(frozen=True)
class PauliExpression:
    """A real linear combination of Pauli strings on ``n_qubits`` qubits."""

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        for coefficient, string in self.terms:
            if not math.isfinite(coefficient):
                raise ValueError(f"non-finite coefficient {coefficient!r}")
            if len(string) != self.n_qubits:
                raise ValueError(
                    f"term {string.axes!r} acts on {len(string)} qubits, "
                    f"expected {self.n_qubits}"
                )

    @classmethod
    def from_terms(cls, n_qubits, pairs) -> "PauliExpression":
        """Build from an iterable of ``(coefficient, axes)`` pairs."""
        terms = tuple(
            (float(c), s if isinstance(s, PauliString) else PauliString(s))
            for c, s in pairs
        )
        return cls(n_qubits, terms)


@dataclass(frozen=True)
class DiagonalSpec:
    """A diagonal operator given by its 2**n_qubits diagonal values."""

    n_qubits: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        expected = 1 << self.n_qubits
        if len(self.values) != expected:
            raise ValueError(
                f"diagonal length {len(self.values)} does not match "
                f"2**{self.n_qubits} = {expected}"
            )
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"non-finite diagonal value {v!r}")

    @classmethod
    def from_values(cls, n_qubits, values) -> "DiagonalSpec":
        return cls(n_qubits, tuple(float(v) for v in values))


@dataclass(frozen=True, eq=False)
class ProjectorSpec:
    """The complement ``I - |psi><psi|`` of a unit vector on n qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, expected "
                f"({1 << self.n_qubits},)"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"amplitudes must be normalized, got |psi| = {norm}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def uniform(cls, n_qubits: int) -> "ProjectorSpec":
        d = 1 << n_qubits
        return cls(n_qubits, np.full(d, 1.0 / math.sqrt(d), dtype=complex))

    def is_uniform(self, tol: float = 1e-12) -> bool:
        d = self.amplitudes.size
        return bool(np.max(np.abs(self.amplitudes - 1.0 / math.sqrt(d))) <= tol)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectorSpec):
            return NotImplemented
        return self.n_qubits == other.n_qubits and np.array_equal(
            self.amplitudes, other.amplitudes
        )


def _stored(entries: np.ndarray) -> np.ndarray:
    """``entries`` read-only, and float64 unless an imaginary part is nonzero:
    how an operator and its gauge rotation are stored."""
    if np.iscomplexobj(entries) and not np.any(entries.imag):
        entries = entries.real.copy()
    entries.flags.writeable = False
    return entries


def _scaled_plus_diagonal(
    a, entries: np.ndarray, b, values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a * entries`` with ``b * values`` added on its diagonal, written to
    ``out`` if given, else to a new array: how every operator of an
    interpolation, ``a H_i + diag(b h_p)`` or a proof-chain ``F(s)``, is
    formed."""
    out = np.multiply(a, entries, out=out)
    out.flat[:: out.shape[0] + 1] += b * values
    return out


# Rows per block of the validation passes below: a block and its transposed
# partner stay small, where one pass over the whole matrix would make d x d
# temporaries.
_VALIDATION_ROWS = 32


def _max_abs(m: np.ndarray) -> float:
    """``max |m|`` (NaN if an entry is NaN), with no ``d x d`` temporary."""
    if not np.iscomplexobj(m):
        return float(max(m.max(), -m.min()))
    # np.max, not max: a NaN block maximum must win over every other
    return float(np.max([
        np.abs(m[r : r + _VALIDATION_ROWS]).max()
        for r in range(0, m.shape[0], _VALIDATION_ROWS)
    ]))


def _hermiticity_defect(m: np.ndarray) -> float:
    """``max |M - M^dag|`` of a finite square ``m``, from its upper triangle.

    The entry at (i, j) and the one at (j, i) have the same magnitude, so
    each block of rows is compared only from its diagonal on, against the
    matching block of columns.
    """
    defect = 0.0
    for r in range(0, m.shape[0], _VALIDATION_ROWS):
        partner = m[r:, r : r + _VALIDATION_ROWS].T
        if np.iscomplexobj(m):
            partner = partner.conj()
        defect = max(defect, float(np.abs(m[r : r + _VALIDATION_ROWS, r:] - partner).max()))
    return defect


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A dense matrix validated to be Hermitian, held real when it is real.

    Stored float64 when no entry has a nonzero imaginary part, complex128
    otherwise (:func:`_stored`).  Input that already has that dtype is
    validated and kept without a copy, and made read-only.  Hermiticity is
    enforced up to ``HERMITICITY_RTOL * (1 + max |entry|)``; every entry
    must be finite.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("matrix dimension must be positive")
        m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
        scale = 1.0 + _max_abs(m)
        if not np.isfinite(scale):
            raise ValueError("matrix has a non-finite entry")
        defect = _hermiticity_defect(m)
        if defect > HERMITICITY_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e} "
                f"exceeds {HERMITICITY_RTOL * scale:.3e}"
            )
        object.__setattr__(self, "entries", _stored(m))

    @classmethod
    def of(cls, h) -> "HermitianMatrix":
        """``h`` itself if it is a :class:`HermitianMatrix`, else ``h`` validated."""
        return h if isinstance(h, cls) else cls(h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


def build_pauli(expression: PauliExpression) -> HermitianMatrix:
    """Realize a Pauli expression as a dense Hermitian matrix.

    Works column-by-column in bit arithmetic: a string with X or Y on a
    set of qubits couples column z to row ``z ^ flip_mask``; Z and Y
    letters contribute sign/phase factors depending on the source bits.
    With no Y letter every amplitude is real, and the terms are summed in
    float64; each term's ``z ^ flip_mask`` is a permutation of the
    columns, so the sums are those a complex matrix would hold.
    """
    n = expression.n_qubits
    d = 1 << n
    has_y = any("Y" in string.axes for _, string in expression.terms)
    dtype = complex if has_y else float
    out = np.zeros((d, d), dtype=dtype)
    cols = np.arange(d)
    for coefficient, string in expression.terms:
        amplitude = np.full(d, coefficient, dtype=dtype)
        flip_mask = 0
        for q, axis in enumerate(string.axes):
            if axis == "I":
                continue
            bit = (cols >> (n - 1 - q)) & 1
            if axis == "X":
                flip_mask |= 1 << (n - 1 - q)
            elif axis == "Y":
                flip_mask |= 1 << (n - 1 - q)
                amplitude = amplitude * (1j * (1 - 2 * bit))
            else:  # Z
                amplitude = amplitude * (1 - 2 * bit)
        np.add.at(out, (cols ^ flip_mask, cols), amplitude)
    return HermitianMatrix(out)


def build_diagonal(spec: DiagonalSpec) -> HermitianMatrix:
    """Realize a diagonal spec; off-diagonal entries are exactly zero."""
    return HermitianMatrix(np.diag(np.asarray(spec.values, dtype=float)))


def diagonal_values(h_p, dim: int) -> np.ndarray:
    """A diagonal final operator as the read-only float64 vector of its values.

    ``h_p`` may be a :class:`DiagonalSpec`, a 1-d array of real values, or a
    :class:`HermitianMatrix` or 2-d array whose off-diagonal entries are
    structural zeros (below ``PATTERN_RTOL * (1 + max |entry|)``).  This is
    the one place that decides how a final operator is held.  Raises
    ``ValueError`` for any other input or unless there are ``dim`` values.
    """
    if isinstance(h_p, DiagonalSpec):
        h_p = h_p.values
    elif isinstance(h_p, HermitianMatrix) or np.ndim(h_p) == 2:
        entries = HermitianMatrix.of(h_p).entries
        worst = float(np.max(np.abs(entries - np.diag(np.diag(entries)))))
        if worst > PATTERN_RTOL * (1.0 + _max_abs(entries)):
            raise ValueError(
                f"h_p must be diagonal in the computational basis; found "
                f"off-diagonal entry of magnitude {worst:.3e}"
            )
        h_p = np.diag(entries).real
    values = np.array(h_p)
    if values.ndim != 1 or (np.iscomplexobj(values) and np.any(values.imag)):
        raise ValueError(
            f"h_p must be a diagonal matrix or a 1-d vector of real diagonal "
            f"values, got a {values.dtype} array of shape {values.shape}"
        )
    values = values.real.astype(float)
    if values.shape != (dim,):
        raise ValueError(f"dimension mismatch: h_i is {dim}-dimensional, h_p {values.size}")
    if not np.all(np.isfinite(values)):
        raise ValueError("h_p diagonal values must be finite")
    values.flags.writeable = False
    return values


def build_projector_complement(spec: ProjectorSpec) -> HermitianMatrix:
    """Realize ``I - |psi><psi|`` for the stored unit vector."""
    psi = spec.amplitudes
    return HermitianMatrix(np.eye(psi.size, dtype=complex) - np.outer(psi, psi.conj()))


def norm_bound(operator) -> float:
    """An upper bound on the spectral norm of an operator description, read
    from the description itself: the sum of ``|c_k|`` over Pauli terms, the
    largest ``|value|`` of a diagonal, 1 for a projector complement, and
    ``d * max |entry|`` for a matrix."""
    if isinstance(operator, PauliExpression):
        return sum(abs(coefficient) for coefficient, _ in operator.terms)
    if isinstance(operator, DiagonalSpec):
        return max(max(operator.values), -min(operator.values))
    if isinstance(operator, ProjectorSpec):
        return 1.0
    if isinstance(operator, HermitianMatrix):
        return operator.dim * _max_abs(operator.entries)
    raise TypeError(f"unsupported operator description: {type(operator).__name__}")


def to_matrix(operator) -> HermitianMatrix:
    """Dispatch any supported operator description to its dense matrix."""
    if isinstance(operator, HermitianMatrix):
        return operator
    if isinstance(operator, PauliExpression):
        return build_pauli(operator)
    if isinstance(operator, DiagonalSpec):
        return build_diagonal(operator)
    if isinstance(operator, ProjectorSpec):
        return build_projector_complement(operator)
    raise TypeError(f"unsupported operator description: {type(operator).__name__}")


def interpolate(h_i: HermitianMatrix, h_p: HermitianMatrix, s: float) -> HermitianMatrix:
    """Convex combination ``(1-s) * h_i + s * h_p`` for s in [0, 1].

    The endpoints return the inputs unchanged, so ``s = 0`` is exactly
    ``h_i`` and ``s = 1`` exactly ``h_p``.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"interpolation parameter s = {s} outside [0, 1]")
    if h_i.dim != h_p.dim:
        raise ValueError(
            f"dimension mismatch: h_i is {h_i.dim}-dimensional, h_p {h_p.dim}"
        )
    if s == 0.0:
        return h_i
    if s == 1.0:
        return h_p
    return HermitianMatrix((1.0 - s) * h_i.entries + s * h_p.entries)
