"""Perron–Frobenius side of the gap certificate.

For a certified pair, the shifted and gauge-rotated operator

    F(s) = [(1-s) c1 + s c2] I - U^dag [(1-s) h_i + s h_p] U
         = (1-s) (c1 I - U^dag h_i U) + s (c2 I - h_p)

with ``c1 > max eig(h_i)`` and ``c2 > max eig(h_p)`` is entrywise
nonnegative and primitive for every s in [0, 1), so its largest
eigenvalue is simple with a strictly positive eigenvector.  Undoing the
shift maps that simple eigenvalue back onto the ground level of the
interpolated operator, which is what keeps the gap open.

``verify_proof_chain`` re-derives each link numerically on a sample grid.
The result is a numerical corroboration of the argument at the sampled
points, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .certifier import PhaseGauge
from .paulialg import PATTERN_RTOL, HermitianMatrix, diagonal_values
from .specfile import InstanceSpec
from .spectral import ground_state, low_spectrum, top_eigenvalue


class EntryNegative(ValueError):
    """An entry of F(s) is negative (or non-real) beyond tolerance."""

    def __init__(self, row: int, col: int, value: complex, s: float):
        self.row = row
        self.col = col
        self.value = value
        self.s = s
        super().__init__(
            f"F({s}) entry ({row}, {col}) = {value:.6g} is not nonnegative"
        )


def wielandt_bound(dim: int) -> int:
    """Upper bound (d-1)**2 + 1 on the primitivity exponent."""
    return (dim - 1) ** 2 + 1


@dataclass(frozen=True, eq=False)
class AuxiliaryF:
    """Sampled form of F(s), precomputed from a gauge-rotated pair.

    ``a1 = c1 I - U^dag h_i U`` and ``a2 = c2 I - h_p`` are the two
    convex pieces; ``sample(s)`` returns ``(1-s) a1 + s a2``.
    """

    c1: float
    c2: float
    gauge: PhaseGauge
    a1: np.ndarray
    a2: np.ndarray

    @property
    def dim(self) -> int:
        return self.a1.shape[0]

    def shift(self, s: float) -> float:
        return (1.0 - s) * self.c1 + s * self.c2

    def sample(self, s: float) -> np.ndarray:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"sample point s = {s} outside [0, 1]")
        return (1.0 - s) * self.a1 + s * self.a2


def auxiliary_f(h_i: HermitianMatrix, h_p, gauge: PhaseGauge) -> AuxiliaryF:
    """Assemble the convex pieces of F with c1, c2 one above each top eigenvalue.

    ``h_p`` may take any form :func:`~gapcert.paulialg.diagonal_values`
    accepts; its top eigenvalue is its largest diagonal value.
    """
    hp = diagonal_values(h_p, h_i.dim)
    if h_i.dim != gauge.dim:
        raise ValueError("h_i, h_p and gauge must share one dimension")
    c1 = top_eigenvalue(h_i.entries) + 1.0
    c2 = float(hp.max()) + 1.0
    rotated = gauge.rotate(h_i).entries
    return AuxiliaryF(
        c1=c1,
        c2=c2,
        gauge=gauge,
        a1=c1 * np.eye(h_i.dim) - rotated,
        a2=np.diag(c2 - hp),
    )


def _check_entrywise_nonnegative(f: np.ndarray, s: float) -> None:
    tol = PATTERN_RTOL * (1.0 + float(np.max(np.abs(f))))
    bad = (f.real < -tol) | (np.abs(f.imag) > tol)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise EntryNegative(int(i), int(j), complex(f[i, j]), s)


def build_f(h_i: HermitianMatrix, h_p, gauge: PhaseGauge, s: float) -> HermitianMatrix:
    """One sample F(s), validated entrywise nonnegative.

    Raises :class:`EntryNegative` naming the first offending entry when
    the rotated operator has a positive or non-real off-diagonal entry
    (the situation condition (2) rules out).
    """
    aux = auxiliary_f(h_i, h_p, gauge)
    f = aux.sample(s)
    _check_entrywise_nonnegative(f, s)
    return HermitianMatrix(f)


@dataclass(frozen=True)
class PrimitivityCertificate:
    """Graph-structure verdict for a nonnegative matrix.

    ``n0`` is the minimal exponent with strictly positive power (set when
    primitive), ``period`` the cycle-length gcd (set when irreducible but
    not primitive), ``reducible_blocks`` the strongly connected components
    (set when reducible).
    """

    is_primitive: bool
    n0: int | None = None
    period: int | None = None
    reducible_blocks: tuple[tuple[int, ...], ...] | None = None


def _digraph_period(pattern: np.ndarray) -> int:
    # BFS levels from node 0; the period of a strongly connected digraph
    # is the gcd of (level[u] + 1 - level[v]) over all edges u -> v.
    d = pattern.shape[0]
    dist = np.full(d, -1, dtype=int)
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(pattern[u])[0]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u in range(d):
        for v in np.nonzero(pattern[u])[0]:
            g = math.gcd(g, dist[u] + 1 - dist[int(v)])
    return abs(g)


def _minimal_positive_power(pattern: np.ndarray) -> int:
    d = pattern.shape[0]
    bound = wielandt_bound(d)
    base = pattern.astype(np.int64)
    power = base.copy()
    exponent = 1
    while not power.all():
        if exponent >= bound:
            raise RuntimeError(
                "positive power not reached within the Wielandt bound; "
                "matrix is not primitive"
            )
        power = (power @ base) > 0
        power = power.astype(np.int64)
        exponent += 1
    return exponent


def primitivity(matrix) -> PrimitivityCertificate:
    """Decide primitivity of an entrywise-nonnegative matrix.

    The decision is purely graph-structural: strong connectivity plus
    cycle-length gcd 1.  Boolean matrix powers are used only to report
    the minimal exponent ``n0``, which always lands within the Wielandt
    bound ``(d-1)**2 + 1``.
    """
    entries = matrix.entries if isinstance(matrix, HermitianMatrix) else np.asarray(matrix)
    tol = PATTERN_RTOL * (1.0 + float(np.max(np.abs(entries))) if entries.size else 1.0)
    if np.any(entries.real < -tol) or np.any(np.abs(entries.imag) > tol):
        raise ValueError("primitivity requires an entrywise-nonnegative matrix")
    pattern = entries.real > tol
    d = pattern.shape[0]

    if d == 1:
        if pattern[0, 0]:
            return PrimitivityCertificate(is_primitive=True, n0=1, period=1)
        return PrimitivityCertificate(is_primitive=False, reducible_blocks=((0,),))

    n_components, labels = connected_components(
        csr_matrix(pattern), directed=True, connection="strong"
    )
    if n_components > 1:
        blocks = [tuple(np.nonzero(labels == c)[0].tolist()) for c in range(n_components)]
        blocks.sort(key=lambda block: block[0])
        return PrimitivityCertificate(is_primitive=False, reducible_blocks=tuple(blocks))

    period = _digraph_period(pattern)
    if period != 1:
        return PrimitivityCertificate(is_primitive=False, period=period)
    return PrimitivityCertificate(
        is_primitive=True, n0=_minimal_positive_power(pattern), period=1
    )


@dataclass(frozen=True)
class PowerLimitResult:
    """Outcome of the normalized power limit ((c1 I - U^dag h_i U)/(c1 - e0))^N."""

    n_power: int
    max_error: float


def power_limit_projector(
    h_i: HermitianMatrix,
    gauge: PhaseGauge,
    tol: float = 1e-6,
    max_doublings: int = 64,
) -> PowerLimitResult:
    """Converge the normalized power of the shifted operator to |r><r|.

    The exponent doubles until the entrywise distance to the rank-one
    projector onto the positive ground vector r falls below ``tol``; the
    convergence rate is set by (c1 - e1)/(c1 - e0).
    """
    ground = ground_state(h_i)
    if not ground.is_unique:
        raise ValueError("power limit needs a unique ground state")
    c1 = top_eigenvalue(h_i.entries) + 1.0
    r = np.abs(ground.vector)
    target = np.outer(r, r)
    rotated = gauge.rotate(h_i).entries
    normalized = (c1 * np.eye(h_i.dim) - rotated) / (c1 - ground.energy)
    _check_entrywise_nonnegative(normalized, 0.0)

    power = normalized
    exponent = 1
    for _ in range(max_doublings):
        error = float(np.max(np.abs(power - target)))
        if error <= tol:
            return PowerLimitResult(n_power=exponent, max_error=error)
        power = power @ power
        exponent *= 2
    raise RuntimeError(
        f"power limit did not converge below {tol} within 2**{max_doublings}"
    )


@dataclass(frozen=True)
class ProofSample:
    """Per-sample outcome; ``None`` marks a check skipped after an earlier failure."""

    s: float
    nonnegative: bool
    primitive: bool | None
    n0: int | None
    perron_simple_positive: bool | None
    spectral_mirror: bool | None
    note: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.nonnegative
            and self.primitive is True
            and self.perron_simple_positive is True
            and self.spectral_mirror is True
        )


@dataclass(frozen=True, eq=False)
class ProofChainReport:
    c1: float
    c2: float
    samples: tuple[ProofSample, ...]

    @property
    def passed(self) -> bool:
        return all(sample.ok for sample in self.samples)

    def failures(self) -> tuple[ProofSample, ...]:
        return tuple(sample for sample in self.samples if not sample.ok)


MIRROR_TOL = 1e-9


def default_chain_grid(points: int = 101) -> np.ndarray:
    """Uniform sample grid on [0, 1 - 1/points]."""
    return np.linspace(0.0, 1.0 - 1.0 / points, points)


def verify_proof_chain_pair(
    h_i: HermitianMatrix,
    h_p,
    gauge: PhaseGauge,
    s_samples=None,
) -> ProofChainReport:
    """Numerically re-check every link of the gap argument on a grid.

    At each sampled s this verifies that F(s) is entrywise nonnegative,
    primitive with exponent within the Wielandt bound, has a simple
    largest eigenvalue with strictly positive eigenvector, and that this
    eigenvalue mirrors the interpolated ground level through the shift:
    ``max eig F(s) + e0(H(s)) = (1-s) c1 + s c2``.  ``h_p`` may take any
    form :func:`~gapcert.paulialg.diagonal_values` accepts.
    """
    hp = diagonal_values(h_p, h_i.dim)
    aux = auxiliary_f(h_i, hp, gauge)
    if s_samples is None:
        s_samples = default_chain_grid()
    samples = []
    for s in np.asarray(s_samples, dtype=float):
        s = float(s)
        f = aux.sample(s)
        try:
            _check_entrywise_nonnegative(f, s)
        except EntryNegative as exc:
            samples.append(
                ProofSample(
                    s=s,
                    nonnegative=False,
                    primitive=None,
                    n0=None,
                    perron_simple_positive=None,
                    spectral_mirror=None,
                    note=str(exc),
                )
            )
            continue

        certificate = primitivity(f)
        primitive_ok = bool(
            certificate.is_primitive
            and certificate.n0 is not None
            and certificate.n0 <= wielandt_bound(aux.dim)
        )

        # The Perron pair of F(s) is the ground pair of -F(s).
        perron = ground_state(-f)
        simple_positive = bool(
            perron.is_unique
            and np.min(perron.vector.real) > 0.0
            and np.max(np.abs(perron.vector.imag)) <= 1e-9
        )

        e0 = float(low_spectrum((1.0 - s) * h_i.entries + np.diag(s * hp), 1)[0][0])
        mirror_defect = abs(-perron.energy - (aux.shift(s) - e0))
        mirror_ok = mirror_defect <= MIRROR_TOL

        note = ""
        if not primitive_ok:
            note = "primitivity failed"
        elif not simple_positive:
            note = "largest eigenvalue not simple/positive"
        elif not mirror_ok:
            note = f"spectral mirror defect {mirror_defect:.3e}"
        samples.append(
            ProofSample(
                s=s,
                nonnegative=True,
                primitive=primitive_ok,
                n0=certificate.n0,
                perron_simple_positive=simple_positive,
                spectral_mirror=mirror_ok,
                note=note,
            )
        )
    return ProofChainReport(c1=aux.c1, c2=aux.c2, samples=tuple(samples))


def verify_proof_chain(
    instance: InstanceSpec,
    gauge: PhaseGauge,
    s_samples=None,
) -> ProofChainReport:
    """Instance-level wrapper for :func:`verify_proof_chain_pair`."""
    return verify_proof_chain_pair(instance.h_i_matrix(), instance.h_p, gauge, s_samples)


def render_chain_text(report: ProofChainReport) -> str:
    """Human-readable chain report (a numerical corroboration, not a proof)."""
    lines = [
        "proof-chain verification (numerical corroboration at sampled points, "
        "not a proof)",
        f"shifts: c1 = {report.c1:.6g}, c2 = {report.c2:.6g}",
        f"samples: {len(report.samples)}",
    ]
    failures = report.failures()
    if not failures:
        n0_max = max(
            (sample.n0 for sample in report.samples if sample.n0 is not None),
            default=None,
        )
        lines.append("all checks passed at every sampled s (entrywise nonnegative, "
                     "primitive, simple positive top eigenpair, spectral mirror)")
        if n0_max is not None:
            lines.append(f"largest primitivity exponent n0 observed: {n0_max}")
    else:
        lines.append(f"{len(failures)} of {len(report.samples)} samples failed:")
        for sample in failures[:8]:
            lines.append(f"  s = {sample.s:.6g}: {sample.note}")
        if len(failures) > 8:
            lines.append(f"  ... and {len(failures) - 8} more")
    return "\n".join(lines) + "\n"
