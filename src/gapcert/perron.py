"""Perron–Frobenius side of the gap certificate.

For a certified pair, the shifted and gauge-rotated operator

    F(s) = [(1-s) c1 + s c2] I - U^dag [(1-s) h_i + s h_p] U
         = (1-s) (c1 I - U^dag h_i U) + s (c2 I - h_p)

with ``c1 > max eig(h_i)`` and ``c2 > max eig(h_p)`` is entrywise
nonnegative and primitive for every s in [0, 1), so its largest
eigenvalue is simple with a strictly positive eigenvector.  Undoing the
shift maps that simple eigenvalue back onto the ground level of the
interpolated operator, which is what keeps the gap open.

Every F(s) with s < 1 has a diagonal of at least 1 and the off-diagonal
of its s = 0 piece scaled by (1-s), so its graph, and with it primitivity,
is shared by the whole chain.  The second piece is diagonal and is held
as a vector; under the sign gauge of a real ``h_i`` the first is real, and
so is every F(s).  ``verify_proof_chain`` re-derives each link
numerically on a sample grid; it decides primitivity once per distinct
nonnegativity pattern and checks at every sample that the pattern is the
one decided.  Each sample makes two solves, points of a pencil
``a A + diag(b v)`` that :func:`~gapcert.spectral.pencil_pairs` solves a
chunk of samples at a time: the Perron pair of F(s), as the ground pair
of -F(s) (``(a1, a2)`` at ``(-(1-s), -s)``), and the ground level of H(s)
(``(h_i, h_p)`` at ``(1-s, s)``).  The result is a numerical
corroboration of the argument at the sampled points, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certifier import PhaseGauge
from .paulialg import (
    PATTERN_RTOL,
    HermitianMatrix,
    _max_abs,
    _scaled_plus_diagonal,
    diagonal_values,
)
from .specfile import InstanceSpec
from .spectral import (
    CHUNK_BYTES,
    MAX_GRID_POINTS,
    _gershgorin_widths,
    _ground_gaps,
    _row_radii,
    ground_state,
    pencil_pairs,
    top_eigenvalue,
)


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

    ``a1 = c1 I - U^dag h_i U`` and ``c2 I - h_p`` are the two convex
    pieces; the second is diagonal and held as its vector ``a2 = c2 - h_p``.
    ``sample(s)`` returns ``(1-s) a1`` with ``s a2`` added on its diagonal,
    in ``out`` if given.
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

    def sample(self, s: float, out: np.ndarray | None = None) -> np.ndarray:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"sample point s = {s} outside [0, 1]")
        return _scaled_plus_diagonal(1.0 - s, self.a1, s, self.a2, out)


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
    rotated = gauge.rotate(h_i)
    return AuxiliaryF(
        c1=c1,
        c2=c2,
        gauge=gauge,
        a1=c1 * np.eye(h_i.dim) - rotated,
        a2=c2 - hp,
    )


def _nonnegative_pattern(f: np.ndarray):
    """The structural pattern ``f.real > tol`` and the first offending entry.

    ``tol = PATTERN_RTOL * (1 + max |f|)``; an entry offends when it is not
    finite, its real part is below ``-tol`` or its imaginary part beyond
    ``tol``.  The entry is a ``(row, col)`` pair, or None if none offends.
    """
    scale = _max_abs(f) if f.size else 0.0
    tol = PATTERN_RTOL * (1.0 + scale)
    if math.isfinite(scale):
        bad = f.real < -tol
        if np.iscomplexobj(f):
            bad |= np.abs(f.imag) > tol
    else:
        bad = ~np.isfinite(f)
    offending = divmod(int(np.argmax(bad)), bad.shape[1]) if bad.any() else None
    return f.real > tol, offending


def _check_entrywise_nonnegative(f: np.ndarray, s: float) -> np.ndarray:
    """The structural pattern of ``f``; raises :class:`EntryNegative` if one entry offends."""
    pattern, offending = _nonnegative_pattern(f)
    if offending is not None:
        raise EntryNegative(*offending, complex(f[offending]), s)
    return pattern


@dataclass(frozen=True)
class PrimitivityCertificate:
    """Graph-structure verdict for a nonnegative matrix.

    ``n0`` is the minimal exponent with strictly positive power (set when,
    and only when, primitive), ``period`` the cycle-length gcd (set when
    irreducible), ``reducible_blocks`` the strongly connected components
    (set when reducible).
    """

    n0: int | None = None
    period: int | None = None
    reducible_blocks: tuple[tuple[int, ...], ...] | None = None

    @property
    def is_primitive(self) -> bool:
        return self.n0 is not None


def _bfs_levels(pattern: np.ndarray, start: int, allowed: np.ndarray) -> np.ndarray:
    """BFS levels from ``start`` along the edges ``u -> v`` where ``pattern[u, v]``,
    through the ``allowed`` nodes only; -1 marks a node not reached."""
    level = np.full(pattern.shape[0], -1, dtype=np.int64)
    level[start] = 0
    frontier = np.array([start])
    depth = 0
    while frontier.size:
        depth += 1
        frontier = np.flatnonzero(pattern[frontier].any(axis=0) & allowed & (level < 0))
        level[frontier] = depth
    return level


def _strong_components(pattern: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The strongly connected components of ``pattern``, each sorted, in the
    order of their smallest node.

    Kosaraju's two passes.  A depth-first search along the edges lists the
    nodes as they finish; a node is pushed when it is found and popped when
    it has no unvisited successor left, so the search asks for a successor
    at most twice per node.  Then, in reverse finishing order, each node not
    yet assigned gathers its component as its backward reach through the
    unassigned nodes.  Every node enters one search frontier in each pass,
    so the whole costs O(d**2) however the components are chained.
    """
    d = pattern.shape[0]
    unvisited = np.ones(d, dtype=bool)
    finished = []
    for root in range(d):
        if not unvisited[root]:
            continue
        unvisited[root] = False
        stack = [root]
        while stack:
            successors = pattern[stack[-1]] & unvisited
            v = int(np.argmax(successors))
            if successors[v]:
                unvisited[v] = False
                stack.append(v)
            else:
                finished.append(stack.pop())
    unassigned = np.ones(d, dtype=bool)
    blocks = []
    for root in reversed(finished):
        if unassigned[root]:
            block = _bfs_levels(pattern.T, root, unassigned) >= 0
            blocks.append(tuple(np.flatnonzero(block).tolist()))
            unassigned &= ~block
    return tuple(sorted(blocks))


def _minimal_positive_power(pattern: np.ndarray) -> int:
    bound = wielandt_bound(pattern.shape[0])
    # 0/1 entries and sums of at most d terms, with d < 2**24 for any pattern
    # that fits in memory: float32 (BLAS) products are exact
    base = pattern.astype(np.float32)
    power = base
    exponent = 1
    while not power.all():
        if exponent >= bound:
            raise RuntimeError(
                "positive power not reached within the Wielandt bound; "
                "matrix is not primitive"
            )
        power = np.minimum(power @ base, 1.0)
        exponent += 1
    return exponent


def primitivity(matrix) -> PrimitivityCertificate:
    """Decide primitivity of an entrywise-nonnegative matrix.

    The decision is purely graph-structural: strong connectivity plus
    cycle-length gcd 1.  The pattern is strongly connected when a BFS from
    node 0 reaches every node both along its edges and against them; its
    period is then the gcd of ``level[u] + 1 - level[v]`` over its edges
    ``u -> v``, with ``level`` the forward BFS levels (a self-loop adds a
    term of 1).  Boolean matrix powers are used only to report the minimal
    exponent ``n0``, which always lands within the Wielandt bound
    ``(d-1)**2 + 1``.  Raises ``ValueError`` for a negative, non-real or
    non-finite entry.
    """
    entries = matrix.entries if isinstance(matrix, HermitianMatrix) else np.asarray(matrix)
    pattern, offending = _nonnegative_pattern(entries)
    if offending is not None:
        raise ValueError("primitivity requires an entrywise-nonnegative matrix")
    d = pattern.shape[0]

    if d == 1 and not pattern[0, 0]:  # a lone node with no edge has no cycle
        return PrimitivityCertificate(reducible_blocks=((0,),))

    everywhere = np.ones(d, dtype=bool)
    level = _bfs_levels(pattern, 0, everywhere)
    if level.min() < 0 or _bfs_levels(pattern.T, 0, everywhere).min() < 0:
        return PrimitivityCertificate(reducible_blocks=_strong_components(pattern))

    rows, cols = np.nonzero(pattern)
    period = int(np.gcd.reduce(level[rows] + 1 - level[cols]))
    if period != 1:
        return PrimitivityCertificate(period=period)
    return PrimitivityCertificate(n0=_minimal_positive_power(pattern), period=1)


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
    # c1 I - U^dag h_i U is F's first piece; h_p does not enter it
    aux = auxiliary_f(h_i, np.zeros(h_i.dim), gauge)
    r = np.abs(ground.vector)
    target = np.outer(r, r)
    normalized = aux.a1 / (aux.c1 - ground.energy)
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
    primitive: bool | None = None
    n0: int | None = None
    perron_simple_positive: bool | None = None
    spectral_mirror: bool | None = None
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


# Relative to 1 + |shift(s)|, so that no verdict depends on the units of H.
MIRROR_RTOL = 1e-9


def _check_sample_count(points: int) -> None:
    """Refuse a chain of no samples, or of more than ``MAX_GRID_POINTS``."""
    if points < 1:
        raise ValueError(f"the proof chain needs at least 1 sample point, got {points}")
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"the proof chain takes at most {MAX_GRID_POINTS} sample points, got {points}"
        )


def default_chain_grid(points: int = 101) -> np.ndarray:
    """Uniform sample grid on [0, 1 - 1/points]."""
    _check_sample_count(points)
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
    ``max eig F(s) + e0(H(s)) = (1-s) c1 + s c2`` to ``MIRROR_RTOL`` times
    ``1 + |shift|``.  ``h_p`` may take any form
    :func:`~gapcert.paulialg.diagonal_values` accepts.  An empty
    ``s_samples`` raises ``ValueError``: a chain that checks no sample
    does not pass.  So does one of more than ``MAX_GRID_POINTS`` samples.

    Primitivity depends on F(s) only through its structural pattern, so
    :func:`primitivity` runs only when a sample's pattern differs from the
    previous sample's; on [0, 1) that is once per chain.  Each sample makes
    two solves, the Perron pair of F(s) and the ground level of H(s); the
    samples are then judged a chunk at a time (see :func:`_judge_chunk`).
    """
    s_samples = default_chain_grid() if s_samples is None else np.asarray(s_samples, float)
    _check_sample_count(s_samples.size)
    hp = diagonal_values(h_p, h_i.dim)
    aux = auxiliary_f(h_i, hp, gauge)
    m = min(2, aux.dim)
    radii = _row_radii(aux.a1)
    # H(s)'s entries are at most (1-s) max|h_i| + s max|h_p|
    maxima = (_max_abs(h_i.entries), float(np.max(np.abs(hp))))
    per_chunk = max(1, CHUNK_BYTES // (aux.dim * (m + 1) * aux.a1.itemsize))
    s_all = s_samples.tolist()
    # each sample's F(s), then -F(s), is formed in f and its H(s) in h_s:
    # the work arrays of the chunk's solves, with the dtypes of a1 and h_i
    f, h_s = np.empty_like(aux.a1), np.empty_like(h_i.entries)
    samples = []
    pattern = certificate = None
    for start in range(0, len(s_all), per_chunk):
        # per sample, in order: a failed ProofSample, or its s and
        # primitivity certificate, to be judged with its solves below
        outcomes: list = []
        solved = []
        for s in s_all[start : start + per_chunk]:
            aux.sample(s, f)
            try:
                sample_pattern = _check_entrywise_nonnegative(f, s)
            except EntryNegative as exc:
                outcomes.append(ProofSample(s=s, nonnegative=False, note=str(exc)))
                continue
            if pattern is None or not np.array_equal(sample_pattern, pattern):
                pattern, certificate = sample_pattern, primitivity(f)
            outcomes.append((s, certificate))
            solved.append(s)
        if solved:
            checks = zip(*_judge_chunk(aux, h_i, hp, maxima, radii, np.array(solved), f, h_s))
        samples.extend(
            outcome if isinstance(outcome, ProofSample) else _judged_sample(*outcome, *next(checks))
            for outcome in outcomes
        )
    return ProofChainReport(c1=aux.c1, c2=aux.c2, samples=tuple(samples))


def _judged_sample(
    s: float,
    certificate: PrimitivityCertificate,
    simple_positive: bool,
    mirror_defect: float,
    mirror_ok: bool,
) -> ProofSample:
    """The sample of a nonnegative F(s), with its first failed check as its note."""
    note = ""
    if not certificate.is_primitive:
        note = "primitivity failed"
    elif not simple_positive:
        note = "largest eigenvalue not simple/positive"
    elif not mirror_ok:
        note = f"spectral mirror defect {mirror_defect:.3e}"
    return ProofSample(
        s=s,
        nonnegative=True,
        primitive=certificate.is_primitive,
        n0=certificate.n0,
        perron_simple_positive=simple_positive,
        spectral_mirror=mirror_ok,
        note=note,
    )


def _judge_chunk(aux: AuxiliaryF, h_i: HermitianMatrix, hp, maxima, radii, s, f, h_s):
    """Solve and judge a chunk of samples ``s``, one stacked pass per solve.

    The Perron pairs are the two lowest of ``-F(s)``, formed in ``f``, and
    the mirror levels the lowest of ``H(s)``, formed in ``h_s``, whose
    entries ``maxima`` (``max |h_i|``, ``max |hp|``) bound.  The
    uniqueness of each Perron value is decided at the Gershgorin width of
    ``-F(s)``, whose row radii are ``(1-s)`` times ``a1``'s ``radii``.
    Returns, per sample, whether the Perron pair is simple and positive, the
    mirror defect and whether it is within ``MIRROR_RTOL * (1 + |shift|)``.
    """
    a, b = 1.0 - s, s
    # the Perron value of a nonnegative F(s) is at least its largest entry,
    # so it bounds its own residual's scale: the pairs are checked at scale 0
    values, vecs, _, _ = pencil_pairs(aux.a1, aux.a2, -a, -b, min(2, aux.dim), s, 0.0, f)
    centres = a[:, None] * aux.a1.diagonal().real + b[:, None] * aux.a2
    _, unique = _ground_gaps(values, _gershgorin_widths(-centres, a[:, None] * radii))
    ground = vecs[:, :, 0]
    simple_positive = unique & (ground.real.min(axis=1) > 0.0)
    if np.iscomplexobj(ground):
        simple_positive &= np.abs(ground.imag).max(axis=1) <= 1e-9

    e0 = pencil_pairs(h_i.entries, hp, a, b, 1, s, a * maxima[0] + b * maxima[1], h_s)[0][:, 0]
    shift = aux.shift(s)
    defect = np.abs(-values[:, 0] - (shift - e0))
    mirror_ok = defect <= MIRROR_RTOL * (1.0 + np.abs(shift))
    return simple_positive.tolist(), defect.tolist(), mirror_ok.tolist()


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
