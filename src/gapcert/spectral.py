"""Dense Hermitian eigenpairs with deterministic conventions.

Eigenvalues are returned in ascending order.  Every eigenvector is
phase-fixed so that its largest-magnitude component is real and
nonnegative (components within one part in 1e9 of the largest tie, and
the lowest index wins), which makes repeated runs on identical input
bit-for-bit reproducible and comparisons up to global phase unnecessary
in the common case.

One solver sits behind these conventions: every eigenpair comes from
:func:`lapack_pairs`, the one call of LAPACK's MRRR drivers ``dsyevr``
(real operators, as :class:`~gapcert.paulialg.HermitianMatrix` decides)
or ``zheevr``, asked for the ``m`` lowest pairs only.  No pair leaves this
module before it is checked by residual and orthonormality, and no
eigenvector before it is phase-fixed.  The helpers that do so take a
leading stack axis of operators: :func:`low_spectrum` applies them to one
operator, and :func:`pencil_pairs` to points of a pencil
``a A + diag(b v)``, the form of every operator the sweep and the proof
chain solve.  :func:`ground_state` makes exactly one solve: its degeneracy
verdict scales with the Gershgorin width of ``h``, which contains the
spectral width and costs one pass over the entries.  One stacked helper,
:func:`_ground_gaps`, makes that verdict for it and for the chain.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .paulialg import HermitianMatrix, _max_abs, _scaled_plus_diagonal

# Residual / orthonormality validation threshold (relative).
RESIDUAL_RTOL = 1e-9
# Two eigenvalues within 1e-8 * (1 + Gershgorin width) count as degenerate.
DEGENERACY_RTOL = 1e-8
# A stacked pass (the sweep's grid, the proof chain's samples) takes its
# points in chunks whose stacked (points, d, m) eigenvectors take at most
# this many bytes, or one point if one alone takes more.
CHUNK_BYTES = 1 << 16
# The most points a sweep's grid or a proof chain's samples may hold, checked
# before either is allocated: about a thousand times the sweep's default of
# 1001, above every documented grid.  Each point costs a solve, so a larger
# grid would run for hours; 3e8 points take 2.4 GB for their s values alone.
MAX_GRID_POINTS = 1_000_000


class EigensolverError(RuntimeError):
    """Raised when a decomposition fails its residual validation."""


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, without
    running ``scipy/linalg/__init__.py``: that package import loads numpy's
    f2py, testing, ma and random modules, most of a cold start.

    The module is registered in ``sys.modules`` under its own name, so a
    later ``import scipy.linalg`` reuses it, and ``scipy.linalg.lapack``'s
    ``dsyevr`` and ``zheevr`` are the very objects read from it here.  The
    ``scipy`` package itself is imported with this module: its ``__init__``
    is light (subpackages load lazily), and scipy's Windows wheels put the
    extension's bundled libraries on the DLL search path there.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled {name} in {directory}", name=name)
    module = sys.modules[name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()
# LAPACK's MRRR drivers, which can return an index range of eigenpairs.
_SYEVR = _FLAPACK.dsyevr
_HEEVR = _FLAPACK.zheevr


@functools.lru_cache(maxsize=64)
def _heevr_workspace(d: int) -> dict:
    """``zheevr``'s optimal workspace sizes at dimension ``d``, for unpacking
    into the call: f2py's default ``lwork = 2d`` is the minimum, and slow."""
    work, rwork, iwork, info = _FLAPACK.zheevr_lwork(d)
    if info != 0:
        raise EigensolverError(f"zheevr workspace query returned info = {info}")
    return {"lwork": int(work.real), "lrwork": int(rwork), "liwork": int(iwork)}


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Full spectrum of a Hermitian matrix.

    Attributes
    ----------
    dim : int
        Matrix dimension d.
    eigenvalues : ndarray, shape (d,)
        Real eigenvalues in ascending order.
    eigenvectors : ndarray, shape (d, d)
        Orthonormal eigenvectors as columns, phase-fixed.
    """

    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class GroundState:
    """Lowest eigenpair together with a degeneracy verdict.

    ``degeneracy_gap`` is the distance to the second eigenvalue
    (``inf`` for one-dimensional problems); ``is_unique`` holds when that
    gap exceeds ``DEGENERACY_RTOL * (1 + Gershgorin width)``.
    """

    energy: float
    vector: np.ndarray
    degeneracy_gap: float
    is_unique: bool


def _phase_factors(vectors: np.ndarray) -> np.ndarray:
    """Unit factors, shape ``(points, m)``, that bring each column of a
    stack ``(points, d, m)`` to the module's phase convention (1 for a zero
    column); for real columns, the sign of the pivot as ±1.0."""
    points, _, m = vectors.shape
    magnitudes = np.abs(vectors)
    top = magnitudes.max(axis=1, keepdims=True)
    pivots = (magnitudes >= (1.0 - 1e-9) * top).argmax(axis=1)
    pivot = vectors[np.arange(points)[:, np.newaxis], pivots, np.arange(m)]
    if not np.iscomplexobj(pivot):
        return np.where(pivot < 0.0, -1.0, 1.0)
    sizes = np.abs(pivot)
    nonzero = sizes > 0.0
    return np.where(nonzero, pivot.conj() / np.where(nonzero, sizes, 1.0), 1.0)


def _validate_pairs(
    action: np.ndarray,
    values: np.ndarray,
    vectors: np.ndarray,
    s: np.ndarray | None = None,
    scales=0.0,
) -> None:
    """Raise :class:`EigensolverError` unless every column of ``vectors``
    satisfies ``|H v_m - e_m v_m| <= RESIDUAL_RTOL * (1 + max(|e_m|, scale))``
    and the columns are orthonormal to ``RESIDUAL_RTOL``.  NaN fails both
    tests.

    Every argument carries a leading stack axis of operators: ``action``
    holds each ``H @ vectors``, shape ``(points, d, m)``, like ``vectors``,
    and ``values`` is ``(points, m)``.  ``scales`` holds each operator's
    ``scale``, a bound on the size of its entries (one value for all, or one
    per operator): a solver's residual grows with the operator's size, not
    with ``|e_m|``, which may lie near zero.  ``s`` labels the stacked
    operators by their interpolation parameter in the message of a failed
    check.
    """
    points, _, m = vectors.shape
    worst = np.abs(action - vectors * values[:, np.newaxis, :]).max(axis=1)
    bound = RESIDUAL_RTOL * (1.0 + np.maximum(np.abs(values), np.reshape(scales, (-1, 1))))
    gram = (vectors.conj() if np.iscomplexobj(vectors) else vectors).swapaxes(1, 2) @ vectors
    gram.reshape(points, m * m)[:, :: m + 1] -= 1.0  # minus the identity
    gram_defect = np.abs(gram).max(axis=(1, 2))
    if (worst <= bound).all() and (gram_defect <= RESIDUAL_RTOL).all():
        return
    # the first failure, residual before orthonormality, names its point
    if not (worst <= bound).all():
        point, level = np.argwhere(~(worst <= bound))[0]
        raise EigensolverError(
            f"eigenpair {level} residual {worst[point, level]:.3e} exceeds "
            f"{bound[point, level]:.3e}{_where(s, point)}"
        )
    point = int(np.argmin(gram_defect <= RESIDUAL_RTOL))
    raise EigensolverError(
        f"eigenvectors lose orthonormality: defect {gram_defect[point]:.3e}"
        f"{_where(s, point)}"
    )


def _where(s: np.ndarray | None, point: int) -> str:
    return "" if s is None else f" at s = {float(s[point])!r}"


def eigensystem(h) -> EigenSystem:
    """Diagonalize a Hermitian matrix: :func:`low_spectrum` over all levels.

    Parameters
    ----------
    h : HermitianMatrix or array_like
        The matrix to decompose.  Arrays are validated for hermiticity.

    Returns
    -------
    EigenSystem
        Ascending eigenvalues and phase-fixed orthonormal eigenvectors,
        real for a real matrix.

    Raises
    ------
    EigensolverError
        If the decomposition violates the residual bound
        ``|H v_m - e_m v_m| <= RESIDUAL_RTOL * (1 + max(|e_m|, max |h_ij|))``
        or the eigenvectors fail orthonormality at the same relative scale.
    """
    entries = HermitianMatrix.of(h).entries
    values, vectors = low_spectrum(entries, entries.shape[0])
    return EigenSystem(dim=entries.shape[0], eigenvalues=values, eigenvectors=vectors)


def top_eigenvalue(h: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian array (not validated): one solve of ``-h``."""
    return -float(low_spectrum(-h, 1)[0][0])


def _row_radii(entries: np.ndarray) -> np.ndarray:
    """The off-diagonal row sums ``R_i = sum_{j != i} |h_ij|`` of an operator."""
    radii = np.abs(entries)
    np.fill_diagonal(radii, 0.0)
    return radii.sum(axis=1)


def _gershgorin_widths(centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Widths ``max(c_i + R_i) - min(c_i - R_i)`` of Gershgorin intervals,
    which contain every eigenvalue, from diagonals ``c`` (real parts) and row
    radii ``R`` along the last axis: one width per operator of a stack."""
    return (centres + radii).max(axis=-1) - (centres - radii).min(axis=-1)


def _gershgorin_width(entries: np.ndarray) -> float:
    """The width of one operator's Gershgorin interval."""
    return float(_gershgorin_widths(entries.diagonal().real, _row_radii(entries)))


def _ground_gaps(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uniqueness decision, for a stack of operators.

    ``values`` holds each operator's lowest levels, shape ``(points, m)``,
    and ``widths`` its Gershgorin width.  Returns each operator's gap from
    its lowest level to the next (``inf`` when ``m`` is 1) and whether it
    exceeds ``DEGENERACY_RTOL * (1 + width)``, which makes the lowest level
    unique.
    """
    if values.shape[1] > 1:
        gaps = values[:, 1] - values[:, 0]
    else:
        gaps = np.full(values.shape[0], math.inf)
    return gaps, gaps > DEGENERACY_RTOL * (1.0 + widths)


def ground_state(h) -> GroundState:
    """Lowest eigenpair of a Hermitian matrix, from one :func:`low_spectrum` solve.

    Returns
    -------
    GroundState
        Energy, phase-fixed eigenvector, gap to the next eigenvalue and
        a uniqueness verdict at tolerance
        ``DEGENERACY_RTOL * (1 + Gershgorin width)``.  That interval
        contains the spectrum, so the test is never looser than one scaled
        by the spectral width; neither width changes under a shift or a
        diagonal unitary.
    """
    entries = HermitianMatrix.of(h).entries
    values, vectors = low_spectrum(entries, min(2, entries.shape[0]))
    (gap,), (unique,) = _ground_gaps(values[np.newaxis], _gershgorin_width(entries))
    return GroundState(
        energy=float(values[0]),
        vector=vectors[:, 0],
        degeneracy_gap=float(gap),
        is_unique=bool(unique),
    )


def lapack_pairs(entries: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` lowest eigenpairs of a Hermitian array, straight from LAPACK.

    The one call of LAPACK's MRRR drivers: a real array goes to ``dsyevr``,
    anything else to ``zheevr`` with its optimal workspace, each asked for
    the index range 1..m only; the solver reads one triangle of the array.
    The pairs are neither phase-fixed nor checked: :func:`low_spectrum` does
    both for one operator, :func:`pencil_pairs` for a stack of points.

    Returns
    -------
    values : ndarray, shape (m,)
        Ascending eigenvalues.
    vectors : ndarray, shape (d, m)
        The driver's eigenvector columns, writable.

    Raises
    ------
    ValueError
        If ``m`` is not in ``1..d``.
    EigensolverError
        If LAPACK reports a failure or too few pairs.
    """
    d = entries.shape[0]
    if not 1 <= m <= d:
        raise ValueError(f"requested {m} levels from a {d}-dimensional matrix")
    if np.iscomplexobj(entries):
        driver, workspace = _HEEVR, _heevr_workspace(d)
    else:
        driver, workspace = _SYEVR, {}
    values, vectors, found, _, info = driver(entries, range="I", il=1, iu=m, **workspace)
    if info != 0 or found != m:
        raise EigensolverError(
            f"{driver.__name__} returned info = {info} with {found} of {m} pairs"
        )
    return values[:m], vectors


def low_spectrum(h, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` lowest eigenpairs of a Hermitian operator, phase-fixed and checked.

    Parameters
    ----------
    h : HermitianMatrix or ndarray
        The operator.  A plain array is taken as Hermitian by construction
        and not re-validated; it is solved by :func:`lapack_pairs`.
    m : int
        Number of levels, ``1 <= m <= d``.

    Returns
    -------
    values : ndarray, shape (m,)
        Ascending eigenvalues.
    vectors : ndarray, shape (d, m)
        Phase-fixed orthonormal columns in the module's convention, real
        for a real operator.

    Raises
    ------
    EigensolverError
        If LAPACK reports a failure or too few pairs, or if a returned pair
        fails the residual or orthonormality bound at ``RESIDUAL_RTOL``,
        checked against the full array ``h`` at a cost of O(d**2 m).
    """
    entries = h.entries if isinstance(h, HermitianMatrix) else np.asarray(h)
    values, vectors = lapack_pairs(entries, m)
    # the stack helpers, on a stack of one operator
    stacked = vectors[np.newaxis]
    vectors *= _phase_factors(stacked)[0]
    _validate_pairs(
        (entries @ vectors)[np.newaxis], values[np.newaxis], stacked, scales=_max_abs(entries)
    )
    values.flags.writeable = False
    vectors.flags.writeable = False
    return values, vectors


def pencil_pairs(A: np.ndarray, v: np.ndarray, a, b, m: int, s, scales, out: np.ndarray):
    """The ``m`` lowest eigenpairs of ``a_k A + diag(b_k v)`` at each
    coefficient pair ``(a_k, b_k)``, phase-fixed and checked in one stacked pass.

    Each operator is formed in ``out``, a work array of ``A``'s dtype that
    LAPACK only reads (a fresh ``d x d`` array per point costs its page
    faults anew), and solved by one :func:`lapack_pairs` call, Hermitian by
    construction and not re-validated.  The pairs are checked as
    :func:`low_spectrum`'s are, against residuals formed from ``A @ V`` and
    ``v * V``, so no operator is stacked; ``scales`` bounds each operator's
    entries (one value for all, or one per point) and ``s`` labels the
    points in the message of a failed check.

    Returns ``values``, shape ``(points, m)``, the phase-fixed ``vectors``,
    shape ``(points, d, m)``, and the products ``A @ vectors`` and
    ``diag(v) @ vectors`` of the same shape, for a caller that needs the
    action of one piece of the pencil alone.
    """
    solved = [lapack_pairs(_scaled_plus_diagonal(ak, A, bk, v, out), m) for ak, bk in zip(a, b)]
    # np.stack keeps each point's Fortran-ordered columns, and with them the
    # summation order of the products below
    values, vectors = np.array([w for w, _ in solved]), np.stack([x for _, x in solved])
    vectors *= _phase_factors(vectors)[:, np.newaxis, :]
    av, pv = A @ vectors, v[:, np.newaxis] * vectors
    action = a[:, np.newaxis, np.newaxis] * av + b[:, np.newaxis, np.newaxis] * pv
    _validate_pairs(action, values, vectors, s, scales)
    return values, vectors, av, pv
