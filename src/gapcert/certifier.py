"""Certification of the sufficient conditions for a persistent gap.

For an interpolation ``(1-s) h_i + s h_p`` with ``h_p`` diagonal in the
computational basis, the certificate checks two conditions on ``h_i``:

(1) its ground state is unique and can be written ``U (r_1, ..., r_d)^T``
    with every ``r_k > 0`` and ``U`` a diagonal unitary of phases, and
(2) every off-diagonal entry of ``U^dag h_i U`` is real and nonpositive.

When both hold, the ground state of the interpolated operator stays
unique for every ``s`` strictly below 1, so the gap to the first excited
level cannot close before the endpoint.  The conditions are sufficient
only: a failed certificate is *inconclusive* about crossings.

For a real ``h_i`` the ground state is real and ``U`` a diagonal of signs
(stoquastic up to a sign gauge: Marvian, Lidar & Hen, Nat. Commun. 10,
1571, 2019).  :class:`PhaseGauge` gives it exactly, so ``U^dag h_i U``, and
every solve built on it, stays real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paulialg import HermitianMatrix, _max_abs, _stored, diagonal_values
from .spectral import GroundState, ground_state
from .specfile import InstanceSpec

# Components of the ground state smaller than this (in magnitude) count
# as zero, failing condition (1).
POSITIVITY_TOL = 1e-10
# Off-diagonal sign violations are judged at 1e-10 * (1 + max |h_i|).
SIGN_RTOL = 1e-10


class NonUniqueGround(ValueError):
    """Ground state degenerate within tolerance; condition (1) fails."""


class Condition1Violated(ValueError):
    """Ground state has a (near-)zero component; condition (1) fails."""


@dataclass(frozen=True, eq=False)
class PhaseGauge:
    """Diagonal unitary of per-component phases, U = diag(e^{i alpha_k})."""

    phases: np.ndarray

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1 or phases.size < 1:
            raise ValueError("phases must be a nonempty 1-d array")
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)

    @property
    def dim(self) -> int:
        return self.phases.size

    def diagonal(self) -> np.ndarray:
        """The unit-modulus diagonal e^{i alpha_k}, exactly -1 at a half turn,
        so that a gauge of signs keeps a real matrix real."""
        u = np.exp(1j * self.phases)
        u[np.abs(self.phases) == np.pi] = -1.0
        return u

    def rotate(self, h: HermitianMatrix) -> np.ndarray:
        """The read-only entries of ``U^dag h U``.

        A diagonal unitary keeps a validated matrix Hermitian, so the
        entries are not validated again.  They are stored by the rule of
        :class:`~gapcert.paulialg.HermitianMatrix`: a real ``h`` under a
        gauge of signs stays float64.
        """
        if h.dim != self.dim:
            raise ValueError(f"gauge is {self.dim}-dimensional, matrix {h.dim}")
        u = self.diagonal()
        if not np.any(u.imag):  # a gauge of signs: real products, no complex copy
            u = u.real
        return _stored(u.conj()[:, np.newaxis] * h.entries * u[np.newaxis, :])


@dataclass(frozen=True)
class Condition1Result:
    passed: bool
    degeneracy_gap: float
    min_r: float


@dataclass(frozen=True)
class Condition2Violation:
    row: int
    col: int
    value: complex


@dataclass(frozen=True)
class Condition2Result:
    violations: tuple[Condition2Violation, ...]
    evaluated: bool = True

    @property
    def passed(self) -> bool:
        return self.evaluated and not self.violations


@dataclass(frozen=True)
class CertificateReport:
    """The two conditions, the gauge of condition (1) when it holds, and
    the verdict, which is their conjunction."""

    condition1: Condition1Result
    condition2: Condition2Result
    gauge: PhaseGauge | None

    @property
    def is_certified(self) -> bool:
        return self.condition1.passed and self.condition2.passed

    @property
    def overall(self) -> str:
        return "certified" if self.is_certified else "not_certified"


def extract_gauge(ground: GroundState) -> PhaseGauge:
    """Phase gauge of a strictly-nonzero unique ground state.

    Raises
    ------
    NonUniqueGround
        If the ground state is degenerate within tolerance.
    Condition1Violated
        If any component magnitude falls below ``POSITIVITY_TOL``.
    """
    if not ground.is_unique:
        raise NonUniqueGround(
            f"ground state degenerate: gap to second level is "
            f"{ground.degeneracy_gap:.3e}"
        )
    magnitudes = np.abs(ground.vector)
    worst = int(np.argmin(magnitudes))
    if magnitudes[worst] < POSITIVITY_TOL:
        raise Condition1Violated(
            f"ground-state component {worst} has magnitude "
            f"{magnitudes[worst]:.3e} < {POSITIVITY_TOL:.0e}"
        )
    gauge = PhaseGauge(np.angle(ground.vector))
    # The rotated ground state must be real positive by construction.
    rotated = ground.vector * gauge.diagonal().conj()
    if np.max(np.abs(np.angle(rotated))) > 1e-9:
        raise AssertionError("gauge failed to realign the ground state")
    return gauge


def check_condition2(h_i: HermitianMatrix, gauge: PhaseGauge) -> Condition2Result:
    """Sign check on the off-diagonal entries of ``U^dag h_i U``.

    Passes iff every off-diagonal entry has real part at most
    ``SIGN_RTOL * (1 + max |h_i|)`` and imaginary part within the same
    bound of zero.  All violating entries are reported.
    """
    rotated = gauge.rotate(h_i)
    tol = SIGN_RTOL * (1.0 + _max_abs(h_i.entries))
    bad = rotated.real > tol
    if np.iscomplexobj(rotated):
        bad |= np.abs(rotated.imag) > tol
    np.fill_diagonal(bad, False)
    violations = tuple(
        Condition2Violation(int(i), int(j), complex(rotated[i, j]))
        for i, j in zip(*np.nonzero(bad))
    )
    return Condition2Result(violations)


def certify_pair(h_i: HermitianMatrix, h_p) -> CertificateReport:
    """Certify an ``(h_i, h_p)`` pair of matching dimension.

    ``h_p`` may take any form :func:`~gapcert.paulialg.diagonal_values`
    accepts; it only enters through the precondition that it be diagonal,
    since the certificate does not depend on its values.
    """
    diagonal_values(h_p, h_i.dim)

    gs = ground_state(h_i)
    min_r = float(np.min(np.abs(gs.vector)))
    gauge = None
    try:
        gauge = extract_gauge(gs)
        condition1 = Condition1Result(True, gs.degeneracy_gap, min_r)
    except (NonUniqueGround, Condition1Violated):
        condition1 = Condition1Result(False, gs.degeneracy_gap, min_r)

    if gauge is not None:
        condition2 = check_condition2(h_i, gauge)
    else:
        condition2 = Condition2Result(violations=(), evaluated=False)
    return CertificateReport(condition1, condition2, gauge)


def certify(instance: InstanceSpec) -> CertificateReport:
    """Certify a parsed instance (see :func:`certify_pair`)."""
    return certify_pair(instance.h_i_matrix(), instance.h_p)


def render_text(report: CertificateReport) -> str:
    """Human-readable report."""
    lines = []
    c1 = report.condition1
    lines.append(
        "condition (1) unique strictly-nonzero ground state: "
        + ("pass" if c1.passed else "fail")
    )
    lines.append(f"  gap to second eigenvalue: {c1.degeneracy_gap:.6g}")
    lines.append(f"  smallest component magnitude: {c1.min_r:.6g}")
    c2 = report.condition2
    if not c2.evaluated:
        lines.append("condition (2) rotated off-diagonals nonpositive: skipped "
                     "(no gauge available)")
    else:
        lines.append(
            "condition (2) rotated off-diagonals nonpositive: "
            + ("pass" if c2.passed else "fail")
        )
        if c2.violations:
            lines.append(f"  {len(c2.violations)} violating entries; worst shown first:")
            ranked = sorted(
                c2.violations, key=lambda v: -max(v.value.real, abs(v.value.imag))
            )
            for v in ranked[:8]:
                lines.append(f"    ({v.row}, {v.col}) = {v.value:.6g}")
    if report.is_certified:
        lines.append("verdict: certified -- the gap to the first excited level "
                     "stays open for every s < 1")
    else:
        lines.append("verdict: not certified -- the sufficient conditions do not "
                     "hold; this is inconclusive about level crossings")
    return "\n".join(lines) + "\n"


def render_structured(report: CertificateReport) -> str:
    """Flat key-value dump with the exact report field names."""
    lines = [f"overall = {report.overall}"]
    c1 = report.condition1
    lines.append(f"condition1 = {'pass' if c1.passed else 'fail'}")
    lines.append(f"condition1.degeneracy_gap = {c1.degeneracy_gap:.17g}")
    lines.append(f"condition1.min_r = {c1.min_r:.17g}")
    c2 = report.condition2
    if c2.evaluated:
        lines.append(f"condition2 = {'pass' if c2.passed else 'fail'}")
    else:
        lines.append("condition2 = skipped")
    lines.append(f"condition2.violations.count = {len(c2.violations)}")
    for k, v in enumerate(c2.violations):
        lines.append(
            f"condition2.violations.{k} = {v.row} {v.col} "
            f"{v.value.real:.17g} {v.value.imag:.17g}"
        )
    if report.gauge is not None:
        lines.append(
            "gauge.phases = " + " ".join(f"{p:.17g}" for p in report.gauge.phases)
        )
    return "\n".join(lines) + "\n"
