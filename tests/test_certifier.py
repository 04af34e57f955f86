"""Tests for the two-condition gap certificate.

Soundness is cross-checked against dense gap sweeps: whenever the
certificate passes, the sweep must find no crossing on [0, 1).
"""

import math

import numpy as np
import pytest

from gapcert.cases import CaseParams, build_case
from gapcert.certifier import (
    POSITIVITY_TOL,
    SIGN_RTOL,
    CertificateReport,
    Condition1Result,
    Condition1Violated,
    Condition2Result,
    Condition2Violation,
    NonUniqueGround,
    PhaseGauge,
    certify,
    certify_pair,
    check_condition2,
    extract_gauge,
    render_structured,
    render_text,
)
from gapcert.paulialg import (
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    build_diagonal,
    build_pauli,
    interpolate,
)
from gapcert.perron import default_chain_grid, verify_proof_chain_pair
from gapcert.specfile import LINEAR, parse_instance
from gapcert.spectral import DEGENERACY_RTOL, _phase_factors, ground_state
from gapcert.sweep import schedule_sweep, sweep_pair
from test_acceptance import COUNTEREXAMPLE_TEXT, certified_corpus


def pauli(n, pairs):
    return build_pauli(PauliExpression.from_terms(n, pairs))


# ---------------------------------------------------------------------------
# gauge extraction


def test_gauge_identity_for_positive_ground():
    # all-negative transverse terms: uniform, strictly positive ground state
    h = pauli(2, [(-1.0, "XI"), (-1.0, "IX")])
    gauge = extract_gauge(ground_state(h))
    assert np.max(np.abs(gauge.diagonal() - 1.0)) < 1e-12


def test_gauge_alternating_signs_for_positive_transverse():
    # positive transverse terms: ground components carry sign (-1)^weight,
    # and the gauge's half turns are exactly -1, so the rotation stays real
    h = pauli(2, [(1.5, "XI"), (1.5, "IX")])
    gauge = extract_gauge(ground_state(h))
    want = np.array([1.0, -1.0, -1.0, 1.0])
    assert np.max(np.abs(gauge.diagonal() - want)) < 1e-12
    assert np.array_equal(gauge.phases, [0.0, np.pi, np.pi, 0.0])
    assert np.array_equal(gauge.diagonal(), want)
    rotated = gauge.rotate(h)
    assert rotated.dtype == np.float64 and not rotated.flags.writeable
    assert np.array_equal(rotated, -np.abs(h.entries))


def test_gauge_recovers_random_phases():
    rng = np.random.default_rng(20240814)
    for _ in range(20):
        d = int(rng.integers(2, 33))
        alpha = rng.uniform(-np.pi, np.pi, size=d)
        u = np.exp(1j * alpha)
        # stoquastic core with strictly positive Perron ground state
        core = -np.abs(rng.uniform(0.2, 1.0, size=(d, d)))
        core = (core + core.T) / 2.0
        h = HermitianMatrix(u[:, None] * core * u.conj()[None, :])
        gauge = extract_gauge(ground_state(h))
        # gauges agree up to the global phase fixed by the eigenvector norm
        ratio = gauge.diagonal() / u
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9


def test_gauge_rejects_zero_component():
    # ground state (0, 1): a vanishing component defeats condition (1)
    h = HermitianMatrix(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(Condition1Violated):
        extract_gauge(ground_state(h))


def test_gauge_rejects_degenerate_ground():
    h = HermitianMatrix(np.diag([0.0, 0.0, 1.0]).astype(complex))
    with pytest.raises(NonUniqueGround):
        extract_gauge(ground_state(h))


def test_phase_gauge_rotate_matches_dense_conjugation():
    rng = np.random.default_rng(11)
    d = 8
    alpha = rng.uniform(-np.pi, np.pi, size=d)
    gauge = PhaseGauge(alpha)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = HermitianMatrix((a + a.conj().T) / 2.0)
    u = np.diag(np.exp(1j * alpha))
    want = u.conj().T @ h.entries @ u
    got = gauge.rotate(h)
    assert np.max(np.abs(got - want)) < 1e-12
    assert got.dtype == complex and not got.flags.writeable
    with pytest.raises(ValueError):
        gauge.rotate(HermitianMatrix(np.eye(2, dtype=complex)))


def test_phase_gauge_rotate_keeps_the_dtype_rule_without_revalidating(monkeypatch):
    # the identity gauge leaves a real matrix real: float64, as
    # HermitianMatrix stores it, so the chain's samples stay on the real driver
    a = np.random.default_rng(12).standard_normal((6, 6))
    h = HermitianMatrix(a + a.T)
    gauge = PhaseGauge(np.zeros(6))
    built = []
    monkeypatch.setattr(HermitianMatrix, "__post_init__", lambda self: built.append(self))
    got = gauge.rotate(h)
    assert not built
    assert got.dtype == np.float64 and not got.flags.writeable
    u = gauge.diagonal()
    assert np.array_equal(got, (u.conj()[:, np.newaxis] * h.entries * u[np.newaxis, :]).real)


def test_a_real_instance_reports_real_violations():
    # a frustrated real h_i: its unique ground state has signs, so its gauge
    # is one of signs, and the rotated entries that violate (2) are real
    h_i = pauli(2, [(1.0, "XI"), (0.7, "IX"), (0.4, "XX"), (0.3, "ZI"), (0.2, "IZ")])
    report = certify_pair(h_i, DiagonalSpec.from_values(2, [0, 2, 6, 8]))
    assert report.condition1.passed and not report.condition2.passed
    assert np.pi in report.gauge.phases
    assert report.condition2.violations
    assert all(v.value.imag == 0.0 for v in report.condition2.violations)


# ---------------------------------------------------------------------------
# condition (2) and full certification


def test_mixed_driver_fails_sign_condition_with_listed_entries():
    h_i = pauli(2, [(-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX")])
    report = certify_pair(h_i, DiagonalSpec.from_values(2, [0, 2, 6, 8]))
    assert report.condition1.passed
    assert not report.condition2.passed
    assert not report.is_certified
    where = {(v.row, v.col) for v in report.condition2.violations}
    assert where == {(0, 1), (1, 0), (2, 3), (3, 2)}
    for v in report.condition2.violations:
        assert abs(v.value - 1.0) < 1e-9


def test_stoquastic_driver_certifies():
    h_i = pauli(3, [(-1.0, "XII"), (-1.0, "IXI"), (-1.0, "IIX")])
    report = certify_pair(h_i, DiagonalSpec.from_values(3, range(8)))
    assert report.is_certified
    assert report.overall == "certified"
    assert report.condition2.passed and not report.condition2.violations
    assert report.gauge is not None


def test_positive_transverse_certifies_through_gauge():
    # positive couplings flip ground-state signs; the gauge absorbs them
    h_i = pauli(2, [(0.7, "XI"), (0.7, "IX")])
    report = certify_pair(h_i, DiagonalSpec.from_values(2, [0, 1, 2, 3]))
    assert report.is_certified


def test_degenerate_ground_skips_condition2():
    h_i = HermitianMatrix(np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex))
    report = certify_pair(h_i, DiagonalSpec.from_values(2, [0, 1, 2, 3]))
    assert not report.condition1.passed
    assert not report.condition2.evaluated
    assert report.gauge is None
    assert "skipped" in render_text(report)
    assert "condition2 = skipped" in render_structured(report)


def test_hp_forms_accepted_and_validated():
    h_i = pauli(1, [(-1.0, "X")])
    for h_p in (
        DiagonalSpec.from_values(1, [0.0, 1.0]),
        HermitianMatrix(np.diag([0.0, 1.0]).astype(complex)),
        np.diag([0.0, 1.0]).astype(complex),
        np.array([0.0, 1.0]),
    ):
        assert certify_pair(h_i, h_p).is_certified
    with pytest.raises(ValueError, match="diagonal"):
        certify_pair(h_i, np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex))
    with pytest.raises(ValueError, match="dimension"):
        certify_pair(h_i, DiagonalSpec.from_values(2, [0, 1, 2, 3]))
    with pytest.raises(ValueError, match="dimension"):
        certify_pair(h_i, np.array([0.0, 1.0, 2.0]))


def test_hp_vector_and_matrix_forms_give_identical_results():
    rng = np.random.default_rng(20261018)
    instance = build_case(
        CaseParams("bit_rotation", 3, ai=(-1.0, -0.6, -0.3)),
        DiagonalSpec.from_values(3, rng.uniform(0, 10, size=8)),
    )
    h_i = instance.h_i_matrix()
    vector = np.array(instance.h_p.values)
    gauge = certify(instance).gauge
    profiles = [
        sweep_pair(h_i, h_p, grid_points=41)
        for h_p in (vector, build_diagonal(instance.h_p))
    ]
    assert np.array_equal(profiles[0].levels, profiles[1].levels)
    assert profiles[0].min_gap == profiles[1].min_gap
    chains = [
        verify_proof_chain_pair(h_i, h_p, gauge, default_chain_grid(11))
        for h_p in (vector, build_diagonal(instance.h_p))
    ]
    assert chains[0].passed
    assert (chains[0].c1, chains[0].c2) == (chains[1].c1, chains[1].c2)
    assert chains[0].samples == chains[1].samples


def test_report_verdict_follows_its_conditions():
    # the verdict is derived from the two conditions, so no report can carry
    # one that disagrees with them
    condition2 = {
        "pass": Condition2Result(()),
        "fail": Condition2Result((Condition2Violation(0, 1, 0.5 + 0j),)),
        "skipped": Condition2Result((), evaluated=False),
    }
    for passed1 in (True, False):
        for outcome2, c2 in condition2.items():
            assert c2.passed is (outcome2 == "pass")
            report = CertificateReport(Condition1Result(passed1, 1.0, 0.5), c2, None)
            certified = passed1 and outcome2 == "pass"
            assert report.is_certified is certified
            assert report.overall == ("certified" if certified else "not_certified")


# ---------------------------------------------------------------------------
# invariance properties of the verdict


def random_verdict_instance(rng):
    n = int(rng.integers(1, 4))
    styles = ["stoquastic", "gauged", "mixed"]
    style = styles[int(rng.integers(0, 3))]
    d = 1 << n
    if style == "mixed":
        pairs = []
        for _ in range(int(rng.integers(1, 5))):
            axes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            pairs.append((float(rng.standard_normal()), axes))
        h_i = pauli(n, pairs)
    else:
        core = -np.abs(rng.uniform(0.1, 1.0, size=(d, d)))
        core = (core + core.T) / 2.0
        if style == "gauged":
            u = np.exp(1j * rng.uniform(-np.pi, np.pi, size=d))
            core = u[:, None] * core * u.conj()[None, :]
        h_i = HermitianMatrix(core)
    h_p = DiagonalSpec.from_values(n, rng.uniform(0, 4, size=d))
    return h_i, h_p


def verdict_signature(report):
    return (
        report.overall,
        report.condition1.passed,
        report.condition2.passed,
        report.condition2.evaluated,
        len(report.condition2.violations),
    )


def test_verdict_invariant_under_energy_shift():
    rng = np.random.default_rng(20240815)
    for _ in range(25):
        h_i, h_p = random_verdict_instance(rng)
        c = float(rng.uniform(-5, 5))
        shifted = HermitianMatrix(h_i.entries + c * np.eye(h_i.dim))
        a = verdict_signature(certify_pair(h_i, h_p))
        b = verdict_signature(certify_pair(shifted, h_p))
        assert a == b


def test_verdict_invariant_under_diagonal_unitary():
    rng = np.random.default_rng(20240816)
    for _ in range(25):
        h_i, h_p = random_verdict_instance(rng)
        w = np.exp(1j * rng.uniform(-np.pi, np.pi, size=h_i.dim))
        conjugated = HermitianMatrix(w[:, None] * h_i.entries * w.conj()[None, :])
        a = verdict_signature(certify_pair(h_i, h_p))
        b = verdict_signature(certify_pair(conjugated, h_p))
        assert a == b


# ---------------------------------------------------------------------------
# soundness against sweeps


def test_certified_instances_show_no_crossing():
    params = [
        CaseParams("bit_rotation", 3, a0=0.5, ai=(-1.0, -0.7, -0.4)),
        CaseParams("projector_uniform", 4),
        CaseParams("transverse_positive", 3, g=1.3),
    ]
    for p in params:
        instance = build_case(p)
        report = certify(instance)
        assert report.is_certified, p.family
        profile = schedule_sweep(instance, LINEAR, grid_points=501)
        assert not profile.crossings
        assert profile.min_gap.value > profile.crossing_tolerance


def test_rotated_interpolated_ground_stays_positive_when_certified():
    # the proof behind the certificate: in the certified gauge the ground
    # state of (1-s) h_i + s h_p is entrywise strictly positive for s < 1
    instance = build_case(CaseParams("bit_rotation", 3, ai=(-0.9, -0.6, -1.1)))
    report = certify(instance)
    assert report.is_certified
    u = report.gauge.diagonal()
    h_i, h_p = instance.h_i_matrix(), build_diagonal(instance.h_p)
    for s in np.linspace(0.0, 0.98, 25):
        gs = ground_state(interpolate(h_i, h_p, float(s)))
        rotated = gs.vector * u.conj()
        rotated = rotated / rotated[np.argmax(np.abs(rotated))]
        assert np.min(rotated.real) > 0.0
        assert np.max(np.abs(rotated.imag)) < 1e-9


# ---------------------------------------------------------------------------
# rendering


def test_render_text_wording():
    h_i = pauli(2, [(-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX")])
    report = certify_pair(h_i, DiagonalSpec.from_values(2, [0, 2, 6, 8]))
    text = render_text(report)
    assert "condition (1) unique strictly-nonzero ground state: pass" in text
    assert "condition (2) rotated off-diagonals nonpositive: fail" in text
    assert "inconclusive about level crossings" in text
    assert "(0, 1) = 1" in text


def test_render_structured_round_trips_floats():
    h_i = pauli(2, [(-1.0, "XI"), (-1.0, "IX")])
    report = certify_pair(h_i, DiagonalSpec.from_values(2, [0, 1, 2, 3]))
    text = render_structured(report)
    fields = dict(line.split(" = ", 1) for line in text.strip().splitlines())
    assert fields["overall"] == "certified"
    assert fields["condition1"] == "pass"
    assert fields["condition2"] == "pass"
    assert fields["condition2.violations.count"] == "0"
    assert float(fields["condition1.degeneracy_gap"]) == report.condition1.degeneracy_gap
    assert float(fields["condition1.min_r"]) == report.condition1.min_r
    phases = np.array([float(x) for x in fields["gauge.phases"].split()])
    assert np.array_equal(phases, report.gauge.phases)


def test_check_condition2_tolerance_scales_with_magnitude():
    # an off-diagonal blip far below the scaled tolerance is not a violation
    d = 4
    core = -np.ones((d, d)) * 100.0
    core[0, 1] = core[1, 0] = 5e-9  # positive but tiny next to |h| ~ 100
    h = HermitianMatrix(core.astype(complex))
    gauge = PhaseGauge(np.zeros(d))
    assert check_condition2(h, gauge).passed
    core[0, 1] = core[1, 0] = 5e-7  # now above 1e-10 * (1 + 100)
    h = HermitianMatrix(core.astype(complex))
    assert not check_condition2(h, gauge).passed


# ---------------------------------------------------------------------------
# agreement with a full complex eigensolve


def reference_certificate(h_i):
    """Both conditions from a full complex ``numpy.linalg.eigh`` of ``h_i``:
    the certificate's route before real operators were held as float64."""
    entries = np.asarray(h_i.entries, dtype=complex)
    values, vectors = np.linalg.eigh(entries)
    d = values.size
    width = float(values[-1] - values[0])
    gap = float(values[1] - values[0]) if d > 1 else math.inf
    unique = gap > DEGENERACY_RTOL * (1.0 + width)
    vector = vectors[:, 0] * _phase_factors(vectors[np.newaxis, :, :1])[0, 0]
    min_r = float(np.min(np.abs(vector)))
    if not (unique and min_r >= POSITIVITY_TOL):
        return False, unique, gap, min_r, width, None, None
    u = np.exp(1j * np.angle(vector))
    rotated = u.conj()[:, np.newaxis] * entries * u[np.newaxis, :]
    tol = SIGN_RTOL * (1.0 + float(np.max(np.abs(entries))))
    off = ~np.eye(d, dtype=bool)
    bad = off & ((rotated.real > tol) | (np.abs(rotated.imag) > tol))
    violations = {(int(i), int(j)) for i, j in zip(*np.nonzero(bad))}
    return True, unique, gap, min_r, width, u, violations


def test_certificate_agrees_with_full_complex_eigh():
    # every tenth criterion-2 instance (all its blocks) plus the counterexample
    pieces = [
        (h_i, diag)
        for _, _, instance_pieces in certified_corpus()[::10]
        for h_i, diag, _ in instance_pieces
    ]
    counterexample = parse_instance(COUNTEREXAMPLE_TEXT)
    pieces.append((counterexample.h_i_matrix(), counterexample.h_p))
    assert all(h_i.entries.dtype == np.float64 for h_i, _ in pieces)
    not_certified = 0
    for h_i, h_p in pieces:
        report = certify_pair(h_i, h_p)
        not_certified += not report.is_certified
        passed, unique, gap, min_r, width, u, violations = reference_certificate(h_i)
        assert report.condition1.passed == passed
        assert report.condition2.evaluated == passed
        if passed:
            assert report.condition2.passed == (not violations)
            found = {(v.row, v.col) for v in report.condition2.violations}
            assert found == violations
            assert np.max(np.abs(report.gauge.diagonal() - u)) <= 1e-12
        if unique:
            tol = 1e-12 * (1.0 + width)
            if math.isinf(gap):
                assert math.isinf(report.condition1.degeneracy_gap)
            else:
                assert abs(report.condition1.degeneracy_gap - gap) <= tol
            assert abs(report.condition1.min_r - min_r) <= tol
    assert len(pieces) > 25 and not_certified == 1  # the counterexample
