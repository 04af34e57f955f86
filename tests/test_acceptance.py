"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Budgeted criteria assert their own wall-clock limits.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gapcert.cases import (
    CaseParams,
    block_pair,
    build_case,
    case_h_i,
    certify_block,
    ground_state_reference,
    weight_blocks,
)
from gapcert.certifier import certify, certify_pair, extract_gauge
from gapcert.paulialg import (
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    ProjectorSpec,
    build_pauli,
    to_matrix,
)
from gapcert.perron import power_limit_projector, verify_proof_chain_pair, wielandt_bound
from gapcert.specfile import InstanceSpec, ScheduleSpec, parse_instance
from gapcert.spectral import ground_state
from gapcert.sweep import gap_sweep, schedule_sweep, sweep_pair

COUNTEREXAMPLE_TEXT = """\
qubits = 2
[Hi]
terms = -2.0 XI, 1.0 IX, 1.0 IZ, -2.0 XX
[Hp]
diagonal = 0.0, 2.0, 6.0, 8.0
"""

BLOCK_FAMILIES = ("xy_hopping", "heisenberg")


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL "
              f"({time.perf_counter() - start:.1f} s)")
        raise
    print(f"criterion {number:02d} ({label}): PASS "
          f"({time.perf_counter() - start:.1f} s)")


def align_phase(vector, reference):
    overlap = np.vdot(reference, vector)
    if overlap == 0:
        return vector
    return vector * (abs(overlap) / overlap)


def random_connected_couplings(rng, n):
    pairs = []
    nodes = list(range(n))
    rng.shuffle(nodes)
    for a, b in zip(nodes, nodes[1:]):  # random spanning tree keeps every
        pairs.append(tuple(sorted((a, b))))  # block irreducible
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in pairs and rng.random() < 0.3:
                pairs.append((i, j))
    return tuple((i, j, float(-rng.uniform(0.1, 2.0))) for i, j in sorted(pairs))


def random_family_params(rng, family):
    n = int(rng.integers(2, 7))
    if family == "bit_rotation":
        return CaseParams(
            family, n,
            a0=float(rng.uniform(-2, 2)),
            ai=tuple(float(-rng.uniform(0.1, 2.0)) for _ in range(n)),
        )
    if family == "heisenberg":
        return CaseParams(
            family, n,
            a0=float(rng.uniform(-2, 2)),
            aij=random_connected_couplings(rng, n),
        )
    if family == "transverse_positive":
        return CaseParams(family, n, g=float(rng.uniform(0.1, 2.0)))
    return CaseParams(family, n)  # xy_hopping / projector_uniform


_corpus_cache = []


def certified_corpus():
    """Criterion-2 corpus: (family, pieces) where each piece is a certified
    (h_i, h_p diagonal values, gauge) triple -- one per instance for the
    plain families, one per weight block for the block families."""
    if _corpus_cache:
        return _corpus_cache[0]
    rng = np.random.default_rng(20240901)
    corpus = []
    families = (
        "bit_rotation",
        "heisenberg",
        "xy_hopping",
        "projector_uniform",
        "transverse_positive",
    )
    for family in families:
        for _ in range(50):
            params = random_family_params(rng, family)
            d = 1 << params.n_qubits
            h_p = DiagonalSpec.from_values(
                params.n_qubits, rng.uniform(0.0, 10.0, size=d)
            )
            instance = build_case(params, h_p)
            pieces = []
            if family in BLOCK_FAMILIES:
                for k in range(params.n_qubits + 1):
                    report = certify_block(instance, k)
                    h_i_block, diag = block_pair(instance, k)
                    pieces.append((h_i_block, diag, report))
            else:
                report = certify(instance)
                pieces.append(
                    (instance.h_i_matrix(), np.array(h_p.values), report)
                )
            corpus.append((family, params, pieces))
    _corpus_cache.append(corpus)
    return corpus


def test_criterion_01_counterexample_reproduction():
    with criterion(1, "counterexample reproduction"):
        start = time.perf_counter()
        instance = parse_instance(COUNTEREXAMPLE_TEXT)
        report = certify(instance)
        assert report.condition1.passed
        scale = math.sqrt(4.0 + 2.0 * math.sqrt(2.0)) / 4.0
        root = math.sqrt(2.0) - 1.0
        reference = scale * np.array([root, 1.0, root, 1.0], dtype=complex)
        numeric = align_phase(ground_state(instance.h_i_matrix()).vector, reference)
        assert np.max(np.abs(numeric - reference)) < 1e-10
        assert not report.condition2.passed
        assert any(v.value.real > 0 for v in report.condition2.violations)
        profile = gap_sweep(instance, grid_points=1001)
        assert len(profile.crossings) >= 1
        worst = min(profile.crossings, key=lambda c: c.gap_star)
        assert 0.0 < worst.s_star < 1.0
        assert worst.s_lo > 0.0 and worst.s_hi < 1.0
        assert worst.gap_star < 1e-8 * profile.spectral_width
        assert time.perf_counter() - start < 5.0


def test_criterion_02_family_certification_and_gap():
    with criterion(2, "family certification, gap open everywhere"):
        start = time.perf_counter()
        corpus = certified_corpus()
        assert len(corpus) == 250
        for family, params, pieces in corpus:
            for h_i, diag, report in pieces:
                assert report.is_certified, (family, params)
                if h_i.dim < 2:
                    continue  # a one-dimensional block has no gap to close
                profile = sweep_pair(
                    h_i,
                    HermitianMatrix(np.diag(diag).astype(complex)),
                    grid_points=501,
                    m_levels=2,
                )
                assert profile.min_gap.value > 0.0, (family, params)
                assert not profile.crossings, (family, params)
        assert time.perf_counter() - start < 180.0


def test_criterion_03_ground_state_closed_forms():
    with criterion(3, "closed-form ground states"):
        rng = np.random.default_rng(20240902)
        for n in range(1, 7):
            uniform_cases = [
                CaseParams(
                    "bit_rotation", n,
                    a0=float(rng.uniform(-1, 1)),
                    ai=tuple(float(-rng.uniform(0.1, 2.0)) for _ in range(n)),
                ),
                CaseParams("transverse_positive", n, g=float(rng.uniform(0.1, 2.0))),
            ]
            for params in uniform_cases:
                reference = ground_state_reference(params)
                numeric = ground_state(to_matrix(case_h_i(params))).vector
                numeric = align_phase(numeric, reference)
                assert np.max(np.abs(numeric - reference)) < 1e-9, params
        for n in range(2, 7):
            block_cases = [
                CaseParams("xy_hopping", n),
                CaseParams("heisenberg", n, aij=random_connected_couplings(rng, n)),
            ]
            for params in block_cases:
                h = to_matrix(case_h_i(params))
                blocks = weight_blocks(h, n)
                for k in range(n + 1):
                    reference = ground_state_reference(params, k=k)
                    restricted = reference[list(blocks[k].basis_indices)]
                    numeric = ground_state(blocks[k].block_matrix).vector
                    numeric = align_phase(numeric, restricted)
                    assert np.max(np.abs(numeric - restricted)) < 1e-9, (params, k)


def test_criterion_04_transverse_gauge_pattern():
    with criterion(4, "alternating-sign gauge for positive transverse fields"):
        rng = np.random.default_rng(20240903)
        for n in range(1, 7):
            g = float(rng.uniform(0.1, 2.0))
            params = CaseParams("transverse_positive", n, g=g)
            h_i = to_matrix(case_h_i(params))
            gauge = extract_gauge(ground_state(h_i))
            d = 1 << n
            weights = np.array([bin(z).count("1") for z in range(d)])
            sign_pattern = (-1.0) ** weights  # the diagonal of Z tensor^n
            assert np.max(np.abs(gauge.diagonal() - sign_pattern)) < 1e-12
            rotated = gauge.rotate(h_i).entries
            target = -g * build_pauli(
                PauliExpression.from_terms(
                    n,
                    [
                        (1.0, "".join("X" if q == i else "I" for q in range(n)))
                        for i in range(n)
                    ],
                )
            ).entries
            assert np.max(np.abs(rotated - target)) < 1e-12


def test_criterion_05_proof_chain_on_corpus():
    with criterion(5, "proof chain holds on the certified corpus"):
        for family, params, pieces in certified_corpus():
            for h_i, diag, report in pieces:
                chain = verify_proof_chain_pair(
                    h_i,
                    HermitianMatrix(np.diag(diag).astype(complex)),
                    report.gauge,
                )
                assert len(chain.samples) == 101
                assert chain.passed, (family, params, chain.failures()[:1])
                for sample in chain.samples:
                    assert sample.n0 is not None
                    assert sample.n0 <= wielandt_bound(h_i.dim)


def test_criterion_06_power_limit_convergence():
    with criterion(6, "normalized powers converge to the ground projector"):
        rng = np.random.default_rng(20240904)
        for _ in range(20):
            d = int(rng.integers(2, 17))
            core = -np.abs(rng.uniform(0.1, 1.0, size=(d, d)))
            core = (core + core.T) / 2.0
            u = np.exp(1j * rng.uniform(-np.pi, np.pi, size=d))
            h_i = HermitianMatrix(u[:, None] * core * u.conj()[None, :])
            report = certify_pair(h_i, np.diag(rng.uniform(0, 1, d)).astype(complex))
            assert report.is_certified
            result = power_limit_projector(h_i, report.gauge, tol=1e-6)
            assert result.max_error <= 1e-6


def test_criterion_07_search_gap_closed_form():
    with criterion(7, "two-dimensional search gap matches the closed form"):
        instance = InstanceSpec(
            1, ProjectorSpec.uniform(1), DiagonalSpec.from_values(1, [0.0, 1.0])
        )
        profile = gap_sweep(instance, grid_points=1001)
        s = profile.grid
        closed_form = np.sqrt(s**2 + (1.0 - s) ** 2)
        assert np.max(np.abs(profile.gap1 - closed_form)) < 1e-9
        assert abs(profile.min_gap.value - 1.0 / math.sqrt(2.0)) < 1e-9
        assert abs(profile.min_gap.s - 0.5) <= 1e-6


def random_monotone_schedule(rng):
    k = int(rng.integers(3, 7))
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k - 2)), [1.0]])
    a_steps = rng.uniform(0.1, 1.0, size=k - 1)
    a = 1.0 - np.concatenate([[0.0], np.cumsum(a_steps) / np.sum(a_steps)])
    b_steps = rng.uniform(0.1, 1.0, size=k - 1)
    b = np.concatenate([[0.0], np.cumsum(b_steps) / np.sum(b_steps)])
    return ScheduleSpec(
        "tabulated",
        tuple(
            (float(t), float(av), float(bv)) for t, av, bv in zip(ts, a, b)
        ),
    )


def random_pair_instance(rng):
    n = int(rng.integers(2, 5))
    d = 1 << n
    pairs = []
    for _ in range(int(rng.integers(2, 6))):
        axes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        pairs.append((float(rng.standard_normal()), axes))
    return InstanceSpec(
        n,
        PauliExpression.from_terms(n, pairs),
        DiagonalSpec.from_values(n, rng.uniform(0, 10, size=d)),
    )


def test_criterion_08_schedule_rescaling_identity():
    with criterion(8, "tabulated gaps rescale onto the linear path"):
        rng = np.random.default_rng(20240905)
        schedules = [random_monotone_schedule(rng) for _ in range(10)]
        instances = [random_pair_instance(rng) for _ in range(10)]
        for schedule in schedules:
            for instance in instances:
                profile = schedule_sweep(
                    instance,
                    schedule=schedule,
                    grid_points=101,
                    m_levels=2,
                )
                A = instance.h_i_matrix().entries
                B = instance.h_p_matrix().entries
                a, b = schedule.coefficients(profile.grid)
                scale = a + b
                sigma = b / scale
                for idx in range(profile.grid.size):
                    w = np.linalg.eigvalsh(
                        (1.0 - sigma[idx]) * A + sigma[idx] * B
                    )
                    want = scale[idx] * (w[1] - w[0])
                    assert abs(profile.gap1[idx] - want) <= 1e-9 * (1.0 + abs(want))


def random_invariance_driver(rng):
    d = int(2 ** rng.integers(1, 6))  # d <= 32
    style = int(rng.integers(0, 3))
    if style == 0:  # generic dense Hermitian, usually not certifiable
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h_i = HermitianMatrix((a + a.conj().T) / 2.0)
    else:  # stoquastic core, optionally hidden behind a diagonal unitary
        core = -np.abs(rng.uniform(0.1, 1.0, size=(d, d)))
        core = (core + core.T) / 2.0
        if style == 2:
            u = np.exp(1j * rng.uniform(-np.pi, np.pi, size=d))
            core = u[:, None] * core * u.conj()[None, :]
        h_i = HermitianMatrix(core)
    h_p = np.diag(rng.uniform(0, 5, size=d)).astype(complex)
    return h_i, h_p


def verdict_signature(report):
    return (
        report.overall,
        report.condition1.passed,
        report.condition2.passed,
        report.condition2.evaluated,
        len(report.condition2.violations),
    )


def test_criterion_09_verdict_invariance():
    with criterion(9, "verdicts invariant under shifts and diagonal gauges"):
        rng = np.random.default_rng(20240906)
        for _ in range(100):
            h_i, h_p = random_invariance_driver(rng)
            baseline = verdict_signature(certify_pair(h_i, h_p))
            c = float(rng.uniform(-10, 10))
            shifted = HermitianMatrix(h_i.entries + c * np.eye(h_i.dim))
            assert verdict_signature(certify_pair(shifted, h_p)) == baseline
            w = np.exp(1j * rng.uniform(-np.pi, np.pi, size=h_i.dim))
            conjugated = HermitianMatrix(
                w[:, None] * h_i.entries * w.conj()[None, :]
            )
            assert verdict_signature(certify_pair(conjugated, h_p)) == baseline


def test_criterion_10_dense_scale_check():
    with criterion(10, "ten-qubit dense pipeline inside the budget"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240907)
        n = 10
        d = 1 << n
        params = CaseParams(
            "bit_rotation", n,
            ai=tuple(float(-rng.uniform(0.5, 1.5)) for _ in range(n)),
        )
        h_p = DiagonalSpec.from_values(n, rng.uniform(0.0, 10.0, size=d))
        from gapcert.specfile import serialize_instance

        text = serialize_instance(build_case(params, h_p))
        instance = parse_instance(text)
        report = certify(instance)
        assert report.is_certified
        profile = gap_sweep(instance, grid_points=201, m_levels=4)
        assert profile.levels.shape == (201, 4)
        assert not profile.crossings
        assert profile.min_gap.value > 0.0
        assert time.perf_counter() - start < 600.0
