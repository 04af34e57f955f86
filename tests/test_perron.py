"""Tests for the nonnegative-matrix machinery behind the gap argument.

Boolean-power oracles here are written directly with numpy so the
primitivity exponents reported by the library are checked against an
independent computation.
"""

import re
import time

import numpy as np
import pytest
from conftest import patch_solver
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from test_acceptance import certified_corpus
from test_cli import THREE_QUBIT_COMPLEX

from gapcert import perron, spectral
from gapcert.cases import CaseParams, build_case
from gapcert.certifier import PhaseGauge, certify, extract_gauge
from gapcert.paulialg import (
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    build_diagonal,
    build_pauli,
    diagonal_values,
)
from gapcert.perron import (
    AuxiliaryF,
    EntryNegative,
    auxiliary_f,
    default_chain_grid,
    power_limit_projector,
    primitivity,
    render_chain_text,
    verify_proof_chain,
    verify_proof_chain_pair,
    wielandt_bound,
)
from gapcert.specfile import parse_instance
from gapcert.spectral import MAX_GRID_POINTS, EigensolverError, ground_state


def pauli(n, pairs):
    return build_pauli(PauliExpression.from_terms(n, pairs))


def bool_power_exponent(pattern, cap):
    """Smallest k with (pattern^k) entrywise positive, or None within cap."""
    reach = pattern.astype(np.int64)
    for k in range(1, cap + 1):
        if reach.all():
            return k
        reach = ((reach @ pattern.astype(np.int64)) > 0).astype(np.int64)
    return None


IDENTITY_GAUGE_2 = PhaseGauge(np.zeros(2))


# ---------------------------------------------------------------------------
# F assembly


def test_auxiliary_pieces_single_qubit_frozen():
    h_i = pauli(1, [(-0.5, "X")])
    h_p = DiagonalSpec.from_values(1, [0.0, 1.0])
    aux = auxiliary_f(h_i, h_p, IDENTITY_GAUGE_2)
    assert aux.c1 == 1.5 and aux.c2 == 2.0
    assert np.array_equal(aux.a1, np.array([[1.5, 0.5], [0.5, 1.5]]))
    assert np.array_equal(aux.a2, np.array([2.0, 1.0]))  # c2 - h_p, a vector
    assert np.array_equal(aux.sample(0.5), np.array([[1.75, 0.25], [0.25, 1.25]]))
    assert aux.shift(0.5) == 1.75
    with pytest.raises(ValueError):
        aux.sample(1.5)


def test_f_convex_combination_everywhere():
    rng = np.random.default_rng(20240817)
    h_i = pauli(2, [(-1.0, "XI"), (-0.6, "IX"), (0.3, "ZZ")])
    h_p = DiagonalSpec.from_values(2, rng.uniform(0, 3, size=4))
    gauge = extract_gauge(ground_state(h_i))
    aux = auxiliary_f(h_i, h_p, gauge)
    for s in rng.uniform(0, 1, size=10):
        want = (1.0 - s) * aux.a1 + s * np.diag(aux.a2)
        assert np.max(np.abs(aux.sample(float(s)) - want)) < 1e-15


def test_shift_mirrors_interpolated_top_eigenvalue():
    # c1, c2 sit one unit above each top level, so the shift dominates F
    h_i = pauli(2, [(-1.0, "XI"), (-1.0, "IX")])
    h_p = DiagonalSpec.from_values(2, [0, 1, 2, 3])
    gauge = extract_gauge(ground_state(h_i))
    aux = auxiliary_f(h_i, h_p, gauge)
    assert aux.c1 == pytest.approx(3.0)  # top of h_i is 2
    assert aux.c2 == pytest.approx(4.0)  # top of h_p is 3


def test_sign_violation_surfaces_as_entry_negative():
    # the counterexample, whose rotated h_i keeps positive off-diagonal entries
    h_i = pauli(2, [(-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX")])
    h_p = DiagonalSpec.from_values(2, [0, 2, 6, 8])
    aux = auxiliary_f(h_i, h_p, extract_gauge(ground_state(h_i)))
    # the violation scales with (1-s) but persists for every s < 1
    for s in (0.5, 0.99):
        with pytest.raises(EntryNegative) as err:
            perron._check_entrywise_nonnegative(aux.sample(s), s)
        assert (err.value.row, err.value.col) in {(0, 1), (1, 0), (2, 3), (3, 2)}
        assert err.value.s == s
        assert f"entry ({err.value.row}, {err.value.col})" in str(err.value)
    f_end = aux.sample(1.0)  # pure diagonal piece is fine
    assert np.array_equal(perron._check_entrywise_nonnegative(f_end, 1.0), f_end > 0)
    chain = verify_proof_chain_pair(h_i, h_p, aux.gauge, [0.5, 0.99, 1.0])
    assert [sample.nonnegative for sample in chain.samples] == [False, False, True]
    assert all("is not nonnegative" in sample.note for sample in chain.samples[:2])


# ---------------------------------------------------------------------------
# primitivity


def test_primitivity_frozen_small_cases():
    fib = np.array([[1, 1], [1, 0]], dtype=float)
    cert = primitivity(fib)
    assert cert.is_primitive and cert.n0 == 2 and cert.period == 1

    swap = np.array([[0, 1], [1, 0]], dtype=float)
    cert = primitivity(swap)
    assert not cert.is_primitive and cert.period == 2

    blocks = primitivity(np.eye(2))
    assert not blocks.is_primitive
    assert blocks.reducible_blocks == ((0,), (1,))

    assert primitivity(np.array([[2.0]])).n0 == 1
    lone = primitivity(np.array([[0.0]]))
    assert not lone.is_primitive and lone.reducible_blocks == ((0,),)

    with pytest.raises(ValueError):
        primitivity(np.array([[1.0, -0.5], [0.5, 1.0]]))

    for cert in (primitivity(fib), primitivity(swap), blocks, lone):
        assert cert.is_primitive == (cert.n0 is not None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_primitivity_rejects_non_finite_entries(bad):
    matrix = np.ones((3, 3), dtype=type(bad))
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="entrywise-nonnegative"):
        primitivity(matrix)
    with pytest.raises(EntryNegative) as err:  # the offending entry is named
        perron._check_entrywise_nonnegative(matrix, 0.5)
    assert (err.value.row, err.value.col) == (1, 2)


def test_wielandt_graph_attains_the_bound():
    # directed d-cycle plus one chord: the classical extremal case
    d = 4
    pattern = np.zeros((d, d))
    for u in range(d):
        pattern[u, (u + 1) % d] = 1.0
    pattern[d - 1, 1] = 1.0
    cert = primitivity(pattern)
    assert cert.is_primitive
    assert cert.n0 == wielandt_bound(d) == 10
    assert bool_power_exponent(pattern > 0, 20) == 10


def test_primitivity_exponent_matches_boolean_oracle():
    rng = np.random.default_rng(20240818)
    found = 0
    while found < 15:
        d = int(rng.integers(2, 9))
        pattern = np.zeros((d, d))
        for u in range(d):  # a cycle guarantees strong connectivity
            pattern[u, (u + 1) % d] = 1.0
        extra = rng.integers(0, 2, size=(d, d)) * (rng.random((d, d)) < 0.25)
        pattern = np.clip(pattern + extra, 0, 1).astype(float)
        cert = primitivity(pattern)
        if not cert.is_primitive:
            continue
        found += 1
        assert cert.n0 == bool_power_exponent(pattern > 0, wielandt_bound(d))
        assert cert.n0 <= wielandt_bound(d)


def test_adding_edges_never_raises_the_exponent():
    rng = np.random.default_rng(20240819)
    for _ in range(10):
        d = int(rng.integers(3, 8))
        base = np.zeros((d, d))
        for u in range(d):
            base[u, (u + 1) % d] = 1.0
        base[0, 0] = 1.0  # self-loop makes the cycle primitive
        more = np.clip(base + (rng.random((d, d)) < 0.3), 0, 1)
        a = primitivity(base)
        b = primitivity(more.astype(float))
        assert a.is_primitive and b.is_primitive
        assert b.n0 <= a.n0


def test_period_of_bipartite_cycle():
    # 4-cycle: strongly connected with period 2 (no odd closed walk)
    pattern = np.zeros((4, 4))
    for u in range(4):
        pattern[u, (u + 1) % 4] = 1.0
        pattern[(u + 1) % 4, u] = 1.0
    cert = primitivity(pattern)
    assert not cert.is_primitive and cert.period == 2


def closed_walk_period(pattern):
    """gcd of the k <= d with a closed walk of length k (trace(A^k) > 0)."""
    d = pattern.shape[0]
    step = pattern.astype(np.int64)
    reach = step.copy()
    g = 0
    for k in range(1, d + 1):
        if np.trace(reach) > 0:
            g = np.gcd(g, k)
        reach = ((reach @ step) > 0).astype(np.int64)
    return int(g)


def test_period_matches_closed_walk_oracle():
    # a Hamiltonian cycle keeps every pattern strongly connected; extra edges
    # go only from class c to class c + 1 (mod p), so periods above 1 occur
    rng = np.random.default_rng(20240822)
    periods = set()
    for _ in range(300):
        p = int(rng.integers(1, 4))
        d = p * int(rng.integers(1, 7))
        if d == 1:
            continue
        order = rng.permutation(d)
        pattern = np.zeros((d, d), dtype=bool)
        pattern[order, np.roll(order, -1)] = True
        classes = np.empty(d, dtype=int)
        classes[order] = np.arange(d) % p
        step = (classes[:, None] + 1) % p == classes[None, :]
        pattern |= step & (rng.random((d, d)) < 0.3)
        if rng.random() < 0.3:  # now and then an edge that breaks the classes
            pattern[rng.integers(d), rng.integers(d)] = True
        cert = primitivity(pattern.astype(float))
        assert cert.reducible_blocks is None
        assert cert.period == closed_walk_period(pattern)
        assert cert.is_primitive == (cert.period == 1)
        periods.add(cert.period)
    assert periods >= {1, 2, 3}


def reference_primitivity(pattern):
    """``(n0, period, reducible_blocks)`` from scipy's strong components, the
    BFS levels of its shortest paths and the boolean-power oracle."""
    graph = csr_matrix(pattern)
    count, labels = connected_components(graph, directed=True, connection="strong")
    if count > 1:
        blocks = sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(count))
        return None, None, tuple(blocks)
    level = shortest_path(graph, unweighted=True, indices=0).astype(np.int64)
    rows, cols = graph.nonzero()
    period = int(np.gcd.reduce(level[rows] + 1 - level[cols]))
    if period != 1:
        return None, period, None
    return bool_power_exponent(pattern, wielandt_bound(pattern.shape[0])), 1, None


def test_primitivity_matches_scipys_strong_components_on_random_digraphs():
    rng = np.random.default_rng(20261020)
    verdicts = {"primitive": 0, "periodic": 0, "reducible": 0}
    for _ in range(2000):
        d = int(rng.integers(2, 14))
        pattern = rng.random((d, d)) < rng.choice([0.08, 0.2, 0.35, 0.6])
        if rng.random() < 0.5:
            np.fill_diagonal(pattern, False)
        elif rng.random() < 0.5:
            np.fill_diagonal(pattern, True)
        if rng.random() < 0.25:  # symmetric, as every chain pattern is
            pattern |= pattern.T
        cert = primitivity(pattern.astype(float))
        want = reference_primitivity(pattern)
        assert (cert.n0, cert.period, cert.reducible_blocks) == want
        verdicts["primitive" if cert.is_primitive else
                 "periodic" if cert.period else "reducible"] += 1
    assert min(verdicts.values()) >= 30, verdicts


def test_primitivity_decides_large_reducible_patterns_quickly():
    # the blocks are searched through the nodes not yet assigned, with no
    # submatrix copied per block, and each node is searched from once per
    # pass however the blocks are chained: 4,096 singletons, unlinked or
    # on a directed path either way
    d = 4096
    path = np.zeros((d, d), dtype=np.float32)
    path[np.arange(d - 1), np.arange(1, d)] = 1.0
    for pattern in (np.eye(d, dtype=np.float32), path, path.T):
        start = time.perf_counter()
        cert = primitivity(pattern)
        assert time.perf_counter() - start < 2.0
        assert cert.reducible_blocks == tuple((k,) for k in range(d))

    # a 10-cube with diagonal and without the edges of its last bit, its
    # nodes relabelled: two 512-node halves, each primitive on its own
    d = 1024
    nodes = np.arange(d)
    pattern = np.eye(d, dtype=bool)
    for bit in range(9):
        pattern[nodes, nodes ^ (1 << bit)] = True
    order = np.random.default_rng(20261021).permutation(d)
    pattern = pattern[np.ix_(order, order)]
    start = time.perf_counter()
    cert = primitivity(pattern.astype(np.float32))
    assert time.perf_counter() - start < 2.0
    halves = [tuple(np.flatnonzero(order < 512).tolist()),
              tuple(np.flatnonzero(order >= 512).tolist())]
    assert cert.reducible_blocks == tuple(sorted(halves))


def test_entrywise_monotone_powers():
    # 0 <= B <= A entrywise implies B^k <= A^k: the inheritance step that
    # lets F(s) borrow primitivity from its s = 0 piece
    rng = np.random.default_rng(20240820)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        b = rng.uniform(0, 1, size=(d, d)) * (rng.random((d, d)) < 0.5)
        a = b + rng.uniform(0, 1, size=(d, d)) * (rng.random((d, d)) < 0.5)
        pa, pb = a.copy(), b.copy()
        for _ in range(4):
            assert np.all(pa - pb > -1e-12)
            pa, pb = pa @ a, pb @ b


def test_certified_f_primitive_on_whole_grid():
    instance = build_case(CaseParams("bit_rotation", 3, ai=(-1.0, -0.5, -0.25)))
    report = certify(instance)
    assert report.is_certified
    aux = auxiliary_f(
        instance.h_i_matrix(), build_diagonal(instance.h_p), report.gauge
    )
    for s in default_chain_grid(21):
        cert = primitivity(aux.sample(float(s)))
        assert cert.is_primitive
        assert cert.n0 <= wielandt_bound(aux.dim)


# ---------------------------------------------------------------------------
# power limit


def test_power_limit_single_qubit_frozen():
    # normalized (2I + X)/3 has eigenvalues {1, 1/3}; the deviation from the
    # rank-one limit is 3^-N / 2, crossing 1e-6 at the doubled power N = 16
    h_i = pauli(1, [(-1.0, "X")])
    gauge = extract_gauge(ground_state(h_i))
    result = power_limit_projector(h_i, gauge, tol=1e-6)
    assert result.n_power == 16
    assert result.max_error == pytest.approx(0.5 * 3.0**-16, rel=1e-9)


def test_power_limit_random_certified_drivers():
    rng = np.random.default_rng(20240821)
    for _ in range(8):
        d = int(rng.integers(2, 17))
        core = -np.abs(rng.uniform(0.1, 1.0, size=(d, d)))
        core = (core + core.T) / 2.0
        u = np.exp(1j * rng.uniform(-np.pi, np.pi, size=d))
        h_i = HermitianMatrix(u[:, None] * core * u.conj()[None, :])
        gauge = extract_gauge(ground_state(h_i))
        result = power_limit_projector(h_i, gauge, tol=1e-6)
        assert result.max_error <= 1e-6
        # independent restatement: the normalized power is within tol of the
        # projector onto the entrywise-positive ground amplitudes
        r = np.abs(ground_state(h_i).vector)
        rotated = gauge.rotate(h_i)
        vals = np.linalg.eigvalsh(core)
        c1 = vals[-1] + 1.0
        normalized = (c1 * np.eye(d) - rotated) / (c1 - vals[0])
        power = np.linalg.matrix_power(normalized, result.n_power)
        assert np.max(np.abs(power - np.outer(r, r))) <= 1e-6


def test_power_limit_rejects_degenerate_ground():
    h_i = HermitianMatrix(np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex))
    with pytest.raises(ValueError, match="unique"):
        power_limit_projector(h_i, PhaseGauge(np.zeros(4)))


def test_power_limit_reports_non_convergence():
    h_i = pauli(1, [(-0.001, "X")])  # spectral ratio barely below one
    gauge = extract_gauge(ground_state(h_i))
    with pytest.raises(RuntimeError, match="did not converge"):
        power_limit_projector(h_i, gauge, tol=1e-6, max_doublings=10)


# ---------------------------------------------------------------------------
# full chain


def test_chain_passes_for_certified_instance():
    instance = build_case(CaseParams("bit_rotation", 2, ai=(-1.0, -0.3)))
    report = certify(instance)
    chain = verify_proof_chain(instance, report.gauge)
    assert chain.passed
    assert len(chain.samples) == 101
    assert chain.failures() == ()
    for sample in chain.samples:
        assert sample.ok and sample.nonnegative
        assert sample.n0 is not None and sample.n0 <= wielandt_bound(4)
    text = render_chain_text(chain)
    assert "all checks passed" in text
    assert "not a proof" in text


def count_primitivity_calls(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return primitivity(matrix)

    monkeypatch.setattr(perron, "primitivity", counted)
    return calls


def assert_chain_matches_per_sample_primitivity(chain, aux):
    for sample in chain.samples:
        cert = primitivity(aux.sample(sample.s))
        assert sample.primitive == cert.is_primitive
        assert sample.n0 == cert.n0


def test_chain_decides_primitivity_once(monkeypatch):
    instance = build_case(CaseParams("bit_rotation", 3, ai=(-1.0, -0.5, -0.25)))
    report = certify(instance)
    calls = count_primitivity_calls(monkeypatch)
    chain = verify_proof_chain(instance, report.gauge)
    assert chain.passed and len(chain.samples) == 101
    assert len(calls) == 1


def test_chain_redecides_primitivity_when_the_pattern_changes(monkeypatch):
    # the XX coupling of 1e-10 falls below PATTERN_RTOL * (1 + max |F|) once
    # (1-s) is below about 0.05: the pattern loses its antidiagonal and n0
    # goes from 1 (every entry positive) to 2 (the square's diameter)
    h_i = pauli(2, [(-1.0, "XI"), (-1.0, "IX"), (-1e-10, "XX")])
    h_p = [0.0, 1.0, 2.0, 3.0]
    gauge = extract_gauge(ground_state(h_i))
    calls = count_primitivity_calls(monkeypatch)
    chain = verify_proof_chain_pair(h_i, h_p, gauge)
    assert chain.passed
    assert len(calls) == 2
    n0 = [sample.n0 for sample in chain.samples]
    changed = n0.index(2)
    assert 0 < changed < len(n0) - 1
    assert n0 == [1] * changed + [2] * (len(n0) - changed)
    monkeypatch.undo()
    assert_chain_matches_per_sample_primitivity(chain, auxiliary_f(h_i, h_p, gauge))


def test_chain_primitivity_matches_per_sample_on_the_corpus():
    pieces = [piece for _, _, family_pieces in certified_corpus() for piece in family_pieces]
    for h_i, diag, report in pieces[::10]:
        chain = verify_proof_chain_pair(h_i, diag, report.gauge)
        assert chain.passed
        assert_chain_matches_per_sample_primitivity(
            chain, auxiliary_f(h_i, diag, report.gauge)
        )


def test_chain_fails_nonnegativity_for_sign_violating_driver():
    h_i = pauli(2, [(-2.0, "XI"), (1.0, "IX"), (1.0, "IZ"), (-2.0, "XX")])
    h_p = DiagonalSpec.from_values(2, [0, 2, 6, 8])
    gauge = extract_gauge(ground_state(h_i))
    chain = verify_proof_chain_pair(h_i, h_p, gauge, default_chain_grid(11))
    assert not chain.passed
    assert len(chain.failures()) == len(chain.samples)
    for sample in chain.samples:
        assert not sample.nonnegative
        assert sample.primitive is None and sample.spectral_mirror is None
        assert not sample.ok
    assert "samples failed" in render_chain_text(chain)


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_chain_verdicts_do_not_depend_on_units(scale):
    # the same certified pair in other units: every link's verdict, the
    # spectral mirror's included, is the one at unit scale
    h_p = DiagonalSpec.from_values(4, np.linspace(0.0, 5.0, 16) ** 1.3 % 4.0)
    instance = build_case(CaseParams("bit_rotation", 4, a0=0.3, ai=(-1.0, -0.6, -0.3, -0.8)), h_p)
    h_i, hp = instance.h_i_matrix(), np.array(h_p.values)
    gauge = certify(instance).gauge

    def verdicts(chain):
        return [
            (s.nonnegative, s.primitive, s.n0, s.perron_simple_positive, s.spectral_mirror)
            for s in chain.samples
        ]

    unit = verify_proof_chain_pair(h_i, hp, gauge)
    scaled = verify_proof_chain_pair(HermitianMatrix(scale * h_i.entries), scale * hp, gauge)
    assert unit.passed
    assert verdicts(scaled) == verdicts(unit)


def test_chain_respects_custom_sample_points():
    instance = build_case(CaseParams("transverse_positive", 2, g=0.8))
    report = certify(instance)
    chain = verify_proof_chain(instance, report.gauge, s_samples=[0.0, 0.25, 0.5])
    assert [s.s for s in chain.samples] == [0.0, 0.25, 0.5]
    assert chain.passed


@pytest.mark.parametrize("empty", [[], (), np.array([])], ids=["list", "tuple", "array"])
def test_chain_refuses_an_empty_sample_list(empty):
    # a chain with no sample checks nothing, so it must not pass
    instance = build_case(CaseParams("transverse_positive", 2, g=0.8))
    gauge = certify(instance).gauge
    with pytest.raises(ValueError, match="at least 1 sample point"):
        verify_proof_chain(instance, gauge, s_samples=empty)


def test_chain_refuses_more_samples_than_the_maximum(solve_log):
    # refused before any sample is solved
    instance = build_case(CaseParams("transverse_positive", 2, g=0.8))
    gauge = certify(instance).gauge
    solve_log.clear()
    with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS} sample points"):
        verify_proof_chain(instance, gauge, s_samples=np.zeros(MAX_GRID_POINTS + 1))
    assert solve_log == []


def test_default_chain_grid_excludes_endpoint():
    grid = default_chain_grid(101)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1.0 - 1.0 / 101)
    assert grid.size == 101
    assert np.all(np.diff(grid) > 0)


# ---------------------------------------------------------------------------
# the stacked pass: each chunk of samples solves its Perron pairs, then its
# mirror levels, one pencil_pairs call each


CHAIN_CASES = {
    "real": build_case(CaseParams("bit_rotation", 3, ai=(-1.0, -0.5, -0.25))),
    "complex": parse_instance(THREE_QUBIT_COMPLEX),
}


def chain_parts(case):
    instance = CHAIN_CASES[case]
    h_i = instance.h_i_matrix()
    hp = diagonal_values(instance.h_p, h_i.dim)
    gauge = certify(instance).gauge
    return h_i, hp, gauge, auxiliary_f(h_i, hp, gauge)


def chain_chunk_bytes(samples, aux):
    """A CHUNK_BYTES that makes each chunk of the chain hold ``samples`` samples."""
    return samples * aux.dim * (min(2, aux.dim) + 1) * aux.a1.itemsize


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_chunk_size_leaves_the_chain_report_identical(case, monkeypatch):
    h_i, hp, gauge, aux = chain_parts(case)
    assert aux.a1.dtype == (np.complex128 if case == "complex" else np.float64)
    # s = 1 leaves F diagonal, so the last sample fails primitivity
    grid = np.append(default_chain_grid(40), 1.0)
    defects = []
    judged = perron._judged_sample

    def recording(*args):
        defects.append(args[3])  # the mirror defect, bit for bit
        return judged(*args)

    monkeypatch.setattr(perron, "_judged_sample", recording)
    reports = []
    for samples in (1, 3, grid.size):
        monkeypatch.setattr(perron, "CHUNK_BYTES", chain_chunk_bytes(samples, aux))
        report = verify_proof_chain_pair(h_i, hp, gauge, grid)
        reports.append((report.c1, report.c2, report.samples, defects[:]))
        del defects[:]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert [sample.s for sample in reports[0][2]] == grid.tolist()
    assert [sample.ok for sample in reports[0][2]] == [True] * 40 + [False]
    assert reports[0][2][-1].note == "primitivity failed"


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
@pytest.mark.parametrize("solve", ["perron", "mirror"])
@pytest.mark.parametrize("corrupt", ["value", "vector"])
def test_a_pair_corrupted_inside_a_chunk_names_its_sample(case, solve, corrupt, monkeypatch):
    # chunks of 3 samples: sample 4 sits in the middle of the second
    h_i, hp, gauge, aux = chain_parts(case)
    monkeypatch.setattr(perron, "CHUNK_BYTES", chain_chunk_bytes(3, aux))
    grid = default_chain_grid(11)
    s = float(grid[4])
    if solve == "perron":  # the Perron pair of F(s) is the ground pair of -F(s)
        target = -aux.sample(s)
    else:
        target = (1.0 - s) * h_i.entries + np.diag(s * hp)
    pairs = spectral.lapack_pairs
    calls = []

    def corrupted(h, m):
        values, vectors = pairs(h, m)
        if np.array_equal(h, target):
            if corrupt == "value":
                values[-1] += 1e-6
            else:  # one level: the vector is stretched
                vectors[:, -1] += 1e-6 * vectors[:, 0]
        calls.append(m)
        return values, vectors

    patch_solver(monkeypatch, corrupted)
    point = re.escape(f" at s = {s!r}")
    with pytest.raises(EigensolverError, match=f"(residual|orthonormality).*{point}$"):
        verify_proof_chain_pair(h_i, hp, gauge, grid)
    # c1's top eigenvalue and the first chunk's six solves, then the second
    # chunk's Perron solves and, for a mirror level, its mirror solves
    assert len(calls) == {"perron": 10, "mirror": 13}[solve]
