"""End-to-end tests of the command line, run in-process through main()."""

import gc
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from conftest import patch_solver

import gapcert
from gapcert import paulialg
from gapcert.certifier import certify
from gapcert.cli import build_parser, main
from gapcert.perron import power_limit_projector
from gapcert.specfile import parse_instance
from gapcert.spectral import MAX_GRID_POINTS, EigensolverError, eigensystem

COUNTEREXAMPLE = """\
qubits = 2
[Hi]
terms = -2.0 XI, 1.0 IX, 1.0 IZ, -2.0 XX
[Hp]
diagonal = 0.0, 2.0, 6.0, 8.0
"""

STOQUASTIC = """\
qubits = 2
[Hi]
terms = -1.0 XI, -0.5 IX
[Hp]
diagonal = 0.0, 1.0, 2.0, 3.0
"""

HOPPING = """\
qubits = 2
[Hi]
terms = -0.5 XX, -0.5 YY
[Hp]
diagonal = 0.0, 1.0, 2.0, 3.0
"""

# every product of these entries overflows float64
OVERFLOW = """\
qubits = 1
[Hi]
terms = -1.7e308 X, 1.7e308 Z
[Hp]
diagonal = 1.7e308, -1.7e308
"""


def scaled(text, factor):
    """``text`` with every Pauli coefficient and diagonal value times ``factor``."""

    def scale(line):
        key, sep, payload = line.partition(" = ")
        if key not in ("terms", "diagonal"):
            return line
        return key + sep + re.sub(r"-?\d+\.\d+", lambda m: repr(float(m[0]) * factor), payload)

    return "\n".join(scale(line) for line in text.split("\n"))


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="instance.spec"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# ---------------------------------------------------------------------------
# certify


def test_certify_exit_codes_and_text(run, spec_file):
    code, out, err = run("certify", spec_file(STOQUASTIC))
    assert code == 0
    assert "verdict: certified" in out

    code, out, err = run("certify", spec_file(COUNTEREXAMPLE, "ce.spec"))
    assert code == 2
    assert "verdict: not certified" in out
    assert "inconclusive" in out


def test_certify_structured_fields(run, spec_file):
    code, out, _ = run(
        "certify", spec_file(COUNTEREXAMPLE), "--format", "structured"
    )
    assert code == 2
    fields = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert fields["overall"] == "not_certified"
    assert fields["condition1"] == "pass"
    assert fields["condition2"] == "fail"
    assert fields["condition2.violations.count"] == "4"


def test_certify_out_file(run, spec_file, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = run("certify", spec_file(STOQUASTIC), "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert "verdict: certified" in out_path.read_text()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_stdout_summary_stderr(run, spec_file):
    code, out, err = run("sweep", spec_file(STOQUASTIC), "--grid", "51")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,eps0,eps1,eps2,eps3,gap1"
    assert len(lines) == 52
    assert "min_gap" in err


def test_sweep_csv_to_file_summary_stdout(run, spec_file, tmp_path):
    target = tmp_path / "profile.csv"
    code, out, err = run(
        "sweep", spec_file(STOQUASTIC), "--grid", "21", "--out", str(target)
    )
    assert code == 0
    assert "min_gap" in out
    assert target.read_text().startswith("s,eps0")


def test_sweep_formats_and_determinism(run, spec_file):
    path = spec_file(COUNTEREXAMPLE)
    code, out1, _ = run("sweep", path, "--grid", "101")
    _, out2, _ = run("sweep", path, "--grid", "101")
    assert code == 0
    assert out1 == out2  # byte-identical CSV between runs

    code, out, _ = run("sweep", path, "--grid", "101", "--format", "text")
    assert code == 0
    assert out.startswith("min_gap") and "crossings = 1" in out

    code, out, _ = run("sweep", path, "--grid", "101", "--format", "structured")
    assert code == 0
    fields = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert fields["crossings.count"] == "1"
    s_star = float(fields["crossings.0"].split()[2])
    assert abs(s_star - 0.5) < 1e-6


def test_sweep_levels_flag(run, spec_file):
    code, out, _ = run("sweep", spec_file(STOQUASTIC), "--grid", "11", "--levels", "2")
    assert code == 0
    assert out.splitlines()[0] == "s,eps0,eps1,gap1"


# ---------------------------------------------------------------------------
# case


def test_case_counterexample_defaults(run):
    code, out, _ = run("case", "counterexample")
    assert code == 0
    spec = parse_instance(out)
    assert spec.n_qubits == 2
    assert spec.h_p.values == (0.0, 2.0, 6.0, 8.0)


def test_case_families_emit_parseable_files(run, tmp_path):
    invocations = [
        ("bit-rotation", "--n", "3", "--ai", "-1,-0.5,-0.25"),
        ("xy-hopping", "--n", "3"),
        ("heisenberg", "--n", "3", "--aij", "-0.5"),
        ("heisenberg", "--n", "3", "--aij", "0,1,-1;1,2,-0.5"),
        ("projector-uniform", "--n", "2"),
        ("transverse-positive", "--n", "2", "--g", "0.7"),
    ]
    for argv in invocations:
        code, out, _ = run("case", *argv)
        assert code == 0, argv
        spec = parse_instance(out)
        assert spec.n_qubits == int(argv[2])


def test_case_custom_hp_and_out(run, tmp_path):
    target = tmp_path / "case.spec"
    code, out, _ = run(
        "case", "bit-rotation", "--n", "2", "--ai", "-1,-1",
        "--hp", "0,4,4,8", "--out", str(target),
    )
    assert code == 0 and out == ""
    spec = parse_instance(target.read_text())
    assert spec.h_p.values == (0.0, 4.0, 4.0, 8.0)


def test_case_usage_errors(run):
    code, _, err = run("case", "unknown-family")
    assert code == 1
    assert "unknown family" in err

    code, _, err = run("case", "bit-rotation")  # missing --n
    assert code == 1
    assert "--n" in err

    code, _, err = run("case", "bit-rotation", "--n", "2", "--ai=1.5,oops")
    assert code == 1
    assert "bad --ai" in err

    code, _, err = run("case", "bit-rotation", "--n", "2", "--ai", "-1,1")
    assert code == 1  # family validation surfaces as a CLI error
    assert "a_i < 0" in err

    # over MAX_QUBITS: refused before the 2**n diagonal or the n**2 pairs exist
    code, _, err = run("case", "bit-rotation", "--n", "40", "--ai", ",".join(["-1"] * 40))
    assert code == 1 and "MAX_QUBITS" in err
    code, _, err = run("case", "heisenberg", "--n", "1000000", "--aij", "-1")
    assert code == 1 and "MAX_QUBITS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("transverse-positive", "--n", "2", "--g", "1", "--a0", "3"),
        ("xy-hopping", "--n", "2", "--a0", "1"),
        ("projector-uniform", "--n", "2", "--a0", "1"),
        ("counterexample", "--a0", "1"),
        ("bit-rotation", "--n", "2", "--ai", "-1,-1", "--g", "1"),
        ("heisenberg", "--n", "2", "--aij", "-1", "--g", "1"),
        ("bit-rotation", "--n", "2", "--ai", "-1,-1", "--aij", "-1"),
        ("transverse-positive", "--n", "2", "--g", "1", "--aij", "-1"),
        ("heisenberg", "--n", "2", "--aij", "-1", "--ai", "-1,-1"),
    ],
    ids=lambda argv: argv[0] + argv[-2],
)
def test_case_refuses_a_coefficient_its_family_does_not_take(run, argv):
    code, out, err = run("case", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "takes" in err


# ---------------------------------------------------------------------------
# blocks


def test_blocks_text_and_structured(run, spec_file):
    path = spec_file(HOPPING)
    code, out, _ = run("blocks", path)
    assert code == 0
    assert out.splitlines() == [
        "block k=0: dim 1, verdict certified",
        "block k=1: dim 2, verdict certified",
        "block k=2: dim 1, verdict certified",
    ]
    code, out, _ = run("blocks", path, "--format", "structured")
    assert code == 0
    fields = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert fields["blocks.count"] == "3"
    assert fields["blocks.1.dim"] == "2"
    assert fields["blocks.1.verdict"] == "certified"


def test_blocks_rejects_weight_asymmetric_operator(run, spec_file):
    code, _, err = run("blocks", spec_file(STOQUASTIC))
    assert code == 1
    assert "Hamming" in err


# ---------------------------------------------------------------------------
# estimate


def test_estimate_text_output(run, spec_file):
    code, out, _ = run("estimate", spec_file(STOQUASTIC), "--grid", "101")
    assert code == 0
    assert "worst adiabatic ratio" in out
    assert "suggested T" in out


def test_estimate_structured_and_eps(run, spec_file):
    code, out, _ = run(
        "estimate", spec_file(STOQUASTIC), "--grid", "51",
        "--eps", "0.05", "--format", "structured",
    )
    assert code == 0
    fields = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert float(fields["suggested_T"]) == pytest.approx(
        float(fields["worst_ratio"]) / 0.05
    )


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_estimate_rejects_a_non_finite_eps(run, spec_file, eps):
    code, out, err = run("estimate", spec_file(STOQUASTIC), "--grid", "21", "--eps", eps)
    assert code == 1
    assert out == ""
    assert err == f"error: target_epsilon must be positive and finite, got {eps}\n"


@pytest.mark.parametrize("eps", ["nan", "0"])
def test_estimate_checks_eps_before_it_sweeps(run, spec_file, solve_log, eps):
    code, out, err = run("estimate", spec_file(STOQUASTIC), "--grid", "1001", "--eps", eps)
    assert code == 1
    assert out == ""
    assert err == f"error: target_epsilon must be positive and finite, got {float(eps)}\n"
    assert solve_log == []


def test_estimate_refuses_crossing_profile(run, spec_file):
    code, out, err = run("estimate", spec_file(COUNTEREXAMPLE), "--grid", "201")
    assert code == 1
    assert "error:" in err and "closing" in err


# ---------------------------------------------------------------------------
# verify-proof


def test_verify_proof_certified_instance(run, spec_file):
    code, out, _ = run("verify-proof", spec_file(STOQUASTIC), "--grid", "21")
    assert code == 0
    assert "all checks passed" in out
    assert "not a proof" in out


def test_verify_proof_uncertified_instance(run, spec_file):
    code, out, err = run("verify-proof", spec_file(COUNTEREXAMPLE), "--grid", "11")
    assert code == 2
    assert "verdict: not certified" in out
    assert "proof chain not run" in err


def test_verify_proof_uncertified_report_goes_to_out_file(run, spec_file, tmp_path):
    target = tmp_path / "report.txt"
    code, out, err = run(
        "verify-proof", spec_file(COUNTEREXAMPLE), "--grid", "11", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert "verdict: not certified" in target.read_text()
    assert "proof chain not run" in err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_verify_proof_rejects_an_empty_grid(run, spec_file, points):
    code, out, err = run("verify-proof", spec_file(STOQUASTIC), "--grid", points)
    assert code == 1
    assert out == ""
    assert err == f"error: the proof chain needs at least 1 sample point, got {points}\n"


@pytest.mark.parametrize("command", ["sweep", "estimate", "verify-proof"])
def test_a_huge_grid_is_refused_before_anything_is_allocated(run, spec_file, solve_log, command):
    # a billion points would take 8 GB for the s values alone: one error
    # line, no solve, and no grid allocated
    tracemalloc.start()
    try:
        code, out, err = run(command, spec_file(STOQUASTIC), "--grid", "1000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, solve_log) == (1, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"at most {MAX_GRID_POINTS} " in err and err.endswith(", got 1000000000\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("points", [1, 5, 11])
def test_verify_proof_solve_count(run, spec_file, solve_log, points):
    # certify's ground solve, the top of h_i for c1, then per sample the
    # Perron pair of F(s) and the interpolated ground level
    code, _, _ = run("verify-proof", spec_file(STOQUASTIC), "--grid", str(points))
    assert code == 0
    assert len(solve_log) == 2 * points + 2


def test_verify_proof_has_no_format_option(run, spec_file):
    code, _, err = run("verify-proof", spec_file(STOQUASTIC), "--format", "structured")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv", [("estimate", "--grid", "21"), ("verify-proof", "--grid", "11")]
)
def test_h_i_built_once_per_call(run, spec_file, monkeypatch, argv):
    builds = []
    original = paulialg.build_pauli

    def counting(expression):
        builds.append(expression)
        return original(expression)

    monkeypatch.setattr(paulialg, "build_pauli", counting)
    code, _, _ = run(argv[0], spec_file(STOQUASTIC), *argv[1:])
    assert code == 0
    assert len(builds) == 1


def test_a_sweep_through_the_cli_leaves_no_reference_cycle(run, spec_file, monkeypatch):
    # the refinement's root finds must not keep the instance's h_i alive
    # in a reference cycle once the call has returned
    built = []
    original = paulialg.build_pauli

    def recording(expression):
        matrix = original(expression)
        built.append(weakref.ref(matrix.entries))
        return matrix

    monkeypatch.setattr(paulialg, "build_pauli", recording)
    path = spec_file(COUNTEREXAMPLE)
    gc.disable()
    try:
        code, out, _ = run("sweep", path, "--grid", "101", "--format", "structured")
        assert code == 0
        assert "crossings.count = 1\n" in out
        assert len(built) == 1 and built[0]() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# one parser per process


def test_the_parser_is_built_once_and_each_call_parses_afresh(run, spec_file):
    assert build_parser() is build_parser()
    path = spec_file(STOQUASTIC)
    code, out, _ = run("sweep", path, "--levels", "2", "--format", "structured")
    assert code == 0
    assert out.startswith("min_gap.value = ")
    # nothing of the previous call's options carries over
    code, out, err = run("sweep", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,eps0,eps1,eps2,eps3,gap1"
    assert len(lines) == 1 + 1001
    assert err.startswith("min_gap = ")
    code, out, err = run("sweep", path, "--grid", "x")
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --grid: invalid int value")
    code, out, _ = run("certify", path)
    assert code == 0
    assert "verdict: certified" in out


@pytest.mark.parametrize("module", ["gapcert", "gapcert.cli"])
def test_python_dash_m_runs_the_console_script(run, spec_file, module):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapcert.__file__)))
    for path, expected in (
        (spec_file(STOQUASTIC, "certified.spec"), 0),
        (spec_file(COUNTEREXAMPLE, "crossing.spec"), 2),
        ("/nonexistent/path.spec", 1),
    ):
        code, out, _ = run("certify", path)
        done = subprocess.run(
            [sys.executable, "-m", module, "certify", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert code == expected
        assert (done.returncode, done.stdout) == (code, out)


# ---------------------------------------------------------------------------
# cold start: a fresh interpreter imports only what the command runs

# No command imports any of these: the proof chain decides its graph in
# numpy (no scipy.sparse), the sweep's refinement has its own root search
# (no scipy.optimize), and every solve takes LAPACK from its compiled
# extension alone (no scipy.linalg package, whose import loads numpy.f2py
# among much else)
DEFERRED = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "numpy.f2py")


def run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter; its stdout, after it exits 0."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapcert.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "statement",
    [
        "import gapcert",
        "import gapcert.cli",
        "import gapcert.cli; gapcert.cli.main(['certify', sys.argv[1]])",
        "import gapcert.cli; assert gapcert.cli.main(['blocks', sys.argv[2]]) == 0",
        # the counterexample's sweep refines its one crossing off-grid
        "import gapcert.cli; "
        "assert gapcert.cli.main(['sweep', sys.argv[3], '--format', 'structured']) == 0",
        "import gapcert.cli; assert gapcert.cli.main(['estimate', sys.argv[3]]) == 1",
        "import gapcert.cli; assert gapcert.cli.main(['verify-proof', sys.argv[1]]) == 0",
    ],
)
def test_a_cold_start_leaves_the_deferred_packages_unloaded(spec_file, statement):
    script = f"import sys; {statement}; print(sorted(set({DEFERRED!r}) & set(sys.modules)))"
    out = run_fresh(
        script,
        spec_file(STOQUASTIC),
        spec_file(HOPPING, "hopping.spec"),
        spec_file(COUNTEREXAMPLE, "ce.spec"),
    )
    assert out.endswith("[]\n")


@pytest.mark.parametrize("first", ["gapcert.spectral", "scipy.linalg"])
def test_the_drivers_are_scipys_own_in_either_import_order(first):
    # spectral loads scipy's compiled LAPACK module without the scipy.linalg
    # package; whichever comes first, both hold the very same routines, so
    # no solve can differ from scipy.linalg.lapack's by a bit
    script = (
        f"import {first}\n"
        "import gapcert.spectral as spectral, scipy.linalg.lapack as lapack\n"
        "assert spectral._SYEVR is lapack.dsyevr\n"
        "assert spectral._HEEVR is lapack.zheevr\n"
        "assert spectral._FLAPACK.zheevr_lwork is lapack.zheevr_lwork\n"
        "print('ok')\n"
    )
    assert run_fresh(script) == "ok\n"


def test_a_missing_lapack_extension_fails_the_import_naming_the_directory(tmp_path):
    # a scipy package without its compiled LAPACK module
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "try:\n"
        "    import gapcert.spectral\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    out = run_fresh(script, str(tmp_path))
    assert out == f"no compiled scipy.linalg._flapack in {tmp_path / 'scipy' / 'linalg'}\n"


def test_the_refinement_calls_the_minimizer_a_tracer_binds_before_any_sweep(spec_file):
    # bound the way a span tracer binds it: look the original up on the
    # module, then rebind every module attribute that holds it
    script = (
        "import sys, gapcert.cli, gapcert.sweep as sweep\n"
        "original, calls = sweep.minimize_scalar, []\n"
        "def counting(*args, **kwargs):\n"
        "    calls.append(1)\n"
        "    return original(*args, **kwargs)\n"
        "for name, value in list(vars(sweep).items()):\n"
        "    if value is original:\n"
        "        setattr(sweep, name, counting)\n"
        "assert gapcert.cli.main(['sweep', sys.argv[1], '--format', 'structured']) == 0\n"
        "assert sweep.minimize_scalar is counting\n"
        "print(len(calls))\n"
    )
    out = run_fresh(script, spec_file(COUNTEREXAMPLE))
    assert "crossings.count = 1\n" in out
    assert int(out.splitlines()[-1]) >= 1


# ---------------------------------------------------------------------------
# one eigensolver


THREE_QUBIT_GAUGED = """\
qubits = 3
[Hi]
terms = 1.0 XII, 0.7 IXI, 0.4 IIX, -0.3 ZZI
[Hp]
diagonal = 0.0, 3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 7.0
"""

# a Y term keeps an imaginary entry in h_i: the complex chain
THREE_QUBIT_COMPLEX = """\
qubits = 3
[Hi]
terms = -0.6 XII, -0.8 YII, -0.7 IXI, -0.4 IIX, -0.3 ZZI
[Hp]
diagonal = 0.0, 3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 7.0
"""

THREE_QUBIT_HOPPING = """\
qubits = 3
[Hi]
terms = -0.5 XXI, -0.5 YYI, -0.5 IXX, -0.5 IYY, -0.5 XIX, -0.5 YIY
[Hp]
diagonal = 0.0, 3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 7.0
"""


def test_a_sign_gauge_keeps_a_real_instance_on_the_real_solver(run, tmp_path, complex_solves):
    path = str(tmp_path / "t.txt")
    code, _, err = run("case", "transverse-positive", "--n", "3", "--g", "0.7", "--out", path)
    assert code == 0, err
    with open(path, encoding="utf-8") as handle:
        instance = parse_instance(handle.read())
    h_i, gauge = instance.h_i_matrix(), certify(instance).gauge
    assert np.pi in gauge.phases  # a gauge of signs, not the identity
    assert gauge.rotate(h_i).dtype == np.float64
    del complex_solves[:]
    for command in ("certify", "verify-proof"):
        code, _, err = run(command, path)
        assert code == 0, (command, err)
    assert complex_solves and not any(complex_solves)


def test_every_eigenpair_comes_from_the_seam(run, spec_file, monkeypatch, complex_solves):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called outside spectral.lapack_pairs")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "eigh", forbidden)

    gauged = spec_file(THREE_QUBIT_GAUGED, "gauged.spec")
    complex_chain = spec_file(THREE_QUBIT_COMPLEX, "complex.spec")
    for argv in (
        ("certify", gauged),
        ("sweep", gauged, "--grid", "21"),
        ("estimate", gauged, "--grid", "21"),
        ("verify-proof", gauged, "--grid", "11"),
        ("blocks", spec_file(THREE_QUBIT_HOPPING, "hopping.spec")),
        ("certify", complex_chain),
        ("verify-proof", complex_chain, "--grid", "11"),
    ):
        del complex_solves[:]
        code, _, err = run(*argv)
        assert code == 0, (argv, err)
        # a real h_i stays on dsyevr throughout; the complex one's chain
        # runs on zheevr
        assert set(complex_solves) == {argv[1] == complex_chain}
    assert parse_instance(THREE_QUBIT_COMPLEX).h_i_matrix().entries.dtype == np.complex128
    instance = parse_instance(THREE_QUBIT_GAUGED)
    report = certify(instance)
    assert power_limit_projector(instance.h_i_matrix(), report.gauge).n_power >= 1
    assert eigensystem(instance.h_i_matrix()).eigenvalues.shape == (8,)


# ---------------------------------------------------------------------------
# failure handling


def test_missing_file_reports_error(run):
    code, _, err = run("certify", "/nonexistent/path.spec")
    assert code == 1
    assert err.startswith("error:")


def test_malformed_instance_reports_position(run, spec_file):
    path = spec_file("qubits = 2\n[Hi]\nterms = 1.0 QQ\n", "bad.spec")
    code, _, err = run("certify", path)
    assert code == 1
    assert "line 3" in err


COMMANDS = ("certify", "sweep", "estimate", "verify-proof", "blocks")


@pytest.mark.parametrize("command", COMMANDS)
def test_an_instance_that_would_overflow_is_refused_when_read(run, spec_file, solve_log, command):
    # every product of its entries overflows: one error line and no solve,
    # no warning and no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(command, spec_file(OVERFLOW))
    assert (code, out, solve_log) == (1, "", [])
    assert err.startswith("error: h_i and h_p have norm bound inf, above 1e+100: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_a_failed_solve_exits_with_one_error_line(run, spec_file, monkeypatch, command):
    # a LAPACK failure or a failed pair check, wherever the command solves
    calls = []

    def failing(h, m):
        calls.append(m)
        raise EigensolverError("dsyevr returned info = 1 with 0 of 2 pairs")

    patch_solver(monkeypatch, failing)
    code, out, err = run(command, spec_file(HOPPING))
    assert calls and (code, out) == (1, "")
    assert err == "error: dsyevr returned info = 1 with 0 of 2 pairs\n"


@pytest.mark.parametrize(
    "text", [STOQUASTIC, HOPPING, COUNTEREXAMPLE], ids=["stoquastic", "hopping", "counterexample"]
)
@pytest.mark.parametrize("command", COMMANDS)
def test_an_instance_scaled_to_1e10_keeps_its_exit_code(run, spec_file, command, text):
    # every residual and tolerance scales with the operator, so a scaled
    # instance solves and is judged as the original is
    code, _, err = run(command, spec_file(text))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled_code, _, scaled_err = run(command, spec_file(scaled(text, 1e10), "scaled.spec"))
    assert scaled_code == code
    assert scaled_err.startswith("error:") == err.startswith("error:")


def test_unknown_command_exits_one(run):
    code, _, err = run("frobnicate")
    assert code == 1
    assert "error:" in err


def test_bad_flag_value_exits_one(run, spec_file):
    code, _, err = run("sweep", spec_file(STOQUASTIC), "--grid", "NaNopts")
    assert code == 1
    assert "error:" in err
