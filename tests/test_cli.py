"""End-to-end tests of the command line, run in-process through main()."""

import numpy as np
import pytest
import scipy.linalg

from gapcert import paulialg
from gapcert.certifier import certify
from gapcert.cli import main
from gapcert.perron import power_limit_projector
from gapcert.specfile import parse_instance
from gapcert.spectral import eigensystem

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


# ---------------------------------------------------------------------------
# one eigensolver


THREE_QUBIT_GAUGED = """\
qubits = 3
[Hi]
terms = 1.0 XII, 0.7 IXI, 0.4 IIX, -0.3 ZZI
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


def test_every_eigenpair_comes_from_the_seam(run, spec_file, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called outside spectral.low_spectrum")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "eigh", forbidden)

    gauged = spec_file(THREE_QUBIT_GAUGED, "gauged.spec")
    for argv in (
        ("certify", gauged),
        ("sweep", gauged, "--grid", "21"),
        ("estimate", gauged, "--grid", "21"),
        ("verify-proof", gauged, "--grid", "11"),
        ("blocks", spec_file(THREE_QUBIT_HOPPING, "hopping.spec")),
    ):
        code, _, err = run(*argv)
        assert code == 0, (argv, err)
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


def test_unknown_command_exits_one(run):
    code, _, err = run("frobnicate")
    assert code == 1
    assert "error:" in err


def test_bad_flag_value_exits_one(run, spec_file):
    code, _, err = run("sweep", spec_file(STOQUASTIC), "--grid", "NaNopts")
    assert code == 1
    assert "error:" in err
