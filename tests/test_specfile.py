"""Tests for the line-oriented instance file format."""

import io

import numpy as np
import pytest

from gapcert.paulialg import (
    MAX_NORM_BOUND,
    MAX_QUBITS,
    DiagonalSpec,
    HermitianMatrix,
    PauliExpression,
    ProjectorSpec,
    build_diagonal,
)
from gapcert.specfile import (
    LINEAR,
    InstanceSpec,
    ParseError,
    ScheduleSpec,
    parse_instance,
    serialize_instance,
)

REFERENCE_TEXT = """\
# two-qubit instance whose rotated off-diagonals change sign
qubits = 2

[Hi]
terms = -2.0 XI, 1.0 IX, 1.0 IZ, -2.0 XX

[Hp]
diagonal = 0.0, 2.0, 6.0, 8.0

[schedule]
kind = linear
"""


def test_reference_instance_parses():
    spec = parse_instance(REFERENCE_TEXT)
    assert spec.n_qubits == 2
    assert isinstance(spec.h_i, PauliExpression)
    assert spec.h_i.terms == (
        (-2.0, spec.h_i.terms[0][1]),
        (1.0, spec.h_i.terms[1][1]),
        (1.0, spec.h_i.terms[2][1]),
        (-2.0, spec.h_i.terms[3][1]),
    )
    assert [t[1].axes for t in spec.h_i.terms] == ["XI", "IX", "IZ", "XX"]
    assert spec.h_p.values == (0.0, 2.0, 6.0, 8.0)
    assert spec.schedule is LINEAR or spec.schedule.kind == "linear"


def test_parse_accepts_file_objects():
    spec = parse_instance(io.StringIO(REFERENCE_TEXT))
    assert spec.n_qubits == 2


def test_schedule_section_optional_defaults_linear():
    text = "qubits = 1\n[Hi]\nterms = -1.0 X\n[Hp]\ndiagonal = 0.0, 1.0\n"
    spec = parse_instance(text)
    assert spec.schedule.kind == "linear"


def test_projector_uniform_and_diagonal_hi():
    text = "qubits = 2\n[Hi]\nprojector-uniform\n[Hp]\ndiagonal = 0, 1, 2, 3\n"
    spec = parse_instance(text)
    assert isinstance(spec.h_i, ProjectorSpec)
    assert spec.h_i.is_uniform()

    text = "qubits = 1\n[Hi]\ndiagonal = 2.0, -2.0\n[Hp]\ndiagonal = 0, 1\n"
    spec = parse_instance(text)
    assert isinstance(spec.h_i, DiagonalSpec)
    assert spec.h_i.values == (2.0, -2.0)


def test_costfn_table_sparse_with_default_zero():
    text = (
        "qubits = 2\n[Hi]\nterms = -1.0 XI, -1.0 IX\n[Hp]\ncostfn\n"
        "01 2.5\n11 -1.0\n"
    )
    spec = parse_instance(text)
    # index 1 = bitstring 01, index 3 = bitstring 11; the rest default to 0
    assert spec.h_p.values == (0.0, 2.5, 0.0, -1.0)


def test_costfn_duplicate_bitstring_rejected():
    text = "qubits = 1\n[Hi]\nterms = -1.0 X\n[Hp]\ncostfn\n0 1.0\n0 2.0\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "duplicate" in str(err.value)
    assert err.value.line == 7


def test_costfn_bad_bitstring_rejected():
    text = "qubits = 2\n[Hi]\nterms = -1.0 XI\n[Hp]\ncostfn\n012 1.0\n"
    with pytest.raises(ParseError):
        parse_instance(text)
    text = "qubits = 2\n[Hi]\nterms = -1.0 XI\n[Hp]\ncostfn\n02 1.0\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_hp_terms_key_rejected_with_diagonal_hint():
    text = "qubits = 1\n[Hi]\nterms = -1.0 X\n[Hp]\nterms = 1.0 Z\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "diagonal" in str(err.value)


def test_tabulated_schedule_parses_and_interpolates():
    text = (
        "qubits = 1\n[Hi]\nterms = -1.0 X\n[Hp]\ndiagonal = 0, 1\n"
        "[schedule]\nkind = tabulated\n"
        "sample = 0.0, 1.0, 0.0\n"
        "sample = 0.25, 0.9, 0.1\n"
        "sample = 1.0, 0.0, 1.0\n"
    )
    spec = parse_instance(text)
    assert spec.schedule.kind == "tabulated"
    a, b = spec.schedule.coefficients(np.array([0.0, 0.125, 0.25, 1.0]))
    assert np.allclose(a, [1.0, 0.95, 0.9, 0.0])
    assert np.allclose(b, [0.0, 0.05, 0.1, 1.0])


# ---------------------------------------------------------------------------
# error reporting with positions


def test_error_positions():
    cases = [
        ("qubits = x\n", 1),
        ("qubits = 2\n[Hx]\n", 2),
        ("qubits = 2\n[Hi]\nterms = 1.0 QQ\n", 3),
        ("qubits = 2\n[Hi]\nterms = 1.0 X\n", 3),  # wrong length
        ("qubits = 2\n[Hi]\nterms = -1.0 XI\n[Hp]\ndiagonal = 0, 1\n", 5),
        ("[Hi]\n", 1),  # section before qubit count
        # over MAX_QUBITS: rejected before anything of size 2**40 is built
        ("qubits = 40\n[Hi]\nprojector-uniform\n[Hp]\ncostfn\n", 1),
        ("qubits = 40\n[Hi]\nterms = none\n[Hp]\ncostfn\n", 1),
    ]
    for text, expected_line in cases:
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == expected_line, text


def test_qubit_limit_is_inclusive():
    spec = parse_instance(
        f"qubits = {MAX_QUBITS}\n[Hi]\nprojector-uniform\n[Hp]\ncostfn\n"
    )
    assert len(spec.h_p.values) == 1 << MAX_QUBITS


def test_error_column_points_into_csv_payload():
    text = "qubits = 2\n[Hi]\nterms = -1.0 XI, oops YY\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 3
    # the column lands on the offending item, past the first term
    assert err.value.column is not None and err.value.column > len("terms = -1.0 XI")


def test_missing_pieces_reported():
    with pytest.raises(ParseError, match="qubits"):
        parse_instance("")
    with pytest.raises(ParseError, match=r"\[Hi\]"):
        parse_instance("qubits = 1\n")
    with pytest.raises(ParseError, match=r"\[Hp\]"):
        parse_instance("qubits = 1\n[Hi]\nterms = -1.0 X\n")
    with pytest.raises(ParseError, match="no operator"):
        parse_instance("qubits = 1\n[Hi]\nterms = -1.0 X\n[Hp]\n")


def test_duplicate_section_and_operator_rejected():
    with pytest.raises(ParseError, match="duplicate section"):
        parse_instance(
            "qubits = 1\n[Hi]\nterms = -1.0 X\n[Hi]\nterms = -1.0 X\n"
        )
    with pytest.raises(ParseError, match="already has an operator"):
        parse_instance(
            "qubits = 1\n[Hi]\nterms = -1.0 X\ndiagonal = 0, 1\n"
            "[Hp]\ndiagonal = 0, 1\n"
        )


def test_schedule_validation_errors():
    base = "qubits = 1\n[Hi]\nterms = -1.0 X\n[Hp]\ndiagonal = 0, 1\n[schedule]\n"
    with pytest.raises(ParseError):
        parse_instance(base)  # section present but no kind
    with pytest.raises(ParseError):
        parse_instance(base + "kind = cubic\n")
    with pytest.raises((ParseError, ValueError)):
        parse_instance(
            base + "kind = tabulated\nsample = 0,1,0\nsample = 0.5,1.1,0.5\n"
            "sample = 1,0,1\n"
        )  # a exceeds 1 then decreases: not monotone into [0,1] endpoints


def test_schedule_spec_direct_validation():
    with pytest.raises(ValueError):
        ScheduleSpec("linear", samples=((0, 1, 0), (1, 0, 1)))
    with pytest.raises(ValueError):
        ScheduleSpec("tabulated", samples=((0, 1, 0),))
    with pytest.raises(ValueError):
        ScheduleSpec("tabulated", samples=((0, 1, 0), (0.5, 0.4, 0.6), (0.5, 0.2, 0.8), (1, 0, 1)))
    with pytest.raises(ValueError):
        ScheduleSpec("tabulated", samples=((0, 1, 0), (1, 0.1, 1)))  # a ends at 0.1
    good = ScheduleSpec("tabulated", samples=((0.0, 1.0, 0.0), (1.0, 0.0, 1.0)))
    a, b = good.coefficients(0.5)
    assert float(a) == 0.5 and float(b) == 0.5


# ---------------------------------------------------------------------------
# the norm-bound limit


@pytest.mark.parametrize(
    "h_i, hp_top",
    [
        # sum |c_k| over the terms, duplicates included, plus max |hp|
        (PauliExpression.from_terms(1, [(-4e99, "X"), (4e99, "X"), (-1e99, "Z")]), 1e99),
        (DiagonalSpec.from_values(1, [-9e99, 1.0]), 1e99),  # max |value|
        (ProjectorSpec.uniform(1), MAX_NORM_BOUND - 1.0),  # the projector counts 1
        (HermitianMatrix(np.array([[0.0, 4.5e99], [4.5e99, 0.0]])), 1e99),  # d * max |h_ij|
    ],
)
def test_an_instance_at_the_norm_bound_limit_is_accepted_and_one_above_refused(h_i, hp_top):
    assert InstanceSpec(1, h_i, DiagonalSpec.from_values(1, [0.0, -hp_top])).n_qubits == 1
    with pytest.raises(ValueError, match="norm bound .*, above 1e\\+100"):
        InstanceSpec(1, h_i, DiagonalSpec.from_values(1, [0.0, -2.0 * hp_top]))


def test_the_norm_bound_limit_is_a_parse_error():
    text = "qubits = 1\n[Hi]\nterms = 1e100 X\n[Hp]\ndiagonal = 0, 1e100\n"
    with pytest.raises(ParseError, match="^h_i and h_p have norm bound 2.000e\\+100, above"):
        parse_instance(text)


# ---------------------------------------------------------------------------
# serialization


def test_serialize_canonical_merges_and_sorts():
    expr = PauliExpression.from_terms(
        2, [(-2.0, "XX"), (0.5, "IX"), (0.5, "IX"), (1.0, "IZ"), (-2.0, "XI")]
    )
    spec = InstanceSpec(2, expr, DiagonalSpec.from_values(2, [0, 2, 6, 8]))
    text = serialize_instance(spec)
    assert "terms = 1.0 IX, 1.0 IZ, -2.0 XI, -2.0 XX" in text
    assert text.index("[Hi]") < text.index("[Hp]") < text.index("[schedule]")


def test_serialize_empty_expression_uses_none_keyword():
    spec = InstanceSpec(
        1, PauliExpression.from_terms(1, []), DiagonalSpec.from_values(1, [0, 1])
    )
    text = serialize_instance(spec)
    assert "terms = none" in text
    back = parse_instance(text)
    assert back.h_i.terms == ()


def test_serialize_rejects_inexpressible_operators():
    from gapcert.paulialg import HermitianMatrix

    h = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    spec = InstanceSpec(1, h, DiagonalSpec.from_values(1, [0, 1]))
    with pytest.raises(ValueError, match="no text form"):
        serialize_instance(spec)

    skew = ProjectorSpec(2, np.array([1.0, 1.0, 1.0, 0.0]) / np.sqrt(3))
    spec = InstanceSpec(2, skew, DiagonalSpec.from_values(2, [0, 1, 2, 3]))
    with pytest.raises(ValueError, match="uniform"):
        serialize_instance(spec)


def random_instance(rng) -> InstanceSpec:
    n = int(rng.integers(1, 5))
    d = 1 << n
    style = rng.integers(0, 3)
    if style == 0:
        axes_pool = sorted(
            {"".join(rng.choice(list("IXYZ")) for _ in range(n))
             for _ in range(rng.integers(1, 6))}
        )
        expr = PauliExpression.from_terms(
            n, [(float(rng.standard_normal()), a) for a in axes_pool]
        )
        h_i = expr
    elif style == 1:
        h_i = DiagonalSpec.from_values(n, rng.standard_normal(d))
    else:
        h_i = ProjectorSpec.uniform(n)
    h_p = DiagonalSpec.from_values(n, rng.uniform(0, 10, size=d))
    if rng.integers(0, 2):
        schedule = LINEAR
    else:
        k = int(rng.integers(2, 5))
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k - 2)), [1.0]])
        frac = np.linspace(0.0, 1.0, k)
        schedule = ScheduleSpec(
            "tabulated",
            tuple((float(t), float(1 - f), float(f)) for t, f in zip(ts, frac)),
        )
    return InstanceSpec(n, h_i, h_p, schedule)


def test_round_trip_is_exact_and_canonical():
    rng = np.random.default_rng(20240812)
    for _ in range(40):
        spec = random_instance(rng)
        text = serialize_instance(spec)
        back = parse_instance(text)
        assert back.n_qubits == spec.n_qubits
        assert back.h_p == spec.h_p
        assert back.schedule.kind == spec.schedule.kind
        if spec.schedule.kind == "tabulated":
            assert back.schedule.samples == spec.schedule.samples
        # serialization is a fixed point: text -> spec -> identical text
        assert serialize_instance(back) == text


def test_matrix_helpers_agree_with_builders():
    spec = parse_instance(REFERENCE_TEXT)
    h_i = spec.h_i_matrix().entries
    expected = np.array(
        [[1, 1, -2, -2], [1, -1, -2, -2], [-2, -2, 1, 1], [-2, -2, 1, -1]],
        dtype=complex,
    )
    assert np.array_equal(h_i, expected)
    assert np.array_equal(
        build_diagonal(spec.h_p).entries, np.diag([0.0, 2.0, 6.0, 8.0]).astype(complex)
    )
    # built once and kept read-only on the spec, outside its value
    assert spec.h_i_matrix() is spec.h_i_matrix()
    assert not h_i.flags.writeable
    assert spec == parse_instance(REFERENCE_TEXT)
