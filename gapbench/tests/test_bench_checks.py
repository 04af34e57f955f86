import dataclasses

import pytest

import run
import workloads


def _records(name, tmp_path):
    gapcert = run.load_gapcert()
    workload = workloads.build_workload(name, 4, str(tmp_path), tiny=True)
    return [(0, False, op, run.run_op(gapcert.cli, op)) for op in workload.ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untouched_outputs_pass_the_gate(name, tmp_path):
    records = _records(name, tmp_path)
    failures, digests = run.gate(records)
    assert failures == []
    assert len(digests) == len(records)


def _corrupt(result, field, old, new):
    text = getattr(result, field)
    assert old in text
    return dataclasses.replace(result, **{field: text.replace(old, new, 1)})


@pytest.mark.parametrize(
    "name, kind, field, old, new",
    [
        ("small_corpus", "sweep", "stdout", "crossings.count = 0", "crossings.count = 2"),
        ("small_corpus", "certify", "stdout", ": pass", ": fail"),
        ("small_corpus", "verify-proof", "stdout", "all checks passed", "all checks done"),
        ("small_corpus", "blocks", "stdout", "verdict certified", "verdict not_certified"),
        ("dense_sweep", "sweep", "out_text", "\n0,", "\n0,1"),
        ("small_corpus", "estimate", "stdout", "worst_ratio = ", "worst_ratio = -"),
    ],
)
def test_corrupted_output_is_a_failed_operation(name, kind, field, old, new, tmp_path):
    records = _records(name, tmp_path)
    k = next(i for i, (_, _, op, _) in enumerate(records) if op.kind == kind)
    index, traced, op, result = records[k]
    records[k] = (index, traced, op, _corrupt(result, field, old, new))
    failures, _ = run.gate(records)
    assert [f["op"] for f in failures] == [op.label]


def test_wrong_exit_code_and_crash_are_failures(tmp_path):
    records = _records("small_corpus", tmp_path)
    index, traced, op, result = records[0]
    records[0] = (index, traced, op, dataclasses.replace(result, code=1))
    index, traced, op2, result = records[1]
    records[1] = (index, traced, op2, dataclasses.replace(result, error="RuntimeError: boom"))
    failures, _ = run.gate(records)
    assert [f["op"] for f in failures] == [op.label, op2.label]
    assert "boom" in failures[1]["reason"]


def test_dense_levels_are_held_to_the_reference(tmp_path):
    records = _records("dense_sweep", tmp_path)
    k = next(i for i, (_, _, op, _) in enumerate(records) if op.kind == "sweep")
    index, traced, op, result = records[k]
    lines = result.out_text.splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-7))  # eps2 off by 1e-7 relative
    lines[1] = ",".join(fields)
    records[k] = (index, traced, op, dataclasses.replace(result, out_text="\n".join(lines) + "\n"))
    failures, _ = run.gate(records)
    assert len(failures) == 1
    assert "reference" in failures[0]["reason"]


def test_estimate_refusal_needs_a_reference_closing(tmp_path):
    records = _records("small_corpus", tmp_path)
    k = next(i for i, (_, _, op, _) in enumerate(records) if op.kind == "estimate")
    index, traced, op, result = records[k]
    refused = dataclasses.replace(
        result, code=1, stdout="",
        stderr="error: profile contains gap closings; the adiabatic ratio is undefined\n",
    )
    records[k] = (index, traced, op, refused)
    failures, _ = run.gate(records)
    assert [f["op"] for f in failures] == [op.label]
    assert "reference minimum gap" in failures[0]["reason"]


def test_dense_crossing_needs_a_reference_closing(tmp_path):
    records = _records("dense_sweep", tmp_path)
    k = next(i for i, (_, _, op, _) in enumerate(records) if op.kind == "sweep")
    index, traced, op, result = records[k]
    claimed = _corrupt(result, "stdout", "crossings = 0", "crossings = 1")
    records[k] = (index, traced, op, claimed)
    failures, _ = run.gate(records)
    assert [f["op"] for f in failures] == [op.label]
    assert "reference minimum gap" in failures[0]["reason"]


def test_certified_crossing_needs_a_reference_closing(tmp_path):
    records = _records("small_corpus", tmp_path)
    k = next(
        i for i, (_, _, op, _) in enumerate(records)
        if op.kind == "sweep" and op.instance.certified
    )
    index, traced, op, result = records[k]
    claimed = _corrupt(
        result, "stdout", "crossings.count = 0",
        "crossings.count = 1\ncrossings.0 = 0.4 0.6 0.5 1e-09",
    )
    records[k] = (index, traced, op, claimed)
    failures, _ = run.gate(records)
    assert [f["op"] for f in failures] == [op.label]
    assert "reference gap" in failures[0]["reason"]


def test_sub_tolerance_gap_on_a_certified_instance_passes(tmp_path):
    # Seed 352785330, pass 16: a certified n = 6 bit_rotation instance whose
    # true gap (2.2e-8 near s = 0.972) is below the CLI's crossing
    # tolerance, so the CLI reports one crossing.
    gapcert = run.load_gapcert()
    workload = workloads.build_workload("small_corpus", 352785330, str(tmp_path), pass_index=16)
    op = next(o for o in workload.ops if o.label == "sweep:p16-bit_rotation-n6")
    result = run.run_op(gapcert.cli, op)
    assert "crossings.count = 1" in result.stdout
    failures, _ = run.gate([(16, False, op, result)])
    assert failures == []
