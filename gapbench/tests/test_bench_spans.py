import io
import contextlib

import pytest

import spans


def span(sid, start, end, parent, op=0, name="x.f"):
    return spans.Span(sid, name, start, end, parent, op)


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        span(0, 0.0, 10.0, None, name="cli.main"),
        span(1, 1.0, 4.0, 0, name="sweep.sweep_pair"),
        span(2, 2.0, 3.0, 1, name="spectral.eigensystem"),
        span(3, 5.0, 9.0, 0, name="certifier.certify"),
        span(4, 5.5, 6.0, 3, name="spectral.eigensystem"),
        span(5, 6.0, 7.5, 3, name="spectral.eigensystem"),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 0.5, 5: 1.5}
    by_name, by_layer, defects = spans.summarize(tree)
    assert by_name["spectral.eigensystem.calls"] == 3
    assert by_name["spectral.eigensystem.self_s"] == 3.0
    assert by_layer == {"cli": 3.0, "sweep": 2.0, "spectral": 3.0, "certifier": 2.0}
    assert sum(by_layer.values()) == 10.0
    assert defects == {0: 0.0}


def test_overlapping_and_overhanging_children_count_once():
    tree = [
        span(0, 0.0, 10.0, None),
        span(1, 2.0, 6.0, 0),
        span(2, 4.0, 8.0, 0),  # overlaps the first child
        span(3, 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_install_traces_every_namespace_and_restores(tmp_path):
    import gapcert
    import gapcert.cli
    import gapcert.spectral
    import gapcert.sweep

    import workloads

    instance = workloads.build_workload("small_corpus", 1, str(tmp_path), tiny=True).instances[0]
    originals = (gapcert.sweep.low_spectrum, gapcert.spectral.eigensystem, gapcert.cli.main)
    tracer = spans.Tracer()
    restore = spans.install(tracer, gapcert)
    try:
        assert gapcert.sweep.low_spectrum is gapcert.spectral.low_spectrum
        assert gapcert.sweep.low_spectrum is not originals[0]
        tracer.op = 7
        with contextlib.redirect_stdout(io.StringIO()):
            code = gapcert.cli.main(["sweep", instance.path, "--grid", "11", "--format", "text"])
        assert code == 0
    finally:
        restore()
    assert (gapcert.sweep.low_spectrum, gapcert.spectral.eigensystem, gapcert.cli.main) == originals

    by_id = {s.sid: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    solves = [s for s in tracer.spans if s.name == "spectral.eigensystem"]
    assert len(solves) >= 11
    assert {by_id[s.parent].name for s in solves} == {"spectral.low_spectrum"}
    assert {s.op for s in tracer.spans} == {7}
    by_name, by_layer, defects = spans.summarize(tracer.spans)
    assert by_name["sweep.refine.calls"] >= 1
    assert tracer.counts["sweep.refine.evals"] > 0
    assert defects[7] < 1e-9
    assert sum(by_layer.values()) == pytest.approx(roots[0].end - roots[0].start, rel=1e-12)
