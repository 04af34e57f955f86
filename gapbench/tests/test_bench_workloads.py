import numpy as np
import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_new_seed_changes_instances_not_operations(name, tmp_path):
    a = workloads.build_workload(name, 1, str(tmp_path / "a"))
    b = workloads.build_workload(name, 2, str(tmp_path / "b"))
    again = workloads.build_workload(name, 1, str(tmp_path / "c"))
    assert len(a.ops) == len(b.ops) > 0
    assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
    assert [i.text() for i in a.instances] == [i.text() for i in again.instances]
    assert [i.text() for i in a.instances] != [i.text() for i in b.instances]
    for inst in a.instances:
        with open(inst.path, encoding="utf-8") as handle:
            assert handle.read() == inst.text()


def test_passes_draw_fresh_instances(tmp_path):
    first = workloads.build_workload("dense_sweep", 1, str(tmp_path / "0"), pass_index=0)
    second = workloads.build_workload("dense_sweep", 1, str(tmp_path / "1"), pass_index=1)
    assert len(first.ops) == len(second.ops)
    assert first.instances[0].text() != second.instances[0].text()


def test_reference_matches_gapcert_operators(tmp_path):
    from gapcert import parse_instance

    for name in workloads.WORKLOADS:
        for inst in workloads.build_workload(name, 3, str(tmp_path / name), tiny=True).instances:
            with open(inst.path, encoding="utf-8") as handle:
                parsed = parse_instance(handle)
            assert np.allclose(parsed.h_i_matrix().entries, inst.h_i_reference(), atol=1e-12)
            assert np.array_equal(np.array(parsed.h_p.values), inst.hp)
            assert parsed.schedule.samples == inst.schedule


def test_schedules_are_monotone_and_interior_positive(tmp_path):
    instances = workloads.build_workload("small_corpus", 5, str(tmp_path)).instances
    scheduled = [inst for inst in instances if inst.schedule is not None]
    assert len(scheduled) == 15  # one twin per certified instance
    for inst in scheduled:
        ts, a, b = (np.array(c) for c in zip(*inst.schedule))
        assert ts[0] == 0.0 and ts[-1] == 1.0 and np.all(np.diff(ts) > 0)
        assert a[0] == 1.0 and a[-1] == 0.0 and np.all(np.diff(a) < 0)
        assert b[0] == 0.0 and b[-1] == 1.0 and np.all(np.diff(b) > 0)
