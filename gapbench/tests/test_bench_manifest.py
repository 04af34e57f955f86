import json
import os

import run
import workloads

MANIFEST = os.path.join(run.ROOT, "BENCHMARK.json")


def test_manifest_matches_the_metrics_run_prints():
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
