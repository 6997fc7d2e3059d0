"""A tiny-size pass of each workload through the whole benchmark loop."""

import json
from pathlib import Path

import pytest

import bench
from workloads import WORKLOADS

# Small enough to finish in seconds; calibrate's growth pass at a quarter of
# this still has enough phase steps to track edges.
TINY = {"calibrate": 128, "correct": 16, "ring": 40}
ROOT = Path(__file__).resolve().parents[2]


def _tiny_digests(workload, tmp_path):
    cfg = workload.write_configs(tmp_path / "record")
    op = bench.run_op(workload, cfg, tmp_path / "record-op", 0, {})
    assert op.failures == [f"digest {op.digest} != recorded None"]
    return {0: op.digest}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace, tmp_path):
    workload = WORKLOADS[name].resized(TINY[name])
    digests = _tiny_digests(workload, tmp_path)
    result, record = bench.run(workload, 5, 0.01, trace, tmp_path / "work", digests,
                               tmp_path / "spans.csv" if trace else None)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    json.dumps(result)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0.9 < m["trace.accounted_share"] <= 1.0
        assert m["chain.capture.calls"] == workload.frames_per_op
        assert m["storage.manifest_rerun_identical"] == 0  # created_utc differs
        assert (tmp_path / "spans.csv").read_text().startswith("name,")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / "work").exists()


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()}
