"""Self-tests of the benchmark, on reduced scene counts.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SMALL = {
    "train-update1": lambda: bench.TrainWorkload("update1", scenes=2, epochs=2),
    "train-shared": lambda: bench.TrainWorkload("shared", scenes=2, epochs=2),
    "analyze-update1": lambda: bench.AnalyzeWorkload(scenes=2),
}

# Per-layer metrics derived from counts only, which must repeat exactly.
COUNT_UNITS = ("count", "count/step", "MB_computed", "MB")
COUNT_RATIOS = (
    "nnops.spp_pool_regions.repeat_frac",
    "tasks.nms.kept_frac",
    "harness.recurrence_sweep.forwards",
)


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload on the same seed."""
    return {
        name: [bench.traced(name, 3, write_spans=False, workload=make()) for _ in range(2)]
        for name, make in SMALL.items()
    }


def _deterministic(result):
    return {
        k: v["value"]
        for k, v in result["metrics"].items()
        if v["unit"] in COUNT_UNITS or k in COUNT_RATIOS
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_repeats_counts_and_quality(traced_runs, name):
    (r1, rep1, _), (r2, rep2, _) = traced_runs[name]
    assert r1["correct"] and r2["correct"], (rep1["problems"], rep2["problems"])
    assert _deterministic(r1) == _deterministic(r2)
    assert rep1["untraced_quality"] == rep2["untraced_quality"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_quality_unchanged(traced_runs, name):
    _result, report, _ = traced_runs[name][0]
    assert report["traced_quality"], "quality metrics missing"
    assert report["traced_quality"] == report["untraced_quality"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_different_seed_gives_different_scenes(name):
    wl = SMALL[name]()
    a, b = wl.setup(1)[-1], wl.setup(2)[-1]
    assert len(a) == len(b) == wl.n_scenes
    assert not any(np.array_equal(sa.image, sb.image) for sa, sb in zip(a, b))


def test_self_times_add_up_to_a_training_step(traced_runs):
    _result, _report, tracer = traced_runs["train-update1"][0]
    dur, self_t, _ = tracer.arrays()
    starts, ends = np.asarray(tracer.starts), np.asarray(tracer.ends)
    steps = layers.train_steps(tracer)
    assert len(steps) == 4  # 2 scenes x 2 epochs

    i = tracer.names.index("harness.scene_loss")
    j = tracer.names.index("tensor.sgd_step", i)
    inside = np.nonzero((starts >= starts[i]) & (ends <= ends[j]))[0]
    per_layer = {}
    for k in inside:
        name = tracer.names[k]
        layer = "tape-op-backward" if name.startswith("bwd:") else name.split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + self_t[k]
    step = ends[j] - starts[i]
    unattributed = step - sum(per_layer.values())
    print(f"step {step * 1e3:.3f} ms, unattributed {unattributed * 1e6:.1f} us, by layer (ms):",
          {k: round(float(v) * 1e3, 3) for k, v in per_layer.items()})
    assert {"harness", "model", "nnops", "tensor", "tasks", "tape-op-backward"} <= set(per_layer)
    assert math.isclose(steps[0][0], step) and math.isclose(steps[0][1], step - unattributed)
    assert 0.0 <= unattributed < 0.05 * step


def test_layer_expectations(traced_runs):
    def metric(name, key):
        return traced_runs[name][0][0]["metrics"][key]["value"]

    assert metric("train-update1", "nnops.spp_pool_regions.repeat_frac") > 0
    assert metric("train-shared", "model.encode_det.calls") == 0
    assert metric("analyze-update1", "tensor.sgd_step.ms") == 0
    assert metric("analyze-update1", "harness.recurrence_sweep.forwards") == 3.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_runner_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-shared", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
