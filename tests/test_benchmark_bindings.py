"""The benchmark instruments multinet by rebinding its functions by name, so
deleting or renaming one of them, or changing how it is called, breaks the
benchmark. This checks that every binding still resolves, that a tiny run
of each workload's calls still produces every per-layer metric, and that
the analysis workload's checkpoint is still the committed acceptance one."""

import importlib
import math
from pathlib import Path

from multinet import harness
from multinet.synthdata import SceneSpec, generate_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_benchmark_instrumentation_binds(monkeypatch):
    layers, spans = _perfbench(monkeypatch, "layers"), _perfbench(monkeypatch, "spans")
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
    finally:
        tracer.restore()


def test_instrumented_run_reports_every_layer_metric(monkeypatch):
    layers, spans = _perfbench(monkeypatch, "layers"), _perfbench(monkeypatch, "spans")
    spec = SceneSpec(canvas=32, max_object_side=20, objects_max=2, seed=6)
    scenes = generate_dataset(spec, 2)
    config = harness.RunConfig(mode="update1", iterations=1, epochs_phase1=1, epochs_phase2=0,
                               proposals=16, channels=8, cls_hidden=16, region_hidden=16,
                               spp_grid=3)
    tracer = spans.Tracer()
    layers.instrument(tracer)
    try:
        state = harness.train(config, spec, scenes)
        harness.evaluate_model(state.model, spec, scenes)
        harness.recurrence_sweep(state, spec, scenes, t_max=1)
    finally:
        tracer.restore()
    metrics = layers.layer_metrics(tracer)
    want = {name for name, _ in layers.PER_LAYER if not name.startswith("trace.")}
    assert set(metrics) == want
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    # max_pool2d and nms ran through their wrappers.
    assert metrics["nnops.max_pool2d.calls"] > 0 and metrics["tasks.nms.calls"] > 0


def test_fixture_checkpoint_is_the_acceptance_checkpoint():
    # perfbench's analysis workload loads a copy of the committed update1
    # acceptance checkpoint; the two must not drift apart.
    fixture = PERFBENCH / "fixtures" / "update1_seed0.ckpt"
    cached = PERFBENCH.parent / "tests" / "_cache" / "bench_27af23a54b4faaee.ckpt"
    assert fixture.read_bytes() == cached.read_bytes()
