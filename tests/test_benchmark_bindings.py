"""The benchmark instruments multinet by rebinding its functions by name, so
deleting or renaming one of them, or changing how it is called, breaks the
benchmark. This checks that every binding still resolves, that a tiny run
of each workload's calls still produces every per-layer metric, and that
the analysis workload's checkpoint is still the committed acceptance one."""

import ast
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


# Public functions that no code in src/multinet calls: the benchmark binds
# them by name, so they stay until it no longer does (ROADMAP item 1).
KEPT_FOR_BENCHMARK = {("nnops", "spp_pool"), ("tasks", "iou"), ("tensor", "add_rowvec"),
                      ("tensor", "sum_all")}


def test_every_public_name_has_a_caller_in_src(monkeypatch):
    # A name in a module's `__all__` must be read somewhere in the package:
    # as a name, an attribute or a `from` import. One that lost its last
    # caller fails here unless the benchmark still binds it.
    src = Path(__file__).resolve().parents[1] / "src" / "multinet"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    orphans = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                orphans |= {(module, name) for name in ast.literal_eval(node.value)
                            if name not in loaded}
    assert orphans == KEPT_FOR_BENCHMARK
    layers = _perfbench(monkeypatch, "layers")
    bound = {(mod.__name__.rsplit(".", 1)[-1], name)
             for table in (layers.SPANNED, layers.COUNTED) for mod, names in table.items()
             for name in names}
    assert KEPT_FOR_BENCHMARK <= bound
