"""The benchmark instruments multinet by rebinding its functions by name, so
deleting or renaming one of them, or changing how it is called, breaks the
benchmark. This checks that every binding still resolves, that a tiny run
of each workload's calls still produces every per-layer metric, and that
the analysis workload's checkpoint is still the committed acceptance one."""

import ast
import importlib
import math
import shutil
from pathlib import Path

from multinet import harness, tasks
from multinet.synthdata import SceneSpec, generate_dataset

from test_tasks import Prediction, scalar_detections

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
    scored = []
    score_scene = tasks.score_scene

    def recorded(cls_scores, regions, proposals, scene, canvas):
        for o, cls in enumerate(cls_scores):
            unstacked = {task: (s[o], d[o]) for task, (s, d) in regions.items()}
            scored.append((Prediction(cls, unstacked, proposals), canvas))
        return score_scene(cls_scores, regions, proposals, scene, canvas)

    monkeypatch.setattr(tasks, "score_scene", recorded)
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
    # The nms hook counts boxes considered and kept: its kept fraction is
    # what the scalar loop keeps of every class of every scored output.
    kept = considered = 0
    for pred, canvas in scored:
        for task, (scores, _) in pred.regions.items():
            kept += sum(map(len, scalar_detections([pred], task, canvas).values()))
            considered += (scores.shape[1] - 1) * len(pred.proposals)
    assert 0 < kept < considered
    assert metrics["tasks.nms.kept_frac"] == kept / considered


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


SRC = PERFBENCH.parent / "src" / "multinet"


def _orphans(src: Path) -> set:
    """(module, name) of each `__all__` name that no code in the package at
    `src` reads. A name defined in `mod` is read as a bare name inside
    `mod`, as a bare name bound by `from .mod import name`, or as `mod.name`
    where `mod` is bound by `from . import mod`. A name that a module
    imports, re-exports included, stands for the binding it imports."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    imported, modules = {}, {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[module, local] = alias.name
                    else:
                        imported[module, local] = (node.module, alias.name)

    def binding(module, name):
        while (module, name) in imported:
            module, name = imported[module, name]
        return module, name

    loaded = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(binding(module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and (module, node.value.id) in modules):
                loaded.add(binding(modules[module, node.value.id], node.attr))
    orphans = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                orphans |= {binding(module, name) for name in ast.literal_eval(node.value)
                            } - loaded
    return orphans


def test_every_public_name_has_a_caller_in_src(monkeypatch):
    # A name in a module's `__all__` must be read somewhere in the package.
    # One that lost its last caller fails here unless the benchmark still
    # binds it.
    assert _orphans(SRC) == KEPT_FOR_BENCHMARK
    layers = _perfbench(monkeypatch, "layers")
    bound = {(mod.__name__.rsplit(".", 1)[-1], name)
             for table in (layers.SPANNED, layers.COUNTED) for mod, names in table.items()
             for name in names}
    assert KEPT_FOR_BENCHMARK <= bound


def test_orphan_guard_matches_bindings_not_names(tmp_path):
    # `synthdata.read_dataset` has a local `orphan`; a public `tasks.orphan`
    # that nothing calls is an orphan all the same.
    src = tmp_path / "multinet"
    shutil.copytree(SRC, src)
    tasks = src / "tasks.py"
    text = tasks.read_text().replace("__all__ = [", '__all__ = [\n    "orphan",', 1)
    tasks.write_text(text + "\n\ndef orphan():\n    return None\n")
    assert "orphan" in (SRC / "synthdata.py").read_text()
    assert _orphans(src) == KEPT_FOR_BENCHMARK | {("tasks", "orphan")}
