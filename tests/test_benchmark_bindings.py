"""The benchmark instruments multinet by rebinding its functions by name, so
deleting or renaming one of them breaks the benchmark. This checks that
every binding still resolves, without running a workload, and that the
analysis workload's checkpoint is still the committed acceptance one."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_instrumentation_binds(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
    finally:
        tracer.restore()


def test_fixture_checkpoint_is_the_acceptance_checkpoint():
    # perfbench's analysis workload loads a copy of the committed update1
    # acceptance checkpoint; the two must not drift apart.
    fixture = PERFBENCH / "fixtures" / "update1_seed0.ckpt"
    cached = PERFBENCH.parent / "tests" / "_cache" / "bench_27af23a54b4faaee.ckpt"
    assert fixture.read_bytes() == cached.read_bytes()
