"""The benchmark instruments multinet by rebinding its functions by name, so
deleting or renaming one of them breaks the benchmark. This checks that
every binding still resolves, without running a workload."""

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
