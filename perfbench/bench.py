"""Workloads, correctness checks and metrics of the multinet benchmark.

Each workload is one closed loop with one caller: a scene starts only after
the previous one has returned. The scenes come from `SceneSpec(seed=<seed>)`
and are the only input the program sees. Untraced runs repeat the timed
call until the time budget is spent and report medians; traced runs make
a warm-up, a traced and an untraced repeat and report per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from multinet import harness, synthdata
from multinet.tensor import TensorError

import layers
from spans import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

# Trained update1 model (seed 0, 6 epochs on SceneSpec(seed=100) scenes
# 0..499), copied byte for byte from the acceptance cache.
FIXTURE = HERE / "fixtures" / "update1_seed0.ckpt"
FIXTURE_SHA256 = "0c38f505d3f197c434114f473f66e3ccf15407ef21ff541e9e01012ec85b0070"

TRAIN_SCENES = 8
TRAIN_EPOCHS = 2
TRAIN_LR = 3e-3  # the fixture's phase-1 rate, held fixed
ANALYZE_SCENES = 8
HELD_OUT_OFFSET = 10_000  # past every scene index the fixture trained on
SWEEP_T_MAX = 4
SETUP_REPEATS = 5

# (name, unit) of the end-to-end metrics every untraced run reports.
END_TO_END = (("setup_s", "s"), ("scenes_per_s", "1/s"), ("peak_rss_mb", "MB"))


class Calibration:
    """A fixed kernel timed around every repeat and set-up: the two memory
    access patterns that dominate multinet, a region-pooling gather with an
    argmax over a 4 MB array and an im2col gather, product and scatter. The
    host's speed drifts by tens of percent within a minute, mostly in
    memory-bound work; scaling each time by `NOMINAL_S / kernel time`
    removes most of that drift, while a change to multinet moves the repeat
    and not the kernel."""

    NOMINAL_S = 0.07

    def __init__(self):
        rng = np.random.default_rng(0)
        self.fmap = rng.standard_normal((8, 8, 54))
        self.rows = rng.integers(0, 8, (64, 6, 2))[:, :, :, None, None]
        self.cols = rng.integers(0, 8, (64, 6, 2))[:, None, None, :, :]
        self.image = rng.standard_normal(66 * 66 * 3)
        self.patches = rng.integers(0, self.image.size, (4096, 27))
        self.filters = rng.standard_normal((27, 16))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            cand = self.fmap[self.rows, self.cols]  # (64, 6, 2, 6, 2, 54)
            cand.transpose(0, 1, 3, 2, 4, 5).reshape(64, 6, 6, 4, 54).argmax(axis=3)
        for _ in range(40):
            cols = self.image[self.patches]
            (cols @ self.filters).sum()
            np.bincount(self.patches.ravel(), weights=cols.ravel(), minlength=self.image.size)
        return time.perf_counter() - t0


@dataclass
class Repeat:
    """One pass of a workload's timed calls."""

    seconds: float
    scene_passes: int  # scenes processed (train: epochs x scenes)
    attempted: int
    failed: int
    quality: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)  # wall seconds per timed call
    problems: list = field(default_factory=list)
    host_s: float = Calibration.NOMINAL_S  # calibration time around the repeat

    @property
    def speed(self) -> float:
        """Host calibration factor: above 1 when the host ran fast."""
        return Calibration.NOMINAL_S / self.host_s

    def rate(self, seconds=None) -> float:
        """Calibrated scene passes per second of `seconds` (default: all
        timed calls)."""
        return self.scene_passes / ((self.seconds if seconds is None else seconds) * self.speed)


class TrainWorkload:
    """`harness.train` from a fresh init at a fixed learning rate."""

    def __init__(self, mode: str, scenes: int = TRAIN_SCENES, epochs: int = TRAIN_EPOCHS):
        self.mode = mode
        self.n_scenes = scenes
        self.epochs = epochs

    def setup(self, seed: int):
        spec = synthdata.SceneSpec(seed=seed)
        return spec, synthdata.generate_dataset(spec, self.n_scenes)

    def run(self, ctx) -> Repeat:
        spec, scenes = ctx
        config = harness.RunConfig(
            mode=self.mode, iterations=2, proposals=64, seed=0,
            lr_phase1=TRAIN_LR, epochs_phase1=self.epochs, epochs_phase2=0,
        )
        steps = self.epochs * len(scenes)
        t0 = time.perf_counter()
        try:
            state = harness.train(config, spec, scenes)
        except harness.TrainingError as e:
            return Repeat(time.perf_counter() - t0, steps, steps, steps, problems=[str(e)])
        dt = time.perf_counter() - t0
        history = state.history
        problems = []
        if not all(np.isfinite(history)):
            problems.append(f"non-finite epoch loss in {history}")
        elif not history[-1] < history[0]:
            problems.append(f"last epoch loss {history[-1]} not below first {history[0]}")
        return Repeat(dt, steps, steps, steps if problems else 0,
                      quality={"train_final_loss": history[-1]}, problems=problems)

    def report(self, repeats) -> dict:
        return {"train_scenes_per_s": (statistics.median(r.rate() for r in repeats), "1/s"),
                "train_final_loss": (repeats[-1].quality.get("train_final_loss"), "loss")}


class AnalyzeWorkload:
    """`harness.evaluate_model` then `harness.recurrence_sweep` of the
    trained fixture on held-out scenes, without a tape."""

    def __init__(self, scenes: int = ANALYZE_SCENES, t_max: int = SWEEP_T_MAX):
        self.n_scenes = scenes
        self.t_max = t_max

    def setup(self, seed: int):
        digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
        if digest != FIXTURE_SHA256:
            raise RuntimeError(f"fixture {FIXTURE.name} has SHA-256 {digest}, expected {FIXTURE_SHA256}")
        state = harness.restore_model(harness.load_checkpoint(FIXTURE))
        spec = synthdata.SceneSpec(seed=seed)
        return state, spec, synthdata.generate_dataset(spec, self.n_scenes, offset=HELD_OUT_OFFSET)

    def run(self, ctx) -> Repeat:
        state, spec, scenes = ctx
        n = len(scenes)
        attempted = n * (self.t_max + 2)  # one eval pass plus t_max + 1 sweep passes
        t0 = time.perf_counter()
        try:
            metrics = harness.evaluate_model(state.model, spec, scenes)
            t1 = time.perf_counter()
            rows = harness.recurrence_sweep(state, spec, scenes, t_max=self.t_max)
        except (TensorError, ValueError) as e:
            return Repeat(time.perf_counter() - t0, n, attempted, attempted, problems=[str(e)])
        t2 = time.perf_counter()
        keys = ("det_ap", "part_ap", "cls_map")
        problems = []
        for row in [metrics] + rows:
            for k in keys:
                if not 0.0 <= row[k] <= 1.0:
                    problems.append(f"{k} = {row[k]} outside [0, 1] (t = {row.get('t', 'eval')})")
        t_model = state.model.cfg.t
        if t_model <= self.t_max and any(rows[t_model][k] != metrics[k] for k in keys):
            problems.append(f"sweep row t = {t_model} differs from evaluate_model: "
                            f"{rows[t_model]} vs { {k: metrics[k] for k in keys} }")
        return Repeat(t2 - t0, n, attempted, attempted if problems else 0,
                      quality={k: metrics[k] for k in keys},
                      phases={"eval": t1 - t0, "sweep": t2 - t1}, problems=problems)

    def report(self, repeats) -> dict:
        timed = [r for r in repeats if r.phases]
        q = repeats[-1].quality
        return {
            "eval_scenes_per_s": (statistics.median(r.rate(r.phases["eval"]) for r in timed), "1/s"),
            "sweep_scenes_per_s": (statistics.median(r.rate(r.phases["sweep"]) for r in timed), "1/s"),
            "det_ap": (q.get("det_ap"), "AP"),
            "part_ap": (q.get("part_ap"), "AP"),
            "cls_map": (q.get("cls_map"), "AP"),
        }


WORKLOADS = {
    "train-update1": lambda: TrainWorkload("update1"),
    "train-shared": lambda: TrainWorkload("shared"),
    "analyze-update1": lambda: AnalyzeWorkload(),
}


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _consistency(repeats) -> list:
    """Deterministic outputs must not differ between repeats of one run."""
    first = repeats[0].quality
    return [f"repeat {i} quality {r.quality} differs from repeat 0 {first}"
            for i, r in enumerate(repeats[1:], 1) if r.quality and first and r.quality != first]


def _calibrated_run(wl, ctx, cal: Calibration) -> Repeat:
    before = cal.seconds()
    r = wl.run(ctx)
    r.host_s = 0.5 * (before + cal.seconds())
    return r


def _outcome(repeats, blame: Repeat):
    """(problems, attempted, failed) over all repeats; a run-level problem
    with no failed repeat fails `blame`'s operations."""
    problems = [p for r in repeats for p in r.problems] + _consistency(repeats)
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    if problems and not failed:
        failed = blame.attempted
    return problems, attempted, failed


def measure(name: str, seed: int, seconds: float, t_start: float, t_imported: float):
    """Untraced run: returns (result, report)."""
    cal = Calibration()
    wl = WORKLOADS[name]()
    ctx = wl.setup(seed)
    # The first set-up counts from the runner's first statement, so it
    # includes the imports; later ones add the same import time.
    setups = [(time.perf_counter() - t_start, cal.seconds())]
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        wl.setup(seed)
        setups.append(((t_imported - t_start) + time.perf_counter() - t0, cal.seconds()))

    repeats = []
    t_begin = time.perf_counter()
    while True:
        repeats.append(_calibrated_run(wl, ctx, cal))
        if time.perf_counter() - t_begin + repeats[-1].seconds > seconds:
            break

    problems, attempted, failed = _outcome(repeats, repeats[-1])
    metrics = {
        "setup_s": statistics.median(t * Calibration.NOMINAL_S / c for t, c in setups),
        "scenes_per_s": statistics.median(r.rate() for r in repeats),
        "peak_rss_mb": peak_rss_mb(),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
    }
    report_metrics = {"setup_s": (metrics["setup_s"], "s")}
    report_metrics.update(wl.report(repeats))
    report_metrics["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    report_metrics["ops_failed_frac"] = (failed / attempted, "ratio")
    report = {
        "workload": name,
        "seed": seed,
        "scenes": wl.n_scenes,
        "repeats": len(repeats),
        "ops_attempted": attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report_metrics.items()},
        "wall_setup_s": statistics.median(t for t, _ in setups),
        "wall_scenes_per_s": statistics.median(r.scene_passes / r.seconds for r in repeats),
        "host_speed": statistics.median(r.speed for r in repeats),
        "scenes_per_s_repeats": [r.rate() for r in repeats],
        "problems": problems,
    }
    return result, report


def traced(name: str, seed: int, write_spans: bool = True, workload=None):
    """Traced run: warm-up, traced repeat, untraced repeat. Returns
    (result, report, tracer)."""
    cal = Calibration()
    wl = workload or WORKLOADS[name]()
    warm = wl.run(wl.setup(seed))

    tracer = Tracer()
    layers.instrument(tracer)
    try:
        ctx = wl.setup(seed)
        traced_rep = _calibrated_run(wl, ctx, cal)
    finally:
        tracer.restore()
    plain = _calibrated_run(wl, wl.setup(seed), cal)

    problems, attempted, failed = _outcome([warm, traced_rep, plain], traced_rep)
    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = plain.rate() / traced_rep.rate() - 1.0
    metrics["trace.scenes_per_s_delta"] = traced_rep.rate() - plain.rate()
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in layers.PER_LAYER},
    }
    report = {
        "workload": name,
        "seed": seed,
        "traced_quality": traced_rep.quality,
        "untraced_quality": plain.quality,
        "scenes_per_s": {"traced": traced_rep.rate(), "untraced": plain.rate()},
        "spans": len(tracer.names),
        "problems": problems,
    }
    if write_spans:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(path)
        report["spans_file"] = str(path.relative_to(HERE.parent))
    return result, report, tracer


def main(args, t_start: float, t_imported: float, blas_threads: int) -> int:
    print(json.dumps({"env": environment(blas_threads)}))
    if args.trace:
        result, report, _ = traced(args.workload, args.seed)
    else:
        result, report = measure(args.workload, args.seed, args.seconds, t_start, t_imported)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0
