"""Line trace of the traffic `src/multinet` serves: the statements that no
benchmark workload and no CLI command runs.

Run from the repository root; pytest does not collect this file:

    python tests/traffic.py

Under the stdlib `trace` module, counting lines only, it runs:
- the calls of the three workloads of `perfbench/bench.py`, through its own
  workload classes on small inputs: `train-update1` and `train-shared` on
  two scenes for two epochs, and `analyze-update1` on two held-out scenes;
- every CLI command on a six-scene dataset in a temporary directory:
  `generate`, `train` in each mode and with `--resume`, `eval`, `sweep`,
  `ground` and `compare`.

It then prints each run of statements of `src/multinet` that none of them
ran, as `file:first-last` and the run's first statement, and their count.
What tests alone keep alive shows there. A command that fails is an
error. It takes about 2 s on a 2-CPU x86-64 host.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import trace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "multinet"

DATASET_CFG = """version = 1
scenes = 6
canvas = 32
max_object_side = 20
objects_min = 1
objects_max = 2
seed = 5
"""

RUN_CFG = """# a comment line, as config files have
version = 1
iterations = 1
truncate_feedback = false
epochs_phase1 = 1
epochs_phase2 = 0
proposals = 16
channels = 8
cls_hidden = 16
region_hidden = 16
spp_grid = 3
seeds = 0
"""


def workloads() -> None:
    """Each benchmark workload's timed calls, once, on small inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench

    for workload in (bench.TrainWorkload("update1", scenes=2, epochs=2),
                     bench.TrainWorkload("shared", scenes=2, epochs=2),
                     bench.AnalyzeWorkload(scenes=2)):
        repeat = workload.run(workload.setup(7))
        if repeat.failed:
            raise SystemExit(f"{type(workload).__name__}: {repeat.problems}")


def commands(tmp: Path) -> None:
    """Every CLI command, each of which must exit 0."""
    from multinet import cli

    (tmp / "data.cfg").write_text(DATASET_CFG)
    (tmp / "run.cfg").write_text(RUN_CFG)
    (tmp / "more.cfg").write_text(RUN_CFG.replace("epochs_phase2 = 0", "epochs_phase2 = 1"))
    ds, ckpt = str(tmp / "d.bin"), str(tmp / "update1.ckpt")
    run = ["--config", str(tmp / "run.cfg"), "--dataset", ds]
    scored = ["--checkpoint", ckpt, "--dataset", ds]
    argvs = [["generate", "--config", str(tmp / "data.cfg"), "--seed", "1", "--out", ds]]
    argvs += [["train", *run, "--mode", mode, "--seed", "1", "--out", str(tmp / f"{mode}.ckpt"),
               "--loss-curve", str(tmp / f"{mode}.csv")] for mode in ("shared", "update2", "update1")]
    argvs += [
        ["train", "--config", str(tmp / "more.cfg"), "--dataset", ds, "--resume", ckpt,
         "--out", str(tmp / "resumed.ckpt")],
        ["eval", *scored, "--out", str(tmp / "eval.csv")],
        ["sweep", *scored, "--t-max", "2", "--out", str(tmp / "sweep.csv")],
        ["ground", *scored, "--out", str(tmp / "ground.csv")],
        ["compare", *run, "--val-dataset", ds, "--out", str(tmp / "compare.csv"),
         "--table", str(tmp / "compare.md")],
    ]
    for argv in argvs:
        if cli.main(argv) != 0:
            raise SystemExit(f"multinet {' '.join(argv)} failed")


def traffic() -> None:
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        workloads()
        commands(Path(tmp))


def unrun(coverdir: Path) -> list:
    """(file, first, last, text) of each run of statements that `trace`
    marked unrun (">>>>>> ") in the annotated sources it wrote to
    `coverdir`: lines that are no statement do not end a run."""
    runs = []
    for cover in sorted(coverdir.glob("multinet.*.cover")):
        name = cover.name.removeprefix("multinet.").removesuffix(".cover") + ".py"
        open_run = None
        for lineno, line in enumerate(cover.read_text().splitlines(), 1):
            if line.startswith(">>>>>> "):
                if open_run is None:
                    open_run = [name, lineno, lineno, line[7:].strip()]
                    runs.append(open_run)
                open_run[2] = lineno
            elif line[:6].strip():  # a statement that ran
                open_run = None
    return runs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with contextlib.redirect_stdout(io.StringIO()):
        tracer.runfunc(traffic)
    counts = {key: n for key, n in tracer.results().counts.items()
              if Path(key[0]).resolve().parent == SRC}
    with tempfile.TemporaryDirectory(prefix="traffic-cover-") as coverdir:
        with contextlib.redirect_stdout(io.StringIO()):
            trace.CoverageResults(counts).write_results(show_missing=True, coverdir=coverdir)
        runs = unrun(Path(coverdir))
    for name, first, last, text in runs:
        where = f"{name}:{first}" + (f"-{last}" if last > first else "")
        print(f"{where:24s} {text}")
    print(f"{len(runs)} runs of unrun statements in src/multinet")
    return 0


if __name__ == "__main__":
    sys.exit(main())
