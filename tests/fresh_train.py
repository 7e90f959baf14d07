"""Training-step time and minor page faults of `harness.train` in fresh processes.

Run from the repository root; pytest does not collect this file:

    python tests/fresh_train.py --procs 3

For each of the `shared` and `update1` modes it starts --procs new Python
processes, one after another, each with one BLAS thread. Each process
generates 20 scenes of `SceneSpec(seed=100)` and calls `harness.train` 3
times from a fresh init (lr 3e-3, 2 epochs, T = 2, 64 proposals), timing
each call and reading `getrusage` minor faults around it. A call's figures
are per step (2 x 20 steps; the call's scene preparation is counted in).

The first call of a process finds a cold heap, so the report keeps it apart:
per process, the first call's ms and faults per step, then the least ms per
step and the most faults per step of the later calls. `--src` runs another
checkout's sources (its `src` directory), for a before/after pair.
With the default of three processes per mode it takes 6-10 s on a 2-CPU x86-64 host, and about 15 s with --procs 6. Minor
fault counts can differ between runs of the same code on one host, likely
with the huge pages it can hand out, so measure both sides together.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODES = ("shared", "update1")
SCENES, EPOCHS, CALLS = 20, 2, 3


def child(mode: str) -> None:
    """Run in the fresh process: print one JSON list of (ms, faults) per step, per call."""
    import resource

    from multinet import harness, synthdata

    spec = synthdata.SceneSpec(seed=100)
    data = synthdata.generate_dataset(spec, SCENES)
    config = harness.RunConfig(mode=mode, iterations=2, proposals=64, seed=0, lr_phase1=3e-3,
                               epochs_phase1=EPOCHS, epochs_phase2=0)
    steps = EPOCHS * SCENES
    out = []
    for _ in range(CALLS):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        harness.train(config, spec, data)
        ms = (time.perf_counter() - t0) * 1e3
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        out.append((ms / steps, faults / steps))
    print(json.dumps(out))


def run(mode: str, args) -> list:
    """Each fresh process's per-call figures for `mode`."""
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve()),
           **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    cmd = [sys.executable, __file__, "--child", mode]
    return [json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                      text=True).stdout) for _ in range(args.procs)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--procs", type=int, default=3)
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    t0 = time.perf_counter()
    for mode in MODES:
        for i, calls in enumerate(run(mode, args)):
            first, later = calls[0], calls[1:]
            line = (f"{mode:8s} process {i}: first call {first[0]:.2f} ms/step "
                    f"{first[1]:.0f} faults/step")
            if later:
                line += (f"; later calls {min(c[0] for c in later):.2f} ms/step (least), "
                         f"{max(c[1] for c in later):.0f} faults/step (most)")
            print(line)
    print(f"wall time {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
