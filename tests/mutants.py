"""Mutation check of tier-1: each mutant is a one-line source change that
tier-1 must fail on.

Run from the repository root; pytest does not collect this file:

    python tests/mutants.py

For each mutant it copies the working tree (tracked and untracked files
that git does not ignore) to a temporary directory, applies the mutant's
(file, old, new) edit there, and runs tier-1 on the copy with `-x`
(`tests/conftest.py` pins one BLAS thread). It prints "killed" when
tier-1 fails and "survived" when it passes, with the run's wall time.
Every run writes only to its own copy, so the repository's `tests/_cache`
is never written. A mutant whose old
text is not found exactly once in its file is an error: the source moved,
and the list must follow it. The exit status is 1 when a mutant survived.
With the committed cache, the fourteen mutants take about 3 min on a 2-CPU
x86-64 host.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from paired_bench import export

HARNESS, MODEL = "src/multinet/harness.py", "src/multinet/model.py"
NNOPS, TENSOR = "src/multinet/nnops.py", "src/multinet/tensor.py"
TASK_PRODUCT = "fc1 = {head: elementwise(pre, matmul(x_task[head], self.fc1[head][1]))"

# (name, file, old, new)
MUTANTS = [
    # the training mutants of `TestTrajectoryPin`'s docstring
    ("lr_for_epoch always returns lr_phase1", HARNESS,
     "return self.lr_phase1 if epoch < self.epochs_phase1 else self.lr_phase2",
     "return self.lr_phase1"),
    ("sgd_step ignores the lr multiplier", TENSOR,
     "t.grad *= base_lr * mult", "t.grad *= base_lr"),
    ("feedback always detached", MODEL,
     "return pred.detach() if self.cfg.truncate_feedback else pred", "return pred.detach()"),
    ("gradients not zeroed between steps", HARNESS,
     "model.params.zero_grads()", "pass"),
    ("scene_loss supervises only the last output", HARNESS,
     "for out in model.forward(batch.scene.image, batch.geometry):",
     "for out in model.forward(batch.scene.image, batch.geometry)[-1:]:"),
    ("epochs are not shuffled", HARNESS,
     "order = shuffle_rng.permutation(len(batches))", "order = np.arange(len(batches))"),
    # the cls head's split fc1
    ("cls task-block product dropped at t >= 1", MODEL, TASK_PRODUCT,
     TASK_PRODUCT.replace("{head: ", '{head: pre if head == "cls" else ')),
    ("cls image product taken at every t", MODEL, TASK_PRODUCT,
     "fc1 = {head: elementwise(nnops.fully_connected(nnops.global_max_pool(r_img), "
     'self.fc1["cls"][0]) if head == "cls" else pre, matmul(x_task[head], self.fc1[head][1]))'),
    # SPP's scatter plan and the optimizer's unreached parameters
    ("SPP plan's sort made unstable", NNOPS,
     'order = np.argsort(slot_cell, kind="stable")', 'order = np.argsort(slot_cell, kind="heapsort")'),
    ("SPP plan's sums start at -0.0", NNOPS,
     "dtype=np.float64, initial=0.0)", "dtype=np.float64, initial=-0.0)"),
    ("SPP plan's pad key wraps to a real cell", NNOPS,
     "astype(np.min_scalar_type(n_cells))", "astype(np.min_scalar_type(n_cells - 1))"),
    ("SPP winner mask skipped for multi-cell bins", NNOPS,
     "if cells.shape[3] > 1:", "if False:"),
    ("first gradient stored without + 0.0", TENSOR,
     "t.grad = gi + 0.0 if t.spare is None", "t.grad = gi.copy() if t.spare is None"),
    ("sgd_step steps only the first reached parameter", TENSOR,
     "t.data -= t.grad", "t.data -= t.grad\n        break"),
]


def run(file: str, old: str, new: str) -> tuple[bool, float]:
    """(killed, wall seconds) of tier-1 on a copy of the tree with `old`
    replaced by `new` in `file`."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        export(".", tree)
        path = tree / file
        source = path.read_text()
        if source.count(old) != 1:
            raise SystemExit(f"{file}: the mutant's old text occurs {source.count(old)} times")
        path.write_text(source.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"],
                              cwd=tree, env=env, capture_output=True)
        return done.returncode != 0, time.perf_counter() - t0


def main() -> int:
    t0 = time.perf_counter()
    survived = 0
    for name, file, old, new in MUTANTS:
        killed, seconds = run(file, old, new)
        survived += not killed
        print(f"{'killed' if killed else 'survived':8s} {seconds:5.1f} s  {name}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed, wall time "
          f"{time.perf_counter() - t0:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
