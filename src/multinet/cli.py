"""Command-line entry points: generate | train | eval | compare | ground | sweep.

Errors, usage errors included, exit 1 after printing a single
machine-readable JSON line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness, schema, synthdata, tasks

_SPEC_PARSERS = schema.parsers(synthdata.SceneSpec)
# Dataset-config key -> SceneSpec field: every field, `classes` naming `n_classes`.
_SPEC_KEYS = {"classes" if name == "n_classes" else name: name for name in _SPEC_PARSERS}
_DATASET_FIELDS = {"version": int, "scenes": int,
                   **{key: _SPEC_PARSERS[name] for key, name in _SPEC_KEYS.items()}}


def parse_dataset_config(text: str):
    """Synthetic dataset description in the run-config grammar; returns
    (SceneSpec, scene count), 500 scenes unless `scenes` is given."""
    values = harness.parse_key_values(text, _DATASET_FIELDS)
    n = values.get("scenes", 500)
    schema.check_value("scenes", "int", n, {"least": 1})
    try:
        spec = synthdata.SceneSpec(**{name: values[key] for key, name in _SPEC_KEYS.items()
                                      if key in values})
    except harness.ConfigError as e:  # name the file's key, not the spec field
        raise harness.ConfigError(str(e).replace("n_classes", "classes")) from None
    return spec, n


def _cmd_generate(args):
    with open(args.config) as f:
        spec, n = parse_dataset_config(f.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    scenes = synthdata.generate_dataset(spec, n)
    synthdata.write_dataset(scenes, spec, args.out)
    print(f"wrote {n} scenes to {args.out}")


def _load_run(args):
    config = harness.load_config(args.config)
    overrides = {name: getattr(args, name, None) for name in ("seed", "mode", "iterations")}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_train(args):
    config = _load_run(args)
    spec, scenes = synthdata.read_dataset(args.dataset)
    resume = None
    if args.resume:
        resume = harness.restore_model(harness.load_checkpoint(args.resume))
    state = harness.train(config, spec, scenes, resume=resume, log=print)
    harness.save_checkpoint(state, args.out)
    print(f"checkpoint written to {args.out}")
    if args.loss_curve:
        harness.write_csv(args.loss_curve, ["epoch", "mean_loss"],
                          ([i, f"{v:.6f}"] for i, v in enumerate(state.history, 1)))


def _load_scored(args):
    """The checkpoint's TrainState, then the dataset it is scored on."""
    state = harness.restore_model(harness.load_checkpoint(args.checkpoint))
    return (state, *synthdata.read_dataset(args.dataset))


def _cmd_eval(args):
    state, spec, scenes = _load_scored(args)
    metrics = harness.evaluate_model(state.model, spec, scenes)
    rows = tasks.metrics_to_rows(
        args.run_id, state.config.mode, state.model.cfg.t, state.config.seed, metrics
    )
    harness.write_csv(args.out, tasks.METRIC_CSV_COLUMNS, rows)
    print(tasks.summary_line(metrics))


def _cmd_compare(args):
    config = _load_run(args)
    spec, train_scenes = synthdata.read_dataset(args.dataset)
    val_spec, val_scenes = synthdata.read_dataset(args.val_dataset)
    harness.check_dataset(harness.build_task_config(config, spec), val_spec)
    results, medians = harness.compare_modes(
        config, spec, train_scenes, val_spec, val_scenes, log=print
    )
    table = harness.comparison_table(medians)
    print(table)
    harness.write_csv(args.out, tasks.METRIC_CSV_COLUMNS, harness.comparison_rows(results))
    if args.table:
        with open(args.table, "w") as f:
            f.write(table + "\n")


def _cmd_ground(args):
    state, spec, scenes = _load_scored(args)
    res = harness.ground_experiment(state, spec, scenes)
    conds = ("ungrounded", "grounded")
    for cond in conds:
        print(f"{cond}: {tasks.summary_line(res[cond])}")
    print("deltas: " + json.dumps({k: round(v, 4) for k, v in res["deltas"].items()}))
    if args.out:
        rows = [row for cond in conds for row in
                tasks.metrics_to_rows(cond, state.config.mode, 1, state.config.seed, res[cond])]
        harness.write_csv(args.out, tasks.METRIC_CSV_COLUMNS, rows)


def _cmd_sweep(args):
    state, spec, scenes = _load_scored(args)
    rows = harness.recurrence_sweep(state, spec, scenes, args.t_max)
    keys = tasks.SUMMARY_KEYS
    harness.write_csv(args.out, ["t", *keys],
                      ([r["t"], *("" if r[k] is None else f"{r[k]:.6f}" for k in keys)]
                       for r in rows))
    for r in rows:
        print(r)


class UsageError(ValueError):
    """Bad command line: unknown or missing flag, or a bad flag value."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, naming the (sub)command, for `main` to report;
    `-h` still prints help and exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="multinet")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset file")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int)
    g.set_defaults(fn=_cmd_generate)

    def run_flags(sp):
        sp.add_argument("--config", required=True)
        sp.add_argument("--dataset", required=True)
        sp.add_argument("--iterations", type=int)

    t = sub.add_parser("train", help="train a model")
    run_flags(t)
    t.add_argument("--seed", type=int)
    t.add_argument("--mode")
    t.add_argument("--out", required=True)
    t.add_argument("--resume")
    t.add_argument("--loss-curve")
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--run-id", default="eval")
    e.set_defaults(fn=_cmd_eval)

    c = sub.add_parser("compare", help="train/evaluate all four modes")
    run_flags(c)
    c.add_argument("--val-dataset", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--table")
    c.set_defaults(fn=_cmd_compare)

    gr = sub.add_parser("ground", help="truth-grounding experiment")
    gr.add_argument("--checkpoint", required=True)
    gr.add_argument("--dataset", required=True)
    gr.add_argument("--out")
    gr.set_defaults(fn=_cmd_ground)

    s = sub.add_parser("sweep", help="metric-vs-recursion-depth curve")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--dataset", required=True)
    s.add_argument("--t-max", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.fn(args)
    except Exception as e:  # noqa: BLE001 - single machine-readable error line
        print(json.dumps({"error": str(e), "kind": type(e).__name__}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
