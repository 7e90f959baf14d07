"""Training loop, configuration, checkpointing, and experiment runners.

Everything is deterministic given (config, seed, dataset): parameter init,
epoch shuffling, and region proposals all derive from fixed seed streams,
and checkpoints restore training bit-exactly from any epoch boundary.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import container, schema, synthdata, tasks
from .model import MODES, STRIDE, Multinet, SceneGeometry, TaskConfig
from .schema import ConfigError, bounded
from .synthdata import SceneSpec, propose_regions
from .tasks import assign_regions
from .tensor import Tape, Tensor, TensorError, backward, make_op, seed_rng, sgd_step, take_rows

__all__ = [
    "RunConfig",
    "ConfigError",
    "TrainingError",
    "parse_key_values",
    "parse_config",
    "load_config",
    "build_task_config",
    "check_dataset",
    "train",
    "TrainState",
    "save_checkpoint",
    "load_checkpoint",
    "restore_model",
    "scored_pass",
    "evaluate_model",
    "compare_modes",
    "ground_experiment",
    "recurrence_sweep",
    "write_csv",
]

CKPT_MAGIC = b"MNCKPT\x00"
CKPT_VERSION = 1


class TrainingError(RuntimeError):
    """Aborted training run (with epoch/scene context)."""


def _sets(name: str):
    """A RunConfig field that sets TaskConfig field `name`, with its default and bounds."""
    task_field = next(f for f in dataclasses.fields(TaskConfig) if f.name == name)
    return field(default=task_field.default, metadata={**task_field.metadata, "sets": name})


@dataclass
class RunConfig:
    version: int = bounded(1, choices=(1,))
    mode: str = _sets("mode")
    iterations: int = _sets("t")
    lr_phase1: float = 1e-3
    epochs_phase1: int = bounded(12, least=1)
    lr_phase2: float = 1e-4
    epochs_phase2: int = bounded(12, least=0)
    weight_cls: float = 1.0
    weight_det: float = 1.0
    weight_part: float = 1.0
    weight_bbox: float = 1.0
    seed: int = bounded(0, least=0)
    seeds: str = "0,1,2"  # used by the mode-comparison runner
    proposals: int = _sets("m")
    channels: int = _sets("channels")
    cls_hidden: int = _sets("cls_hidden")
    region_hidden: int = _sets("region_hidden")
    spp_grid: int = _sets("spp_grid")
    truncate_feedback: bool = _sets("truncate_feedback")

    def __post_init__(self):
        schema.check(self)
        try:
            seeds = self.seed_list()
        except ValueError:
            seeds = []
        if not seeds:
            raise ConfigError(f"seeds must be a comma-separated list of integers, got {self.seeds!r}")
        repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
        if repeated:
            raise ConfigError(f"seeds lists seed {repeated[0]} more than once: {self.seeds!r}")
        negative = [s for s in seeds if s < 0]
        if negative:
            raise ConfigError(f"seeds lists negative seed {negative[0]}: {self.seeds!r}")

    @property
    def total_epochs(self) -> int:
        return self.epochs_phase1 + self.epochs_phase2

    def lr_for_epoch(self, epoch: int) -> float:
        return self.lr_phase1 if epoch < self.epochs_phase1 else self.lr_phase2

    def seed_list(self):
        return [int(s) for s in self.seeds.split(",") if s.strip() != ""]


def parse_key_values(text: str, fields: dict) -> dict:
    """Flat `key = value` lines with `#` comments and blank lines.

    `fields` maps each allowed key to a parser that raises ValueError on a
    bad value. Unknown keys, duplicate keys, bad values (each naming its
    line) and a missing or unsupported `version` are ConfigErrors.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = fields[key](raw)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from None
    if "version" not in values:
        raise ConfigError("config is missing the 'version' key")
    if values["version"] != 1:
        raise ConfigError(f"unsupported config version {values['version']}")
    return values


def parse_config(text: str) -> RunConfig:
    """Run configuration in the `parse_key_values` grammar."""
    return RunConfig(**parse_key_values(text, schema.parsers(RunConfig)))


def load_config(path) -> RunConfig:
    with open(path) as f:
        return parse_config(f.read())


def _dataset_fields(spec: SceneSpec) -> dict:
    """The TaskConfig fields a dataset's spec sets: its class counts and canvas."""
    return {"c_cls": spec.n_classes, "c_part": spec.n_part_classes, "canvas": spec.canvas}


def _task_config(config: RunConfig, dataset: dict) -> TaskConfig:
    """The network `config` builds given the dataset's `_dataset_fields`: each
    RunConfig field passes its value to the TaskConfig field it `_sets`."""
    return TaskConfig(**dataset, **{f.metadata["sets"]: getattr(config, f.name)
                                    for f in dataclasses.fields(config) if "sets" in f.metadata})


def build_task_config(config: RunConfig, spec: SceneSpec) -> TaskConfig:
    return _task_config(config, _dataset_fields(spec))


def _check_model_fits(model: dict, fields: dict, source: str, model_name="the model") -> None:
    for name, want in fields.items():
        have = model.get(name)
        if have != want:
            raise TrainingError(f"{name} is {want!r} in {source}, {have!r} in {model_name}")


def check_dataset(cfg: TaskConfig, spec: SceneSpec) -> None:
    """Raise TrainingError, naming the field, unless the dataset's spec gives
    the class counts and canvas of the model configured by `cfg`."""
    _check_model_fits(dataclasses.asdict(cfg), _dataset_fields(spec), "the dataset")


# A region task's loss targets in the network's dtype: the labelled rows, their labels, the
# (M, 4 * (K + 1)) box deltas and mask, and whether the mask has any entry.
RegionLoss = collections.namedtuple("RegionLoss", "keep labels deltas mask boxed")


@dataclass
class SceneBatch:
    """One training scene, prepared once per run (its proposals are fixed
    across iterations and derive only from the dataset, not the seed)."""

    scene: synthdata.Scene
    geometry: SceneGeometry
    regions: dict  # task -> RegionLoss


def _geometry(model: Multinet, scene, spec: SceneSpec, index: int) -> SceneGeometry:
    """Scene `index`'s proposals and their geometry, or TrainingError naming the scene."""
    try:
        return model.geometry(propose_regions(scene, spec, model.cfg.m, seed=index))
    except ValueError as e:
        raise TrainingError(f"scene {index}: {e}") from None


def prepare_scene(scene, spec: SceneSpec, model: Multinet, index: int) -> SceneBatch:
    geometry = _geometry(model, scene, spec, index)
    regions = {}
    for task, k in model.cfg.region_classes.items():
        t = assign_regions(geometry.boxes, *tasks.REGION_TASKS[task].ground_truth(scene), k)
        keep = np.nonzero(t.labels >= 0)[0]
        regions[task] = RegionLoss(keep, t.labels[keep], t.deltas.astype(model.dtype),
                                   t.mask.astype(model.dtype), bool(t.mask.any()))
    return SceneBatch(scene, geometry, regions)


def scene_loss(model: Multinet, batch: SceneBatch, config: RunConfig) -> Tensor:
    """Total loss: every iteration's outputs are supervised. A task whose
    loss weight is 0 has no term, so its head gets no gradient; a region
    task's box regression trains only while that task's weight is above 0.
    One tape node adds the terms, each times its weight, left to right."""
    terms = []  # (term, weight)
    for out in model.forward(batch.scene.image, batch.geometry):
        if config.weight_cls > 0:
            cls = tasks.bce_multilabel(out.x_cls, batch.scene.img_label)
            terms.append((cls, config.weight_cls))
        for task, (scores, deltas) in out.regions.items():
            w = getattr(config, f"weight_{task}")
            if w == 0:
                continue
            target = batch.regions[task]
            if target.keep.size:
                terms.append((tasks.softmax_ce(take_rows(scores, target.keep), target.labels), w))
            if config.weight_bbox > 0 and target.boxed:
                terms.append((tasks.smooth_l1(deltas, target.deltas, target.mask),
                              config.weight_bbox))
    parts = [t.data * w for t, w in terms] or [np.asarray(0.0)]  # no term: a constant 0
    return make_op(sum(parts[1:], parts[0]), [t for t, _ in terms],
                   lambda g: [g * w for _, w in terms], "weighted_loss")


@dataclass
class TrainState:
    model: Multinet
    config: RunConfig
    epoch: int
    rng_state: dict
    history: list = field(default_factory=list)  # per-epoch mean loss


def train(
    config: RunConfig,
    spec: SceneSpec,
    scenes,
    resume: TrainState | None = None,
    log=None,
) -> TrainState:
    """SGD training with the two-phase learning-rate schedule.

    `resume` continues a previous run bit-exactly from its epoch boundary.
    Its model must be the one `config` and the dataset build; epoch counts,
    learning rates and loss weights may differ.
    """
    if not scenes:
        raise TrainingError("scenes: the training set is empty")
    cfg = build_task_config(config, spec)
    shuffle_rng = seed_rng(config.seed, 1)
    if resume is not None:
        _check_model_fits(dataclasses.asdict(resume.model.cfg), dataclasses.asdict(cfg),
                          "the run config and dataset")
        if resume.epoch > config.total_epochs:
            raise TrainingError(f"epochs_phase1 + epochs_phase2 is {config.total_epochs} in the "
                                f"run config, below the checkpoint's epoch {resume.epoch}")
        model = resume.model
        start_epoch = resume.epoch
        shuffle_rng.bit_generator.state = resume.rng_state
        history = list(resume.history)
    else:
        model = Multinet(cfg, seed=config.seed)
        start_epoch = 0
        history = []

    batches = [prepare_scene(s, spec, model, i) for i, s in enumerate(scenes)]
    for epoch in range(start_epoch, config.total_epochs):
        lr = config.lr_for_epoch(epoch)
        order = shuffle_rng.permutation(len(batches))
        losses = []
        for i in order:
            try:
                with Tape() as tape:
                    loss = scene_loss(model, batches[i], config)
                    backward(loss, tape)
                if lr > 0:
                    sgd_step(model.params, lr)
                model.params.zero_grads()
            except TensorError as e:
                raise TrainingError(f"epoch {epoch}, scene {int(i)}: {e}") from e
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
        if log:
            log(f"epoch {epoch + 1}/{config.total_epochs} lr={lr:g} loss={history[-1]:.4f}")
    return TrainState(model, config, config.total_epochs, shuffle_rng.bit_generator.state, history)


# ---- checkpoints ---------------------------------------------------------


def _task_header(cfg: TaskConfig) -> dict:
    """A checkpoint header's `task_config`: `cfg` and the backbone's stride."""
    return {**dataclasses.asdict(cfg), "stride": STRIDE}


@dataclass
class CheckpointHeader:
    """A checkpoint's JSON header: the six keys `save_checkpoint` writes."""
    run_config: dict
    task_config: dict
    epoch: int = bounded(least=0)
    rng_state: dict
    optimizer: dict = bounded(choices=({},))  # plain SGD carries no state
    history: list  # per-epoch mean loss

    def __post_init__(self):
        schema.check(self)
        for i, loss in enumerate(self.history):
            schema.check_value(f"history[{i}]", "float", loss, {})
        try:
            seed_rng(0).bit_generator.state = self.rng_state
        except (TypeError, ValueError, LookupError, OverflowError) as e:
            raise ConfigError(f"rng_state is not a PCG64 state: {e}") from None


def save_checkpoint(state: TrainState, path) -> None:
    header = CheckpointHeader(dataclasses.asdict(state.config), _task_header(state.model.cfg),
                              state.epoch, state.rng_state, {}, state.history)
    records = state.model.records()
    chunks = [container.blob(json.dumps(dataclasses.asdict(header), sort_keys=True).encode()),
              container.u32(len(records))]
    for name, data, mult in records:
        chunks += [container.blob(name.encode()), struct.pack("<d", mult), container.u32(data.ndim),
                   struct.pack(f"<{data.ndim}I", *data.shape), container.f8(data)]
    container.write(path, CKPT_MAGIC, CKPT_VERSION, chunks)


def load_checkpoint(path) -> dict:
    """Header dict plus `params`: name -> (array, lr multiplier); raises
    TrainingError on any corruption."""
    r = container.Reader(path, CKPT_MAGIC, CKPT_VERSION, TrainingError, "checkpoint")
    try:
        header = json.loads(r.blob().decode())
    except ValueError:
        header = None
    if not isinstance(header, dict):
        r.fail("the header is not a JSON object")
    if "params" in header:
        r.fail("the header has a 'params' key, which the parameter records fill")
    params = {}
    for i in range(r.u32()):
        try:
            name = r.blob().decode()
        except UnicodeDecodeError:
            r.fail(f"parameter record {i} has a name that is not valid UTF-8")
        (mult,) = r.unpack("<d")
        ndim = r.u32()
        params[name] = (r.f8(r.unpack(f"<{ndim}I")), mult)
    r.done()
    header["params"] = params
    return header


def restore_model(ckpt: dict) -> TrainState:
    """The checkpoint's training state, built from its records with nothing
    drawn: the network its `run_config` builds for its `task_config`'s class
    counts and canvas, which that `task_config` must describe. TrainingError
    names the header key, field or record that is unknown, missing or wrong."""
    try:
        header = schema.from_json(CheckpointHeader,
                                  {k: v for k, v in ckpt.items() if k != "params"})
    except ConfigError as e:
        raise TrainingError(f"the checkpoint header: {e}") from None
    try:
        config = schema.from_json(RunConfig, header.run_config)
    except ConfigError as e:
        raise TrainingError(f"the checkpoint's run_config: {e}") from None
    fields = header.task_config
    try:
        schema.check_keys(fields, [*(f.name for f in dataclasses.fields(TaskConfig)), "stride"])
        cfg = _task_config(config, {name: fields[name] for name in ("c_cls", "c_part", "canvas")})
    except ConfigError as e:
        raise TrainingError(f"the checkpoint's task_config: {e}") from None
    built = _task_header(cfg)
    _check_model_fits(built, {name: fields[name] for name in built},
                      "the checkpoint's task_config", "the network its run_config builds")
    try:
        model = Multinet(cfg, records={name: data for name, (data, _) in ckpt["params"].items()})
    except TensorError as e:
        raise TrainingError(f"checkpoint {e}") from None
    mults = {name.partition(":")[0]: mult for name, _, mult in model.params.items()}
    for name, (_, stored) in ckpt["params"].items():
        if stored != mults.get(name):
            raise TrainingError(f"checkpoint parameter {name!r} " + (
                "is not in the model" if name not in mults
                else f"has lr multiplier {stored!r}, the network's is {mults[name]!r}"))
    return TrainState(model, config, header.epoch, header.rng_state, list(header.history))


# ---- evaluation ----------------------------------------------------------


def scored_pass(model: Multinet, spec, scenes, ts, ground_cls=False, geometries=None) -> dict:
    """{t: `tasks.evaluate` metrics} for each iteration t in `ts`, from one
    forward per held-out scene unrolled to the largest t; `ground_cls`
    re-encodes each scene's true image labels instead of the cls prediction.
    Modes without recurrence read outputs[0] at every t. Each distinct
    output is scored once, as soon as its forward returns. `geometries[i]`,
    if given, is scene i's `_geometry`."""
    check_dataset(model.cfg, spec)
    records = {t: [] for t in ts}
    for i, scene in enumerate(scenes):
        geometry = geometries[i] if geometries else _geometry(model, scene, spec, i)
        truth = scene.img_label if ground_cls else None
        try:
            outs = model.forward(scene.image, geometry, ground_cls=truth, n_iters=max(ts))
            last = len(outs) - 1
            scored = {}
            for k in {min(t, last) for t in ts}:
                regions = {task: (s.data, d.data) for task, (s, d) in outs[k].regions.items()}
                scored[k] = tasks.score_scene(outs[k].x_cls.data, regions, geometry.boxes, scene,
                                              model.cfg.canvas)
        except TensorError as e:
            raise TensorError(f"scene {i}: {e}") from None
        for t, per_t in records.items():
            per_t.append(scored[min(t, last)])
    return {t: tasks.evaluate(per_t, model.cfg.c_cls) for t, per_t in records.items()}


def evaluate_model(model: Multinet, spec, scenes) -> dict:
    """Score every enabled task of the model's prediction at t = T on
    held-out scenes (`scored_pass`)."""
    return scored_pass(model, spec, scenes, [model.cfg.t])[model.cfg.t]


def write_csv(path, header, rows) -> None:
    """One CSV file: the `header` row, then `rows`."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


# ---- experiment runners --------------------------------------------------

# Rows of the mode comparison: "independent" is one single-task network per
# task (each a `shared` model), the others are model modes.
COMPARE_MODES = ("independent", *MODES)


def _train_independent(config: RunConfig, spec, train_scenes, log=None) -> dict:
    """One single-task network per task, each trained in mode `shared` with
    every other task's loss weight zeroed; returns them by task."""
    names = ("cls", *build_task_config(config, spec).region_classes)
    nets = {}
    for task in names:
        zeroed = {f"weight_{other}": 0.0 for other in names if other != task}
        c = dataclasses.replace(config, mode="shared", **zeroed)
        nets[task] = train(c, spec, train_scenes, log=log).model
    return nets


def train_and_eval_mode(mode: str, config: RunConfig, spec, train_scenes, val_spec,
                        val_scenes, seed: int, log=None) -> dict:
    """Train one comparison row on the training scenes and evaluate it on
    the validation scenes, drawing their proposals from `val_spec`."""
    config = dataclasses.replace(config, seed=seed)
    if mode == "independent":
        nets = _train_independent(config, spec, train_scenes, log=log)
        metrics = {}
        for task, net in nets.items():
            m = evaluate_model(net, val_spec, val_scenes)
            metrics.update((k, v) for k, v in m.items() if k.startswith(task + "_"))
        # evaluate()'s key order; a task without a net of its own reads None.
        return {k: metrics.get(k) for k in m}
    state = train(dataclasses.replace(config, mode=mode), spec, train_scenes, log=log)
    return evaluate_model(state.model, val_spec, val_scenes)


def compare_modes(config: RunConfig, spec, train_scenes, val_spec, val_scenes, log=None):
    """Train all comparison rows across the config's seeds; returns
    {mode: {seed: metrics}} plus per-mode medians."""
    results = {mode: {} for mode in COMPARE_MODES}
    for mode in COMPARE_MODES:
        for seed in config.seed_list():
            if log:
                log(f"--- mode={mode} seed={seed}")
            results[mode][seed] = train_and_eval_mode(
                mode, config, spec, train_scenes, val_spec, val_scenes, seed, log=log
            )

    def median(values):
        return None if None in values else float(np.median(values))

    medians = {mode: {k: median([m[k] for m in per_seed.values()]) for k in tasks.SUMMARY_KEYS}
               for mode, per_seed in results.items()}
    return results, medians


def comparison_table(medians) -> str:
    """Markdown table shaped like the paper-style mode comparison."""
    names = {
        "independent": "Independent",
        "shared": "Multi-task",
        "update1": "Ours (stack)",
        "update2": "Ours (with bottleneck)",
    }
    keys = tasks.SUMMARY_KEYS
    header = ["Method", *(tasks.metric_label(k, with_iou=True) for k in keys)]
    lines = ["| " + " | ".join(header) + " |", "|---" * len(header) + "|"]
    for mode, med in medians.items():
        cells = ["-" if med[k] is None else f"{med[k]:.3f}" for k in keys]
        lines.append(f"| {names.get(mode, mode)} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def comparison_rows(results):
    rows = []
    for mode, per_seed in results.items():
        for seed, metrics in per_seed.items():
            rows.extend(tasks.metrics_to_rows("compare", mode, "-", seed, metrics))
    return rows


def ground_experiment(state: TrainState, spec, scenes) -> dict:
    """Paired metrics: standard vs. cls-truth-grounded predictions, both read
    one iteration after the grounding point."""
    model = state.model
    if model.cfg.mode == "shared" or model.cfg.t < 1:
        raise TrainingError("grounding requires a recurrent checkpoint (T >= 1)")
    check_dataset(model.cfg, spec)
    geometries = [_geometry(model, scene, spec, i) for i, scene in enumerate(scenes)]
    ungrounded, grounded = (scored_pass(model, spec, scenes, [1], g, geometries)[1]
                            for g in (False, True))
    deltas = {k: grounded[k] - ungrounded[k] for k in tasks.SUMMARY_KEYS
              if ungrounded[k] is not None}
    return {"ungrounded": ungrounded, "grounded": grounded, "deltas": deltas}


def recurrence_sweep(state: TrainState, spec, scenes, t_max: int):
    """Summary metrics of the same trained model unrolled to t = 0..t_max,
    from one `scored_pass`: row t reads outputs[t] (outputs[0] at every t in
    modes without recurrence)."""
    # A negative t_max asks for no t; the forward to it refuses the count.
    by_t = scored_pass(state.model, spec, scenes, range(t_max + 1) or [t_max])
    return [{"t": t, **{k: m[k] for k in tasks.SUMMARY_KEYS}} for t, m in by_t.items()]
