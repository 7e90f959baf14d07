"""Per-layer instrumentation of multinet, applied from outside the package.

`instrument` wraps the public functions of each layer (module) in spans or
counters; `layer_metrics` turns one traced run into the per-layer metrics
named in `PER_LAYER`. Byte figures are computed from array sizes, not
measured. The program is single-threaded and has no queues, so no layer
ever waits for another and no wait time is reported.
"""

from __future__ import annotations

import os

import numpy as np

import multinet
from multinet import harness, model, nnops, synthdata, tasks, tensor

from spans import Tracer

MODULES = (tensor, nnops, model, tasks, synthdata, harness, multinet)

NN_OPS = (
    "conv2d",
    "spp_pool_regions",
    "fully_connected",
    "max_pool2d",
    "relu",
    "stack_channels",
    "softmax_rows",
)
LOSS_OPS = ("bce_multilabel", "softmax_ce", "smooth_l1")
MODEL_OPS = ("encode_det", "encode_cls")

# Public functions that get a span of their own, by defining module. Every
# function that calls `make_op` is here, so each tape op's forward time is
# the duration of the span it was created in.
SPANNED = {
    tensor: ("elementwise", "matmul", "reshape", "take_rows", "add_rowvec", "sum_all", "sgd_step"),
    nnops: (
        "conv2d", "relu", "sigmoid", "softmax_rows", "max_pool2d", "global_max_pool",
        "fully_connected", "stack_channels", "spp_pool", "spp_pool_regions",
    ),
    model: ("encode_cls", "encode_det"),
    tasks: (
        "bce_multilabel", "softmax_ce", "smooth_l1", "assign_regions", "nms",
        "average_precision", "ranked_binary_ap", "evaluate",
    ),
    synthdata: ("generate_scene", "propose_regions"),
    harness: (
        "train", "prepare_scene", "scene_loss", "load_checkpoint", "restore_model",
        "evaluate_model",
    ),
}
SPANNED_METHODS = ("forward", "encode_image", "decode_cls", "decode_regions")
COUNTED = {tasks: ("iou", "bbox_decode")}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"nnops.{op}.{k}", u) for op in NN_OPS
     for k, u in (("calls", "count"), ("fwd_ms", "ms"), ("bwd_ms", "ms"), ("out_mb", "MB_computed"))]
    + [
        ("nnops.spp_pool_regions.repeat_frac", "ratio"),
        ("model.encode_det.calls", "count"),
        ("model.encode_det.fwd_ms", "ms"),
        ("model.encode_det.bwd_ms", "ms"),
        ("model.encode_cls.fwd_ms", "ms"),
        ("model.encode_cls.bwd_ms", "ms"),
        ("model.forward.ms", "ms"),
        ("model.encode_image.ms", "ms"),
        ("model.decode_regions.self_ms", "ms"),
        ("tensor.tape_nodes", "count/step"),
        ("tensor.backward.self_ms", "ms"),
        ("tensor.sgd_step.ms", "ms"),
        ("tensor.other_ops.calls", "count"),
        ("tensor.other_ops.fwd_ms", "ms"),
        ("tensor.other_ops.bwd_ms", "ms"),
        ("tasks.evaluate.ms", "ms"),
        ("tasks.nms.calls", "count"),
        ("tasks.nms.ms", "ms"),
        ("tasks.nms.kept_frac", "ratio"),
        ("tasks.iou.calls", "count"),
        ("tasks.bbox_decode.calls", "count"),
        ("tasks.average_precision.ms", "ms"),
        ("tasks.ranked_binary_ap.ms", "ms"),
        ("tasks.loss.fwd_ms", "ms"),
        ("tasks.loss.bwd_ms", "ms"),
        ("tasks.assign_regions.calls", "count"),
        ("tasks.assign_regions.ms", "ms"),
        ("synthdata.generate_scene.ms", "ms"),
        ("synthdata.propose_regions.calls", "count"),
        ("synthdata.propose_regions.ms", "ms"),
        ("harness.prepare_scene.ms", "ms"),
        ("harness.train.self_ms", "ms"),
        ("harness.train_step.ms", "ms"),
        ("harness.train_step.unattributed_frac", "ratio"),
        ("harness.load_checkpoint.ms", "ms"),
        ("harness.load_checkpoint.mb", "MB"),
        ("harness.restore_model.ms", "ms"),
        ("harness.recurrence_sweep.forwards", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.scenes_per_s_delta", "1/s"),
    ]
)


class _SppRepeats:
    """Counts (region set, channel) inputs of `spp_pool_regions` whose
    content was already pooled earlier in the same `Multinet.forward`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.seen: set = set()

    def reset(self) -> None:
        self.seen.clear()

    def record(self, args, _out) -> None:
        h, boxes = args[0], args[1]
        regions = tuple(tuple(b) for b in boxes)
        data = h.data
        counts = self.tracer.counts
        for c in range(data.shape[2]):
            key = (regions, c, data[:, :, c].tobytes())
            if key in self.seen:
                counts["spp.repeat"] += 1
            else:
                self.seen.add(key)
        counts["spp.inputs"] += data.shape[2]


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with `tracer.restore()`."""
    counts, sums = tracer.counts, tracer.sums
    spp = _SppRepeats(tracer)

    def after_nms(args, kept):
        counts["nms.in"] += len(args[0])
        counts["nms.kept"] += len(kept)

    def after_load_checkpoint(args, _ckpt):
        sums["ckpt_bytes"] += os.path.getsize(args[0])

    after = {
        "spp_pool_regions": spp.record,
        "nms": after_nms,
        "load_checkpoint": after_load_checkpoint,
    }

    for mod, names in SPANNED.items():
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.rebind(
                (mod,) + MODULES, name,
                lambda fn, n=f"{layer}.{name}", a=after.get(name): tracer.spanned(fn, n, a),
            )
    for mod, names in COUNTED.items():
        for name in names:
            tracer.rebind((mod,) + MODULES, name,
                          lambda fn, k=f"tasks.{name}.calls": tracer.counted(fn, k))

    def wrap_make_op(orig):
        def make_op(data, inputs, backward_fn, op):
            counts["op:" + op] += 1
            sums["op_bytes:" + op] += data.nbytes
            tracer.ops[tracer.innermost()] = op

            def bwd(g):
                i = tracer.open("bwd:" + op)
                try:
                    return backward_fn(g)
                finally:
                    tracer.close(i)

            return orig(data, inputs, bwd, op)

        return make_op

    tracer.rebind((tensor,) + MODULES, "make_op", wrap_make_op)

    def wrap_backward(orig):
        traced = tracer.spanned(orig, "tensor.backward")

        def backward(loss, tape, *args, **kwargs):
            counts["tape_nodes"] += len(tape.nodes)
            counts["backward.calls"] += 1
            return traced(loss, tape, *args, **kwargs)

        return backward

    tracer.rebind((tensor,) + MODULES, "backward", wrap_backward)

    def wrap_sweep(orig):
        traced = tracer.spanned(orig, "harness.recurrence_sweep")

        def recurrence_sweep(state, spec, scenes, t_max):
            before = counts["decoded_iters"]
            rows = traced(state, spec, scenes, t_max)
            counts["sweep.decoded"] += counts["decoded_iters"] - before
            counts["sweep.needed"] += (t_max + 1) * len(scenes)
            return rows

        return recurrence_sweep

    tracer.rebind((harness,), "recurrence_sweep", wrap_sweep)

    for name in SPANNED_METHODS:
        tracer.rebind((model.Multinet,), name,
                      lambda fn, n=f"model.{name}": tracer.spanned(fn, n))

    def wrap_forward(traced):
        def forward(self, *args, **kwargs):
            spp.reset()
            outs = traced(self, *args, **kwargs)
            counts["decoded_iters"] += len(outs)
            return outs

        return forward

    # Outermost wrapper over the spanned forward installed above.
    tracer.rebind((model.Multinet,), "forward", wrap_forward)


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def train_steps(tracer: Tracer):
    """Per training step: (traced duration, sum of self times of the spans
    inside it), both in seconds. A step runs from the start of
    `harness.scene_loss` to the end of the `tensor.sgd_step` that follows
    it; what is left over is the train loop's own code."""
    dur, self_t, parents = tracer.arrays()
    starts = np.asarray(tracer.starts)
    ends = np.asarray(tracer.ends)
    names = tracer.names
    steps = []
    for i, name in enumerate(names):
        if name != "harness.scene_loss" or parents[i] < 0 or names[parents[i]] != "harness.train":
            continue
        j = next((k for k in range(i + 1, len(names))
                  if names[k] == "tensor.sgd_step" and parents[k] == parents[i]), None)
        if j is None:
            continue
        inside = (starts >= starts[i]) & (ends <= ends[j])
        steps.append((ends[j] - starts[i], float(self_t[inside].sum())))
    return steps


def layer_metrics(tracer: Tracer) -> dict:
    """Every metric in `PER_LAYER` from one traced run, except the `trace.*`
    overhead entries, which need an untraced run to compare with."""
    by_name = tracer.by_name()
    counts, sums = tracer.counts, tracer.sums
    dur, self_t, _ = tracer.arrays()

    def ms(name, which=1):
        return by_name.get(name, (0, 0.0, 0.0))[which] * 1e3

    fwd_s: dict = {}
    for i, op in tracer.ops.items():
        if i >= 0:
            fwd_s[op] = fwd_s.get(op, 0.0) + dur[i]

    def op_fwd(op):
        return fwd_s.get(op, 0.0) * 1e3

    def op_bwd(op):
        return ms("bwd:" + op)

    m: dict = {}
    for op in NN_OPS:
        m[f"nnops.{op}.calls"] = counts["op:" + op]
        m[f"nnops.{op}.fwd_ms"] = op_fwd(op)
        m[f"nnops.{op}.bwd_ms"] = op_bwd(op)
        m[f"nnops.{op}.out_mb"] = sums["op_bytes:" + op] / 1e6
    m["nnops.spp_pool_regions.repeat_frac"] = _ratio(counts["spp.repeat"], counts["spp.inputs"])

    m["model.encode_det.calls"] = counts["op:encode_det"]
    m["model.encode_det.fwd_ms"] = op_fwd("encode_det")
    m["model.encode_det.bwd_ms"] = op_bwd("encode_det")
    m["model.encode_cls.fwd_ms"] = op_fwd("encode_cls")
    m["model.encode_cls.bwd_ms"] = op_bwd("encode_cls")
    m["model.forward.ms"] = ms("model.forward")
    m["model.encode_image.ms"] = ms("model.encode_image")
    m["model.decode_regions.self_ms"] = ms("model.decode_regions", 2)

    m["tensor.tape_nodes"] = _ratio(counts["tape_nodes"], counts["backward.calls"])
    m["tensor.backward.self_ms"] = ms("tensor.backward", 2)
    m["tensor.sgd_step.ms"] = ms("tensor.sgd_step")
    listed = set(NN_OPS) | set(LOSS_OPS) | set(MODEL_OPS)
    others = sorted({k[3:] for k in counts if k.startswith("op:")} - listed)
    m["tensor.other_ops.calls"] = sum(counts["op:" + op] for op in others)
    m["tensor.other_ops.fwd_ms"] = sum(op_fwd(op) for op in others)
    m["tensor.other_ops.bwd_ms"] = sum(op_bwd(op) for op in others)

    m["tasks.evaluate.ms"] = ms("tasks.evaluate")
    m["tasks.nms.calls"] = by_name.get("tasks.nms", (0,))[0]
    m["tasks.nms.ms"] = ms("tasks.nms")
    m["tasks.nms.kept_frac"] = _ratio(counts["nms.kept"], counts["nms.in"])
    m["tasks.iou.calls"] = counts["tasks.iou.calls"]
    m["tasks.bbox_decode.calls"] = counts["tasks.bbox_decode.calls"]
    m["tasks.average_precision.ms"] = ms("tasks.average_precision")
    m["tasks.ranked_binary_ap.ms"] = ms("tasks.ranked_binary_ap")
    m["tasks.loss.fwd_ms"] = sum(op_fwd(op) for op in LOSS_OPS)
    m["tasks.loss.bwd_ms"] = sum(op_bwd(op) for op in LOSS_OPS)
    m["tasks.assign_regions.calls"] = by_name.get("tasks.assign_regions", (0,))[0]
    m["tasks.assign_regions.ms"] = ms("tasks.assign_regions")

    m["synthdata.generate_scene.ms"] = ms("synthdata.generate_scene")
    m["synthdata.propose_regions.calls"] = by_name.get("synthdata.propose_regions", (0,))[0]
    m["synthdata.propose_regions.ms"] = ms("synthdata.propose_regions")

    steps = train_steps(tracer)
    step_s = sum(s for s, _ in steps)
    m["harness.prepare_scene.ms"] = ms("harness.prepare_scene")
    m["harness.train.self_ms"] = ms("harness.train", 2)
    m["harness.train_step.ms"] = _ratio(step_s * 1e3, len(steps))
    m["harness.train_step.unattributed_frac"] = _ratio(step_s - sum(a for _, a in steps), step_s)
    m["harness.load_checkpoint.ms"] = ms("harness.load_checkpoint")
    m["harness.load_checkpoint.mb"] = sums["ckpt_bytes"] / 1e6
    m["harness.restore_model.ms"] = ms("harness.restore_model")
    m["harness.recurrence_sweep.forwards"] = _ratio(counts["sweep.decoded"], counts["sweep.needed"])
    return m
