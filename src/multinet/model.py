"""Recurrent multi-task architecture: shared conv backbone, per-task label
encoders/decoders, and two integrator variants.

Iteration schedule: at t=0 every head reads the image features only and
makes an ordinary multi-task prediction. For t >= 1 the previous
predictions are re-encoded into spatial maps, integrated with the image
features, and all heads decode again. Decoder weights are tied across
iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nnops, schema
from .nnops import Layer, SppGrid
from .tensor import ParamGroup, Tensor, TensorError, elementwise, make_op, matmul, seed_rng

__all__ = [
    "TaskConfig", "MultinetOutput", "SceneGeometry", "Multinet", "encode_cls", "covering_regions",
    "encode_det", "fc1_rows", "MODES", "STRIDE",
]

MODES = ("shared", "update1", "update2")

# Whether each backbone 3x3 conv is followed by a 2x2 max pooling.
_POOLED = (True, True, True, False)
# Image pixels per backbone feature cell: each 2x2 pooling halves the map.
STRIDE = 2 ** sum(_POOLED)

# Modes whose heads read the stacked (image + task channel) layout.
_STACKED_MODES = ("shared", "update1")


@dataclass
class TaskConfig:
    c_cls: int = schema.bounded(5, least=1)
    c_part: int = schema.bounded(10, least=0)  # 0 disables the part task entirely
    m: int = schema.bounded(64, least=1)  # region proposals per image
    t: int = schema.bounded(2, least=0)  # recursion depth
    mode: str = schema.bounded("update1", choices=MODES)
    canvas: int = 64
    channels: int = schema.bounded(32, least=1)  # backbone output channels C
    cls_hidden: int = schema.bounded(64, least=1)
    region_hidden: int = schema.bounded(64, least=1)
    spp_grid: int = schema.bounded(6, least=1)
    truncate_feedback: bool = False  # stop gradients at label re-encoding

    def __post_init__(self):
        schema.check(self)
        if self.canvas % STRIDE != 0:
            raise schema.ConfigError(f"canvas {self.canvas} not divisible by stride {STRIDE}")

    @property
    def region_classes(self) -> dict:
        """Class count of each region task, in head and channel order."""
        return {"det": self.c_cls, "part": self.c_part} if self.c_part > 0 else {"det": self.c_cls}

    @property
    def task_channels(self) -> int:
        """Channels contributed by re-encoded task labels."""
        return self.c_cls + sum(k + 1 for k in self.region_classes.values())

    @property
    def stacked_channels(self) -> int:
        """C + 2*C_cls + C_part + 2 with all three tasks enabled."""
        return self.channels + self.task_channels

    @property
    def decoder_channels(self) -> int:
        """Channels each head's fc1 reads per pooled cell: the stacked
        layout's for the stacking integrator, C for the bottleneck one."""
        return self.stacked_channels if self.mode in _STACKED_MODES else self.channels


@dataclass
class MultinetOutput:
    x_cls: Tensor  # (C_cls,) sigmoid probabilities
    regions: dict  # task -> (scores (M, K + 1) row-stochastic, deltas (M, 4 * (K + 1)))


@dataclass(frozen=True)
class SceneGeometry:
    """A scene's (M, 4) region `boxes`, their SPP bin `cells` and scatter
    `plan` (`nnops.spp_layout`), and the `covering_regions` table where the
    mode recurs (`Multinet.geometry`)."""
    boxes: np.ndarray
    cells: np.ndarray
    plan: nnops.SppPlan
    covering: np.ndarray | None


def encode_cls(x_cls: Tensor, h: int, w: int) -> Tensor:
    """Broadcast class probabilities to every spatial cell: (H, W, C_cls)."""
    c = x_cls.data.shape[0]
    data = np.broadcast_to(x_cls.data, (h, w, c)).copy()

    def bwd(g):
        return (g.sum(axis=(0, 1)),)

    return make_op(data, (x_cls,), bwd, "encode_cls")


def covering_regions(footprints: np.ndarray, h: int, w: int) -> np.ndarray:
    """(h*w, L) table of the regions whose footprint ((M, 4) [r0, r1, c0,
    c1] from `nnops.feature_footprints`) covers each cell of an h x w map,
    row-major: each row lists its cell's regions in ascending order and is
    padded with M, the index of the zero row `encode_det` appends to the
    scores. L is the largest number of regions covering one cell."""
    m = len(footprints)
    r0, r1, c0, c1 = (footprints[:, j, None] for j in range(4))
    rows, cols = np.arange(h), np.arange(w)
    cover = ((r0 <= rows) & (rows < r1))[:, :, None] & ((c0 <= cols) & (cols < c1))[:, None, :]
    cover = cover.reshape(m, h * w).T
    table = np.sort(np.where(cover, np.arange(m), m), axis=1)
    return table[:, : cover.sum(axis=1).max()]


def encode_det(x: Tensor, covering: np.ndarray, h: int, w: int) -> Tensor:
    """Heat map of region scores: each cell takes the channelwise max over
    the scores of the regions that cover it (its row of the `covering`
    table from `covering_regions`), or 0 when no region does. Gradient
    routes to the first covering region attaining the max (strictly
    positive maxima only), which the backward looks up."""
    m, k1 = x.data.shape
    padded = np.concatenate([x.data, np.zeros((1, k1), dtype=x.data.dtype)])
    cand = np.take(padded, covering, axis=0)  # (H*W, L, K1)
    pos = cand.argmax(axis=1)[:, None]  # each cell's first covering max, per channel
    data = np.maximum(np.take_along_axis(cand, pos, 1), 0.0).reshape(h, w, k1)

    def bwd(g):
        winner = np.where(data > 0, np.take_along_axis(covering, pos[:, 0], 1).reshape(h, w, k1), -1)
        won = winner >= 0
        lin = (winner * k1 + np.arange(k1))[won]
        gx = np.bincount(lin, weights=g[won], minlength=m * k1)
        return (gx.astype(x.data.dtype, copy=False).reshape(m, k1),)

    return make_op(data, (x,), bwd, "encode_det")


def fc1_rows(cfg: TaskConfig, head: str) -> dict:
    """Block -> the rows of head `head`'s stacking-mode fc1 record
    `<head>.fc1.weight` it holds, in order. Row cell*D + ch of that stacked
    weight reads channel ch of pooled cell `cell` (D = `decoder_channels`;
    one cell for "cls", G*G SPP cells for a region head): the "image" block
    holds the rows with ch < C, the "task" block the rest."""
    dc = cfg.decoder_channels
    cells = 1 if head == "cls" else cfg.spp_grid**2
    layout = np.arange(cells * dc).reshape(-1, dc)
    return {"image": layout[:, : cfg.channels].ravel(), "task": layout[:, cfg.channels :].ravel()}


def _record(records: dict, name: str, shape: tuple) -> np.ndarray:
    """Record `name` rounded to float32, or TensorError naming it if it is
    missing, not of `shape` or non-finite once rounded."""
    data = records.get(name)
    if data is None or np.shape(data) != shape:
        fault = "is missing" if data is None else "has wrong shape"
        raise TensorError(f"parameter {name!r} {fault}")
    with np.errstate(over="ignore"):  # an overflow rounds to inf, refused below
        data = np.array(data, np.float32)
    if not np.isfinite(data).all():
        raise TensorError(f"parameter {name!r} has non-finite values")
    return data


class Multinet:
    """The full network for one task configuration.

    Parameters are created once and shared across all recurrent iterations,
    so the parameter count is independent of the recursion depth. They are
    float32: each is drawn in float64 from `seed`, or is its entry of
    `records` (as `records()` names them), rounded once, and the network
    computes in their dtype (`dtype`), to which `forward` casts its inputs.
    A stacking-mode fc1 weight is two parameters, `<head>.fc1.weight:image`
    and `<head>.fc1.weight:task`, which checkpoints record as the one
    stacked weight (`records`).
    """

    def __init__(self, cfg: TaskConfig, seed: int = 0, records: dict | None = None):
        self.cfg = cfg
        self.params = ParamGroup()
        source = seed_rng(seed, 0xC0FFEE) if records is None else records
        c = cfg.channels
        widths = [3, max(c // 2, 4), c, c, c]  # RGB in, then each conv's output
        self.backbone = [
            (self._layer(source, f"backbone.conv{i + 1}", (3, 3, *widths[i : i + 2])), pool)
            for i, pool in enumerate(_POOLED)
        ]

        # Head -> its fc1 as (layer, task block). With the stacking
        # integrator the layer holds the image block with the bias, and the
        # task block is a parameter of its own; in update2 the layer is the
        # whole fc1 and there is no task block.
        self.fc1 = {}
        dc = cfg.decoder_channels
        # Image-classification head: global max pool, two hidden FCs, a
        # sigmoid output layer (final layer Gaussian std 0.01).
        hc = cfg.cls_hidden
        self._fc1(source, "cls", (dc, hc))
        self.cls_fc2 = self._layer(source, "cls.fc2", (hc, hc))
        self.cls_out = self._layer(source, "cls.out", (hc, cfg.c_cls), std=0.01)

        # Region heads (shared structure for objects and parts): SPP,
        # two hidden FCs, softmax scores (std 0.01) + box deltas (std 0.001).
        din = cfg.spp_grid * cfg.spp_grid * dc
        hr = cfg.region_hidden
        self.region_heads = {
            task: self._region_head(source, task, din, hr, k + 1)
            for task, k in cfg.region_classes.items()
        }

        self.bottleneck = None
        if cfg.mode == "update2":
            cin = c + cfg.stacked_channels  # h_prev stacked with image + task maps
            self.bottleneck = self._layer(source, "bottleneck", (1, 1, cin, c), std=0.01)

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which every op of the network follows."""
        return self.params["backbone.conv1.filters"].data.dtype

    def _layer(self, source, name, shape, std=None, blocks=None) -> Layer:
        """Add layer `name`'s weight of `shape`, then its bias, as float32
        parameters; a conv's weight is named `filters`. From a records dict
        `source` each is its record (`_record`); from a Generator the weight is
        one float64 Gaussian draw with std `std`, or He's sqrt(2 / fan-in) with
        fan-in the product of every axis but the last, rounded once, and the bias
        is zero. With `blocks` (`fc1_rows`), each block of the weight's rows is
        its own parameter `<name>.weight:<block>`, and the layer holds the first."""
        kind = "filters" if len(shape) == 4 else "weight"
        if isinstance(source, dict):
            w = _record(source, f"{name}.{kind}", shape)
            bias = _record(source, f"{name}.bias", shape[-1:])
        else:
            std = np.sqrt(2.0 / math.prod(shape[:-1])) if std is None else std
            w = (std * source.standard_normal(shape)).astype(np.float32)
            bias = np.zeros(shape[-1], np.float32)
        parts = {"": w} if blocks is None else {f":{b}": w[rows] for b, rows in blocks.items()}
        weights = [self.params.add(f"{name}.{kind}{key}", Tensor(part), 1.0)
                   for key, part in parts.items()]
        return Layer(weights[0], self.params.add(f"{name}.bias", Tensor(bias), 2.0))

    def _fc1(self, source, head, shape):
        stacked = self.cfg.mode in _STACKED_MODES
        layer = self._layer(source, f"{head}.fc1", shape,
                            blocks=fc1_rows(self.cfg, head) if stacked else None)
        self.fc1[head] = (layer, self.params[f"{head}.fc1.weight:task"] if stacked else None)

    def _region_head(self, source, name, din, hidden, k1):
        self._fc1(source, name, (din, hidden))
        return {
            "fc2": self._layer(source, f"{name}.fc2", (hidden, hidden)),
            "score": self._layer(source, f"{name}.score", (hidden, k1), std=0.01),
            "delta": self._layer(source, f"{name}.delta", (hidden, 4 * k1), std=0.001),
        }

    # ---- checkpoint records ---------------------------------------------

    def records(self) -> list:
        """(name, array, lr multiplier) of each checkpoint record, in record
        order: every parameter's data, except that a stacking-mode fc1's
        image and task blocks are joined into their stacked
        `<head>.fc1.weight` (`fc1_rows`)."""
        out = []
        for name, t, mult in self.params.items():
            record, _, block = name.partition(":")
            if block == "task":  # joined to the image block, recorded last
                rows, image = fc1_rows(self.cfg, record.partition(".")[0]), out[-1][1]
                stacked = np.empty((len(image) + len(t.data), t.data.shape[1]), t.data.dtype)
                stacked[rows["image"]], stacked[rows["task"]] = image, t.data
                out[-1] = (record, stacked, mult)
            else:
                out.append((record, t.data, mult))
        return out

    def geometry(self, boxes) -> SceneGeometry:
        """The `SceneGeometry` of the (M, 4) region `boxes` on the map of a
        canvas image; TensorError on a degenerate box."""
        side = self.cfg.canvas // STRIDE
        fp, cells, plan = nnops.spp_layout(boxes, SppGrid(self.cfg.spp_grid, STRIDE), side, side)
        return SceneGeometry(boxes, cells, plan, covering_regions(fp, side, side)
                             if self.cfg.mode != "shared" else None)

    # ---- encoders -------------------------------------------------------

    def encode_image(self, image) -> Tensor:
        """The backbone's map of a canvas image: each conv, its 2x2 max pooling
        where it has one, then ReLU, which is monotone, so this gives conv ->
        ReLU -> pool's bytes, gradients too, with ReLU on a quarter of the cells.
        Only a -0.0 could tell the orders apart, and no conv output is one: GEMM
        sums start at +0.0, as biases do, and SGD never makes a bias -0.0."""
        x = Tensor(np.asarray(image, dtype=self.dtype))
        if x.data.shape[:2] != (self.cfg.canvas,) * 2:
            raise TensorError(f"image is {x.data.shape[:2]}, not the canvas {(self.cfg.canvas,) * 2}")
        for layer, pool in self.backbone:
            x = nnops.conv2d(x, layer)
            x = nnops.relu(nnops.max_pool2d(x) if pool else x)
        return x

    # ---- decoders -------------------------------------------------------

    def decode_cls(self, fc1: Tensor) -> Tensor:
        """Image-class probabilities from the (cls_hidden,) fc1
        pre-activation."""
        v = nnops.relu(fc1)
        v = nnops.relu(nnops.fully_connected(v, self.cls_fc2))
        return nnops.sigmoid(nnops.fully_connected(v, self.cls_out))

    def decode_regions(self, fc1: Tensor, task: str):
        """Score and box-delta head of one region task from its (M, hidden)
        fc1 pre-activation."""
        hd = self.region_heads[task]
        feat = nnops.relu(fc1)
        feat = nnops.relu(nnops.fully_connected(feat, hd["fc2"]))
        scores = nnops.softmax_rows(nnops.fully_connected(feat, hd["score"]))
        deltas = nnops.fully_connected(feat, hd["delta"])
        return scores, deltas

    def _decode_all(self, fc1: dict) -> MultinetOutput:
        """Decode every head from its fc1 pre-activation."""
        return MultinetOutput(self.decode_cls(fc1["cls"]), {
            task: self.decode_regions(fc1[task], task) for task in self.cfg.region_classes})

    # ---- iteration schedule ---------------------------------------------

    def forward(self, image, geometry: SceneGeometry, ground_cls=None, n_iters=None) -> list:
        """Run the recurrent schedule over the regions of `geometry`; returns
        T+1 per-iteration outputs, each with every head decoded.

        `ground_cls`, a (C_cls,) ground-truth image label array, is
        re-encoded in place of the cls prediction at every iteration (the
        label is treated as an input). Modes without recurrence return
        outputs[0] only. The stacking integrator stacks the image features
        with the re-encoded labels (cls, then each region task); the
        bottleneck integrator puts the previous map in front of that stack
        and mixes it back to C channels.

        Every head reads one pooling of a map (`pool`): its global max for
        cls, its SPP rows for the region heads, which share them. With the
        stacking integrator each head's fc1 is held as the two blocks of its
        input rows (`fc1_rows`): max pooling is per channel, so the image
        channels are pooled once per forward and their product with the
        image block (plus bias) is taken once, which is the whole
        pre-activation at t = 0, and iteration t >= 1 adds the product of
        its own pooled task channels with the task block. The bottleneck
        integrator pools its C-channel map at every iteration and applies
        the whole fc1.
        """
        cfg = self.cfg
        if len(geometry.boxes) != cfg.m or (geometry.covering is None) != (cfg.mode == "shared"):
            raise TensorError(f"expected the {cfg.mode} geometry of {cfg.m} regions")
        n_iters = cfg.t if n_iters is None else n_iters
        if n_iters < 0:
            raise ValueError(f"iteration count must be non-negative, got {n_iters}")
        if ground_cls is not None:
            ground_cls = Tensor(np.asarray(ground_cls, dtype=self.dtype))
            if ground_cls.data.shape != (cfg.c_cls,):
                raise TensorError(
                    f"grounded cls label has shape {ground_cls.data.shape}, expected {(cfg.c_cls,)}"
                )
        r_img = self.encode_image(image)
        hh, ww = r_img.data.shape[:2]
        if cfg.mode == "shared":
            n_iters = 0

        def pool(h):
            x = nnops.spp_pool_regions(h, geometry.boxes, geometry.cells, geometry.plan)
            return {"cls": nnops.global_max_pool(h), **dict.fromkeys(cfg.region_classes, x)}

        def fc1_from(h):  # the image block's product, or update2's whole fc1
            return {head: nnops.fully_connected(x, self.fc1[head][0])
                    for head, x in pool(h).items()}

        h = r_img
        fc1 = img_fc1 = fc1_from(r_img)
        outputs = [self._decode_all(fc1)]
        for _ in range(n_iters):
            prev = outputs[-1]
            x_cls = self._feedback(prev.x_cls) if ground_cls is None else ground_cls
            maps = [encode_cls(x_cls, hh, ww)]
            maps += [encode_det(self._feedback(prev.regions[t][0]), geometry.covering, hh, ww)
                     for t in cfg.region_classes]
            if cfg.mode in _STACKED_MODES:
                x_task = pool(nnops.stack_channels(maps))
                fc1 = {head: elementwise(pre, matmul(x_task[head], self.fc1[head][1]))
                       for head, pre in img_fc1.items()}
            else:
                stack = nnops.stack_channels([h, r_img] + maps)
                h = nnops.relu(nnops.conv2d(stack, self.bottleneck))
                fc1 = fc1_from(h)
            outputs.append(self._decode_all(fc1))
        return outputs

    def _feedback(self, pred: Tensor) -> Tensor:
        return pred.detach() if self.cfg.truncate_feedback else pred
