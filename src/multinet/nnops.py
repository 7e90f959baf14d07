"""Neural network layers on top of the tensor engine.

Feature maps are H x W x C arrays of the parameters' dtype (float32 for
the model; see `tensor`): every op computes in the dtype of its inputs,
forward and backward, and `spp_pool_regions`' float64 scatter sums are
rounded back to it once. Pooling ops route gradients to the first
(row-major) argmax so backward passes are deterministic even on tied values.

The window ops keep no index table: they read the map through strided
views. `conv2d` copies one (h, w, k, k, C) view of a zero-padded map into
a (h*w, k*k*C) patch matrix (`_patches`): of its input for the forward and
the weight gradient, and of its output gradient for the input gradient, a
transposed convolution with the filters flipped in space and transposed in
channels, so every product is one GEMM in the input's dtype and no window
gradient is scattered. `max_pool2d` pools 2 x 2 windows at
stride 2 and copies no window: its forward is a running `np.maximum` over
the four views (row-major), which keeps the earlier value on ties, and its
backward scans them in the same order and writes each window's gradient to
the first one that equals the maximum. SPP reads the bin cells and the
scatter plan (`SppPlan`) that `spp_layout` builds once per box set, which
the caller keeps (`model.SceneGeometry`): the module holds no state.
relu's mask is computed in its backward, so inference never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, TensorError, make_op, reshape

__all__ = [
    "Layer",
    "SppGrid",
    "SppPlan",
    "conv2d",
    "relu",
    "sigmoid",
    "softmax_rows",
    "max_pool2d",
    "global_max_pool",
    "fully_connected",
    "stack_channels",
    "spp_pool",
    "spp_pool_regions",
    "feature_footprints",
    "spp_layout",
]


@dataclass
class Layer:
    weight: Tensor  # Din x Dout, or k x k x Cin x Cout (k odd) for conv2d
    bias: Tensor  # Dout or Cout


@dataclass(frozen=True)
class SppGrid:
    grid_size: int = 6
    feature_stride: int = 1


def _patches(a: np.ndarray, k: int) -> np.ndarray:
    """The (h*w, k*k*C) patch matrix of an h x w x C map zero-padded by
    k // 2: row i*w + j holds window (i, j), its columns ordered (a, b, c)."""
    h, w, c = a.shape
    p = k // 2
    ap = np.zeros((h + 2 * p, w + 2 * p, c), a.dtype)
    ap[p : p + h, p : p + w] = a
    windows = as_strided(ap, (h, w, k, k, c), ap.strides[:2] * 2 + ap.strides[2:])
    return windows.reshape(h * w, k * k * c)


def conv2d(x: Tensor, layer: Layer) -> Tensor:
    """2-D cross-correlation at stride 1 plus bias, zero-padded by k // 2
    so the output keeps the input's H x W; differentiable in x, weight,
    bias (no gradient is computed for an x that needs none)."""
    h, w, cin = x.data.shape
    k, k2, fcin, cout = layer.weight.data.shape
    if k != k2 or k % 2 == 0:
        raise TensorError(f"conv2d: kernel {k}x{k2} is not square with an odd side")
    if fcin != cin:
        raise TensorError(f"conv2d: input has {cin} channels, filters expect {fcin}")

    cols = _patches(x.data, k)
    wmat = layer.weight.data.reshape(k * k * cin, cout)
    out = (cols @ wmat).reshape(h, w, cout)
    out += layer.bias.data

    def bwd(g):
        gm = g.reshape(h * w, cout)
        gw = (cols.T @ gm).reshape(k, k, cin, cout)
        gb = gm.sum(axis=0)
        if not x.requires_grad:  # the image: no input gradient
            return (None, gw, gb)
        # A transposed convolution: the output gradient, zero-padded by k // 2,
        # correlated with the filters flipped in space and transposed in channels.
        wflip = layer.weight.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
        return ((_patches(g, k) @ wflip).reshape(h, w, cin), gw, gb)

    return make_op(out, (x, layer.weight, layer.bias), bwd, "conv2d")


def relu(x: Tensor) -> Tensor:
    def bwd(g):
        return (g * (x.data > 0),)

    return make_op(np.maximum(x.data, 0.0), (x,), bwd, "relu")


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return make_op(out, (x,), bwd, "sigmoid")


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of an M x K matrix, computed with max subtraction."""
    if x.data.ndim != 2:
        raise TensorError("softmax_rows expects a 2-D tensor")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return make_op(p, (x,), bwd, "softmax_rows")


def max_pool2d(x: Tensor) -> Tensor:
    """Channelwise max over 2 x 2 windows at stride 2 (a trailing odd row or
    column is dropped); gradient goes to the first row-major argmax of each
    window."""
    h, w, c = x.data.shape
    if h < 2 or w < 2:
        raise TensorError(f"max_pool2d: 2x2 window invalid for {h}x{w} input")
    ho, wo = h // 2, w // 2
    # Window offsets, row-major; offset (du, dv) of every window is one
    # strided (ho, wo, c) view of the map, and each cell is in one window.
    offsets = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def view(a, du, dv):
        return a[du : 2 * ho : 2, dv : 2 * wo : 2]

    out = view(x.data, 0, 0).copy()
    for du, dv in offsets[1:]:
        np.maximum(view(x.data, du, dv), out, out=out)  # a tie keeps `out`

    def bwd(g):
        gx = np.zeros((h, w, c), dtype=x.data.dtype)
        left = np.ones(out.shape, dtype=bool)  # windows not yet routed
        for du, dv in offsets[:-1]:
            hit = view(x.data, du, dv) == out
            hit &= left
            left ^= hit
            np.multiply(g, hit, out=view(gx, du, dv))
        np.multiply(g, left, out=view(gx, *offsets[-1]))  # the max of every window left
        # A window's -0.0 becomes +0.0, as when it is added onto a zero map.
        gx += 0.0
        return (gx,)

    return make_op(out, (x,), bwd, "max_pool2d")


def global_max_pool(x: Tensor) -> Tensor:
    """H x W x C -> C, max over all spatial cells (first argmax on ties)."""
    h, w, c = x.data.shape
    flat = x.data.reshape(h * w, c)
    arg = flat.argmax(axis=0)
    out = flat[arg, np.arange(c)]

    def bwd(g):
        gx = np.zeros((h * w, c), dtype=x.data.dtype)
        gx[arg, np.arange(c)] = g
        return (gx.reshape(h, w, c),)

    return make_op(out, (x,), bwd, "global_max_pool")


def fully_connected(x: Tensor, layer: Layer) -> Tensor:
    """x @ W + b for a Din vector or an N x Din batch of rows."""
    wd, bd = layer.weight.data, layer.bias.data
    vec = x.data.ndim == 1
    if x.data.shape[-1] != wd.shape[0]:
        raise TensorError(
            f"fully_connected: input dim {x.data.shape[-1]} vs weight {wd.shape}"
        )
    xd = x.data[None, :] if vec else x.data
    out = xd @ wd
    out += bd

    def bwd(g):
        gm = g[None, :] if vec else g
        gw = xd.T @ gm
        gb = gm.sum(axis=0)
        gx = gm @ wd.T
        return (gx[0] if vec else gx, gw, gb)

    return make_op(out[0] if vec else out, (x, layer.weight, layer.bias), bwd, "fully_connected")


def stack_channels(tensors) -> Tensor:
    """Concatenate tensors along the last (channel) axis; all leading
    dimensions must match."""
    tensors = list(tensors)
    lead = tensors[0].data.shape[:-1]
    for t in tensors:
        if t.data.shape[:-1] != lead:
            raise TensorError(
                f"stack_channels: leading shape mismatch {t.data.shape[:-1]} vs {lead}"
            )
    out = np.concatenate([t.data for t in tensors], axis=-1)
    ends = np.cumsum([0] + [t.data.shape[-1] for t in tensors]).tolist()

    def bwd(g):
        return [g[..., a:b] for a, b in zip(ends, ends[1:])]

    return make_op(out, tuple(tensors), bwd, "stack_channels")


def feature_footprints(boxes, stride: int, h: int, w: int) -> np.ndarray:
    """Map (M, 4) image-coordinate (x1, y1, x2, y2) boxes to feature-map cell
    bounds [r0, r1) x [c0, c1), as an (M, 4) [r0, r1, c0, c1] array: floor
    for starts, ceil for ends, clamped to cover at least one cell."""
    c0 = np.clip(np.floor(boxes[:, 0] / stride).astype(np.int64), 0, w - 1)
    r0 = np.clip(np.floor(boxes[:, 1] / stride).astype(np.int64), 0, h - 1)
    c1 = np.clip(np.ceil(boxes[:, 2] / stride).astype(np.int64), c0 + 1, w)
    r1 = np.clip(np.ceil(boxes[:, 3] / stride).astype(np.int64), r0 + 1, h)
    return np.stack([r0, r1, c0, c1], axis=1)


def _batch_bin_index(start: np.ndarray, stop: np.ndarray, g: int):
    """(idx, real): absolute gather indices (M, g, L) for per-region clamped
    bins over the [start, stop) cell ranges of n cells, and whether each is
    a cell of its bin rather than a pad. Bin i nominally spans
    [floor(i*n/g), floor((i+1)*n/g)); an empty bin collapses to the single
    cell at its clamped start. Padding repeats each bin's last cell, so a
    strict-`>` scan in row-major order keeps the first max, never a pad."""
    n = (stop - start)[:, None]
    i = np.arange(g)[None, :]
    starts = np.minimum((i * n) // g, n - 1)
    ends = np.maximum(((i + 1) * n) // g, starts + 1)
    offset = np.arange(int((ends - starts).max()))[None, None, :]
    real = offset < (ends - starts)[:, :, None]
    idx = np.minimum(starts[:, :, None] + offset, (ends - 1)[:, :, None])
    return idx + start[:, None, None], real


def spp_pool(h: Tensor, box, grid: SppGrid) -> Tensor:
    """Fixed-grid max pooling of one image-coordinate box: G x G x C out
    (`spp_pool_regions` with one box and its `spp_layout`).
    Kept only for the benchmark, which binds it by name (ROADMAP item 1)."""
    boxes = np.asarray(box, dtype=np.float64).reshape(1, 4)
    row = spp_pool_regions(h, boxes, *spp_layout(boxes, grid, *h.data.shape[:2])[1:])
    return reshape(row, (grid.grid_size, grid.grid_size, h.data.shape[2]))


class SppPlan(NamedTuple):
    """How `spp_pool_regions`' backward sums its B = M*G*G bins' gradients
    onto the map. Column j of `rows` lists each bin that reads cell
    `cells[j]` once (pad repeats dropped), in (region, bin row, bin column)
    order, as `np.bincount` adds them, then B, a zero row, to the longest
    list's length. numpy sums an outer axis rank by rank only when a rank
    holds two or more values (one is summed pairwise): the last column is B."""

    cells: np.ndarray  # (n,) the flat map cells some bin reads, ascending
    rows: np.ndarray  # (R, n + 1) int32 bin rows; R is the most bins one cell is in


def _scatter_plan(cells: np.ndarray, real: np.ndarray, n_cells: int) -> SppPlan:
    """The `SppPlan` of (B, L) bin `cells` of an `n_cells`-cell map whose
    slots `real` marks: one stable small-int sort of the slots by cell, with
    the pads given cell `n_cells` so they sort last, and `np.bincount` runs."""
    slot_cell = np.where(real, cells, n_cells).astype(np.min_scalar_type(n_cells)).ravel()
    order = np.argsort(slot_cell, kind="stable")  # each cell's slots in (bin, slot) order
    runs = np.bincount(slot_cell, minlength=n_cells + 1)[:n_cells]
    hit = np.flatnonzero(runs)
    runs, n = runs[hit], len(hit) + 1
    slots = runs.sum()
    # sorted slot i goes to rank i - (its run's start), column (its cell's rank in hit)
    at = np.arange(slots) * n + np.repeat(np.arange(len(hit)) - (np.cumsum(runs) - runs) * n, runs)
    rows = np.full(runs.max() * n, len(cells), np.int32)
    rows[at] = order[:slots] // cells.shape[1]
    return SppPlan(hit, rows.reshape(-1, n))


def spp_layout(boxes: np.ndarray, grid: SppGrid, hh: int, ww: int) -> tuple:
    """(footprints, cells, plan) of an (M, 4) box set on an hh x ww map: the
    boxes' `feature_footprints` at the grid's stride, the (M, g, g, L)
    flat cell indices of every bin's candidates, row-major in each bin, and
    their `SppPlan`. TensorError names the first degenerate or non-finite box."""
    x1, y1, x2, y2 = boxes.T
    bad = np.nonzero(~np.isfinite(boxes).all(axis=1) | (x2 <= x1) | (y2 <= y1))[0]
    if bad.size:
        i = int(bad[0])
        raise TensorError(f"spp_pool: degenerate/non-finite box {boxes[i].tolist()} (region {i})")
    g = grid.grid_size
    fp = feature_footprints(boxes, grid.feature_stride, hh, ww)
    ridx, rreal = _batch_bin_index(fp[:, 0], fp[:, 1], g)  # (M, g, Lr)
    cidx, creal = _batch_bin_index(fp[:, 2], fp[:, 3], g)  # (M, g, Lc)
    cells = ridx[:, :, None, :, None] * ww + cidx[:, None, :, None, :]
    real = rreal[:, :, None, :, None] & creal[:, None, :, None, :]
    bins = len(boxes) * g * g
    plan = _scatter_plan(cells.reshape(bins, -1), real.reshape(bins, -1), hh * ww)
    return fp, cells.reshape(len(boxes), g, g, -1), plan


def spp_pool_regions(h: Tensor, boxes: np.ndarray, cells: np.ndarray, plan: SppPlan) -> Tensor:
    """Batched SPP over (M, 4) image-coordinate boxes and the bin `cells`
    and `plan` `spp_layout` built of them on h's map, one tape node: a row
    gather per bin cell and a strict-`>` scan; the backward gathers the
    output gradient's rows in plan order and sums each cell's in float64,
    in `np.bincount`'s order, rounding once. Returns the (M, G*G*C) rows a
    region fc1 reads, bin-major (row-major over the G x G grid), then channel."""
    hh, ww, c = h.data.shape
    if len(cells) != len(boxes):
        raise TensorError(f"spp_pool: {len(cells)} regions' cells for {len(boxes)} boxes")
    rows = h.data.reshape(hh * ww, c)
    out = np.take(rows, cells[..., 0], axis=0)
    win = cells[..., :1]  # winning cell of each bin and channel (broadcast until one differs)
    for k in range(1, cells.shape[3]):
        cand = np.take(rows, cells[..., k], axis=0)
        take = cand > out
        np.copyto(out, cand, where=take)
        win = np.where(take, cells[..., k : k + 1], win)

    def bwd(gout):
        g = np.concatenate([gout.reshape(-1, c), np.zeros((1, c), gout.dtype)])  # pads read row B
        slots = np.take(g, plan.rows, axis=0)  # (R, n + 1, C): each cell's bins, rank by rank
        if cells.shape[3] > 1:  # some bin has several cells: a slot keeps the channels it won
            winner = np.take(win.reshape(len(g) - 1, -1), plan.rows, axis=0, mode="clip")
            slots *= winner == np.append(plan.cells, -1)[:, None]
        sums = np.add.reduce(slots, axis=0, dtype=np.float64, initial=0.0)
        gh = np.zeros((hh * ww, c), h.data.dtype)
        gh[plan.cells] = sums[:-1]
        return (gh.reshape(hh, ww, c),)

    return make_op(out.reshape(len(out), -1), (h,), bwd, "spp_pool_regions")
