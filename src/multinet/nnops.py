"""Neural network layers on top of the tensor engine.

Feature maps are H x W x C arrays of the parameters' dtype (float32 for
the model; see `tensor`): every op computes in the dtype of its inputs,
forward and backward, and float64 scatter sums are rounded back to it
once. Pooling ops route gradients to the first (row-major) argmax so
backward passes are deterministic even on tied values.

The window ops keep no index table: they read the map through one strided
view per window offset. `conv2d` copies the windows into a
(h*w, k*k*Cin) patch matrix for its GEMMs and adds its input gradient
back one offset view at a time. `max_pool2d` pools 2 x 2 windows at
stride 2 and copies no window: its forward is a running `np.maximum` over
the four views (row-major), which keeps the earlier value on ties, and its
backward scans them in the same order and writes each window's gradient to
the first one that equals the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, TensorError, make_op, reshape

__all__ = [
    "Layer",
    "SppGrid",
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
    p = k // 2

    xp = np.pad(x.data, ((p, p), (p, p), (0, 0))) if p else x.data
    windows = sliding_window_view(xp, (k, k), axis=(0, 1))  # (h, w, cin, k, k)
    cols = windows.transpose(0, 1, 3, 4, 2).reshape(h * w, k * k * cin)
    wmat = layer.weight.data.reshape(k * k * cin, cout)
    out = (cols @ wmat + layer.bias.data[None, :]).reshape(h, w, cout)

    def bwd(g):
        gm = g.reshape(h * w, cout)
        gw = (cols.T @ gm).reshape(k, k, cin, cout)
        gb = gm.sum(axis=0)
        if not x.requires_grad:  # the image: no input gradient
            return (None, gw, gb)
        gcols = (gm @ wmat.T).reshape(h, w, k, k, cin)
        # Summed in float64, rounded once. Window (i, j) reads cell
        # (i + a, j + b) at offset (a, b): later offsets first, so each cell
        # sums its windows in row-major order.
        gxp = np.zeros(xp.shape)
        for a in reversed(range(k)):
            for b in reversed(range(k)):
                gv = gxp[a : a + h, b : b + w]
                gv += gcols[:, :, a, b]
        gx = gxp[p : p + h, p : p + w]
        return (gx.astype(x.data.dtype, copy=False), gw, gb)

    return make_op(out, (x, layer.weight, layer.bias), bwd, "conv2d")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g):
        return (g * mask,)

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
    out = xd @ wd + bd[None, :]

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
    splits = np.cumsum([t.data.shape[-1] for t in tensors])[:-1]

    def bwd(g):
        return np.split(g, splits, axis=-1)

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
    """Absolute gather indices (M, g, L) for per-region clamped bins over
    the [start, stop) cell ranges of n cells: bin i nominally spans
    [floor(i*n/g), floor((i+1)*n/g)); an empty bin collapses to the single
    cell at its clamped start. Padding repeats each bin's last cell, so a
    strict-`>` scan in row-major order keeps the first max, never a pad."""
    n = (stop - start)[:, None]
    i = np.arange(g)[None, :]
    starts = np.minimum((i * n) // g, n - 1)
    ends = np.maximum(((i + 1) * n) // g, starts + 1)
    length = int((ends - starts).max())
    idx = starts[:, :, None] + np.arange(length)[None, None, :]
    idx = np.minimum(idx, (ends - 1)[:, :, None])
    return idx + start[:, None, None]


def spp_pool(h: Tensor, box, grid: SppGrid) -> Tensor:
    """Fixed-grid max pooling of one image-coordinate box: G x G x C out
    (`spp_pool_regions` with one box).
    Kept only for the benchmark, which binds it by name (ROADMAP item 1)."""
    row = spp_pool_regions(h, np.asarray(box, dtype=np.float64).reshape(1, 4), grid)
    return reshape(row, (grid.grid_size, grid.grid_size, h.data.shape[2]))


# Layout of the last box set `spp_layout` built, keyed by the boxes' bytes,
# dtype and shape, the grid and the map shape.
_SPP_LAYOUT: dict = {}


def spp_layout(boxes: np.ndarray, grid: SppGrid, hh: int, ww: int) -> tuple:
    """(footprints, cells) of an (M, 4) box set on an hh x ww map, built
    once per box set: the boxes' `feature_footprints` at the grid's stride,
    and the (M, g, g, L) flat cell indices of every bin's candidates,
    row-major in each bin. Boxes byte-equal to the memo's key passed the
    degenerate and non-finite check when it was built."""
    key = (boxes.tobytes(), boxes.dtype.str, boxes.shape, grid, hh, ww)
    hit = _SPP_LAYOUT.get(key)
    if hit is not None:
        return hit
    x1, y1, x2, y2 = boxes.T
    bad = np.nonzero(~np.isfinite(boxes).all(axis=1) | (x2 <= x1) | (y2 <= y1))[0]
    if bad.size:
        i = int(bad[0])
        raise TensorError(f"spp_pool: degenerate/non-finite box {boxes[i].tolist()} (region {i})")
    g = grid.grid_size
    fp = feature_footprints(boxes, grid.feature_stride, hh, ww)
    ridx = _batch_bin_index(fp[:, 0], fp[:, 1], g)  # (M, g, Lr)
    cidx = _batch_bin_index(fp[:, 2], fp[:, 3], g)  # (M, g, Lc)
    cells = ridx[:, :, None, :, None] * ww + cidx[:, None, :, None, :]
    cells = cells.reshape(len(boxes), g, g, -1)
    _SPP_LAYOUT.clear()
    _SPP_LAYOUT[key] = fp, cells
    return fp, cells


def spp_pool_regions(h: Tensor, boxes: np.ndarray, grid: SppGrid) -> Tensor:
    """Batched SPP over (M, 4) image-coordinate boxes, one tape node: a row
    gather per bin cell, a strict-`>` scan, one scatter. Returns the
    (M, G*G*C) rows a region fc1 reads, bin-major (row-major over the
    G x G grid), then channel."""
    hh, ww, c = h.data.shape
    _, cells = spp_layout(boxes, grid, hh, ww)
    rows = h.data.reshape(hh * ww, c)
    out = rows[cells[..., 0]]
    win = cells[..., :1]  # winning cell of each bin and channel (broadcast until one differs)
    for k in range(1, cells.shape[3]):
        cand = rows[cells[..., k]]
        take = cand > out
        np.copyto(out, cand, where=take)
        win = np.where(take, cells[..., k : k + 1], win)

    def bwd(gout):
        lin = win * c + np.arange(c)
        gh = np.bincount(lin.ravel(), weights=gout.ravel(), minlength=hh * ww * c)
        return (gh.astype(h.data.dtype, copy=False).reshape(hh, ww, c),)

    return make_op(out.reshape(len(out), -1), (h,), bwd, "spp_pool_regions")
