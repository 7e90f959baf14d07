"""Losses, region-to-ground-truth assignment, and PASCAL-style AP metrics.

A set of N boxes is a float64 (N, 4) array of (x1, y1, x2, y2) rows, in the
continuous-area convention: area = (x2 - x1) * (y2 - y1) and no +1 pixel
terms. Their classes, where they have them, are a matching (N,) int array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import Tensor, TensorError, make_op

__all__ = [
    "RegionTargets",
    "RegionTask",
    "REGION_TASKS",
    "iou_matrix",
    "iou",
    "bce_multilabel",
    "softmax_ce",
    "bbox_encode",
    "bbox_decode",
    "smooth_l1",
    "assign_regions",
    "nms",
    "average_precision",
    "evaluate",
    "METRIC_CSV_COLUMNS",
    "metrics_to_rows",
]

LOG_CLAMP = 1e-12

IGNORE = -1  # assign_regions label for regions in neither fg nor bg range

NMS_IOU = 0.3  # overlap above which a lower-scoring detection is suppressed

FG_IOU = 0.5  # assign_regions: foreground at or above this overlap
BG_IOU = (0.1, 0.5)  # assign_regions: background within [lo, hi)


@dataclass
class RegionTargets:
    """Per-region label (IGNORE, 0 = background, k >= 1 = class) and, for
    foreground regions, (tx, ty, tw, th) regression targets."""

    labels: np.ndarray  # (M,) int
    deltas: np.ndarray  # (M, 4) float, valid only where labels >= 1


class RegionTask(NamedTuple):
    """A Fast R-CNN-style region task (softmax scores + box deltas per
    region). `name` prefixes its parameters and metrics; `gt_field` is the
    prefix of the Scene's `<gt_field>_classes` and `<gt_field>_boxes` ground
    truth; `match_iou` is the overlap a detection needs to match that ground
    truth in AP."""

    name: str
    gt_field: str
    match_iou: float

    def ground_truth(self, scene) -> tuple:
        """(classes (N,), boxes (N, 4)) of one scene."""
        field = self.gt_field
        return getattr(scene, f"{field}_classes"), getattr(scene, f"{field}_boxes")


REGION_TASKS = {
    t.name: t for t in (RegionTask("det", "object", 0.5), RegionTask("part", "part", 0.4))
}


def iou_matrix(a, b) -> np.ndarray:
    """(N, K) IoUs of (N, 4) boxes against (K, 4) boxes: 0 unless both
    overlaps are positive, else inter / (area_a + area_b - inter)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1, 4)
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    out = np.zeros(inter.shape)
    np.divide(inter, area_a + area_b - inter, out=out, where=(ix > 0) & (iy > 0))
    return out


def iou(a, b) -> float:
    """IoU of two boxes: the 1 x 1 case of `iou_matrix`."""
    return float(iou_matrix(a, b)[0, 0])


def bce_multilabel(pred: Tensor, gt) -> Tensor:
    """Multi-label binary cross-entropy over C independent class
    probabilities; logs clamped at 1e-12."""
    gt = np.asarray(gt, dtype=pred.data.dtype)
    if not np.all((gt == 0) | (gt == 1)):
        raise ValueError("bce_multilabel: ground truth must be binary")
    if gt.shape != pred.data.shape:
        raise TensorError(f"bce_multilabel: shapes {pred.data.shape} vs {gt.shape}")
    p = pred.data
    lp = np.log(np.maximum(p, LOG_CLAMP))
    lq = np.log(np.maximum(1.0 - p, LOG_CLAMP))
    loss = -(gt * lp + (1.0 - gt) * lq).sum()

    def bwd(g):
        gp = np.where(p > LOG_CLAMP, -gt / np.maximum(p, LOG_CLAMP), 0.0)
        gp += np.where(1.0 - p > LOG_CLAMP, (1.0 - gt) / np.maximum(1.0 - p, LOG_CLAMP), 0.0)
        return (float(g) * gp,)

    return make_op(np.asarray(loss), (pred,), bwd, "bce_multilabel")


def softmax_ce(scores: Tensor, labels) -> Tensor:
    """Mean negative log of the labelled entry of each row-stochastic row."""
    labels = np.asarray(labels, dtype=np.intp)
    m, k1 = scores.data.shape
    if labels.shape != (m,):
        raise TensorError(f"softmax_ce: {m} rows but {labels.shape} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= k1):
        raise ValueError(f"softmax_ce: label out of range [0, {k1 - 1}]")
    picked = scores.data[np.arange(m), labels]
    loss = -np.log(np.maximum(picked, LOG_CLAMP)).mean()

    def bwd(g):
        gs = np.zeros((m, k1), dtype=scores.data.dtype)
        gs[np.arange(m), labels] = np.where(
            picked > LOG_CLAMP, -1.0 / (m * picked), 0.0
        )
        return (float(g) * gs,)

    return make_op(np.asarray(loss), (scores,), bwd, "softmax_ce")


def _center_form(boxes):
    b = np.asarray(boxes, dtype=np.float64)
    return (
        0.5 * (b[..., 0] + b[..., 2]),
        0.5 * (b[..., 1] + b[..., 3]),
        b[..., 2] - b[..., 0],
        b[..., 3] - b[..., 1],
    )


def bbox_encode(proposals, gts) -> np.ndarray:
    """(tx, ty, tw, th) regression targets of boxes (..., 4) against
    ground truth boxes broadcast to the same shape."""
    px, py, pw, ph = _center_form(proposals)
    gx, gy, gw, gh = _center_form(gts)
    return np.stack([(gx - px) / pw, (gy - py) / ph, np.log(gw / pw), np.log(gh / ph)], axis=-1)


def bbox_decode(proposals, deltas) -> np.ndarray:
    """Boxes (..., 4) that `deltas` (..., 4) move `proposals` to; the
    inverse of `bbox_encode`."""
    px, py, pw, ph = _center_form(proposals)
    d = np.asarray(deltas, dtype=np.float64)
    cx, cy = px + d[..., 0] * pw, py + d[..., 1] * ph
    w, h = pw * np.exp(d[..., 2]), ph * np.exp(d[..., 3])
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


def smooth_l1(deltas: Tensor, targets, mask) -> Tensor:
    """Smooth-L1 over masked entries, normalized by the foreground count.

    `mask` is an indicator of the 4 target columns of each foreground
    region; the foreground count is mask.sum() / 4. Zero foreground gives
    loss 0.
    """
    targets = np.asarray(targets, dtype=deltas.data.dtype)
    mask = np.asarray(mask, dtype=deltas.data.dtype)
    if targets.shape != deltas.data.shape or mask.shape != deltas.data.shape:
        raise TensorError("smooth_l1: shape mismatch between deltas/targets/mask")
    n_fg = mask.sum() / 4.0
    denom = max(n_fg, 1.0)
    d = deltas.data - targets
    a = np.abs(d)
    per = np.where(a < 1.0, 0.5 * d * d, a - 0.5)
    loss = (mask * per).sum() / denom

    def bwd(g):
        gd = np.where(a < 1.0, d, np.sign(d))
        return (float(g) * mask * gd / denom,)

    return make_op(np.asarray(loss), (deltas,), bwd, "smooth_l1")


def assign_regions(regions, classes, gt_boxes) -> RegionTargets:
    """Label (M, 4) regions against ground truth: (G,) classes of (G, 4)
    boxes.

    Foreground when max IoU >= FG_IOU (ties go to the lowest gt index),
    background when max IoU lies in [BG_IOU[0], BG_IOU[1]), IGNORE
    otherwise. Classes are 1-based; 0 is background.
    """
    m = len(regions)
    labels = np.full(m, IGNORE, dtype=np.int64)
    deltas = np.zeros((m, 4))
    if len(gt_boxes) == 0:
        labels[:] = 0
        return RegionTargets(labels, deltas)
    ious = iou_matrix(regions, gt_boxes)
    best = ious.argmax(axis=1)  # argmax takes the lowest index on ties
    best_iou = ious[np.arange(m), best]
    fg = best_iou >= FG_IOU
    labels[fg] = classes[best[fg]]
    deltas[fg] = bbox_encode(regions[fg], gt_boxes[best[fg]])
    labels[~fg & (BG_IOU[0] <= best_iou) & (best_iou < BG_IOU[1])] = 0
    return RegionTargets(labels, deltas)


def nms(boxes, scores, iou_thresh: float = NMS_IOU):
    """Greedy non-maximum suppression of (N, 4) boxes; returns kept indices,
    score-descending (stable on ties). A box is dropped when its IoU with a
    kept box exceeds `iou_thresh`."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    overlaps = iou_matrix(boxes, boxes) > iou_thresh
    dropped = np.zeros(len(order), dtype=bool)
    keep = []
    for i in order:
        if not dropped[i]:
            keep.append(int(i))
            dropped |= overlaps[i]
    return keep


def _ranked_ap(tp: np.ndarray, n_pos: int) -> float:
    """All-point AP (area under the precision envelope) of a ranking given
    its true-positive indicators in rank order and the number of positives
    (> 0)."""
    ctp = np.cumsum(tp)
    recall = ctp / n_pos
    precision = ctp / np.arange(1, len(tp) + 1)
    # Precision envelope: running max from the right, integrated over recall.
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def average_precision(boxes, scores, images, gts, iou_thresh: float) -> float:
    """AP for one class.

    Detection i is the box `boxes[i]` (N, 4) with `scores[i]` in image
    `images[i]`; `gts[j]` is the (G, 4) ground truth of image j. Detections
    are ranked by score (stable on ties). Each one is compared with the gt of
    highest IoU in its image (the first on ties); it is a true positive when
    that IoU is >= iou_thresh (> 0) and no higher-ranked detection matched
    the same gt, so duplicates count as false positives.
    """
    n_gt = sum(len(g) for g in gts)
    if n_gt == 0:
        return 0.0
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)[order]
    images = np.asarray(images)[order]
    tp = np.zeros(len(order))
    for img, g in enumerate(gts):
        ranks = np.nonzero(images == img)[0]
        if ranks.size == 0 or len(g) == 0:
            continue
        ious = iou_matrix(boxes[ranks], g)
        best = ious.argmax(axis=1)
        hit = ious[np.arange(ranks.size), best] >= iou_thresh
        _, first = np.unique(best[hit], return_index=True)
        tp[ranks[hit][first]] = 1.0
    return _ranked_ap(tp, n_gt)


def ranked_binary_ap(scores, labels) -> float:
    """AP of a binary ranking task (used for image-level classification)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    return _ranked_ap((labels[order] == 1).astype(np.float64), n_pos)


@dataclass
class ScenePrediction:
    """Raw per-scene network outputs as plain arrays."""

    cls_scores: np.ndarray  # (C_cls,)
    regions: dict  # task -> (scores (M, K + 1) row-stochastic, deltas (M, 4 * (K + 1)))
    proposals: np.ndarray  # (M, 4) boxes


def _clip(v, lo, hi):
    """Elementwise `min(max(v, lo), hi)` with Python's tie rule: `v` is kept
    unless the bound is strictly beyond it."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _collect_detections(preds, task: str, canvas: int) -> list:
    """Per class k >= 1, the (boxes, scores, image indices) that NMS keeps
    in every scene: each proposal is decoded with the deltas of every class
    in one call and clipped to the canvas."""
    k1 = preds[0].regions[task][0].shape[1]
    found = [[] for _ in range(1, k1)]
    for img, p in enumerate(preds):
        scores, deltas = p.regions[task]
        b = bbox_decode(p.proposals[:, None, :], deltas.reshape(-1, k1, 4))
        x1 = _clip(b[..., 0], 0.0, canvas - 1.0)
        y1 = _clip(b[..., 1], 0.0, canvas - 1.0)
        x2 = _clip(b[..., 2], x1 + 1e-3, float(canvas))
        y2 = _clip(b[..., 3], y1 + 1e-3, float(canvas))
        boxes = np.stack([x1, y1, x2, y2], axis=-1)
        for k in range(1, k1):
            keep = nms(boxes[:, k], scores[:, k])
            found[k - 1].append((boxes[keep, k], scores[keep, k], np.full(len(keep), img)))
    return [tuple(np.concatenate(parts) for parts in zip(*f)) for f in found]


def evaluate(preds, scenes, n_classes: int, canvas: int = 64) -> dict:
    """Score predictions against ground-truth scenes.

    Returns {"cls_map", "det_ap", "part_ap", "cls_ap_per_class",
    "det_ap_per_class", "part_ap_per_class"}. Each region task the
    predictions carry is scored over the classes of its score columns; the
    entries of a task they lack are None.
    """
    if not scenes:
        raise ValueError("evaluate: empty dataset")
    # Image-level classification: rank images per class.
    cls_aps = []
    for c in range(n_classes):
        scores = [p.cls_scores[c] for p in preds]
        labels = [s.img_label[c] for s in scenes]
        cls_aps.append(ranked_binary_ap(scores, labels))
    out = {"cls_map": float(np.mean(cls_aps)), "cls_ap_per_class": cls_aps}
    for task in REGION_TASKS.values():
        aps = None
        if task.name in preds[0].regions:
            truth = [task.ground_truth(s) for s in scenes]
            aps = []
            for k, dets in enumerate(_collect_detections(preds, task.name, canvas), 1):
                gts = [boxes[classes == k] for classes, boxes in truth]
                aps.append(average_precision(*dets, gts, task.match_iou))
        out[f"{task.name}_ap"] = None if aps is None else float(np.mean(aps))
        out[f"{task.name}_ap_per_class"] = aps
    return out


METRIC_CSV_COLUMNS = ["run_id", "mode", "T", "seed", "metric_name", "class", "value"]


def metrics_to_rows(run_id, mode, t, seed, metrics) -> list:
    """Flatten an evaluate() dict to CSV rows with the fixed column order."""
    rows = []
    for name, per_class in (
        ("cls_ap", "cls_ap_per_class"),
        ("det_ap", "det_ap_per_class"),
        ("part_ap", "part_ap_per_class"),
    ):
        aps = metrics.get(per_class)
        if aps is None:
            continue
        for c, v in enumerate(aps):
            rows.append([run_id, mode, t, seed, name, c + 1 if name != "cls_ap" else c, f"{v:.6f}"])
    rows.append([run_id, mode, t, seed, "cls_map", "mean", f"{metrics['cls_map']:.6f}"])
    rows.append([run_id, mode, t, seed, "det_ap", "mean", f"{metrics['det_ap']:.6f}"])
    if metrics.get("part_ap") is not None:
        rows.append([run_id, mode, t, seed, "part_ap", "mean", f"{metrics['part_ap']:.6f}"])
    return rows
