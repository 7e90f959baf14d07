"""Losses, region-to-ground-truth assignment, and PASCAL-style AP metrics.

Boxes use the continuous-area convention: (x1, y1, x2, y2) with
area = (x2 - x1) * (y2 - y1) and no +1 pixel terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import Tensor, TensorError, make_op

__all__ = [
    "Box",
    "Detection",
    "RegionTargets",
    "RegionTask",
    "REGION_TASKS",
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


@dataclass(frozen=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"degenerate box {self.as_tuple()}")

    def as_tuple(self):
        return (self.x1, self.y1, self.x2, self.y2)

    def __iter__(self):
        return iter(self.as_tuple())

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class Detection:
    box: Box
    class_index: int
    score: float
    image_index: int = 0


@dataclass
class RegionTargets:
    """Per-region label (IGNORE, 0 = background, k >= 1 = class) and, for
    foreground regions, (tx, ty, tw, th) regression targets."""

    labels: np.ndarray  # (M,) int
    deltas: np.ndarray  # (M, 4) float, valid only where labels >= 1


class RegionTask(NamedTuple):
    """A Fast R-CNN-style region task (softmax scores + box deltas per
    region). `name` prefixes its parameters and metrics; `gt_field` names the
    Scene list of (class, Box, ...) ground truth; `match_iou` is the overlap
    a detection needs to match that ground truth in AP."""

    name: str
    gt_field: str
    match_iou: float

    def ground_truth(self, scene) -> list:
        """(class, Box) pairs of one scene."""
        return [(g[0], g[1]) for g in getattr(scene, self.gt_field)]


REGION_TASKS = {
    t.name: t for t in (RegionTask("det", "objects", 0.5), RegionTask("part", "parts", 0.4))
}


def iou(a: Box, b: Box) -> float:
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def bce_multilabel(pred: Tensor, gt) -> Tensor:
    """Multi-label binary cross-entropy over C independent class
    probabilities; logs clamped at 1e-12."""
    gt = np.asarray(gt, dtype=np.float64)
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
        gs = np.zeros((m, k1))
        gs[np.arange(m), labels] = np.where(
            picked > LOG_CLAMP, -1.0 / (m * picked), 0.0
        )
        return (float(g) * gs,)

    return make_op(np.asarray(loss), (scores,), bwd, "softmax_ce")


def _center_form(b: Box):
    return (
        0.5 * (b.x1 + b.x2),
        0.5 * (b.y1 + b.y2),
        b.x2 - b.x1,
        b.y2 - b.y1,
    )


def bbox_encode(proposal: Box, gt: Box) -> np.ndarray:
    px, py, pw, ph = _center_form(proposal)
    gx, gy, gw, gh = _center_form(gt)
    return np.array([(gx - px) / pw, (gy - py) / ph, np.log(gw / pw), np.log(gh / ph)])


def bbox_decode(proposal: Box, deltas) -> Box:
    tx, ty, tw, th = np.asarray(deltas, dtype=np.float64)
    px, py, pw, ph = _center_form(proposal)
    cx, cy = px + tx * pw, py + ty * ph
    w, h = pw * np.exp(tw), ph * np.exp(th)
    return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def smooth_l1(deltas: Tensor, targets, mask) -> Tensor:
    """Smooth-L1 over masked entries, normalized by the foreground count.

    `mask` is an indicator of the 4 target columns of each foreground
    region; the foreground count is mask.sum() / 4. Zero foreground gives
    loss 0.
    """
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
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


def assign_regions(
    regions,
    gt_objects,
    fg_iou: float = 0.5,
    bg_iou=(0.1, 0.5),
) -> RegionTargets:
    """Label each region against ground truth (class, Box) pairs.

    Foreground when max IoU >= fg_iou (ties go to the lowest gt index),
    background when max IoU lies in [bg_iou[0], bg_iou[1]), IGNORE
    otherwise. Classes are 1-based; 0 is background.
    """
    m = len(regions)
    labels = np.full(m, IGNORE, dtype=np.int64)
    deltas = np.zeros((m, 4))
    if not gt_objects:
        labels[:] = 0
        return RegionTargets(labels, deltas)
    for i, r in enumerate(regions):
        ious = np.array([iou(r, g_box) for _, g_box in gt_objects])
        best = int(ious.argmax())  # argmax takes the lowest index on ties
        if ious[best] >= fg_iou:
            labels[i] = gt_objects[best][0]
            deltas[i] = bbox_encode(r, gt_objects[best][1])
        elif bg_iou[0] <= ious[best] < bg_iou[1]:
            labels[i] = 0
    return RegionTargets(labels, deltas)


def nms(boxes, scores, iou_thresh: float = NMS_IOU):
    """Greedy non-maximum suppression; returns kept indices, score-descending
    (stable on ties)."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    keep = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) <= iou_thresh for j in keep):
            keep.append(int(i))
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


def average_precision(dets, gts, iou_thresh: float) -> float:
    """AP for one class.

    dets: Detection list (any order); gts: dict image_index -> list[Box].
    Detections are ranked by score, matched greedily to the unmatched gt of
    highest IoU >= iou_thresh in their image; duplicates count as false
    positives.
    """
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return 0.0
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    matched = {img: np.zeros(len(v), dtype=bool) for img, v in gts.items()}
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        d = dets[i]
        cand = gts.get(d.image_index, [])
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(cand):
            ov = iou(d.box, g)
            if ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0 and best_iou >= iou_thresh and not matched[d.image_index][best_j]:
            matched[d.image_index][best_j] = True
            tp[rank] = 1.0
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
    proposals: list  # list[Box], length M


def _collect_detections(preds, task: str, n_classes: int, canvas: int):
    dets = {k: [] for k in range(1, n_classes + 1)}
    for img, p in enumerate(preds):
        scores, deltas = p.regions[task]
        for k in range(1, n_classes + 1):
            boxes, ss = [], []
            for m, prop in enumerate(p.proposals):
                b = bbox_decode(prop, deltas[m, 4 * k : 4 * k + 4])
                x1 = min(max(b.x1, 0.0), canvas - 1.0)
                y1 = min(max(b.y1, 0.0), canvas - 1.0)
                x2 = min(max(b.x2, x1 + 1e-3), float(canvas))
                y2 = min(max(b.y2, y1 + 1e-3), float(canvas))
                boxes.append(Box(x1, y1, x2, y2))
                ss.append(float(scores[m, k]))
            for i in nms(boxes, ss):
                dets[k].append(Detection(boxes[i], k, ss[i], img))
    return dets


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
            k_max = preds[0].regions[task.name][0].shape[1] - 1
            dets = _collect_detections(preds, task.name, k_max, canvas)
            aps = []
            for k in range(1, k_max + 1):
                gts = {
                    i: [b for cls, b in task.ground_truth(s) if cls == k]
                    for i, s in enumerate(scenes)
                }
                aps.append(average_precision(dets[k], gts, task.match_iou))
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
