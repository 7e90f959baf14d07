"""Losses, region-to-ground-truth assignment, and PASCAL-style AP metrics.

A set of N boxes is a float64 (N, 4) array of (x1, y1, x2, y2) rows, in the
continuous-area convention: area = (x2 - x1) * (y2 - y1) and no +1 pixel
terms. Their classes, where they have them, are a matching (N,) int array.

Scoring runs once per scene: `score_scene` decodes, suppresses and matches
one scene's detections against its own ground truth, since a detection's
true-positive flag depends on nothing else, and keeps only a `SceneRecord`
of scores, flags and gt counts. `evaluate` joins the records of any
multiset of scenes and computes each AP with `average_precision`.
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
    "match_detections",
    "average_precision",
    "SceneRecord",
    "score_scene",
    "evaluate",
    "SUMMARY_KEYS",
    "METRIC_CSV_COLUMNS",
    "metric_label",
    "summary_line",
    "metrics_to_rows",
]

LOG_CLAMP = 1e-12

IGNORE = -1  # assign_regions label for regions in neither fg nor bg range

NMS_IOU = 0.3  # overlap above which a lower-scoring detection is suppressed

FG_IOU = 0.5  # assign_regions: foreground at or above this overlap
BG_IOU = (0.1, 0.5)  # assign_regions: background within [lo, hi)


@dataclass
class RegionTargets:
    """Training targets of M regions in a task of K classes. `deltas` and
    `mask` have the layout of the region head's (M, 4 * (K + 1)) box output,
    class k in columns 4k..4k+3: a foreground region's (tx, ty, tw, th) and
    mask 1 sit in the columns of its label, and every other entry is 0."""

    labels: np.ndarray  # (M,) int: IGNORE, 0 = background, k >= 1 = class
    deltas: np.ndarray  # (M, 4 * (K + 1)) float
    mask: np.ndarray  # (M, 4 * (K + 1)) float, 0 or 1


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

# Each task's headline metric, in the order eval, ground, sweep and compare report them.
SUMMARY_KEYS = ("cls_map", *(f"{t}_ap" for t in REGION_TASKS))


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
    """IoU of two boxes: the 1 x 1 case of `iou_matrix`.
    Kept only for the benchmark, which binds it by name (ROADMAP item 1)."""
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


def assign_regions(regions, classes, gt_boxes, n_classes: int) -> RegionTargets:
    """Targets of (M, 4) regions against ground truth: (G,) classes in
    [1, n_classes] of (G, 4) boxes.

    Foreground when max IoU >= FG_IOU (ties go to the lowest gt index),
    background when max IoU lies in [BG_IOU[0], BG_IOU[1]), IGNORE
    otherwise. Classes are 1-based; 0 is background.
    """
    m = len(regions)
    labels = np.full(m, IGNORE, dtype=np.int64)
    deltas = np.zeros((m, n_classes + 1, 4))
    mask = np.zeros((m, n_classes + 1, 4))
    if len(gt_boxes) == 0:
        labels[:] = 0
    else:
        ious = iou_matrix(regions, gt_boxes)
        best = ious.argmax(axis=1)  # argmax takes the lowest index on ties
        best_iou = ious[np.arange(m), best]
        fg = best_iou >= FG_IOU
        labels[fg] = classes[best[fg]]
        deltas[fg, labels[fg]] = bbox_encode(regions[fg], gt_boxes[best[fg]])
        mask[fg, labels[fg]] = 1.0
        labels[~fg & (BG_IOU[0] <= best_iou) & (best_iou < BG_IOU[1])] = 0
    return RegionTargets(labels, deltas.reshape(m, -1), mask.reshape(m, -1))


def nms(boxes, scores):
    """Greedy non-maximum suppression of (N, 4) boxes; returns kept indices,
    score-descending (stable on ties). A box is dropped when its IoU with a
    kept box exceeds `NMS_IOU`."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    overlaps = iou_matrix(boxes, boxes) > NMS_IOU
    dropped = np.zeros(len(order), dtype=bool)
    keep = []
    for i in order:
        if not dropped[i]:
            keep.append(int(i))
            dropped |= overlaps[i]
    return keep


def match_detections(boxes, gt_boxes, iou_thresh: float) -> np.ndarray:
    """(N,) true-positive flags of one image's (N, 4) detections, ranked
    best first, against its (G, 4) ground truth of their class: each one is
    compared with the gt of highest IoU (the first on ties) and hits when
    that IoU is >= iou_thresh (> 0) and no higher-ranked detection matched
    the same gt, so duplicates count as false positives."""
    tp = np.zeros(len(boxes))
    if len(boxes) == 0 or len(gt_boxes) == 0:
        return tp
    ious = iou_matrix(boxes, gt_boxes)
    best = ious.argmax(axis=1)
    hit = np.nonzero(ious[np.arange(len(best)), best] >= iou_thresh)[0]
    _, first = np.unique(best[hit], return_index=True)
    tp[hit[first]] = 1.0
    return tp


def average_precision(scores, tp, n_pos: int) -> float:
    """All-point AP (area under the precision envelope) of detections with
    `scores` and true-positive flags `tp`, ranked by score (stable on ties),
    against `n_pos` positives; 0 when there are none."""
    if n_pos == 0:
        return 0.0
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    ctp = np.cumsum(np.asarray(tp, dtype=np.float64)[order])
    recall = ctp / n_pos
    precision = ctp / np.arange(1, len(ctp) + 1)
    # Precision envelope: running max from the right, integrated over recall.
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def ranked_binary_ap(scores, labels) -> float:
    """AP of a binary ranking task (used for image-level classification)."""
    positive = np.asarray(labels) == 1
    return average_precision(scores, positive, int(positive.sum()))


class SceneRecord(NamedTuple):
    """What AP needs of one scored scene."""

    cls_scores: np.ndarray  # (C_cls,)
    img_label: np.ndarray  # (C_cls,)
    # task -> per class k >= 1: (scores of the detections NMS keeps, in keep
    # order; their true-positive flags; the scene's gt count of class k)
    regions: dict


def score_scene(cls_scores, regions, proposals, scene, canvas: int) -> SceneRecord:
    """Score one scene's outputs: `regions` maps each region task to the
    (M, K + 1) scores and (M, 4 * (K + 1)) deltas of the (M, 4) `proposals`.
    Every proposal is decoded with the deltas of every class and clipped to
    the canvas, or TensorError names the task whose boxes decode to a
    non-finite value; per class k >= 1, NMS keeps boxes and
    `match_detections` flags them against the scene's ground truth."""
    rows = {}
    for name, (scores, deltas) in regions.items():
        task = REGION_TASKS[name]
        classes, gt = task.ground_truth(scene)
        k1 = scores.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # raised below, naming the task
            b = bbox_decode(proposals[:, None, :], deltas.reshape(-1, k1, 4))
        if not np.isfinite(b).all():
            raise TensorError(f"{name} deltas decode to non-finite boxes")
        x1 = np.clip(b[..., 0], 0.0, canvas - 1.0)
        y1 = np.clip(b[..., 1], 0.0, canvas - 1.0)
        x2 = np.clip(b[..., 2], x1 + 1e-3, float(canvas))
        y2 = np.clip(b[..., 3], y1 + 1e-3, float(canvas))
        boxes = np.stack([x1, y1, x2, y2], axis=-1)
        rows[name] = []
        for k in range(1, k1):
            keep = nms(boxes[:, k], scores[:, k])
            g = gt[classes == k]
            tp = match_detections(boxes[keep, k], g, task.match_iou)
            rows[name].append((scores[keep, k], tp, len(g)))
    return SceneRecord(np.array(cls_scores), scene.img_label, rows)


def evaluate(records, n_classes: int) -> dict:
    """AP over the scenes of `score_scene` records.

    Returns the `SUMMARY_KEYS` and each task's `<task>_ap_per_class` list.
    Each region task the records carry is scored over its classes; the
    entries of a task they lack are None. A scene's detections rank against
    every other scene's by score, and the stable sort keeps each scene's
    keep order on ties, so records can be joined in any order and repeated.
    """
    if not records:
        raise ValueError("evaluate: empty dataset")
    # Image-level classification: rank images per class.
    cls_scores = np.array([r.cls_scores for r in records])
    labels = np.array([r.img_label for r in records])
    cls_aps = [ranked_binary_ap(cls_scores[:, c], labels[:, c]) for c in range(n_classes)]
    out = {"cls_map": float(np.mean(cls_aps)), "cls_ap_per_class": cls_aps}
    for task in REGION_TASKS:
        aps = None
        if task in records[0].regions:
            aps = []
            for per_scene in zip(*(r.regions[task] for r in records)):
                scores, tp, n_gt = zip(*per_scene)
                aps.append(average_precision(np.concatenate(scores), np.concatenate(tp), sum(n_gt)))
        out[f"{task}_ap"] = None if aps is None else float(np.mean(aps))
        out[f"{task}_ap_per_class"] = aps
    return out


METRIC_CSV_COLUMNS = ["run_id", "mode", "T", "seed", "metric_name", "class", "value"]


def metric_label(key: str, with_iou: bool = False) -> str:
    """How reports name a `SUMMARY_KEYS` metric: "cls mAP", "det AP", and
    with `with_iou` a region task's AP match IoU as well, "det AP@0.5"."""
    task, kind = key.split("_")
    label = f"{task} {kind.replace('ap', 'AP')}"
    if with_iou and task in REGION_TASKS:
        label += f"@{REGION_TASKS[task].match_iou}"
    return label


def summary_line(metrics) -> str:
    """The headline metrics a run has, e.g. "cls mAP 0.981  det AP 0.917"."""
    return "  ".join(f"{metric_label(k)} {metrics[k]:.3f}"
                     for k in SUMMARY_KEYS if metrics[k] is not None)


def metrics_to_rows(run_id, mode, t, seed, metrics) -> list:
    """Flatten an evaluate() dict to CSV rows with the fixed column order:
    per-class APs (cls classes from 0, region classes from 1), then means."""
    rows = []
    for task in ("cls", *REGION_TASKS):
        first = 0 if task == "cls" else 1
        for c, v in enumerate(metrics.get(f"{task}_ap_per_class") or (), first):
            rows.append([run_id, mode, t, seed, f"{task}_ap", c, f"{v:.6f}"])
    for key in SUMMARY_KEYS:
        if metrics.get(key) is not None:
            rows.append([run_id, mode, t, seed, key, "mean", f"{metrics[key]:.6f}"])
    return rows
