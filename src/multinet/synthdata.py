"""Deterministic synthetic scenes (colored objects with sub-part bars) and a
region-proposal surrogate, plus the dataset file format (stored in a
`container` file).

Boxes are float64 (N, 4) arrays of (x1, y1, x2, y2) rows with matching (N,)
int class arrays, the format `tasks` and `nnops` take."""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import container, schema
from .tasks import iou_matrix
from .tensor import seed_rng

__all__ = [
    "SceneSpec",
    "Scene",
    "DatasetError",
    "generate_scene",
    "generate_dataset",
    "propose_regions",
    "write_dataset",
    "read_dataset",
]

MAGIC = b"MNSCENE\x00"
VERSION = 1

# One distinct color family per object class; parts reuse the family with a
# light (top bar) or dark (bottom bar) variant so part identity is visually
# tied to its parent class.
_BASE_COLORS = np.array(
    [
        [0.85, 0.15, 0.15],
        [0.15, 0.80, 0.15],
        [0.15, 0.25, 0.90],
        [0.90, 0.80, 0.10],
        [0.80, 0.15, 0.85],
        [0.10, 0.80, 0.80],
        [0.95, 0.55, 0.10],
        [0.55, 0.35, 0.20],
    ]
)


# Dataset records: a u32 class, its box as four <f8, and for a part the u32
# index of its parent object; packed, so each record is its fields' bytes.
_OBJECT = np.dtype([("cls", "<u4"), ("box", "<f8", (4,))])
_PART = np.dtype([("cls", "<u4"), ("box", "<f8", (4,)), ("parent", "<u4")])


class DatasetError(ValueError):
    """Corrupt, truncated, wrong-version or out-of-range dataset file."""


@dataclass(frozen=True)
class SceneSpec:
    canvas: int = 64
    n_classes: int = schema.bounded(5, least=1, most=len(_BASE_COLORS))
    parts_per_class: int = schema.bounded(2, choices=(0, 2))
    objects_min: int = schema.bounded(1, least=0)
    objects_max: int = 3
    noise_std: float = 0.02
    min_object_side: int = schema.bounded(16, least=16)  # below 16 breaks the 6px part floor
    max_object_side: int = 26
    seed: int = schema.bounded(0, least=0)

    @property
    def n_part_classes(self) -> int:
        return self.n_classes * self.parts_per_class

    def __post_init__(self):
        schema.check(self)
        if self.max_object_side >= self.canvas:
            raise schema.ConfigError(f"max_object_side {self.max_object_side} does not fit "
                                     f"the canvas {self.canvas}")
        if self.min_object_side > self.max_object_side:
            raise schema.ConfigError(f"min_object_side {self.min_object_side} is above "
                                     f"max_object_side {self.max_object_side}")
        if self.objects_min > self.objects_max:
            raise schema.ConfigError(f"objects_min {self.objects_min} is above objects_max "
                                     f"{self.objects_max}")


@dataclass
class Scene:
    image: np.ndarray  # (H, W, 3) in [0, 1]
    object_classes: np.ndarray  # (N,) int, 1..C
    object_boxes: np.ndarray  # (N, 4) float64
    part_classes: np.ndarray  # (P,) int, 1..n_part_classes
    part_boxes: np.ndarray  # (P, 4) float64
    part_parents: np.ndarray  # (P,) int, index of each part's object
    img_label: np.ndarray  # (C,) uint8


def _part_geometry(boxes):
    """Two horizontal bars strictly inside each of the (N, 4) object boxes:
    (top, bottom), each (N, 4)."""
    x1, y1, x2, y2 = boxes.T
    bar_h = np.maximum(6.0, np.floor((y2 - y1 - 4) / 3.0))
    top = np.stack([x1 + 2, y1 + 1, x2 - 2, y1 + 1 + bar_h], axis=1)
    bot = np.stack([x1 + 2, y2 - 1 - bar_h, x2 - 2, y2 - 1], axis=1)
    return top, bot


def _paint(img, box, color) -> None:
    x1, y1, x2, y2 = box.astype(int)
    img[y1:y2, x1:x2] = color


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """One scene, fully determined by (spec, seed)."""
    rng = seed_rng(spec.seed, seed)
    canvas = spec.canvas
    img = np.full((canvas, canvas, 3), 0.5)

    n_target = int(rng.integers(spec.objects_min, spec.objects_max + 1))
    boxes = np.zeros((0, 4))
    classes = []
    for _ in range(n_target):
        for _attempt in range(100):
            side_w = int(rng.integers(spec.min_object_side, spec.max_object_side + 1))
            side_h = int(rng.integers(spec.min_object_side, spec.max_object_side + 1))
            x1 = int(rng.integers(0, canvas - side_w + 1))
            y1 = int(rng.integers(0, canvas - side_h + 1))
            box = np.array([[x1, y1, x1 + side_w, y1 + side_h]], dtype=np.float64)
            if np.all(iou_matrix(box, boxes) < 0.1):
                break
        else:
            continue  # scene keeps fewer objects when the canvas is crowded
        classes.append(int(rng.integers(1, spec.n_classes + 1)))
        boxes = np.concatenate([boxes, box])
    classes = np.array(classes, dtype=np.int64)

    top, bot = _part_geometry(boxes)
    with_parts = spec.parts_per_class == 2
    for i, cls in enumerate(classes):
        color = _BASE_COLORS[cls - 1]
        _paint(img, boxes[i], color)
        if with_parts:
            _paint(img, top[i], 0.5 + 0.5 * color)
            _paint(img, bot[i], 0.35 * color)
    # Parts in object order, the top bar (class 2k - 1) before the bottom (2k).
    n_parts = 2 * len(classes) if with_parts else 0
    part_boxes = np.stack([top, bot], axis=1).reshape(-1, 4)[:n_parts]
    part_classes = (2 * classes[:, None] + np.array([-1, 0])).reshape(-1)[:n_parts]
    part_parents = np.repeat(np.arange(len(classes)), 2)[:n_parts]

    if spec.noise_std > 0:
        img = img + rng.normal(0.0, spec.noise_std, size=img.shape)
    img = np.clip(img, 0.0, 1.0)

    return Scene(img, classes, boxes, part_classes, part_boxes, part_parents,
                 _image_label(classes, spec.n_classes))


def _image_label(classes: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_classes,) uint8 label: 1 for every class with an object, else 0."""
    label = np.zeros(n_classes, dtype=np.uint8)
    label[classes - 1] = 1
    return label


def generate_dataset(spec: SceneSpec, n_scenes: int, offset: int = 0) -> list:
    return [generate_scene(spec, offset + i) for i in range(n_scenes)]


def _jitter(rng, boxes, canvas: int, frac: float = 0.15) -> np.ndarray:
    """The (K, 4) boxes with centers moved by up to `frac` of their size and
    sides scaled by up to 1 +- `frac` (four draws per box), kept on the
    canvas and at least one pixel wide."""
    u = rng.uniform(-frac, frac, (len(boxes), 4))
    lo, hi = boxes[:, :2], boxes[:, 2:]
    size = hi - lo
    center = 0.5 * (lo + hi) + u[:, :2] * size
    half = size * (1.0 + u[:, 2:]) / 2
    lo = np.minimum(np.maximum(center - half, 0.0), canvas - 2.0)
    hi = np.minimum(np.maximum(center + half, lo + 1.0), float(canvas))
    return np.concatenate([lo, hi], axis=1)


def _grid_boxes(canvas: int) -> np.ndarray:
    """Sliding windows of side 16, then 32, at stride 16, row by row."""
    grids = []
    for size in (16, 32):
        starts = np.arange(0, canvas - size + 1, 16, dtype=np.float64)
        y, x = (a.ravel() for a in np.meshgrid(starts, starts, indexing="ij"))
        grids.append(np.stack([x, y, x + size, y + size], axis=1))
    return np.concatenate(grids)


def propose_regions(scene: Scene, spec: SceneSpec, m: int, seed: int) -> np.ndarray:
    """(m, 4) candidate boxes: jittered ground truth (with a guaranteed
    IoU >= 0.7 hit per gt box), a sliding grid, and random fills."""
    gt = np.concatenate([scene.object_boxes, scene.part_boxes])
    n = len(gt)
    if m < n:
        raise ValueError(f"need at least {n} proposals, got {m}")
    rng = seed_rng(spec.seed, seed, 0x9E3779B9)
    canvas = spec.canvas
    # Guaranteed high-overlap proposal per gt box (recall floor at 0.7 IoU);
    # each retry draws for its own box only, so the draw order is fixed.
    hits = np.empty((n, 4))
    for i in range(n):
        g = gt[i : i + 1]
        cand = _jitter(rng, g, canvas)
        for _ in range(20):
            if iou_matrix(cand, g)[0, 0] >= 0.7:
                break
            cand = _jitter(rng, g, canvas)
        else:
            cand = g
        hits[i] = cand[0]
    # One extra looser jitter per gt box while room remains, then the grid.
    loose = _jitter(rng, gt[: min(n, m - n)], canvas, frac=0.3)
    proposals = np.concatenate([hits, loose, _grid_boxes(canvas)])[:m]
    # Random boxes fill the rest.
    fill = np.empty((m - len(proposals), 4))
    for row in fill:
        w = float(rng.integers(8, canvas // 2 + 1))
        h = float(rng.integers(8, canvas // 2 + 1))
        x1 = float(rng.integers(0, int(canvas - w) + 1))
        y1 = float(rng.integers(0, int(canvas - h) + 1))
        row[:] = (x1, y1, x1 + w, y1 + h)
    return np.concatenate([proposals, fill])


def _records(dtype, **fields) -> bytes:
    rec = np.empty(len(fields["cls"]), dtype)
    for name, values in fields.items():
        rec[name] = values
    return container.u32(len(rec)) + rec.tobytes()


def write_dataset(scenes, spec: SceneSpec, path) -> None:
    """Write scenes into a versioned, checksummed container."""
    chunks = [container.blob(json.dumps(dataclasses.asdict(spec), sort_keys=True).encode())]
    chunks.append(container.u32(len(scenes)))
    for s in scenes:
        h, w, _ = s.image.shape
        chunks.append(struct.pack("<HH", h, w))
        chunks.append(container.f8(s.image))
        chunks.append(_records(_OBJECT, cls=s.object_classes, box=s.object_boxes))
        chunks.append(_records(_PART, cls=s.part_classes, box=s.part_boxes,
                               parent=s.part_parents))
        chunks.append(container.blob(s.img_label.astype(np.uint8).tobytes()))
    container.write(path, MAGIC, VERSION, chunks)


def _read_records(r: container.Reader, dtype, scene: int, kind: str, n_classes: int):
    """(classes, boxes, record array) of one scene's `kind` records; a class
    outside [1, n_classes] or a non-finite or degenerate box fails `r`."""
    n = r.u32()
    rec = np.frombuffer(r.take(n * dtype.itemsize), dtype)
    classes, boxes = rec["cls"].astype(np.int64), rec["box"].copy()
    out = np.nonzero((classes < 1) | (classes > n_classes))[0]
    if out.size:
        r.fail(f"scene {scene}: {kind} {out[0]} has class {classes[out[0]]} "
               f"outside [1, {n_classes}]")
    ok = np.isfinite(boxes).all(axis=1) & (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    bad = np.nonzero(~ok)[0]
    if bad.size:
        r.fail(f"scene {scene}: {kind} {bad[0]} has a non-finite or degenerate box "
               f"{tuple(boxes[bad[0]].tolist())}")
    return classes, boxes, rec


def read_dataset(path):
    """Returns (spec, scenes); raises DatasetError on any corruption, a pixel
    that is non-finite or outside [0, 1] included."""
    r = container.Reader(path, MAGIC, VERSION, DatasetError, "dataset")
    try:
        spec = SceneSpec(**json.loads(r.blob().decode()))
    except (ValueError, TypeError) as e:
        r.fail(f"bad spec header: {e}")
    scenes = []
    for i in range(r.u32()):
        h, w = r.unpack("<HH")
        if (h, w) != (spec.canvas, spec.canvas):
            r.fail(f"scene {i}: image is {h} x {w}, not the spec's canvas "
                   f"{spec.canvas} x {spec.canvas}")
        img = r.f8((h, w, 3))
        bad = np.argwhere(~((img >= 0.0) & (img <= 1.0)))  # NaN fails both
        if bad.size:
            r.fail(f"scene {i}: pixel {tuple(bad[0].tolist())} is {img[tuple(bad[0])]}, "
                   f"not a finite value in [0, 1]")
        obj_classes, obj_boxes, _ = _read_records(r, _OBJECT, i, "object", spec.n_classes)
        part_classes, part_boxes, parts = _read_records(r, _PART, i, "part", spec.n_part_classes)
        parents = parts["parent"].astype(np.int64)
        orphan = np.nonzero(parents >= len(obj_classes))[0]
        if orphan.size:
            r.fail(f"scene {i}: part {orphan[0]} has parent {parents[orphan[0]]}, not one of "
                   f"the scene's {len(obj_classes)} objects")
        label = np.frombuffer(r.blob(), dtype=np.uint8).copy()
        if label.size != spec.n_classes:
            r.fail(f"scene {i}: image label has {label.size} entries, expected {spec.n_classes}")
        if not np.array_equal(label, _image_label(obj_classes, spec.n_classes)):
            r.fail(f"scene {i}: image label {label.tolist()} does not mark exactly the "
                   f"object classes {sorted(set(obj_classes.tolist()))}")
        scenes.append(Scene(img, obj_classes, obj_boxes, part_classes, part_boxes, parents, label))
    r.done()
    return spec, scenes
