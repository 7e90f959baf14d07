"""Deterministic synthetic scenes (colored objects with sub-part bars) and a
region-proposal surrogate, plus the dataset file format (stored in a
`container` file)."""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import container
from .tasks import Box, iou
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


class DatasetError(ValueError):
    """Corrupt, truncated, or wrong-version dataset file."""


@dataclass(frozen=True)
class SceneSpec:
    canvas: int = 64
    n_classes: int = 5
    parts_per_class: int = 2
    objects_min: int = 1
    objects_max: int = 3
    noise_std: float = 0.02
    min_object_side: int = 16
    max_object_side: int = 26
    seed: int = 0

    @property
    def n_part_classes(self) -> int:
        return self.n_classes * self.parts_per_class

    def validate(self):
        if self.n_classes < 1 or self.n_classes > len(_BASE_COLORS):
            raise ValueError(f"n_classes must be in [1, {len(_BASE_COLORS)}]")
        if self.parts_per_class not in (0, 2):
            raise ValueError("parts_per_class must be 0 or 2")
        if self.max_object_side >= self.canvas:
            raise ValueError("objects cannot fit the canvas")
        if self.min_object_side < 16:
            raise ValueError("min_object_side below 16 breaks the 6px part floor")


@dataclass
class Scene:
    image: np.ndarray  # (H, W, 3) in [0, 1]
    objects: list  # [(class 1..C, Box)]
    parts: list  # [(part-class 1..P, Box, parent-object index)]
    img_label: np.ndarray  # (C,) uint8

    def validate(self, spec: SceneSpec):
        assert self.image.shape == (spec.canvas, spec.canvas, 3)
        assert self.image.min() >= 0.0 and self.image.max() <= 1.0
        present = np.zeros(spec.n_classes, dtype=np.uint8)
        for cls, b in self.objects:
            assert 1 <= cls <= spec.n_classes
            assert 0 <= b.x1 < b.x2 <= spec.canvas and 0 <= b.y1 < b.y2 <= spec.canvas
            present[cls - 1] = 1
        assert np.array_equal(present, self.img_label)
        for pcls, pb, parent in self.parts:
            assert 1 <= pcls <= spec.n_part_classes
            _, ob = self.objects[parent]
            assert ob.x1 < pb.x1 and pb.x2 < ob.x2 and ob.y1 < pb.y1 and pb.y2 < ob.y2
            assert pb.x2 - pb.x1 >= 6 and pb.y2 - pb.y1 >= 6


def _part_geometry(ob: Box):
    """Two horizontal bars strictly inside the object box."""
    w, h = ob.x2 - ob.x1, ob.y2 - ob.y1
    bar_h = max(6.0, np.floor((h - 4) / 3.0))
    x1, x2 = ob.x1 + 2, ob.x2 - 2
    top = Box(x1, ob.y1 + 1, x2, ob.y1 + 1 + bar_h)
    bot = Box(x1, ob.y2 - 1 - bar_h, x2, ob.y2 - 1)
    return top, bot


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """One scene, fully determined by (spec, seed)."""
    spec.validate()
    rng = seed_rng(spec.seed, seed)
    canvas = spec.canvas
    img = np.full((canvas, canvas, 3), 0.5)

    n_target = int(rng.integers(spec.objects_min, spec.objects_max + 1))
    objects = []
    for _ in range(n_target):
        placed = False
        for _attempt in range(100):
            side_w = int(rng.integers(spec.min_object_side, spec.max_object_side + 1))
            side_h = int(rng.integers(spec.min_object_side, spec.max_object_side + 1))
            x1 = int(rng.integers(0, canvas - side_w + 1))
            y1 = int(rng.integers(0, canvas - side_h + 1))
            box = Box(float(x1), float(y1), float(x1 + side_w), float(y1 + side_h))
            if all(iou(box, ob) < 0.1 for _, ob in objects):
                placed = True
                break
        if not placed:
            continue  # scene keeps fewer objects when the canvas is crowded
        cls = int(rng.integers(1, spec.n_classes + 1))
        objects.append((cls, box))

    parts = []
    for idx, (cls, ob) in enumerate(objects):
        color = _BASE_COLORS[cls - 1]
        img[int(ob.y1) : int(ob.y2), int(ob.x1) : int(ob.x2)] = color
        if spec.parts_per_class == 2:
            top, bot = _part_geometry(ob)
            img[int(top.y1) : int(top.y2), int(top.x1) : int(top.x2)] = 0.5 + 0.5 * color
            img[int(bot.y1) : int(bot.y2), int(bot.x1) : int(bot.x2)] = 0.35 * color
            parts.append((2 * (cls - 1) + 1, top, idx))
            parts.append((2 * (cls - 1) + 2, bot, idx))

    if spec.noise_std > 0:
        img = img + rng.normal(0.0, spec.noise_std, size=img.shape)
    img = np.clip(img, 0.0, 1.0)

    label = np.zeros(spec.n_classes, dtype=np.uint8)
    for cls, _ in objects:
        label[cls - 1] = 1
    return Scene(img, objects, parts, label)


def generate_dataset(spec: SceneSpec, n_scenes: int, offset: int = 0) -> list:
    return [generate_scene(spec, offset + i) for i in range(n_scenes)]


def _jitter(rng, box: Box, canvas: int, frac: float = 0.15) -> Box:
    w, h = box.x2 - box.x1, box.y2 - box.y1
    dx, dy = rng.uniform(-frac, frac, 2) * (w, h)
    sw, sh = 1.0 + rng.uniform(-frac, frac, 2)
    cx, cy = 0.5 * (box.x1 + box.x2) + dx, 0.5 * (box.y1 + box.y2) + dy
    nw, nh = w * sw, h * sh
    x1 = min(max(cx - nw / 2, 0.0), canvas - 2.0)
    y1 = min(max(cy - nh / 2, 0.0), canvas - 2.0)
    x2 = min(max(cx + nw / 2, x1 + 1.0), float(canvas))
    y2 = min(max(cy + nh / 2, y1 + 1.0), float(canvas))
    return Box(x1, y1, x2, y2)


def propose_regions(scene: Scene, spec: SceneSpec, m: int, seed: int) -> list:
    """M candidate boxes: jittered ground truth (with a guaranteed
    IoU >= 0.7 hit per gt box), a sliding grid, and random fills."""
    gt_boxes = [b for _, b in scene.objects] + [b for _, b, _ in scene.parts]
    if m < len(gt_boxes):
        raise ValueError(f"need at least {len(gt_boxes)} proposals, got {m}")
    rng = seed_rng(spec.seed, seed, 0x9E3779B9)
    canvas = spec.canvas
    proposals = []
    # Guaranteed high-overlap proposal per gt box (recall floor at 0.7 IoU).
    for g in gt_boxes:
        cand = _jitter(rng, g, canvas)
        for _ in range(20):
            if iou(cand, g) >= 0.7:
                break
            cand = _jitter(rng, g, canvas)
        else:
            cand = g
        proposals.append(cand)
    # One extra looser jitter per gt box while room remains.
    for g in gt_boxes:
        if len(proposals) >= m:
            break
        proposals.append(_jitter(rng, g, canvas, frac=0.3))
    # Sliding-window grid.
    for size in (16, 32):
        for y in range(0, canvas - size + 1, 16):
            for x in range(0, canvas - size + 1, 16):
                if len(proposals) >= m:
                    break
                proposals.append(Box(float(x), float(y), float(x + size), float(y + size)))
    # Random boxes fill the rest.
    while len(proposals) < m:
        w = float(rng.integers(8, canvas // 2 + 1))
        h = float(rng.integers(8, canvas // 2 + 1))
        x1 = float(rng.integers(0, int(canvas - w) + 1))
        y1 = float(rng.integers(0, int(canvas - h) + 1))
        proposals.append(Box(x1, y1, x1 + w, y1 + h))
    return proposals[:m]


def _pack_box(b: Box) -> bytes:
    return struct.pack("<4d", b.x1, b.y1, b.x2, b.y2)


def write_dataset(scenes, spec: SceneSpec, path) -> None:
    """Write scenes into a versioned, checksummed container."""
    chunks = [container.blob(json.dumps(dataclasses.asdict(spec), sort_keys=True).encode())]
    chunks.append(container.u32(len(scenes)))
    for s in scenes:
        h, w, _ = s.image.shape
        chunks.append(struct.pack("<HH", h, w))
        chunks.append(container.f8(s.image))
        chunks.append(container.u32(len(s.objects)))
        for cls, b in s.objects:
            chunks.append(container.u32(cls) + _pack_box(b))
        chunks.append(container.u32(len(s.parts)))
        for cls, b, parent in s.parts:
            chunks.append(container.u32(cls) + _pack_box(b) + container.u32(parent))
        chunks.append(container.blob(s.img_label.astype(np.uint8).tobytes()))
    container.write(path, MAGIC, VERSION, chunks)


def read_dataset(path):
    """Returns (spec, scenes); raises DatasetError on any corruption."""
    r = container.Reader(path, MAGIC, VERSION, DatasetError, "dataset")
    spec = SceneSpec(**json.loads(r.blob().decode()))
    scenes = []
    for _ in range(r.u32()):
        h, w = r.unpack("<HH")
        img = r.f8((h, w, 3))
        objects = []
        for _ in range(r.u32()):
            cls = r.u32()
            objects.append((cls, Box(*r.unpack("<4d"))))
        parts = []
        for _ in range(r.u32()):
            cls = r.u32()
            box = Box(*r.unpack("<4d"))
            parts.append((cls, box, r.u32()))
        label = np.frombuffer(r.blob(), dtype=np.uint8).copy()
        scenes.append(Scene(img, objects, parts, label))
    r.done()
    return spec, scenes
