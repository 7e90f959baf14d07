import hashlib
import json
import re
import struct

import numpy as np
import pytest

from multinet.synthdata import (
    DatasetError,
    SceneSpec,
    generate_dataset,
    generate_scene,
    propose_regions,
    read_dataset,
    write_dataset,
)
from multinet.tasks import iou, iou_matrix

from conftest import assert_same_scene, check_scene, reseal


class TestSceneGeneration:
    def test_determinism(self):
        spec = SceneSpec(seed=7)
        a = generate_scene(spec, 3)
        b = generate_scene(spec, 3)
        assert_same_scene(a, b)

    def test_different_seeds_differ(self):
        spec = SceneSpec(seed=7)
        a = generate_scene(spec, 0)
        b = generate_scene(spec, 1)
        assert not np.array_equal(a.image, b.image)

    def test_spec_seed_also_matters(self):
        a = generate_scene(SceneSpec(seed=0), 5)
        b = generate_scene(SceneSpec(seed=1), 5)
        assert not np.array_equal(a.image, b.image)

    def test_validation_sweep(self):
        spec = SceneSpec(seed=11)
        for scene in generate_dataset(spec, 1000):
            check_scene(scene, spec)

    def test_object_count_range(self):
        spec = SceneSpec(seed=2, objects_min=2, objects_max=3)
        counts = [len(generate_scene(spec, i).object_classes) for i in range(50)]
        # crowding may drop an object, never add one
        assert max(counts) <= 3 and min(counts) >= 1

    def test_pairwise_iou_constraint(self):
        spec = SceneSpec(seed=5, objects_min=3, objects_max=3)
        for i in range(100):
            s = generate_scene(spec, i)
            boxes = s.object_boxes
            for j in range(len(boxes)):
                for k in range(j + 1, len(boxes)):
                    assert iou(boxes[j], boxes[k]) < 0.1

    def test_parts_disabled(self):
        spec = SceneSpec(seed=0, parts_per_class=0)
        s = generate_scene(spec, 0)
        assert s.part_classes.shape == s.part_parents.shape == (0,)
        assert s.part_boxes.shape == (0, 4)
        check_scene(s, spec)

    def test_noise_free_image_is_clean(self):
        spec = SceneSpec(seed=0, noise_std=0.0)
        s = generate_scene(spec, 0)
        # Background cells are exactly the canvas gray.
        assert np.any(np.all(s.image == 0.5, axis=2))

    def test_invalid_spec_rejected(self):
        # At construction, before any scene is generated.
        with pytest.raises(ValueError, match="n_classes"):
            SceneSpec(n_classes=9)
        with pytest.raises(ValueError, match="parts_per_class"):
            SceneSpec(parts_per_class=1)
        with pytest.raises(ValueError, match="min_object_side"):
            SceneSpec(min_object_side=8)
        with pytest.raises(ValueError, match="max_object_side"):
            SceneSpec(max_object_side=70)

    @pytest.mark.parametrize("fields, message", [
        ({"objects_min": 3, "objects_max": 1}, "objects_min 3 is above objects_max 1"),
        ({"objects_min": -1}, "objects_min must be at least 0, got -1"),
        ({"min_object_side": 24, "max_object_side": 20},
         "min_object_side 24 is above max_object_side 20"),
        ({"noise_std": -0.1}, "noise_std must be finite and non-negative, got -0.1"),
        ({"noise_std": float("nan")}, "noise_std must be finite and non-negative, got nan"),
        ({"noise_std": float("inf")}, "noise_std must be finite and non-negative, got inf"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
    ], ids=["objects-range", "objects-negative", "side-range", "noise-negative", "noise-nan",
            "noise-inf", "seed-negative"])
    def test_inconsistent_spec_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SceneSpec(**fields)

    def test_equal_bounds_accepted(self):
        spec = SceneSpec(objects_min=0, objects_max=0, min_object_side=20, max_object_side=20,
                         noise_std=0.0)
        assert generate_scene(spec, 0).object_classes.size == 0


class TestProposals:
    def test_determinism(self):
        spec = SceneSpec(seed=4)
        s = generate_scene(spec, 2)
        a = propose_regions(s, spec, 64, 2)
        b = propose_regions(s, spec, 64, 2)
        assert a.tobytes() == b.tobytes()

    def test_count_and_bounds(self):
        spec = SceneSpec(seed=4)
        for i in range(20):
            s = generate_scene(spec, i)
            props = propose_regions(s, spec, 64, i)
            assert props.shape == (64, 4) and props.dtype == np.float64
            x1, y1, x2, y2 = props.T
            assert np.all((0 <= x1) & (x1 < x2) & (x2 <= spec.canvas))
            assert np.all((0 <= y1) & (y1 < y2) & (y2 <= spec.canvas))

    def test_recall_floor(self):
        # Every gt object and part box has a proposal with IoU >= 0.7.
        spec = SceneSpec(seed=8)
        for i in range(50):
            s = generate_scene(spec, i)
            props = propose_regions(s, spec, 64, i)
            gt = np.concatenate([s.object_boxes, s.part_boxes])
            assert np.all(iou_matrix(gt, props).max(axis=1) >= 0.7)

    def test_too_few_proposals_rejected(self):
        spec = SceneSpec(seed=0, objects_min=3, objects_max=3)
        s = generate_scene(spec, 0)
        need = len(s.object_classes) + len(s.part_classes)
        with pytest.raises(ValueError):
            propose_regions(s, spec, need - 1, 0)


class TestContainer:
    def _dataset(self, n=5, seed=3):
        spec = SceneSpec(seed=seed)
        return spec, generate_dataset(spec, n)

    def test_round_trip_lossless(self, tmp_path):
        spec, scenes = self._dataset()
        path = tmp_path / "d.bin"
        write_dataset(scenes, spec, path)
        spec2, scenes2 = read_dataset(path)
        assert spec2 == spec
        assert len(scenes2) == len(scenes)
        for a, b in zip(scenes, scenes2):
            assert_same_scene(a, b)
            assert b.object_boxes.dtype == b.part_boxes.dtype == np.float64

    def test_empty_dataset_round_trip(self, tmp_path):
        spec = SceneSpec()
        path = tmp_path / "d.bin"
        write_dataset([], spec, path)
        spec2, scenes2 = read_dataset(path)
        assert spec2 == spec and scenes2 == []

    def test_corrupted_byte_detected(self, tmp_path):
        spec, scenes = self._dataset(2)
        path = tmp_path / "d.bin"
        write_dataset(scenes, spec, path)
        raw = bytearray(path.read_bytes())
        r = np.random.default_rng(0)
        for _ in range(20):
            pos = int(r.integers(0, len(raw)))
            corrupt = bytearray(raw)
            corrupt[pos] ^= 0xFF
            path.write_bytes(bytes(corrupt))
            with pytest.raises(DatasetError):
                read_dataset(path)
        path.write_bytes(bytes(raw))
        read_dataset(path)  # pristine copy still loads

    def test_truncation_detected(self, tmp_path):
        spec, scenes = self._dataset(2)
        path = tmp_path / "d.bin"
        write_dataset(scenes, spec, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DatasetError):
            read_dataset(path)

    def test_tiny_file_detected(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"MNSCENE\x00")
        with pytest.raises(DatasetError, match="truncated"):
            read_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        spec, scenes = self._dataset(1)
        path = tmp_path / "d.bin"
        write_dataset(scenes, spec, path)
        reseal(path, lambda body: body + bytes(8))
        with pytest.raises(DatasetError, match="trailing bytes"):
            read_dataset(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec, scenes = self._dataset(3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_dataset(scenes, spec, a)
        spec2, scenes2 = read_dataset(a)
        write_dataset(scenes2, spec2, b)
        assert a.read_bytes() == b.read_bytes()


def image_offset(body):
    """Byte offset, in a dataset body, of scene 0's (H, W, 3) `<f8` image,
    after its u16 height and width."""
    pos = 8 + 4  # magic, version
    pos += 4 + struct.unpack_from("<I", body, pos)[0]  # spec blob
    return pos + 4 + 4  # scene count, height and width


def record_offsets(body):
    """Byte offsets, in a dataset body, of scene 0's first object record and
    first part record (each starts with its u32 class)."""
    pos = image_offset(body)
    h, w = struct.unpack_from("<HH", body, pos - 4)
    pos += 8 * h * w * 3
    n_objects = struct.unpack_from("<I", body, pos)[0]
    first_object = pos + 4
    return first_object, first_object + 36 * n_objects + 4


def label_offset(body):
    """Byte offset, in a dataset body, of scene 0's image-label blob (its
    u32 length, then one byte per class)."""
    parts = record_offsets(body)[1] - 4
    return parts + 4 + 40 * struct.unpack_from("<I", body, parts)[0]


def patched(body, offset, fmt, *values):
    out = bytearray(body)
    struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


def with_spec_header(body, header: bytes):
    """A dataset body with its spec header blob replaced by `header`."""
    n = struct.unpack_from("<I", body, 12)[0]
    return body[:12] + struct.pack("<I", len(header)) + header + body[16 + n :]


def with_spec_fields(body, **fields):
    """A dataset body with `fields` set in its JSON spec header."""
    n = struct.unpack_from("<I", body, 12)[0]
    return with_spec_header(body, json.dumps({**json.loads(body[16 : 16 + n]), **fields}).encode())


# A spec header field of the wrong JSON type, and the error that names it.
# A file of canvas-64 scenes with any of these loaded before, and a seed of
# 1.5 then failed in training with a bare TypeError.
WRONG_TYPED_SPEC_FIELDS = [
    pytest.param("seed", 1.5, "seed must be of type int, got 1.5", id="float-seed"),
    pytest.param("noise_std", True, "noise_std must be of type float, got True",
                 id="bool-noise-std"),
    pytest.param("canvas", 64.0, "canvas must be of type int, got 64.0", id="float-canvas"),
]


class TestDatasetValidation:
    """Faults that survive the checksum: `reseal` rewrites the digest, so
    only the reader's own checks can catch them."""

    @pytest.fixture
    def path(self, tmp_path):
        spec = SceneSpec(seed=3)
        path = tmp_path / "d.bin"
        write_dataset(generate_dataset(spec, 2), spec, path)
        return path

    def test_object_class_out_of_range_rejected(self, path):
        reseal(path, lambda body: patched(body, record_offsets(body)[0], "<I", 9))
        want = r"d.bin: scene 0: object 0 has class 9 outside \[1, 5\]"
        with pytest.raises(DatasetError, match=want):
            read_dataset(path)

    def test_part_class_out_of_range_rejected(self, path):
        reseal(path, lambda body: patched(body, record_offsets(body)[1], "<I", 0))
        with pytest.raises(DatasetError, match=r"scene 0: part 0 has class 0 outside \[1, 10\]"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "box",
        [(5.0, 5.0, 5.0, 9.0), (5.0, 9.0, 8.0, 2.0), (0.0, 0.0, np.inf, 4.0), (np.nan, 0, 4, 4)],
        ids=["zero-width", "flipped", "inf", "nan"],
    )
    def test_degenerate_box_rejected(self, path, box):
        reseal(path, lambda body: patched(body, record_offsets(body)[0] + 4, "<4d", *box))
        with pytest.raises(DatasetError, match="scene 0: object 0 has a non-finite or degenerate"):
            read_dataset(path)

    def test_degenerate_part_box_rejected(self, path):
        reseal(path, lambda body: patched(body, record_offsets(body)[1] + 4, "<4d", 3, 3, 2, 9))
        with pytest.raises(DatasetError, match="scene 0: part 0 has a non-finite or degenerate"):
            read_dataset(path)

    def test_part_of_no_object_rejected(self, path):
        # A part's u32 parent follows its class and box; scene 0 has 3 objects.
        reseal(path, lambda body: patched(body, record_offsets(body)[1] + 36, "<I", 7))
        want = r"d.bin: scene 0: part 0 has parent 7, not one of the scene's 3 objects"
        with pytest.raises(DatasetError, match=want):
            read_dataset(path)

    def test_image_off_the_canvas_rejected(self, tmp_path):
        # The spec's canvas is the size of every image the file holds.
        spec = SceneSpec(seed=3)
        scenes = generate_dataset(spec, 2)
        scenes[1].image = scenes[1].image[:32, :32]
        path = tmp_path / "d.bin"
        write_dataset(scenes, spec, path)
        want = r"d.bin: scene 1: image is 32 x 32, not the spec's canvas 64 x 64"
        with pytest.raises(DatasetError, match=want):
            read_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 5.0, -0.5],
                             ids=["nan", "inf", "above-one", "negative"])
    def test_pixel_outside_unit_range_rejected(self, path, value):
        # Before, a NaN pixel read without error and surfaced only as a
        # non-finite tensor in the forward, naming neither file nor scene.
        at = image_offset(path.read_bytes()) + 8 * 5  # pixel (0, 1), channel 2
        reseal(path, lambda body: patched(body, at, "<d", value))
        want = f"d.bin: scene 0: pixel (0, 1, 2) is {value}, not a finite value in [0, 1]"
        with pytest.raises(DatasetError, match=re.escape(want)):
            read_dataset(path)

    def test_short_image_label_rejected(self, path):
        def drop_last_class(body):
            at = label_offset(body)
            n = struct.unpack_from("<I", body, at)[0]
            short = struct.pack("<I", n - 1) + body[at + 4:at + 3 + n]
            return body[:at] + short + body[at + 4 + n:]

        reseal(path, drop_last_class)
        want = r"d.bin: scene 0: image label has 4 entries, expected 5"
        with pytest.raises(DatasetError, match=want):
            read_dataset(path)

    def test_zero_image_label_with_objects_rejected(self, path):
        reseal(path, lambda body: patched(body, label_offset(body) + 4, "<5B", 0, 0, 0, 0, 0))
        with pytest.raises(DatasetError,
                           match=r"scene 0: image label \[0, 0, 0, 0, 0\] does not mark exactly"):
            read_dataset(path)

    def test_unknown_spec_key_rejected(self, path):
        reseal(path, lambda body: with_spec_fields(body, colour=1))
        with pytest.raises(DatasetError, match="d.bin: bad spec header: .*colour"):
            read_dataset(path)

    def test_spec_header_without_a_field_rejected(self, tmp_path):
        # Before, a header without "seed" loaded as seed 0.
        path = tmp_path / "d.bin"
        write_dataset([], SceneSpec(seed=3), path)

        def drop_seed(body):
            n = struct.unpack_from("<I", body, 12)[0]
            header = json.loads(body[16 : 16 + n])
            del header["seed"]
            return with_spec_header(body, json.dumps(header).encode())

        reseal(path, drop_seed)
        want = f"dataset {path}: bad spec header: missing key 'seed'"
        with pytest.raises(DatasetError, match=f"^{re.escape(want)}$"):
            read_dataset(path)

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("parts_per_class", 1, "parts_per_class must be one of 0, 2, got 1",
                     id="parts_per_class-1"),
        pytest.param("max_object_side", 70, "max_object_side 70 does not fit the canvas 64",
                     id="max_object_side-70"),
        *WRONG_TYPED_SPEC_FIELDS,
    ])
    def test_invalid_spec_header_rejected(self, tmp_path, field, value, message):
        # A file with no scenes: only the spec's own check can catch it.
        path = tmp_path / "empty.bin"
        write_dataset([], SceneSpec(), path)
        reseal(path, lambda body: with_spec_fields(body, **{field: value}))
        want = f"dataset {path}: bad spec header: {message}"
        with pytest.raises(DatasetError, match=f"^{re.escape(want)}$"):
            read_dataset(path)

    @pytest.mark.parametrize("header", [b"{not json", b"[1, 2]", b"\xff\xfe"],
                             ids=["not-json", "not-an-object", "not-utf8"])
    def test_malformed_spec_header_rejected(self, path, header):
        reseal(path, lambda body: with_spec_header(body, header))
        with pytest.raises(DatasetError, match="bad spec header"):
            read_dataset(path)


class TestGenerationPin:
    """SHA-256 digests recorded before scenes and proposals became box
    arrays: the first 20 scenes of SceneSpec(seed=100) as `write_dataset`
    bytes, and their 64 proposals each as (64, 4) float64 arrays. They pin
    the random streams and the box arithmetic of generation."""

    SPEC = SceneSpec(seed=100)
    DATASET_SHA256 = "b5f7be43807dc62c7be8d30652320473ec3337f3a163e66107861cc6ac40bf20"
    PROPOSALS_SHA256 = "9bc69d7bea657f61cecda82af8d9e8c7807277dc72dbc9c8f2e78d37da8253a2"

    def test_dataset_bytes(self, tmp_path):
        path = tmp_path / "d.bin"
        write_dataset(generate_dataset(self.SPEC, 20), self.SPEC, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DATASET_SHA256

    def test_proposals(self):
        h = hashlib.sha256()
        for i, scene in enumerate(generate_dataset(self.SPEC, 20)):
            h.update(propose_regions(scene, self.SPEC, 64, i).tobytes())
        assert h.hexdigest() == self.PROPOSALS_SHA256
