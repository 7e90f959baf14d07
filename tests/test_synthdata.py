import numpy as np
import pytest

from multinet.synthdata import (
    DatasetError,
    Scene,
    SceneSpec,
    generate_dataset,
    generate_scene,
    propose_regions,
    read_dataset,
    write_dataset,
)
from multinet.tasks import iou

from conftest import reseal


class TestSceneGeneration:
    def test_determinism(self):
        spec = SceneSpec(seed=7)
        a = generate_scene(spec, 3)
        b = generate_scene(spec, 3)
        np.testing.assert_array_equal(a.image, b.image)
        assert a.objects == b.objects
        assert a.parts == b.parts

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
            scene.validate(spec)

    def test_object_count_range(self):
        spec = SceneSpec(seed=2, objects_min=2, objects_max=3)
        counts = [len(generate_scene(spec, i).objects) for i in range(50)]
        # crowding may drop an object, never add one
        assert max(counts) <= 3 and min(counts) >= 1

    def test_pairwise_iou_constraint(self):
        spec = SceneSpec(seed=5, objects_min=3, objects_max=3)
        for i in range(100):
            s = generate_scene(spec, i)
            boxes = [b for _, b in s.objects]
            for j in range(len(boxes)):
                for k in range(j + 1, len(boxes)):
                    assert iou(boxes[j], boxes[k]) < 0.1

    def test_parts_disabled(self):
        spec = SceneSpec(seed=0, parts_per_class=0)
        s = generate_scene(spec, 0)
        assert s.parts == []
        s.validate(spec)

    def test_noise_free_image_is_clean(self):
        spec = SceneSpec(seed=0, noise_std=0.0)
        s = generate_scene(spec, 0)
        # Background cells are exactly the canvas gray.
        assert np.any(np.all(s.image == 0.5, axis=2))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(n_classes=9).validate()
        with pytest.raises(ValueError):
            SceneSpec(parts_per_class=1).validate()
        with pytest.raises(ValueError):
            SceneSpec(min_object_side=8).validate()
        with pytest.raises(ValueError):
            SceneSpec(max_object_side=70).validate()


class TestProposals:
    def test_determinism(self):
        spec = SceneSpec(seed=4)
        s = generate_scene(spec, 2)
        a = propose_regions(s, spec, 64, 2)
        b = propose_regions(s, spec, 64, 2)
        assert [p.as_tuple() for p in a] == [p.as_tuple() for p in b]

    def test_count_and_bounds(self):
        spec = SceneSpec(seed=4)
        for i in range(20):
            s = generate_scene(spec, i)
            props = propose_regions(s, spec, 64, i)
            assert len(props) == 64
            for p in props:
                assert 0 <= p.x1 < p.x2 <= spec.canvas
                assert 0 <= p.y1 < p.y2 <= spec.canvas

    def test_recall_floor(self):
        # Every gt object and part box has a proposal with IoU >= 0.7.
        spec = SceneSpec(seed=8)
        for i in range(50):
            s = generate_scene(spec, i)
            props = propose_regions(s, spec, 64, i)
            gt = [b for _, b in s.objects] + [b for _, b, _p in s.parts]
            for g in gt:
                assert max(iou(g, p) for p in props) >= 0.7

    def test_too_few_proposals_rejected(self):
        spec = SceneSpec(seed=0, objects_min=3, objects_max=3)
        s = generate_scene(spec, 0)
        need = len(s.objects) + len(s.parts)
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
            np.testing.assert_array_equal(a.image, b.image)
            assert [(c, x.as_tuple()) for c, x in a.objects] == [
                (c, x.as_tuple()) for c, x in b.objects
            ]
            assert [(c, x.as_tuple(), p) for c, x, p in a.parts] == [
                (c, x.as_tuple(), p) for c, x, p in b.parts
            ]
            np.testing.assert_array_equal(a.img_label, b.img_label)

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
