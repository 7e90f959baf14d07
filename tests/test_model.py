import hashlib

import numpy as np
import pytest

from multinet import model, nnops
from multinet.model import (
    MODES, STRIDE, Multinet, MultinetOutput, TaskConfig, covering_regions, encode_cls, encode_det,
    fc1_rows,
)
from multinet.nnops import Layer, feature_footprints
from multinet.synthdata import SceneSpec, generate_scene, propose_regions
from multinet.tensor import Tape, Tensor, TensorError, backward, make_op, reshape, sum_all

from conftest import (
    add, as_float64, check_grads, forward_boxes, leaf, n_values, record_grads, spp_regions,
    weighted_sum,
)
from test_nnops import footprint_oracle, random_boxes


SPEC = SceneSpec(seed=3)
SCENE = generate_scene(SPEC, 0)


def small_cfg(**kw):
    base = dict(c_cls=3, c_part=4, m=12, t=2, mode="update1", canvas=32,
                channels=8, cls_hidden=16, region_hidden=16, spp_grid=3)
    base.update(kw)
    return TaskConfig(**base)


def small_inputs(cfg, seed=0):
    r = np.random.default_rng(seed)
    img = r.uniform(size=(cfg.canvas, cfg.canvas, 3))
    boxes = np.empty((cfg.m, 4))
    for row in boxes:
        x = np.sort(r.uniform(0, cfg.canvas - 2, 2) + [0, 2])
        y = np.sort(r.uniform(0, cfg.canvas - 2, 2) + [0, 2])
        row[:] = (x[0], y[0], x[1], y[1])
    return img, boxes


def integrate_stack(r_img, r_cls, r_det, r_part=None):
    """The stacking integrator by hand: image features, then label maps."""
    return nnops.stack_channels([m for m in (r_img, r_cls, r_det, r_part) if m is not None])


def integrate_bottleneck(net, h_prev, r_img, r_cls, r_det, r_part=None):
    """The bottleneck integrator by hand: the previous map stacked in front
    of the stacking integrator's input, mixed by the 1x1 conv."""
    stacked = nnops.stack_channels([h_prev, integrate_stack(r_img, r_cls, r_det, r_part)])
    return nnops.relu(nnops.conv2d(stacked, net.bottleneck))


class TestEncodeCls:
    def test_broadcast_values(self):
        p = Tensor(np.array([0.2, 0.9, 0.4]))
        out = encode_cls(p, 4, 5)
        assert out.data.shape == (4, 5, 3)
        for c in range(3):
            assert np.all(out.data[:, :, c] == p.data[c])

    def test_gradient_sums_over_cells(self):
        p = leaf(np.array([0.3, 0.6]))
        with Tape() as tape:
            backward(sum_all(encode_cls(p, 3, 4)), tape)
        np.testing.assert_array_equal(p.grad, [12.0, 12.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_fd(self, seed):
        r = np.random.default_rng(seed)
        p = r.uniform(0.1, 0.9, size=4)
        w = r.normal(size=(3, 3, 4))
        check_grads(lambda t: weighted_sum(encode_cls(t, 3, 3), w), [p])


def encode_det_oracle(scores, boxes, h, w, stride):
    """Brute force: per cell, max over covering boxes' score rows and 0."""
    m, k = scores.shape
    out = np.zeros((h, w, k))
    for u in range(h):
        for v in range(w):
            for i in range(m):
                r0, r1, c0, c1 = footprint_oracle(tuple(boxes[i]), stride, h, w)
                if r0 <= u < r1 and c0 <= v < c1:
                    out[u, v] = np.maximum(out[u, v], scores[i])
    return out


def encode_det_dense(x, footprints, h, w):
    """`encode_det` as computed from footprints before the covering-region
    table: a dense (M, H, W, K+1) `np.where` array of each region's scores
    on the cells it covers (0 elsewhere), its max over the regions and its
    first argmax."""
    m, k1 = x.data.shape
    r0, r1, c0, c1 = (footprints[:, j, None] for j in range(4))
    rows, cols = np.arange(h), np.arange(w)
    cover = ((r0 <= rows) & (rows < r1))[:, :, None] & ((c0 <= cols) & (cols < c1))[:, None, :]
    cand = np.where(cover[..., None], x.data[:, None, None, :], 0.0)  # (M, H, W, K1)
    data = np.maximum(cand.max(axis=0), 0.0)
    winner = np.where(data > 0, cand.argmax(axis=0), -1)  # first covering max

    def bwd(g):
        won = winner >= 0
        lin = (winner * k1 + np.arange(k1))[won]
        gx = np.bincount(lin, weights=g[won], minlength=m * k1)
        return (gx.astype(x.data.dtype, copy=False).reshape(m, k1),)

    return make_op(data, (x,), bwd, "encode_det")


def covering(boxes, stride, h, w):
    """The covering-region table of image-coordinate boxes on an h x w map."""
    return covering_regions(feature_footprints(boxes, stride, h, w), h, w)


class TestEncodeDet:
    def test_no_coverage_is_zero(self):
        scores = Tensor(np.array([[0.5, 0.5]]))
        out = encode_det(scores, covering(np.array([[0.0, 0, 8, 8]]), 8, 4, 4), 4, 4)
        assert np.all(out.data[0, 0] == 0.5)
        assert np.all(out.data[1:, :] == 0.0)
        assert np.all(out.data[0, 1:] == 0.0)

    def test_full_box_broadcasts_row(self):
        scores = Tensor(np.array([[0.1, 0.7, 0.2]]))
        out = encode_det(scores, covering(np.array([[0.0, 0, 32, 32]]), 8, 4, 4), 4, 4)
        for c in range(3):
            assert np.all(out.data[:, :, c] == scores.data[0, c])

    def test_oracle_100_random_cases(self):
        r = np.random.default_rng(99)
        for _ in range(100):
            m = int(r.integers(1, 6))
            scores = r.uniform(size=(m, 3))
            boxes = []
            for _ in range(m):
                x = np.sort(r.uniform(0, 30, 2) + [0, 2])
                y = np.sort(r.uniform(0, 30, 2) + [0, 2])
                boxes.append((x[0], y[0], x[1], y[1]))
            out = encode_det(Tensor(scores), covering(np.array(boxes), 8, 4, 4), 4, 4)
            np.testing.assert_array_equal(
                out.data, encode_det_oracle(scores, boxes, 4, 4, 8)
            )

    def test_gradient_routing_matches_loop_oracle(self):
        # Per cell and channel, the upstream gradient goes to the first
        # covering region attaining a positive max; scores drawn from a few
        # levels so that ties are common.
        r = np.random.default_rng(7)
        for _ in range(50):
            m = int(r.integers(1, 8))
            scores = r.integers(0, 4, size=(m, 3)) / 4.0
            boxes = random_boxes(r, m, 32)
            fps = feature_footprints(boxes, 8, 4, 4)
            g = r.normal(size=(4, 4, 3))
            x = leaf(scores)
            with Tape() as tape:
                out = encode_det(x, covering_regions(fps, 4, 4), 4, 4)
                backward(weighted_sum(out, g), tape)
            want = np.zeros((m, 3))
            for u, v, k in np.ndindex(4, 4, 3):
                best, win = 0.0, None
                for i, (r0, r1, c0, c1) in enumerate(fps):
                    if r0 <= u < r1 and c0 <= v < c1 and scores[i, k] > best:
                        best, win = scores[i, k], i
                if win is not None:
                    want[win, k] += g[u, v, k]
            np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_dense_oracle(self, dtype):
        # Output and gradient bytes equal the dense oracle's on random
        # footprints, with tied and zero scores and uncovered cells.
        r = np.random.default_rng(16)
        uncovered = ties = 0
        for _ in range(150):
            m, k1 = int(r.integers(1, 12)), int(r.integers(1, 5))
            h, w = (int(n) for n in r.integers(1, 8, 2))
            x1, y1 = r.uniform(0, 8 * w - 1, m), r.uniform(0, 8 * h - 1, m)
            boxes = np.stack([x1, y1, np.minimum(x1 + r.uniform(1, 4 * w, m), 8 * w),
                              np.minimum(y1 + r.uniform(1, 4 * h, m), 8 * h)], axis=1)
            fps = feature_footprints(boxes, 8, h, w)
            scores = (r.integers(0, 4, size=(m, k1)) / 4.0).astype(dtype)
            g = r.normal(size=(h, w, k1)).astype(dtype)
            outs, grads = [], []
            for op, regions in ((encode_det, covering_regions(fps, h, w)), (encode_det_dense, fps)):
                x = leaf(scores)
                with Tape() as tape:
                    out = op(x, regions, h, w)
                    backward(weighted_sum(out, g), tape)
                outs.append(out.data)
                grads.append(x.grad)
            assert outs[0].dtype == outs[1].dtype == grads[0].dtype == grads[1].dtype == dtype
            assert outs[0].tobytes() == outs[1].tobytes()
            assert grads[0].tobytes() == grads[1].tobytes()
            uncovered += int(np.sum(covering_regions(fps, h, w)[:, 0] == m))
            ties += int(np.any(np.sort(scores, axis=0)[1:] == np.sort(scores, axis=0)[:-1]))
        assert uncovered > 0 and ties > 0

    def test_negative_scores_floor_at_zero(self):
        scores = leaf(np.array([[-0.5, 0.25]]))
        cov = covering(np.array([[0.0, 0, 16, 16]]), 8, 2, 2)
        with Tape() as tape:
            out = encode_det(scores, cov, 2, 2)
            backward(sum_all(out), tape)
        np.testing.assert_array_equal(out.data, np.broadcast_to([0.0, 0.25], (2, 2, 2)))
        np.testing.assert_array_equal(scores.grad, [[0.0, 4.0]])

    def test_tie_gradient_goes_to_first_box(self):
        scores = leaf(np.array([[0.5], [0.5]]))
        box = (0, 0, 8, 8)
        with Tape() as tape:
            cov = covering(np.array([box, box], dtype=float), 8, 1, 1)
            backward(sum_all(encode_det(scores, cov, 1, 1)), tape)
        np.testing.assert_array_equal(scores.grad, [[1.0], [0.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_fd(self, seed):
        r = np.random.default_rng(200 + seed)
        scores = r.uniform(0.05, 1.0, size=(4, 2))
        boxes = []
        for _ in range(4):
            x = np.sort(r.uniform(0, 30, 2) + [0, 3])
            y = np.sort(r.uniform(0, 30, 2) + [0, 3])
            boxes.append((x[0], y[0], x[1], y[1]))
        w = r.normal(size=(4, 4, 2))
        cov = covering(np.array(boxes), 8, 4, 4)
        check_grads(
            lambda t: weighted_sum(encode_det(t, cov, 4, 4), w),
            [scores],
        )


class TestStructure:
    def test_stacked_channel_count_default(self):
        cfg = TaskConfig()  # C=32, C_cls=5, C_part=10
        assert cfg.stacked_channels == 32 + 2 * 5 + 10 + 2 == 54

    @pytest.mark.parametrize("c_part", [0, 4])
    def test_stacked_channel_formula(self, c_part):
        cfg = small_cfg(c_part=c_part)
        expect = cfg.channels + 2 * cfg.c_cls + 1 + (c_part + 1 if c_part else 0)
        assert cfg.stacked_channels == expect

    @pytest.mark.parametrize("c_cls,c_part", [(2, 0), (3, 4), (5, 10)])
    def test_update2_representation_stays_at_c(self, c_cls, c_part):
        # One, two, or three tasks: the bottleneck output always has C channels.
        cfg = small_cfg(mode="update2", c_cls=c_cls, c_part=c_part, t=2)
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        r_img = net.encode_image(img)
        hh, ww = r_img.data.shape[:2]
        cov = covering(boxes, STRIDE, hh, ww)
        r_cls = encode_cls(Tensor(np.full(c_cls, 0.5)), hh, ww)
        r_det = encode_det(Tensor(np.full((cfg.m, c_cls + 1), 0.2)), cov, hh, ww)
        r_part = (
            encode_det(Tensor(np.full((cfg.m, c_part + 1), 0.2)), cov, hh, ww)
            if c_part
            else None
        )
        h = integrate_bottleneck(net, r_img, r_img, r_cls, r_det, r_part)
        assert h.data.shape == (hh, ww, cfg.channels)

    def test_param_count_independent_of_t(self):
        for mode in ("update1", "update2"):
            n = [
                n_values(Multinet(small_cfg(mode=mode, t=t), seed=0).params)
                for t in (0, 1, 4)
            ]
            assert n[0] == n[1] == n[2]

    def test_same_seed_same_parameters(self):
        a = Multinet(small_cfg(), seed=5)
        b = Multinet(small_cfg(), seed=5)
        for (na, ta, _), (nb, tb, _) in zip(a.params.items(), b.params.items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_backbone_stride(self):
        cfg = small_cfg()
        net = Multinet(cfg, seed=0)
        img, _ = small_inputs(cfg)
        r = net.encode_image(img)
        fs = cfg.canvas // 8  # three 2x2 poolings
        assert STRIDE == 8
        assert r.data.shape == (fs, fs, cfg.channels)

    def test_indivisible_image_rejected(self):
        # 40 is a multiple of the stride but not the 32-pixel canvas, on
        # whose map a scene's geometry record indexes its SPP cells.
        net = Multinet(small_cfg(), seed=0)
        for side in (30, 40):
            with pytest.raises(TensorError, match=r"not the canvas \(32, 32\)"):
                net.encode_image(np.zeros((side, side, 3)))

    def test_bias_multiplier_is_two(self):
        net = Multinet(small_cfg(), seed=0)
        for name, _t, mult in net.params.items():
            assert mult == (2.0 if name.endswith("bias") else 1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^mode must be one of shared, update1, update2, got 'update3'$"):
            small_cfg(mode="update3")

    @pytest.mark.parametrize("name,value,low", [
        ("t", -1, 0), ("m", 0, 1), ("c_cls", 0, 1), ("c_part", -1, 0),
    ])
    def test_bad_task_field_named(self, name, value, low):
        with pytest.raises(ValueError, match=f"^{name} must be at least {low}, got {value}$"):
            small_cfg(**{name: value})

    @pytest.mark.parametrize("name", ["channels", "cls_hidden", "region_hidden", "spp_grid"])
    def test_layer_size_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
            small_cfg(**{name: 0})

    # SHA-256 over (name, float64 bytes) of every checkpoint record of
    # Multinet(small_cfg(mode=mode), seed=0), in record order: the float32
    # rounding of the float64 draws. Init calls no BLAS, so the digest is
    # machine-independent; a reordered, renamed, re-drawn or differently
    # rounded parameter changes it.
    INIT_PINS = {
        "shared": "9dceb9ffd5000fd60276fabfe926b8c2acdc103fbeb583c220992d2f96a6eca2",
        "update1": "9dceb9ffd5000fd60276fabfe926b8c2acdc103fbeb583c220992d2f96a6eca2",
        "update2": "4b9411e59e8a04e67acb8e35e706ee21b9c50bfbac2f340d7bd736b5a2b89c8e",
    }

    @pytest.mark.parametrize("mode", MODES)
    def test_init_pin(self, mode):
        h = hashlib.sha256()
        for name, data, _mult in Multinet(small_cfg(mode=mode), seed=0).records():
            h.update(name.encode())
            h.update(np.ascontiguousarray(data, dtype="<f8").tobytes())
        assert h.hexdigest() == self.INIT_PINS[mode]


class TestForward:
    def test_returns_t_plus_one_outputs(self):
        cfg = small_cfg(t=3)
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        outs = forward_boxes(net, img, boxes)
        assert len(outs) == 4

    def test_output_shapes(self):
        cfg = small_cfg()
        net = as_float64(Multinet(cfg, seed=0))
        img, boxes = small_inputs(cfg)
        out = forward_boxes(net, img, boxes)[0]
        assert out.x_cls.data.shape == (cfg.c_cls,)
        assert out.regions["det"][0].data.shape == (cfg.m, cfg.c_cls + 1)
        assert out.regions["det"][1].data.shape == (cfg.m, 4 * (cfg.c_cls + 1))
        assert out.regions["part"][0].data.shape == (cfg.m, cfg.c_part + 1)
        np.testing.assert_allclose(out.regions["det"][0].data.sum(axis=1), np.ones(cfg.m), atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_negative_iteration_count_rejected(self, mode):
        cfg = small_cfg(mode=mode)
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        with pytest.raises(ValueError, match="iteration count must be non-negative, got -1"):
            forward_boxes(net, img, boxes, n_iters=-1)

    def test_wrong_region_count_rejected(self):
        cfg = small_cfg()
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        with pytest.raises(TensorError):
            forward_boxes(net, img, boxes[:-1])

    @pytest.mark.parametrize("builder_mode, mode", [("shared", "update1"), ("update1", "shared")])
    def test_geometry_of_another_mode_rejected(self, builder_mode, mode):
        cfg = small_cfg(mode=mode)
        img, boxes = small_inputs(cfg)
        other = Multinet(small_cfg(mode=builder_mode), seed=0).geometry(boxes)
        with pytest.raises(TensorError, match=f"expected the {mode} geometry"):
            Multinet(cfg, seed=0).forward(img, other)

    def test_outputs0_invariant_to_t(self):
        img, boxes = small_inputs(small_cfg())
        first = None
        for t in (0, 1, 3):
            net = Multinet(small_cfg(t=t), seed=4)
            out0 = forward_boxes(net, img, boxes)[0]
            if first is None:
                first = out0
            else:
                np.testing.assert_array_equal(out0.x_cls.data, first.x_cls.data)
                np.testing.assert_array_equal(out0.regions["det"][0].data, first.regions["det"][0].data)
                np.testing.assert_array_equal(out0.regions["part"][0].data, first.regions["part"][0].data)

    def test_shared_equals_update1_at_t0(self):
        # Same seed gives identical parameters; shared output must be
        # bit-identical to the stacking mode's first iteration.
        img, boxes = small_inputs(small_cfg())
        shared = Multinet(small_cfg(mode="shared"), seed=2)
        stacked = Multinet(small_cfg(mode="update1"), seed=2)
        s_out = forward_boxes(shared, img, boxes)
        u_out = forward_boxes(stacked, img, boxes)
        assert len(s_out) == 1
        np.testing.assert_array_equal(s_out[0].x_cls.data, u_out[0].x_cls.data)
        np.testing.assert_array_equal(s_out[0].regions["det"][0].data, u_out[0].regions["det"][0].data)
        np.testing.assert_array_equal(s_out[0].regions["det"][1].data, u_out[0].regions["det"][1].data)
        np.testing.assert_array_equal(s_out[0].regions["part"][0].data, u_out[0].regions["part"][0].data)

    def test_determinism(self):
        cfg = small_cfg()
        img, boxes = small_inputs(cfg)
        a = forward_boxes(Multinet(cfg, seed=1), img, boxes)
        b = forward_boxes(Multinet(cfg, seed=1), img, boxes)
        for oa, ob in zip(a, b):
            np.testing.assert_array_equal(oa.regions["det"][0].data, ob.regions["det"][0].data)

    @pytest.mark.parametrize("mode", ["update1", "update2"])
    def test_outputs1_manual_recomposition(self, mode):
        # outputs[1] must equal encode -> integrate -> decode applied to
        # outputs[0] by hand.
        cfg = small_cfg(mode=mode, t=1)
        net = as_float64(Multinet(cfg, seed=7))
        img, boxes = small_inputs(cfg)
        outs = forward_boxes(net, img, boxes)
        r_img = net.encode_image(img)
        hh, ww = r_img.data.shape[:2]
        cov = covering(boxes, STRIDE, hh, ww)
        o0 = outs[0]
        r_cls = encode_cls(o0.x_cls, hh, ww)
        r_det = encode_det(o0.regions["det"][0], cov, hh, ww)
        r_part = encode_det(o0.regions["part"][0], cov, hh, ww)
        if mode == "update1":
            h1 = integrate_stack(r_img, r_cls, r_det, r_part)
        else:
            h1 = integrate_bottleneck(net, r_img, r_img, r_cls, r_det, r_part)
        manual = net._decode_all(whole_fc1(net, whole_fc1_layers(net), h1, boxes))
        np.testing.assert_allclose(outs[1].x_cls.data, manual.x_cls.data, atol=1e-12)
        np.testing.assert_allclose(outs[1].regions["det"][0].data, manual.regions["det"][0].data, atol=1e-12)
        np.testing.assert_allclose(outs[1].regions["part"][1].data, manual.regions["part"][1].data, atol=1e-12)

    def test_update1_is_memoryless_in_h(self):
        # The stacking integrator rebuilds h from labels only, so unrolling
        # deeper never changes an iteration that sees the same labels.
        cfg = small_cfg(mode="update1")
        net = Multinet(cfg, seed=3)
        img, boxes = small_inputs(cfg)
        o2 = forward_boxes(net, img, boxes, n_iters=2)
        o4 = forward_boxes(net, img, boxes, n_iters=4)
        for a, b in zip(o2, o4[:3]):
            np.testing.assert_array_equal(a.regions["det"][0].data, b.regions["det"][0].data)

    def test_truncate_feedback_same_forward_values(self):
        img, boxes = small_inputs(small_cfg())
        full = forward_boxes(Multinet(small_cfg(), seed=6), img, boxes)
        trunc = forward_boxes(Multinet(small_cfg(truncate_feedback=True), seed=6), img, boxes)
        for a, b in zip(full, trunc):
            np.testing.assert_array_equal(a.regions["det"][0].data, b.regions["det"][0].data)

    def test_no_part_task(self):
        cfg = small_cfg(c_part=0)
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        outs = forward_boxes(net, img, boxes)
        assert all("part" not in o.regions for o in outs)

    def test_bottleneck_gradient_fd(self):
        # Gradient w.r.t. the 1x1 integrator filters, finite differences.
        cfg = small_cfg(mode="update2", t=1, canvas=16, m=4)
        net = Multinet(cfg, seed=1)
        img, boxes = small_inputs(cfg)
        A = net.params["bottleneck.filters"]

        def scalar():
            outs = forward_boxes(net, img, boxes)
            return sum_all(outs[1].regions["det"][0])

        with Tape() as tape:
            loss = scalar()
            backward(loss, tape)
        ana = A.grad.copy()
        net.params.zero_grads()
        eps = 1e-5
        flat = A.data.ravel()
        num = np.zeros_like(flat)
        idx = np.random.default_rng(0).choice(flat.size, size=12, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(scalar().data)
            flat[i] = orig - eps
            fm = float(scalar().data)
            flat[i] = orig
            num[i] = (fp - fm) / (2 * eps)
        sel = ana.ravel()[idx]
        denom = np.maximum(np.maximum(np.abs(sel), np.abs(num[idx])), 1.0)
        assert np.max(np.abs(sel - num[idx]) / denom) <= 1e-4


class TestBackboneOrder:
    """`encode_image` pools each pooled stage before its ReLU. The oracle
    runs conv -> ReLU -> pool from the same layers; both orders give the
    same map and the same backbone gradients, byte for byte."""

    @staticmethod
    def relu_then_pool(net, image):
        x = Tensor(np.asarray(image, net.dtype))
        for layer, pool in net.backbone:
            x = nnops.relu(nnops.conv2d(x, layer))
            if pool:
                x = nnops.max_pool2d(x)
        return x

    def test_matches_relu_then_pool(self):
        net = Multinet(small_cfg(canvas=64), seed=5)
        r = np.random.default_rng(5)
        # 16 x 16 pixel blocks of one colour give windows of equal conv
        # outputs (ties); the noisy top half gives windows without.
        image = np.kron(r.uniform(-1, 1, size=(4, 4, 3)), np.ones((16, 16, 1)))
        image[:32] += r.normal(scale=0.1, size=(32, 64, 3))
        w = r.normal(size=(8, 8, net.cfg.channels))
        got = []
        for encode in (net.encode_image, lambda img: self.relu_then_pool(net, img)):
            net.params.zero_grads()
            with Tape() as tape:
                out = encode(image)
                backward(weighted_sum(out, w), tape)
            got.append((out.data.tobytes(), [t.grad.tobytes() for name, t, _ in net.params.items()
                                             if name.startswith("backbone.")]))
        assert len(got[0][1]) == 8 and got[0] == got[1]

        # The windows the two orders see differently: all four values <= 0
        # (ReLU first ties them at 0) and tied maxima. No conv output is -0.0.
        nonpositive = tied = 0
        x = Tensor(np.asarray(image, net.dtype))
        for layer, pool in net.backbone:
            c = nnops.conv2d(x, layer).data
            assert not np.signbit(c[c == 0]).any()
            if pool:
                win = np.stack([c[a::2, b::2] for a in (0, 1) for b in (0, 1)])
                nonpositive += int((win <= 0).all(axis=0).sum())
                tied += int((((win > 0) & (win == win.max(axis=0))).sum(axis=0) > 1).sum())
            x = nnops.relu(nnops.max_pool2d(Tensor(c)) if pool else Tensor(c))
        assert nonpositive > 0 and tied > 0


class TestSplitFc1Gradient:
    """update1, T = 2: the image rows of a region fc1's stacked record read
    the pooled image channels at every t, the task rows read only the task
    channels of t >= 1. The cls head's fc1 record is split the same way,
    over its one globally pooled cell. A shared net reads no task row."""

    def grads(self, iters, head="det", mode="update1"):
        """Analytic gradient of the `<head>.fc1.weight` record (`fc1_rows`
        gives its image and task rows) of a `mode` net, and central
        differences at
        six image-row and six task-row entries, of a weighted sum of the
        outputs of the iterations `iters`. Each output's weights are the
        same whichever iterations are summed. Entries are drawn from rows
        with some gradient when a row set has any (a row whose pooled input
        is zero in every region has none)."""
        net = as_float64(Multinet(small_cfg(mode=mode, t=2, canvas=16, m=4), seed=4))
        img, boxes = small_inputs(net.cfg, seed=1)
        blocks = fc1_rows(net.cfg, head)
        fc1_record_rows = tuple(blocks.values())  # (image rows, task rows)
        # Record row -> (the block parameter holding it, its row there).
        block_row = {int(i): (net.params[f"{head}.fc1.weight:{b}"].data, k)
                     for b, rows in blocks.items() for k, i in enumerate(rows)}

        def scalar():
            r = np.random.default_rng(0)
            total = Tensor(0.0)
            for t, out in enumerate(forward_boxes(net, img, boxes)):
                for x in output_tensors([out]):
                    weights = r.normal(size=x.data.shape)
                    if t in iters:
                        total = add(total, weighted_sum(x, weights))
            return total

        def perturbed(i, j, eps):
            """scalar() with entry (i, j) of the stacked record moved by eps, in
            the float64 block parameter that holds it."""
            block, k = block_row[i]
            orig = block[k, j]
            block[k, j] = orig + eps
            value = float(scalar().data)
            block[k, j] = orig
            return value

        with Tape() as tape:
            backward(scalar(), tape)
        ana = record_grads(net)[f"{head}.fc1.weight"]
        r = np.random.default_rng(0)
        entries = []
        for rows in fc1_record_rows:
            live = rows[ana[rows].any(axis=1)]
            pick = r.choice(live if live.size >= 6 else rows, 6, replace=False)
            entries += [(i, int(r.integers(ana.shape[1]))) for i in pick]
        num = np.array([(perturbed(i, j, 1e-5) - perturbed(i, j, -1e-5)) / 2e-5
                        for i, j in entries])
        rows, cols = np.array(entries).T
        assert np.max(np.abs(ana[rows, cols] - num)) <= 1e-6 * np.max(np.abs(num))
        return fc1_record_rows, ana, num

    def test_fd_over_all_iterations(self):
        (img_rows, task_rows), ana, _ = self.grads((0, 1, 2))
        assert ana[img_rows].any() and ana[task_rows].any()

    def test_task_rows_get_no_gradient_from_t0(self):
        (img_rows, task_rows), ana, num = self.grads((0,))
        assert ana[img_rows].any()
        assert np.all(ana[task_rows] == 0.0) and np.all(num[6:] == 0.0)

    def test_only_later_iterations_reach_task_rows(self):
        # The task rows' gradient is that of the t >= 1 outputs alone; the
        # image rows also get the t = 0 share.
        (img_rows, task_rows), later, _ = self.grads((1, 2))
        _, every, _ = self.grads((0, 1, 2))
        assert later[img_rows].any() and later[task_rows].any()
        np.testing.assert_allclose(later[task_rows], every[task_rows], rtol=1e-12, atol=0)
        assert np.any(later[img_rows] != every[img_rows])

    def test_cls_fd_over_all_iterations(self):
        (img_rows, task_rows), ana, _ = self.grads((0, 1, 2), "cls")
        assert ana[img_rows].any() and ana[task_rows].any()

    def test_cls_task_rows_get_no_gradient_from_t0(self):
        (img_rows, task_rows), ana, num = self.grads((0,), "cls")
        assert ana[img_rows].any()
        assert np.all(ana[task_rows] == 0.0) and np.all(num[6:] == 0.0)

    @pytest.mark.parametrize("head", ["cls", "det"])
    def test_task_rows_get_no_gradient_in_shared(self, head):
        (img_rows, task_rows), ana, num = self.grads((0,), head, mode="shared")
        assert ana[img_rows].any()
        assert np.all(ana[task_rows] == 0.0) and np.all(num[6:] == 0.0)


class TestGrounding:
    def test_grounding_with_own_prediction_is_identity(self):
        cfg = small_cfg(t=1)
        net = Multinet(cfg, seed=9)
        img, boxes = small_inputs(cfg)
        outs = forward_boxes(net, img, boxes)
        grounded = forward_boxes(net, img, boxes, ground_cls=outs[0].x_cls.data, n_iters=1)
        np.testing.assert_allclose(grounded[1].x_cls.data, outs[1].x_cls.data, atol=1e-14)
        np.testing.assert_allclose(grounded[1].regions["det"][0].data, outs[1].regions["det"][0].data, atol=1e-14)

    def test_grounded_label_changes_downstream(self):
        cfg = small_cfg(t=1)
        net = Multinet(cfg, seed=9)
        img, boxes = small_inputs(cfg)
        outs = forward_boxes(net, img, boxes)
        flipped = 1.0 - outs[0].x_cls.data
        grounded = forward_boxes(net, img, boxes, ground_cls=flipped, n_iters=1)
        assert not np.allclose(grounded[1].x_cls.data, outs[1].x_cls.data)

    def test_grounded_truth_reencoded_every_iteration(self):
        # With cls grounded, iteration 1 must integrate the encoded truth
        # rather than the prediction; verify by manual recomposition.
        cfg = small_cfg(t=1, mode="update1")
        net = as_float64(Multinet(cfg, seed=11))
        img, boxes = small_inputs(cfg)
        truth = np.array([1.0, 0.0, 1.0])
        outs = forward_boxes(net, img, boxes, ground_cls=truth, n_iters=1)
        r_img = net.encode_image(img)
        hh, ww = r_img.data.shape[:2]
        cov = covering(boxes, STRIDE, hh, ww)
        r_cls = encode_cls(Tensor(truth), hh, ww)
        r_det = encode_det(outs[0].regions["det"][0], cov, hh, ww)
        r_part = encode_det(outs[0].regions["part"][0], cov, hh, ww)
        h1 = integrate_stack(r_img, r_cls, r_det, r_part)
        manual = net.decode_cls(whole_fc1(net, whole_fc1_layers(net), h1, boxes)["cls"])
        np.testing.assert_allclose(outs[1].x_cls.data, manual.data, atol=1e-12)

    def test_bad_ground_shape_rejected(self):
        cfg = small_cfg(t=1)
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        with pytest.raises(TensorError):
            forward_boxes(net, img, boxes, ground_cls=np.zeros(7), n_iters=1)


def whole_fc1_layers(net):
    """Each head's unsplit fc1: its checkpoint record's stacked weight, as a
    new tensor that collects the whole weight's gradient, with the head's
    bias."""
    records = {name: data for name, data, _ in net.records()}
    return {
        head: Layer(leaf(records[f"{head}.fc1.weight"].copy()), layer.bias)
        for head, (layer, _) in net.fc1.items()
    }


def whole_fc1(net, layers, h, boxes):
    """Each head's fc1 pre-activation from the whole map `h` through its
    unsplit fc1 in `layers`: cls from the global max of every channel of
    `h`, each region head from its own pooling of the regions of every
    channel of `h`."""
    fc1 = {"cls": nnops.fully_connected(nnops.global_max_pool(h), layers["cls"])}
    for task in net.cfg.region_classes:
        pooled = spp_regions(h, boxes, net.cfg.spp_grid, STRIDE)
        flat = reshape(pooled, (len(boxes), pooled.data.size // len(boxes)))
        fc1[task] = nnops.fully_connected(flat, layers[task])
    return fc1


def forward_oracle(net, layers, img, boxes, ground_cls=None, n_iters=None):
    """The iteration schedule of `Multinet.forward` built from its public
    pieces, with the stacking modes' map `h` built whole (the image features
    stacked with zero task channels at t = 0) and every head pooling it on
    its own and decoding it through its unsplit fc1 from `whole_fc1_layers`."""
    cfg = net.cfg
    r_img = net.encode_image(img)
    hh, ww = r_img.data.shape[:2]
    if cfg.mode == "shared":
        n_iters = 0
    n_iters = cfg.t if n_iters is None else n_iters

    def decode(h):
        fc1 = whole_fc1(net, layers, h, boxes)
        regions = {task: net.decode_regions(fc1[task], task) for task in cfg.region_classes}
        return MultinetOutput(net.decode_cls(fc1["cls"]), regions)

    def label(pred):
        return pred.detach() if cfg.truncate_feedback else pred

    h = r_img
    if cfg.mode != "update2":
        h = nnops.stack_channels([r_img, Tensor(np.zeros((hh, ww, cfg.task_channels)))])
    outs = [decode(h)]
    cov = covering(boxes, STRIDE, hh, ww)
    for _ in range(n_iters):
        prev = outs[-1]
        x_cls = label(prev.x_cls) if ground_cls is None else Tensor(ground_cls)
        maps = [encode_cls(x_cls, hh, ww)]
        maps += [encode_det(label(x[0]), cov, hh, ww) for x in prev.regions.values()]
        if cfg.mode == "update1":
            h = integrate_stack(r_img, *maps)
        else:
            h = integrate_bottleneck(net, h, r_img, *maps)
        outs.append(decode(h))
    return outs


def output_tensors(outs):
    """Every output tensor of a forward, in a fixed order."""
    flat = []
    for out in outs:
        flat.append(out.x_cls)
        flat += [x for task in sorted(out.regions) for x in out.regions[task]]
    return flat


def weighted_total(tensors, seed=0):
    """A scalar that reads every element of every tensor."""
    r = np.random.default_rng(seed)
    total = None
    for x in tensors:
        term = weighted_sum(x, r.normal(size=x.data.shape))
        total = term if total is None else add(total, term)
    return total


# (mode, TaskConfig overrides, forward kwargs)
POOL_ONCE_CASES = [
    # a shared net runs t = 0 only, whatever its feedback, depth or labels
    ("shared", {"truncate_feedback": True}, {}),
    ("shared", {}, {"n_iters": 3}),
    ("shared", {}, {"ground_cls": True}),
    ("shared", {"c_part": 0, "t": 0}, {}),
    ("shared", {}, {}),
    ("shared", {"c_part": 0}, {}),
    ("update1", {}, {}),
    ("update1", {"truncate_feedback": True}, {}),
    ("update1", {"c_part": 0}, {"n_iters": 3}),
    ("update1", {}, {"ground_cls": True}),
    ("update1", {"truncate_feedback": True}, {"ground_cls": True}),
    ("update2", {}, {}),
    ("update2", {"truncate_feedback": True}, {}),
    ("update2", {}, {"ground_cls": True}),
]


def pool_once_setup(mode, overrides, kwargs):
    cfg = small_cfg(mode=mode, **overrides)
    net = as_float64(Multinet(cfg, seed=5))
    img, boxes = small_inputs(cfg, seed=2)
    kwargs = dict(kwargs)
    if "ground_cls" in kwargs:
        kwargs["ground_cls"] = np.random.default_rng(1).uniform(size=cfg.c_cls)
    return net, img, boxes, kwargs


class TestPoolOnce:
    @pytest.mark.parametrize("mode,overrides,kwargs", POOL_ONCE_CASES)
    def test_forward_bit_identical_to_per_head_pooling(self, mode, overrides, kwargs):
        # Bit-identical wherever the fc1 sum runs in the oracle's order: in
        # update2, and for the region heads at t = 0 in the stacking modes,
        # where the oracle's zero task rows only add exact zeros to an
        # M-row product. The stacking modes' cls product at t = 0 is one
        # row over the C image rows, not over the whole stacked layout, and
        # at t >= 1 every split fc1 sums the image rows (plus bias) apart
        # from the task rows, so there only rounding may differ.
        net, img, boxes, kwargs = pool_once_setup(mode, overrides, kwargs)
        got = forward_boxes(net, img, boxes, **kwargs)
        want = forward_oracle(net, whole_fc1_layers(net), img, boxes, **kwargs)
        assert len(got) == len(want) > 0
        for t, (out_a, out_b) in enumerate(zip(got, want)):
            pairs = list(zip(output_tensors([out_a]), output_tensors([out_b])))
            assert pairs
            for i, (a, b) in enumerate(pairs):
                if mode == "update2" or (t == 0 and i > 0):  # output 0 is x_cls
                    np.testing.assert_array_equal(a.data, b.data)
                else:
                    scale = np.max(np.abs(b.data))
                    assert np.max(np.abs(a.data - b.data)) <= 1e-12 * scale

    @pytest.mark.parametrize("mode,overrides,kwargs", POOL_ONCE_CASES)
    def test_gradients_match_per_head_pooling(self, mode, overrides, kwargs):
        # Pooling once sums the heads' (and iterations') gradients before
        # one scatter instead of after several: only rounding may differ.
        # Gradients are compared as checkpoint records, the oracle's unsplit
        # fc1 weights standing in for the records they were built from.
        net, img, boxes, kwargs = pool_once_setup(mode, overrides, kwargs)
        layers = whole_fc1_layers(net)
        grads = []
        for fwd in (lambda *a, **k: forward_boxes(net, *a, **k),
                    lambda *a, **k: forward_oracle(net, layers, *a, **k)):
            net.params.zero_grads()
            with Tape() as tape:
                backward(weighted_total(output_tensors(fwd(img, boxes, **kwargs))), tape)
            grads.append(record_grads(net))
        got, want = grads
        want.update({f"{head}.fc1.weight": fc.weight.grad for head, fc in layers.items()})
        assert any(np.any(g) for g in want.values())
        for name, g in want.items():
            scale = np.max(np.abs(g))
            assert np.max(np.abs(got[name] - g)) <= 1e-12 * scale, name

    @pytest.mark.parametrize(
        "mode,overrides,widths",
        [("update1", None, ["C", "task", "task"]), ("shared", None, ["C"]),
         ("update2", None, ["C", "C", "C"]), ("shared", {"c_part": 0}, ["C"])],
    )
    def test_spp_calls_per_forward(self, monkeypatch, mode, overrides, widths):
        # update1 pools the C image channels once and only the task block
        # at each iteration t >= 1; update2 pools its C-channel map once per
        # iteration; one pooling serves every region head.
        net = Multinet(small_cfg(mode=mode, t=2, **(overrides or {})), seed=0)
        img, boxes = small_inputs(net.cfg)
        seen = []
        pool = nnops.spp_pool_regions

        def counted(h, rois, cells, plan):
            seen.append(h.data.shape[2])
            return pool(h, rois, cells, plan)

        monkeypatch.setattr(nnops, "spp_pool_regions", counted)
        forward_boxes(net, img, boxes)
        width = {"C": net.cfg.channels, "task": net.cfg.task_channels}
        assert seen == [width[w] for w in widths]

    @pytest.mark.parametrize("mode", ["update1", "update2"])
    def test_footprints_built_once_per_box_set(self, monkeypatch, mode):
        # Pooling and the label maps of `encode_det` read the one layout of
        # a box set's geometry record: building the record builds their
        # footprints once, and forwards over it build none.
        net = Multinet(small_cfg(mode=mode, t=2), seed=0)
        img, boxes = small_inputs(net.cfg)
        built = []
        footprints = nnops.feature_footprints
        monkeypatch.setattr(nnops, "feature_footprints",
                            lambda *args: built.append(args) or footprints(*args))
        geometry = net.geometry(boxes)
        assert len(built) == 1
        net.forward(img, geometry)
        net.forward(img, geometry)
        assert len(built) == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_interleaved_box_sets_match_their_own_forward(self, mode):
        # Forwards over box set A, then B, then A again each equal that
        # set's forward on a fresh network: no layout of one set is read
        # for another.
        cfg = small_cfg(mode=mode, t=2)
        img, a = small_inputs(cfg, seed=1)
        _, b = small_inputs(cfg, seed=2)
        net = Multinet(cfg, seed=0)
        got = {}
        for name, boxes in (("a", a), ("b", b), ("a", a)):
            got[name] = [x.data.tobytes() for x in output_tensors(forward_boxes(net, img, boxes))]
            want = output_tensors(forward_boxes(Multinet(cfg, seed=0), img, boxes))
            assert got[name] == [x.data.tobytes() for x in want]
        assert got["a"][1] != got["b"][1]  # the det scores read the boxes

    def test_geometry_covering_only_where_the_mode_recurs(self):
        img, boxes = small_inputs(small_cfg())
        for mode in MODES:
            geometry = Multinet(small_cfg(mode=mode), seed=0).geometry(boxes)
            assert (geometry.covering is None) == (mode == "shared")
            assert geometry.cells.shape[:3] == (len(boxes), 3, 3)

    @pytest.mark.parametrize(
        "mode,overrides,steps",
        [("update1", None, ["img", "decode", "task", "decode", "task", "decode"]),
         ("shared", None, ["img", "decode"]),
         ("shared", {"c_part": 0}, ["img", "decode"]),
         ("update1", {"c_part": 0}, ["img", "decode", "task", "decode", "task", "decode"]),
         ("update2", None, ["whole", "decode"] * 3)],
    )
    def test_fc1_products_per_forward(self, monkeypatch, mode, overrides, steps):
        # The stacking modes take each head's image-block product, cls's
        # included, once per forward and a task-block product only at
        # t >= 1; update2 applies the whole fc1 at every t. No op gathers
        # rows of a parameter: every parameter is read whole by a product.
        # No pooled (4-D) block is ever joined by `stack_channels`.
        net = Multinet(small_cfg(mode=mode, t=2, **(overrides or {})), seed=0)
        img, boxes = small_inputs(net.cfg)
        image = "whole" if mode == "update2" else "img"
        fc1 = {layer.weight: f"{head}:{image}" for head, (layer, _) in net.fc1.items()}
        fc1.update({task_block: f"{head}:task" for head, (_, task_block) in net.fc1.items()
                    if task_block is not None})
        seen = []
        mul, full = model.matmul, nnops.fully_connected
        decode, decode_cls = Multinet.decode_regions, Multinet.decode_cls
        stack = nnops.stack_channels

        def matmul(a, b):
            seen.append(fc1[b])
            return mul(a, b)

        def fully_connected(x, layer):
            if layer.weight in fc1:
                seen.append(fc1[layer.weight])
            return full(x, layer)

        def decode_regions(self, pre, task):
            seen.append(f"decode:{task}")
            return decode(self, pre, task)

        def decode_cls_counted(self, pre):
            seen.append("decode:cls")
            return decode_cls(self, pre)

        def stack_channels(tensors):
            assert all(t.data.ndim == 3 for t in tensors)
            return stack(tensors)

        monkeypatch.setattr(model, "matmul", matmul)
        monkeypatch.setattr(nnops, "fully_connected", fully_connected)
        monkeypatch.setattr(Multinet, "decode_regions", decode_regions)
        monkeypatch.setattr(Multinet, "decode_cls", decode_cls_counted)
        monkeypatch.setattr(nnops, "stack_channels", stack_channels)
        with Tape() as tape:
            forward_boxes(net, img, boxes)

        heads = list(net.fc1)
        assert heads == ["cls", *net.cfg.region_classes]
        want = [f"decode:{h}" if step == "decode" else f"{h}:{step}"
                for step in steps for h in heads]
        assert seen == want
        params = {t for _, t, _ in net.params.items()}
        readers = [node.backward_fn.__qualname__.partition(".")[0] for node in tape.nodes
                   if params.intersection(node.inputs)]
        assert readers.count("take_rows") == 0
        assert set(readers) <= {"conv2d", "fully_connected", "matmul"}

    def test_update1_stacks_only_label_maps(self, monkeypatch):
        # Every head adds its task-block product to the image product, so an
        # update1 forward at T = 2 stacks the label maps once per t >= 1 and
        # never joins them to the image features.
        net = Multinet(small_cfg(mode="update1", t=2), seed=0)
        img, boxes = small_inputs(net.cfg)
        images, calls = [], []
        encode, stack = Multinet.encode_image, nnops.stack_channels

        def encode_image(self, image):
            images.append(encode(self, image))
            return images[-1]

        def stack_channels(tensors):
            calls.append(list(tensors))
            return stack(tensors)

        monkeypatch.setattr(Multinet, "encode_image", encode_image)
        monkeypatch.setattr(nnops, "stack_channels", stack_channels)
        forward_boxes(net, img, boxes)
        assert len(images) == 1 and len(calls) == 2
        assert not any(t is images[0] for tensors in calls for t in tensors)


@pytest.mark.parametrize("module", [nnops, model])
def test_no_mutable_module_state(module):
    # A box set's layout lives in the geometry record its caller keeps, so
    # neither module holds a cache: no module-level dict, list or set.
    state = [name for name, value in vars(module).items()
             if not name.startswith("__") and isinstance(value, (dict, list, set))]
    assert state == []


def test_geometry_names_a_degenerate_box():
    # The degenerate/non-finite box check runs once, when the record is built.
    cfg = small_cfg()
    _, boxes = small_inputs(cfg)
    boxes[3, 2] = boxes[3, 0]
    with pytest.raises(TensorError, match=r"degenerate/non-finite box .* \(region 3\)"):
        Multinet(cfg, seed=0).geometry(boxes)
