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

from conftest import add, as_float64, check_grads, n_values, record_grads, weighted_sum
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
        p = Tensor(np.array([0.3, 0.6]), requires_grad=True)
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
            x = Tensor(scores, requires_grad=True)
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
                x = Tensor(scores, requires_grad=True)
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
        scores = Tensor(np.array([[-0.5, 0.25]]), requires_grad=True)
        cov = covering(np.array([[0.0, 0, 16, 16]]), 8, 2, 2)
        with Tape() as tape:
            out = encode_det(scores, cov, 2, 2)
            backward(sum_all(out), tape)
        np.testing.assert_array_equal(out.data, np.broadcast_to([0.0, 0.25], (2, 2, 2)))
        np.testing.assert_array_equal(scores.grad, [[0.0, 4.0]])

    def test_tie_gradient_goes_to_first_box(self):
        scores = Tensor(np.array([[0.5], [0.5]]), requires_grad=True)
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
        net = Multinet(small_cfg(), seed=0)
        with pytest.raises(TensorError):
            net.encode_image(np.zeros((30, 30, 3)))

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
        outs = net.forward(img, boxes)
        assert len(outs) == 4

    def test_output_shapes(self):
        cfg = small_cfg()
        net = as_float64(Multinet(cfg, seed=0))
        img, boxes = small_inputs(cfg)
        out = net.forward(img, boxes)[0]
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
            net.forward(img, boxes, n_iters=-1)

    def test_wrong_region_count_rejected(self):
        cfg = small_cfg()
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        with pytest.raises(TensorError):
            net.forward(img, boxes[:-1])

    def test_outputs0_invariant_to_t(self):
        img, boxes = small_inputs(small_cfg())
        first = None
        for t in (0, 1, 3):
            net = Multinet(small_cfg(t=t), seed=4)
            out0 = net.forward(img, boxes)[0]
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
        s_out = shared.forward(img, boxes)
        u_out = stacked.forward(img, boxes)
        assert len(s_out) == 1
        np.testing.assert_array_equal(s_out[0].x_cls.data, u_out[0].x_cls.data)
        np.testing.assert_array_equal(s_out[0].regions["det"][0].data, u_out[0].regions["det"][0].data)
        np.testing.assert_array_equal(s_out[0].regions["det"][1].data, u_out[0].regions["det"][1].data)
        np.testing.assert_array_equal(s_out[0].regions["part"][0].data, u_out[0].regions["part"][0].data)

    def test_determinism(self):
        cfg = small_cfg()
        img, boxes = small_inputs(cfg)
        a = Multinet(cfg, seed=1).forward(img, boxes)
        b = Multinet(cfg, seed=1).forward(img, boxes)
        for oa, ob in zip(a, b):
            np.testing.assert_array_equal(oa.regions["det"][0].data, ob.regions["det"][0].data)

    @pytest.mark.parametrize("mode", ["update1", "update2"])
    def test_outputs1_manual_recomposition(self, mode):
        # outputs[1] must equal encode -> integrate -> decode applied to
        # outputs[0] by hand.
        cfg = small_cfg(mode=mode, t=1)
        net = as_float64(Multinet(cfg, seed=7))
        img, boxes = small_inputs(cfg)
        outs = net.forward(img, boxes)
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
        layers = whole_fc1_layers(net)
        fc1 = {task: whole_fc1(net, layers[task], h1, boxes) for task in ("det", "part")}
        manual = net._decode_all(h1, fc1)
        np.testing.assert_allclose(outs[1].x_cls.data, manual.x_cls.data, atol=1e-12)
        np.testing.assert_allclose(outs[1].regions["det"][0].data, manual.regions["det"][0].data, atol=1e-12)
        np.testing.assert_allclose(outs[1].regions["part"][1].data, manual.regions["part"][1].data, atol=1e-12)

    def test_update1_is_memoryless_in_h(self):
        # The stacking integrator rebuilds h from labels only, so unrolling
        # deeper never changes an iteration that sees the same labels.
        cfg = small_cfg(mode="update1")
        net = Multinet(cfg, seed=3)
        img, boxes = small_inputs(cfg)
        o2 = net.forward(img, boxes, n_iters=2)
        o4 = net.forward(img, boxes, n_iters=4)
        for a, b in zip(o2, o4[:3]):
            np.testing.assert_array_equal(a.regions["det"][0].data, b.regions["det"][0].data)

    def test_truncate_feedback_same_forward_values(self):
        img, boxes = small_inputs(small_cfg())
        full = Multinet(small_cfg(), seed=6).forward(img, boxes)
        trunc = Multinet(small_cfg(truncate_feedback=True), seed=6).forward(img, boxes)
        for a, b in zip(full, trunc):
            np.testing.assert_array_equal(a.regions["det"][0].data, b.regions["det"][0].data)

    def test_no_part_task(self):
        cfg = small_cfg(c_part=0)
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        outs = net.forward(img, boxes)
        assert all("part" not in o.regions for o in outs)

    def test_bottleneck_gradient_fd(self):
        # Gradient w.r.t. the 1x1 integrator filters, finite differences.
        cfg = small_cfg(mode="update2", t=1, canvas=16, m=4)
        net = Multinet(cfg, seed=1)
        img, boxes = small_inputs(cfg)
        A = net.params["bottleneck.filters"]

        def scalar():
            outs = net.forward(img, boxes)
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


class TestSplitFc1Gradient:
    """update1, T = 2: the image rows of a region fc1's stacked record read
    the pooled image channels at every t, the task rows read only the task
    channels of t >= 1."""

    def grads(self, iters):
        """Analytic gradient of the det.fc1.weight record (`fc1_rows` gives
        its image and task rows), and central differences at
        six image-row and six task-row entries, of a weighted sum of the
        outputs of the iterations `iters`. Each output's weights are the
        same whichever iterations are summed. Entries are drawn from rows
        with some gradient when a row set has any (a row whose pooled input
        is zero in every region has none)."""
        net = as_float64(Multinet(small_cfg(mode="update1", t=2, canvas=16, m=4), seed=4))
        img, boxes = small_inputs(net.cfg, seed=1)
        blocks = fc1_rows(net.cfg)
        fc1_record_rows = tuple(blocks.values())  # (image rows, task rows)
        # Record row -> (the block parameter holding it, its row there).
        block_row = {int(i): (net.params[f"det.fc1.weight:{b}"].data, k)
                     for b, rows in blocks.items() for k, i in enumerate(rows)}

        def scalar():
            r = np.random.default_rng(0)
            total = Tensor(0.0)
            for t, out in enumerate(net.forward(img, boxes)):
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
        ana = record_grads(net)["det.fc1.weight"]
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


class TestGrounding:
    def test_grounding_with_own_prediction_is_identity(self):
        cfg = small_cfg(t=1)
        net = Multinet(cfg, seed=9)
        img, boxes = small_inputs(cfg)
        outs = net.forward(img, boxes)
        grounded = net.forward(img, boxes, ground_cls=outs[0].x_cls.data, n_iters=1)
        np.testing.assert_allclose(grounded[1].x_cls.data, outs[1].x_cls.data, atol=1e-14)
        np.testing.assert_allclose(grounded[1].regions["det"][0].data, outs[1].regions["det"][0].data, atol=1e-14)

    def test_grounded_label_changes_downstream(self):
        cfg = small_cfg(t=1)
        net = Multinet(cfg, seed=9)
        img, boxes = small_inputs(cfg)
        outs = net.forward(img, boxes)
        flipped = 1.0 - outs[0].x_cls.data
        grounded = net.forward(img, boxes, ground_cls=flipped, n_iters=1)
        assert not np.allclose(grounded[1].x_cls.data, outs[1].x_cls.data)

    def test_grounded_truth_reencoded_every_iteration(self):
        # With cls grounded, iteration 1 must integrate the encoded truth
        # rather than the prediction; verify by manual recomposition.
        cfg = small_cfg(t=1, mode="update1")
        net = as_float64(Multinet(cfg, seed=11))
        img, boxes = small_inputs(cfg)
        truth = np.array([1.0, 0.0, 1.0])
        outs = net.forward(img, boxes, ground_cls=truth, n_iters=1)
        r_img = net.encode_image(img)
        hh, ww = r_img.data.shape[:2]
        cov = covering(boxes, STRIDE, hh, ww)
        r_cls = encode_cls(Tensor(truth), hh, ww)
        r_det = encode_det(outs[0].regions["det"][0], cov, hh, ww)
        r_part = encode_det(outs[0].regions["part"][0], cov, hh, ww)
        h1 = integrate_stack(r_img, r_cls, r_det, r_part)
        manual = net.decode_cls(h1)
        np.testing.assert_allclose(outs[1].x_cls.data, manual.data, atol=1e-12)

    def test_bad_ground_shape_rejected(self):
        cfg = small_cfg(t=1)
        net = Multinet(cfg, seed=0)
        img, boxes = small_inputs(cfg)
        with pytest.raises(TensorError):
            net.forward(img, boxes, ground_cls=np.zeros(7), n_iters=1)


def whole_fc1_layers(net):
    """Each region head's unsplit fc1: its checkpoint record's stacked
    weight, as a new tensor that collects the whole weight's gradient, with
    the head's bias."""
    records = {name: data for name, data, _ in net.records()}
    return {
        task: Layer(Tensor(records[f"{task}.fc1.weight"].copy(), requires_grad=True),
                      hd["fc1"].bias)
        for task, hd in net.region_heads.items()
    }


def whole_fc1(net, layer, h, boxes):
    """fc1 pre-activation of one region head from the whole map `h`: the
    regions of every channel of `h` pooled and fed through the unsplit fc1
    `layer`."""
    pooled = nnops.spp_pool_regions(h, boxes, net.grid)
    flat = reshape(pooled, (len(boxes), pooled.data.size // len(boxes)))
    return nnops.fully_connected(flat, layer)


def forward_oracle(net, layers, img, boxes, ground_cls=None, n_iters=None):
    """The iteration schedule of `Multinet.forward` built from its public
    pieces, with every region head pooling the full map `h` on its own and
    decoding it through its unsplit fc1 from `whole_fc1_layers`."""
    cfg = net.cfg
    r_img = net.encode_image(img)
    hh, ww = r_img.data.shape[:2]
    if cfg.mode == "shared":
        n_iters = 0
    n_iters = cfg.t if n_iters is None else n_iters

    def decode(h):
        regions = {
            task: net.decode_regions(whole_fc1(net, layers[task], h, boxes), task)
            for task in cfg.region_classes
        }
        return MultinetOutput(net.decode_cls(h), regions)

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
        # every mode but update1, and at update1's t = 0, where the task
        # rows only add exact zeros. At update1's t >= 1 the split fc1 sums
        # the image rows (plus bias) apart from the task rows, so only
        # rounding may differ.
        net, img, boxes, kwargs = pool_once_setup(mode, overrides, kwargs)
        got = net.forward(img, boxes, **kwargs)
        want = forward_oracle(net, whole_fc1_layers(net), img, boxes, **kwargs)
        assert len(got) == len(want) > 0
        for t, (out_a, out_b) in enumerate(zip(got, want)):
            pairs = list(zip(output_tensors([out_a]), output_tensors([out_b])))
            assert pairs
            for a, b in pairs:
                if mode == "update1" and t > 0:
                    scale = np.max(np.abs(b.data))
                    assert np.max(np.abs(a.data - b.data)) <= 1e-12 * scale
                else:
                    np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("mode,overrides,kwargs", POOL_ONCE_CASES)
    def test_gradients_match_per_head_pooling(self, mode, overrides, kwargs):
        # Pooling once sums the heads' (and iterations') gradients before
        # one scatter instead of after several: only rounding may differ.
        # Gradients are compared as checkpoint records, the oracle's unsplit
        # fc1 weights standing in for the records they were built from.
        net, img, boxes, kwargs = pool_once_setup(mode, overrides, kwargs)
        layers = whole_fc1_layers(net)
        grads = []
        for fwd in (net.forward, lambda *a, **k: forward_oracle(net, layers, *a, **k)):
            net.params.zero_grads()
            with Tape() as tape:
                backward(weighted_total(output_tensors(fwd(img, boxes, **kwargs))), tape)
            grads.append(record_grads(net))
        got, want = grads
        want.update({f"{task}.fc1.weight": fc.weight.grad for task, fc in layers.items()})
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

        def counted(h, rois, grid):
            seen.append(h.data.shape[2])
            return pool(h, rois, grid)

        monkeypatch.setattr(nnops, "spp_pool_regions", counted)
        net.forward(img, boxes)
        width = {"C": net.cfg.channels, "task": net.cfg.task_channels}
        assert seen == [width[w] for w in widths]

    @pytest.mark.parametrize("mode", ["update1", "update2"])
    def test_footprints_built_once_per_box_set(self, monkeypatch, mode):
        # Pooling and the label maps of `encode_det` read one layout per box
        # set: a forward over new boxes builds their footprints once, and a
        # forward over the same boxes again builds none.
        net = Multinet(small_cfg(mode=mode, t=2), seed=0)
        img, boxes = small_inputs(net.cfg)
        built = []
        footprints = nnops.feature_footprints
        monkeypatch.setattr(nnops, "feature_footprints",
                            lambda *args: built.append(args) or footprints(*args))
        nnops._SPP_LAYOUT.clear()
        net.forward(img, boxes)
        assert len(built) == 1
        net.forward(img, boxes)
        assert len(built) == 1

    @pytest.mark.parametrize(
        "mode,overrides,steps",
        [("update1", None, ["img", "decode", "task", "decode", "task", "decode"]),
         ("shared", None, ["img", "decode"]),
         ("shared", {"c_part": 0}, ["img", "decode"]),
         ("update1", {"c_part": 0}, ["img", "decode", "task", "decode", "task", "decode"]),
         ("update2", None, ["whole", "decode"] * 3)],
    )
    def test_fc1_products_per_forward(self, monkeypatch, mode, overrides, steps):
        # The stacking modes take each head's image-block product once per
        # forward and a task-block product only at t >= 1; update2 applies
        # the whole fc1 at every t. No op gathers rows of a parameter: every
        # parameter is read whole by a product. No pooled (4-D) block is
        # ever joined by `stack_channels`.
        net = Multinet(small_cfg(mode=mode, t=2, **(overrides or {})), seed=0)
        img, boxes = small_inputs(net.cfg)
        image = "whole" if mode == "update2" else "img"
        fc1 = {hd["fc1"].weight: f"{task}:{image}" for task, hd in net.region_heads.items()}
        fc1.update({hd["fc1_task"]: f"{task}:task" for task, hd in net.region_heads.items()
                    if hd["fc1_task"] is not None})
        seen = []
        mul, full = model.matmul, nnops.fully_connected
        decode, stack = Multinet.decode_regions, nnops.stack_channels

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

        def stack_channels(tensors):
            assert all(t.data.ndim == 3 for t in tensors)
            return stack(tensors)

        monkeypatch.setattr(model, "matmul", matmul)
        monkeypatch.setattr(nnops, "fully_connected", fully_connected)
        monkeypatch.setattr(Multinet, "decode_regions", decode_regions)
        monkeypatch.setattr(nnops, "stack_channels", stack_channels)
        with Tape() as tape:
            net.forward(img, boxes)

        heads = list(net.region_heads)
        want = [f"decode:{h}" if step == "decode" else f"{h}:{step}"
                for step in steps for h in heads]
        assert seen == want
        params = {t for _, t, _ in net.params.items()}
        readers = [node.backward_fn.__qualname__.partition(".")[0] for node in tape.nodes
                   if params.intersection(node.inputs)]
        assert readers.count("take_rows") == 0
        assert set(readers) <= {"conv2d", "fully_connected", "matmul"}
