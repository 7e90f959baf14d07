from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet import tasks
from multinet.tasks import (
    IGNORE,
    average_precision,
    assign_regions,
    bbox_decode,
    bbox_encode,
    bce_multilabel,
    evaluate,
    iou,
    iou_matrix,
    match_detections,
    metrics_to_rows,
    nms,
    ranked_binary_ap,
    score_scene,
    smooth_l1,
    softmax_ce,
)
from multinet.nnops import sigmoid, softmax_rows
from multinet.tensor import Tensor, TensorError, sum_all

from conftest import as_boxes, check_grads


def iou_rasterized(a, b, n=2000):
    """Approximate IoU of two (x1, y1, x2, y2) boxes by sampling a fine grid
    of cell centers."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    x_lo = min(ax1, bx1) - 1
    x_hi = max(ax2, bx2) + 1
    y_lo = min(ay1, by1) - 1
    y_hi = max(ay2, by2) + 1
    xs = np.linspace(x_lo, x_hi, n, endpoint=False) + (x_hi - x_lo) / (2 * n)
    ys = np.linspace(y_lo, y_hi, n, endpoint=False) + (y_hi - y_lo) / (2 * n)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= ax1) & (gx < ax2) & (gy >= ay1) & (gy < ay2)
    in_b = (gx >= bx1) & (gx < bx2) & (gy >= by1) & (gy < by2)
    inter = (in_a & in_b).sum()
    union = (in_a | in_b).sum()
    return inter / union


class TestBoxAndIou:
    def test_identical_boxes(self):
        b = (0, 0, 5, 5)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_touching_edges_is_zero(self):
        assert iou((0, 0, 2, 2), (2, 0, 4, 2)) == 0.0

    def test_unit_overlap_case(self):
        got = iou((0, 0, 2, 2), (1, 1, 3, 3))
        assert abs(got - 1.0 / 7.0) <= 1e-12
        assert abs(got - iou_rasterized((0, 0, 2, 2), (1, 1, 3, 3))) < 2e-3

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_range(self, seed):
        r = np.random.default_rng(seed)
        ax = sorted(r.uniform(0, 10, 2) + [0, 1e-3])
        ay = sorted(r.uniform(0, 10, 2) + [0, 1e-3])
        bx = sorted(r.uniform(0, 10, 2) + [0, 1e-3])
        by = sorted(r.uniform(0, 10, 2) + [0, 1e-3])
        a = (ax[0], ay[0], ax[1], ay[1])
        b = (bx[0], by[0], bx[1], by[1])
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    def test_random_cases_vs_rasterization(self):
        r = np.random.default_rng(9)
        for _ in range(10):
            ax = np.sort(r.uniform(0, 8, 2) + [0, 0.5])
            ay = np.sort(r.uniform(0, 8, 2) + [0, 0.5])
            bx = np.sort(r.uniform(0, 8, 2) + [0, 0.5])
            by = np.sort(r.uniform(0, 8, 2) + [0, 0.5])
            a, b = (ax[0], ay[0], ax[1], ay[1]), (bx[0], by[0], bx[1], by[1])
            assert abs(iou(a, b) - iou_rasterized(a, b)) < 3e-3


def scalar_iou(a, b):
    """The scalar IoU of two (x1, y1, x2, y2) boxes, one comparison at a
    time: the formula `iou_matrix` must reproduce bit for bit."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def random_boxes(r, n, span=20.0):
    """n boxes on a coarse grid, so that touching edges, shared corners,
    containment and identical boxes all occur, mixed with continuous ones."""
    x = np.sort(r.integers(0, 8, (n, 2)) * 2.5 + [0, 1], axis=1)
    y = np.sort(r.integers(0, 8, (n, 2)) * 2.5 + [0, 1], axis=1)
    cont = r.uniform(size=n) < 0.5
    x[cont] = np.sort(r.uniform(0, span, (cont.sum(), 2)) + [0, 1e-3], axis=1)
    y[cont] = np.sort(r.uniform(0, span, (cont.sum(), 2)) + [0, 1e-3], axis=1)
    return np.stack([x[:, 0], y[:, 0], x[:, 1], y[:, 1]], axis=1)


def scalar_decode(p, d):
    """One proposal moved by one delta 4-vector, as a (4,) array."""
    tx, ty, tw, th = d
    px, py, pw, ph = 0.5 * (p[0] + p[2]), 0.5 * (p[1] + p[3]), p[2] - p[0], p[3] - p[1]
    cx, cy = px + tx * pw, py + ty * ph
    w, h = pw * np.exp(tw), ph * np.exp(th)
    return np.array([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2])


class TestIouMatrix:
    def test_bit_equal_to_scalar_formula(self):
        r = np.random.default_rng(31)
        for _ in range(40):
            a = random_boxes(r, int(r.integers(1, 12)))
            b = random_boxes(r, int(r.integers(1, 12)))
            got = iou_matrix(a, b)
            want = np.array([[scalar_iou(p, q) for q in b] for p in a])
            assert got.shape == (len(a), len(b))
            assert got.tobytes() == want.tobytes()

    def test_edge_cases(self):
        a = np.array([[0, 0, 2, 2], [0, 0, 10, 10], [0, 0, 1, 1]], dtype=float)
        b = np.array([[2, 0, 4, 2], [2, 2, 4, 4], [0, 0, 2, 2], [5, 5, 6, 6]], dtype=float)
        got = iou_matrix(a, b)
        np.testing.assert_array_equal(got[0], [0.0, 0.0, 1.0, 0.0])  # touching, corner, same, apart
        np.testing.assert_array_equal(got[1], [0.04, 0.04, 0.04, 0.01])  # containment
        np.testing.assert_array_equal(got[2], [0.0, 0.0, 0.25, 0.0])

    def test_empty_sides(self):
        assert iou_matrix(np.zeros((0, 4)), np.ones((3, 4)) * [0, 0, 1, 1]).shape == (0, 3)
        assert iou_matrix([[0, 0, 1, 1]], np.zeros((0, 4))).shape == (1, 0)

    def test_scalar_iou_is_the_one_by_one_case(self):
        r = np.random.default_rng(32)
        a, b = random_boxes(r, 30), random_boxes(r, 30)
        for p, q in zip(a, b):
            assert iou(p, q) == iou_matrix(p, q)[0, 0] == scalar_iou(p, q)


class TestBce:
    def test_uniform_prediction(self):
        loss = bce_multilabel(Tensor(np.full(5, 0.5)), np.array([1, 0, 1, 0, 0]))
        np.testing.assert_allclose(loss.data, 5 * np.log(2.0))

    def test_near_perfect(self):
        p = np.array([1 - 1e-9, 1e-9])
        loss = bce_multilabel(Tensor(p), np.array([1, 0]))
        assert float(loss.data) < 1e-8

    def test_non_binary_gt_rejected(self):
        with pytest.raises(ValueError):
            bce_multilabel(Tensor(np.full(2, 0.5)), np.array([0.5, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(TensorError):
            bce_multilabel(Tensor(np.full(3, 0.5)), np.array([1, 0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_through_sigmoid(self, seed):
        r = np.random.default_rng(seed)
        logits = r.normal(size=4)
        gt = (r.uniform(size=4) > 0.5).astype(float)
        check_grads(lambda t: bce_multilabel(sigmoid(t), gt), [logits])


class TestSoftmaxCe:
    def test_uniform_rows(self):
        scores = Tensor(np.full((3, 4), 0.25))
        loss = softmax_ce(scores, [0, 1, 3])
        np.testing.assert_allclose(loss.data, np.log(4.0))

    def test_perfect_prediction(self):
        scores = Tensor(np.eye(3) * (1 - 1e-12) + 1e-13)
        loss = softmax_ce(scores, [0, 1, 2])
        assert float(loss.data) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_ce(Tensor(np.full((2, 3), 1 / 3)), [0, 3])

    def test_label_count_mismatch(self):
        with pytest.raises(TensorError):
            softmax_ce(Tensor(np.full((2, 3), 1 / 3)), [0])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_through_softmax(self, seed):
        r = np.random.default_rng(seed)
        logits = r.normal(size=(4, 3))
        labels = r.integers(0, 3, size=4)
        check_grads(lambda t: softmax_ce(softmax_rows(t), labels), [logits])


class TestBboxCodec:
    def test_identity(self):
        b = np.array([3.0, 4.0, 10.0, 20.0])
        np.testing.assert_allclose(bbox_encode(b, b), np.zeros(4), atol=1e-15)

    def test_known_case(self):
        d = bbox_encode(np.array([0.0, 0.0, 2.0, 2.0]), np.array([1.0, 1.0, 3.0, 3.0]))
        np.testing.assert_allclose(d, [0.5, 0.5, 0.0, 0.0])

    def test_round_trip(self):
        r = np.random.default_rng(4)
        for _ in range(50):
            px = np.sort(r.uniform(0, 50, 2) + [0, 1])
            py = np.sort(r.uniform(0, 50, 2) + [0, 1])
            gx = np.sort(r.uniform(0, 50, 2) + [0, 1])
            gy = np.sort(r.uniform(0, 50, 2) + [0, 1])
            p = np.array([px[0], py[0], px[1], py[1]])
            g = np.array([gx[0], gy[0], gx[1], gy[1]])
            back = bbox_decode(p, bbox_encode(p, g))
            np.testing.assert_allclose(back, g, atol=1e-10)

    def test_decode_zero_deltas(self):
        p = np.array([2.0, 3.0, 8.0, 9.0])
        assert bbox_decode(p, np.zeros(4)).tolist() == p.tolist()

    def test_batched_equals_one_box_at_a_time(self):
        r = np.random.default_rng(5)
        props = random_boxes(r, 16, span=60.0)
        deltas = r.normal(0.0, 0.5, (16, 3, 4))
        got = bbox_decode(props[:, None, :], deltas)
        for i in range(16):
            for k in range(3):
                assert got[i, k].tobytes() == scalar_decode(props[i], deltas[i, k]).tobytes()
        gts = random_boxes(r, 16, span=60.0)
        enc = bbox_encode(props, gts)
        for i in range(16):
            assert enc[i].tobytes() == bbox_encode(props[i], gts[i]).tobytes()


class TestSmoothL1:
    def test_zero_when_equal(self):
        d = Tensor(np.ones((2, 8)))
        loss = smooth_l1(d, np.ones((2, 8)), np.ones((2, 8)))
        assert float(loss.data) == 0.0

    def test_branch_continuity_at_one(self):
        mask = np.ones((1, 4))
        lo = smooth_l1(Tensor([[1 - 1e-9, 0, 0, 0]]), np.zeros((1, 4)), mask)
        hi = smooth_l1(Tensor([[1 + 1e-9, 0, 0, 0]]), np.zeros((1, 4)), mask)
        assert abs(float(lo.data) - float(hi.data)) < 1e-8
        exact = smooth_l1(Tensor([[1.0, 0, 0, 0]]), np.zeros((1, 4)), mask)
        np.testing.assert_allclose(exact.data, 0.5)

    def test_quadratic_inside(self):
        mask = np.ones((1, 4))
        loss = smooth_l1(Tensor([[0.4, 0, 0, 0]]), np.zeros((1, 4)), mask)
        np.testing.assert_allclose(loss.data, 0.5 * 0.16)

    def test_normalized_by_foreground_count(self):
        d = Tensor(np.full((3, 4), 2.0))
        mask = np.zeros((3, 4))
        mask[:2] = 1.0  # two foreground regions
        loss = smooth_l1(d, np.zeros((3, 4)), mask)
        np.testing.assert_allclose(loss.data, 8 * 1.5 / 2)

    def test_zero_foreground_gives_zero(self):
        loss = smooth_l1(Tensor(np.ones((2, 4))), np.zeros((2, 4)), np.zeros((2, 4)))
        assert float(loss.data) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient(self, seed):
        r = np.random.default_rng(seed)
        d = r.normal(size=(3, 8)) * 2
        d[np.abs(np.abs(d) - 1.0) < 0.05] *= 1.2  # avoid the branch point
        targets = np.zeros((3, 8))
        mask = np.zeros((3, 8))
        mask[r.integers(0, 3)] = 1.0
        check_grads(lambda t: smooth_l1(t, targets, mask), [d])


N_CLASSES = 4  # the largest class the assignment tests use


def assign(regions, gts):
    """`assign_regions` of a list of boxes against (class, box) pairs of
    classes in [1, N_CLASSES]."""
    classes = np.array([cls for cls, _ in gts], dtype=np.int64)
    return assign_regions(as_boxes(regions), classes, as_boxes([g for _, g in gts]), N_CLASSES)


def assign_oracle(regions, gts, fg=0.5, bg=(0.1, 0.5)):
    """Reference assignment of a list of boxes against (class, box) pairs,
    written as straight-line logic: labels, then box targets and their mask
    in the (M, 4 * (N_CLASSES + 1)) layout of the region head."""
    labels = []
    deltas, mask = np.zeros((2, len(regions), 4 * (N_CLASSES + 1)))
    for m, r in enumerate(regions):
        best_iou, best = -1.0, None
        for cls, g in gts:
            ov = iou(r, g)
            if ov > best_iou:
                best_iou, best = ov, (cls, g)
        if gts and best_iou >= fg:
            cls = best[0]
            labels.append(cls)
            deltas[m, 4 * cls : 4 * cls + 4] = bbox_encode(r, best[1])
            mask[m, 4 * cls : 4 * cls + 4] = 1.0
        elif not gts:
            labels.append(0)
        elif bg[0] <= best_iou < bg[1]:
            labels.append(0)
        else:
            labels.append(IGNORE)
    return np.array(labels), deltas, mask


class TestAssignment:
    def test_exact_match_is_foreground(self):
        g = (4, 4, 20, 20)
        t = assign([g], [(3, g)])
        assert t.labels[0] == 3
        assert t.deltas.shape == t.mask.shape == (1, 4 * (N_CLASSES + 1))
        np.testing.assert_allclose(t.deltas[0], np.zeros(4 * (N_CLASSES + 1)), atol=1e-15)
        np.testing.assert_array_equal(t.mask[0], np.arange(4 * (N_CLASSES + 1)) // 4 == 3)

    def test_disjoint_region_is_ignored(self):
        t = assign([(0, 0, 4, 4)], [(1, (30, 30, 50, 50))])
        assert t.labels[0] == IGNORE
        assert not t.mask.any()

    def test_moderate_overlap_is_background(self):
        # IoU = 16/64 = 0.25, inside [0.1, 0.5)
        t = assign([(0, 0, 8, 4)], [(1, (4, 0, 12, 4))])
        assert t.labels[0] == 0
        assert not t.mask.any()

    def test_no_ground_truth_all_background(self):
        t = assign([(0, 0, 4, 4), (5, 5, 9, 9)], [])
        np.testing.assert_array_equal(t.labels, [0, 0])
        assert t.deltas.shape == (2, 4 * (N_CLASSES + 1))
        assert not t.deltas.any() and not t.mask.any()

    def test_tie_goes_to_lowest_index(self):
        r = (0, 0, 10, 10)
        t = assign([r], [(2, r), (4, r)])
        assert t.labels[0] == 2
        np.testing.assert_array_equal(t.mask[0], np.arange(4 * (N_CLASSES + 1)) // 4 == 2)

    def test_randomized_vs_oracle(self):
        r = np.random.default_rng(21)
        for _ in range(30):
            def rand_box():
                x = np.sort(r.uniform(0, 40, 2) + [0, 4])
                y = np.sort(r.uniform(0, 40, 2) + [0, 4])
                return (x[0], y[0], x[1], y[1])

            regions = [rand_box() for _ in range(12)]
            gts = [(int(r.integers(1, 4)), rand_box()) for _ in range(r.integers(0, 4))]
            got = assign(regions, gts)
            labels, deltas, mask = assign_oracle(regions, gts)
            np.testing.assert_array_equal(got.labels, labels)
            np.testing.assert_allclose(got.deltas, deltas, atol=1e-12)
            assert got.mask.tobytes() == mask.tobytes()


def test_numpy_floating_point_warnings_fail_the_suite():
    # pyproject.toml turns every RuntimeWarning into an error, so an overflow,
    # invalid value or division by zero that escapes the code fails a test.
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.exp(np.float64(800.0))


def scalar_nms(boxes, scores, iou_thresh):
    """Greedy suppression one pair at a time: a box is kept when its IoU with
    every box kept before it is <= iou_thresh."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    keep = []
    for i in order:
        if all(scalar_iou(boxes[i], boxes[j]) <= iou_thresh for j in keep):
            keep.append(int(i))
    return keep


class TestNms:
    def test_keeps_highest_of_overlapping_pair(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11]], dtype=float)
        assert nms(boxes, [0.3, 0.9]) == [1]

    def test_disjoint_boxes_all_kept(self):
        boxes = np.array([[0, 0, 5, 5], [20, 20, 25, 25], [40, 0, 45, 5]], dtype=float)
        assert sorted(nms(boxes, [0.5, 0.9, 0.1])) == [0, 1, 2]

    def test_output_is_score_descending(self):
        boxes = np.array([[0, 0, 5, 5], [20, 20, 25, 25]], dtype=float)
        assert nms(boxes, [0.2, 0.8]) == [1, 0]

    def test_tie_is_stable(self):
        boxes = np.array([[0, 0, 5, 5], [20, 20, 25, 25]], dtype=float)
        assert nms(boxes, [0.5, 0.5]) == [0, 1]

    def test_iou_at_threshold_is_kept(self, monkeypatch):
        boxes = np.array([[0, 0, 2, 2], [1, 1, 3, 3]], dtype=float)  # IoU 1/7
        monkeypatch.setattr(tasks, "NMS_IOU", iou((0, 0, 2, 2), (1, 1, 3, 3)))
        assert nms(boxes, [0.9, 0.8]) == [0, 1]

    def test_200_random_cases_vs_scalar_loop(self, monkeypatch):
        r = np.random.default_rng(77)
        for case in range(200):
            n = int(r.integers(1, 16))
            boxes = random_boxes(r, n)
            scores = np.round(r.uniform(size=n), 1)  # coarse, so scores tie
            ious = iou_matrix(boxes, boxes)
            # Every fourth case sets the threshold to an IoU that occurs.
            thresh = ious[r.integers(n), r.integers(n)] if case % 4 == 0 else r.uniform(0.0, 0.8)
            monkeypatch.setattr(tasks, "NMS_IOU", thresh)
            assert nms(boxes, scores) == scalar_nms(boxes, scores, thresh)


def ap_oracle(tp_sequence, n_gt):
    """All-point AP from a rank-ordered TP/FP sequence: every true positive
    contributes max-precision-at-or-after-its-rank / n_gt."""
    n = len(tp_sequence)
    precisions = []
    c = 0
    for k in range(n):
        c += tp_sequence[k]
        precisions.append(c / (k + 1))
    ap = 0.0
    for k in range(n):
        if tp_sequence[k]:
            ap += max(precisions[k:]) / n_gt
    return ap


def _far_box(i):
    return (100.0 * i, 0.0, 100.0 * i + 10.0, 10.0)


MISS = (5000.0, 5000.0, 5010.0, 5010.0)  # a box no ground truth overlaps


def _ap(dets, gts, thresh=0.5):
    """AP of (box, score) detections in one image with (G, 4) ground truth
    `gts`, matched in score order."""
    boxes = as_boxes([b for b, _ in dets])
    scores = np.array([s for _, s in dets], dtype=float)
    order = np.argsort(-scores, kind="stable")
    return average_precision(scores[order], match_detections(boxes[order], gts, thresh), len(gts))


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        g = (0.0, 0.0, 10.0, 10.0)
        assert _ap([(g, 0.9)], as_boxes([g])) == 1.0

    def test_no_detections(self):
        assert _ap([], as_boxes([(0, 0, 5, 5)])) == 0.0

    def test_no_ground_truth(self):
        assert _ap([((0, 0, 5, 5), 0.9)], as_boxes([])) == 0.0

    def test_tp_fp_tp_over_two_gts(self):
        g0, g1 = _far_box(0), _far_box(1)
        dets = [(g0, 0.9), ((500, 500, 510, 510), 0.8), (g1, 0.7)]
        got = _ap(dets, as_boxes([g0, g1]))
        assert abs(got - 5.0 / 6.0) <= 1e-12
        assert abs(got - ap_oracle([1, 0, 1], 2)) <= 1e-12

    def test_duplicate_detection_is_false_positive(self):
        g = _far_box(0)
        got = _ap([(g, 0.9), (g, 0.8)], as_boxes([g]))
        assert got == 1.0  # recall saturates at the first detection

    def test_oracle_100_random_cases(self):
        r = np.random.default_rng(55)
        for _ in range(100):
            n_gt = int(r.integers(1, 6))
            gts = as_boxes([_far_box(i) for i in range(n_gt)])
            dets = []
            tp_seq = []
            scores = -np.sort(-r.uniform(0.01, 1.0, r.integers(0, 10)))
            used = set()
            for s in scores:
                if r.uniform() < 0.5 and len(used) < n_gt:
                    i = min(set(range(n_gt)) - used)
                    used.add(i)
                    dets.append((_far_box(i), float(s)))
                    tp_seq.append(1)
                else:
                    dets.append((MISS, float(s)))
                    tp_seq.append(0)
            got = _ap(dets, gts)
            assert abs(got - ap_oracle(tp_seq, n_gt)) <= 1e-9

    @given(st.floats(0.1, 5.0), st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_score_transform_invariance(self, scale, shift):
        r = np.random.default_rng(17)
        n_gt = 3
        gts = as_boxes([_far_box(i) for i in range(n_gt)])
        scores = r.uniform(0.1, 1.0, 6)
        dets = [
            (_far_box(i % 4) if i % 4 < n_gt else (900, 900, 910, 910), float(s))
            for i, s in enumerate(scores)
        ]
        base = _ap(dets, gts)
        rescaled = [(b, s * scale + shift) for b, s in dets]
        assert _ap(rescaled, gts) == base

    def test_matches_in_each_image_separately(self):
        g = as_boxes([_far_box(0)])
        gts = [g, g, np.zeros((0, 4))]
        # Image 1's copy of g is a hit; image 2 has no ground truth.
        tp = np.concatenate([match_detections(g, gt, 0.5) for gt in gts])
        got = average_precision([0.9, 0.8, 0.7], tp, 2)
        assert got == ap_oracle([1, 1, 0], 2)

    def test_detection_takes_its_best_gt_even_when_matched(self):
        # The second detection overlaps gt 0 best; gt 0 is taken, so it is
        # a false positive although it also overlaps gt 1 above threshold.
        gts = as_boxes([(0, 0, 10, 10), (2, 0, 12, 10)])
        dets = [((0, 0, 10, 10), 0.9), ((0.5, 0, 10.5, 10), 0.8)]
        assert _ap(dets, gts) == ap_oracle([1, 0], 2)
class TestRankedBinaryAp:
    def test_perfect_ranking(self):
        assert ranked_binary_ap([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_worst_ranking(self):
        got = ranked_binary_ap([0.9, 0.1], [0, 1])
        assert got == 0.5

    def test_no_positives(self):
        assert ranked_binary_ap([0.5], [0]) == 0.0

    def test_matches_detection_ap_semantics(self):
        # A binary ranking is an AP problem with one "gt" per positive image.
        r = np.random.default_rng(3)
        for _ in range(20):
            n = int(r.integers(2, 10))
            labels = (r.uniform(size=n) > 0.5).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            scores = r.uniform(size=n)
            order = np.argsort(-scores, kind="stable")
            tp_seq = list(labels[order])
            assert abs(ranked_binary_ap(scores, labels) - ap_oracle(tp_seq, labels.sum())) <= 1e-9


class Prediction(NamedTuple):
    """Raw per-scene network outputs as plain arrays."""

    cls_scores: np.ndarray  # (C_cls,)
    regions: dict  # task -> (scores (M, K + 1) row-stochastic, deltas (M, 4 * (K + 1)))
    proposals: np.ndarray  # (M, 4) boxes


def _record(pred, scene, canvas=64):
    return score_scene(pred.cls_scores, pred.regions, pred.proposals, scene, canvas)


def _perfect_prediction(scene, proposals, n_classes, n_parts):
    m = len(proposals)
    det_scores = np.zeros((m, n_classes + 1))
    det_deltas = np.zeros((m, 4 * (n_classes + 1)))
    det_scores[:, 0] = 1.0
    for i, p in enumerate(proposals):
        for cls, g in zip(scene.object_classes, scene.object_boxes):
            if iou(p, g) >= 0.7:
                det_scores[i] = 0.0
                det_scores[i, cls] = 1.0
                det_deltas[i, 4 * cls : 4 * cls + 4] = bbox_encode(p, g)
                break
    part_scores = np.zeros((m, n_parts + 1))
    part_deltas = np.zeros((m, 4 * (n_parts + 1)))
    part_scores[:, 0] = 1.0
    for i, p in enumerate(proposals):
        for cls, g in zip(scene.part_classes, scene.part_boxes):
            if iou(p, g) >= 0.7:
                part_scores[i] = 0.0
                part_scores[i, cls] = 1.0
                part_deltas[i, 4 * cls : 4 * cls + 4] = bbox_encode(p, g)
                break
    return Prediction(
        cls_scores=scene.img_label.astype(float),
        regions={"det": (det_scores, det_deltas), "part": (part_scores, part_deltas)},
        proposals=proposals,
    )


class TestEvaluate:
    def _scenes(self, n=12, seed=0):
        from multinet.synthdata import SceneSpec, generate_dataset, propose_regions

        spec = SceneSpec(seed=seed)
        scenes = generate_dataset(spec, n)
        props = [propose_regions(s, spec, 64, i) for i, s in enumerate(scenes)]
        return spec, scenes, props

    def test_oracle_predictions_score_one(self):
        spec, scenes, props = self._scenes()
        records = [
            _record(_perfect_prediction(s, p, spec.n_classes, spec.n_part_classes), s)
            for s, p in zip(scenes, props)
        ]
        m = evaluate(records, spec.n_classes)
        # Classes absent from every scene contribute AP 0; restrict to present.
        present = {int(c) for s in scenes for c in s.object_classes}
        for c in present:
            assert m["det_ap_per_class"][c - 1] == 1.0
            assert m["cls_ap_per_class"][c - 1] == 1.0
        present_parts = {int(c) for s in scenes for c in s.part_classes}
        for c in present_parts:
            assert m["part_ap_per_class"][c - 1] == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], 5)

    def test_metrics_rows_layout(self):
        spec, scenes, props = self._scenes(4)
        records = [
            _record(_perfect_prediction(s, p, spec.n_classes, spec.n_part_classes), s)
            for s, p in zip(scenes, props)
        ]
        m = evaluate(records, spec.n_classes)
        rows = metrics_to_rows("run", "update1", 2, 0, m)
        assert all(len(r) == len(tasks.METRIC_CSV_COLUMNS) for r in rows)
        names = {r[4] for r in rows}
        assert {"cls_ap", "det_ap", "part_ap", "cls_map"} <= names


def scalar_ranking(dets, gts, iou_thresh):
    """Scores in rank order and their true-positive flags, matched one
    detection at a time. dets: (box, score, image) triples in any order;
    gts: dict image -> list of boxes."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i][1])
    matched = {img: np.zeros(len(v), dtype=bool) for img, v in gts.items()}
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        box, _score, img = dets[i]
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(gts.get(img, [])):
            ov = scalar_iou(box, g)
            if ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0 and best_iou >= iou_thresh and not matched[img][best_j]:
            matched[img][best_j] = True
            tp[rank] = 1.0
    return [dets[i][1] for i in order], tp


def scalar_average_precision(dets, gts, iou_thresh):
    """AP of one class over `scalar_ranking`; the ranked scores make
    `average_precision`'s stable sort the identity."""
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return 0.0
    return average_precision(*scalar_ranking(dets, gts, iou_thresh), n_gt)


def scalar_detections(preds, task, canvas=64):
    """Class k -> the (box, score, image) detections NMS keeps, with every
    proposal decoded, clipped and suppressed one box at a time."""
    k_max = preds[0].regions[task][0].shape[1] - 1
    dets = {k: [] for k in range(1, k_max + 1)}
    for img, p in enumerate(preds):
        scores, deltas = p.regions[task]
        for k in range(1, k_max + 1):
            boxes, ss = [], []
            for m, prop in enumerate(p.proposals):
                b = scalar_decode(prop, deltas[m, 4 * k : 4 * k + 4])
                x1 = min(max(b[0], 0.0), canvas - 1.0)
                y1 = min(max(b[1], 0.0), canvas - 1.0)
                x2 = min(max(b[2], x1 + 1e-3), float(canvas))
                y2 = min(max(b[3], y1 + 1e-3), float(canvas))
                boxes.append((x1, y1, x2, y2))
                ss.append(float(scores[m, k]))
            for i in scalar_nms(boxes, ss, tasks.NMS_IOU):
                dets[k].append((boxes[i], ss[i], img))
    return dets


def _scalar_gts(task, scene, k):
    return [tuple(b) for cls, b in zip(*task.ground_truth(scene)) if cls == k]


def scalar_evaluate(preds, scenes, n_classes, canvas=64):
    """`evaluate` over `scalar_detections`, with AP matched one detection at
    a time."""
    cls_aps = [
        ranked_binary_ap([p.cls_scores[c] for p in preds], [s.img_label[c] for s in scenes])
        for c in range(n_classes)
    ]
    out = {"cls_map": float(np.mean(cls_aps)), "cls_ap_per_class": cls_aps}
    for task in tasks.REGION_TASKS.values():
        aps = None
        if task.name in preds[0].regions:
            dets = scalar_detections(preds, task.name, canvas)
            aps = []
            for k in dets:
                gts = {i: _scalar_gts(task, s, k) for i, s in enumerate(scenes)}
                aps.append(scalar_average_precision(dets[k], gts, task.match_iou))
        out[f"{task.name}_ap"] = None if aps is None else float(np.mean(aps))
        out[f"{task.name}_ap_per_class"] = aps
    return out


def _random_prediction(r, scene, spec, index):
    """Scores rounded to 0.05 (so they tie); a quarter of the deltas are
    scaled up so that boxes cross the canvas edges or leave it entirely and
    collapse onto the minimum-size box at the edge."""
    from multinet.synthdata import propose_regions

    props = propose_regions(scene, spec, 32, index)
    regions = {}
    for task, k in (("det", spec.n_classes), ("part", spec.n_part_classes)):
        scores = np.round(r.dirichlet(np.ones(k + 1), 32) * 20) / 20
        wide = np.where(r.uniform(size=(32, 4 * (k + 1))) < 0.25, 10.0, 1.0)
        regions[task] = (scores, r.normal(0.0, 0.6, (32, 4 * (k + 1))) * wide)
    return Prediction(r.uniform(size=spec.n_classes), regions, props)


class TestEvaluateMatchesScalarScoring:
    def test_random_predictions(self):
        # Each scene's kept scores and true-positive flags, and the metric
        # dicts, equal the box-at-a-time path.
        from multinet.synthdata import SceneSpec, generate_dataset

        r = np.random.default_rng(8)
        for seed in range(3):
            spec = SceneSpec(seed=seed, noise_std=0.0)
            scenes = generate_dataset(spec, 5)
            preds = [_random_prediction(r, s, spec, i) for i, s in enumerate(scenes)]
            records = [_record(p, s) for p, s in zip(preds, scenes)]
            assert evaluate(records, spec.n_classes) == scalar_evaluate(
                preds, scenes, spec.n_classes)
            for task in tasks.REGION_TASKS.values():
                want = scalar_detections(preds, task.name)
                for img, (rec, scene) in enumerate(zip(records, scenes)):
                    for k, (scores, tp, n_gt) in enumerate(rec.regions[task.name], 1):
                        gts = _scalar_gts(task, scene, k)
                        ranked, want_tp = scalar_ranking(
                            [d for d in want[k] if d[2] == img], {img: gts}, task.match_iou)
                        assert scores.tolist() == ranked
                        assert tp.tolist() == want_tp.tolist()
                        assert n_gt == len(gts)
            det_only = [Prediction(p.cls_scores, {"det": p.regions["det"]}, p.proposals)
                        for p in preds]
            assert evaluate([_record(p, s) for p, s in zip(det_only, scenes)],
                            spec.n_classes) == scalar_evaluate(det_only, scenes, spec.n_classes)

    @pytest.mark.parametrize("value", [800.0, np.inf, np.nan], ids=["overflow", "inf", "nan"])
    def test_non_finite_box_is_tensor_error(self, value):
        # Before, exp overflowed with only a RuntimeWarning, and the infinite
        # box was clipped to the canvas and scored.
        from multinet.synthdata import SceneSpec, generate_scene

        spec = SceneSpec(seed=0)
        scene = generate_scene(spec, 0)
        pred = _random_prediction(np.random.default_rng(0), scene, spec, 0)
        pred.regions["part"][1][3, 6] = value  # region 3, class 1's log-width target
        with pytest.raises(TensorError, match="^part deltas decode to non-finite boxes$"):
            _record(pred, scene)

    def test_resampled_scenes(self):
        # Records of a multiset of scenes (repeated, reordered) score like
        # the same scene list scored from scratch, as a scene bootstrap needs.
        from multinet.synthdata import SceneSpec, generate_dataset

        r = np.random.default_rng(9)
        spec = SceneSpec(seed=4, noise_std=0.0)
        scenes = generate_dataset(spec, 4)
        preds = [_random_prediction(r, s, spec, i) for i, s in enumerate(scenes)]
        records = [_record(p, s) for p, s in zip(preds, scenes)]
        for pick in ([0, 1, 2, 3], [2, 0, 2, 3, 1], [3, 3, 3, 0]):
            got = evaluate([records[i] for i in pick], spec.n_classes)
            assert got == scalar_evaluate(
                [preds[i] for i in pick], [scenes[i] for i in pick], spec.n_classes)

    def test_fixture_predictions_at_every_t(self):
        from pathlib import Path

        from multinet.harness import load_checkpoint, restore_model
        from multinet.synthdata import SceneSpec, generate_dataset, propose_regions

        ckpt = Path(__file__).parent / "_cache" / "bench_27af23a54b4faaee.ckpt"
        model = restore_model(load_checkpoint(ckpt)).model
        spec = SceneSpec(seed=100)
        scenes = generate_dataset(spec, 4, offset=10_000)
        per_t = [[] for _ in range(model.cfg.t + 1)]
        for i, scene in enumerate(scenes):
            props = propose_regions(scene, spec, model.cfg.m, seed=i)
            for t, out in enumerate(model.forward(scene.image, props)):
                regions = {k: (sc.data, d.data) for k, (sc, d) in out.regions.items()}
                per_t[t].append(Prediction(out.x_cls.data, regions, props))
        assert len(per_t) == 3
        for preds in per_t:
            got = evaluate([_record(p, s) for p, s in zip(preds, scenes)], spec.n_classes)
            assert got == scalar_evaluate(preds, scenes, spec.n_classes)
            assert got["det_ap"] > 0.5
