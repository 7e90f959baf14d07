import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet import tasks
from multinet.tasks import (
    IGNORE,
    Box,
    Detection,
    average_precision,
    assign_regions,
    bbox_decode,
    bbox_encode,
    bce_multilabel,
    evaluate,
    iou,
    metrics_to_rows,
    nms,
    ranked_binary_ap,
    smooth_l1,
    softmax_ce,
    ScenePrediction,
)
from multinet.nnops import sigmoid, softmax_rows
from multinet.tensor import Tensor, TensorError, sum_all

from conftest import check_grads


def iou_rasterized(a: Box, b: Box, n=2000):
    """Approximate IoU by sampling a fine grid of cell centers."""
    x_lo = min(a.x1, b.x1) - 1
    x_hi = max(a.x2, b.x2) + 1
    y_lo = min(a.y1, b.y1) - 1
    y_hi = max(a.y2, b.y2) + 1
    xs = np.linspace(x_lo, x_hi, n, endpoint=False) + (x_hi - x_lo) / (2 * n)
    ys = np.linspace(y_lo, y_hi, n, endpoint=False) + (y_hi - y_lo) / (2 * n)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= a.x1) & (gx < a.x2) & (gy >= a.y1) & (gy < a.y2)
    in_b = (gx >= b.x1) & (gx < b.x2) & (gy >= b.y1) & (gy < b.y2)
    inter = (in_a & in_b).sum()
    union = (in_a | in_b).sum()
    return inter / union


class TestBoxAndIou:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box(2, 2, 2, 3)

    def test_area(self):
        assert Box(1, 1, 4, 3).area == 6.0

    def test_identical_boxes(self):
        b = Box(0, 0, 5, 5)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 0.0

    def test_touching_edges_is_zero(self):
        assert iou(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == 0.0

    def test_unit_overlap_case(self):
        got = iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3))
        assert abs(got - 1.0 / 7.0) <= 1e-12
        assert abs(got - iou_rasterized(Box(0, 0, 2, 2), Box(1, 1, 3, 3))) < 2e-3

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_range(self, seed):
        r = np.random.default_rng(seed)
        ax = sorted(r.uniform(0, 10, 2) + [0, 1e-3])
        ay = sorted(r.uniform(0, 10, 2) + [0, 1e-3])
        bx = sorted(r.uniform(0, 10, 2) + [0, 1e-3])
        by = sorted(r.uniform(0, 10, 2) + [0, 1e-3])
        a = Box(ax[0], ay[0], ax[1], ay[1])
        b = Box(bx[0], by[0], bx[1], by[1])
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    def test_random_cases_vs_rasterization(self):
        r = np.random.default_rng(9)
        for _ in range(10):
            ax = np.sort(r.uniform(0, 8, 2) + [0, 0.5])
            ay = np.sort(r.uniform(0, 8, 2) + [0, 0.5])
            bx = np.sort(r.uniform(0, 8, 2) + [0, 0.5])
            by = np.sort(r.uniform(0, 8, 2) + [0, 0.5])
            a, b = Box(ax[0], ay[0], ax[1], ay[1]), Box(bx[0], by[0], bx[1], by[1])
            assert abs(iou(a, b) - iou_rasterized(a, b)) < 3e-3


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
        b = Box(3, 4, 10, 20)
        np.testing.assert_allclose(bbox_encode(b, b), np.zeros(4), atol=1e-15)

    def test_known_case(self):
        d = bbox_encode(Box(0, 0, 2, 2), Box(1, 1, 3, 3))
        np.testing.assert_allclose(d, [0.5, 0.5, 0.0, 0.0])

    def test_round_trip(self):
        r = np.random.default_rng(4)
        for _ in range(50):
            px = np.sort(r.uniform(0, 50, 2) + [0, 1])
            py = np.sort(r.uniform(0, 50, 2) + [0, 1])
            gx = np.sort(r.uniform(0, 50, 2) + [0, 1])
            gy = np.sort(r.uniform(0, 50, 2) + [0, 1])
            p = Box(px[0], py[0], px[1], py[1])
            g = Box(gx[0], gy[0], gx[1], gy[1])
            back = bbox_decode(p, bbox_encode(p, g))
            np.testing.assert_allclose(back.as_tuple(), g.as_tuple(), atol=1e-10)

    def test_decode_zero_deltas(self):
        p = Box(2, 3, 8, 9)
        assert bbox_decode(p, np.zeros(4)).as_tuple() == p.as_tuple()


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


def assign_oracle(regions, gts, fg=0.5, bg=(0.1, 0.5)):
    """Reference assignment written as straight-line logic."""
    labels, deltas = [], []
    for r in regions:
        best_iou, best = -1.0, None
        for cls, g in gts:
            ov = iou(r, g)
            if ov > best_iou:
                best_iou, best = ov, (cls, g)
        if gts and best_iou >= fg:
            labels.append(best[0])
            deltas.append(bbox_encode(r, best[1]))
        elif not gts:
            labels.append(0)
            deltas.append(np.zeros(4))
        elif bg[0] <= best_iou < bg[1]:
            labels.append(0)
            deltas.append(np.zeros(4))
        else:
            labels.append(IGNORE)
            deltas.append(np.zeros(4))
    return np.array(labels), np.array(deltas)


class TestAssignment:
    def test_exact_match_is_foreground(self):
        g = Box(4, 4, 20, 20)
        t = assign_regions([g], [(3, g)])
        assert t.labels[0] == 3
        np.testing.assert_allclose(t.deltas[0], np.zeros(4), atol=1e-15)

    def test_disjoint_region_is_ignored(self):
        t = assign_regions([Box(0, 0, 4, 4)], [(1, Box(30, 30, 50, 50))])
        assert t.labels[0] == IGNORE

    def test_moderate_overlap_is_background(self):
        # IoU = 16/64 = 0.25, inside [0.1, 0.5)
        t = assign_regions([Box(0, 0, 8, 4)], [(1, Box(4, 0, 12, 4))])
        assert t.labels[0] == 0

    def test_no_ground_truth_all_background(self):
        t = assign_regions([Box(0, 0, 4, 4), Box(5, 5, 9, 9)], [])
        np.testing.assert_array_equal(t.labels, [0, 0])

    def test_tie_goes_to_lowest_index(self):
        r = Box(0, 0, 10, 10)
        t = assign_regions([r], [(2, r), (4, r)])
        assert t.labels[0] == 2

    def test_randomized_vs_oracle(self):
        r = np.random.default_rng(21)
        for _ in range(30):
            def rand_box():
                x = np.sort(r.uniform(0, 40, 2) + [0, 4])
                y = np.sort(r.uniform(0, 40, 2) + [0, 4])
                return Box(x[0], y[0], x[1], y[1])

            regions = [rand_box() for _ in range(12)]
            gts = [(int(r.integers(1, 4)), rand_box()) for _ in range(r.integers(0, 4))]
            got = assign_regions(regions, gts)
            labels, deltas = assign_oracle(regions, gts)
            np.testing.assert_array_equal(got.labels, labels)
            fg = labels >= 1
            np.testing.assert_allclose(got.deltas[fg], deltas[fg], atol=1e-12)


class TestNms:
    def test_keeps_highest_of_overlapping_pair(self):
        boxes = [Box(0, 0, 10, 10), Box(1, 1, 11, 11)]
        assert nms(boxes, [0.3, 0.9], 0.3) == [1]

    def test_disjoint_boxes_all_kept(self):
        boxes = [Box(0, 0, 5, 5), Box(20, 20, 25, 25), Box(40, 0, 45, 5)]
        assert sorted(nms(boxes, [0.5, 0.9, 0.1], 0.3)) == [0, 1, 2]

    def test_output_is_score_descending(self):
        boxes = [Box(0, 0, 5, 5), Box(20, 20, 25, 25)]
        assert nms(boxes, [0.2, 0.8], 0.3) == [1, 0]

    def test_tie_is_stable(self):
        boxes = [Box(0, 0, 5, 5), Box(20, 20, 25, 25)]
        assert nms(boxes, [0.5, 0.5], 0.3) == [0, 1]


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
    return Box(100.0 * i, 0.0, 100.0 * i + 10.0, 10.0)


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        g = Box(0, 0, 10, 10)
        dets = [Detection(g, 1, 0.9, 0)]
        assert average_precision(dets, {0: [g]}, 0.5) == 1.0

    def test_no_detections(self):
        assert average_precision([], {0: [Box(0, 0, 5, 5)]}, 0.5) == 0.0

    def test_no_ground_truth(self):
        dets = [Detection(Box(0, 0, 5, 5), 1, 0.9, 0)]
        assert average_precision(dets, {}, 0.5) == 0.0

    def test_tp_fp_tp_over_two_gts(self):
        g0, g1 = _far_box(0), _far_box(1)
        dets = [
            Detection(g0, 1, 0.9, 0),
            Detection(Box(500, 500, 510, 510), 1, 0.8, 0),
            Detection(g1, 1, 0.7, 0),
        ]
        got = average_precision(dets, {0: [g0, g1]}, 0.5)
        assert abs(got - 5.0 / 6.0) <= 1e-12
        assert abs(got - ap_oracle([1, 0, 1], 2)) <= 1e-12

    def test_duplicate_detection_is_false_positive(self):
        g = _far_box(0)
        dets = [Detection(g, 1, 0.9, 0), Detection(g, 1, 0.8, 0)]
        got = average_precision(dets, {0: [g]}, 0.5)
        assert got == 1.0  # recall saturates at the first detection

    def test_oracle_100_random_cases(self):
        r = np.random.default_rng(55)
        for _ in range(100):
            n_gt = int(r.integers(1, 6))
            gts = {0: [_far_box(i) for i in range(n_gt)]}
            dets = []
            tp_seq = []
            scores = -np.sort(-r.uniform(0.01, 1.0, r.integers(0, 10)))
            used = set()
            for s in scores:
                if r.uniform() < 0.5 and len(used) < n_gt:
                    i = min(set(range(n_gt)) - used)
                    used.add(i)
                    dets.append(Detection(_far_box(i), 1, float(s), 0))
                    tp_seq.append(1)
                else:
                    dets.append(Detection(Box(5000, 5000, 5010, 5010), 1, float(s), 0))
                    tp_seq.append(0)
            got = average_precision(dets, gts, 0.5)
            assert abs(got - ap_oracle(tp_seq, n_gt)) <= 1e-9

    @given(st.floats(0.1, 5.0), st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_score_transform_invariance(self, scale, shift):
        r = np.random.default_rng(17)
        n_gt = 3
        gts = {0: [_far_box(i) for i in range(n_gt)]}
        scores = r.uniform(0.1, 1.0, 6)
        dets = [
            Detection(_far_box(i % 4) if i % 4 < n_gt else Box(900, 900, 910, 910),
                      1, float(s), 0)
            for i, s in enumerate(scores)
        ]
        base = average_precision(dets, gts, 0.5)
        rescaled = [Detection(d.box, 1, d.score * scale + shift, 0) for d in dets]
        assert average_precision(rescaled, gts, 0.5) == base


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


def _perfect_prediction(scene, proposals, n_classes, n_parts):
    m = len(proposals)
    det_scores = np.zeros((m, n_classes + 1))
    det_deltas = np.zeros((m, 4 * (n_classes + 1)))
    det_scores[:, 0] = 1.0
    for i, p in enumerate(proposals):
        for cls, g in scene.objects:
            if iou(p, g) >= 0.7:
                det_scores[i] = 0.0
                det_scores[i, cls] = 1.0
                det_deltas[i, 4 * cls : 4 * cls + 4] = bbox_encode(p, g)
                break
    part_scores = np.zeros((m, n_parts + 1))
    part_deltas = np.zeros((m, 4 * (n_parts + 1)))
    part_scores[:, 0] = 1.0
    for i, p in enumerate(proposals):
        for cls, g, _parent in scene.parts:
            if iou(p, g) >= 0.7:
                part_scores[i] = 0.0
                part_scores[i, cls] = 1.0
                part_deltas[i, 4 * cls : 4 * cls + 4] = bbox_encode(p, g)
                break
    return ScenePrediction(
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
        preds = [
            _perfect_prediction(s, p, spec.n_classes, spec.n_part_classes)
            for s, p in zip(scenes, props)
        ]
        m = evaluate(preds, scenes, spec.n_classes)
        # Classes absent from every scene contribute AP 0; restrict to present.
        present = {cls for s in scenes for cls, _ in s.objects}
        for c in present:
            assert m["det_ap_per_class"][c - 1] == 1.0
            assert m["cls_ap_per_class"][c - 1] == 1.0
        present_parts = {cls for s in scenes for cls, _, _p in s.parts}
        for c in present_parts:
            assert m["part_ap_per_class"][c - 1] == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [], 5)

    def test_metrics_rows_layout(self):
        spec, scenes, props = self._scenes(4)
        preds = [
            _perfect_prediction(s, p, spec.n_classes, spec.n_part_classes)
            for s, p in zip(scenes, props)
        ]
        m = evaluate(preds, scenes, spec.n_classes)
        rows = metrics_to_rows("run", "update1", 2, 0, m)
        assert all(len(r) == len(tasks.METRIC_CSV_COLUMNS) for r in rows)
        names = {r[4] for r in rows}
        assert {"cls_ap", "det_ap", "part_ap", "cls_map"} <= names
