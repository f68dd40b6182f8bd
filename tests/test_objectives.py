import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from motkit.association import tracked_box
from motkit.formats import VARIANT_LTRB, VARIANT_WH, VARIANTS
from motkit.geometry import BoxLTRB, Point2, Size2
from motkit.heatmap import GridSpec, _paint_zero_loss_maps, decode_detections, extract_peaks, render_heatmap
from motkit.objectives import (
    CLAMP_EPS,
    FocalParams,
    GtAnnotations,
    ObjectAnnotation,
    finite_diff_grad,
    focal_loss,
    focal_loss_grad,
    gradient_check_report,
    l1_offset_loss,
    l1_size_loss,
    l1_tracked_size_ltrb_loss,
    l1_tracked_size_wh_loss,
    l_iou_loss,
)
from oracles import (
    l1_offset_loss_loop,
    l1_size_loss_loop,
    l1_tracked_size_ltrb_loss_loop,
    l1_tracked_size_wh_loss_loop,
    l_iou_loss_loop,
)


def annot(center, size, prev_center=None, prev_box=None, cur_box=None):
    cx, cy = center
    w, h = size
    cur = cur_box or BoxLTRB(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    pc = prev_center or center
    prev = prev_box or BoxLTRB(pc[0] - w / 2, pc[1] - h / 2, pc[0] + w / 2, pc[1] + h / 2)
    return ObjectAnnotation(Point2(cx, cy), Size2(w, h), Point2(*pc), prev, cur)


class TestFocalLoss:
    def test_perfect_prediction_near_zero(self):
        pred = np.array([[1.0 - CLAMP_EPS]])
        gt = np.array([[1.0]])
        assert focal_loss(pred, gt, n_objects=1) == pytest.approx(0.0, abs=1e-12)

    def test_positive_cell_hand_value(self):
        # target 1, predicted 0.5: (1-0.5)^2 * (-log 0.5) = 0.25 ln 2
        loss = focal_loss(np.array([[0.5]]), np.array([[1.0]]), n_objects=1)
        assert loss == pytest.approx(0.25 * math.log(2), abs=1e-12)

    def test_negative_cell_hand_value(self):
        # target 0, predicted 0.5: (1-0)^4 * 0.5^2 * (-log 0.5) = 0.25 ln 2
        loss = focal_loss(np.array([[0.5]]), np.array([[0.0]]), n_objects=1)
        assert loss == pytest.approx(0.25 * math.log(2), abs=1e-12)

    def test_nonnegative_on_random_maps(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pred = rng.uniform(0.01, 0.99, size=(6, 6))
            gt = rng.uniform(0, 1, size=(6, 6))
            assert focal_loss(pred, gt, n_objects=2) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            focal_loss(np.zeros((2, 2)), np.zeros((3, 3)), n_objects=1)

    def test_requires_objects(self):
        with pytest.raises(ValueError):
            focal_loss(np.zeros((2, 2)), np.zeros((2, 2)), n_objects=0)

    def test_clamps_extreme_predictions(self):
        loss = focal_loss(np.array([[0.0]]), np.array([[1.0]]), n_objects=1)
        assert math.isfinite(loss)


class TestFocalGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.05, 0.95, size=(5, 5))
        gt = rng.uniform(0, 0.9, size=(5, 5))
        gt[2, 2] = 1.0
        analytic = focal_loss_grad(pred, gt, n_objects=2)
        numeric = finite_diff_grad(lambda x: focal_loss(x, gt, n_objects=2), pred, eps=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_nondefault_params(self):
        rng = np.random.default_rng(2)
        params = FocalParams(alpha=3.0, beta=2.0)
        pred = rng.uniform(0.1, 0.9, size=(4, 4))
        gt = rng.uniform(0, 0.9, size=(4, 4))
        gt[0, 0] = 1.0
        analytic = focal_loss_grad(pred, gt, 1, params)
        numeric = finite_diff_grad(lambda x: focal_loss(x, gt, 1, params), pred)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-10)


class TestL1Losses:
    def test_size_loss_zero_at_gt(self):
        gt = GtAnnotations((annot((3.0, 2.0), (4.0, 4.0)),))
        m = np.zeros((5, 5, 2))
        m[2, 3] = (4, 4)
        assert l1_size_loss(m, gt) == 0.0

    def test_size_loss_hand_value(self):
        gt = GtAnnotations((annot((3.0, 2.0), (4.0, 4.0)),))
        m = np.zeros((5, 5, 2))
        m[2, 3] = (5, 5)
        assert l1_size_loss(m, gt) == pytest.approx(2.0, abs=1e-12)

    def test_size_loss_averages_over_objects(self):
        gt = GtAnnotations((annot((1.0, 1.0), (4.0, 4.0)), annot((3.0, 3.0), (6.0, 2.0))))
        m = np.zeros((5, 5, 2))
        m[1, 1] = (5, 4)  # error (1, 0)
        m[3, 3] = (6, 5)  # error (0, 3)
        assert l1_size_loss(m, gt) == pytest.approx(2.0, abs=1e-12)

    def test_offset_loss_stationary(self):
        gt = GtAnnotations((annot((2.0, 2.0), (4.0, 4.0)),))
        assert l1_offset_loss(np.zeros((4, 4, 2)), gt) == 0.0

    def test_offset_loss_sign(self):
        # object moved +2 in x, so the target is previous minus current = (-2, 0)
        gt = GtAnnotations((annot((2.0, 2.0), (4.0, 4.0), prev_center=(0.0, 2.0)),))
        assert l1_offset_loss(np.zeros((4, 4, 2)), gt) == pytest.approx(2.0, abs=1e-12)
        m = np.zeros((4, 4, 2))
        m[2, 2] = (-2, 0)
        assert l1_offset_loss(m, gt) == 0.0

    def test_tracked_wh_zero_for_constant_size(self):
        gt = GtAnnotations((annot((2.0, 2.0), (4.0, 4.0), prev_center=(1.0, 2.0)),))
        assert l1_tracked_size_wh_loss(np.zeros((4, 4, 2)), gt) == 0.0

    def test_tracked_wh_hand_value(self):
        # shrank from (6, 4) to (4, 4): target prev - cur = (2, 0)
        prev = BoxLTRB(0, 0, 6, 4)
        cur = BoxLTRB(1, 0, 5, 4)
        gt = GtAnnotations(
            (ObjectAnnotation(Point2(3, 2), Size2(4, 4), Point2(3, 2), prev, cur),)
        )
        assert l1_tracked_size_wh_loss(np.zeros((4, 6, 2)), gt) == pytest.approx(2.0, abs=1e-12)

    def test_tracked_ltrb_zero_at_gt(self):
        prev = BoxLTRB(8, 8, 12, 12)
        gt = GtAnnotations(
            (ObjectAnnotation(Point2(2, 2), Size2(4, 4), Point2(10, 10), prev, BoxLTRB(0, 0, 4, 4)),)
        )
        m = np.zeros((4, 4, 4))
        m[2, 2] = (8, 8, 12, 12)
        assert l1_tracked_size_ltrb_loss(m, gt) == 0.0

    def test_tracked_ltrb_single_edge_error(self):
        prev = BoxLTRB(8, 8, 12, 12)
        gt = GtAnnotations(
            (ObjectAnnotation(Point2(2, 2), Size2(4, 4), Point2(10, 10), prev, BoxLTRB(0, 0, 4, 4)),)
        )
        m = np.zeros((4, 4, 4))
        m[2, 2] = (8, 8, 12, 13)
        assert l1_tracked_size_ltrb_loss(m, gt) == pytest.approx(1.0, abs=1e-12)

    def test_tracked_ltrb_mean_over_objects(self):
        prev = BoxLTRB(8, 8, 12, 12)
        objs = tuple(
            ObjectAnnotation(Point2(x, 1), Size2(4, 4), Point2(10, 10), prev, BoxLTRB(0, 0, 4, 4))
            for x in (0.0, 1.0, 2.0)
        )
        gt = GtAnnotations(objs)
        m = np.zeros((3, 3, 4))
        m[1, 0] = (8, 8, 12, 12)
        m[1, 1] = (8, 8, 12, 12)
        m[1, 2] = (8, 8, 12, 15)  # error 3 on one object
        assert l1_tracked_size_ltrb_loss(m, gt) == pytest.approx(1.0, abs=1e-12)

    def test_iou_loss_stationary(self):
        gt = GtAnnotations((annot((2.0, 2.0), (4.0, 4.0)),))
        m = np.zeros((4, 4))
        m[2, 2] = 1.0
        assert l_iou_loss(m, gt) == 0.0

    def test_iou_loss_hand_value(self):
        prev = BoxLTRB(0, 0, 2, 2)
        cur = BoxLTRB(1, 0, 3, 2)
        gt = GtAnnotations(
            (ObjectAnnotation(Point2(2, 1), Size2(2, 2), Point2(1, 1), prev, cur),)
        )
        m = np.zeros((3, 3))
        m[1, 2] = 0.5
        assert l_iou_loss(m, gt) == pytest.approx(abs(0.5 - 1 / 3), abs=1e-12)

    def test_iou_loss_rejects_out_of_range_predictions(self):
        gt = GtAnnotations((annot((1.0, 1.0), (4.0, 4.0)),))
        m = np.full((3, 3), 1.5)
        with pytest.raises(ValueError):
            l_iou_loss(m, gt)

    def test_losses_scale_linearly(self):
        gt = GtAnnotations((annot((1.0, 1.0), (4.0, 4.0)),))
        base = np.zeros((3, 3, 2))
        base[1, 1] = (1.0, 2.0)  # errors vs target (4, 4): 3 + 2
        scaled = np.zeros((3, 3, 2))
        scaled[1, 1] = (4.0, 4.0) + 3.0 * (np.array([1.0, 2.0]) - (4.0, 4.0))
        assert l1_size_loss(scaled, gt) == pytest.approx(3.0 * l1_size_loss(base, gt), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        objs = []
        for k in range(4):
            objs.append(annot((float(k), float(k)), (4.0 + k, 3.0), prev_center=(k + 1.0, float(k))))
        m = rng.uniform(0, 8, size=(6, 6, 2))
        a = l1_size_loss(m, GtAnnotations(tuple(objs)))
        b = l1_size_loss(m, GtAnnotations(tuple(reversed(objs))))
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_annotations_rejected(self):
        with pytest.raises(ValueError):
            l1_size_loss(np.zeros((2, 2, 2)), GtAnnotations(()))

    @pytest.mark.parametrize("x", [-0.5, 5.0, 7.0, math.nan, math.inf])
    def test_center_outside_the_map_rejected(self, x):
        # x = -0.5 floors to column -1, which numpy would read as the last column
        gt = GtAnnotations((annot((x, 2.0), (4.0, 4.0)),))
        with pytest.raises(ValueError, match=r"center \(.*, 2.0\) lies outside the map of shape \(5, 5, 2\)"):
            l1_size_loss(np.zeros((5, 5, 2)), gt)

    @pytest.mark.parametrize(
        "loss, shape",
        [
            (l1_size_loss, (5, 5)),
            (l1_offset_loss, (5, 5, 4)),
            (l1_tracked_size_wh_loss, (5, 5, 4)),
            (l1_tracked_size_ltrb_loss, (5, 5, 2)),
            (l_iou_loss, (5, 5, 1)),
            (l_iou_loss, (5,)),
        ],
    )
    def test_map_of_the_wrong_depth_rejected(self, loss, shape):
        gt = GtAnnotations((annot((2.0, 2.0), (4.0, 4.0)),))
        with pytest.raises(ValueError, match="expected a"):
            loss(np.zeros(shape), gt)


coords = st.floats(-1e3, 1e3)
lengths = st.floats(0.0, 1e3)


@st.composite
def maps_and_annotations(draw):
    """Random maps for all five losses and one or two objects whose centers lie on them."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    objects = []
    for _ in range(draw(st.integers(1, 2))):
        center = Point2(draw(st.floats(0.0, cols, exclude_max=True)), draw(st.floats(0.0, rows, exclude_max=True)))
        boxes = []
        for _ in range(2):
            left, top, w, h = draw(coords), draw(coords), draw(lengths), draw(lengths)
            boxes.append(BoxLTRB(left, top, left + w, top + h))
        size = Size2(draw(lengths), draw(lengths))
        objects.append(ObjectAnnotation(center, size, Point2(draw(coords), draw(coords)), *boxes))
    grid = (rows, cols)
    maps = {n: draw(arrays(float, grid + (2,), elements=coords)) for n in ("size", "offset", VARIANT_WH)}
    maps[VARIANT_LTRB] = draw(arrays(float, grid + (4,), elements=coords))
    maps["iou"] = draw(arrays(float, grid, elements=st.floats(0.0, 1.0)))
    return maps, GtAnnotations(tuple(objects))


class TestLossesAgainstReferees:
    @settings(max_examples=300, deadline=None)
    @given(maps_and_annotations())
    def test_losses_equal_the_per_loss_loops(self, case):
        maps, gt = case
        assert l1_size_loss(maps["size"], gt) == l1_size_loss_loop(maps["size"], gt)
        assert l1_tracked_size_wh_loss(maps[VARIANT_WH], gt) == l1_tracked_size_wh_loss_loop(maps[VARIANT_WH], gt)
        ltrb = maps[VARIANT_LTRB]
        assert l1_tracked_size_ltrb_loss(ltrb, gt) == l1_tracked_size_ltrb_loss_loop(ltrb, gt)
        assert l_iou_loss(maps["iou"], gt) == l_iou_loss_loop(maps["iou"], gt)
        # The referee adds an object's two offset terms to the total one at a time; the loss
        # sums them first. All terms are nonnegative, so with at most two objects the
        # reordered additions move the mean by at most 8 * 2**-53 of it, under 1e-15.
        want = l1_offset_loss_loop(maps["offset"], gt)
        assert l1_offset_loss(maps["offset"], gt) == pytest.approx(want, rel=1e-15, abs=0.0)


TRACKED_SIZE_LOSS = {VARIANT_WH: l1_tracked_size_wh_loss, VARIANT_LTRB: l1_tracked_size_ltrb_loss}


class TestZeroLossMapsDecode:
    """Maps at which every loss reads 0 decode to the object's previous center and box."""

    GRID = GridSpec(width_px=80, height_px=80, downsample=4)
    # moved from grid cell (9, 10) to (10, 10) and shrank from 10x8 to 8x8 px
    PREV_BOX = BoxLTRB(31.0, 36.0, 41.0, 44.0)
    CUR_BOX = BoxLTRB(36.0, 36.0, 44.0, 44.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_back_projection_and_tracked_box_are_the_previous_frames(self, variant):
        obj = ObjectAnnotation(Point2(10.0, 10.0), self.CUR_BOX.size, Point2(9.0, 10.0), self.PREV_BOX, self.CUR_BOX)
        gt = GtAnnotations((obj,))
        maps = _paint_zero_loss_maps([obj], self.GRID, variant)
        losses = (
            l1_size_loss(maps.size_map, gt),
            l1_offset_loss(maps.displacement_map, gt),
            TRACKED_SIZE_LOSS[variant](maps.tracked_size_map, gt),
            l_iou_loss(maps.iou_map, gt),
        )
        assert losses == (0.0, 0.0, 0.0, 0.0)
        heatmap = render_heatmap([(self.CUR_BOX.center, self.CUR_BOX.size, 0)], self.GRID)
        (det,) = decode_detections(extract_peaks(heatmap, 0.5), maps, self.GRID)
        assert (det.center.x - det.disp.dx, det.center.y - det.disp.dy) == (36.0, 40.0)
        assert tracked_box(det, variant) == self.PREV_BOX


class TestFiniteDiff:
    def test_linear_function_gives_ones(self):
        grad = finite_diff_grad(lambda x: float(x.sum()), np.zeros((3, 4)))
        assert np.allclose(grad, 1.0, atol=1e-9)

    def test_constant_function_gives_zero(self):
        grad = finite_diff_grad(lambda x: 7.5, np.ones((2, 2)))
        assert np.array_equal(grad, np.zeros((2, 2)))

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.zeros((1, 1)), eps=0)


class TestGradientCheckReport:
    # the focal gradient's worst error per seed, pinned so that the way the report paints its
    # zero-loss maps cannot move its random draws
    REPORTS = {
        0: 1.4214377844293266e-08,
        1: 2.2317434926205782e-08,
        2: 1.9768292364564737e-08,
        3: 1.2358291298439968e-08,
    }

    @pytest.mark.parametrize("seed", sorted(REPORTS))
    def test_report_is_unchanged(self, seed):
        report = gradient_check_report(seed)
        assert list(report) == [
            "focal_grad_max_rel_err",
            "size_l1_at_gt",
            "offset_l1_at_gt",
            "tracked_size_wh_l1_at_gt",
            "tracked_size_ltrb_l1_at_gt",
            "iou_l1_at_gt",
        ]
        assert report["focal_grad_max_rel_err"] == pytest.approx(self.REPORTS[seed], rel=1e-9)
        assert list(report.values())[1:] == [0.0] * 5

    def test_all_checks_pass(self):
        report = gradient_check_report(seed=0)
        assert report["focal_grad_max_rel_err"] < 1e-4
        for name, value in report.items():
            if name.endswith("at_gt"):
                assert value == 0.0, name
