import math

import numpy as np
import pytest

from motkit import association
from motkit.association import (
    FILTER_FORMS,
    INADMISSIBLE,
    AssociationResult,
    Strategy,
    associate,
    combine,
    confidence_order,
    displacement_cost,
    greedy_match,
    iou_cost,
    tracked_box,
)
from motkit.formats import Detection
from motkit.geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    box_from_center_size,
)
from motkit.tracker import Tracklet
from oracles import displacement_cost_loop, greedy_trace, iou_cost_loop


def det(cx, cy, w, h, conf=1.0, cls=1, dx=0.0, dy=0.0, ts=None, o=0.0, frame=1):
    if ts is None:
        ts = TrackedSizeWH(0.0, 0.0)
    return Detection(frame, Point2(cx, cy), Size2(w, h), conf, cls, Displacement(dx, dy), ts, o)


def track(tid, cx, cy, w, h, cls=1, conf=1.0, age=0):
    return Tracklet(tid, Point2(cx, cy), box_from_center_size(Point2(cx, cy), Size2(w, h)), cls, conf, age)


def ltrb_of(box):
    return TrackedSizeLTRB(box.left, box.top, box.right, box.bottom)


class TestDisplacementCost:
    def test_exact_back_projection(self):
        c = displacement_cost([det(10, 10, 8, 8, dx=2, dy=0)], [track(1, 8, 10, 8, 8)])
        assert c[0, 0] == 0.0

    def test_euclidean_distance(self):
        c = displacement_cost([det(10, 10, 8, 8)], [track(1, 8, 10, 8, 8)])
        assert c[0, 0] == 2.0

    def test_size_gate_blocks_distant_track(self):
        # gate for a 1x1 detection is 1.0
        c = displacement_cost([det(10, 10, 1, 1)], [track(1, 15, 10, 8, 8)])
        assert c[0, 0] == INADMISSIBLE

    def test_boundary_distance_equal_to_gate_admissible(self):
        c = displacement_cost([det(10, 10, 2, 2)], [track(1, 12, 10, 2, 2)])
        assert c[0, 0] == 2.0  # gate sqrt(4) = 2

    def test_class_mismatch_inadmissible(self):
        c = displacement_cost([det(10, 10, 8, 8, cls=1)], [track(1, 10, 10, 8, 8, cls=2)])
        assert c[0, 0] == INADMISSIBLE


class TestIouCost:
    def test_identical_boxes_zero_cost(self):
        t = track(1, 10, 10, 4, 4)
        d = det(10, 10, 4, 4, ts=ltrb_of(t.last_box), o=0.9)
        c = iou_cost([d], [t], "ltrb")
        assert c[0, 0] == 0.0

    def test_partial_overlap_admissible(self):
        t = track(1, 1, 1, 2, 2)  # box (0,0,2,2)
        d = det(2, 1, 2, 2, ts=TrackedSizeLTRB(1, 0, 3, 2), o=0.2)
        c = iou_cost([d], [t], "ltrb")
        assert c[0, 0] == pytest.approx(2 / 3, abs=1e-12)

    def test_prediction_filter_blocks(self):
        t = track(1, 1, 1, 2, 2)
        d = det(2, 1, 2, 2, ts=TrackedSizeLTRB(1, 0, 3, 2), o=0.5)
        c = iou_cost([d], [t], "ltrb")
        assert c[0, 0] == INADMISSIBLE

    def test_filter_boundary_equality_admissible(self):
        t = track(1, 1, 1, 2, 2)
        d = det(2, 1, 2, 2, ts=TrackedSizeLTRB(1, 0, 3, 2), o=1 / 3)
        c = iou_cost([d], [t], "ltrb")
        assert math.isfinite(c[0, 0])

    def test_zero_overlap_always_inadmissible(self):
        t = track(1, 100, 100, 4, 4)
        d = det(2, 1, 2, 2, ts=TrackedSizeLTRB(1, 0, 3, 2), o=0.0)
        c = iou_cost([d], [t], "ltrb")
        assert c[0, 0] == INADMISSIBLE

    def test_cost_form_filter(self):
        # IOU 1/3 with prediction 0.5: cost 2/3 > 0.5 so the cost form blocks,
        # while prediction 0.7 admits (cost 2/3 <= 0.7)
        t = track(1, 1, 1, 2, 2)
        d_block = det(2, 1, 2, 2, ts=TrackedSizeLTRB(1, 0, 3, 2), o=0.5)
        d_pass = det(2, 1, 2, 2, ts=TrackedSizeLTRB(1, 0, 3, 2), o=0.7)
        assert iou_cost([d_block], [t], "ltrb", "cost")[0, 0] == INADMISSIBLE
        assert iou_cost([d_pass], [t], "ltrb", "cost")[0, 0] == pytest.approx(2 / 3)
        # rationale form judges the same pair the other way around
        assert iou_cost([d_block], [t], "ltrb", "rationale")[0, 0] == INADMISSIBLE
        assert iou_cost([d_pass], [t], "ltrb", "rationale")[0, 0] == INADMISSIBLE

    def test_wh_variant_uses_back_projection(self):
        t = track(1, 8, 10, 4, 4)
        d = det(10, 10, 4, 4, dx=2, dy=0, ts=TrackedSizeWH(0, 0), o=0.9)
        c = iou_cost([d], [t], "wh")
        assert c[0, 0] == 0.0

    def test_variant_mismatch_rejected(self):
        d = det(10, 10, 4, 4, ts=TrackedSizeWH(0, 0))
        with pytest.raises(ValueError):
            tracked_box(d, "ltrb")
        with pytest.raises(ValueError):
            iou_cost([d], [track(1, 10, 10, 4, 4)], "ltrb")


class TestCombine:
    def test_zeros(self):
        z = np.zeros((2, 2))
        assert np.array_equal(combine(z, z), z)

    def test_sum(self):
        a = np.array([[0.5]])
        b = np.array([[2.0]])
        assert combine(a, b)[0, 0] == 2.5

    def test_inadmissible_absorbs(self):
        a = np.array([[0.5]])
        b = np.array([[INADMISSIBLE]])
        assert combine(a, b)[0, 0] == INADMISSIBLE
        assert combine(b, b)[0, 0] == INADMISSIBLE

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            combine(np.zeros((2, 2)), np.zeros((2, 3)))


class TestGreedyMatch:
    def test_empty_matrix(self):
        res = greedy_match(np.zeros((0, 0)), [])
        assert res.matches == [] and res.unmatched_detections == [] and res.unmatched_tracklets == []

    def test_hand_traced_two_by_two(self):
        cost = np.array([[0.1, 0.9], [0.2, 0.8]])
        res = greedy_match(cost, [0, 1])
        assert res.matches == [(0, 0), (1, 1)]

    def test_all_inadmissible(self):
        cost = np.full((2, 3), INADMISSIBLE)
        res = greedy_match(cost, [0, 1])
        assert res.matches == []
        assert res.unmatched_detections == [0, 1]
        assert res.unmatched_tracklets == [0, 1, 2]

    def test_tie_goes_to_lowest_tracklet_index(self):
        cost = np.array([[0.5, 0.5]])
        assert greedy_match(cost, [0]).matches == [(0, 0)]

    def test_order_changes_outcome(self):
        cost = np.array([[0.1, INADMISSIBLE], [0.05, 0.2]])
        first = greedy_match(cost, [0, 1])
        second = greedy_match(cost, [1, 0])
        assert first.matches == [(0, 0), (1, 1)]
        assert second.matches == [(1, 0)]
        assert second.unmatched_detections == [0]

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            greedy_match(np.zeros((2, 2)), [0, 0])

    @pytest.mark.parametrize("n", [2, 5])  # the loop and the kernel
    def test_order_of_non_integers_rejected(self, n):
        for order in ([1.0, 0.0] + list(range(2, n)), [str(i) for i in range(n)], [None] * n, [0.5, 1.5][:n]):
            with pytest.raises(ValueError, match="permutation"):
                greedy_match(np.zeros((n, n)), order)

    @pytest.mark.parametrize("n", [2, 5])
    def test_integer_like_order_gives_plain_ints(self, n):
        cost = np.where(np.eye(n) > 0, 0.5, 0.25)
        want = greedy_match(cost, list(range(n))[::-1])
        orders = [np.arange(n)[::-1], [np.int64(i) for i in range(n)][::-1], list(np.arange(n, dtype=np.uint8))[::-1]]
        for order in orders + ([[True, False]] if n == 2 else []):
            res = greedy_match(cost, order)
            assert res == want
            values = [*sum(res.matches, ()), *res.unmatched_detections, *res.unmatched_tracklets]
            assert {type(v) for v in values} == {int}

    def test_against_oracle_random(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n, m = rng.integers(0, 7, size=2)
            cost = rng.uniform(0, 2, size=(n, m))
            cost[rng.uniform(size=(n, m)) < 0.35] = INADMISSIBLE
            order = list(rng.permutation(n))
            res = greedy_match(cost, order)
            o_matches, o_ud, o_ut = greedy_trace(cost, order)
            assert res.matches == o_matches
            assert res.unmatched_detections == o_ud
            assert res.unmatched_tracklets == o_ut


def crossing_fixture():
    """Two detections whose back-projections favor the wrong tracklets while
    tracked boxes overlap only their own."""
    t0 = track(1, 100, 96, 32, 44)
    t1 = track(2, 100, 104, 24, 30)
    d0 = det(102, 96, 32, 44, conf=0.9, dx=2, dy=-5, ts=ltrb_of(t0.last_box), o=0.85)
    d1 = det(98, 104, 24, 30, conf=0.8, dx=-2, dy=-3, ts=ltrb_of(t1.last_box), o=0.8)
    return [d0, d1], [t0, t1]


class TestAssociate:
    def test_single_pair_unanimity(self):
        t = track(1, 10, 10, 4, 4)
        d = det(10, 10, 4, 4, ts=ltrb_of(t.last_box), o=1.0)
        for strategy in Strategy:
            res = associate(strategy, [d], [t], "ltrb")
            assert res.matches == [(0, 0)], strategy

    def test_crossing_dis_swaps_iou_does_not(self):
        dets, tracks = crossing_fixture()
        # back-projections: d0 -> (100, 101), d1 -> (100, 107)
        # d0 is nearer t1 (3.0) than t0 (5.0), so displacement swaps
        dis = associate(Strategy.DIS, dets, tracks, "ltrb")
        assert dis.matches == [(0, 1), (1, 0)]
        # tracked boxes overlap only the true tracklets above the predicted IOU
        res = associate(Strategy.IOU, dets, tracks, "ltrb")
        assert sorted(res.matches) == [(0, 0), (1, 1)]

    def test_iou_then_dis_recovers_filtered_pair(self):
        ty = track(1, 50, 50, 8, 12)
        tx = track(2, 150, 150, 20, 20)
        dy = det(50, 50, 8, 12, conf=0.9, ts=ltrb_of(ty.last_box), o=0.9)
        # tracked box shifted 5px right of tx: IOU 0.6 < predicted 0.9, blocked
        # in the overlap round; back-projection distance 0 recovers it
        dx_ = det(155, 150, 20, 20, conf=0.8, dx=5, dy=0, ts=TrackedSizeLTRB(145, 140, 165, 160), o=0.9)
        res_iou = associate(Strategy.IOU, [dy, dx_], [ty, tx], "ltrb")
        assert res_iou.matches == [(0, 0)]
        res = associate(Strategy.IOU_THEN_DIS, [dy, dx_], [ty, tx], "ltrb")
        assert sorted(res.matches) == [(0, 0), (1, 1)]
        assert res.unmatched_detections == [] and res.unmatched_tracklets == []

    def test_dis_then_iou_second_round(self):
        # detection too far for its gate but tracked box overlaps its tracklet
        t = track(1, 10, 10, 4, 4)
        d = det(30, 10, 4, 4, ts=ltrb_of(t.last_box), o=0.5)  # gate 4 < distance 20
        res_dis = associate(Strategy.DIS, [d], [t], "ltrb")
        assert res_dis.matches == []
        res = associate(Strategy.DIS_THEN_IOU, [d], [t], "ltrb")
        assert res.matches == [(0, 0)]

    def test_combined_admissible_is_intersection(self):
        dets, tracks = crossing_fixture()
        dis = displacement_cost(dets, tracks)
        iouc = iou_cost(dets, tracks, "ltrb")
        comb = combine(dis, iouc)
        assert np.array_equal(np.isfinite(comb), np.isfinite(dis) & np.isfinite(iouc))


def random_case(rng):
    n_det = int(rng.integers(0, 6))
    n_trk = int(rng.integers(0, 6))
    tracks = [
        track(j + 1, float(rng.uniform(0, 200)), float(rng.uniform(0, 200)),
              float(rng.uniform(4, 40)), float(rng.uniform(4, 40)))
        for j in range(n_trk)
    ]
    dets = []
    for _ in range(n_det):
        cx, cy = rng.uniform(0, 200, size=2)
        w, h = rng.uniform(4, 40, size=2)
        box = box_from_center_size(Point2(float(cx), float(cy)), Size2(float(w), float(h)))
        dets.append(
            det(float(cx), float(cy), float(w), float(h),
                conf=float(rng.uniform(0.4, 1.0)),
                dx=float(rng.normal(0, 5)), dy=float(rng.normal(0, 5)),
                ts=TrackedSizeLTRB(box.left - float(rng.normal(0, 3)), box.top, box.right, box.bottom + float(rng.normal(0, 3))),
                o=float(rng.uniform(0, 0.8)))
        )
    # ltrb noise can flip edges; rebuild valid records
    fixed = []
    for d in dets:
        ts = d.tracked_size
        left, right = sorted((ts.left, ts.right))
        top, bottom = sorted((ts.top, ts.bottom))
        fixed.append(det(d.center.x, d.center.y, d.size.w, d.size.h, conf=d.confidence,
                         dx=d.disp.dx, dy=d.disp.dy, ts=TrackedSizeLTRB(left, top, right, bottom),
                         o=d.iou_pred))
    return fixed, tracks


class TestProperties:
    def test_partition_property(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            dets, tracks = random_case(rng)
            for strategy in Strategy:
                res = associate(strategy, dets, tracks, "ltrb")
                det_indices = sorted([i for i, _ in res.matches] + res.unmatched_detections)
                trk_indices = sorted([j for _, j in res.matches] + res.unmatched_tracklets)
                assert det_indices == list(range(len(dets)))
                assert trk_indices == list(range(len(tracks)))

    def test_matched_costs_admissible(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            dets, tracks = random_case(rng)
            for strategy, builder in (
                (Strategy.DIS, lambda d, t: displacement_cost(d, t)),
                (Strategy.IOU, lambda d, t: iou_cost(d, t, "ltrb")),
            ):
                cost = builder(dets, tracks)
                res = associate(strategy, dets, tracks, "ltrb")
                for i, j in res.matches:
                    assert math.isfinite(cost[i, j]) and cost[i, j] >= 0

    def test_raising_iou_pred_never_adds_matches(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            dets, tracks = random_case(rng)
            res_lo = associate(Strategy.IOU, dets, tracks, "ltrb")
            bumped = [
                det(d.center.x, d.center.y, d.size.w, d.size.h, conf=d.confidence,
                    dx=d.disp.dx, dy=d.disp.dy, ts=d.tracked_size,
                    o=min(1.0, d.iou_pred + 0.3))
                for d in dets
            ]
            res_hi = associate(Strategy.IOU, bumped, tracks, "ltrb")
            assert len(res_hi.matches) <= len(res_lo.matches)

    def test_sequential_matches_at_least_round_one(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            dets, tracks = random_case(rng)
            n_iou = len(associate(Strategy.IOU, dets, tracks, "ltrb").matches)
            n_dis = len(associate(Strategy.DIS, dets, tracks, "ltrb").matches)
            assert len(associate(Strategy.IOU_THEN_DIS, dets, tracks, "ltrb").matches) >= n_iou
            assert len(associate(Strategy.DIS_THEN_IOU, dets, tracks, "ltrb").matches) >= n_dis

    def test_combined_intersection_random(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            dets, tracks = random_case(rng)
            dis = displacement_cost(dets, tracks)
            iouc = iou_cost(dets, tracks, "ltrb")
            comb = combine(dis, iouc)
            assert np.array_equal(np.isfinite(comb), np.isfinite(dis) & np.isfinite(iouc))

    def test_strategies_equal_explicit_rounds(self):
        def reference(strategy, dets, tracks, form):
            def dis(d, t):
                return displacement_cost(d, t)

            def iou(d, t):
                return iou_cost(d, t, "ltrb", form)

            def both(d, t):
                return combine(displacement_cost(d, t), iou_cost(d, t, "ltrb", form))

            first, second = {
                Strategy.DIS: (dis, None),
                Strategy.IOU: (iou, None),
                Strategy.COMBINED: (both, None),
                Strategy.IOU_THEN_DIS: (iou, dis),
                Strategy.DIS_THEN_IOU: (dis, iou),
            }[strategy]
            r1 = greedy_match(first(dets, tracks), confidence_order(dets))
            if second is None:
                return r1, 0
            det_map, trk_map = r1.unmatched_detections, r1.unmatched_tracklets
            sub_dets = [dets[i] for i in det_map]
            r2 = greedy_match(second(sub_dets, [tracks[j] for j in trk_map]), confidence_order(sub_dets))
            merged = AssociationResult(
                r1.matches + [(det_map[i], trk_map[j]) for i, j in r2.matches],
                sorted(det_map[i] for i in r2.unmatched_detections),
                sorted(trk_map[j] for j in r2.unmatched_tracklets),
            )
            return merged, len(r2.matches)

        rng = np.random.default_rng(26)
        second_round_matches = 0
        for _ in range(300):
            dets, tracks = random_case(rng)
            for form in FILTER_FORMS:
                for strategy in Strategy:
                    want, n_second = reference(strategy, dets, tracks, form)
                    assert associate(strategy, dets, tracks, "ltrb", form) == want
                    second_round_matches += n_second
        assert second_round_matches > 50  # the second rounds were exercised

    def test_confidence_order(self):
        dets = [det(0, 0, 4, 4, conf=0.5), det(0, 0, 4, 4, conf=0.9), det(0, 0, 4, 4, conf=0.5)]
        assert confidence_order(dets) == [1, 0, 2]


def mixed_case(rng, variant, n_det, n_trk):
    """Dense random frame with two classes, in either tracked-size variant."""
    tracks = [
        track(j + 1, float(rng.uniform(0, 80)), float(rng.uniform(0, 80)),
              float(rng.uniform(4, 40)), float(rng.uniform(4, 40)), cls=int(rng.integers(1, 3)))
        for j in range(n_trk)
    ]
    dets = []
    for _ in range(n_det):
        cx, cy = (float(v) for v in rng.uniform(0, 80, size=2))
        w, h = (float(v) for v in rng.uniform(4, 40, size=2))
        if variant == "wh":
            ts = TrackedSizeWH(float(rng.normal(0, 3)), float(rng.normal(0, 3)))
        else:
            box = box_from_center_size(Point2(cx, cy), Size2(w, h))
            l, r = sorted((box.left + float(rng.normal(0, 3)), box.right))
            ts = TrackedSizeLTRB(l, box.top, r, box.bottom + abs(float(rng.normal(0, 3))))
        dets.append(det(cx, cy, w, h, conf=float(rng.uniform(0.4, 1.0)), cls=int(rng.integers(1, 3)),
                        dx=float(rng.normal(0, 5)), dy=float(rng.normal(0, 5)), ts=ts,
                        o=float(rng.uniform(0, 0.8))))
    return dets, tracks


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(params=["default", "kernel-if-nonempty", "broad-phase-if-nonempty"])
def cutover(request, monkeypatch):
    """Run at the shipped cutovers, then with every non-empty matrix on the dense kernel, then on the broad phase."""
    if request.param != "default":
        monkeypatch.setattr(association, "KERNEL_MIN_CELLS", 1)
    if request.param == "broad-phase-if-nonempty":
        monkeypatch.setattr(association, "BROAD_PHASE_MIN_CELLS", 1)
    return association.KERNEL_MIN_CELLS


class TestKernelPaths:
    """Each vectorized path against the scalar loop it replaced, on both sides of the cutover."""

    def test_iou_cost_equals_loop(self, cutover):
        rng = np.random.default_rng(31)
        sides = set()
        for _ in range(150):
            n, m = (int(v) for v in rng.integers(0, 12, size=2))
            sides.add(n * m < cutover)
            for variant in ("ltrb", "wh"):
                dets, tracks = mixed_case(rng, variant, n, m)
                for form in FILTER_FORMS:
                    want = iou_cost_loop(dets, tracks, variant, form)
                    assert same_bits(iou_cost(dets, tracks, variant, form), want)
        assert sides == {True, False}

    def test_iou_cost_kernel_keeps_variant_check(self, cutover):
        dets = [det(10, 10, 4, 4, ts=TrackedSizeWH(0, 0))] * 5
        with pytest.raises(ValueError):
            iou_cost(dets, [track(j, 10, 10, 4, 4) for j in range(5)], "ltrb")

    def test_displacement_cost_equals_loop(self, cutover):
        rng = np.random.default_rng(32)
        for _ in range(150):
            n, m = (int(v) for v in rng.integers(0, 12, size=2))
            dets, tracks = mixed_case(rng, "ltrb", n, m)
            assert same_bits(displacement_cost(dets, tracks), displacement_cost_loop(dets, tracks))

    def test_displacement_pairs_exactly_on_the_gate(self, cutover):
        # gates 3 and 5 are exact; tracklets sit on the gate along an axis, on
        # a 3-4-5 diagonal, and one ulp beyond
        dets = [det(100, 100, 3, 3), det(100, 100, 5, 5)]
        beyond = math.nextafter(105.0, math.inf)
        tracks = [track(j + 1, x, y, 4, 4) for j, (x, y) in enumerate(
            [(103, 100), (100, 97), (97, 100), (103, 104), (105, 100), (beyond, 100), (100, 100), (96, 103)]
        )]
        cost = displacement_cost(dets, tracks)
        assert same_bits(cost, displacement_cost_loop(dets, tracks))
        assert cost[0, :3].tolist() == [3.0, 3.0, 3.0]
        assert cost[1, 3:5].tolist() == [5.0, 5.0]
        assert cost[1, 5] == INADMISSIBLE and cost[1, 7] == 5.0

    @pytest.mark.parametrize("variant", ["ltrb", "wh"])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_boxes_at_the_float_limit_equal_loop(self, cutover, variant, side):
        # 4 tracklets near one float limit, 4 detections near the other: the kernels'
        # differences overflow to +-inf, as the loops' do, without a RuntimeWarning. Each
        # detection's tracked box touches its tracklet's edge, so iw is -inf where ih is 0.
        far = side * 1e308
        tracks = [track(j + 1, -far, 10.0 * j, 4, 4) for j in range(4)]
        dets = []
        for k in range(4):
            box = box_from_center_size(Point2(far, 10.0 * k + 4), Size2(4, 4))
            ts = ltrb_of(box) if variant == "ltrb" else TrackedSizeWH(0.0, 0.0)
            dets.append(det(far, 10.0 * k + 4, 4, 4, ts=ts, o=0.0))
        for form in FILTER_FORMS:
            assert same_bits(iou_cost(dets, tracks, variant, form), iou_cost_loop(dets, tracks, variant, form))
        assert same_bits(displacement_cost(dets, tracks), displacement_cost_loop(dets, tracks))
        for strategy in Strategy:
            assert associate(strategy, dets, tracks, variant).matches == []

    def test_infinite_centers_equal_loop(self, cutover):
        # detections and tracklets centered at +-inf and NaN: inf - inf differences are NaN, refused without a warning
        inf = math.inf
        dets = [det(inf, 0, 4, 4), det(-inf, 5, 4, 4), det(math.nan, 0, 4, 4), det(10, 10, inf, 4), det(10, 10, 4, 4)]
        tracks = [track(j + 1, x, y, 4, 4) for j, (x, y) in enumerate([(inf, 0), (10, 10), (-inf, 5), (12, 10)])]
        cost = displacement_cost(dets, tracks)
        assert same_bits(cost, displacement_cost_loop(dets, tracks))
        assert cost[3:, 1].tolist() == [0.0, 0.0] and cost[3:, 3].tolist() == [2.0, 2.0]

    @pytest.mark.parametrize(
        "det_classes, track_classes",
        [
            ([2**63] * 4, [1, 2**63 + 1, 1, 2**63 + 1]),
            ([1, 2**63 + 1, 1, 2**63 + 1], [2**63] * 4),
            ([2**64 + 1, 2**63 - 1, 2**64, -(2**63) - 1], [2**64, 2**63 - 1, 2**64 + 1, -(2**63) - 1]),
        ],
    )
    def test_class_ids_past_int64_equal_loop(self, cutover, det_classes, track_classes):
        # 4 x 4 identical boxes at the shipped cutover: only the class ids keep pairs apart
        box = box_from_center_size(Point2(10.0, 10.0), Size2(4, 4))
        tracks = [track(j + 1, 10.0, 10.0, 4, 4, cls=c) for j, c in enumerate(track_classes)]
        for variant, ts in (("ltrb", ltrb_of(box)), ("wh", TrackedSizeWH(0.0, 0.0))):
            dets = [det(10.0, 10.0, 4, 4, cls=c, ts=ts, o=0.5) for c in det_classes]
            for form in FILTER_FORMS:
                assert same_bits(iou_cost(dets, tracks, variant, form), iou_cost_loop(dets, tracks, variant, form))
        assert same_bits(displacement_cost(dets, tracks), displacement_cost_loop(dets, tracks))

    def test_greedy_match_equals_oracle_with_ties(self, cutover):
        rng = np.random.default_rng(33)
        sides = set()
        for _ in range(400):
            n, m = (int(v) for v in rng.integers(0, 12, size=2))
            sides.add(n * m < cutover)
            cost = rng.choice([0.1, 0.2, 0.3, INADMISSIBLE], size=(n, m))
            order = [int(i) for i in rng.permutation(n)]
            res = greedy_match(cost, order)
            assert (res.matches, res.unmatched_detections, res.unmatched_tracklets) == greedy_trace(cost, order)
        assert sides == {True, False}

    def test_greedy_match_never_takes_nan(self, cutover):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n, m = (int(v) for v in rng.integers(1, 8, size=2))
            cost = rng.choice([0.1, 0.2, math.nan, INADMISSIBLE], size=(n, m))
            order = [int(i) for i in rng.permutation(n)]
            assert greedy_match(cost, order) == association._greedy_match_loop(cost, order)


class TestGreedyOverAdmissibleCells:
    """The kernel visits only admissible cells: it must pick as the trace and the loop do."""

    @staticmethod
    def check(cost, order):
        res = greedy_match(cost, order)
        got = (res.matches, res.unmatched_detections, res.unmatched_tracklets)
        assert got == greedy_trace(cost, order)
        assert res == association._greedy_match_loop(cost, order)

    def test_sparse_matrices(self, cutover):
        rng = np.random.default_rng(35)
        sides, admissible, cells = set(), 0, 0
        for _ in range(60):
            n, m = int(rng.integers(1, 60)), int(rng.integers(1, 60))
            sides.add(n * m < cutover)
            cost = np.full((n, m), INADMISSIBLE)
            k = int(rng.integers(0, max(1, n * m // 100) + 1))  # at most 1% admissible
            cost.flat[rng.choice(n * m, size=k, replace=False)] = rng.choice([0.1, 0.2, 0.3], size=k)
            admissible, cells = admissible + k, cells + n * m
            self.check(cost, [int(i) for i in rng.permutation(n)])
        assert sides == ({True, False} if cutover > 1 else {False}) and 0 < admissible <= cells // 100

    def test_rows_and_columns_without_an_admissible_cell(self, cutover):
        rng = np.random.default_rng(36)
        for n, m in [(1, 3), (3, 1), (2, 2), (4, 4), (5, 9), (12, 7)]:
            for _ in range(20):
                cost = rng.choice([0.1, 0.2, INADMISSIBLE], size=(n, m))
                cost[int(rng.integers(n))] = INADMISSIBLE
                cost[:, int(rng.integers(m))] = INADMISSIBLE
                self.check(cost, [int(i) for i in rng.permutation(n)])
        self.check(np.full((6, 5), INADMISSIBLE), list(range(6)))

    def test_equal_costs_across_columns(self, cutover):
        # every detection ties across its row: each takes the lowest free column
        for n, m in [(3, 3), (4, 6), (8, 5)]:
            cost = np.full((n, m), 0.25)
            res = greedy_match(cost, list(range(n))[::-1])
            assert res.matches == [(n - 1 - k, k) for k in range(min(n, m))]
            self.check(cost, list(range(n))[::-1])
        cost = np.array([[0.5, 0.2, 0.2, INADMISSIBLE, 0.2]] * 4)
        assert greedy_match(cost, [0, 1, 2, 3]).matches == [(0, 1), (1, 2), (2, 4), (3, 0)]
        self.check(cost, [2, 0, 3, 1])

    def test_nan_cells_are_never_taken(self, cutover):
        rng = np.random.default_rng(37)
        sides = set()
        for _ in range(200):
            n, m = (int(v) for v in rng.integers(1, 10, size=2))
            sides.add(n * m < cutover)
            cost = rng.choice([0.1, 0.2, math.nan, math.nan, INADMISSIBLE], size=(n, m))
            res = greedy_match(cost, [int(i) for i in rng.permutation(n)])
            assert all(not math.isnan(cost[i, j]) for i, j in res.matches)
            self.check(cost, [int(i) for i in rng.permutation(n)])
        assert sides == ({True, False} if cutover > 1 else {False})
        assert greedy_match(np.full((5, 5), math.nan), list(range(5))).matches == []

    def test_memory_layouts_with_special_cells(self, cutover):
        # the flat search reads row-major whatever the layout: Fortran order, a transposed view and strided slices
        # (one reversed) pick as the trace and the loop do, on -inf, NaN and tied cells
        rng = np.random.default_rng(38)
        sides = set()
        for _ in range(120):
            n, m = (int(v) for v in rng.integers(1, 10, size=2))
            sides.add(n * m < cutover)
            cost = rng.choice([0.1, 0.2, 0.2, -math.inf, math.nan, INADMISSIBLE], size=(n, m))
            spread = np.full((2 * n, 3 * m), 0.05)
            spread[::2, ::3] = cost
            views = [np.asfortranarray(cost), np.ascontiguousarray(cost.T).T, spread[::2, ::3],
                     cost[::-1, ::-1].copy()[::-1, ::-1]]
            order = [int(i) for i in rng.permutation(n)]
            for view in views:
                assert np.array_equal(view, cost, equal_nan=True)
                assert not view.flags.c_contiguous or min(n, m) == 1
                self.check(view, order)
                assert greedy_match(view, order) == greedy_match(cost, order)
        assert sides == ({True, False} if cutover > 1 else {False})


def crowd_case(rng, variant, nonfinite):
    """A crowd-shaped frame: 150-250 boxes a side in 1920², mostly disjoint, on integer edges.

    It holds the x-extent cases the broad phase must keep: a tracklet that
    spans the image, a zero-width one, one nested in another, two with the
    same left edge; detections whose tracked box touches a tracklet's right
    edge (iw == 0), copies a tracklet's box, or has zero width; and with
    ``nonfinite``, detections 0 and 1 centered at NaN and at inf. The last
    four detections are those cases on tracklets 0, 6, 2 and 4.
    """
    n_trk, n_det = (int(v) for v in rng.integers(150, 251, size=2))
    spec = []  # cx, cy, w, h, cls of each tracklet; even widths keep every edge an integer
    for _ in range(n_trk):
        w = 2 * int(rng.integers(10, 31))
        spec.append([int(rng.integers(0, 1921)), int(rng.integers(0, 1921)), w, 2 * w, 1 + int(rng.random() < 0.1)])
    spec[0] = [960, 700, 1920, 60, 1]  # spans the image
    spec[1][2] = 0  # zero width
    spec[3][:4] = [spec[2][0], spec[2][1], spec[2][2] + 20, spec[2][3] + 20]  # holds tracklet 2
    spec[5][0] = spec[4][0] - spec[4][2] // 2 + spec[5][2] // 2  # tracklet 4's left edge
    tracks = [track(j + 1, float(cx), float(cy), float(w), float(h), cls=c) for j, (cx, cy, w, h, c) in enumerate(spec)]

    def edges(j):
        cx, cy, w, h, _ = spec[j]
        return [cx - w // 2, cy - h // 2, cx - w // 2 + w, cy - h // 2 + h]

    boxes, classes = [], []
    for k in range(n_det):
        j = int(rng.integers(0, n_trk))
        left, top, right, bottom = edges(j)
        if k % 7 == 1:  # touches tracklet j's right edge
            left, right = right, right + 30
        elif k % 7 == 2:  # zero width
            right = left
        elif k % 7 != 3:  # k % 7 == 3 copies tracklet j's box
            left, top, right, bottom = (e + int(rng.integers(-4, 5)) for e in (left, top, right, bottom))
            left, right = min(left, right), max(left, right)
        boxes.append([left, top, right, bottom])
        classes.append(spec[j][4] if rng.random() < 0.9 else 3 - spec[j][4])
    touch, zero, left4 = edges(6), edges(2), edges(4)
    touch[0], touch[2] = touch[2], touch[2] + 30
    zero[2] = zero[0]
    left4[2] += 17
    boxes += [edges(0), touch, zero, left4]
    classes += [spec[j][4] for j in (0, 6, 2, 4)]
    dets = []
    for (left, top, right, bottom), cls in zip(boxes, classes):
        dx, dy, dw, dh = (abs(int(v)) for v in rng.integers(-3, 4, size=4))
        cx, cy, pred = (left + right) / 2 + dx, (top + bottom) / 2 + dy, float(rng.uniform(0.0, 0.8))
        if variant == "ltrb":
            ts = TrackedSizeLTRB(float(left), float(top), float(right), float(bottom))
            dets.append(det(cx, cy, right - left, bottom - top, cls=cls, dx=dx, dy=dy, ts=ts, o=pred))
        else:  # the back-projected center, with the size minus the tracked size: the same edges
            ts = TrackedSizeWH(float(dw), float(dh))
            dets.append(det(cx, cy, right - left + dw, bottom - top + dh, cls=cls, dx=dx, dy=dy, ts=ts, o=pred))
    if nonfinite:
        for k, value in enumerate((math.nan, math.inf)):
            d = dets[k]
            dets[k] = Detection(d.frame, Point2(value, d.center.y), d.size, d.confidence, d.class_id, d.disp,
                                d.tracked_size, d.iou_pred)
    return dets, tracks


def ycut_case(rng, variant):
    """:func:`crowd_case` plus the y-extent cases the IOU broad phase's y-cut must score as the dense kernel does.

    Two tracklets with NaN and infinite y edges are appended, and detections of tracklet 7's class at its x-extent
    whose tracked boxes touch its top and its bottom edge (ih == 0), have zero height (``wh``: a height change
    larger than the height, so ``prev_size`` clamps to 0), sit inside its y-extent, hold it, or have NaN or +-inf
    y edges; one more meets the appended tracklets in x. Predicted IOUs are 0, so any overlap is admissible.
    Returns the detections, the tracklets and the index of the first appended detection.
    """
    dets, tracks = crowd_case(rng, variant, nonfinite=False)
    n_det, n_trk, nan, inf = len(dets), len(tracks), math.nan, math.inf
    tracks = tracks + [track(n_trk + 1, 2000.0, nan, 40, 80), track(n_trk + 2, 2000.0, inf, 40, 80)]
    t = tracks[7].last_box
    left, top, right, bottom, cls = t.left, t.top, t.right, t.bottom, tracks[7].class_id
    boxes = [(left, top - 30, right, top), (left, bottom, right, bottom + 30), (left, top + 10, right, top + 10),
             (left, top + 5, right, bottom - 5), (left, top - 5, right, bottom + 5), (left, nan, right, nan),
             (left, inf, right, inf), (left, -inf, right, -inf)]
    if variant == "ltrb":  # one edge at a time
        boxes += [(left, nan, right, bottom), (left, top, right, nan), (left, -inf, right, bottom),
                  (left, top, right, inf)]
    for k, (l, tp, r, b) in enumerate(boxes):
        if variant == "ltrb":  # the tracked box is the edges; the detection's own box stays finite
            dets.append(det((l + r) / 2, 100.0, r - l, 20.0, cls=cls, ts=TrackedSizeLTRB(l, tp, r, b), o=0.0))
        else:  # the tracked box is the detection's; the zero-height one is 20 high less a change of 25
            ts, h = (TrackedSizeWH(0.0, 25.0), 20.0) if k == 2 else (TrackedSizeWH(0.0, 0.0), b - tp)
            dets.append(det((l + r) / 2, (tp + b) / 2, r - l, h, cls=cls, ts=ts, o=0.0))
    box = (1990.0, 100.0, 2010.0, 140.0)
    ts = TrackedSizeLTRB(*box) if variant == "ltrb" else TrackedSizeWH(0.0, 0.0)
    dets.append(det(2000.0, 120.0, 20.0, 40.0, ts=ts, o=0.0))
    return dets, tracks, n_det


def cost_matrices(dets, tracks, variant):
    return [iou_cost(dets, tracks, variant, form) for form in FILTER_FORMS] + [displacement_cost(dets, tracks)]


class TestBroadPhase:
    """Crowd-size matrices take the broad phase, which must equal the dense kernel bit for bit."""

    @pytest.mark.parametrize("variant", ["ltrb", "wh"])
    @pytest.mark.parametrize("nonfinite", [False, True])
    def test_crowd_equals_dense_kernel(self, monkeypatch, variant, nonfinite):
        rng = np.random.default_rng(41)
        for _ in range(3):
            dets, tracks = crowd_case(rng, variant, nonfinite)
            assert len(dets) * len(tracks) >= association.BROAD_PHASE_MIN_CELLS
            broad = cost_matrices(dets, tracks, variant)
            with monkeypatch.context() as m:
                m.setattr(association, "BROAD_PHASE_MIN_CELLS", 2**62)
                dense = cost_matrices(dets, tracks, variant)
            for b, d in zip(broad, dense):
                assert same_bits(b, d)
                # every kind of cell is there: admissible ones, and far more inadmissible ones
                assert 0 < int((b < INADMISSIBLE).sum()) < b.size // 20

    @pytest.mark.parametrize("variant", ["ltrb", "wh"])
    def test_crowd_edge_cases_are_scored(self, variant):
        dets, tracks = crowd_case(np.random.default_rng(42), variant, nonfinite=True)
        span, touch, zero, left4 = range(len(dets) - 4, len(dets))
        for form in FILTER_FORMS:
            cost = iou_cost(dets, tracks, variant, form)
            assert cost[span, 0] == 0.0 and cost[left4, 4] < INADMISSIBLE
            assert cost[touch, 6] == INADMISSIBLE and (cost[zero] == INADMISSIBLE).all()
            assert (cost[:, 1] == INADMISSIBLE).all()  # the zero-width tracklet
        dis = displacement_cost(dets, tracks)
        assert (dis[:2] == INADMISSIBLE).all() and dis[span, 0] < INADMISSIBLE

    @pytest.mark.parametrize("variant", ["ltrb", "wh"])
    def test_y_cut_equals_dense_kernel_and_loop(self, monkeypatch, variant):
        dets, tracks, first = ycut_case(np.random.default_rng(44), variant)
        found, scored = [], []
        x_overlap_pairs, iou_array = association.x_overlap_pairs, association.iou_array

        def counting_pairs(*keys):
            found.append(x_overlap_pairs(*keys))
            return found[-1]

        def counting_iou(a, b):
            scored.append(len(a))
            return iou_array(a, b)

        monkeypatch.setattr(association, "x_overlap_pairs", counting_pairs)
        monkeypatch.setattr(association, "iou_array", counting_iou)
        tracked = [tracked_box(d, variant) for d in dets]
        for form in FILTER_FORMS:
            del found[:], scored[:]
            cost = iou_cost(dets, tracks, variant, form)
            # the kernel scores exactly the x pairs whose y-extents meet strictly, a small share of them
            (rows, cols), = found
            meet = sum(tracked[i].top < tracks[j].last_box.bottom and tracks[j].last_box.top < tracked[i].bottom
                       for i, j in zip(rows.tolist(), cols.tolist()))
            assert scored == [meet] and 0 < meet < len(rows) // 2
            with monkeypatch.context() as m:
                m.setattr(association, "BROAD_PHASE_MIN_CELLS", 2**62)
                assert same_bits(cost, iou_cost(dets, tracks, variant, form))
            assert same_bits(cost, iou_cost_loop(dets, tracks, variant, form))
            assert (cost[:, -2:] == INADMISSIBLE).all() and (cost[first + 5:, :] == INADMISSIBLE).all()
            assert (cost[first : first + 3, 7] == INADMISSIBLE).all() and (cost[first + 2] == INADMISSIBLE).all()
        # inside its y-extent and holding it: the rationale form admits both
        rationale = iou_cost(dets, tracks, variant, "rationale")
        assert (rationale[first + 3 : first + 5, 7] < INADMISSIBLE).all()

    def test_routing_by_cell_count(self, monkeypatch):
        calls = []

        def counting(*keys):
            rows, cols = real(*keys)
            calls.append(len(rows))
            return rows, cols

        real = association.x_overlap_pairs
        monkeypatch.setattr(association, "x_overlap_pairs", counting)
        dets, tracks = crowd_case(np.random.default_rng(43), "ltrb", nonfinite=False)
        cells = len(dets) * len(tracks)
        cost_matrices(dets, tracks, "ltrb")
        # one call per matrix, each keeping a small share of the cells
        assert len(calls) == 3 and all(0 < k < cells // 5 for k in calls)
        calls.clear()
        assert 40 * 38 < association.BROAD_PHASE_MIN_CELLS
        cost_matrices(dets[:40], tracks[:38], "ltrb")
        assert calls == []
        for strategy in Strategy:
            calls.clear()
            associate(strategy, dets, tracks, "ltrb")
            assert calls
