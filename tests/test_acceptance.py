"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines and timings inline).
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from motkit.association import (
    Strategy,
    associate,
    combine,
    displacement_cost,
    greedy_match,
    iou_cost,
)
from motkit.cli import main
from motkit.formats import Detection, GtEntry, TrackRecord
from motkit.geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    box_from_center_size,
    iou,
)
from motkit.heatmap import GridSpec, decode_detections, empty_channel_maps, extract_peaks, render_heatmap
from motkit.metrics import clear_mot, idf1
from motkit.objectives import (
    GtAnnotations,
    ObjectAnnotation,
    focal_gradient_max_rel_err,
    focal_loss,
    l1_offset_loss,
    l1_size_loss,
    l1_tracked_size_ltrb_loss,
    l1_tracked_size_wh_loss,
    l_iou_loss,
)
from motkit.simulator import MODERATE_NOISE, crossing_scenario, generate, perturb
from motkit.tracker import TrackerConfig, TrackerState, run_sequence, step
from oracles import greedy_trace, idf1_enumerate, random_scenario, raster_iou


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s ({elapsed:.2f}s)"
        return False


def test_c1_iou_rasterization_oracle_equivalence():
    rng = np.random.default_rng(101)
    with _Budget("1 iou-oracle-equivalence", 10):
        for _ in range(10_000):
            l1, t1, l2, t2 = (int(v) for v in rng.integers(0, 63, size=4))
            a = (l1, t1, l1 + int(rng.integers(1, 64 - l1 + 1)), t1 + int(rng.integers(1, 64 - t1 + 1)))
            b = (l2, t2, l2 + int(rng.integers(1, 64 - l2 + 1)), t2 + int(rng.integers(1, 64 - t2 + 1)))
            inter, union, expected = raster_iou(a, b)
            got = iou(BoxLTRB(*a), BoxLTRB(*b))
            assert got == expected, (a, b, got, expected)
            # area bookkeeping agrees exactly, not just the ratio
            ia = BoxLTRB(*a).area
            ib = BoxLTRB(*b).area
            assert ia + ib - (got * union if union else 0) == pytest.approx(union, abs=1e-9)


def test_c2_greedy_matcher_brute_force_oracle():
    rng = np.random.default_rng(102)
    with _Budget("2 greedy-oracle", 5):
        for _ in range(1_000):
            n, m = (int(v) for v in rng.integers(0, 7, size=2))
            cost = rng.uniform(0, 3, size=(n, m))
            cost[rng.uniform(size=(n, m)) < 0.3] = math.inf
            if n and rng.random() < 0.2:
                cost[rng.integers(0, n)] = math.inf  # fully blocked detection
            order = list(rng.permutation(n))
            res = greedy_match(cost, order)
            o_matches, o_ud, o_ut = greedy_trace(cost, order)
            assert res.matches == o_matches
            assert res.unmatched_detections == o_ud
            assert res.unmatched_tracklets == o_ut


def test_c3_heatmap_round_trip():
    grid = GridSpec(width_px=256, height_px=256, downsample=4, num_classes=1)
    rng = np.random.default_rng(103)
    with _Budget("3 heatmap-round-trip", 10):
        for _ in range(100):
            n_objects = int(rng.integers(1, 11))
            cells: list[tuple[int, int]] = []
            while len(cells) < n_objects:
                cand = (int(rng.integers(2, 62)), int(rng.integers(2, 62)))
                if all(math.hypot(cand[0] - c[0], cand[1] - c[1]) >= 8 for c in cells):
                    cells.append(cand)
            objs = [
                (Point2(cx * 4.0, cy * 4.0),
                 Size2(float(rng.uniform(8, 40)), float(rng.uniform(8, 40))), 0)
                for cx, cy in cells
            ]
            maps = empty_channel_maps(grid, "ltrb")
            for (c, s, _), (cx, cy) in zip(objs, cells):
                maps.size_map[cy, cx] = (s.w, s.h)
                maps.iou_map[cy, cx] = 1.0
            heat = render_heatmap(objs, grid)
            peaks = extract_peaks(heat, 0.5)
            dets = decode_detections(peaks, maps, grid, out_threshold=0.4)
            assert len(dets) == n_objects
            got = sorted((d.center.x, d.center.y) for d in dets)
            want = sorted((c.x, c.y) for c, _, _ in objs)
            for (gx, gy), (wx, wy) in zip(got, want):
                assert abs(gx - wx) <= 2.0 and abs(gy - wy) <= 2.0  # within R/2
            assert all(d.confidence == 1.0 for d in dets)


def test_c4_loss_correctness_and_gradients():
    with _Budget("4 loss-correctness", 30):
        # hand-computed fixture values, all to 1e-12
        assert focal_loss(np.array([[0.5]]), np.array([[1.0]]), 1) == pytest.approx(
            0.25 * math.log(2), abs=1e-12
        )
        assert focal_loss(np.array([[0.5]]), np.array([[0.0]]), 1) == pytest.approx(
            0.25 * math.log(2), abs=1e-12
        )

        def obj(center, size, prev_center=None, prev_box=None, cur_box=None):
            cx, cy = center
            w, h = size
            cur = cur_box or box_from_center_size(Point2(cx, cy), Size2(w, h))
            pc = prev_center or center
            prev = prev_box or box_from_center_size(Point2(*pc), Size2(w, h))
            return ObjectAnnotation(Point2(cx, cy), Size2(w, h), Point2(*pc), prev, cur)

        one = GtAnnotations((obj((3.0, 2.0), (4.0, 4.0)),))
        m = np.zeros((5, 5, 2))
        m[2, 3] = (5, 5)
        assert l1_size_loss(m, one) == pytest.approx(2.0, abs=1e-12)

        two = GtAnnotations((obj((1.0, 1.0), (4.0, 4.0)), obj((3.0, 3.0), (6.0, 2.0))))
        m = np.zeros((5, 5, 2))
        m[1, 1] = (5, 4)
        m[3, 3] = (6, 5)
        assert l1_size_loss(m, two) == pytest.approx(2.0, abs=1e-12)

        moved = GtAnnotations((obj((2.0, 2.0), (4.0, 4.0), prev_center=(0.0, 2.0)),))
        assert l1_offset_loss(np.zeros((4, 4, 2)), moved) == pytest.approx(2.0, abs=1e-12)

        shrunk = GtAnnotations(
            (ObjectAnnotation(Point2(3, 2), Size2(4, 4), Point2(3, 2),
                              BoxLTRB(0, 0, 6, 4), BoxLTRB(1, 0, 5, 4)),)
        )
        assert l1_tracked_size_wh_loss(np.zeros((4, 6, 2)), shrunk) == pytest.approx(2.0, abs=1e-12)

        prev_edges = GtAnnotations(
            (ObjectAnnotation(Point2(2, 2), Size2(4, 4), Point2(10, 10),
                              BoxLTRB(8, 8, 12, 12), BoxLTRB(0, 0, 4, 4)),)
        )
        m = np.zeros((4, 4, 4))
        m[2, 2] = (8, 8, 12, 13)
        assert l1_tracked_size_ltrb_loss(m, prev_edges) == pytest.approx(1.0, abs=1e-12)

        adjacent = GtAnnotations(
            (ObjectAnnotation(Point2(2, 1), Size2(2, 2), Point2(1, 1),
                              BoxLTRB(0, 0, 2, 2), BoxLTRB(1, 0, 3, 2)),)
        )
        m = np.zeros((3, 3))
        m[1, 2] = 0.5
        assert l_iou_loss(m, adjacent) == pytest.approx(abs(0.5 - 1 / 3), abs=1e-12)

        # zero at ground truth for all five regression losses
        gt_map = np.zeros((5, 5, 2))
        gt_map[2, 3] = (4, 4)
        assert l1_size_loss(gt_map, one) == 0.0
        assert l1_offset_loss(np.zeros((4, 4, 2)), GtAnnotations((obj((2.0, 2.0), (4.0, 4.0)),))) == 0.0
        m = np.zeros((4, 6, 2))
        m[2, 3] = (2, 0)
        assert l1_tracked_size_wh_loss(m, shrunk) == 0.0
        m = np.zeros((4, 4, 4))
        m[2, 2] = (8, 8, 12, 12)
        assert l1_tracked_size_ltrb_loss(m, prev_edges) == 0.0
        m = np.zeros((3, 3))
        m[1, 2] = 1 / 3
        assert l_iou_loss(m, adjacent) == 0.0

        # analytic focal gradient vs central differences at random interior points
        rng = np.random.default_rng(104)
        points_checked = 0
        worst = 0.0
        while points_checked < 100:
            pred = rng.uniform(0.05, 0.95, size=(10, 10))
            gt = rng.uniform(0.0, 0.95, size=(10, 10))
            for r, c in rng.integers(0, 10, size=(3, 2)):
                gt[r, c] = 1.0
            worst = max(worst, focal_gradient_max_rel_err(pred, gt, 2))
            points_checked += pred.size
        assert worst < 1e-4, worst


def test_c5_metrics_hand_case_and_enumeration():
    rng = np.random.default_rng(105)
    with _Budget("5 metrics-oracle", 30):
        box = BoxLTRB(10, 10, 30, 50)
        gt = [GtEntry(f, 1, box, 1, 1.0) for f in range(1, 11)]
        hyp = [TrackRecord(f, 1 if f <= 5 else 2, box, 1.0) for f in range(1, 11)]
        clear = clear_mot(gt, hyp)
        assert clear.mota == pytest.approx(0.9, abs=1e-12)
        assert clear.ids == 1 and clear.fp == 0 and clear.fn == 0
        ident = idf1(gt, hyp)
        assert ident.idf1 == pytest.approx(0.5, abs=1e-12)
        assert (ident.idtp, ident.idfp, ident.idfn) == (5, 5, 5)

        def random_rows(n_tracks, n_frames, present_p=0.75):
            rows = []
            for tid in range(1, n_tracks + 1):
                for f in range(1, n_frames + 1):
                    if rng.random() < present_p:
                        x = float(rng.integers(0, 4)) * 8
                        y = float(rng.integers(0, 4)) * 8
                        w = float(rng.integers(1, 3)) * 8
                        h = float(rng.integers(1, 3)) * 8
                        rows.append((f, tid, (x, y, x + w, y + h)))
            return rows

        for _ in range(200):
            n_frames = int(rng.integers(1, 7))
            gt_rows = random_rows(int(rng.integers(1, 4)), n_frames)
            hyp_rows = random_rows(int(rng.integers(1, 4)), n_frames)
            gt = [GtEntry(f, tid, BoxLTRB(*b), 1, 1.0) for f, tid, b in gt_rows]
            hyp = [TrackRecord(f, tid, BoxLTRB(*b), 1.0) for f, tid, b in hyp_rows]
            res = idf1(gt, hyp)
            expected_f1, idtp, _, _ = idf1_enumerate(gt_rows, hyp_rows)
            assert res.idtp == idtp
            assert res.idf1 == pytest.approx(expected_f1, abs=1e-12)


def test_c6_crossing_benchmark_ordinal_claim():
    with _Budget("6 ordinal-iou-vs-dis", 60):
        totals = {Strategy.DIS: {"ids": 0, "idf1": 0.0}, Strategy.IOU: {"ids": 0, "idf1": 0.0}}
        for seed in range(50):
            cfg = crossing_scenario(seed=seed)
            gt, oracle = generate(cfg)
            dets = perturb(
                oracle, MODERATE_NOISE, seed=seed, image_size=(cfg.width, cfg.height), variant=cfg.variant
            )
            for strategy in (Strategy.DIS, Strategy.IOU):
                records = run_sequence(dets, TrackerConfig(strategy=strategy, variant=cfg.variant))
                totals[strategy]["ids"] += clear_mot(gt, records).ids
                totals[strategy]["idf1"] += idf1(gt, records).idf1
        assert totals[Strategy.IOU]["ids"] <= totals[Strategy.DIS]["ids"]
        assert totals[Strategy.IOU]["ids"] < totals[Strategy.DIS]["ids"], totals
        assert totals[Strategy.IOU]["idf1"] >= totals[Strategy.DIS]["idf1"], totals


def _static_oracle_frames(n, gaps):
    frames = []
    box = box_from_center_size(Point2(50, 50), Size2(10, 14))
    for f in range(1, n + 1):
        if f in gaps:
            frames.append((f, []))
            continue
        det = Detection(
            frame=f, center=Point2(50, 50), size=Size2(10, 14), confidence=1.0, class_id=1,
            disp=Displacement(0, 0),
            tracked_size=TrackedSizeLTRB(box.left, box.top, box.right, box.bottom),
            iou_pred=1.0,
        )
        frames.append((f, [det]))
    return frames


def test_c7_lifetime_boundary():
    with _Budget("7 lifetime-boundary", 10):
        cfg = TrackerConfig(strategy=Strategy.IOU, variant="ltrb", lifetime=30)
        resumed = run_sequence(_static_oracle_frames(31, set(range(2, 31))), cfg)
        assert {r.track_id for r in resumed} == {1}  # 29-frame gap resumes
        renewed = run_sequence(_static_oracle_frames(32, set(range(2, 32))), cfg)
        assert [r.track_id for r in renewed] == [1, 2]  # 30-frame gap spawns


def test_c8_sequential_and_combined_properties():
    with _Budget("8 sequential-combined", 60):
        pairs = ((Strategy.IOU_THEN_DIS, Strategy.IOU), (Strategy.DIS_THEN_IOU, Strategy.DIS))
        frames_checked = 0
        for seed in range(200):
            cfg = random_scenario(seed)
            _, oracle = generate(cfg)
            dets_frames = perturb(
                oracle, MODERATE_NOISE, seed=seed, image_size=(cfg.width, cfg.height), variant=cfg.variant
            )
            tracker_cfg = TrackerConfig(strategy=Strategy.IOU, variant=cfg.variant)
            state = TrackerState()
            for frame_no, dets in dets_frames:
                kept = [d for d in dets if d.confidence > tracker_cfg.out_threshold]
                if state.live and kept:
                    dis = displacement_cost(kept, state.live)
                    iouc = iou_cost(kept, state.live, cfg.variant)
                    comb = combine(dis, iouc)
                    assert np.array_equal(
                        np.isfinite(comb), np.isfinite(dis) & np.isfinite(iouc)
                    )
                    for sequential, single in pairs:
                        n_seq = len(associate(sequential, kept, state.live, cfg.variant).matches)
                        n_one = len(associate(single, kept, state.live, cfg.variant).matches)
                        assert n_seq >= n_one, (seed, frame_no, sequential)
                    frames_checked += 1
                state, _ = step(state, kept, tracker_cfg)
        assert frames_checked > 1000


def test_c9_end_to_end_determinism(tmp_path):
    config = tmp_path / "scene.cfg"
    config.write_text(
        "scenario = crossing\nframes = 60\nseed = 13\n"
        "center_noise = 0.8\nsize_noise = 0.4\ndisp_noise = 2.2\nts_noise = 0.7\n"
        "iou_bias = -0.3\nfp_rate = 0.02\nfn_rate = 0.04\n"
    )
    with _Budget("9 end-to-end-determinism", 30):
        digests = []
        for run in ("a", "b"):
            base = tmp_path / run
            sim = base / "sim"
            assert main(["simulate", str(config), "--out-dir", str(sim)]) == 0
            tracks = base / "tracks.txt"
            assert main(["track", str(sim / "preds.csv"), "--strategy", "iou", "--out", str(tracks)]) == 0
            evaluation = json.dumps(_eval_json(sim / "gt.txt", tracks), sort_keys=True)
            digests.append(
                tuple(
                    hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (sim / "gt.txt", sim / "preds.csv", tracks)
                )
                + (hashlib.sha256(evaluation.encode()).hexdigest(),)
            )
        assert digests[0] == digests[1]


def _eval_json(gt_path, hyp_path):
    from motkit.formats import parse_mot, parse_track_file

    gt = parse_mot(gt_path.read_text())
    hyp = parse_track_file(hyp_path.read_text())
    clear = clear_mot(gt, hyp)
    ident = idf1(gt, hyp)
    return {
        "mota": clear.mota,
        "idf1": ident.idf1,
        "ids": clear.ids,
        "fp": clear.fp,
        "fn": clear.fn,
    }
