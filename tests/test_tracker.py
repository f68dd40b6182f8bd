import re

import numpy as np
import pytest

from motkit.association import FILTER_FORMS, Strategy, associate, displacement_cost, iou_cost
from motkit import formats, tracker
from motkit.formats import Detection, DetectionFrame, parse_predictions, write_mot
from motkit.geometry import (
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    box_from_center_size,
)
from motkit.geometry import KERNEL_MIN_CELLS
from motkit.simulator import AgentSpec, NoiseConfig, ScenarioConfig, generate, perturb
from motkit.tracker import TrackerConfig, TrackerState, run_sequence, step
from oracles import step_objects
from test_association import cutover, same_bits  # noqa: F401 (cutover is a fixture)


def oracle_det(frame, cx, cy, w=10.0, h=14.0, prev=None, conf=1.0, cls=1):
    """Detection with exact channels computed from the true previous center."""
    px, py = prev if prev is not None else (cx, cy)
    prev_box = box_from_center_size(Point2(px, py), Size2(w, h))
    return Detection(
        frame=frame,
        center=Point2(cx, cy),
        size=Size2(w, h),
        confidence=conf,
        class_id=cls,
        disp=Displacement(cx - px, cy - py),
        tracked_size=TrackedSizeLTRB(prev_box.left, prev_box.top, prev_box.right, prev_box.bottom),
        iou_pred=1.0 if (px, py) == (cx, cy) else 0.0,
    )


def static_frames(n, gaps=(), cx=50.0, cy=50.0):
    """A static object present on every frame not listed in gaps."""
    frames = []
    for f in range(1, n + 1):
        dets = [] if f in gaps else [oracle_det(f, cx, cy)]
        frames.append((f, dets))
    return frames


CFG = TrackerConfig(strategy=Strategy.IOU, variant="ltrb")


class TestStep:
    def test_cold_start_assigns_ids_in_detection_order(self):
        dets = [
            oracle_det(1, 20, 20, conf=0.7),
            oracle_det(1, 60, 20, conf=0.95),
            oracle_det(1, 100, 20, conf=0.8),
        ]
        state, records = step(TrackerState(), dets, CFG)
        assert [r.track_id for r in records] == [1, 2, 3]
        assert [t.track_id for t in state.live] == [1, 2, 3]
        assert state.next_id == 4
        # record geometry comes from the detections, in order
        assert records[0].box == dets[0].box()

    def test_matched_tracklet_updates_and_resets_age(self):
        state, _ = step(TrackerState(), [oracle_det(1, 50, 50)], CFG)
        state, _ = step(state, [], CFG)
        assert state.live[0].age == 1
        state, records = step(state, [oracle_det(3, 50, 50)], CFG)
        assert state.live[0].age == 0
        assert records[0].track_id == 1

    def test_unmatched_tracklet_keeps_frozen_box(self):
        state, _ = step(TrackerState(), [oracle_det(1, 50, 50)], CFG)
        frozen = state.live[0].last_box
        for _ in range(5):
            state, records = step(state, [], CFG)
            assert records == []
            assert state.live[0].last_box == frozen
            assert state.live[0].last_center == Point2(50, 50)

    def test_wrong_frame_number_rejected(self):
        state, _ = step(TrackerState(), [oracle_det(1, 50, 50)], CFG)
        with pytest.raises(ValueError, match="frame"):
            step(state, [oracle_det(5, 50, 50)], CFG)

    def test_retirement_at_lifetime(self):
        cfg = TrackerConfig(strategy=Strategy.IOU, variant="ltrb", lifetime=3)
        state, _ = step(TrackerState(), [oracle_det(1, 50, 50)], cfg)
        state, _ = step(state, [], cfg)
        state, _ = step(state, [], cfg)
        assert len(state.live) == 1 and state.live[0].age == 2
        state, _ = step(state, [], cfg)
        assert state.live == ()

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_input_state_is_never_mutated(self, strategy, cutover):
        cfg = TrackerConfig(strategy=strategy, variant="ltrb", lifetime=2)
        stream = [
            [oracle_det(1, 20, 20), oracle_det(1, 60, 20)],  # two spawn
            [oracle_det(2, 22, 21, prev=(20, 20)), oracle_det(2, 100, 20)],  # one matches, one ages, one spawns
            [oracle_det(3, 24, 22, prev=(22, 21)), oracle_det(3, 101, 21, prev=(100, 20))],  # the aged one retires
        ]

        def snapshot(state):
            # the columns too: rows built for an earlier repr would hide a write into them
            live = formats._Tracklets.of(state.live)
            return repr(state), [repr(live.values(name)) for name in formats._TRACKLET_COLUMNS]

        state, events = TrackerState(), set()
        for dets in stream:
            before = snapshot(state)
            first = step(state, dets, cfg)
            assert snapshot(state) == before
            again = step(state, dets, cfg)
            assert snapshot(state) == before
            assert again == first and repr(again) == repr(first)
            after = first[0]
            spawned = after.next_id - state.next_id
            old_ids = {t.track_id for t in state.live}
            events.update(
                {"match"} if any(r.track_id in old_ids for r in first[1]) else (),
                {"spawn"} if spawned else (),
                {"age"} if any(t.age for t in after.live) else (),
                {"retire"} if len(after.live) < len(state.live) + spawned else (),
            )
            state = after
        assert events == {"match", "spawn", "age", "retire"}


class TestRunSequence:
    def test_zero_frames(self):
        assert run_sequence([], CFG) == []

    def test_single_linear_object_keeps_one_id_under_every_strategy(self):
        frames = []
        for f in range(1, 21):
            cx = 20.0 + 2.0 * (f - 1)
            prev = (cx - 2.0, 30.0) if f > 1 else None
            frames.append((f, [oracle_det(f, cx, 30.0, prev=prev)]))
        # moving object: true adjacent overlap is below 1, recompute it
        fixed = []
        for f, dets in frames:
            d = dets[0]
            if f > 1:
                from motkit.geometry import iou as geo_iou

                prev_box = box_from_center_size(Point2(d.center.x - 2, 30.0), d.size)
                d = Detection(
                    frame=d.frame, center=d.center, size=d.size, confidence=1.0,
                    class_id=1, disp=Displacement(2.0, 0.0),
                    tracked_size=TrackedSizeLTRB(prev_box.left, prev_box.top, prev_box.right, prev_box.bottom),
                    iou_pred=geo_iou(prev_box, d.box()),
                )
            fixed.append((f, [d]))
        for strategy in Strategy:
            cfg = TrackerConfig(strategy=strategy, variant="ltrb")
            records = run_sequence(fixed, cfg)
            assert len(records) == 20
            assert {r.track_id for r in records} == {1}, strategy

    def test_gap_shorter_than_lifetime_resumes_id(self):
        frames = static_frames(40, gaps=set(range(2, 7)))  # absent frames 2-6
        records = run_sequence(frames, CFG)
        assert {r.track_id for r in records} == {1}
        assert [r.frame for r in records] == [1] + list(range(7, 41))

    def test_gap_of_lifetime_minus_one_resumes(self):
        # absent frames 2..30 (29 frames), reappears at 31
        frames = static_frames(31, gaps=set(range(2, 31)))
        records = run_sequence(frames, CFG)
        assert {r.track_id for r in records} == {1}

    def test_gap_of_lifetime_spawns_new_id(self):
        # absent frames 2..31 (30 frames), reappears at 32
        frames = static_frames(32, gaps=set(range(2, 32)))
        records = run_sequence(frames, CFG)
        assert [r.track_id for r in records] == [1, 2]

    def test_retired_ids_never_reused(self):
        frames = static_frames(80, gaps=set(range(2, 32)) | set(range(40, 75)))
        records = run_sequence(frames, CFG)
        ids = [r.track_id for r in records]
        assert ids == sorted(ids)
        assert set(ids) == {1, 2, 3}

    def test_left_out_frame_is_empty_and_frames_must_ascend(self):
        frames = [(1, [oracle_det(1, 50, 50)]), (3, [oracle_det(3, 50, 50)])]
        records = run_sequence(frames, CFG)
        assert [(r.frame, r.track_id) for r in records] == [(1, 1), (3, 1)]
        assert repr(records) == repr(run_sequence(static_frames(3, gaps={2}), CFG))
        for later in (3, 2):
            frames = [(3, [oracle_det(3, 50, 50)]), (later, [oracle_det(later, 50, 50)])]
            with pytest.raises(ValueError, match=f"do not ascend: 3 -> {later}$"):
                run_sequence(frames, CFG)

    def test_confidence_threshold_is_strict(self):
        frames = [(1, [oracle_det(1, 50, 50, conf=0.4)])]
        assert run_sequence(frames, CFG) == []
        frames = [(1, [oracle_det(1, 50, 50, conf=0.41)])]
        assert len(run_sequence(frames, CFG)) == 1

    def test_deterministic(self):
        frames = static_frames(25, gaps={5, 6, 12})
        assert run_sequence(frames, CFG) == run_sequence(frames, CFG)

    def test_starts_at_arbitrary_first_frame(self):
        frames = [(7, [oracle_det(7, 50, 50)]), (8, [oracle_det(8, 50, 50)])]
        records = run_sequence(frames, CFG)
        assert [r.frame for r in records] == [7, 8]
        assert {r.track_id for r in records} == {1}


class TestConfigValidation:
    def test_bad_lifetime(self):
        with pytest.raises(ValueError):
            TrackerConfig(lifetime=0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            TrackerConfig(out_threshold=1.5)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            TrackerConfig(variant="xyz")

    def test_bad_filter_form(self):
        with pytest.raises(ValueError):
            TrackerConfig(iou_filter_form="other")

    @pytest.mark.parametrize("strategy", ["iou", None, "Strategy.IOU"])
    def test_strategy_must_be_a_member(self, strategy):
        # named with the members, here and from associate, instead of a KeyError at the first frame
        message = rf"unknown strategy {re.escape(repr(strategy))}: expected one of Strategy\.DIS, .*Strategy\.DIS_THEN_IOU"
        with pytest.raises(ValueError, match=message):
            TrackerConfig(strategy=strategy)
        with pytest.raises(ValueError, match=message):
            associate(strategy, [oracle_det(1, 50, 50)], [], "ltrb")


def random_stream(seed, n_objects, variant):
    """Walkers crossing a 240x240 image under heavy misses, noise and false alarms."""
    rng = np.random.default_rng(seed)
    frames = 40
    agents = []
    for k in range(n_objects):
        w, h = (float(v) for v in rng.uniform(12, 30, size=2))
        x0, y0, x1, y1 = (float(v) for v in rng.uniform(-20, 260, size=4))
        start = int(rng.integers(1, frames))
        agents.append(AgentSpec(width=w, height=h, waypoints=((start, x0, y0), (frames + 5, x1, y1)), depth=k))
    cfg = ScenarioConfig(width=240, height=240, frames=frames, agents=tuple(agents), variant=variant)
    noise = NoiseConfig(center_noise_sigma=1.0, disp_noise_sigma=3.0, ts_noise_sigma=1.0,
                        iou_pred_bias=-0.3, fp_rate=0.5, fn_rate=0.25)
    _, oracle = generate(cfg)
    return perturb(oracle, noise, seed, image_size=(240, 240), variant=variant)


class TestInvariantsOnRandomStreams:
    @pytest.mark.parametrize("n_objects", [2, 40])
    def test_partition_fresh_ids_and_bounded_age(self, n_objects):
        max_cells = 0
        for seed in range(6):
            strategy = list(Strategy)[seed % len(Strategy)]
            variant = ("ltrb", "wh")[seed % 2]
            cfg = TrackerConfig(strategy=strategy, variant=variant, lifetime=3)
            state = TrackerState()
            ever: set[int] = set()
            for _, dets in random_stream(seed, n_objects, variant):
                res = associate(cfg.strategy, dets, state.live, cfg.variant, cfg.iou_filter_form)
                max_cells = max(max_cells, len(dets) * len(state.live))
                assert sorted([i for i, _ in res.matches] + res.unmatched_detections) == list(range(len(dets)))
                assert sorted([j for _, j in res.matches] + res.unmatched_tracklets) == list(
                    range(len(state.live))
                )
                before = {t.track_id for t in state.live}
                state, records = step(state, dets, cfg)
                assert len(records) == len(dets)
                spawned = {r.track_id for r in records} - before
                assert len(spawned) == len(res.unmatched_detections)
                assert not spawned & ever
                ever |= spawned
                live_ids = [t.track_id for t in state.live]
                assert len(live_ids) == len(set(live_ids))
                assert all(t.age < cfg.lifetime for t in state.live)
        # two objects stay on the scalar loops; forty reach the kernel paths
        assert (max_cells >= KERNEL_MIN_CELLS) == (n_objects == 40)


class TestSparseFrames:
    """``run_sequence`` over frames left out, against the same frames given empty."""

    @pytest.mark.parametrize("lifetime", [1, 2, 3, 5])
    def test_equals_run_sequence_over_the_dense_frames(self, lifetime):
        rng = np.random.default_rng(lifetime)
        cut = 0
        for seed in range(8):
            variant = ("ltrb", "wh")[seed % 2]
            cfg = TrackerConfig(strategy=list(Strategy)[seed % len(Strategy)], variant=variant, lifetime=lifetime)
            # empty runs of lifetime - 1 to lifetime + 1 frames, at random places
            dropped = set()
            for start in rng.integers(1, 40, size=4).tolist():
                dropped.update(range(start, start + int(rng.integers(lifetime - 1, lifetime + 2))))
            by_frame = {f: dets for f, dets in random_stream(seed, 10, variant) if dets and f not in dropped}
            dense = [(f, by_frame.get(f, [])) for f in range(min(by_frame), max(by_frame) + 1)]
            assert repr(run_sequence(by_frame.items(), cfg)) == repr(run_sequence(dense, cfg))
            numbers = sorted(by_frame)
            cut += any(b - a > lifetime for a, b in zip(numbers, numbers[1:]))
        assert cut >= 4

    def test_frames_far_apart_are_not_stepped_through(self):
        by_frame = {1: [oracle_det(1, 50, 50)], 2**63: [oracle_det(2**63, 50, 50)], 2**70: []}
        records = run_sequence(by_frame.items(), CFG)
        assert [(r.frame, r.track_id) for r in records] == [(1, 1), (2**63, 2)]
        assert run_sequence({}.items(), CFG) == []

    def test_steps_only_through_gaps_shorter_than_the_lifetime(self, monkeypatch):
        stepped = []

        def counted(state, dets, cfg):
            stepped.append(state.frame_index + 1)
            return step(state, dets, cfg)

        monkeypatch.setattr(tracker, "step", counted)
        # lifetime 3: two empty frames are stepped through, three are not
        run_sequence([(1, []), (4, []), (8, [])], TrackerConfig(lifetime=3))
        assert stepped == [1, 2, 3, 4, 8]


class TestGapFrames:
    def test_empty_gap_frames_build_no_detection_table(self, monkeypatch):
        row = "{},50,50,10,10,0.9,1,0,0,0,0,0.5\n"
        preds = parse_predictions("variant: wh\n" + row.format(1) + row.format(5001))
        built = []
        init = formats.DetectionFrame.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(formats.DetectionFrame, "__init__", counted)
        cfg = TrackerConfig(variant="wh", lifetime=10**6)
        records = run_sequence(preds.by_frame.items(), cfg)
        assert built == []
        assert write_mot(records) == "1,1,45,45,10,10,0.9,-1,-1,-1\n5001,1,45,45,10,10,0.9,-1,-1,-1\n"
        assert repr(DetectionFrame.of([])) == "DetectionFrame([])" and DetectionFrame.of([]).variant is None


def kept(dets, cfg):
    """The detections :func:`step` keeps: confidence above the output threshold."""
    frame = DetectionFrame.of(dets)
    return frame.take([i for i, c in enumerate(frame.values("conf")) if c > cfg.out_threshold])


class TestColumnsAgainstObjectStep:
    """The columnar tracker against ``oracles.step_objects``, the object step it replaced."""

    @pytest.mark.parametrize("lifetime", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_objects", [2, 40])
    def test_step_and_run_sequence_equal_the_object_fold(self, n_objects, lifetime, cutover):
        on_kernel = on_loops = 0
        for k, (strategy, variant) in enumerate((s, v) for s in Strategy for v in ("ltrb", "wh")):
            cfg = TrackerConfig(strategy=strategy, variant=variant, lifetime=lifetime)
            stream = random_stream(k, n_objects, variant)
            state = want_state = TrackerState()
            want_records = []
            for _, dets in stream:
                dets = kept(dets, cfg)
                if len(dets) * len(state.live) >= cutover:
                    on_kernel += 1
                else:
                    on_loops += 1
                state, records = step(state, dets, cfg)
                want_state, want = step_objects(want_state, dets, cfg)
                assert repr(records) == repr(want)
                assert repr(state.live) == repr(want_state.live)
                assert (state.next_id, state.frame_index) == (want_state.next_id, want_state.frame_index)
                want_records += want
            assert repr(run_sequence(stream, cfg)) == repr(want_records)
            # without its empty frames, whose gaps are shorter than the stream: the same records
            by_frame = {f: dets for f, dets in stream if len(dets)}
            assert repr(run_sequence(by_frame.items(), cfg)) == repr(want_records)
        # two objects keep most frames on the scalar loops; forty reach the kernel paths
        assert on_loops > on_kernel if n_objects == 2 and cutover > 1 else on_kernel > 0

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_step_drops_detections_at_or_below_the_threshold(self, strategy):
        stream = random_stream(4, 10, "wh")  # true detections at confidence 1, false alarms in [0.5, 1)
        alarms = sorted(d.confidence for _, dets in stream for d in dets if d.confidence < 1)
        at = alarms[len(alarms) // 2]  # a threshold equal to one false alarm's confidence drops it
        for theta, dropped in ((0.0, 0), (0.8, sum(c <= 0.8 for c in alarms)), (at, len(alarms) // 2 + 1)):
            cfg = TrackerConfig(strategy=strategy, variant="wh", lifetime=3, out_threshold=theta)
            state = want_state = TrackerState()
            for _, dets in stream:
                state, records = step(state, dets, cfg)
                want_state, want = step(want_state, kept(dets, cfg), cfg)
                assert repr((state, records)) == repr((want_state, want))
                dropped -= len(dets) - len(want)
            assert dropped == 0
        assert 0 < sum(c <= 0.8 for c in alarms) < len(alarms)

    def test_plain_tracklet_lists_equal_the_table(self, cutover):
        cfg = TrackerConfig(strategy=Strategy.IOU_THEN_DIS, variant="wh", lifetime=5)
        state = TrackerState()
        for frame_no, dets in random_stream(3, 40, "wh"):
            dets = kept(dets, cfg)
            plain = TrackerState(list(state.live), state.next_id, state.frame_index)
            tracks = list(state.live)
            for strategy in Strategy:
                got = associate(strategy, dets, state.live, "wh")
                assert repr(associate(strategy, dets, tracks, "wh")) == repr(got)
            for form in FILTER_FORMS:
                assert same_bits(iou_cost(dets, tracks, "wh", form), iou_cost(dets, state.live, "wh", form))
            assert same_bits(displacement_cost(dets, tracks), displacement_cost(dets, state.live))
            state, records = step(state, dets, cfg)
            assert repr(step(plain, dets, cfg)) == repr((state, records))
        assert len(state.live) > 4

    def test_frame_mismatch_message_is_unchanged(self):
        state, _ = step(TrackerState(), [oracle_det(1, 50, 50)], CFG)
        dets = [oracle_det(2, 50, 50), oracle_det(5, 80, 50)]
        with pytest.raises(ValueError) as got:
            step(state, dets, CFG)
        with pytest.raises(ValueError) as want:
            step_objects(state, dets, CFG)
        assert str(got.value) == str(want.value) == "detection frame 5 does not match tracker frame 2"

