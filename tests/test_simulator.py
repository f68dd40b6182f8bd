import tracemalloc
import warnings

import numpy as np
import pytest

from motkit.association import Strategy
from motkit.formats import Detection, DetectionFrame, TrackRecord, write_predictions
from motkit.geometry import BoxLTRB, Displacement, Point2, Size2, TrackedSizeLTRB, TrackedSizeWH, iou, iou_array
from motkit.metrics import clear_mot
from motkit.simulator import (
    MODERATE_NOISE,
    AgentSpec,
    _paths,
    _visibility,
    NoiseConfig,
    ScenarioConfig,
    crossing_scenario,
    exit_scenario,
    generate,
    occluded_crossing_scenario,
    perturb,
)
from motkit.tracker import TrackerConfig, run_sequence
from oracles import generate_scalar, perturb_scalar, random_scenario, write_predictions_objects


def static_config(frames=10, variant="ltrb"):
    agent = AgentSpec(width=16, height=20, waypoints=((1, 50.0, 50.0),))
    return ScenarioConfig(width=200, height=200, frames=frames, agents=(agent,), variant=variant)


def inside(box, cfg):
    return box.left >= 0 and box.top >= 0 and box.right <= cfg.width and box.bottom <= cfg.height


def reference_visibility(cfg):
    """(frame, agent id) pairs visible under the scalar occlusion test generate() once ran."""
    visible = set()
    for frame in range(1, cfg.frames + 1):
        boxes = [a.box(frame) for a in cfg.agents]
        for k, agent in enumerate(cfg.agents):
            if not inside(boxes[k], cfg):
                continue
            occluded = any(
                other.depth < agent.depth and iou(boxes[k], boxes[m]) > cfg.occlusion_iou
                for m, other in enumerate(cfg.agents)
                if m != k and inside(boxes[m], cfg)
            )
            if not occluded:
                visible.add((frame, k + 1))
    return visible


def crowded_config(seed, n_agents=30):
    """Agents of similar size crossing a small image and its edges, depths often tied.

    The occlusion threshold cycles through 0.3, -0.5 (every nearer on-screen agent occludes, overlapping or not),
    0.0 and 1.0 (no IOU exceeds it).
    """
    rng = np.random.default_rng(seed)
    frames = 25
    agents = []
    for _ in range(n_agents):
        w, h = (float(v) for v in rng.uniform(20, 30, size=2))
        x0, y0, x1, y1 = (float(v) for v in rng.uniform(-20, 140, size=4))
        agents.append(
            AgentSpec(width=w, height=h, waypoints=((1, x0, y0), (frames, x1, y1)), depth=int(rng.integers(0, 4)))
        )
    threshold = THRESHOLDS[seed % len(THRESHOLDS)]
    return ScenarioConfig(width=120, height=120, frames=frames, agents=tuple(agents), occlusion_iou=threshold)


#: Occlusion thresholds the random scenes draw: a negative one occludes by every nearer on-screen agent.
THRESHOLDS = (0.3, -0.5, 0.0, 1.0, 0.7)


def touching_pair(rng, frames):
    """Two agents walking straight down whose x-edges touch exactly, the nearer one's left edge on the image's.

    Even integer widths keep every center and edge exact; their y-extents meet at the first frames.
    """
    near, far = (float(2 * rng.integers(1, 16)) for _ in range(2))
    y0, y1 = (float(y) for y in rng.uniform(10, 90, size=2))
    x = near + far / 2
    return [
        AgentSpec(width=near, height=30, waypoints=((1, near / 2, y0), (frames, near / 2, y1)), depth=0),
        AgentSpec(width=far, height=24, waypoints=((1, x, y0 + 4), (frames, x, y1 - 4)), depth=1),
    ]


def referee_config(seed):
    """A random scene for the scalar referee.

    Agents have 1-4 waypoints, some before frame 1 or past the last frame, so
    frames before the first waypoint and past the last one both occur. Every
    third seed uses integer coordinates and sizes. Depths are often tied,
    and paths wander across the image edges, so agents leave and re-enter.
    Odd seeds are ``wh`` scenes. Every fifth seed puts the random agents at
    one depth, and every fourth adds a :func:`touching_pair`. The occlusion
    threshold is one of ``THRESHOLDS``.
    """
    rng = np.random.default_rng(seed)
    frames = int(rng.integers(1, 40))
    integer = seed % 3 == 0
    agents = []
    for _ in range(int(rng.integers(1, 9))):
        n = int(rng.integers(1, 5))
        keys = sorted(rng.choice(np.arange(-10, frames + 12), size=n, replace=False).tolist())
        xy = rng.uniform(-40, 160, size=(n, 2))
        size = rng.uniform(0, 40, size=2)
        if integer:
            xy, size = np.round(xy).astype(int), np.round(size).astype(int)
        waypoints = tuple((f, x, y) for f, (x, y) in zip(keys, xy.tolist()))
        w, h = size.tolist()
        depth = int(rng.integers(0, 3))
        agents.append(AgentSpec(width=w, height=h, waypoints=waypoints, depth=0 if seed % 5 == 4 else depth))
    threshold = float(rng.choice(THRESHOLDS))
    if seed % 4 == 1:
        agents += touching_pair(rng, frames)
    return ScenarioConfig(
        width=120,
        height=100,
        frames=frames,
        agents=tuple(agents),
        variant="wh" if seed % 2 else "ltrb",
        occlusion_iou=threshold,
    )


def assert_matches_referee(cfg):
    """``repr`` equality with the object-by-object build: exact to the bit, and -0.0 differs from 0.0."""
    # A bare assert on the two strings would have pytest diff them, which takes minutes.
    gt, frames = generate(cfg)
    equal = repr((gt, [(f, list(dets)) for f, dets in frames])) == repr(generate_scalar(cfg))
    assert equal, cfg


class TestGenerate:
    def test_equals_scalar_referee(self):
        configs = [referee_config(seed) for seed in range(300)] + [crowded_config(seed) for seed in range(4)]
        for build in (crossing_scenario, occluded_crossing_scenario, exit_scenario):
            configs += [build(variant="ltrb"), build(variant="wh")]
        seen = dict.fromkeys(("single", "clamped", "extrapolated", "reentries", "occluded"), 0)
        for cfg in configs:
            assert_matches_referee(cfg)
            frames = range(1, cfg.frames + 1)
            for agent in cfg.agents:
                first, last = agent.waypoints[0][0], agent.waypoints[-1][0]
                if len(agent.waypoints) == 1:
                    seen["single"] += 1
                else:
                    seen["clamped"] += sum(f < first for f in frames)
                    seen["extrapolated"] += sum(f > last for f in frames)
                on = [f for f in frames if inside(agent.box(f), cfg)]
                seen["reentries"] += sum(b - a > 1 for a, b in zip(on, on[1:]))
                seen["occluded"] += len(on)
            seen["occluded"] -= len(generate(cfg)[0])
        assert min(seen.values()) > 50, seen

    def test_equals_scalar_referee_with_huge_waypoint_frames(self):
        """Frame numbers whose differences floats cannot hold exactly still divide as Python ints."""
        paths = [
            ((-(2**55) - 7, 0.0, 50.0), (2**54 + 13, 150.0, 40.0)),
            ((-3, 10.0, 20.0), (2**70 + 1, 90.0, 60.0)),
            ((1, 30.0, 30.0), (2**53 + 1, 60.0, 30.0), (2**80, 0.0, 0.0)),
        ]
        agents = tuple(AgentSpec(width=10, height=12, waypoints=p, depth=k) for k, p in enumerate(paths))
        for variant in ("ltrb", "wh"):
            assert_matches_referee(ScenarioConfig(width=200, height=200, frames=30, agents=agents, variant=variant))

    def test_negative_agent_size_rejected(self):
        for w, h in ((-1.0, 10.0), (10.0, -1.0)):
            with pytest.raises(ValueError, match="negative agent size"):
                AgentSpec(width=w, height=h, waypoints=((1, -500.0, -500.0),))

    def test_visibility_equals_scalar_occlusion_reference(self):
        occluded = offscreen = 0
        configs = [crowded_config(seed) for seed in range(8)] + [random_scenario(seed) for seed in range(40)]
        configs += [occluded_crossing_scenario(), exit_scenario()]
        for cfg in configs:
            gt, frames = generate(cfg)
            want = reference_visibility(cfg)
            assert {(e.frame, e.track_id) for e in gt} == want
            assert sum(len(dets) for _, dets in frames) == len(want)
            for frame in range(1, cfg.frames + 1):
                for k, agent in enumerate(cfg.agents):
                    if (frame, k + 1) not in want:
                        if inside(agent.box(frame), cfg):
                            occluded += 1
                        else:
                            offscreen += 1
        assert occluded > 100 and offscreen > 100


    def test_static_agent(self):
        gt, frames = generate(static_config())
        assert len(gt) == 10
        assert all(len(dets) == 1 for _, dets in frames)
        for _, dets in frames:
            d = dets[0]
            assert (d.disp.dx, d.disp.dy) == (0.0, 0.0)
            assert d.iou_pred == 1.0
            assert d.confidence == 1.0

    def test_moving_agent_channels(self):
        agent = AgentSpec(width=16, height=20, waypoints=((1, 40.0, 50.0), (10, 58.0, 50.0)))
        cfg = ScenarioConfig(width=200, height=200, frames=10, agents=(agent,))
        gt, frames = generate(cfg)
        # +2 px/frame in x; adjacent-frame overlap of a 16x20 box moved by 2
        # is (14*20) / (2*320 - 280) = 7/9
        for f, dets in frames[1:]:
            d = dets[0]
            assert d.disp.dx == pytest.approx(2.0, abs=1e-9)
            assert d.disp.dy == 0.0
            assert d.iou_pred == pytest.approx(7 / 9, abs=1e-12)

    def test_ltrb_oracle_is_previous_box(self):
        agent = AgentSpec(width=16, height=20, waypoints=((1, 40.0, 50.0), (10, 58.0, 50.0)))
        cfg = ScenarioConfig(width=200, height=200, frames=10, agents=(agent,))
        _, frames = generate(cfg)
        prev_box = None
        for f, dets in frames:
            d = dets[0]
            if prev_box is not None:
                ts = d.tracked_size
                got = BoxLTRB(ts.left, ts.top, ts.right, ts.bottom)
                assert got == prev_box
            prev_box = d.box()

    def test_wh_oracle_size_change(self):
        gt, frames = generate(static_config(variant="wh"))
        for _, dets in frames:
            ts = dets[0].tracked_size
            assert (ts.dw, ts.dh) == (0.0, 0.0)

    def test_exit_stops_emitting(self):
        agent = AgentSpec(width=16, height=20, waypoints=((1, 180.0, 50.0), (20, 260.0, 50.0)))
        cfg = ScenarioConfig(width=200, height=200, frames=20, agents=(agent,))
        gt, frames = generate(cfg)
        present = [f for f, dets in frames if dets]
        # right edge crosses x=200 when center + 8 > 200
        assert present == [f for f in range(1, 21) if 180 + (f - 1) * 80 / 19 + 8 <= 200]
        assert {e.frame for e in gt} == set(present)

    def test_occlusion_suppresses_far_agent(self):
        cfg = occluded_crossing_scenario()
        gt, frames = generate(cfg)
        counts = {f: len(dets) for f, dets in frames}
        assert counts[30] == 2
        assert counts[31] == 1  # far agent hidden at the meeting point
        assert counts[32] == 2
        # the suppressed agent is the deeper one
        by_frame = {e.frame: e for e in gt if e.track_id == 1}
        assert 31 not in by_frame

    def test_crossing_scenario_never_occludes(self):
        gt, frames = generate(crossing_scenario())
        assert all(len(dets) == 2 for _, dets in frames)

    def test_workers_bit_identical(self):
        cfg = crossing_scenario()
        assert generate(cfg) == generate(cfg)

    def test_deterministic(self):
        cfg = random_scenario(7)
        assert generate(cfg) == generate(cfg)


def stacked_config(threshold):
    """400 agents walking up and down one x-column for 40 frames: every same-frame pair meets in x."""
    rng = np.random.default_rng(1)
    agents = []
    for _ in range(400):
        w, h = (float(v) for v in rng.uniform(20, 30, size=2))
        y0, y1 = (float(v) for v in rng.uniform(-10, 410, size=2))
        waypoints = ((1, 100.0, y0), (40, 100.0, y1))
        agents.append(AgentSpec(width=w, height=h, waypoints=waypoints, depth=int(rng.integers(0, 8))))
    return ScenarioConfig(width=200, height=400, frames=40, agents=tuple(agents), occlusion_iou=threshold)


def dense_visibility(cfg, boxes):
    """``_visibility``'s (frame index, agent index) lists from one all-pairs kernel call per frame."""
    l, t, r, b = np.moveaxis(boxes, -1, 0)
    inside = (l >= 0) & (t >= 0) & (r <= cfg.width) & (b <= cfg.height)
    depth = np.array([a.depth for a in cfg.agents])
    frames, agents = [], []
    for f in range(cfg.frames):
        on = np.flatnonzero(inside[:, f])
        box, nearer = boxes[on, f], depth[on][None, :] < depth[on][:, None]
        visible = on[~((iou_array(box[:, None], box[None]) > cfg.occlusion_iou) & nearer).any(axis=1)]
        frames += [f] * len(visible)
        agents += visible.tolist()
    return frames, agents


class TestOcclusionBroadPhase:
    """``_visibility`` scores same-frame x-overlap candidates in blocks of bounded size."""

    @pytest.mark.parametrize("threshold", [0.3, -0.5])
    def test_a_stacked_column_equals_the_dense_kernel_at_a_bounded_peak(self, threshold):
        cfg = stacked_config(threshold)
        boxes = _paths(cfg)
        tracemalloc.start()
        try:
            frames, agents = _visibility(cfg, boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20  # all ~6.4 million same-frame pairs at once would take hundreds of MiB
        want = dense_visibility(cfg, boxes)
        assert (frames.tolist(), agents.tolist()) == want
        assert 500 < len(want[0]) < 8000

    def test_touching_x_edges_occlude_only_under_a_negative_threshold(self):
        near = AgentSpec(width=20, height=30, waypoints=((1, 10.0, 50.0),), depth=0)  # x-edges 0 and 20
        far = AgentSpec(width=20, height=30, waypoints=((1, 30.0, 50.0),), depth=1)  # x-edges 20 and 40
        for threshold, want in ((-0.5, {1}), (0.0, {1, 2}), (1.0, {1, 2})):
            cfg = ScenarioConfig(width=100, height=100, frames=3, agents=(near, far), occlusion_iou=threshold)
            assert reference_visibility(cfg) == {(f, k) for f in (1, 2, 3) for k in want}
            assert {(e.frame, e.track_id) for e in generate(cfg)[0]} == reference_visibility(cfg)

    def test_a_negative_threshold_occludes_by_every_nearer_agent_on_screen(self):
        agents = [AgentSpec(width=10, height=10, waypoints=((1, 10.0 + 30 * k, 50.0),), depth=k) for k in range(3)]
        agents.append(AgentSpec(width=10, height=10, waypoints=((1, 500.0, 50.0),), depth=-1))  # off screen
        cfg = ScenarioConfig(width=100, height=100, frames=2, agents=tuple(agents), occlusion_iou=-0.5)
        assert reference_visibility(cfg) == {(1, 1), (2, 1)}
        frames, visible = _visibility(cfg, _paths(cfg))
        assert frames.tolist() == [0, 1] and visible.tolist() == [0, 0]


class TestPerturb:
    def test_zero_noise_is_identity(self):
        _, frames = generate(crossing_scenario())
        assert perturb(frames, NoiseConfig(), seed=0) == frames

    def test_fn_rate_one_drops_everything(self):
        _, frames = generate(crossing_scenario())
        out = perturb(frames, NoiseConfig(fn_rate=1.0), seed=0)
        assert all(dets == [] for _, dets in out)
        assert [f for f, _ in out] == [f for f, _ in frames]

    def test_fp_injection_is_binomial(self):
        cfg = static_config(frames=1000)
        _, frames = generate(cfg)
        out = perturb(frames, NoiseConfig(fp_rate=0.1), seed=3, image_size=(200, 200), variant="ltrb")
        injected = sum(len(dets) for _, dets in out) - sum(len(dets) for _, dets in frames)
        mean, sigma = 1000 * 0.1, (1000 * 0.1 * 0.9) ** 0.5
        assert abs(injected - mean) <= 3 * sigma

    def test_fp_requires_image_size(self):
        _, frames = generate(static_config())
        with pytest.raises(ValueError, match="image_size"):
            perturb(frames, NoiseConfig(fp_rate=0.5), seed=0)

    def test_fp_requires_variant(self):
        _, frames = generate(static_config())
        with pytest.raises(ValueError, match="variant"):
            perturb(frames, NoiseConfig(fp_rate=0.5), seed=0, image_size=(200, 200))
        assert perturb(frames, NoiseConfig(fn_rate=0.5), seed=0) is not None

    def test_false_alarms_take_the_scene_variant_without_visible_agents(self):
        agent = AgentSpec(width=16, height=20, waypoints=((1, -100.0, -100.0),))
        cfg = ScenarioConfig(width=200, height=200, frames=5, agents=(agent,), variant="wh")
        gt, frames = generate(cfg)
        assert gt == []
        out = perturb(frames, NoiseConfig(fp_rate=1.0), seed=0, image_size=(200, 200), variant=cfg.variant)
        assert [len(dets) for _, dets in out] == [1] * 5
        assert all(d.variant == "wh" and d.class_id == 1 for _, dets in out for d in dets)

    def test_seed_determinism(self):
        _, frames = generate(crossing_scenario())
        a = perturb(frames, MODERATE_NOISE, seed=11, image_size=(200, 200), variant="ltrb")
        b = perturb(frames, MODERATE_NOISE, seed=11, image_size=(200, 200), variant="ltrb")
        c = perturb(frames, MODERATE_NOISE, seed=12, image_size=(200, 200), variant="ltrb")
        assert a == b
        assert a != c

    def test_iou_bias_clamp_equals_np_clip(self):
        _, frames = generate(random_scenario(3))
        dets = [d for _, ds in frames for d in ds]
        below = above = inside_range = 0
        for bias in (-2.0, -0.9, -0.5, -0.1, 1e-9, 0.1, 0.5, 0.9, 2.0):
            out = perturb(frames, NoiseConfig(iou_pred_bias=bias), seed=0)
            got = [d.iou_pred for _, ds in out for d in ds]
            want = [float(np.clip(d.iou_pred + bias, 0.0, 1.0)) for d in dets]
            assert repr(got) == repr(want)
            assert all(type(v) is float for v in got)
            below += sum(d.iou_pred + bias < 0 for d in dets)
            above += sum(d.iou_pred + bias > 1 for d in dets)
            inside_range += sum(0 < d.iou_pred + bias < 1 for d in dets)
        assert min(below, above, inside_range) > 10

    def test_iou_bias_clamps(self):
        _, frames = generate(static_config())
        out = perturb(frames, NoiseConfig(iou_pred_bias=0.5), seed=0)
        for _, dets in out:
            assert all(d.iou_pred == 1.0 for d in dets)
        out = perturb(frames, NoiseConfig(iou_pred_bias=-2.0), seed=0)
        for _, dets in out:
            assert all(d.iou_pred == 0.0 for d in dets)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(center_noise_sigma=-1)
        with pytest.raises(ValueError):
            NoiseConfig(fn_rate=1.5)


def as_lists(frames):
    return [(f, list(dets)) for f, dets in frames]


#: Each setting on its own, then all of them together.
REFEREE_NOISE = [
    NoiseConfig(),
    NoiseConfig(center_noise_sigma=1.5),
    NoiseConfig(size_noise_sigma=20.0),  # large enough to clamp sizes at 0
    NoiseConfig(disp_noise_sigma=2.0),
    NoiseConfig(ts_noise_sigma=3.0),
    NoiseConfig(iou_pred_bias=-0.4),
    NoiseConfig(iou_pred_bias=0.3),
    NoiseConfig(fn_rate=0.5),
    NoiseConfig(fn_rate=1.0),
    NoiseConfig(fp_rate=0.5),
    NoiseConfig(fp_rate=1.0),
    MODERATE_NOISE,
    NoiseConfig(1.0, 2.0, 3.0, 4.0, 0.2, 0.5, 0.5),
]


class TestPerturbEqualsReferee:
    """``perturb`` on columns against the detection-by-detection pass it replaced, by ``repr``."""

    def scenes(self):
        scenes = [random_scenario(seed, variant) for seed in range(6) for variant in ("ltrb", "wh")]
        offscreen = AgentSpec(width=16, height=20, waypoints=((1, -100.0, -100.0),))
        for variant in ("ltrb", "wh"):  # every frame empty
            scenes.append(ScenarioConfig(width=200, height=200, frames=5, agents=(offscreen,), variant=variant))
        return scenes

    @pytest.mark.parametrize("noise", REFEREE_NOISE, ids=repr)
    def test_generated_and_plain_list_input(self, noise):
        empty_frames = 0
        for k, cfg in enumerate(self.scenes()):
            _, frames = generate(cfg)
            plain = as_lists(frames)
            empty_frames += sum(not dets for _, dets in plain)
            scalar = perturb_scalar(plain, noise, k, image_size=(cfg.width, cfg.height), variant=cfg.variant)
            for source in (frames, plain):
                got = perturb(source, noise, k, image_size=(cfg.width, cfg.height), variant=cfg.variant)
                assert repr(as_lists(got)) == repr(scalar), (k, cfg.variant)
                assert write_predictions(cfg.variant, got) == write_predictions_objects(cfg.variant, scalar)
        assert empty_frames >= 10

    def test_no_frames(self):
        assert perturb([], MODERATE_NOISE, 0, image_size=(10, 10), variant="wh") == []

    def test_frames_are_slices_of_one_table(self):
        cfg = random_scenario(4)
        _, frames = generate(cfg)
        out = perturb(frames, MODERATE_NOISE, 1, image_size=(cfg.width, cfg.height), variant=cfg.variant)
        assert all(isinstance(dets, DetectionFrame) for _, dets in frames + out)
        assert len({id(dets._table) for _, dets in frames}) == 1
        assert len({id(dets._table) for _, dets in out}) == 1

    def test_equal_frames_compare_equal(self):
        cfg = random_scenario(5)
        _, frames = generate(cfg)
        assert frames == as_lists(frames) and as_lists(frames) == frames
        assert perturb(frames, NoiseConfig(), 0) == frames
        assert perturb(frames, NoiseConfig(fn_rate=0.5), 0) != frames


def plain_det(variant, frame=1):
    ts = TrackedSizeWH(0.0, 0.0) if variant == "wh" else TrackedSizeLTRB(0.0, 0.0, 4.0, 4.0)
    return Detection(frame, Point2(2.0, 2.0), Size2(4.0, 4.0), 1.0, 1, Displacement(0.0, 0.0), ts, 0.5)


class TestPerturbVariants:
    def test_mixed_variants_rejected(self):
        within = [(1, [plain_det("wh"), plain_det("ltrb")])]
        across = [(1, [plain_det("wh")]), (2, [plain_det("ltrb", 2)])]
        for frames in (within, across):
            with pytest.raises(ValueError, match="mix"):
                perturb(frames, NoiseConfig(), 0)

    def test_variant_must_be_the_detections(self):
        frames = [(1, [plain_det("wh")])]
        with pytest.raises(ValueError, match="differs"):
            perturb(frames, NoiseConfig(), 0, variant="ltrb")
        with pytest.raises(ValueError, match="unknown variant"):
            perturb(frames, NoiseConfig(), 0, variant="xywh")
        assert perturb(frames, NoiseConfig(), 0, variant="wh") == frames


class TestPerturbRange:
    @pytest.mark.parametrize(
        "field", ["center_noise_sigma", "size_noise_sigma", "disp_noise_sigma", "ts_noise_sigma"]
    )
    @pytest.mark.parametrize("variant", ["ltrb", "wh"])
    def test_non_finite_jitter_raises_without_warnings(self, field, variant):
        _, frames = generate(crossing_scenario(variant=variant))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{field} = 1.7e\\+308"):
                perturb(frames, NoiseConfig(**{field: 1.7e308}), 0)

    def test_huge_finite_jitter_is_kept(self):
        _, frames = generate(crossing_scenario())
        out = perturb(frames, NoiseConfig(center_noise_sigma=1e300), 0)
        assert max(abs(d.center.x) for _, dets in out for d in dets) > 1e299


class TestOracleConsistency:
    def test_every_strategy_perfect_on_clean_scenes(self):
        checked = 0
        for seed in range(30):
            cfg = random_scenario(seed)
            gt, frames = generate(cfg)
            n_agents = len(cfg.agents)
            if any(len(dets) != n_agents for _, dets in frames):
                continue  # scene has occlusion or exit, covered elsewhere
            checked += 1
            for strategy in Strategy:
                tcfg = TrackerConfig(strategy=strategy, variant=cfg.variant)
                records = run_sequence(frames, tcfg)
                res = clear_mot(gt, records)
                assert res.ids == 0, (seed, strategy)
                assert res.mota == 1.0, (seed, strategy)
        assert checked >= 5


class TestScenarioTrackingBehavior:
    def test_occluded_crossing_dis_swaps_iou_resumes(self):
        cfg = occluded_crossing_scenario()
        gt, frames = generate(cfg)
        dis = run_sequence(frames, TrackerConfig(strategy=Strategy.DIS, variant=cfg.variant))
        iou_recs = run_sequence(frames, TrackerConfig(strategy=Strategy.IOU, variant=cfg.variant))
        res_dis = clear_mot(gt, dis)
        res_iou = clear_mot(gt, iou_recs)
        assert res_dis.ids == 2   # both identities trade places at reappearance
        assert res_iou.ids == 0   # overlap gate keeps them apart
        assert res_iou.mota >= res_dis.mota

    def test_exit_scenario_dis_reuses_id_iou_does_not(self):
        cfg = exit_scenario()
        gt, frames = generate(cfg)
        dis = run_sequence(frames, TrackerConfig(strategy=Strategy.DIS, variant=cfg.variant))
        iou_recs = run_sequence(frames, TrackerConfig(strategy=Strategy.IOU, variant=cfg.variant))
        # displacement hands the leaver's id to the newcomer
        assert {r.track_id for r in dis} == {1}
        # the overlap gate spawns a fresh identity instead
        assert {r.track_id for r in iou_recs} == {1, 2}

    def test_both_variants_behave_identically_on_exact_channels(self):
        for build in (crossing_scenario, occluded_crossing_scenario):
            recs = {}
            for variant in ("ltrb", "wh"):
                cfg = build(variant=variant)
                gt, frames = generate(cfg)
                recs[variant] = run_sequence(
                    frames, TrackerConfig(strategy=Strategy.IOU, variant=variant)
                )
            assert recs["ltrb"] == recs["wh"]
