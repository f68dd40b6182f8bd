"""Synthetic pedestrian scenes with exact prediction channels.

Agents move along piecewise-linear waypoint paths inside a fixed image. For
every visible agent-frame the generator emits a ground-truth row and an
oracle detection whose displacement, tracked-size, and adjacent-IOU channels
are computed from the true motion, so a tracker driven by unperturbed output
has zero-cost true pairs. A perturbation pass then adds the controllable
imperfections a real detector would have: channel noise, a biased IOU
prediction, random misses, and random false alarms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .formats import Detection, GtEntry, VARIANT_LTRB, VARIANT_WH, VARIANTS
from .geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    box_from_center_size,
    iou_array,
)

OCCLUSION_IOU = 0.7

FrameDetections = list[tuple[int, list[Detection]]]


def _check_finite(config: object, *names: str) -> None:
    """Raise ``ValueError`` naming the first of the fields that is NaN or infinite."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class AgentSpec:
    """One simulated pedestrian.

    ``waypoints`` are (frame, x, y) keyframes in ascending frame order;
    positions interpolate linearly between them and extrapolate along the
    last segment, which is how an agent walks out of the image. ``depth``
    orders agents front to back: smaller is nearer the camera.
    """

    width: float
    height: float
    waypoints: tuple[tuple[int, float, float], ...]
    depth: int = 0
    class_id: int = 1

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("agent needs at least one waypoint")
        _check_finite(self, "width", "height")
        if self.width < 0 or self.height < 0:
            raise ValueError(f"negative agent size: ({self.width}, {self.height})")
        for _, x, y in self.waypoints:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite waypoint position: ({x}, {y})")
        frames = [w[0] for w in self.waypoints]
        if frames != sorted(frames) or len(set(frames)) != len(frames):
            raise ValueError("waypoint frames must be strictly ascending")

    def position(self, frame: int) -> Point2:
        wps = self.waypoints
        if len(wps) == 1 or frame <= wps[0][0]:
            return Point2(wps[0][1], wps[0][2])
        for (f0, x0, y0), (f1, x1, y1) in zip(wps, wps[1:]):
            if frame <= f1:
                t = (frame - f0) / (f1 - f0)
                return Point2(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
        f0, x0, y0 = wps[-2]
        f1, x1, y1 = wps[-1]
        t = (frame - f0) / (f1 - f0)
        return Point2(x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    def box(self, frame: int) -> BoxLTRB:
        return box_from_center_size(self.position(frame), Size2(self.width, self.height))


@dataclass(frozen=True)
class ScenarioConfig:
    width: int
    height: int
    frames: int
    agents: tuple[AgentSpec, ...]
    variant: str = VARIANT_LTRB
    occlusion_iou: float = OCCLUSION_IOU
    seed: int = 0

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        for name in ("width", "height"):
            # an image under a pixel shows no agent; one past the float limit compares with no edge
            if not 1 <= getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and >= 1, got {getattr(self, name)}")
        _check_finite(self, "occlusion_iou")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")


@dataclass(frozen=True)
class NoiseConfig:
    center_noise_sigma: float = 0.0
    size_noise_sigma: float = 0.0
    disp_noise_sigma: float = 0.0
    ts_noise_sigma: float = 0.0
    iou_pred_bias: float = 0.0
    fp_rate: float = 0.0
    fn_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self, *(f.name for f in fields(self)))
        for name in ("center_noise_sigma", "size_noise_sigma", "disp_noise_sigma", "ts_noise_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("fp_rate", "fn_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


#: Noise level used by the standard crossing benchmark: enough channel noise
#: to make pure back-projection ambiguous where paths meet, with occasional
#: misses and false alarms, while the IOU prediction stays usable.
MODERATE_NOISE = NoiseConfig(
    center_noise_sigma=0.8,
    size_noise_sigma=0.4,
    disp_noise_sigma=2.2,
    ts_noise_sigma=0.7,
    iou_pred_bias=-0.3,
    fp_rate=0.02,
    fn_rate=0.04,
)


def generate(cfg: ScenarioConfig) -> tuple[list[GtEntry], FrameDetections]:
    """Ground truth and oracle detections for every frame of a scenario.

    An agent is visible when its box lies fully inside the image and no
    nearer agent overlaps it above the occlusion threshold; invisible frames
    emit neither ground truth nor a detection. Oracle channels use the true
    state one frame earlier (at the first frame, the current one), so
    displacements, tracked boxes, and adjacent IOUs are exact. Rows come in
    frame order, agents ascending within a frame. Deterministic for a fixed
    config.

    Works on arrays: every agent's path is boxed once, and the channels are
    computed as columns of the visible agent-frames only. Each value takes
    the float operations of :meth:`AgentSpec.box` and the scalar box
    properties in the same order, so the rows equal an object-by-object
    build bit for bit.
    """
    boxes = _paths(cfg)
    visible = _visibility(cfg, boxes)
    # np.nonzero walks row-major, so the transpose gives frame-major, agent-ascending rows.
    fr, ag = np.nonzero(visible.T)
    cur = boxes[ag, fr]
    prev = boxes[ag, np.maximum(fr - 1, 0)]
    l, t, r, b = cur.T
    pl, pt, pr, pb = prev.T
    cx, cy = (l + r) / 2.0, (t + b) / 2.0
    w, h = r - l, b - t
    dx, dy = cx - (pl + pr) / 2.0, cy - (pt + pb) / 2.0
    tracked_sizes: list[TrackedSizeWH] | list[TrackedSizeLTRB]
    if cfg.variant == VARIANT_WH:
        dw, dh = w - (pr - pl), h - (pb - pt)
        tracked_sizes = [TrackedSizeWH(*d) for d in zip(dw.tolist(), dh.tolist())]
    else:
        tracked_sizes = [TrackedSizeLTRB(*edges) for edges in prev.tolist()]
    ious = iou_array(prev, cur)

    classes = [a.class_id for a in cfg.agents]
    gt: list[GtEntry] = []
    per_frame: list[list[Detection]] = [[] for _ in range(cfg.frames)]
    for f, k, edges, x, y, bw, bh, ddx, ddy, ts, o in zip(
        fr.tolist(), ag.tolist(), cur.tolist(), cx.tolist(), cy.tolist(), w.tolist(), h.tolist(),
        dx.tolist(), dy.tolist(), tracked_sizes, ious.tolist(),
    ):
        gt.append(
            GtEntry(frame=f + 1, track_id=k + 1, box=BoxLTRB(*edges), class_id=classes[k], visibility=1.0)
        )
        per_frame[f].append(
            Detection(
                frame=f + 1,
                center=Point2(x, y),
                size=Size2(bw, bh),
                confidence=1.0,
                class_id=classes[k],
                disp=Displacement(ddx, ddy),
                tracked_size=ts,
                iou_pred=o,
            )
        )
    return gt, [(f + 1, dets) for f, dets in enumerate(per_frame)]


def _paths(cfg: ScenarioConfig) -> np.ndarray:
    """``(agents, frames, 4)`` ltrb boxes: :meth:`AgentSpec.box` at every frame, vectorized.

    Each agent-frame takes the scalar path's segment, and its position the
    same float operations: frames at or before the first waypoint keep it,
    frames past the last one extrapolate the last segment.
    """
    frames = np.arange(1, cfg.frames + 1)
    boxes = np.empty((len(cfg.agents), cfg.frames, 4))
    for k, agent in enumerate(cfg.agents):
        wps = agent.waypoints
        cx = np.full(cfg.frames, float(wps[0][1]))
        cy = np.full(cfg.frames, float(wps[0][2]))
        if len(wps) > 1:
            starts, ends = wps[:-1], wps[1:]
            # Frame differences of 2**53 or more are inexact as floats; Python ints divide exactly.
            exact = max(abs(wps[0][0]), abs(wps[-1][0]), cfg.frames) < 2**52
            dtype = None if exact else object
            # The segment of each frame: the first ending at or after it, else the last.
            seg = np.minimum(np.searchsorted([e[0] for e in ends], frames), len(ends) - 1)
            f0 = np.array([s[0] for s in starts], dtype=dtype)[seg]
            span = np.array([e[0] - s[0] for s, e in zip(starts, ends)], dtype=dtype)[seg]
            tau = ((frames - f0) / span).astype(float)
            moving = frames > wps[0][0]
            for axis, pos in ((1, cx), (2, cy)):
                origin = np.array([float(s[axis]) for s in starts])[seg]
                delta = np.array([float(e[axis] - s[axis]) for s, e in zip(starts, ends)])[seg]
                pos[moving] = (origin + tau * delta)[moving]
        half_w, half_h = agent.width / 2.0, agent.height / 2.0
        boxes[k, :, 0] = cx - half_w
        boxes[k, :, 1] = cy - half_h
        boxes[k, :, 2] = cx + half_w
        boxes[k, :, 3] = cy + half_h
    return boxes


def _visibility(cfg: ScenarioConfig, boxes: np.ndarray) -> np.ndarray:
    """``(agents, frames)``: inside the image and not occluded by a nearer on-screen agent.

    Each agent takes one kernel call against every nearer agent, over the
    frames where it is itself on screen.
    """
    l, t, r, b = np.moveaxis(boxes, -1, 0)
    inside = (l >= 0) & (t >= 0) & (r <= cfg.width) & (b <= cfg.height)
    visible = inside.copy()
    depths = np.array([a.depth for a in cfg.agents])
    for k in range(len(cfg.agents)):
        on = np.flatnonzero(inside[k])
        nearer = np.flatnonzero(depths < depths[k])
        if on.size and nearer.size:
            grid = np.ix_(nearer, on)
            overlap = iou_array(boxes[k, on], boxes[grid])
            visible[k, on] = ~((overlap > cfg.occlusion_iou) & inside[grid]).any(axis=0)
    return visible


def _jitter(det: Detection, noise: NoiseConfig, rng: np.random.Generator) -> Detection:
    cx, cy = det.center.x, det.center.y
    if noise.center_noise_sigma > 0:
        cx += rng.normal(0, noise.center_noise_sigma)
        cy += rng.normal(0, noise.center_noise_sigma)
    w, h = det.size.w, det.size.h
    if noise.size_noise_sigma > 0:
        w = max(0.0, w + rng.normal(0, noise.size_noise_sigma))
        h = max(0.0, h + rng.normal(0, noise.size_noise_sigma))
    dx, dy = det.disp.dx, det.disp.dy
    if noise.disp_noise_sigma > 0:
        dx += rng.normal(0, noise.disp_noise_sigma)
        dy += rng.normal(0, noise.disp_noise_sigma)
    ts = det.tracked_size
    if noise.ts_noise_sigma > 0:
        if isinstance(ts, TrackedSizeWH):
            ts = TrackedSizeWH(
                ts.dw + rng.normal(0, noise.ts_noise_sigma),
                ts.dh + rng.normal(0, noise.ts_noise_sigma),
            )
        else:
            ts = TrackedSizeLTRB(
                ts.left + rng.normal(0, noise.ts_noise_sigma),
                ts.top + rng.normal(0, noise.ts_noise_sigma),
                ts.right + rng.normal(0, noise.ts_noise_sigma),
                ts.bottom + rng.normal(0, noise.ts_noise_sigma),
            )
    o = det.iou_pred
    if noise.iou_pred_bias != 0:
        o = min(max(o + noise.iou_pred_bias, 0.0), 1.0)
    return Detection(
        frame=det.frame,
        center=Point2(cx, cy),
        size=Size2(w, h),
        confidence=det.confidence,
        class_id=det.class_id,
        disp=Displacement(dx, dy),
        tracked_size=ts,
        iou_pred=o,
    )


def _false_positive(
    frame: int, variant: str, image_size: tuple[float, float], rng: np.random.Generator
) -> Detection:
    width, height = image_size
    cx = float(rng.uniform(0, width))
    cy = float(rng.uniform(0, height))
    w = float(rng.uniform(8, 48))
    h = float(rng.uniform(8, 48))
    box = box_from_center_size(Point2(cx, cy), Size2(w, h))
    ts: TrackedSizeWH | TrackedSizeLTRB
    if variant == VARIANT_WH:
        ts = TrackedSizeWH(0.0, 0.0)
    else:
        ts = TrackedSizeLTRB(box.left, box.top, box.right, box.bottom)
    return Detection(
        frame=frame,
        center=Point2(cx, cy),
        size=Size2(w, h),
        confidence=float(rng.uniform(0.5, 1.0)),
        class_id=1,
        disp=Displacement(0.0, 0.0),
        tracked_size=ts,
        iou_pred=float(rng.uniform(0.0, 1.0)),
    )


def perturb(
    frames: FrameDetections,
    noise: NoiseConfig,
    seed: int,
    image_size: tuple[float, float] | None = None,
    variant: str | None = None,
) -> FrameDetections:
    """Degrade oracle detections: jitter channels, drop misses, inject false alarms.

    Each detection is dropped with probability ``fn_rate``; each frame gains
    one uniform-random false detection with probability ``fp_rate`` (so the
    injected count over N frames is Binomial(N, fp_rate)). False alarms are
    of class 1; they need ``image_size`` for placement and the scene's
    ``variant`` for their tracked-size channel. With an all-zero config the input is
    returned bit-identically. Deterministic per seed.
    """
    if noise.fp_rate > 0 and (image_size is None or variant is None):
        raise ValueError("image_size and variant are required when fp_rate > 0")
    rng = np.random.default_rng(seed)
    out: FrameDetections = []
    for frame_no, dets in frames:
        kept: list[Detection] = []
        for d in dets:
            if noise.fn_rate > 0 and rng.random() < noise.fn_rate:
                continue
            kept.append(_jitter(d, noise, rng))
        if noise.fp_rate > 0 and rng.random() < noise.fp_rate:
            kept.append(_false_positive(frame_no, variant, image_size, rng))
        out.append((frame_no, kept))
    return out


def crossing_scenario(
    frames: int = 60,
    width: int = 200,
    height: int = 200,
    variant: str = VARIANT_LTRB,
    lane_gap: float = 4.0,
    speed: float = 1.6,
    seed: int = 0,
) -> ScenarioConfig:
    """Two pedestrians of different sizes crossing paths mid-image.

    The near agent walks right-to-left, the far one left-to-right, in lanes
    ``lane_gap`` pixels apart, meeting at the image center. Their size
    difference keeps the crossing unoccluded while making the tracked-box
    overlap between the wrong pairs low; pure back-projection has no such
    margin where the paths meet.
    """
    mid_y = height / 2.0
    span = speed * (frames - 1)
    x0 = (width - span) / 2.0
    a = AgentSpec(
        width=32,
        height=44,
        waypoints=((1, x0, mid_y - lane_gap / 2), (frames, x0 + span, mid_y - lane_gap / 2)),
        depth=1,
    )
    b = AgentSpec(
        width=24,
        height=30,
        waypoints=((1, width - x0, mid_y + lane_gap / 2), (frames, width - x0 - span, mid_y + lane_gap / 2)),
        depth=0,
    )
    return ScenarioConfig(width=width, height=height, frames=frames, agents=(a, b), variant=variant, seed=seed)


def occluded_crossing_scenario(
    frames: int = 61,
    width: int = 200,
    height: int = 200,
    variant: str = VARIANT_LTRB,
) -> ScenarioConfig:
    """Crossing with similar-size agents so the far one is briefly occluded.

    Sized so the far agent disappears for exactly one frame at the meeting
    point. On the unperturbed output, back-projection distance prefers the
    wrong tracklet at reappearance while the tracked-box overlap gate keeps
    the right one, which is the qualitative failure split this scene exists
    to reproduce.
    """
    mid_y = height / 2.0
    a = AgentSpec(
        width=26,
        height=36,
        waypoints=((1, 40.0, mid_y - 0.5), (frames, 40.0 + 2.0 * (frames - 1), mid_y - 0.5)),
        depth=1,
    )
    b = AgentSpec(
        width=24,
        height=30,
        waypoints=((1, 160.0, mid_y + 0.5), (frames, 160.0 - 2.0 * (frames - 1), mid_y + 0.5)),
        depth=0,
    )
    return ScenarioConfig(width=width, height=height, frames=frames, agents=(a, b), variant=variant)


def exit_scenario(
    frames: int = 50,
    width: int = 200,
    height: int = 200,
    variant: str = VARIANT_LTRB,
) -> ScenarioConfig:
    """One pedestrian leaves through the right edge; a new one enters near it.

    The newcomer appears close to where the first agent's identity was
    frozen, within back-projection range but with a clearly different box, so
    displacement-only matching hands the old id to the new person and
    overlap-gated matching does not.
    """
    mid_y = height / 2.0
    leaver = AgentSpec(
        width=28,
        height=40,
        waypoints=((1, width - 60.0, mid_y), (21, width + 40.0, mid_y)),
        depth=0,
    )
    newcomer = AgentSpec(
        width=18,
        height=26,
        # stays outside until frame 30, then walks in through the same edge region
        waypoints=((29, width + 12.0, mid_y + 4.0), (frames, width - 80.0, mid_y + 4.0)),
        depth=1,
    )
    return ScenarioConfig(width=width, height=height, frames=frames, agents=(leaver, newcomer), variant=variant)


def random_scenario(seed: int, variant: str | None = None) -> ScenarioConfig:
    """A small random scene: 2-4 agents on straight paths with varied sizes."""
    rng = np.random.default_rng(seed)
    width = height = 240
    frames = int(rng.integers(15, 26))
    n_agents = int(rng.integers(2, 5))
    agents = []
    for k in range(n_agents):
        w = float(rng.uniform(16, 36))
        h = float(rng.uniform(22, 48))
        margin_x = w / 2 + 2
        margin_y = h / 2 + 2
        x0 = float(rng.uniform(margin_x, width - margin_x))
        y0 = float(rng.uniform(margin_y, height - margin_y))
        x1 = float(rng.uniform(margin_x, width - margin_x))
        y1 = float(rng.uniform(margin_y, height - margin_y))
        agents.append(
            AgentSpec(width=w, height=h, waypoints=((1, x0, y0), (frames, x1, y1)), depth=k)
        )
    if variant is None:
        variant = VARIANT_WH if seed % 2 else VARIANT_LTRB
    return ScenarioConfig(
        width=width, height=height, frames=frames, agents=tuple(agents), variant=variant, seed=seed
    )
