"""Synthetic pedestrian scenes with exact prediction channels.

Agents move along piecewise-linear waypoint paths inside a fixed image. For
every visible agent-frame the generator emits a ground-truth row and an
oracle detection whose displacement, tracked-size, and adjacent-IOU channels
are computed from the true motion, so a tracker driven by unperturbed output
has zero-cost true pairs. A perturbation pass then adds the controllable
imperfections a real detector would have: channel noise, a biased IOU
prediction, random misses, and random false alarms. Both passes work on
detection columns: each frame is a slice of one table, as a parsed file's is.
``parse_scene`` reads a scene file into its scenario and noise configs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .formats import _INPUTS, VARIANT_LTRB, VARIANT_WH, Detection, DetectionFrame, GtEntry, ParseError
from .formats import _check_variant, _int_column, _MotTable
from .geometry import BoxLTRB, Point2, Size2, box_from_center_size, iou_array, x_overlap_pairs

OCCLUSION_IOU = 0.7

#: Most agent-frames a scene may hold: ``generate`` boxes every agent at every frame up front.
_MAX_AGENT_FRAMES = 2**22
#: Most same-frame pairs one occlusion block may bound: its candidate pairs and their IOUs are held at once.
_PAIR_BUDGET = 2**16

FrameDetections = list[tuple[int, Sequence[Detection]]]


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
        agent_frames = self.frames * max(1, len(self.agents))
        if agent_frames > _MAX_AGENT_FRAMES:
            raise ValueError(f"{agent_frames} agent-frames exceed the {_MAX_AGENT_FRAMES} a scene may hold")
        for name in ("width", "height"):
            # an image under a pixel shows no agent; one past the float limit compares with no edge
            if not 1 <= getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and >= 1, got {getattr(self, name)}")
        _check_finite(self, "occlusion_iou")
        _check_variant(self.variant)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def generate(cfg: ScenarioConfig) -> tuple[Sequence[GtEntry], FrameDetections]:
    """Ground truth and oracle detections for every frame of a scenario.

    An agent is visible when its box lies fully inside the image and no
    nearer agent overlaps it above the occlusion threshold; invisible frames
    emit neither ground truth nor a detection. Oracle channels use the true
    state one frame earlier (at the first frame, the current one), so
    displacements, tracked boxes, and adjacent IOUs are exact. Rows come in
    frame order, agents ascending within a frame. Deterministic for a fixed
    config.

    Works on arrays: every agent's path is boxed once, and the channels are
    computed as columns of the visible agent-frames only. They form one
    detection table, of which each frame is a :class:`DetectionFrame` slice,
    and the ground truth is a table of the same rows' columns, built as
    :class:`GtEntry` objects only when indexed.
    Each value takes the float operations of :meth:`AgentSpec.box` and the
    scalar box properties in the same order, so the rows equal an
    object-by-object build bit for bit.
    """
    boxes = _paths(cfg)
    fr, ag = _visibility(cfg, boxes)
    cur = boxes[ag, fr]
    prev = boxes[ag, np.maximum(fr - 1, 0)]
    l, t, r, b = cur.T
    pl, pt, pr, pb = prev.T
    center = np.column_stack(((l + r) / 2.0, (t + b) / 2.0))
    size = np.column_stack((r - l, b - t))
    disp = center - np.column_stack(((pl + pr) / 2.0, (pt + pb) / 2.0))
    ts = size - np.column_stack((pr - pl, pb - pt)) if cfg.variant == VARIANT_WH else prev
    classes, ious, ones = _int_column([a.class_id for a in cfg.agents])[ag], iou_array(prev, cur), np.ones(len(fr))
    # perturb reads the columns as arrays: no lists
    table = DetectionFrame(cfg.variant, fr + 1, classes, center, size, ones, disp, ts, ious, lists=())
    gt = _MotTable(fr + 1, ag + 1, cur, ones, classes, ones)
    bounds = np.searchsorted(fr, np.arange(cfg.frames + 1)).tolist()
    return gt, [(f + 1, table.take(slice(a, b))) for f, (a, b) in enumerate(zip(bounds, bounds[1:]))]


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


def _visibility(cfg: ScenarioConfig, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame-major (frame, agent) indices of the agent-frames inside the image and not hidden by a nearer agent there.

    The on-screen rows are the broad phase :func:`~motkit.geometry.x_overlap_pairs` keyed on the frame; its pairs with
    a nearer agent take the kernel. A pair it leaves out scores 0, so under a negative threshold every same-frame pair
    is a candidate. Each block of rows, swept against its frames' rows, bounds at most ``_PAIR_BUDGET`` pairs: the sum
    of its rows' frame sizes.
    """
    l, t, r, b = np.moveaxis(boxes, -1, 0)
    # np.nonzero walks row-major, so the transpose gives frame-major, agent-ascending rows.
    fr, ag = np.nonzero(((l >= 0) & (t >= 0) & (r <= cfg.width) & (b <= cfg.height)).T)
    box, depth, visible = boxes[ag, fr], np.array([a.depth for a in cfg.agents])[ag], np.ones(len(fr), dtype=bool)
    lo, hi = (box[:, 0], box[:, 2]) if cfg.occlusion_iou >= 0 else (np.zeros(len(fr)),) * 2
    starts = np.searchsorted(fr, np.arange(cfg.frames + 1))  # each frame's first row, then the row count
    bound = np.concatenate(([0], np.cumsum(np.diff(starts)[fr])))  # running sum of the rows' frame sizes
    a = 0
    while a < len(fr):
        z = max(a + 1, np.searchsorted(bound, bound[a] + _PAIR_BUDGET, side="right") - 1)
        o, p = starts[fr[a]], starts[fr[z - 1] + 1]
        rows, cols = x_overlap_pairs(lo[a:z], hi[a:z], lo[o:p], hi[o:p], fr[a:z], fr[o:p])
        nearer = depth[o + cols] < depth[a + rows]
        rows, cols = rows[nearer] + a, cols[nearer] + o
        visible[rows[iou_array(box.take(rows, axis=0), box.take(cols, axis=0)) > cfg.occlusion_iou]] = False
        a = z
    return fr[visible], ag[visible]


#: The jittered columns in the order their noise is drawn; each one's sigma is ``<name>_noise_sigma``.
_JITTERED = ("center", "size", "disp", "ts")


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
    ``variant`` for their tracked-size channel. The detections must share one
    variant, and ``variant``, if given, must be it. With an all-zero config
    the output equals the input bit for bit. Deterministic per seed.

    Works on the detection columns; a plain list is framed once. The random
    stream is that of a detection-by-detection pass: per detection the miss
    draw, then one standard normal per jittered channel, scaled as
    ``Generator.normal`` scales it; per frame the false-alarm draw, then its
    six uniforms. The output is one table, and each frame is a slice of it.
    Raises ``ValueError`` if a jittered value is not finite.
    """
    if noise.fp_rate > 0 and (image_size is None or variant is None):
        raise ValueError("image_size and variant are required when fp_rate > 0")
    if variant is not None:
        _check_variant(variant)
    framed = [(frame_no, DetectionFrame.of(dets) if len(dets) else ()) for frame_no, dets in frames]
    full = [frame for _, frame in framed if len(frame)]
    found = {frame.variant for frame in full}
    if None in found or len(found) > 1:
        raise ValueError("detections mix tracked-size variants")
    if found and variant not in (None, *found):
        raise ValueError(f"variant {variant!r} differs from the detections' variant {found.pop()!r}")
    variant = found.pop() if found else variant
    n_ts = 2 if variant == VARIANT_WH else 4
    names = [f"{name}_noise_sigma" for name, width in zip(_JITTERED, (2, 2, 2, n_ts)) for _ in range(width)]
    sigmas = np.array([getattr(noise, name) for name in names])
    jittered = np.flatnonzero(sigmas > 0)
    if noise.fp_rate > 0:
        low, high = np.array([0.0, 0.0, 8, 8, 0.5, 0.0]), np.array([*image_size, 48, 48, 1.0, 1.0], dtype=float)

    rng = np.random.default_rng(seed)
    n = sum(map(len, full))
    # order: the output rows, as source rows (below n) and false alarms (n and up)
    order, draws, alarms, alarm_frames, bounds = [], [], [], [], [0]
    start = 0
    for frame_no, frame in framed:
        for row in range(start, start + len(frame)):
            if noise.fn_rate > 0 and rng.random() < noise.fn_rate:
                continue
            order.append(row)
            if len(jittered):
                draws.append(rng.standard_normal(len(jittered)))
        start += len(frame)
        if noise.fp_rate > 0 and rng.random() < noise.fp_rate:
            order.append(n + len(alarms))
            alarms.append(rng.uniform(low, high))
            alarm_frames.append(frame_no)
        bounds.append(len(order))

    fp = np.array(alarms).reshape(-1, 6)  # center, size, confidence, iou_pred
    half, zeros = fp[:, 2:4] / 2.0, np.zeros((len(fp), 2))
    alarm = dict(
        frame=_int_column(alarm_frames), cls=np.ones(len(fp), dtype=np.int64), center=fp[:, :2], size=fp[:, 2:4],
        conf=fp[:, 4], disp=zeros, iou_pred=fp[:, 5],
        ts=zeros if variant == VARIANT_WH else np.concatenate((fp[:, :2] - half, fp[:, :2] + half), axis=1),
    )
    col = {name: np.concatenate([frame.column(name) for frame in full] + [alarm[name]]) for name in _INPUTS}
    channels = np.concatenate([col[name] for name in _JITTERED], axis=1)
    take = np.array(order, dtype=np.intp)
    if draws:
        block = np.ix_(take[take < n], jittered)
        with np.errstate(over="ignore", invalid="ignore"):
            channels[block] = channels[block] + (0.0 + sigmas[jittered] * np.array(draws))
        if noise.size_noise_sigma > 0:  # max(0.0, w); false alarms are 8 px or more
            channels[:, 2:4] = np.where(channels[:, 2:4] > 0.0, channels[:, 2:4], 0.0)
        bad = ~np.isfinite(channels[block]).all(axis=0)
        if bad.any():
            name = names[jittered[bad.argmax()]]
            raise ValueError(f"{name} = {getattr(noise, name)} jitters a detection value past the float range")
    col.update(zip(_JITTERED, np.split(channels, [2, 4, 6], axis=1)))
    if noise.iou_pred_bias != 0:  # min(max(o + bias, 0.0), 1.0) on the source rows
        shifted = col["iou_pred"][:n] + noise.iou_pred_bias
        floored = np.where(0.0 > shifted, 0.0, shifted)
        col["iou_pred"][:n] = np.where(1.0 < floored, 1.0, floored)
    table = DetectionFrame(variant, *(col[name][take] for name in _INPUTS), lists=())
    return [(f, table.take(slice(a, b))) for (f, _), a, b in zip(framed, bounds, bounds[1:])]


def crossing_scenario(
    frames: int = 60,
    width: int = 200,
    height: int = 200,
    variant: str = VARIANT_LTRB,
    seed: int = 0,
) -> ScenarioConfig:
    """Two pedestrians of different sizes crossing paths mid-image.

    The near agent walks right-to-left, the far one left-to-right, 1.6 px a
    frame in lanes 4 px apart, meeting at the image center. Their size
    difference keeps the crossing unoccluded while making the tracked-box
    overlap between the wrong pairs low; pure back-projection has no such
    margin where the paths meet.
    """
    lane_gap, speed = 4.0, 1.6
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


def _custom_scenario(*agents: tuple[int, str], **scene) -> ScenarioConfig:
    """A scene of the agents of ``agent = depth width height frame:x:y ...`` lines, given as (line, value)."""
    if not agents:
        raise ValueError("scenario 'custom' needs at least one 'agent =' line")
    specs = []
    for line_no, value in agents:
        parts = value.split()
        try:
            if len(parts) < 4 or any(wp.count(":") != 2 for wp in parts[3:]):
                raise ValueError(f"agent needs 'depth width height frame:x:y ...', got {value!r}")
            path = tuple((int(f), float(x), float(y)) for f, x, y in (wp.split(":") for wp in parts[3:]))
            specs.append(AgentSpec(width=float(parts[1]), height=float(parts[2]), waypoints=path, depth=int(parts[0])))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return ScenarioConfig(agents=tuple(specs), **scene)


#: Scene-file scenario names and their builders; only ``custom`` takes agent lines.
_SCENARIOS = {"crossing": crossing_scenario, "occluded-crossing": occluded_crossing_scenario, "exit": exit_scenario,
              "custom": _custom_scenario}


def _scenario(name: str):
    """The builder of a scene-file scenario name."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown name {name!r}")
    return _SCENARIOS[name]


#: Scene-file noise keys and the :class:`NoiseConfig` fields they set.
_NOISE_KEYS = {f"{name}_noise": f"{name}_noise_sigma" for name in _JITTERED}
_NOISE_KEYS.update(iou_bias="iou_pred_bias", fp_rate="fp_rate", fn_rate="fn_rate")
#: Scene-file settings and the converter of each one's value.
_SETTINGS = {"scenario": _scenario, "frames": int, "width": int, "height": int, "variant": str, "seed": int}
_SETTINGS.update(dict.fromkeys(_NOISE_KEYS, float))
#: The size of a scene whose file leaves it out, and the size each setting is checked with alone.
_SIZE = {"frames": 60, "width": 200, "height": 200}


def parse_scene(text: str) -> tuple[ScenarioConfig, NoiseConfig]:
    """The scenario and noise of a scene file: ``key = value`` lines, ``#`` comments, blank lines.

    A file without ``scenario``, ``frames``, ``width`` or ``height`` gets a
    custom 60-frame scene of 200 x 200; any other setting it leaves out keeps
    its dataclass field's default. ``seed`` applies to every scenario, and a
    repeated setting takes its last value. A line that is not ``key = value``,
    names an unknown key, holds a value that its converter or its dataclass
    (checked with this setting alone) or :class:`AgentSpec` refuses, or gives
    an agent to a built-in scenario raises :class:`ParseError`; a scene the
    dataclasses refuse only as a whole, ``ValueError``.
    """
    last: dict[str, tuple[int, str]] = {}
    agents: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        key, eq, value = (part.strip() for part in raw.split("#", 1)[0].partition("="))
        if key == "agent" and eq:
            agents.append((line_no, value))
        elif key in _SETTINGS and eq:
            last[key] = (line_no, value)
        elif key or eq:
            raise ParseError(line_no, f"unknown key {key!r}" if eq else "expected 'key = value'")
    settings = {"scenario": _custom_scenario, **_SIZE}
    for key, (line_no, value) in last.items():
        try:
            settings[key] = got = _SETTINGS[key](value)
            if key in _NOISE_KEYS:  # the setting alone against its dataclass, while its line is known
                NoiseConfig(**{_NOISE_KEYS[key]: got})
            elif key != "scenario":
                ScenarioConfig(agents=(), **{**_SIZE, key: got})
        except ValueError as exc:
            raise ParseError(line_no, f"{key}: {exc}") from None
    if agents and settings["scenario"] is not _custom_scenario:
        raise ParseError(agents[0][0], f"agent lines need scenario 'custom', not {last['scenario'][1]!r}")
    noise = NoiseConfig(**{field: settings.pop(key) for key, field in _NOISE_KEYS.items() if key in settings})
    build, seed = settings.pop("scenario"), settings.pop("seed", None)
    cfg = build(*agents, **settings)
    return (cfg if seed is None else replace(cfg, seed=seed)), noise
