"""Independent oracle implementations the real code is checked against.

Everything here is deliberately brute force. The metric and matching
oracles share no code with the package: IOU by pixel counting, greedy
matching as an explicit trace, and the identity-assignment score by full
enumeration. CLEAR's enumeration ``clear_outcomes`` follows every way of
breaking a frame's tied matchings, since which tied pair the solver takes can
change the later counts. ``iou_ltrb_minmax`` is the scalar IOU of two edge rows
written with ``min`` and ``max``, which ``geometry.iou_ltrb``'s comparisons
must equal bit for bit. The scene generator's referee builds the package's own row
types one object at a time from its scalar API (``AgentSpec.box``,
``geometry.iou``), the form the vectorized ``generate`` must equal. The cost
matrix referees likewise read ``Detection`` objects one at a time through
``association.tracked_box``, ``geometry.iou`` and ``geometry.size_gate``,
the form the column-reading ``iou_cost`` and ``displacement_cost`` must equal.
The file referees parse one row at a time with ``formats._int`` and
``formats._float``, checking each row's fields in order: the column parsers
must give the same entries, or the same first ``ParseError``. The
simulator's noise referee ``perturb_scalar`` jitters one ``Detection`` at a
time with a scalar ``Generator.normal`` draw per channel, the form the
column-wise ``perturb`` must equal by ``repr``; ``write_predictions_objects``
formats one ``Detection`` attribute at a time, the bytes the column writer
``write_predictions`` must equal. ``write_gt_rows`` and ``write_mot_rows`` (with
``mot_line``) are the row writers ``formats.write_gt`` and ``write_mot`` were,
one ``_fmt`` call per value: the column writers must equal their bytes.
``parse_scenario_config`` is the hand-written scene-file reader that
``simulator.parse_scene`` replaced: wherever it accepts a file, the table-driven reader must return equal
configs, and wherever it refuses one, refuse it too. The scorers'
referees ``clear_mot_objects`` and ``idf1_objects`` (with ``_by_frame`` and
``_id_overlap_counts``) group ``GtEntry`` and ``TrackRecord`` objects per
frame in dicts and score pairs with the scalar ``geometry.iou``: the column-reading ``metrics.clear_mot``
and ``metrics.idf1`` must equal them by ``repr``. The tracker's referee
``step_objects`` advances one frame as the tracker did before it kept its
state as columns: a new ``Tracklet`` and ``TrackRecord`` (with its
``BoxLTRB`` and ``Point2``) for every matched or spawned detection and a new
``Tracklet`` for every aged one. Folded over a stream, it gives the states
and records that the columnar ``tracker.step`` and ``run_sequence`` must
equal by ``repr``. The loss referees
(``l1_size_loss_loop`` and the four after it) are the five loops the
objectives had before one channel table drove them, without the removed
``sign`` flag of the ``wh`` loss: each reads an object's center cell and adds
up its own L1 terms, the values the table-driven losses must equal.
``window_max3_shifts`` is the 3x3 window maximum as eight shifted
``np.maximum`` calls, which ``heatmap._window_max3`` must equal cell for cell.
``random_scenario`` is no referee but a scene builder the tests share: a
small seeded scene of 2-4 agents on straight paths.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import defaultdict
from typing import Iterable, Iterator, Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from motkit.association import FILTER_RATIONALE, INADMISSIBLE, associate, tracked_box
from motkit.formats import (
    VARIANT_LTRB,
    VARIANT_WH,
    VARIANTS,
    Detection,
    DetectionFrame,
    GtEntry,
    ParseError,
    TrackRecord,
    _float,
    _fmt,
    _int,
    _lines,
    _ts_fields,
)
from motkit.geometry import (
    KERNEL_MIN_CELLS,
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    box_from_center_size,
    iou,
    iou_array,
    ltrb,
    size_gate,
    tracked_box_ltrb,
    tracked_box_wh,
)
from motkit.metrics import _BIG_COST, DEFAULT_IOU_THRESHOLD, ClearResult, IdResult, check_iou_threshold
from motkit.simulator import (
    AgentSpec,
    NoiseConfig,
    ScenarioConfig,
    crossing_scenario,
    exit_scenario,
    occluded_crossing_scenario,
)
from motkit.tracker import Tracklet, TrackerConfig, TrackerState


def raster_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> tuple[int, int, float]:
    """Intersection/union of integer boxes by rasterizing unit pixels.

    A pixel (i, j) is covered by (l, t, r, bo) iff l <= i < r and t <= j < bo.
    Returns (intersection, union, iou).
    """
    lo_x = min(a[0], b[0])
    lo_y = min(a[1], b[1])
    hi_x = max(a[2], b[2])
    hi_y = max(a[3], b[3])
    w = max(hi_x - lo_x, 1)
    h = max(hi_y - lo_y, 1)
    ga = np.zeros((h, w), dtype=bool)
    gb = np.zeros((h, w), dtype=bool)
    ga[a[1] - lo_y : a[3] - lo_y, a[0] - lo_x : a[2] - lo_x] = True
    gb[b[1] - lo_y : b[3] - lo_y, b[0] - lo_x : b[2] - lo_x] = True
    inter = int((ga & gb).sum())
    union = int((ga | gb).sum())
    return inter, union, (inter / union if union else 0.0)


def greedy_trace(cost: np.ndarray, det_order: list[int]) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Explicit trace of confidence-ordered greedy matching.

    Walks detections in the given order; each takes the free tracklet with
    the smallest finite cost, lowest index on ties. Returns (matches,
    unmatched detections ascending, unmatched tracklets ascending).
    """
    n_det, n_trk = cost.shape
    free = set(range(n_trk))
    matches = []
    unmatched_d = []
    for i in det_order:
        candidates = [(cost[i, j], j) for j in sorted(free) if math.isfinite(cost[i, j])]
        if not candidates:
            unmatched_d.append(i)
            continue
        best_cost = min(c for c, _ in candidates)
        best_j = min(j for c, j in candidates if c == best_cost)
        free.discard(best_j)
        matches.append((i, best_j))
    return matches, sorted(unmatched_d), sorted(free)


def iou_ltrb_minmax(a, b) -> float:
    """``geometry.iou_ltrb`` as it was written with ``min``/``max`` calls on indexed rows."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _box_iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    ua = (a[2] - a[0]) * (a[3] - a[1])
    ub = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (ua + ub - inter) if (ua + ub - inter) > 0 else 0.0


def clear_enumerate(
    gt_rows: list[tuple[int, int, tuple[float, float, float, float]]],
    hyp_rows: list[tuple[int, int, tuple[float, float, float, float]]],
    iou_thresh: float = 0.5,
) -> tuple[int, int, int]:
    """CLEAR (fp, fn, ids) with each frame's new pairs found by enumeration.

    Rows are (frame, track_id, (left, top, right, bottom)). Last frame's
    pairs are kept while their IOU stays at or above the threshold. The other
    boxes are paired by the matching with the most pairs at or above the
    threshold and, among those, the least total 1 - IOU, chosen from every
    injective matching; of tied matchings, the first enumerated. A switch is a
    pair whose hypothesis id differs from the last one its ground-truth id matched.
    """
    return next(clear_outcomes(gt_rows, hyp_rows, iou_thresh))


def clear_outcomes(
    gt_rows: list[tuple[int, int, tuple[float, float, float, float]]],
    hyp_rows: list[tuple[int, int, tuple[float, float, float, float]]],
    iou_thresh: float = 0.5,
) -> Iterator[tuple[int, int, int]]:
    """The CLEAR (fp, fn, ids) of :func:`clear_enumerate` under every way of breaking its frames' ties.

    A frame's matchings tie when they pair as many boxes and their totals of
    1 - IOU differ by at most 1e-9 (the rounding of a sum depends on its order).
    Every tied matching is followed on to the later frames, the least total of
    each frame first, so the first outcome is :func:`clear_enumerate`'s.
    """
    gt_by_frame = defaultdict(dict)
    hyp_by_frame = defaultdict(dict)
    for frame, tid, box in gt_rows:
        gt_by_frame[frame][tid] = box
    for frame, tid, box in hyp_rows:
        hyp_by_frame[frame][tid] = box
    frames = sorted(set(gt_by_frame) | set(hyp_by_frame))

    def matchings(gs, hs):
        if not gs:
            yield []
            return
        yield from matchings(gs[1:], hs)
        for h in hs:
            for rest in matchings(gs[1:], [x for x in hs if x != h]):
                yield [(gs[0], h)] + rest

    def walk(k, prev, last_matched, fp, fn, ids):
        if k == len(frames):
            yield fp, fn, ids
            return
        g_boxes, h_boxes = gt_by_frame[frames[k]], hyp_by_frame[frames[k]]
        kept = {
            g: h for g, h in prev.items()
            if g in g_boxes and h in h_boxes and _box_iou(g_boxes[g], h_boxes[h]) >= iou_thresh
        }
        rem_g = [g for g in g_boxes if g not in kept]
        rem_h = [h for h in h_boxes if h not in kept.values()]
        options = []
        for m in matchings(rem_g, rem_h):
            ious = [_box_iou(g_boxes[g], h_boxes[h]) for g, h in m]
            if all(v >= iou_thresh for v in ious):
                options.append(((-len(m), sum(1.0 - v for v in ious)), m))
        size, total = min(key for key, _ in options)
        for key, m in sorted(options, key=lambda option: option[0]):
            if key[0] != size or key[1] > total + 1e-9:
                continue
            corr, seen, switches = {**kept, **dict(m)}, dict(last_matched), 0
            for g, h in corr.items():
                if g in seen and seen[g] != h:
                    switches += 1
                seen[g] = h
            yield from walk(k + 1, corr, seen, fp + len(h_boxes) - len(corr), fn + len(g_boxes) - len(corr),
                            ids + switches)

    return walk(0, {}, {}, 0, 0, 0)


def idf1_enumerate(
    gt_rows: list[tuple[int, int, tuple[float, float, float, float]]],
    hyp_rows: list[tuple[int, int, tuple[float, float, float, float]]],
    iou_thresh: float = 0.5,
) -> tuple[float, int, int, int]:
    """Identity F1 by enumerating every injective track assignment.

    Rows are (frame, track_id, (left, top, right, bottom)). Returns
    (idf1, idtp, idfp, idfn).
    """
    gt_by_frame = defaultdict(list)
    hyp_by_frame = defaultdict(list)
    for frame, tid, box in gt_rows:
        gt_by_frame[frame].append((tid, box))
    for frame, tid, box in hyp_rows:
        hyp_by_frame[frame].append((tid, box))

    counts: dict[tuple[int, int], int] = defaultdict(int)
    for frame in set(gt_by_frame) & set(hyp_by_frame):
        for g, gbox in gt_by_frame[frame]:
            for h, hbox in hyp_by_frame[frame]:
                if _box_iou(gbox, hbox) >= iou_thresh:
                    counts[(g, h)] += 1

    gt_ids = sorted({tid for _, tid, _ in gt_rows})
    hyp_ids = sorted({tid for _, tid, _ in hyp_rows})

    best = 0
    # assign each subset of gt tracks to distinct hyp tracks, all sizes
    for k in range(0, min(len(gt_ids), len(hyp_ids)) + 1):
        for g_subset in itertools.combinations(gt_ids, k):
            for h_perm in itertools.permutations(hyp_ids, k):
                total = sum(counts.get((g, h), 0) for g, h in zip(g_subset, h_perm))
                best = max(best, total)

    total_gt = len(gt_rows)
    total_hyp = len(hyp_rows)
    idtp = best
    idfp = total_hyp - idtp
    idfn = total_gt - idtp
    if total_gt == 0 and total_hyp == 0:
        return 1.0, 0, 0, 0
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn), idtp, idfp, idfn


def generate_scalar(cfg):
    """``simulator.generate`` built object by object from ``AgentSpec.box`` and scalar ``iou``.

    An agent-frame is visible when its box lies inside the image and no
    nearer on-screen agent overlaps it above ``cfg.occlusion_iou``. Its
    channels come from its box one frame earlier (the same box at frame 1).
    """
    tracks = [[a.box(f) for f in range(1, cfg.frames + 1)] for a in cfg.agents]

    def inside(box):
        return box.left >= 0 and box.top >= 0 and box.right <= cfg.width and box.bottom <= cfg.height

    gt, frames = [], []
    for frame in range(1, cfg.frames + 1):
        boxes = [track[frame - 1] for track in tracks]
        dets = []
        for k, agent in enumerate(cfg.agents):
            cur = boxes[k]
            if not inside(cur) or any(
                other.depth < agent.depth and inside(boxes[m]) and iou(cur, boxes[m]) > cfg.occlusion_iou
                for m, other in enumerate(cfg.agents)
            ):
                continue
            prev = tracks[k][frame - 2] if frame > 1 else cur
            center, prev_center = cur.center, prev.center
            if cfg.variant == VARIANT_WH:
                ts = TrackedSizeWH(cur.width - prev.width, cur.height - prev.height)
            else:
                ts = TrackedSizeLTRB(prev.left, prev.top, prev.right, prev.bottom)
            gt.append(GtEntry(frame=frame, track_id=k + 1, box=cur, class_id=agent.class_id, visibility=1.0))
            dets.append(
                Detection(
                    frame=frame,
                    center=center,
                    size=cur.size,
                    confidence=1.0,
                    class_id=agent.class_id,
                    disp=Displacement(center.x - prev_center.x, center.y - prev_center.y),
                    tracked_size=ts,
                    iou_pred=iou(prev, cur),
                )
            )
        frames.append((frame, dets))
    return gt, frames


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


def iou_cost_loop(dets, tracks, variant, filter_form):
    """``association.iou_cost`` one detection object and one pair at a time."""
    cost = np.full((len(dets), len(tracks)), INADMISSIBLE)
    for i, d in enumerate(dets):
        tb = tracked_box(d, variant)
        for j, t in enumerate(tracks):
            if d.class_id != t.class_id:
                continue
            overlap = iou(t.last_box, tb)
            if overlap <= 0.0:
                continue
            if filter_form == FILTER_RATIONALE:
                admissible = overlap >= d.iou_pred
            else:
                admissible = (1.0 - overlap) <= d.iou_pred
            if admissible:
                cost[i, j] = 1.0 - overlap
    return cost


def displacement_cost_loop(dets, tracks):
    """``association.displacement_cost`` one detection object and one pair at a time."""
    cost = np.full((len(dets), len(tracks)), INADMISSIBLE)
    for i, d in enumerate(dets):
        bx = d.center.x - d.disp.dx
        by = d.center.y - d.disp.dy
        gate = size_gate(d.size)
        for j, t in enumerate(tracks):
            if d.class_id != t.class_id:
                continue
            dist = math.hypot(bx - t.last_center.x, by - t.last_center.y)
            if dist <= gate:
                cost[i, j] = dist
    return cost


#: The file referees refuse a box area above this, so that the union of two stays finite.
MAX_AREA = sys.float_info.max / 2


def mot_rows(
    source: Union[str, Iterable[str]], n_fields: int
) -> Iterator[tuple[int, list[str], int, int, BoxLTRB, float]]:
    """``(line_no, fields, frame, id, box, conf)`` for each non-blank MOT row.

    The first seven columns are shared by ground truth and tracker output;
    callers read any further columns from ``fields``.
    """
    for line_no, raw in enumerate(_lines(source), start=1):
        row = raw.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != n_fields:
            raise ParseError(line_no, f"expected {n_fields} fields, got {len(parts)}")
        frame = _int(parts[0], line_no, "frame")
        track_id = _int(parts[1], line_no, "id")
        if frame < 1 or track_id < 1:
            raise ParseError(line_no, "frame and id must be positive")
        left = _float(parts[2], line_no, "bb_left")
        top = _float(parts[3], line_no, "bb_top")
        w = _float(parts[4], line_no, "bb_width")
        h = _float(parts[5], line_no, "bb_height")
        if w < 0 or h < 0:
            raise ParseError(line_no, f"negative box size: {w}x{h}")
        conf = _float(parts[6], line_no, "conf")
        # Finite fields can still sum to an infinite edge, which no later layer handles.
        right, bottom = left + w, top + h
        if math.isinf(right) or math.isinf(bottom):
            raise ParseError(line_no, f"box edge overflows: ({left}, {top}, {right}, {bottom})")
        # Finite edges can still span an infinite area (BoxLTRB.area), whose IOU is NaN, and
        # two areas above MAX_AREA an infinite union.
        if not (right - left) * (bottom - top) <= MAX_AREA:
            raise ParseError(line_no, f"box area overflows: ({left}, {top}, {right}, {bottom})")
        yield line_no, parts, frame, track_id, BoxLTRB(left, top, right, bottom), conf


def check_area(box: BoxLTRB, line_no: int, name: str) -> None:
    if not box.area <= MAX_AREA:
        raise ParseError(
            line_no, f"{name} area overflows: ({box.left}, {box.top}, {box.right}, {box.bottom})"
        )


def parse_mot_rows(source: Union[str, Iterable[str]]) -> list[GtEntry]:
    """Parse ground-truth rows into entries, in file order.

    ``bb_left``/``bb_top`` are the top-left corner; width and height convert
    to edge coordinates. Negative sizes and malformed rows raise
    :class:`ParseError` with the line number, as do boxes whose right or
    bottom edge or whose area overflows to infinity. The conf column is read as the
    MOT consider flag (0 means ignore for evaluation).
    """
    return [
        GtEntry(
            frame=frame,
            track_id=track_id,
            box=box,
            class_id=_int(parts[7], line_no, "class"),
            visibility=_float(parts[8], line_no, "visibility"),
            consider=conf != 0,
        )
        for line_no, parts, frame, track_id, box, conf in mot_rows(source, 9)
    ]


def parse_track_file_rows(source: Union[str, Iterable[str]]) -> list[TrackRecord]:
    """Parse tracker output rows (the :func:`write_mot` format) back into records."""
    return [
        TrackRecord(frame, track_id, box, conf)
        for _, _, frame, track_id, box, conf in mot_rows(source, 10)
    ]


def prediction_rows(lines: Iterable[str], variant: str) -> dict[int, list[Detection]]:
    """Detections by frame, frames ascending, parsed row by row from the lines after the header.

    The first malformed row raises :class:`ParseError` with its line number.
    """
    n_ts = 2 if variant == VARIANT_WH else 4
    n_fields = 10 + n_ts
    by_frame: dict[int, list[Detection]] = {}
    for line_no, raw in enumerate(lines, start=2):
        row = raw.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != n_fields:
            raise ParseError(
                line_no, f"expected {n_fields} fields for variant {variant}, got {len(parts)}"
            )
        frame = _int(parts[0], line_no, "frame")
        if frame < 1:
            raise ParseError(line_no, "frame must be positive")
        cx = _float(parts[1], line_no, "cx")
        cy = _float(parts[2], line_no, "cy")
        w = _float(parts[3], line_no, "w")
        h = _float(parts[4], line_no, "h")
        conf = _float(parts[5], line_no, "conf")
        class_id = _int(parts[6], line_no, "class")
        dx = _float(parts[7], line_no, "dx")
        dy = _float(parts[8], line_no, "dy")
        ts_vals = [_float(p, line_no, "tracked_size") for p in parts[9 : 9 + n_ts]]
        iou_pred = _float(parts[9 + n_ts], line_no, "iou_pred")
        if not 0.0 <= iou_pred <= 1.0:
            raise ParseError(line_no, f"iou_pred outside [0, 1]: {iou_pred}")
        ts: Union[TrackedSizeWH, TrackedSizeLTRB]
        if variant == VARIANT_WH:
            ts = TrackedSizeWH(ts_vals[0], ts_vals[1])
        else:
            ts = TrackedSizeLTRB(*ts_vals)
        try:
            det = Detection(
                frame=frame,
                center=Point2(cx, cy),
                size=Size2(w, h),
                confidence=conf,
                class_id=class_id,
                disp=Displacement(dx, dy),
                tracked_size=ts,
                iou_pred=iou_pred,
            )
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        # Detection.box and geometry.tracked_box_wh put edges at center -/+ size / 2. Those
        # overflow exactly when the edge farther from zero, |center| + size / 2, does.
        if math.isinf(abs(cx) + w / 2.0) or math.isinf(abs(cy) + h / 2.0):
            raise ParseError(line_no, f"box edge overflows: center ({cx}, {cy}), size ({w}, {h})")
        if variant == VARIANT_WH:
            px, py = cx - dx, cy - dy
            pw, ph = max(0.0, w - ts_vals[0]), max(0.0, h - ts_vals[1])
            if math.isinf(abs(px) + pw / 2.0) or math.isinf(abs(py) + ph / 2.0):
                raise ParseError(
                    line_no, f"tracked box edge overflows: center ({px}, {py}), size ({pw}, {ph})"
                )
            tracked = tracked_box_wh(det.center, det.size, det.disp, ts)
        else:
            tracked = tracked_box_ltrb(ts)
        check_area(det.box(), line_no, "box")
        check_area(tracked, line_no, "tracked box")
        by_frame.setdefault(frame, []).append(det)
    return dict(sorted(by_frame.items()))


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


def perturb_scalar(
    frames: list[tuple[int, list[Detection]]],
    noise: NoiseConfig,
    seed: int,
    image_size: tuple[float, float] | None = None,
    variant: str | None = None,
) -> list[tuple[int, list[Detection]]]:
    """``simulator.perturb`` one detection object and one scalar draw at a time.

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
    out: list[tuple[int, list[Detection]]] = []
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


def write_predictions_objects(variant: str, frames: Iterable[tuple[int, list[Detection]]]) -> str:
    """``formats.write_predictions`` one detection object and one attribute at a time."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    out = [f"variant: {variant}\n"]
    for frame_no, dets in frames:
        for d in dets:
            if d.variant != variant:
                raise ValueError(f"detection variant {d.variant} does not match file variant {variant}")
            head = map(_fmt, (d.center.x, d.center.y, d.size.w, d.size.h, d.confidence))
            rest = map(_fmt, (d.disp.dx, d.disp.dy, *_ts_fields(d), d.iou_pred))
            out.append(f"{frame_no},{','.join(head)},{d.class_id},{','.join(rest)}\n")
    return "".join(out)


def mot_line(frame: int, track_id: int, edges: Sequence[float], rest: str) -> str:
    """One MOT row, each edge value through ``_fmt``; width and height as ``BoxLTRB``'s: right - left, bottom - top."""
    left, top, right, bottom = edges
    return f"{frame},{track_id},{_fmt(left)},{_fmt(top)},{_fmt(right - left)},{_fmt(bottom - top)},{rest}\n"


def write_gt_rows(entries: Iterable[GtEntry]) -> str:
    """``formats.write_gt`` one entry at a time: sorted stably by (frame, id), one ``_fmt`` call per value."""
    rows = sorted(entries, key=lambda e: (e.frame, e.track_id))
    return "".join(
        mot_line(e.frame, e.track_id, ltrb(e.box), f"{1 if e.consider else 0},{e.class_id},{_fmt(e.visibility)}")
        for e in rows
    )


def write_mot_rows(records: Iterable[TrackRecord]) -> str:
    """``formats.write_mot`` one record at a time: sorted stably by (frame, id), one ``_fmt`` call per value."""
    rows = sorted(records, key=lambda r: (r.frame, r.track_id))
    return "".join(mot_line(r.frame, r.track_id, ltrb(r.box), f"{_fmt(r.confidence)},-1,-1,-1") for r in rows)


class SceneFileError(ValueError):
    """A scene file :func:`parse_scenario_config` refuses."""


def parse_scenario_config(text: str, path: str) -> tuple[ScenarioConfig, NoiseConfig]:
    """The scene-file reader ``simulator.parse_scene`` replaced, as it was, raising ``ValueError``.

    Its known faults are kept: ``occluded-crossing`` and ``exit`` drop the
    file's ``seed``, and no message names a line.
    """
    values: dict[str, str] = {}
    agent_lines: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SceneFileError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "agent":
            agent_lines.append(value)
        else:
            values[key] = value

    take = values.pop  # a setting's value, or its default; what is left is unknown

    try:
        scenario = take("scenario", "custom")
        frames = int(take("frames", "60"))
        width = int(take("width", "200"))
        height = int(take("height", "200"))
        variant = take("variant", "ltrb")
        seed = int(take("seed", "0"))
        noise = NoiseConfig(
            center_noise_sigma=float(take("center_noise", "0")),
            size_noise_sigma=float(take("size_noise", "0")),
            disp_noise_sigma=float(take("disp_noise", "0")),
            ts_noise_sigma=float(take("ts_noise", "0")),
            iou_pred_bias=float(take("iou_bias", "0")),
            fp_rate=float(take("fp_rate", "0")),
            fn_rate=float(take("fn_rate", "0")),
        )
        if values:
            raise SceneFileError(f"{path}: unknown keys: {', '.join(sorted(values))}")

        if scenario == "crossing":
            cfg = crossing_scenario(frames=frames, width=width, height=height, variant=variant, seed=seed)
        elif scenario == "occluded-crossing":
            cfg = occluded_crossing_scenario(frames=frames, width=width, height=height, variant=variant)
        elif scenario == "exit":
            cfg = exit_scenario(frames=frames, width=width, height=height, variant=variant)
        elif scenario == "custom":
            if not agent_lines:
                raise SceneFileError(f"{path}: scenario 'custom' needs at least one 'agent =' line")
            agents = []
            for spec in agent_lines:
                parts = spec.split()
                if len(parts) < 4:
                    raise SceneFileError(
                        f"{path}: agent line needs 'depth w h frame:x:y ...', got {spec!r}"
                    )
                depth, w, h = int(parts[0]), float(parts[1]), float(parts[2])
                waypoints = []
                for wp in parts[3:]:
                    f, x, y = wp.split(":")
                    waypoints.append((int(f), float(x), float(y)))
                agents.append(AgentSpec(width=w, height=h, waypoints=tuple(waypoints), depth=depth))
            cfg = ScenarioConfig(
                width=width, height=height, frames=frames, agents=tuple(agents), variant=variant, seed=seed
            )
        else:
            raise SceneFileError(f"{path}: unknown scenario {scenario!r}")
    except SceneFileError:
        raise
    except (ValueError, TypeError) as exc:
        raise SceneFileError(f"{path}: {exc}") from None
    return cfg, noise


def _by_frame(rows: Iterable[GtEntry | TrackRecord], kind: str) -> dict[int, list]:
    seen: set[tuple[int, int]] = set()
    frames: dict[int, list] = defaultdict(list)
    for r in rows:
        key = (r.frame, r.track_id)
        if key in seen:
            raise ValueError(f"duplicate {kind} entry for frame {r.frame}, id {r.track_id}")
        seen.add(key)
        frames[r.frame].append(r)
    return frames


def clear_mot_objects(
    gt: Sequence[GtEntry], hyp: Sequence[TrackRecord], iou_thresh: float = DEFAULT_IOU_THRESHOLD
) -> ClearResult:
    """``metrics.clear_mot`` on row objects: CLEAR metrics, MOTA with its FP, FN and identity-switch counts.

    Ground-truth entries flagged as ignored are removed entirely. Raises if
    no considered ground truth remains, since MOTA is undefined then, or if
    the threshold fails :func:`check_iou_threshold`.
    """
    check_iou_threshold(iou_thresh)
    gt_frames = _by_frame((e for e in gt if e.consider), "ground-truth")
    hyp_frames = _by_frame(hyp, "hypothesis")
    num_gt = sum(len(v) for v in gt_frames.values())
    if num_gt == 0:
        raise ValueError("no considered ground truth; MOTA is undefined")

    fp = fn = ids = 0
    last_matched: dict[int, int] = {}
    prev_corr: dict[int, int] = {}

    for frame in sorted(set(gt_frames) | set(hyp_frames)):
        gtf = gt_frames.get(frame, [])
        hypf = hyp_frames.get(frame, [])
        gt_boxes = {e.track_id: e.box for e in gtf}
        hyp_boxes = {r.track_id: r.box for r in hypf}

        corr: dict[int, int] = {}
        for g, h in prev_corr.items():
            if g in gt_boxes and h in hyp_boxes and iou(gt_boxes[g], hyp_boxes[h]) >= iou_thresh:
                corr[g] = h

        rem_g = [g for g in gt_boxes if g not in corr]
        used_h = set(corr.values())
        rem_h = [h for h in hyp_boxes if h not in used_h]
        if rem_g and rem_h:
            if len(rem_g) * len(rem_h) < KERNEL_MIN_CELLS:
                overlap = np.array(
                    [[iou(gt_boxes[g], hyp_boxes[h]) for h in rem_h] for g in rem_g]
                )
            else:
                g_boxes = np.array([ltrb(gt_boxes[g]) for g in rem_g])
                h_boxes = np.array([ltrb(hyp_boxes[h]) for h in rem_h])
                overlap = iou_array(g_boxes[:, None], h_boxes[None])
            cost = np.where(overlap >= iou_thresh, 1.0 - overlap, _BIG_COST)
            rows, cols = linear_sum_assignment(cost)
            for r, c in zip(rows, cols):
                if overlap[r, c] >= iou_thresh:
                    corr[rem_g[r]] = rem_h[c]

        for g, h in corr.items():
            if g in last_matched and last_matched[g] != h:
                ids += 1
            last_matched[g] = h

        fn += len(gt_boxes) - len(corr)
        fp += len(hyp_boxes) - len(corr)
        prev_corr = corr

    mota = 1.0 - (fp + fn + ids) / num_gt
    return ClearResult(mota=mota, fp=fp, fn=fn, ids=ids, num_gt=num_gt)


def idf1_objects(
    gt: Sequence[GtEntry], hyp: Sequence[TrackRecord], iou_thresh: float = DEFAULT_IOU_THRESHOLD
) -> IdResult:
    """``metrics.idf1`` on row objects: identity F1 under the optimal global trajectory assignment.

    Counts, per (ground-truth track, hypothesis track) pair, the frames where
    both are present with IOU at or above the threshold; the assignment
    maximizing the total matched frames defines IDTP. Empty ground truth and
    hypothesis score 1.0 by convention (vacuous perfection). Raises if the
    threshold fails :func:`check_iou_threshold`.
    """
    check_iou_threshold(iou_thresh)
    gt_frames = _by_frame((e for e in gt if e.consider), "ground-truth")
    hyp_frames = _by_frame(hyp, "hypothesis")
    total_gt = sum(len(v) for v in gt_frames.values())
    total_hyp = sum(len(v) for v in hyp_frames.values())
    if total_gt == 0 and total_hyp == 0:
        return IdResult(idf1=1.0, idtp=0, idfp=0, idfn=0)

    mat = _id_overlap_counts(gt_frames, hyp_frames, iou_thresh)
    idtp = 0
    if mat.any():
        mat = mat[mat.any(axis=1)][:, mat.any(axis=0)]
        rows, cols = linear_sum_assignment(-mat)
        idtp = int(mat[rows, cols].sum())

    idfp = total_hyp - idtp
    idfn = total_gt - idtp
    score = 2.0 * idtp / (2.0 * idtp + idfp + idfn)
    return IdResult(idf1=score, idtp=idtp, idfp=idfp, idfn=idfn)


def _id_overlap_counts(
    gt_frames: dict[int, list[GtEntry]], hyp_frames: dict[int, list[TrackRecord]], iou_thresh: float
) -> np.ndarray:
    """Frames each (ground-truth id, hypothesis id) pair overlaps at the threshold.

    Hypothesis boxes are laid out once as a (frame, slot) grid whose unused
    slots hold id index -1; each ground-truth track then takes one kernel
    call against the grid rows of its frames. One call per track, not per
    sequence, keeps the working set to one track's frames.
    """
    frame_row = {f: k for k, f in enumerate(sorted(hyp_frames))}
    hyp_ids = sorted({r.track_id for rows in hyp_frames.values() for r in rows})
    hyp_col = {h: k for k, h in enumerate(hyp_ids)}
    slots = max((len(rows) for rows in hyp_frames.values()), default=0)
    grid = np.zeros((len(frame_row), slots, 4))
    grid_ids = np.full((len(frame_row), slots), -1)
    for f, rows in hyp_frames.items():
        k = frame_row[f]
        grid[k, : len(rows)] = [ltrb(r.box) for r in rows]
        grid_ids[k, : len(rows)] = [hyp_col[r.track_id] for r in rows]

    tracks: dict[int, list[GtEntry]] = defaultdict(list)
    for f in sorted(gt_frames):
        if f in frame_row:
            for e in gt_frames[f]:
                tracks[e.track_id].append(e)
    counts = np.zeros((len(tracks), len(hyp_ids)), dtype=int)
    for row, entries in enumerate(tracks.values()):
        k = [frame_row[e.frame] for e in entries]
        boxes = np.array([ltrb(e.box) for e in entries])
        ids = grid_ids[k]
        hit = (iou_array(boxes[:, None], grid[k]) >= iou_thresh) & (ids >= 0)
        counts[row] = np.bincount(ids[hit], minlength=len(hyp_ids))
    return counts


def step_objects(
    state: TrackerState, dets: Sequence[Detection], cfg: TrackerConfig
) -> tuple[TrackerState, list[TrackRecord]]:
    """``tracker.step`` one ``Tracklet`` and one ``TrackRecord`` object at a time."""
    frame_no = state.frame_index + 1
    frame = DetectionFrame.of(dets)
    numbers = frame.values("frame")
    if numbers.count(frame_no) != len(numbers):
        bad = next(f for f in numbers if f != frame_no)
        raise ValueError(f"detection frame {bad} does not match tracker frame {frame_no}")

    result = associate(cfg.strategy, frame, state.live, cfg.variant, cfg.iou_filter_form)
    det_for_track = {j: i for i, j in result.matches}
    centers, boxes = frame.values("center"), frame.values("box")
    confs, classes = frame.values("conf"), frame.values("cls")

    new_live: list[Tracklet] = []
    records: list[TrackRecord] = []
    for j, trk in enumerate(state.live):
        i = det_for_track.get(j)
        if i is not None:
            box = BoxLTRB(*boxes[i])
            new_live.append(Tracklet(trk.track_id, Point2(*centers[i]), box, trk.class_id, confs[i], 0))
            records.append(TrackRecord(frame_no, trk.track_id, box, confs[i]))
        elif trk.age + 1 < cfg.lifetime:
            aged = Tracklet(
                trk.track_id, trk.last_center, trk.last_box, trk.class_id, trk.last_confidence, trk.age + 1
            )
            new_live.append(aged)

    next_id = state.next_id
    for i in result.unmatched_detections:
        box = BoxLTRB(*boxes[i])
        new_live.append(Tracklet(next_id, Point2(*centers[i]), box, classes[i], confs[i], 0))
        records.append(TrackRecord(frame_no, next_id, box, confs[i]))
        next_id += 1

    return TrackerState(tuple(new_live), next_id, frame_no), records


def _loss_cell(m: np.ndarray, center: Point2) -> np.ndarray:
    return m[int(math.floor(center.y)), int(math.floor(center.x))]


def l1_size_loss_loop(pred_size_map: np.ndarray, gt) -> float:
    m = np.asarray(pred_size_map, dtype=float)
    total = 0.0
    for obj in gt.objects:
        pw, ph = _loss_cell(m, obj.center)
        total += abs(pw - obj.size.w) + abs(ph - obj.size.h)
    return total / gt.n


def l1_offset_loss_loop(pred_disp_map: np.ndarray, gt) -> float:
    m = np.asarray(pred_disp_map, dtype=float)
    total = 0.0
    for obj in gt.objects:
        px, py = _loss_cell(m, obj.center)
        total += abs(px - (obj.prev_center.x - obj.center.x))
        total += abs(py - (obj.prev_center.y - obj.center.y))
    return total / gt.n


def l1_tracked_size_wh_loss_loop(pred_ts_map: np.ndarray, gt) -> float:
    m = np.asarray(pred_ts_map, dtype=float)
    total = 0.0
    for obj in gt.objects:
        tw = obj.prev_box.width - obj.cur_box.width
        th = obj.prev_box.height - obj.cur_box.height
        pw, ph = _loss_cell(m, obj.center)
        total += abs(pw - tw) + abs(ph - th)
    return total / gt.n


def l1_tracked_size_ltrb_loss_loop(pred_ts_map: np.ndarray, gt) -> float:
    m = np.asarray(pred_ts_map, dtype=float)
    total = 0.0
    for obj in gt.objects:
        target = (obj.prev_box.left, obj.prev_box.top, obj.prev_box.right, obj.prev_box.bottom)
        pred = _loss_cell(m, obj.center)
        total += sum(abs(float(p) - t) for p, t in zip(pred, target))
    return total / gt.n


def l_iou_loss_loop(pred_iou_map: np.ndarray, gt) -> float:
    m = np.asarray(pred_iou_map, dtype=float)
    total = 0.0
    for obj in gt.objects:
        total += abs(float(_loss_cell(m, obj.center)) - iou(obj.prev_box, obj.cur_box))
    return total / gt.n


def window_max3_shifts(plane: np.ndarray) -> np.ndarray:
    padded = np.pad(plane, 1, constant_values=-np.inf)
    out = plane.copy()
    h, w = plane.shape
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            np.maximum(out, padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w], out=out)
    return out
