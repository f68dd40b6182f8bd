"""Independent oracle implementations the real code is checked against.

Everything here is deliberately brute force. The metric and matching
oracles share no code with the package: IOU by pixel counting, greedy
matching as an explicit trace, and the identity-assignment score by full
enumeration. The scene generator's referee builds the package's own row
types one object at a time from its scalar API (``AgentSpec.box``,
``geometry.iou``), the form the vectorized ``generate`` must equal. The cost
matrix referees likewise read ``Detection`` objects one at a time through
``association.tracked_box``, ``geometry.iou`` and ``geometry.size_gate``,
the form the column-reading ``iou_cost`` and ``displacement_cost`` must equal.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np

from motkit.association import FILTER_RATIONALE, INADMISSIBLE, tracked_box
from motkit.formats import VARIANT_WH, Detection, GtEntry
from motkit.geometry import Displacement, TrackedSizeLTRB, TrackedSizeWH, iou, size_gate


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
    injective matching. A switch is a pair whose hypothesis id differs from
    the last one its ground-truth id matched.
    """
    gt_by_frame = defaultdict(dict)
    hyp_by_frame = defaultdict(dict)
    for frame, tid, box in gt_rows:
        gt_by_frame[frame][tid] = box
    for frame, tid, box in hyp_rows:
        hyp_by_frame[frame][tid] = box

    def matchings(gs, hs):
        if not gs:
            yield []
            return
        yield from matchings(gs[1:], hs)
        for h in hs:
            for rest in matchings(gs[1:], [x for x in hs if x != h]):
                yield [(gs[0], h)] + rest

    fp = fn = ids = 0
    last_matched: dict[int, int] = {}
    prev: dict[int, int] = {}
    for frame in sorted(set(gt_by_frame) | set(hyp_by_frame)):
        g_boxes, h_boxes = gt_by_frame[frame], hyp_by_frame[frame]
        corr = {
            g: h for g, h in prev.items()
            if g in g_boxes and h in h_boxes and _box_iou(g_boxes[g], h_boxes[h]) >= iou_thresh
        }
        rem_g = [g for g in g_boxes if g not in corr]
        rem_h = [h for h in h_boxes if h not in corr.values()]
        best_key, best = None, []
        for m in matchings(rem_g, rem_h):
            ious = [_box_iou(g_boxes[g], h_boxes[h]) for g, h in m]
            if any(v < iou_thresh for v in ious):
                continue
            key = (-len(m), sum(1.0 - v for v in ious))
            if best_key is None or key < best_key:
                best_key, best = key, m
        corr.update(best)
        for g, h in corr.items():
            if g in last_matched and last_matched[g] != h:
                ids += 1
            last_matched[g] = h
        fn += len(g_boxes) - len(corr)
        fp += len(h_boxes) - len(corr)
        prev = corr
    return fp, fn, ids


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
