"""CLEAR-MOT and identity-F1 scoring of hypothesis tracks against ground truth.

Per-frame correspondence follows the CLEAR protocol: matches from the
previous frame are kept while still valid (IOU at or above the threshold),
then the remaining boxes are paired by minimum-cost optimal assignment. An
identity switch is counted when a ground-truth track's matched hypothesis id
differs from the most recent id it ever matched, so losing a track and
reacquiring it under the same id is not a switch. IDF1 instead scores one
global trajectory-level assignment.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .formats import GtEntry, TrackRecord
from .geometry import KERNEL_MIN_CELLS, iou, iou_array, ltrb

DEFAULT_IOU_THRESHOLD = 0.5  # overlap a pair needs to count as a match

_BIG_COST = 1e9


@dataclass(frozen=True)
class ClearResult:
    mota: float
    fp: int
    fn: int
    ids: int
    num_gt: int


@dataclass(frozen=True)
class IdResult:
    idf1: float
    idtp: int
    idfp: int
    idfn: int


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


def check_iou_threshold(iou_thresh: float) -> None:
    """Raise ``ValueError`` unless the match threshold is finite and in (0, 1].

    At or below 0 disjoint boxes would match, above 1 nothing could, and NaN
    compares false with every overlap.
    """
    if not (math.isfinite(iou_thresh) and 0.0 < iou_thresh <= 1.0):
        raise ValueError(f"IOU threshold must lie in (0, 1], got {iou_thresh}")


def clear_mot(
    gt: Sequence[GtEntry], hyp: Sequence[TrackRecord], iou_thresh: float = DEFAULT_IOU_THRESHOLD
) -> ClearResult:
    """CLEAR metrics: MOTA with its FP, FN, and identity-switch counts.

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


def idf1(
    gt: Sequence[GtEntry], hyp: Sequence[TrackRecord], iou_thresh: float = DEFAULT_IOU_THRESHOLD
) -> IdResult:
    """Identity F1 under the optimal global trajectory assignment.

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
