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

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .formats import GtEntry, TrackRecord
from .geometry import iou

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


def clear_mot(
    gt: Sequence[GtEntry], hyp: Sequence[TrackRecord], iou_thresh: float = DEFAULT_IOU_THRESHOLD
) -> ClearResult:
    """CLEAR metrics: MOTA with its FP, FN, and identity-switch counts.

    Ground-truth entries flagged as ignored are removed entirely. Raises if
    no considered ground truth remains, since MOTA is undefined then.
    """
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
            overlap = np.array(
                [[iou(gt_boxes[g], hyp_boxes[h]) for h in rem_h] for g in rem_g]
            )
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
    hypothesis score 1.0 by convention (vacuous perfection).
    """
    gt_frames = _by_frame((e for e in gt if e.consider), "ground-truth")
    hyp_frames = _by_frame(hyp, "hypothesis")
    total_gt = sum(len(v) for v in gt_frames.values())
    total_hyp = sum(len(v) for v in hyp_frames.values())
    if total_gt == 0 and total_hyp == 0:
        return IdResult(idf1=1.0, idtp=0, idfp=0, idfn=0)

    counts: dict[tuple[int, int], int] = defaultdict(int)
    for frame in sorted(set(gt_frames) & set(hyp_frames)):
        for e in gt_frames[frame]:
            for r in hyp_frames[frame]:
                if iou(e.box, r.box) >= iou_thresh:
                    counts[(e.track_id, r.track_id)] += 1

    idtp = 0
    if counts:
        gt_ids = {g: i for i, g in enumerate(sorted({g for g, _ in counts}))}
        hyp_ids = {h: i for i, h in enumerate(sorted({h for _, h in counts}))}
        mat = np.zeros((len(gt_ids), len(hyp_ids)), dtype=int)
        for (g, h), c in counts.items():
            mat[gt_ids[g], hyp_ids[h]] = c
        rows, cols = linear_sum_assignment(-mat)
        idtp = int(mat[rows, cols].sum())

    idfp = total_hyp - idtp
    idfn = total_gt - idtp
    score = 2.0 * idtp / (2.0 * idtp + idfp + idfn)
    return IdResult(idf1=score, idtp=idtp, idfp=idfp, idfn=idfn)
