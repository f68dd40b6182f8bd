"""CLEAR-MOT and identity-F1 scoring of hypothesis tracks against ground truth.

Both scores count the hits, the same-frame pairs whose IOU reaches the
threshold, found once per pair of scored tables. Per-frame correspondence
follows the CLEAR protocol: matches from the previous frame are kept while
they are still hits, then the remaining boxes are paired by minimum-cost
optimal assignment while a free hit remains. An identity switch is counted
when a ground-truth track's matched hypothesis id differs from the most
recent id it ever matched, so losing a track and reacquiring it under the
same id is not a switch. IDF1 instead scores one global trajectory-level
assignment. Within a frame, the assignment takes the rows in file order and
keeps the tied pair its solver reaches first: swapping two tied rows of a
frame can change the switches counted.

Both scorers read the rows as the columns of the parsers' tables (a plain
list of rows is framed as one first), sorted once on frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import GtEntry, TrackRecord, _MotTable, _run_bounds
from .geometry import iou_array, x_overlap_pairs

DEFAULT_IOU_THRESHOLD = 0.5  # overlap a pair needs to count as a match

_BIG_COST = 1e9


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's minimum-cost assignment; scipy loads on the first call, so commands that score nothing skip it."""
    from scipy.optimize import linear_sum_assignment as solve
    return solve(cost)


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


class _RepeatedRow(ValueError):
    """A scored row repeats an earlier one's (frame, id); ``row`` is its index in its table."""

    def __init__(self, kind: str, frame: int, track_id: int, row: int):
        super().__init__(f"duplicate {kind} entry for frame {frame}, id {track_id}")
        self.kind, self.row = kind, row


class _Scored(_MotTable):
    """A table's scored rows, sorted stably on frame: each frame keeps its file order."""

    frames: list  # the frame numbers, ascending
    bounds: list[int]  # frame k's rows are bounds[k]:bounds[k + 1]
    hits: tuple = (None, None, None)  # (hyp table, threshold, its hits): the last :func:`_hits` answer


def _scored(rows: Sequence[GtEntry | TrackRecord], kind: str) -> _Scored:
    """The rows :func:`clear_mot` and :func:`idf1` score, grouped by frame; a scored table is returned as it is.

    Ground-truth rows flagged as ignored are dropped. Raises
    :class:`_RepeatedRow` at the first scored row, in file order, whose
    (frame, id) an earlier scored row has.
    """
    if isinstance(rows, _Scored):
        return rows
    table = _MotTable.of(rows)
    kept = np.flatnonzero(table.conf != 0) if kind == "ground-truth" else np.arange(len(table))
    frame, ids = table.frame[kept], table.id[kept]
    by_key = np.lexsort((ids, frame))  # stable: each key's rows in file order
    f, i = frame[by_key], ids[by_key]
    repeats = by_key[1:][(f[1:] == f[:-1]) & (i[1:] == i[:-1])]
    if len(repeats):
        first = repeats.min()
        raise _RepeatedRow(kind, frame[first], ids[first], int(kept[first]))
    order = kept[np.argsort(frame, kind="stable")]
    scored = _Scored(*(table.column(name).take(order, axis=0) for name in _MotTable._KINDS if table._has(name)))
    scored.bounds = _run_bounds(scored.frame)
    scored.frames = scored.frame[scored.bounds[:-1]].tolist()
    return scored


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

    Ground-truth entries flagged as ignored are removed entirely. Raises
    ``ValueError`` if a (frame, id) repeats among the scored rows, if no
    considered ground truth remains, since MOTA is undefined then, or if
    the threshold fails :func:`check_iou_threshold`.
    """
    check_iou_threshold(iou_thresh)
    gt, hyp = _scored(gt, "ground-truth"), _scored(hyp, "hypothesis")
    num_gt = len(gt.id)
    if num_gt == 0:
        raise ValueError("no considered ground truth; MOTA is undefined")

    gt_ids, hyp_ids = gt.id.tolist(), hyp.id.tolist()
    hit_gt, hit_hyp, overlap = _hits(gt, hyp, iou_thresh)
    hit_cells = list(zip(zip(gt.id.take(hit_gt).tolist(), hyp.id.take(hit_hyp).tolist()), (1.0 - overlap).tolist()))
    cut = np.searchsorted(hit_gt, gt.bounds).tolist()  # frame k's hits are cut[k]:cut[k + 1]

    gt_span = {f: (a, b, s, e) for f, a, b, s, e in zip(gt.frames, gt.bounds, gt.bounds[1:], cut, cut[1:])}
    hyp_span = {f: (a, b) for f, a, b in zip(hyp.frames, hyp.bounds, hyp.bounds[1:])}
    fp = fn = ids = 0
    last_matched: dict[int, int] = {}
    prev_corr: dict[int, int] = {}

    for frame in sorted(gt_span.keys() | hyp_span.keys()):
        a, b, s, e = gt_span.get(frame, (0, 0, 0, 0))
        c, d = hyp_span.get(frame, (0, 0))
        hits = dict(hit_cells[s:e])  # (gt id, hyp id) -> 1 - IOU
        corr = {g: h for g, h in prev_corr.items() if (g, h) in hits}

        used_h = set(corr.values())
        free = [(g, h, cell) for (g, h), cell in hits.items() if g not in corr and h not in used_h]
        if free:
            rem_g = [g for g in gt_ids[a:b] if g not in corr]
            rem_h = [h for h in hyp_ids[c:d] if h not in used_h]
            row, col = {g: k for k, g in enumerate(rem_g)}, {h: k for k, h in enumerate(rem_h)}
            cost = np.full((len(rem_g), len(rem_h)), _BIG_COST)
            for g, h, cell in free:
                cost[row[g], col[h]] = cell
            for r, k in zip(*linear_sum_assignment(cost)):
                if (rem_g[r], rem_h[k]) in hits:
                    corr[rem_g[r]] = rem_h[k]

        for g, h in corr.items():
            if g in last_matched and last_matched[g] != h:
                ids += 1
            last_matched[g] = h

        fn += b - a - len(corr)
        fp += d - c - len(corr)
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
    hypothesis score 1.0 by convention (vacuous perfection). Raises if a
    (frame, id) repeats among the scored rows, or if the threshold fails
    :func:`check_iou_threshold`.
    """
    check_iou_threshold(iou_thresh)
    gt, hyp = _scored(gt, "ground-truth"), _scored(hyp, "hypothesis")
    total_gt, total_hyp = len(gt.id), len(hyp.id)
    if total_gt == 0 and total_hyp == 0:
        return IdResult(idf1=1.0, idtp=0, idfp=0, idfn=0)

    hit_gt, hit_hyp, _ = _hits(gt, hyp, iou_thresh)
    gt_ids, g = np.unique(gt.id.take(hit_gt), return_inverse=True)  # the ids with a hit, as rows and columns
    hyp_ids, h = np.unique(hyp.id.take(hit_hyp), return_inverse=True)
    mat = np.bincount(g * len(hyp_ids) + h, minlength=len(gt_ids) * len(hyp_ids)).reshape(len(gt_ids), len(hyp_ids))
    rows, cols = linear_sum_assignment(-mat)
    idtp = int(mat[rows, cols].sum())
    idfp = total_hyp - idtp
    idfn = total_gt - idtp
    score = 2.0 * idtp / (2.0 * idtp + idfp + idfn)
    return IdResult(idf1=score, idtp=idtp, idfp=idfp, idfn=idfn)


def _hits(gt: _Scored, hyp: _Scored, iou_thresh: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ground-truth row, hypothesis row and IOU of every same-frame pair at or above the threshold, by gt row.

    Each ground-truth row meets only the hypothesis rows of its frame whose x-extents
    :func:`~motkit.geometry.x_overlap_pairs` finds can meet its own, the rank of the frame among the hypothesis
    frames as group key; one kernel call scores those pairs. A pair left out has ``iw <= 0``, so its IOU is 0 and
    below any threshold in (0, 1]. Kept on ``gt`` for the last ``hyp`` and threshold: both scorers find them once.
    """
    seen_hyp, seen_thresh, hits = gt.hits
    if seen_hyp is hyp and seen_thresh == iou_thresh:
        return hits
    rank = {f: k for k, f in enumerate(hyp.frames)}
    gt_rank = np.repeat([rank.get(f, -1) for f in gt.frames], np.diff(gt.bounds))
    hyp_rank = np.repeat(np.arange(len(hyp.frames)), np.diff(hyp.bounds))
    g, h = x_overlap_pairs(gt.box[:, 0], gt.box[:, 2], hyp.box[:, 0], hyp.box[:, 2], gt_rank, hyp_rank)
    overlap = iou_array(gt.box.take(g, axis=0), hyp.box.take(h, axis=0))
    hit = overlap >= iou_thresh
    hits = g[hit], h[hit], overlap[hit]
    gt.hits = (hyp, iou_thresh, hits)
    return hits
