"""Cost matrices and greedy identity assignment between detections and tracklets.

Costs are plain float matrices with rows = detections and columns =
tracklets; cells that must never match hold :data:`INADMISSIBLE` (infinity).
Matching is greedy per detection in confidence order, which is deliberately
order-dependent; optimal assignment lives on the evaluation side only.

Detections are read as :class:`~motkit.formats.DetectionFrame` columns; a
plain list of :class:`~motkit.formats.Detection` is framed once on entry.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .formats import VARIANT_LTRB, VARIANT_WH, VARIANTS, Detection, DetectionFrame
from .geometry import (
    KERNEL_MIN_CELLS,
    BoxLTRB,
    TrackedSizeLTRB,
    TrackedSizeWH,
    iou_array,
    iou_ltrb,
    ltrb,
    tracked_box_ltrb,
    tracked_box_wh,
)

if TYPE_CHECKING:
    from .tracker import Tracklet

INADMISSIBLE = math.inf

FILTER_RATIONALE = "rationale"  # drop pairs with tracked IOU below predicted adjacent IOU
FILTER_COST = "cost"            # drop pairs whose IOU distance exceeds the predicted IOU
FILTER_FORMS = (FILTER_RATIONALE, FILTER_COST)


class Strategy(enum.Enum):
    """Which cost matrices drive association, and in what order."""

    DIS = "dis"
    IOU = "iou"
    COMBINED = "combined"
    IOU_THEN_DIS = "iou-dis"
    DIS_THEN_IOU = "dis-iou"


@dataclass
class AssociationResult:
    """Matched (detection, tracklet) index pairs plus both leftovers.

    Matches are in processing order; unmatched index lists are ascending.
    Together the three collections partition both index sets.
    """

    matches: list[tuple[int, int]]
    unmatched_detections: list[int]
    unmatched_tracklets: list[int]


def tracked_box(det: Detection, variant: str) -> BoxLTRB:
    """Previous-frame box regressed from a detection, per parameterization."""
    if variant == VARIANT_WH:
        if not isinstance(det.tracked_size, TrackedSizeWH):
            raise ValueError("detection does not carry wh tracked-size values")
        return tracked_box_wh(det.center, det.size, det.disp, det.tracked_size)
    if variant == VARIANT_LTRB:
        if not isinstance(det.tracked_size, TrackedSizeLTRB):
            raise ValueError("detection does not carry ltrb tracked-size values")
        return tracked_box_ltrb(det.tracked_size)
    raise ValueError(f"unknown variant: {variant!r}")


def displacement_cost(dets: Sequence[Detection], tracks: Sequence["Tracklet"]) -> np.ndarray:
    """Euclidean distance between back-projected centers and tracklet centers.

    A cell is inadmissible when the distance exceeds the detection's size
    gate (sqrt of its box area) or the classes differ.
    """
    frame = DetectionFrame.of(dets)
    gates = frame.values("gate")
    if len(frame) * len(tracks) < KERNEL_MIN_CELLS:
        return _displacement_cost_loop(frame.values("back"), gates, frame.values("cls"), tracks)
    back = frame.column("back")
    centers = np.array([(t.last_center.x, t.last_center.y) for t in tracks])
    dx = back[:, 0:1] - centers[:, 0]
    dy = back[:, 1:2] - centers[:, 1]
    # hypot >= max(|dx|, |dy|), so this box prefilter keeps every admissible
    # pair; math.hypot then decides the few survivors exactly as the loop does.
    gate_col = frame.column("gate")[:, None]
    near = (np.abs(dx) <= gate_col) & (np.abs(dy) <= gate_col) & _same_class(frame, tracks)
    rows, cols = np.nonzero(near)
    cost = np.full((len(frame), len(tracks)), INADMISSIBLE)
    for i, j, x, y in zip(rows.tolist(), cols.tolist(), dx[rows, cols].tolist(), dy[rows, cols].tolist()):
        dist = math.hypot(x, y)
        if dist <= gates[i]:
            cost[i, j] = dist
    return cost


def _displacement_cost_loop(
    back: list, gates: list[float], classes: list[int], tracks: Sequence["Tracklet"]
) -> np.ndarray:
    cost = np.full((len(back), len(tracks)), INADMISSIBLE)
    for i, ((bx, by), gate, cls) in enumerate(zip(back, gates, classes)):
        for j, t in enumerate(tracks):
            if cls != t.class_id:
                continue
            dist = math.hypot(bx - t.last_center.x, by - t.last_center.y)
            if dist <= gate:
                cost[i, j] = dist
    return cost


def _same_class(frame: DetectionFrame, tracks: Sequence["Tracklet"]) -> np.ndarray:
    return frame.column("cls")[:, None] == np.array([t.class_id for t in tracks])


def iou_cost(
    dets: Sequence[Detection],
    tracks: Sequence["Tracklet"],
    variant: str,
    filter_form: str = FILTER_RATIONALE,
) -> np.ndarray:
    """1 - IOU between each tracklet's last box and each detection's tracked box.

    The predicted adjacent-frame IOU gates admissibility: under the default
    rationale form a pair is dropped when the tracked IOU falls below the
    prediction; under the cost form when 1 - IOU exceeds it. Zero-overlap
    pairs and class mismatches are always inadmissible.
    """
    if filter_form not in FILTER_FORMS:
        raise ValueError(f"unknown filter form: {filter_form!r}")
    frame = DetectionFrame.of(dets)
    if len(frame) and frame.variant != variant:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant: {variant!r}")
        raise ValueError(f"detection does not carry {variant} tracked-size values")
    if len(frame) * len(tracks) < KERNEL_MIN_CELLS:
        return _iou_cost_loop(
            frame.values("tracked"), frame.values("iou_pred"), frame.values("cls"), tracks, filter_form
        )
    last = np.array([ltrb(t.last_box) for t in tracks])
    overlap = iou_array(last[None], frame.column("tracked")[:, None])
    pred = frame.column("iou_pred")[:, None]
    if filter_form == FILTER_RATIONALE:
        admissible = overlap >= pred
    else:
        admissible = (1.0 - overlap) <= pred
    admissible &= (overlap > 0.0) & _same_class(frame, tracks)
    return np.where(admissible, 1.0 - overlap, INADMISSIBLE)


def _iou_cost_loop(
    tracked: list, preds: list[float], classes: list[int], tracks: Sequence["Tracklet"], filter_form: str
) -> np.ndarray:
    cost = np.full((len(tracked), len(tracks)), INADMISSIBLE)
    last = [ltrb(t.last_box) for t in tracks]
    for i, (tb, pred, cls) in enumerate(zip(tracked, preds, classes)):
        for j, t in enumerate(tracks):
            if cls != t.class_id:
                continue
            overlap = iou_ltrb(last[j], tb)
            if overlap <= 0.0:
                continue
            if filter_form == FILTER_RATIONALE:
                admissible = overlap >= pred
            else:
                admissible = (1.0 - overlap) <= pred
            if admissible:
                cost[i, j] = 1.0 - overlap
    return cost


def combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cellwise sum; inadmissible cells absorb."""
    if a.shape != b.shape:
        raise ValueError(f"cost matrix shapes differ: {a.shape} vs {b.shape}")
    return a + b


def confidence_order(dets: Sequence[Detection]) -> list[int]:
    """Detection indices by descending confidence, ties by lower index."""
    conf = DetectionFrame.of(dets).values("conf")
    # a reversed sort is still stable: equal confidences keep ascending indices
    return sorted(range(len(conf)), key=conf.__getitem__, reverse=True)


def greedy_match(cost: np.ndarray, det_order: Sequence[int]) -> AssociationResult:
    """Assign each detection, in the given order, its cheapest free tracklet.

    Ties go to the lowest tracklet index; detections with no admissible free
    tracklet stay unmatched.
    """
    n_det, n_trk = cost.shape
    if sorted(det_order) != list(range(n_det)):
        raise ValueError("det_order is not a permutation of detection indices")
    if n_det * n_trk < KERNEL_MIN_CELLS:
        return _greedy_match_loop(cost, det_order)
    # The loop never picks a NaN cell; as infinity, argmin never does either.
    free = np.where(np.isnan(cost), INADMISSIBLE, cost)
    matches: list[tuple[int, int]] = []
    unmatched_dets: list[int] = []
    for i in det_order:
        row = free[i]
        j = int(row.argmin())  # the first minimum: ties go to the lowest index
        if row[j] < INADMISSIBLE:
            free[:, j] = INADMISSIBLE
            matches.append((i, j))
        else:
            unmatched_dets.append(i)
    unmatched_dets.sort()
    taken = {j for _, j in matches}
    unmatched_trks = [j for j in range(n_trk) if j not in taken]
    return AssociationResult(matches, unmatched_dets, unmatched_trks)


def _greedy_match_loop(cost: np.ndarray, det_order: Sequence[int]) -> AssociationResult:
    n_det, n_trk = cost.shape
    taken = [False] * n_trk
    matches: list[tuple[int, int]] = []
    unmatched_dets: list[int] = []
    for i in det_order:
        best_j = -1
        best = INADMISSIBLE
        for j in range(n_trk):
            if not taken[j] and cost[i, j] < best:
                best = cost[i, j]
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            matches.append((i, best_j))
        else:
            unmatched_dets.append(i)
    unmatched_dets.sort()
    unmatched_trks = [j for j in range(n_trk) if not taken[j]]
    return AssociationResult(matches, unmatched_dets, unmatched_trks)


#: Each strategy as its greedy rounds, in order. A round sums the cost
#: matrices it names; a later round sees only the earlier rounds' leftovers.
ROUNDS: dict[Strategy, tuple[tuple[str, ...], ...]] = {
    Strategy.DIS: (("dis",),),
    Strategy.IOU: (("iou",),),
    Strategy.COMBINED: (("dis", "iou"),),
    Strategy.IOU_THEN_DIS: (("iou",), ("dis",)),
    Strategy.DIS_THEN_IOU: (("dis",), ("iou",)),
}


def _greedy_round(
    kinds: Sequence[str],
    dets: DetectionFrame,
    tracks: Sequence["Tracklet"],
    variant: str,
    filter_form: str,
) -> AssociationResult:
    # The cost functions are looked up by module name on every call, so a
    # wrapper patched onto the module attribute sees each matrix build.
    cost = None
    for kind in kinds:
        if kind == "dis":
            m = displacement_cost(dets, tracks)
        else:
            m = iou_cost(dets, tracks, variant, filter_form)
        cost = m if cost is None else combine(cost, m)
    return greedy_match(cost, confidence_order(dets))


def associate(
    strategy: Strategy,
    dets: Sequence[Detection],
    tracks: Sequence["Tracklet"],
    variant: str,
    filter_form: str = FILTER_RATIONALE,
) -> AssociationResult:
    """Run the chosen strategy's greedy rounds and return the frame's assignment.

    Each round matches in confidence order over the sum of its matrices. A
    later round builds fresh matrices from the earlier rounds' leftovers
    only, each matrix keeping its native admissibility gate.
    """
    frame = DetectionFrame.of(dets)
    rounds = ROUNDS[strategy]
    result = _greedy_round(rounds[0], frame, tracks, variant, filter_form)
    for kinds in rounds[1:]:
        det_map, trk_map = result.unmatched_detections, result.unmatched_tracklets
        sub_tracks = [tracks[j] for j in trk_map]
        sub = _greedy_round(kinds, frame.take(det_map), sub_tracks, variant, filter_form)
        result = AssociationResult(
            matches=result.matches + [(det_map[i], trk_map[j]) for i, j in sub.matches],
            unmatched_detections=[det_map[i] for i in sub.unmatched_detections],
            unmatched_tracklets=[trk_map[j] for j in sub.unmatched_tracklets],
        )
    return result
