"""Cost matrices and greedy identity assignment between detections and tracklets.

Costs are plain float matrices with rows = detections and columns =
tracklets; cells that must never match hold :data:`INADMISSIBLE` (infinity).
Matching is greedy per detection in confidence order, which is deliberately
order-dependent; optimal assignment lives on the evaluation side only.

Detections are read as :class:`~motkit.formats.DetectionFrame` columns and
tracklets as the tracker's table of columns; a plain list of
:class:`~motkit.formats.Detection` or :class:`~motkit.formats.Tracklet` is
framed once on entry.

A cost matrix takes scalar loops below ``KERNEL_MIN_CELLS`` cells, the dense kernel below
``BROAD_PHASE_MIN_CELLS``, and from there the kernel on the pairs :func:`~motkit.geometry.x_overlap_pairs`
keeps; every other pair is inadmissible, so all three give the same matrix bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import VARIANT_WH, Detection, DetectionFrame, Tracklet, _check_variant, _Tracklets
from .geometry import (
    BROAD_PHASE_MIN_CELLS,
    KERNEL_MIN_CELLS,
    BoxLTRB,
    TrackedSizeLTRB,
    TrackedSizeWH,
    iou_array,
    iou_ltrb,
    tracked_box_ltrb,
    tracked_box_wh,
    x_overlap_pairs,
)

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

    # members compare by identity, so an identity hash keeps Enum's meaning and is no Python call per frame
    __hash__ = object.__hash__


def _check_strategy(strategy: object) -> None:
    """Refuse anything but a :class:`Strategy` member, naming it and the members."""
    if not isinstance(strategy, Strategy):
        raise ValueError(f"unknown strategy {strategy!r}: expected one of {', '.join(map(str, Strategy))}")


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
    _check_variant(variant)
    if variant == VARIANT_WH:
        if not isinstance(det.tracked_size, TrackedSizeWH):
            raise ValueError("detection does not carry wh tracked-size values")
        return tracked_box_wh(det.center, det.size, det.disp, det.tracked_size)
    if not isinstance(det.tracked_size, TrackedSizeLTRB):
        raise ValueError("detection does not carry ltrb tracked-size values")
    return tracked_box_ltrb(det.tracked_size)


def displacement_cost(dets: Sequence[Detection], tracks: Sequence[Tracklet]) -> np.ndarray:
    """Euclidean distance between back-projected centers and tracklet centers.

    A cell is inadmissible when the distance exceeds the detection's size
    gate (sqrt of its box area) or the classes differ.
    """
    frame = DetectionFrame.of(dets)
    tracks = _Tracklets.of(tracks)
    if len(frame) * len(tracks) < KERNEL_MIN_CELLS:
        return _displacement_cost_loop(
            frame.values("back"), frame.values("gate"), frame.values("cls"), tracks.values("centers"),
            tracks.values("classes"),
        )
    back, centers, gate = frame.column("back"), tracks.column("centers"), frame.column("gate")
    # Centers near the float limit overflow these differences to +-inf, and infinite ones make inf - inf = NaN,
    # which the prefilter and math.hypot then reject as the scalar loop's Python floats do, without a warning.
    # hypot >= max(|dx|, |dy|), so the box prefilter keeps every admissible pair;
    # math.hypot then decides the few survivors exactly as the loop does.
    with np.errstate(over="ignore", invalid="ignore"):
        if len(frame) * len(tracks) < BROAD_PHASE_MIN_CELLS:
            dx = back[:, 0:1] - centers[:, 0]
            dy = back[:, 1:2] - centers[:, 1]
            gate_col = gate[:, None]
            rows, cols = np.nonzero((np.abs(dx) <= gate_col) & (np.abs(dy) <= gate_col) & _same_class(frame, tracks))
            dx, dy = dx[rows, cols], dy[rows, cols]
        else:  # only centers within the gate along x, the others fail the prefilter
            x, cx = back[:, 0], centers[:, 0]
            rows, cols = x_overlap_pairs(x - gate, x + gate, cx, cx)
            dx, dy, g = x[rows] - cx[cols], back[:, 1][rows] - centers[:, 1][cols], gate[rows]
            near = (np.abs(dx) <= g) & (np.abs(dy) <= g) & (frame.column("cls")[rows] == tracks.column("classes")[cols])
            rows, cols, dx, dy = rows[near], cols[near], dx[near], dy[near]
    dist = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(rows))
    near = dist <= gate[rows]
    cost = np.full((len(frame), len(tracks)), INADMISSIBLE)
    cost[rows[near], cols[near]] = dist[near]
    return cost


def _displacement_cost_loop(
    back: list, gates: list[float], classes: list[int], centers: list, track_classes: list[int]
) -> np.ndarray:
    # Python floats made one array at the end: on these few cells a numpy scalar store costs more than the cell
    cells = []
    for (bx, by), gate, cls in zip(back, gates, classes):
        for (tx, ty), track_cls in zip(centers, track_classes):
            dist = math.hypot(bx - tx, by - ty) if cls == track_cls else INADMISSIBLE
            cells.append(dist if dist <= gate else INADMISSIBLE)
    return np.array(cells).reshape(len(back), len(centers))


def _same_class(frame: DetectionFrame, tracks: _Tracklets) -> np.ndarray:
    return frame.column("cls")[:, None] == tracks.column("classes")


def iou_cost(
    dets: Sequence[Detection],
    tracks: Sequence[Tracklet],
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
        _check_variant(variant)
        raise ValueError(f"detection does not carry {variant} tracked-size values")
    tracks = _Tracklets.of(tracks)
    if len(frame) * len(tracks) < KERNEL_MIN_CELLS:
        return _iou_cost_loop(
            frame.values("tracked"), frame.values("iou_pred"), frame.values("cls"), tracks.values("boxes"),
            tracks.values("classes"), filter_form,
        )
    last, tracked, pred = tracks.column("boxes"), frame.column("tracked"), frame.column("iou_pred")
    if len(frame) * len(tracks) < BROAD_PHASE_MIN_CELLS:
        return _iou_cells(last[None], tracked[:, None], pred[:, None], _same_class(frame, tracks), filter_form)
    # Any other pair has iw <= 0, so an IOU of 0: inadmissible. take gathers rows far faster than [rows].
    rows, cols = x_overlap_pairs(tracked[:, 0], tracked[:, 2], last[:, 0], last[:, 2])
    same = frame.column("cls")[rows] == tracks.column("classes")[cols]
    cost = np.full((len(frame), len(tracks)), INADMISSIBLE)
    cost[rows, cols] = _iou_cells(last.take(cols, axis=0), tracked.take(rows, axis=0), pred[rows], same, filter_form)
    return cost


def _iou_cells(last: np.ndarray, tracked: np.ndarray, pred: np.ndarray, same: np.ndarray, form: str) -> np.ndarray:
    overlap = iou_array(last, tracked)
    admissible = overlap >= pred if form == FILTER_RATIONALE else (1.0 - overlap) <= pred
    admissible &= (overlap > 0.0) & same
    return np.where(admissible, 1.0 - overlap, INADMISSIBLE)


def _iou_cost_loop(
    tracked: list, preds: list[float], classes: list[int], last: list, track_classes: list[int], filter_form: str
) -> np.ndarray:
    rationale = filter_form == FILTER_RATIONALE
    cells = []  # as in _displacement_cost_loop, one array at the end
    for tb, pred, cls in zip(tracked, preds, classes):
        for box, track_cls in zip(last, track_classes):
            cost = INADMISSIBLE
            if cls == track_cls:
                overlap = iou_ltrb(box, tb)
                if overlap > 0.0 and (overlap >= pred if rationale else (1.0 - overlap) <= pred):
                    cost = 1.0 - overlap
            cells.append(cost)
    return np.array(cells).reshape(len(tracked), len(last))


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
    # Only the admissible cells are visited (NaN < inf is false, so a NaN cell is none).
    # np.nonzero lists them row by row; the stable sort orders each row's by cost, equal costs
    # by lower column. A detection's first free candidate is then the loop's pick: the
    # cheapest free tracklet, ties to the lowest index.
    rows, cols = np.nonzero(cost < INADMISSIBLE)
    candidates = cols[np.lexsort((cost[rows, cols], rows))].tolist()
    bounds = np.searchsorted(rows, np.arange(n_det + 1)).tolist()
    taken = [False] * n_trk
    matches: list[tuple[int, int]] = []
    unmatched_dets: list[int] = []
    for i in det_order:
        for j in candidates[bounds[i] : bounds[i + 1]]:
            if not taken[j]:
                taken[j] = True
                matches.append((i, j))
                break
        else:
            unmatched_dets.append(i)
    unmatched_dets.sort()
    unmatched_trks = [j for j in range(n_trk) if not taken[j]]
    return AssociationResult(matches, unmatched_dets, unmatched_trks)


def _greedy_match_loop(cost: np.ndarray, det_order: Sequence[int]) -> AssociationResult:
    rows = cost.tolist()
    taken = [False] * cost.shape[1]
    matches: list[tuple[int, int]] = []
    unmatched_dets: list[int] = []
    for i in det_order:
        best_j = -1
        best = INADMISSIBLE
        for j, c in enumerate(rows[i]):
            if c < best and not taken[j]:  # NaN < best is false: a NaN cell is never taken
                best = c
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            matches.append((i, best_j))
        else:
            unmatched_dets.append(i)
    unmatched_dets.sort()
    return AssociationResult(matches, unmatched_dets, [j for j, t in enumerate(taken) if not t])


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
    kinds: Sequence[str], dets: DetectionFrame, tracks: Sequence[Tracklet], variant: str, filter_form: str
) -> AssociationResult:
    # The cost functions are looked up by module name on every call, so a
    # wrapper patched onto the module attribute sees each matrix build.
    cost = None
    for kind in kinds:
        m = displacement_cost(dets, tracks) if kind == "dis" else iou_cost(dets, tracks, variant, filter_form)
        cost = m if cost is None else combine(cost, m)
    return greedy_match(cost, confidence_order(dets))


def associate(
    strategy: Strategy,
    dets: Sequence[Detection],
    tracks: Sequence[Tracklet],
    variant: str,
    filter_form: str = FILTER_RATIONALE,
) -> AssociationResult:
    """Run the chosen strategy's greedy rounds and return the frame's assignment.

    Each round matches in confidence order over the sum of its matrices. A
    later round builds fresh matrices from the earlier rounds' leftovers
    only, each matrix keeping its native admissibility gate.
    """
    _check_strategy(strategy)
    frame = DetectionFrame.of(dets)
    tracks = _Tracklets.of(tracks)
    rounds = ROUNDS[strategy]
    result = _greedy_round(rounds[0], frame, tracks, variant, filter_form)
    for kinds in rounds[1:]:
        det_map, trk_map = result.unmatched_detections, result.unmatched_tracklets
        sub = _greedy_round(kinds, frame.take(det_map), tracks.take(trk_map), variant, filter_form)
        result = AssociationResult(
            matches=result.matches + [(det_map[i], trk_map[j]) for i, j in sub.matches],
            unmatched_detections=[det_map[i] for i in sub.unmatched_detections],
            unmatched_tracklets=[trk_map[j] for j in sub.unmatched_tracklets],
        )
    return result
