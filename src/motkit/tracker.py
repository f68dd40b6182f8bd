"""Frame loop owning tracklet identities: spawn, match, age, retire.

Unmatched tracklets keep their last box and center frozen (no motion model)
and are discarded only after ``lifetime`` consecutive unmatched frames, which
is what lets an identity survive short occlusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .association import FILTER_FORMS, FILTER_RATIONALE, Strategy, _check_strategy, associate
from .formats import _RECORD_COLUMNS, _TRACKLET_COLUMNS, DEFAULT_OUTPUT_THRESHOLD, VARIANT_LTRB, Detection
from .formats import DetectionFrame, Tracklet, TrackRecord, _check_variant, _MotTable, _Tracklets

DEFAULT_LIFETIME = 30


@dataclass(frozen=True)
class TrackerConfig:
    strategy: Strategy = Strategy.IOU
    variant: str = VARIANT_LTRB
    lifetime: int = DEFAULT_LIFETIME
    out_threshold: float = DEFAULT_OUTPUT_THRESHOLD
    iou_filter_form: str = FILTER_RATIONALE

    def __post_init__(self) -> None:
        _check_strategy(self.strategy)
        if self.lifetime < 1:
            raise ValueError("lifetime must be >= 1")
        if not 0.0 <= self.out_threshold <= 1.0:
            raise ValueError("out_threshold must lie in [0, 1]")
        _check_variant(self.variant)
        if self.iou_filter_form not in FILTER_FORMS:
            raise ValueError(f"unknown filter form: {self.iou_filter_form!r}")


@dataclass(frozen=True)
class TrackerState:
    """Live tracklets plus the id counter; ids are never reused."""

    live: Sequence[Tracklet] = ()
    next_id: int = 1
    frame_index: int = 0


def step(
    state: TrackerState, dets: Sequence[Detection], cfg: TrackerConfig
) -> tuple[TrackerState, Sequence[TrackRecord]]:
    """Advance one frame: associate, update, spawn, age, retire.

    Detections at or below the output threshold are dropped first; the rest
    must carry frame number ``state.frame_index + 1``. Matched tracklets take
    their detection's geometry with age reset; unmatched detections spawn
    fresh ids; unmatched tracklets age and are dropped at ``lifetime``. One
    record is emitted per matched or spawned tracklet. The new state and the
    records are columns, updated from the frame's.
    """
    frame_no = state.frame_index + 1
    frame = DetectionFrame.of(dets)
    confs = frame.values("conf")
    if confs and min(confs) <= cfg.out_threshold:
        frame = frame.take([i for i, c in enumerate(confs) if c > cfg.out_threshold])
    numbers = frame.values("frame")
    if numbers.count(frame_no) != len(numbers):
        bad = next(f for f in numbers if f != frame_no)
        raise ValueError(f"detection frame {bad} does not match tracker frame {frame_no}")

    live = _Tracklets.of(state.live)
    result = associate(cfg.strategy, frame, live, cfg.variant, cfg.iou_filter_form)
    centers, boxes, confs = frame.values("center"), frame.values("box"), frame.values("conf")
    # One pass over the matches in tracklet order writes their records and their detections' geometry at age 0
    # into copies of the live columns, the other tracklets aging by one; then those at lifetime retire, and the
    # spawns join the records and the tracklets.
    ids = live.values("ids")
    last_centers, last_boxes, last_confs = live.values("centers")[:], live.values("boxes")[:], live.values("confs")[:]
    ages = [age + 1 for age in live.values("ages")]
    rec_ids, rec_boxes, rec_confs = [], [], []
    for i, j in sorted(result.matches, key=itemgetter(1)):
        box, conf = boxes[i], confs[i]
        rec_ids.append(ids[j])
        rec_boxes.append(box)
        rec_confs.append(conf)
        last_centers[j], last_boxes[j], last_confs[j], ages[j] = centers[i], box, conf, 0
    columns = [ids, last_centers, last_boxes, live.values("classes"), last_confs, ages]
    if ages and max(ages) >= cfg.lifetime:
        kept = [j for j, age in enumerate(ages) if age < cfg.lifetime]
        columns = [[column[j] for j in kept] for column in columns]
    spawned = result.unmatched_detections
    next_id = state.next_id + len(spawned)
    if spawned:
        new_ids, classes = list(range(state.next_id, next_id)), frame.values("cls")
        spawn_boxes, spawn_confs = [boxes[i] for i in spawned], [confs[i] for i in spawned]
        spawns = [new_ids, [centers[i] for i in spawned], spawn_boxes, [classes[i] for i in spawned], spawn_confs,
                  [0] * len(spawned)]
        columns = [old + new for old, new in zip(columns, spawns)]
        rec_ids, rec_boxes, rec_confs = rec_ids + new_ids, rec_boxes + spawn_boxes, rec_confs + spawn_confs
    records = _MotTable([frame_no] * len(rec_ids), rec_ids, rec_boxes, rec_confs)
    next_live = _Tracklets(len(columns[0]), dict(zip(_TRACKLET_COLUMNS, columns)), {})
    return TrackerState(next_live, next_id, frame_no), records


def run_sequence(
    frames: Iterable[tuple[int, Sequence[Detection]]], cfg: TrackerConfig
) -> Sequence[TrackRecord]:
    """Fold :func:`step` over ``(frame, detections)`` pairs in ascending frame order, from an empty state.

    A frame number left out is an empty frame. ``lifetime`` empty frames in a
    row retire every tracklet, so such a gap is not stepped through: the
    frame after it starts from an empty live table, and its ids continue the
    earlier ones. The work is bounded by the number of pairs times
    ``lifetime``, however far apart the frame numbers lie. A frame number that
    does not ascend raises ``ValueError``. Output is deterministic for a fixed
    input and config; the records are one table of columns.
    """
    columns: tuple[list, ...] = ([], [], [], [])
    state: TrackerState | None = None
    for frame_no, dets in frames:
        if state is not None and frame_no <= state.frame_index:
            raise ValueError(f"frame numbers do not ascend: {state.frame_index} -> {frame_no}")
        if state is None or frame_no - state.frame_index > cfg.lifetime:
            state = TrackerState(next_id=1 if state is None else state.next_id, frame_index=frame_no - 1)
        while state.frame_index + 1 < frame_no:
            state, _ = step(state, (), cfg)
        state, recs = step(state, dets, cfg)
        for column, name in zip(columns, _RECORD_COLUMNS):
            column += recs.values(name)
    return _MotTable(*columns)
