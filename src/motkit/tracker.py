"""Frame loop owning tracklet identities: spawn, match, age, retire.

Unmatched tracklets keep their last box and center frozen (no motion model)
and are discarded only after ``lifetime`` consecutive unmatched frames, which
is what lets an identity survive short occlusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .association import FILTER_FORMS, FILTER_RATIONALE, Strategy, associate
from .formats import Detection, DetectionFrame, TrackRecord, VARIANTS
from .geometry import BoxLTRB, Point2
from .heatmap import DEFAULT_OUTPUT_THRESHOLD

DEFAULT_LIFETIME = 30


@dataclass(frozen=True)
class Tracklet:
    """A live identity; ``age`` counts frames since the last match."""

    track_id: int
    last_center: Point2
    last_box: BoxLTRB
    class_id: int
    last_confidence: float
    age: int = 0


@dataclass(frozen=True)
class TrackerConfig:
    strategy: Strategy = Strategy.IOU
    variant: str = "ltrb"
    lifetime: int = DEFAULT_LIFETIME
    out_threshold: float = DEFAULT_OUTPUT_THRESHOLD
    iou_filter_form: str = FILTER_RATIONALE

    def __post_init__(self) -> None:
        if self.lifetime < 1:
            raise ValueError("lifetime must be >= 1")
        if not 0.0 <= self.out_threshold <= 1.0:
            raise ValueError("out_threshold must lie in [0, 1]")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if self.iou_filter_form not in FILTER_FORMS:
            raise ValueError(f"unknown filter form: {self.iou_filter_form!r}")


@dataclass(frozen=True)
class TrackerState:
    """Live tracklets plus the id counter; ids are never reused."""

    live: tuple[Tracklet, ...] = ()
    next_id: int = 1
    frame_index: int = 0


def step(
    state: TrackerState, dets: Sequence[Detection], cfg: TrackerConfig
) -> tuple[TrackerState, list[TrackRecord]]:
    """Advance one frame: associate, update, spawn, age, retire.

    ``dets`` must already be filtered to confidence above the output
    threshold and carry frame number ``state.frame_index + 1``. Matched
    tracklets take their detection's geometry with age reset; unmatched
    detections spawn fresh ids; unmatched tracklets age and are dropped at
    ``lifetime``. One record is emitted per matched or spawned tracklet.
    """
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


def run_sequence(
    frames: Iterable[tuple[int, Sequence[Detection]]], cfg: TrackerConfig
) -> list[TrackRecord]:
    """Fold :func:`step` over contiguous frames starting from an empty state.

    Detections at or below the output threshold are dropped before
    association. Output is deterministic for a fixed input and config.
    """
    records: list[TrackRecord] = []
    state: TrackerState | None = None
    prev_frame: int | None = None
    for frame_no, dets in frames:
        if prev_frame is not None and frame_no != prev_frame + 1:
            raise ValueError(f"non-contiguous frame numbers: {prev_frame} -> {frame_no}")
        prev_frame = frame_no
        if state is None:
            state = TrackerState(frame_index=frame_no - 1)
        kept = DetectionFrame.of(dets)
        confs = kept.values("conf")
        if confs and min(confs) <= cfg.out_threshold:
            kept = kept.take([i for i, c in enumerate(confs) if c > cfg.out_threshold])
        state, recs = step(state, kept, cfg)
        records.extend(recs)
    return records


def run_frames(by_frame: Mapping[int, Sequence[Detection]], cfg: TrackerConfig) -> list[TrackRecord]:
    """:func:`run_sequence` over every frame from the first to the last key, a missing one empty.

    ``lifetime`` empty frames in a row retire every tracklet, so such a gap
    is not stepped through: the frames after it run as a new sequence whose
    ids continue the last one's. The work is bounded by the number of keys
    times ``lifetime``, however far apart the frame numbers lie.
    """
    numbers = sorted(by_frame)
    starts = [k for k in range(len(numbers)) if k == 0 or numbers[k] - numbers[k - 1] > cfg.lifetime]
    records: list[TrackRecord] = []
    spawned = 0
    for a, b in zip(starts, [*starts[1:], len(numbers)]):
        frames = ((f, by_frame.get(f, [])) for f in range(numbers[a], numbers[b - 1] + 1))
        run = run_sequence(frames, cfg)
        # every spawn emits a record, so the run's ids are 1 .. its largest
        if spawned:
            run = [TrackRecord(r.frame, r.track_id + spawned, r.box, r.confidence) for r in run]
        records += run
        spawned = max((r.track_id for r in run), default=spawned)
    return records
