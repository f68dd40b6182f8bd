"""Frame loop owning tracklet identities: spawn, match, age, retire.

Unmatched tracklets keep their last box and center frozen (no motion model)
and are discarded only after ``lifetime`` consecutive unmatched frames, which
is what lets an identity survive short occlusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .association import FILTER_FORMS, FILTER_RATIONALE, Strategy, associate
from .formats import _RECORD_COLUMNS, VARIANTS, Detection, DetectionFrame, TrackRecord, _int_column, _MotTable, _Rows
from .geometry import BoxLTRB, Point2, ltrb
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


class _Tracklets(_Rows):
    """Live tracklets as columns: the state :func:`step` updates and association reads.

    The columns are Python lists with one entry per tracklet: ``ids``,
    ``centers`` (``[x, y]``), ``boxes`` (ltrb edges), ``classes``, ``confs``
    and ``ages`` (Python ints, so any ``lifetime`` compares exactly).
    :meth:`column` reads ``centers``, ``boxes`` or ``classes`` as a numpy
    array, made once, for the kernel paths. Indexing and iteration yield :class:`Tracklet` objects, built on
    first use; the table equals any sequence of equal tracklets and prints as
    their tuple.
    """

    def __init__(self, ids, centers, boxes, classes, confs, ages, objects=None):
        self.ids, self.centers, self.boxes = ids, centers, boxes
        self.classes, self.confs, self.ages = classes, confs, ages
        self._objects: Optional[tuple[Tracklet, ...]] = objects
        self._columns: dict[str, np.ndarray] = {}

    @classmethod
    def of(cls, tracks: Sequence[Tracklet]) -> "_Tracklets":
        """``tracks`` if it is a table already, else a table over its objects."""
        if isinstance(tracks, _Tracklets):
            return tracks
        tracks = tuple(tracks)
        if not tracks:  # a fresh state: the shared empty table, not a new one per sequence
            return _NO_TRACKLETS
        return cls(
            [t.track_id for t in tracks],
            [(t.last_center.x, t.last_center.y) for t in tracks],
            [ltrb(t.last_box) for t in tracks],
            [t.class_id for t in tracks],
            [t.last_confidence for t in tracks],
            [t.age for t in tracks],
            objects=tracks,
        )

    def column(self, name: str) -> np.ndarray:
        col = self._columns.get(name)
        if col is None:
            values = getattr(self, name)
            col = self._columns[name] = _int_column(values) if name == "classes" else np.array(values)
        return col

    def take(self, rows: Sequence[int]) -> "_Tracklets":
        """The table of the given rows of this one, in the given order."""
        columns = (self.ids, self.centers, self.boxes, self.classes, self.confs, self.ages)
        return _Tracklets(*([column[j] for j in rows] for column in columns))

    def _rows(self) -> tuple[Tracklet, ...]:
        if self._objects is None:
            self._objects = tuple(
                Tracklet(i, Point2(*c), BoxLTRB(*b), k, f, a)
                for i, c, b, k, f, a in zip(self.ids, self.centers, self.boxes, self.classes, self.confs, self.ages)
            )
        return self._objects

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        return self._rows()[index]

    def __iter__(self) -> Iterator[Tracklet]:
        return iter(self._rows())

    def __hash__(self) -> int:
        return hash(self._rows())

    def __repr__(self) -> str:
        return repr(self._rows())


_NO_TRACKLETS = _Tracklets([], [], [], [], [], [], objects=())


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

    ``dets`` must already be filtered to confidence above the output
    threshold and carry frame number ``state.frame_index + 1``. Matched
    tracklets take their detection's geometry with age reset; unmatched
    detections spawn fresh ids; unmatched tracklets age and are dropped at
    ``lifetime``. One record is emitted per matched or spawned tracklet. The
    new state and the records are columns, updated from the frame's.
    """
    frame_no = state.frame_index + 1
    frame = DetectionFrame.of(dets)
    numbers = frame.values("frame")
    if numbers.count(frame_no) != len(numbers):
        bad = next(f for f in numbers if f != frame_no)
        raise ValueError(f"detection frame {bad} does not match tracker frame {frame_no}")

    live = _Tracklets.of(state.live)
    result = associate(cfg.strategy, frame, live, cfg.variant, cfg.iou_filter_form)
    centers, boxes, confs = frame.values("center"), frame.values("box"), frame.values("conf")
    spawned = result.unmatched_detections
    pairs = sorted(result.matches, key=itemgetter(1))  # in tracklet order
    # the detection rows the records are made from: matched tracklets in their order, then the spawns
    emitted = [i for i, _ in pairs] + spawned
    if not frame.boxes_in_order():
        for i in emitted:  # BoxLTRB's error for the first box out of order
            BoxLTRB(*boxes[i])
    new_ids = list(range(state.next_id, state.next_id + len(spawned)))
    records = _MotTable(
        [frame_no] * len(emitted),
        [live.ids[j] for _, j in pairs] + new_ids,
        [boxes[i] for i in emitted],
        [confs[i] for i in emitted],
    )

    # Every tracklet ages, and a matched one takes its detection's geometry at age 0; then the
    # ones at lifetime retire and the spawns join.
    last_centers, last_boxes, last_confs = live.centers[:], live.boxes[:], live.confs[:]
    ages = [age + 1 for age in live.ages]
    for i, j in pairs:
        last_centers[j], last_boxes[j], last_confs[j], ages[j] = centers[i], boxes[i], confs[i], 0
    columns = [live.ids, last_centers, last_boxes, live.classes, last_confs, ages]
    if ages and max(ages) >= cfg.lifetime:
        kept = [j for j, age in enumerate(ages) if age < cfg.lifetime]
        columns = [[column[j] for j in kept] for column in columns]
    if spawned:
        classes = frame.values("cls")
        spawns = [new_ids, [centers[i] for i in spawned], [boxes[i] for i in spawned], [classes[i] for i in spawned],
                  [confs[i] for i in spawned], [0] * len(spawned)]
        columns = [old + new for old, new in zip(columns, spawns)]
    next_live = _Tracklets(*columns)
    return TrackerState(next_live, state.next_id + len(spawned), frame_no), records


def _joined(parts: Iterable[_MotTable]) -> _MotTable:
    """One table of the rows of ``parts``, in order."""
    columns: tuple[list, ...] = ([], [], [], [])
    for part in parts:
        for column, name in zip(columns, _RECORD_COLUMNS):
            column += part.values(name)
    return _MotTable(*columns)


def run_sequence(
    frames: Iterable[tuple[int, Sequence[Detection]]], cfg: TrackerConfig
) -> Sequence[TrackRecord]:
    """Fold :func:`step` over contiguous frames starting from an empty state.

    Detections at or below the output threshold are dropped before
    association. Output is deterministic for a fixed input and config; the
    records are one table of columns.
    """
    parts: list[_MotTable] = []
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
        parts.append(recs)
    return _joined(parts)


def run_frames(by_frame: Mapping[int, Sequence[Detection]], cfg: TrackerConfig) -> Sequence[TrackRecord]:
    """:func:`run_sequence` over every frame from the first to the last key, a missing one empty.

    ``lifetime`` empty frames in a row retire every tracklet, so such a gap
    is not stepped through: the frames after it run as a new sequence whose
    ids continue the last one's. The work is bounded by the number of keys
    times ``lifetime``, however far apart the frame numbers lie.
    """
    numbers = sorted(by_frame)
    starts = [k for k in range(len(numbers)) if k == 0 or numbers[k] - numbers[k - 1] > cfg.lifetime]
    parts: list[_MotTable] = []
    spawned = 0
    for a, b in zip(starts, [*starts[1:], len(numbers)]):
        frames = ((f, by_frame.get(f, [])) for f in range(numbers[a], numbers[b - 1] + 1))
        run = run_sequence(frames, cfg)
        # every spawn emits a record, so the run's ids are 1 .. its largest
        ids = run.values("id")
        if spawned:
            ids = [i + spawned for i in ids]
            run = _MotTable(run.values("frame"), ids, run.values("box"), run.values("conf"))
        parts.append(run)
        spawned = max(ids, default=spawned)
    return _joined(parts)
