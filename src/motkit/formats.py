"""MOT-challenge text files and the extended per-detection prediction format.

Three row formats live here:

* ground truth:  ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,class,visibility``
* tracker output: ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,-1,-1,-1``
* predictions:   a ``variant: wh|ltrb`` header line, then
  ``frame,cx,cy,w,h,conf,class,dx,dy,<2 or 4 tracked-size values>,iou_pred``

All parsers are pure functions over line iterables; all writers return the
full text. Decimal points only, UTF-8, ``\\n`` endings with optional ``\\r``.
Parsed predictions come back as :class:`DetectionFrame` columns, one frame
at a time, which is what association and the tracker read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    box_from_center_size,
    tracked_box_ltrb,
    tracked_box_wh,
)

VARIANT_WH = "wh"
VARIANT_LTRB = "ltrb"
VARIANTS = (VARIANT_WH, VARIANT_LTRB)


class ParseError(ValueError):
    """Malformed input row; the message names the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Detection:
    """One detected object in one frame, with its predicted channels."""

    frame: int
    center: Point2
    size: Size2
    confidence: float
    class_id: int
    disp: Displacement
    tracked_size: Union[TrackedSizeWH, TrackedSizeLTRB]
    iou_pred: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence outside [0, 1]: {self.confidence}")
        if not 0.0 <= self.iou_pred <= 1.0:
            raise ValueError(f"iou_pred outside [0, 1]: {self.iou_pred}")

    def box(self) -> BoxLTRB:
        return box_from_center_size(self.center, self.size)

    @property
    def variant(self) -> str:
        return VARIANT_WH if isinstance(self.tracked_size, TrackedSizeWH) else VARIANT_LTRB


@dataclass(frozen=True)
class GtEntry:
    """One ground-truth box; ``consider`` False marks MOT's ignore regions."""

    frame: int
    track_id: int
    box: BoxLTRB
    class_id: int
    visibility: float
    consider: bool = True


@dataclass(frozen=True)
class TrackRecord:
    """One tracker output row."""

    frame: int
    track_id: int
    box: BoxLTRB
    confidence: float


#: The columns association and the tracker read as Python lists.
_LOOP_COLUMNS = ("frame", "cls", "conf", "iou_pred", "center", "box", "tracked", "back", "gate")


class _DetectionTable:
    """Detection rows as numpy columns, plus the columns every consumer derives from them.

    Input columns: ``frame`` and ``cls`` (integers); ``center``, ``size`` and
    ``disp`` (``(n, 2)``); ``conf`` and ``iou_pred``; ``ts``, the tracked-size
    values (``(n, 2)`` for ``wh``, ``(n, 4)`` for ``ltrb``, None when the rows
    mix variants). Derived columns take their scalar function's float
    operations in the same order, so each equals it bit for bit: ``box``
    (``Detection.box``), ``tracked`` (``association.tracked_box``; None without
    a variant), ``back`` (the back-projected center ``center - disp``) and
    ``gate`` (``geometry.size_gate``).
    """

    def __init__(self, variant, frame, cls, center, size, conf, disp, ts, iou_pred, objects=None):
        self.variant: Optional[str] = variant
        self.frame, self.cls, self.conf, self.iou_pred = frame, cls, conf, iou_pred
        self.center, self.size, self.disp, self.ts = center, size, disp, ts
        self.objects: Optional[list[Detection]] = objects  # the framed list, if any
        # Finite inputs can derive infinite edges and areas: the prediction
        # parser screens these columns for exactly that overflow.
        with np.errstate(over="ignore"):
            half = size / 2.0
            self.box = np.concatenate((center - half, center + half), axis=1)
            self.back = center - disp
            self.gate = np.sqrt(size[:, 0] * size[:, 1])
            if variant == VARIANT_WH:
                prev = size - ts
                half = np.where(prev > 0.0, prev, 0.0) / 2.0  # max(0.0, w - dw)
                self.tracked = np.concatenate((self.back - half, self.back + half), axis=1)
            elif variant == VARIANT_LTRB:
                # sorted((a, b)) swaps only where b < a; a mask keeps signed zeros in place
                lo, hi = ts[:, :2], ts[:, 2:]
                swap = hi < lo
                self.tracked = np.concatenate((np.where(swap, hi, lo), np.where(swap, lo, hi)), axis=1)
            else:  # no rows, or rows of mixed variants
                self.tracked = None if len(center) else np.empty((0, 4))
        # The lists the frame loop reads, made here so that no frame pays for them.
        self.lists: dict[str, list] = {
            name: getattr(self, name).tolist() for name in _LOOP_COLUMNS if getattr(self, name) is not None
        }

    @classmethod
    def of_detections(cls, dets: list[Detection]) -> "_DetectionTable":
        variants = {d.variant for d in dets}
        variant = variants.pop() if len(variants) == 1 else None

        def pairs(get) -> np.ndarray:
            return np.array([get(d) for d in dets], dtype=float).reshape(len(dets), 2)

        ts = np.array([_ts_fields(d) for d in dets], dtype=float) if variant else None
        return cls(
            variant,
            np.array([d.frame for d in dets]),
            np.array([d.class_id for d in dets]),
            pairs(lambda d: (d.center.x, d.center.y)),
            pairs(lambda d: (d.size.w, d.size.h)),
            np.array([d.confidence for d in dets], dtype=float),
            pairs(lambda d: (d.disp.dx, d.disp.dy)),
            ts,
            np.array([d.iou_pred for d in dets], dtype=float),
            objects=dets,
        )

    def detection(self, row: int) -> Detection:
        if self.objects is not None:
            return self.objects[row]
        lists = self.lists
        ts_type = TrackedSizeWH if self.variant == VARIANT_WH else TrackedSizeLTRB
        return Detection(
            frame=lists["frame"][row],
            center=Point2(*lists["center"][row]),
            size=Size2(*self.size[row].tolist()),
            confidence=lists["conf"][row],
            class_id=lists["cls"][row],
            disp=Displacement(*self.disp[row].tolist()),
            tracked_size=ts_type(*self.ts[row].tolist()),
            iou_pred=lists["iou_pred"][row],
        )


class DetectionFrame(Sequence[Detection]):
    """One frame's detections, read as columns.

    A frame is a set of rows of a table of detection columns (see
    :class:`_DetectionTable` for the names). :func:`parse_predictions` makes one
    table per file and each frame a slice of it, so every column is derived
    once per file. :meth:`column` reads a column as a numpy array and
    :meth:`values` as a Python list, sliced when the frame is made from the
    lists the table makes once; the scalar loops read those. Indexing and
    iteration yield :class:`Detection` objects equal to the rows.
    """

    def __init__(self, table: _DetectionTable, rows: Union[slice, list[int]]):
        self._table = table
        self._rows = rows
        if isinstance(rows, slice):
            self._values = {name: whole[rows] for name, whole in table.lists.items()}
        else:
            self._values = {name: [whole[r] for r in rows] for name, whole in table.lists.items()}
        self._len = len(self._values["frame"])
        self._columns: dict[str, np.ndarray] = {}

    @classmethod
    def of(cls, dets: Sequence[Detection]) -> "DetectionFrame":
        """``dets`` if it is a frame already, else a frame over a table of its objects."""
        if isinstance(dets, DetectionFrame):
            return dets
        dets = list(dets)
        return cls(_DetectionTable.of_detections(dets), slice(0, len(dets)))

    @property
    def variant(self) -> Optional[str]:
        """The tracked-size variant of every row; None if they mix variants or there are none."""
        return self._table.variant

    def column(self, name: str) -> np.ndarray:
        col = self._columns.get(name)
        if col is None:
            col = self._columns[name] = getattr(self._table, name)[self._rows]
        return col

    def values(self, name: str) -> list:
        return self._values[name]

    def take(self, indices: Iterable[int]) -> "DetectionFrame":
        """The frame of the given rows of this one, in the given order."""
        rows = self._rows
        if isinstance(rows, slice):
            return DetectionFrame(self._table, [rows.start + i for i in indices])
        return DetectionFrame(self._table, [rows[i] for i in indices])

    def _table_rows(self) -> Sequence[int]:
        rows = self._rows
        return range(rows.start, rows.stop) if isinstance(rows, slice) else rows

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(self._len)[index])
        return self._table.detection(self._table_rows()[index])

    def __iter__(self) -> Iterator[Detection]:
        return map(self._table.detection, self._table_rows())

    def __repr__(self) -> str:
        return f"DetectionFrame({list(self)!r})"


@dataclass
class Predictions:
    """Per-frame detections parsed from a prediction file."""

    variant: str
    by_frame: dict[int, DetectionFrame] = field(default_factory=dict)

    def dense_frames(self) -> list[tuple[int, Sequence[Detection]]]:
        """Contiguous (frame, detections) pairs from the first to the last frame.

        Frames with no detections appear with an empty list, which is what the
        tracker loop consumes. Empty input gives an empty list.
        """
        if not self.by_frame:
            return []
        first, last = min(self.by_frame), max(self.by_frame)
        return [(f, self.by_frame.get(f, [])) for f in range(first, last + 1)]


def _lines(source: Union[str, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, str):
        return source.splitlines()
    return source


def _fmt(x: float) -> str:
    # repr round-trips through float(); integral values print without the
    # trailing .0 like hand-written MOT files do.
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _float(field_text: str, line_no: int, name: str) -> float:
    if "_" in field_text:
        raise ParseError(line_no, f"bad {name}: {field_text!r}")
    try:
        value = float(field_text)
    except ValueError:
        raise ParseError(line_no, f"bad {name}: {field_text!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"non-finite {name}: {field_text!r}")
    return value


def _int(field_text: str, line_no: int, name: str) -> int:
    if "_" in field_text:
        raise ParseError(line_no, f"bad {name}: {field_text!r}")
    try:
        if "." not in field_text:
            return int(field_text)
        value = float(field_text)
    except ValueError:
        raise ParseError(line_no, f"bad {name}: {field_text!r}") from None
    if not value.is_integer():
        raise ParseError(line_no, f"non-integral {name}: {field_text!r}")
    return int(value)


def _mot_rows(
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
        # Finite edges can still span an infinite area (BoxLTRB.area), whose IOU is NaN.
        if not math.isfinite((right - left) * (bottom - top)):
            raise ParseError(line_no, f"box area overflows: ({left}, {top}, {right}, {bottom})")
        yield line_no, parts, frame, track_id, BoxLTRB(left, top, right, bottom), conf


def _check_area(box: BoxLTRB, line_no: int, name: str) -> None:
    if not math.isfinite(box.area):
        raise ParseError(
            line_no, f"{name} area overflows: ({box.left}, {box.top}, {box.right}, {box.bottom})"
        )


def parse_mot(source: Union[str, Iterable[str]]) -> list[GtEntry]:
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
        for line_no, parts, frame, track_id, box, conf in _mot_rows(source, 9)
    ]


def write_gt(entries: Iterable[GtEntry]) -> str:
    """Ground-truth rows, sorted by (frame, id)."""
    rows = []
    for e in sorted(entries, key=lambda e: (e.frame, e.track_id)):
        rows.append(
            ",".join(
                (
                    str(e.frame),
                    str(e.track_id),
                    _fmt(e.box.left),
                    _fmt(e.box.top),
                    _fmt(e.box.width),
                    _fmt(e.box.height),
                    "1" if e.consider else "0",
                    str(e.class_id),
                    _fmt(e.visibility),
                )
            )
        )
    return "".join(r + "\n" for r in rows)


def write_mot(records: Iterable[TrackRecord]) -> str:
    """Tracker output rows, sorted by (frame, id)."""
    rows = []
    for r in sorted(records, key=lambda r: (r.frame, r.track_id)):
        rows.append(
            ",".join(
                (
                    str(r.frame),
                    str(r.track_id),
                    _fmt(r.box.left),
                    _fmt(r.box.top),
                    _fmt(r.box.width),
                    _fmt(r.box.height),
                    _fmt(r.confidence),
                    "-1",
                    "-1",
                    "-1",
                )
            )
        )
    return "".join(r + "\n" for r in rows)


def parse_track_file(source: Union[str, Iterable[str]]) -> list[TrackRecord]:
    """Parse tracker output rows (the :func:`write_mot` format) back into records."""
    return [
        TrackRecord(frame, track_id, box, conf)
        for _, _, frame, track_id, box, conf in _mot_rows(source, 10)
    ]


def _ts_fields(det: Detection) -> tuple[float, ...]:
    ts = det.tracked_size
    if isinstance(ts, TrackedSizeWH):
        return (ts.dw, ts.dh)
    return (ts.left, ts.top, ts.right, ts.bottom)


def write_predictions(variant: str, frames: Iterable[tuple[int, list[Detection]]]) -> str:
    """Prediction file text: header line plus one row per detection."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    out = [f"variant: {variant}\n"]
    for frame_no, dets in frames:
        for d in dets:
            if d.variant != variant:
                raise ValueError(f"detection variant {d.variant} does not match file variant {variant}")
            fields = (
                [str(frame_no), _fmt(d.center.x), _fmt(d.center.y), _fmt(d.size.w), _fmt(d.size.h),
                 _fmt(d.confidence), str(d.class_id), _fmt(d.disp.dx), _fmt(d.disp.dy)]
                + [_fmt(v) for v in _ts_fields(d)]
                + [_fmt(d.iou_pred)]
            )
            out.append(",".join(fields) + "\n")
    return "".join(out)


def parse_predictions(source: Union[str, Iterable[str]]) -> Predictions:
    """Parse a prediction file into per-frame detection frames, frames ascending.

    Malformed rows raise :class:`ParseError` with the line number, as do rows
    whose detection box or ``wh`` tracked box has an edge that overflows to
    infinity (``ltrb`` tracked edges are the parsed values themselves), or
    whose detection or tracked box has an area that does.

    The whole file is converted column by column and screened. Only a file
    that fails the screen takes the row-by-row parse, which names the first
    bad line, or frames the rows it accepts.
    """
    lines = list(_lines(source))
    if not lines:
        raise ParseError(1, "missing 'variant:' header line")
    header = lines[0].strip()
    if not header.startswith("variant:"):
        raise ParseError(1, f"missing 'variant:' header line, got {header!r}")
    variant = header.split(":", 1)[1].strip()
    if variant not in VARIANTS:
        raise ParseError(1, f"unknown variant {variant!r}")
    by_frame = _prediction_columns([r for r in map(str.strip, lines[1:]) if r], variant)
    if by_frame is None:
        rows = _prediction_rows(lines[1:], variant)
        by_frame = {f: DetectionFrame.of(dets) for f, dets in rows.items()}
    return Predictions(variant=variant, by_frame=by_frame)


def _prediction_columns(rows: list[str], variant: str) -> Optional[dict[int, DetectionFrame]]:
    """The stripped, non-blank rows as frames of one table, or None if a row fails the screen.

    The screen passes only files whose every row :func:`_prediction_rows` would
    accept with the same values: the same field count, no ``_``, integer and
    float fields that Python's ``int`` and ``float`` convert, and the same
    range, finiteness and overflow checks.
    """
    n_ts = 2 if variant == VARIANT_WH else 4
    n_fields = 10 + n_ts
    if not rows:
        return {}
    text = ",".join(rows)
    if "_" in text or set(map(str.count, rows, repeat(","))) != {n_fields - 1}:
        return None
    fields = text.split(",")
    float_fields = (1, 2, 3, 4, 5, *range(7, n_fields))  # all but frame and class
    try:
        frame = np.array(list(map(int, fields[0::n_fields])))
        cls = np.array(list(map(int, fields[6::n_fields])))
        floats = np.array([list(map(float, fields[f::n_fields])) for f in float_fields])
    except ValueError:
        return None
    if frame.dtype.kind != "i" or frame.min() < 1 or not np.isfinite(floats).all():
        return None
    if (frame[1:] < frame[:-1]).any():
        order = np.argsort(frame, kind="stable")
        frame, cls, floats = frame[order], cls[order], floats[:, order]
    columns = floats.T
    size, conf, iou_pred = columns[:, 2:4], columns[:, 4], columns[:, -1]
    if not ((size >= 0.0).all() and _in_unit(conf) and _in_unit(iou_pred)):
        return None
    table = _DetectionTable(
        variant, frame, cls, columns[:, 0:2], size, conf, columns[:, 5:7], columns[:, 7:-1], iou_pred
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for box in (table.box, table.tracked):
            area = (box[:, 2] - box[:, 0]) * (box[:, 3] - box[:, 1])
            if not (np.isfinite(box).all() and np.isfinite(area).all()):
                return None
    bounds = [0, *(np.flatnonzero(frame[1:] != frame[:-1]) + 1).tolist(), len(rows)]
    numbers = frame[bounds[:-1]].tolist()
    return {f: DetectionFrame(table, slice(a, b)) for f, a, b in zip(numbers, bounds, bounds[1:])}


def _in_unit(values: np.ndarray) -> bool:
    return bool(((values >= 0.0) & (values <= 1.0)).all())


def _prediction_rows(lines: Iterable[str], variant: str) -> dict[int, list[Detection]]:
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
        _check_area(det.box(), line_no, "box")
        _check_area(tracked, line_no, "tracked box")
        by_frame.setdefault(frame, []).append(det)
    return dict(sorted(by_frame.items()))
