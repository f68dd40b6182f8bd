"""MOT-challenge text files and the extended per-detection prediction format.

Three row formats live here:

* ground truth:  ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,class,visibility``
* tracker output: ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,-1,-1,-1``
* predictions:   a ``variant: wh|ltrb`` header line, then
  ``frame,cx,cy,w,h,conf,class,dx,dy,<2 or 4 tracked-size values>,iou_pred``

All parsers are pure functions over line iterables; all writers return the
full text. Decimal points only, UTF-8, ``\\n`` endings with optional ``\\r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    box_from_center_size,
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


@dataclass
class Predictions:
    """Per-frame detections parsed from a prediction file."""

    variant: str
    by_frame: dict[int, list[Detection]] = field(default_factory=dict)

    def dense_frames(self) -> list[tuple[int, list[Detection]]]:
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
        yield line_no, parts, frame, track_id, BoxLTRB(left, top, right, bottom), conf


def parse_mot(source: Union[str, Iterable[str]]) -> list[GtEntry]:
    """Parse ground-truth rows into entries, in file order.

    ``bb_left``/``bb_top`` are the top-left corner; width and height convert
    to edge coordinates. Negative sizes and malformed rows raise
    :class:`ParseError` with the line number, as do boxes whose right or
    bottom edge overflows to infinity. The conf column is read as the
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
    """Parse a prediction file into per-frame detection lists, frames ascending.

    Malformed rows raise :class:`ParseError` with the line number, as do rows
    whose detection box or ``wh`` tracked box has an edge that overflows to
    infinity (``ltrb`` tracked edges are the parsed values themselves).
    """
    it = iter(_lines(source))
    try:
        header = next(it).strip()
    except StopIteration:
        raise ParseError(1, "missing 'variant:' header line") from None
    if not header.startswith("variant:"):
        raise ParseError(1, f"missing 'variant:' header line, got {header!r}")
    variant = header.split(":", 1)[1].strip()
    if variant not in VARIANTS:
        raise ParseError(1, f"unknown variant {variant!r}")
    n_ts = 2 if variant == VARIANT_WH else 4
    n_fields = 10 + n_ts

    by_frame: dict[int, list[Detection]] = {}
    for line_no, raw in enumerate(it, start=2):
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
        by_frame.setdefault(frame, []).append(det)

    return Predictions(variant=variant, by_frame=dict(sorted(by_frame.items())))
