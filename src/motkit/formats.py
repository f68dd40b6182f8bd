"""MOT-challenge text files and the extended per-detection prediction format.

Three row formats live here:

* ground truth:  ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,class,visibility``
* tracker output: ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,-1,-1,-1``
* predictions:   a ``variant: wh|ltrb`` header line, then
  ``frame,cx,cy,w,h,conf,class,dx,dy,<2 or 4 tracked-size values>,iou_pred``

All parsers are pure functions over line iterables; all writers return the
full text. Decimal points only, UTF-8, ``\\n`` endings with optional ``\\r``.

Each format is a table of fields with their range and derived-box checks.
One column path converts and screens a whole file by that table, as
py-motmetrics' ``motmetrics.io.loadtxt`` reads MOT files column-wise; one
error finder names a refused file's first bad row. Parsed and simulated predictions
are :class:`DetectionFrame` columns, which association, the tracker and the writer read;
parsed ground truth and tracker output are tables of columns, which the scorers read.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    box_from_center_size,
    ltrb,
)

VARIANT_WH = "wh"
VARIANT_LTRB = "ltrb"
VARIANTS = (VARIANT_WH, VARIANT_LTRB)


def _check_variant(variant: object) -> None:
    """Refuse anything but a tracked-size variant, naming it."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")


class ParseError(ValueError):
    """Malformed input row; the message names the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


DEFAULT_OUTPUT_THRESHOLD = 0.4  # the confidence a detection must exceed to be tracked or decoded


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


class _Table(Sequence):
    """Rows as named columns, each held as a Python list, a numpy array or both.

    A table holds its columns, or is a view of another table's rows (a slice
    or a list of row numbers) made by :meth:`take`, which reads that table's
    columns and copies its rows of one only when the column is read; a slice
    view takes its part of the table's lists as it is made.
    :meth:`values` reads a column as a list and :meth:`column` as an array;
    each form is made from the other once, on first read, an array by the
    column's kind in ``_KINDS`` (``int``, ``float`` or a row width). Indexing
    and iteration yield row objects, those the table was framed from or built
    from the columns on first use by ``_build``; the table equals any sequence
    of equal rows and prints as their list (or tuple).
    """

    _KINDS: dict = {}
    _REPR = "{!r}"
    _table: Optional["_Table"] = None  # the table a view reads, and its rows there
    _index: Union[slice, list[int], None] = None

    def __init__(self, n: int, lists: dict, arrays: dict, objects=None):
        """A table of ``n`` rows and its own columns, by name; ``objects`` are its rows if it is framed from them."""
        self._lists: dict[str, list] = lists
        self._arrays: dict[str, np.ndarray] = arrays
        self._built, self._len = objects, n

    def _view_of(self, table: "_Table", rows: Union[slice, list[int]]) -> None:
        """Make this table the view of ``table``'s ``rows``; a slice takes its part of each list ``table`` holds."""
        self._table, self._index, self._built, self._arrays = table, rows, None, {}
        if isinstance(rows, slice):
            self._lists = {name: whole[rows] for name, whole in table._lists.items()}
            self._len = rows.stop - rows.start
        else:
            self._lists, self._len = {}, len(rows)

    def _has(self, name: str) -> bool:
        root = self if self._table is None else self._table
        return name in root._lists or name in root._arrays

    def values(self, name: str) -> list:
        """A column as a Python list, made once."""
        try:
            return self._lists[name]
        except KeyError:
            rows = self._index
            if rows is None:
                got = self._arrays[name].tolist()
            else:
                whole = self._table.values(name)
                got = whole[rows] if isinstance(rows, slice) else [whole[r] for r in rows]
            self._lists[name] = got
            return got

    def column(self, name: str) -> np.ndarray:
        """A column as a numpy array, made once."""
        got = self._arrays.get(name)
        if got is None:
            if self._table is not None and name in self._table._arrays:
                whole, rows = self._table._arrays[name], self._index
                got = whole[rows] if isinstance(rows, slice) else whole.take(rows, axis=0)
            else:
                kind, values = self._KINDS[name], self.values(name)
                if kind is int:
                    got = _int_column(values)
                else:
                    got = np.array(values, dtype=float)
                    got = got if kind is float else got.reshape(-1, kind)
            self._arrays[name] = got
        return got

    def take(self, rows: Union[slice, Iterable[int]]) -> "_Table":
        """The given rows of this table, in the given order, or a slice (with start and stop) of a whole one."""
        index = self._index
        if index is None:
            rows = rows if isinstance(rows, slice) else list(rows)
        elif isinstance(index, slice):
            rows = [index.start + i for i in rows]
        else:
            rows = [index[i] for i in rows]
        view = object.__new__(type(self))
        view._view_of(self if index is None else self._table, rows)
        return view

    def _objects(self) -> Sequence:
        if self._built is None:
            table, rows = self._table, self._index
            if table is not None and table._built is not None:
                whole = table._built
                self._built = whole[rows] if isinstance(rows, slice) else type(whole)(whole[r] for r in rows)
            else:
                self._built = self._build()
        return self._built

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        return self._objects()[index]

    def __iter__(self) -> Iterator:
        return iter(self._objects())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return self._REPR.format(self._objects())


class _MotTable(_Table):
    """Ground-truth or tracker-output rows as columns, the rows the scorers and the writers read.

    Columns: ``frame`` and ``id`` (integers), ``box`` (``(n, 4)`` edges),
    ``conf`` (for ground truth the consider flag as read, else the
    confidence), and for ground truth only ``cls`` and ``visibility``. They are
    all numpy arrays (parsed or simulated) or all Python lists (the tracker's
    records, made without numpy per frame, and a framed list of rows). Rows are
    :class:`GtEntry` (consider is ``conf != 0``) or :class:`TrackRecord` objects.
    """

    _KINDS = {"frame": int, "id": int, "box": 4, "conf": float, "cls": int, "visibility": float}

    def __init__(self, frame, ids, box, conf, cls=None, visibility=None, objects=None):
        columns = {"frame": frame, "id": ids, "box": box, "conf": conf}
        if cls is not None:
            columns.update(cls=cls, visibility=visibility)
        lists = isinstance(frame, list)
        super().__init__(len(frame), columns if lists else {}, {} if lists else columns, objects)

    @classmethod
    def of(cls, rows: Sequence[Union[GtEntry, TrackRecord]]) -> "_MotTable":
        """``rows`` if it is a table already, else a table over its objects."""
        if isinstance(rows, _MotTable):
            return rows
        rows = list(rows)
        gt = all(isinstance(r, GtEntry) for r in rows)
        return cls(
            [r.frame for r in rows],
            [r.track_id for r in rows],
            [ltrb(r.box) for r in rows],
            [float(r.consider) if isinstance(r, GtEntry) else r.confidence for r in rows],
            [r.class_id for r in rows] if gt else None,
            [r.visibility for r in rows] if gt else None,
            objects=rows,
        )

    frame = property(lambda self: self.column("frame"))
    id = property(lambda self: self.column("id"))
    box = property(lambda self: self.column("box"))
    conf = property(lambda self: self.column("conf"))
    cls = property(lambda self: self.column("cls") if self._has("cls") else None)

    def _build(self) -> list:
        columns = map(self.values, _RECORD_COLUMNS)
        if not self._has("cls"):
            return [TrackRecord(f, i, BoxLTRB(*b), c) for f, i, b, c in zip(*columns)]
        return [
            GtEntry(f, i, BoxLTRB(*b), k, v, c != 0)
            for f, i, b, c, k, v in zip(*columns, self.values("cls"), self.values("visibility"))
        ]


#: The columns of a MOT row table that every row has, in a row's field order.
_RECORD_COLUMNS = ("frame", "id", "box", "conf")
#: The input columns of a detection table, in a prediction row's field order.
_INPUTS = ("frame", "cls", "center", "size", "conf", "disp", "ts", "iou_pred")
#: The columns association and the tracker read as Python lists.
_LOOP_COLUMNS = ("frame", "cls", "conf", "iou_pred", "center", "box", "tracked", "back", "gate")
#: The columns :func:`write_predictions` writes after the frame number, in a row's field order.
_WRITTEN = ("center", "size", "conf", "cls", "disp", "ts", "iou_pred")


def _int_column(values) -> np.ndarray:
    """Integers as an int64 column when every value fits, else as Python ints (``object``)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # frames, ids and classes of 2**63 and above
        return np.array(values, dtype=object)


class DetectionFrame(_Table):
    """Detection rows as numpy columns, plus the columns every consumer derives from them.

    A table is made from a parsed file, a simulated scene or a list of
    detections (:meth:`of`); every frame of a file or scene is a slice of its
    table by :meth:`take`, so every column is derived once per table.

    Input columns: ``frame`` and ``cls`` (integers); ``center``, ``size`` and
    ``disp`` (``(n, 2)``); ``conf`` and ``iou_pred``; ``ts``, the tracked-size
    values (``(n, 2)`` for ``wh``, ``(n, 4)`` for ``ltrb``, absent when the
    rows mix variants). Derived columns take their scalar function's float
    operations in the same order, so each equals it bit for bit: ``box``
    (``Detection.box``), ``tracked`` (``association.tracked_box``; absent
    without a variant), ``back`` (the back-projected center ``center - disp``),
    ``gate`` (``geometry.size_gate``) and, for ``wh``, ``prev_size``. The
    columns named in ``lists`` are also made lists here, so that no frame pays
    for them. ``variant`` is every row's tracked-size variant (None if they mix
    or there are none), shared by views. The scalar loops read :meth:`values`,
    the kernels :meth:`column`. Rows are :class:`Detection` objects.
    """

    _REPR = "DetectionFrame({!r})"

    def __init__(
        self, variant, frame, cls, center, size, conf, disp, ts, iou_pred, objects=None, lists=_LOOP_COLUMNS
    ):
        self.variant: Optional[str] = variant
        columns = {"frame": frame, "cls": cls, "center": center, "size": size, "conf": conf, "disp": disp,
                   "ts": ts, "iou_pred": iou_pred}
        # Finite inputs can derive infinite edges and areas: the prediction
        # parser screens these columns for exactly that overflow.
        with np.errstate(over="ignore"):
            half = size / 2.0
            columns["box"] = np.concatenate((center - half, center + half), axis=1)
            columns["back"] = back = center - disp
            columns["gate"] = np.sqrt(size[:, 0] * size[:, 1])
            if variant == VARIANT_WH:  # the tracked box's size is max(0.0, w - dw)
                columns["prev_size"] = prev = np.where(size - ts > 0.0, size - ts, 0.0)
                columns["tracked"] = np.concatenate((back - prev / 2.0, back + prev / 2.0), axis=1)
            elif variant == VARIANT_LTRB:
                # sorted((a, b)) swaps only where b < a; a mask keeps signed zeros in place
                lo, hi = ts[:, :2], ts[:, 2:]
                swap = hi < lo
                columns["tracked"] = np.concatenate((np.where(swap, hi, lo), np.where(swap, lo, hi)), axis=1)
            elif not len(center):
                columns["tracked"] = np.empty((0, 4))
        arrays = {name: column for name, column in columns.items() if column is not None}
        lists = {name: arrays[name].tolist() for name in lists if name in arrays}
        super().__init__(len(frame), lists, arrays, objects)

    @classmethod
    def of(cls, dets: Sequence[Detection]) -> "DetectionFrame":
        """``dets`` if it is a table already, else a table over its objects."""
        if isinstance(dets, DetectionFrame):
            return dets
        dets = list(dets)
        if not dets:  # a gap frame: the shared empty table, not a new one per frame
            return _NO_DETECTIONS
        variants = {d.variant for d in dets}
        variant = variants.pop() if len(variants) == 1 else None

        def pairs(get) -> np.ndarray:
            return np.array([get(d) for d in dets], dtype=float)

        return cls(
            variant,
            _int_column([d.frame for d in dets]),
            _int_column([d.class_id for d in dets]),
            pairs(lambda d: (d.center.x, d.center.y)),
            pairs(lambda d: (d.size.w, d.size.h)),
            np.array([d.confidence for d in dets], dtype=float),
            pairs(lambda d: (d.disp.dx, d.disp.dy)),
            pairs(_ts_fields) if variant else None,
            np.array([d.iou_pred for d in dets], dtype=float),
            objects=dets,
        )

    def _view_of(self, table: "DetectionFrame", rows: Union[slice, list[int]]) -> None:
        super()._view_of(table, rows)
        self.variant = table.variant

    def _build(self) -> list[Detection]:
        ts_type = TrackedSizeWH if self.variant == VARIANT_WH else TrackedSizeLTRB
        return [
            Detection(frame, Point2(*center), Size2(*size), conf, cls, Displacement(*disp), ts_type(*ts), iou_pred)
            for frame, cls, center, size, conf, disp, ts, iou_pred in zip(*map(self.values, _INPUTS))
        ]


_NO_DETECTIONS = DetectionFrame(None, *[np.empty(0, dtype=np.int64)] * 2, *[np.empty((0, 2))] * 2, np.empty(0),
                                np.empty((0, 2)), None, np.empty(0), objects=[])


@dataclass(frozen=True)
class Tracklet:
    """A live identity; ``age`` counts frames since the last match."""

    track_id: int
    last_center: Point2
    last_box: BoxLTRB
    class_id: int
    last_confidence: float
    age: int = 0


#: The columns of the live tracklets, in a :class:`Tracklet`'s field order.
_TRACKLET_COLUMNS = ("ids", "centers", "boxes", "classes", "confs", "ages")


class _Tracklets(_Table):
    """Live tracklets as columns: the state ``tracker.step`` updates and association reads.

    The columns are Python lists with one entry per tracklet: ``ids``,
    ``centers`` (``[x, y]``), ``boxes`` (ltrb edges), ``classes``, ``confs``
    and ``ages`` (Python ints, so any ``lifetime`` compares exactly). Rows are
    :class:`Tracklet` objects, and the table prints as their tuple.
    """

    _KINDS = {"ids": int, "centers": 2, "boxes": 4, "classes": int, "confs": float, "ages": int}

    @classmethod
    def of(cls, tracks: Sequence[Tracklet]) -> "_Tracklets":
        """``tracks`` if it is a table already, else a table over its objects."""
        if isinstance(tracks, _Tracklets):
            return tracks
        tracks = tuple(tracks)
        if not tracks:  # a fresh state: the shared empty table, not a new one per sequence
            return _NO_TRACKLETS
        columns = (
            [t.track_id for t in tracks],
            [(t.last_center.x, t.last_center.y) for t in tracks],
            [ltrb(t.last_box) for t in tracks],
            [t.class_id for t in tracks],
            [t.last_confidence for t in tracks],
            [t.age for t in tracks],
        )
        return cls(len(tracks), dict(zip(_TRACKLET_COLUMNS, columns)), {}, tracks)

    def _build(self) -> tuple[Tracklet, ...]:
        return tuple(
            Tracklet(i, Point2(*c), BoxLTRB(*b), k, f, a)
            for i, c, b, k, f, a in zip(*map(self.values, _TRACKLET_COLUMNS))
        )

    def __hash__(self) -> int:
        return hash(self._objects())


_NO_TRACKLETS = _Tracklets(0, {name: [] for name in _TRACKLET_COLUMNS}, {}, ())


@dataclass
class Predictions:
    """Per-frame detections parsed from a prediction file."""

    variant: str
    by_frame: dict[int, DetectionFrame] = field(default_factory=dict)

    def dense_frames(self) -> list[tuple[int, DetectionFrame]]:
        """The (frame, detections) pairs in ascending frame order, the pairs ``motkit track`` steps.

        A frame number with no rows is left out: :func:`~motkit.tracker.run_sequence`
        steps it as an empty frame, or not at all when the gap retires every tracklet.
        """
        return list(self.by_frame.items())


def _run_bounds(values: np.ndarray) -> list[int]:
    """The start of each run of equal neighbours in ``values``, then its length."""
    cuts = np.flatnonzero(values[1:] != values[:-1]) + 1
    return [0, *cuts.tolist(), len(values)] if len(values) else [0]


def _lines(source: Union[str, Iterable[str]]) -> list[str]:
    return source.splitlines() if isinstance(source, str) else list(source)


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


# -- the formats as data: the steps a row is checked in, fields left to right with the checks
# and derived columns after them


@dataclass(frozen=True)
class _Field:
    """The next comma-separated column: its name in messages and its kind (None: never read)."""

    name: str
    kind: Optional[type] = None
    key: str = ""  # the name its values go under, if not ``name``


@dataclass(frozen=True)
class _Check:
    """A test over the values so far; a row that fails raises ``message`` formatted with them."""

    message: str
    ok: Callable[[dict], np.ndarray]


@dataclass(frozen=True)
class _Format:
    count_message: str  # formatted with a row's field count
    steps: tuple  # _Field, _Check, or a function of the values so far giving derived columns

    @property
    def n_fields(self) -> int:
        return sum(isinstance(s, _Field) for s in self.steps)


def _in_unit(key: str) -> Callable[[dict], np.ndarray]:
    return lambda v: (v[key] >= 0.0) & (v[key] <= 1.0)


def _edges_ok(key: str) -> Callable[[dict], np.ndarray]:
    return lambda v: np.isfinite(v[key]).all(axis=1)


# The largest box area (BoxLTRB.area) kept: finite edges can span an infinite area, whose IOU is
# NaN, and two finite areas above it can sum to an infinite union, whose IOU is 0.
_MAX_AREA = sys.float_info.max / 2


def _area_ok(key: str) -> Callable[[dict], np.ndarray]:
    return lambda v: (v[key][:, 2] - v[key][:, 0]) * (v[key][:, 3] - v[key][:, 1]) <= _MAX_AREA


_MOT = (
    _Field("frame", int),
    _Field("id", int),
    _Check("frame and id must be positive", lambda v: (v["frame"] >= 1) & (v["id"] >= 1)),
    *(_Field(name, float) for name in ("bb_left", "bb_top", "bb_width", "bb_height")),
    _Check("negative box size: {bb_width}x{bb_height}", lambda v: (v["bb_width"] >= 0) & (v["bb_height"] >= 0)),
    _Field("conf", float),
    lambda v: {"box": np.column_stack((left := v["bb_left"], top := v["bb_top"], left + v["bb_width"],
                                       top + v["bb_height"]))},
    _Check("box edge overflows: ({box[0]}, {box[1]}, {box[2]}, {box[3]})", _edges_ok("box")),
    _Check("box area overflows: ({box[0]}, {box[1]}, {box[2]}, {box[3]})", _area_ok("box")),
)
_GT = _Format("expected 9 fields, got {}", (*_MOT, _Field("class", int), _Field("visibility", float)))
_TRACK = _Format("expected 10 fields, got {}", (*_MOT, _Field("x"), _Field("y"), _Field("z")))


def _prediction_table(variant: str, v: dict) -> dict:
    center, size, disp, ts = (
        np.column_stack([v[k] for k in keys])
        for keys in (("cx", "cy"), ("w", "h"), ("dx", "dy"), [k for k in v if k.startswith("ts")])
    )
    table = DetectionFrame(variant, v["frame"], v["class"], center, size, v["conf"], disp, ts, v["iou_pred"])
    return {**table._arrays, "table": table}  # its columns, derived ones too


def _prediction_format(variant: str) -> _Format:
    n_ts = 2 if variant == VARIANT_WH else 4
    return _Format(
        f"expected {10 + n_ts} fields for variant {variant}, got {{}}",
        (
            _Field("frame", int),
            _Check("frame must be positive", lambda v: v["frame"] >= 1),
            *(_Field(name, float) for name in ("cx", "cy", "w", "h", "conf")),
            _Field("class", int),
            _Field("dx", float),
            _Field("dy", float),
            *(_Field("tracked_size", float, f"ts{k}") for k in range(n_ts)),
            _Field("iou_pred", float),
            _Check("iou_pred outside [0, 1]: {iou_pred}", _in_unit("iou_pred")),
            # Detection's own checks, in the order constructing one makes them
            _Check("negative size: ({w}, {h})", lambda v: (v["w"] >= 0) & (v["h"] >= 0)),
            _Check("confidence outside [0, 1]: {conf}", _in_unit("conf")),
            lambda v: _prediction_table(variant, v),
            _Check("box edge overflows: center ({cx}, {cy}), size ({w}, {h})", _edges_ok("box")),
            # ltrb tracked edges are parsed values, finite already
            *[_Check("tracked box edge overflows: center ({back[0]}, {back[1]}), "
                     "size ({prev_size[0]}, {prev_size[1]})", _edges_ok("tracked"))] * (n_ts == 2),
            _Check("box area overflows: ({box[0]}, {box[1]}, {box[2]}, {box[3]})", _area_ok("box")),
            _Check("tracked box area overflows: ({tracked[0]}, {tracked[1]}, {tracked[2]}, {tracked[3]})",
                   _area_ok("tracked")),
        ),
    )


_PREDICTIONS = {variant: _prediction_format(variant) for variant in VARIANTS}


def _read(field: _Field, texts: list[str], fast: bool) -> tuple[np.ndarray, np.ndarray]:
    """A column's values and the mask of the rows whose text the field's rule refuses.

    With no ``_`` in the file, ``int`` or ``float`` agrees with ``_int`` or ``_float``
    where it succeeds, but on non-finite floats; else (say ``3.0`` as an int) the rule runs.
    """
    values, refused = None, np.zeros(len(texts), dtype=bool)
    if fast:
        try:
            values = list(map(field.kind, texts))
        except ValueError:
            pass
    if values is None:
        values = []
        for k, text in enumerate(texts):
            try:
                values.append((_int if field.kind is int else _float)(text, 0, field.name))
            except ParseError:
                values.append(0)
                refused[k] = True
    if field.kind is float:
        column = np.array(values, dtype=float)
        return column, refused | ~np.isfinite(column)
    return _int_column(values), refused


def _screen(fmt: _Format, texts: list[list[str]], fast: bool) -> tuple[dict, list[tuple]]:
    """The values by key, and ``(step, its texts or None, rows it refuses)`` per read or check."""
    values: dict = {}
    refusals = []
    columns = iter(texts)
    # Refused rows keep placeholder values, and derived boxes may overflow: both are screened.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in fmt.steps:
            if isinstance(step, _Field):
                column = next(columns)
                if step.kind is not None:
                    values[step.key or step.name], refused = _read(step, column, fast)
                    refusals.append((step, column, refused))
            elif isinstance(step, _Check):
                refusals.append((step, None, ~np.asarray(step.ok(values), dtype=bool)))
            else:
                values.update(step(values))
    return values, refusals


def _parse(fmt: _Format, lines: list[str], first_line: int) -> dict:
    """The values of the non-blank lines by key, screened column by column up to the first
    row with a wrong field count; :func:`_first_error` raises the first bad row's error."""
    rows = [r for r in map(str.strip, lines) if r]
    n = fmt.n_fields
    miscounted = compress(count(), map((n - 1).__ne__, map(str.count, rows, repeat(","))))
    whole = next(miscounted, len(rows))
    text = ",".join(rows[:whole])
    fields = text.split(",") if whole else []
    values, refusals = _screen(fmt, [fields[j::n] for j in range(n)], "_" not in text)
    bad = np.logical_or.reduce([refused for _, _, refused in refusals])
    if bad.any() or whole < len(rows):
        _first_error(fmt, lines, first_line, int(bad.argmax()) if bad.any() else whole, values, refusals)
    return values


def _first_error(fmt: _Format, lines: list[str], first_line: int, index: int, values: dict, refusals: list):
    """Raise the ``index``-th non-blank line's error: its field count, else its first refusing step."""
    numbered = ((n, raw.strip()) for n, raw in enumerate(lines, first_line))
    line_no, row = [(n, row) for n, row in numbered if row][index]
    parts = row.split(",")
    if len(parts) != fmt.n_fields:
        raise ParseError(line_no, fmt.count_message.format(len(parts)))
    step, texts, _ = next(r for r in refusals if r[2][index])
    if texts is not None:  # a field: its rule names the fault
        (_int if step.kind is int else _float)(texts[index], line_no, step.name)
    shown = {k: v[index : index + 1].tolist()[0] for k, v in values.items() if isinstance(v, np.ndarray)}
    raise ParseError(line_no, step.message.format_map(shown))


def parse_mot(source: Union[str, Iterable[str]]) -> Sequence[GtEntry]:
    """Parse ground-truth rows into a table of entries, in file order.

    ``bb_left``/``bb_top`` are the top-left corner; width and height convert
    to edge coordinates. Negative sizes and malformed rows raise
    :class:`ParseError` with the line number, as do boxes whose right or
    bottom edge overflows to infinity or whose area exceeds half the float
    limit. The conf column is read as the MOT consider flag (0 means ignore
    for evaluation).
    """
    v = _parse(_GT, _lines(source), 1)
    return _MotTable(v["frame"], v["id"], v["box"], v["conf"], v["class"], v["visibility"])


def parse_track_file(source: Union[str, Iterable[str]]) -> Sequence[TrackRecord]:
    """Parse tracker output rows (the :func:`write_mot` format) into a table of records, in file order."""
    v = _parse(_TRACK, _lines(source), 1)
    return _MotTable(v["frame"], v["id"], v["box"], v["conf"])


def write_gt(entries: Iterable[GtEntry]) -> str:
    """Ground-truth rows, sorted stably by (frame, id), formatted column by column from the entries' columns."""
    table = _MotTable.of(entries)
    return _write_rows(table, (table.conf != 0).astype(np.int64), table.cls, table.column("visibility"))


def write_mot(records: Iterable[TrackRecord]) -> str:
    """Tracker output rows, sorted stably by (frame, id), formatted column by column from the records' columns."""
    table = _MotTable.of(records)
    return _write_rows(table, table.conf, np.full(len(table), "-1,-1,-1", dtype=object))


def _write_rows(table: _MotTable, *rest: np.ndarray) -> str:
    """The table's rows sorted stably by (frame, id): frame, id, left, top, width, height, then ``rest``."""
    box = table.box
    with np.errstate(over="ignore"):  # BoxLTRB's width and height; one past the float range is inf, which _fmt refuses
        size = box[:, 2:] - box[:, :2]
    return _rows_text((table.frame, table.id, box[:, :2], size, *rest), np.lexsort((table.id, table.frame)))


#: Rows the writers format at once: only one block's field texts are alive together.
_BLOCK_ROWS = 512


def _rows_text(columns: Sequence[np.ndarray], order: np.ndarray) -> str:
    """The ``order`` rows of the columns, a line of comma-joined fields each, formatted a block of rows at a time."""
    out = []
    for rows in np.split(order, range(_BLOCK_ROWS, len(order), _BLOCK_ROWS)):
        fields = np.column_stack([_fmt_column(column.take(rows, axis=0)) for column in columns])
        out.append("\n".join([*map(",".join, fields.tolist()), ""]))
    return "".join(out)


def _fmt_column(values: np.ndarray) -> np.ndarray:
    """Texts of the values, in their shape: ``str`` of each, or for floats :func:`_fmt`'s rule as one ``repr`` pass and
    one mask that rewrites the integral values below 1e15. Floats not all finite go through ``_fmt``, which raises."""
    flat, floats = values.ravel(), values.dtype == float
    form = (repr if np.isfinite(flat).all() else _fmt) if floats else str
    texts = np.array(list(map(form, flat.tolist())), dtype=object)
    whole = np.flatnonzero((flat == np.trunc(flat)) & (np.abs(flat) < 1e15)) if floats else []
    texts[whole] = list(map(str, flat[whole].astype(np.int64).tolist()))
    return texts.reshape(values.shape)


def _ts_fields(det: Detection) -> tuple[float, ...]:
    ts = det.tracked_size
    if isinstance(ts, TrackedSizeWH):
        return (ts.dw, ts.dh)
    return (ts.left, ts.top, ts.right, ts.bottom)


def write_predictions(variant: str, frames: Iterable[tuple[int, Sequence[Detection]]]) -> str:
    """Prediction file text: header line plus one row per detection, formatted column by column from the frames."""
    _check_variant(variant)
    frames = [(frame_no, DetectionFrame.of(dets)) for frame_no, dets in frames if len(dets)]  # no rows, no variant
    if any(frame.variant != variant for _, frame in frames):
        other = VARIANT_WH if variant == VARIANT_LTRB else VARIANT_LTRB
        raise ValueError(f"detection variant {other} does not match file variant {variant}")
    columns = [np.concatenate([frame.column(name) for _, frame in frames]) for name in _WRITTEN] if frames else []
    numbers = np.array([frame_no for frame_no, _ in frames], dtype=object).repeat([len(frame) for _, frame in frames])
    return f"variant: {variant}\n" + _rows_text([numbers, *columns], np.arange(len(numbers)))


def parse_predictions(source: Union[str, Iterable[str]]) -> Predictions:
    """Parse a prediction file into per-frame detection frames, ``by_frame``'s keys ascending.

    Malformed rows raise :class:`ParseError` with the line number, as do rows
    whose detection box or ``wh`` tracked box has an edge that overflows to
    infinity (``ltrb`` tracked edges are the parsed values themselves), or
    whose detection or tracked box has an area above half the float limit.
    """
    lines = _lines(source)
    if not lines:
        raise ParseError(1, "missing 'variant:' header line")
    header = lines[0].strip()
    if not header.startswith("variant:"):
        raise ParseError(1, f"missing 'variant:' header line, got {header!r}")
    variant = header.split(":", 1)[1].strip()
    if variant not in VARIANTS:
        raise ParseError(1, f"unknown variant {variant!r}")
    table = _parse(_PREDICTIONS[variant], lines[1:], 2)["table"]
    # Frames are slices of the table; rows of a file out of frame order are listed instead.
    frame = table.column("frame")
    ordered = not (frame[1:] < frame[:-1]).any()
    order = np.argsort(frame, kind="stable")
    frame = frame[order]
    bounds = _run_bounds(frame)
    numbers = frame.tolist()
    by_frame = {
        numbers[a]: table.take(slice(a, b) if ordered else order[a:b].tolist()) for a, b in zip(bounds, bounds[1:])
    }
    return Predictions(variant=variant, by_frame=by_frame)
