"""Box and point primitives shared by every other layer.

Coordinates follow the image convention: x grows rightward, y grows
downward, so a box's top edge has the smaller y value. Box pairs are scored
by scalar loops, by the :func:`iou_array` kernel, or by that kernel on the
pairs the broad phase :func:`x_overlap_pairs` keeps: large cost matrices, and
keyed on the frame, IDF1's overlap counts and the simulator's occlusion test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Box-pair loops with fewer cells than this keep their scalar form: on tiny
#: matrices numpy's fixed per-call cost outweighs the work it vectorizes. At
#: least 1, so empty matrices always take the loops.
KERNEL_MIN_CELLS = 16

#: Box-pair kernels from this many cells run only on the pairs :func:`x_overlap_pairs` keeps; on fewer
#: cells its sort and the scatter cost more than the cells they skip (``BENCH_18.json``'s ``micro``).
BROAD_PHASE_MIN_CELLS = 4096


@dataclass(frozen=True)
class Point2:
    """Position in pixels."""

    x: float
    y: float


@dataclass(frozen=True)
class Size2:
    """Box width and height in pixels; never negative."""

    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"negative size: ({self.w}, {self.h})")


@dataclass(frozen=True)
class Displacement:
    """An object's motion since the previous frame, current minus previous center: ``center - disp`` is the previous."""

    dx: float
    dy: float


@dataclass(frozen=True)
class TrackedSizeWH:
    """Width/height change of a box since the previous frame: current minus previous size."""

    dw: float
    dh: float


@dataclass(frozen=True)
class TrackedSizeLTRB:
    """Previous-frame box edges regressed from current-frame evidence.

    Values are absolute pixel coordinates. Edge order may arrive flipped
    (regression targets written with y pointing up); :func:`tracked_box_ltrb`
    normalizes to the image convention.
    """

    left: float
    top: float
    right: float
    bottom: float


@dataclass(frozen=True)
class BoxLTRB:
    """Axis-aligned box, the unit of all IOU arithmetic."""

    left: float
    top: float
    right: float
    bottom: float

    def __post_init__(self) -> None:
        if self.left > self.right or self.top > self.bottom:
            raise ValueError(
                f"box edges out of order: ({self.left}, {self.top}, {self.right}, {self.bottom})"
            )

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point2:
        return Point2((self.left + self.right) / 2.0, (self.top + self.bottom) / 2.0)

    @property
    def size(self) -> Size2:
        return Size2(self.width, self.height)


def iou(a: BoxLTRB, b: BoxLTRB) -> float:
    """Intersection over union of two boxes.

    Returns 0.0 for disjoint boxes and for degenerate pairs whose union has
    zero area.
    """
    return iou_ltrb(ltrb(a), ltrb(b))


def iou_ltrb(a: Sequence[float], b: Sequence[float]) -> float:
    """:func:`iou` of two boxes given as ``(left, top, right, bottom)`` rows.

    The areas are ``BoxLTRB.area``'s width times height. The overlap edges are comparisons, which cost the
    per-cell loops far less than ``min``/``max`` calls; each picks as the builtin does on ties and NaN: the first
    argument unless the second is strictly smaller (``min``) or larger (``max``).
    """
    (al, at, ar, ab), (bl, bt, br, bb) = a, b
    iw = (br if br < ar else ar) - (bl if bl > al else al)
    ih = (bb if bb < ab else ab) - (bt if bt > at else at)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ar - al) * (ab - at) + (br - bl) * (bb - bt) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def ltrb(box: BoxLTRB) -> tuple[float, float, float, float]:
    """The box's edges as a (left, top, right, bottom) tuple, the rows :func:`iou_array` reads."""
    return (box.left, box.top, box.right, box.bottom)


def iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise :func:`iou` over broadcast ``(..., 4)`` ltrb arrays.

    The pairwise matrix of N and M boxes is ``iou_array(a[:, None], b[None])``.
    Every cell takes the scalar function's float operations in the same
    order, so it equals ``iou`` of the same two boxes bit for bit.
    """
    # Far-apart boxes near the float limit overflow these differences to -inf, a cell with iw = -inf and
    # ih = 0 multiplies to NaN, and an infinite edge makes an inf - inf width. Python floats do the same
    # without a warning; either way the scalar's tests, kept below, score the cell 0 or divide it to NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = iw * ih
        union = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1]) + (b[..., 2] - b[..., 0]) * (
            b[..., 3] - b[..., 1]
        ) - inter
    # The negated form keeps the scalar's handling of NaN: it is divided, not zeroed.
    ok = ~((iw <= 0.0) | (ih <= 0.0) | (union <= 0.0))
    return np.divide(inter, union, out=np.zeros(inter.shape), where=ok)


def x_overlap_pairs(
    lo: np.ndarray, hi: np.ndarray, other_lo: np.ndarray, other_hi: np.ndarray,
    group: np.ndarray | None = None, other_group: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a superset of the pairs whose x-extents ``[lo, hi]`` and ``[other_lo, other_hi]`` meet.

    Sort-and-sweep: with the other extents sorted on their left edge, a row's window runs from the first whose
    running maximum right edge reaches ``lo`` to the last that starts by ``hi``. ``[lo, hi]`` is widened by 2**-50
    of its magnitude, far more than a caller's rounding (``x - gate``) can lose. Given ``group`` keys for both
    sides, only pairs of one group are kept: the sweep reads each edge as ``(group, x)``, compared
    lexicographically as numpy orders ``group + x*1j``, so a window never leaves its group. Any x key not finite
    makes every extent ``[0, 0]``, which gives every pair (of one group), as zero extents do for the occlusion test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pad = (np.abs(lo) + np.abs(hi)) * 2.0**-50 + 2.0**-1022  # the floor covers subnormal rounding
        lo, hi = lo - pad, hi + pad
    if not all(np.isfinite(keys).all() for keys in (lo, hi, other_lo, other_hi)):
        lo = hi = np.zeros(len(lo))
        other_lo = other_hi = np.zeros(len(other_lo))
    keys = (lo, hi, other_lo, other_hi)
    if group is not None:
        keys = (group + lo * 1j, group + hi * 1j, other_group + other_lo * 1j, other_group + other_hi * 1j)
    key_lo, key_hi, other_key_lo, other_key_hi = keys
    by_lo = np.argsort(other_key_lo, kind="stable")
    start = np.searchsorted(np.maximum.accumulate(other_key_hi[by_lo]), key_lo)
    stop = np.searchsorted(other_key_lo[by_lo], key_hi, side="right")
    counts = np.maximum(stop - start, 0)
    rows = np.repeat(np.arange(len(lo)), counts)
    cols = by_lo[np.arange(len(rows)) + np.repeat(start - (np.cumsum(counts) - counts), counts)]
    keep = other_hi[cols] >= lo[rows]  # a window's pairs share their group
    return rows[keep], cols[keep]


def box_from_center_size(c: Point2, s: Size2) -> BoxLTRB:
    """Box with edges at c.x +/- w/2 and c.y +/- h/2."""
    return BoxLTRB(c.x - s.w / 2.0, c.y - s.h / 2.0, c.x + s.w / 2.0, c.y + s.h / 2.0)


def tracked_box_wh(
    det_center: Point2, det_size: Size2, disp: Displacement, ts: TrackedSizeWH
) -> BoxLTRB:
    """Previous-frame box under the width/height-difference parameterization.

    The box is centered at the back-projected center (current center minus
    displacement) with the previous size recovered as current size minus the
    tracked size change. Negative recovered sizes clamp to zero so noisy
    predictions yield a degenerate (never matched) box instead of an error.
    """
    prev_center = Point2(det_center.x - disp.dx, det_center.y - disp.dy)
    prev_size = Size2(max(0.0, det_size.w - ts.dw), max(0.0, det_size.h - ts.dh))
    return box_from_center_size(prev_center, prev_size)


def tracked_box_ltrb(ts: TrackedSizeLTRB) -> BoxLTRB:
    """Previous-frame box taken directly from regressed edge coordinates.

    Pairs are sorted so the result satisfies the image convention regardless
    of the sign convention the edges were produced under.
    """
    left, right = sorted((ts.left, ts.right))
    top, bottom = sorted((ts.top, ts.bottom))
    return BoxLTRB(left, top, right, bottom)


def size_gate(s: Size2) -> float:
    """Admissibility radius for displacement matching: sqrt(w * h)."""
    return math.sqrt(s.w * s.h)
