"""Box and point primitives shared by every other layer.

Coordinates follow the image convention: x grows rightward, y grows
downward, so a box's top edge has the smaller y value.
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
    """Vector from an object's current center back toward its previous center."""

    dx: float
    dy: float


@dataclass(frozen=True)
class TrackedSizeWH:
    """Width/height change of a box between the current and previous frame."""

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

    The areas are ``BoxLTRB.area``'s width times height.
    """
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
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
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    union = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1]) + (b[..., 2] - b[..., 0]) * (
        b[..., 3] - b[..., 1]
    ) - inter
    # The negated form keeps the scalar's handling of NaN: it is divided, not zeroed.
    ok = ~((iw <= 0.0) | (ih <= 0.0) | (union <= 0.0))
    return np.divide(inter, union, out=np.zeros(inter.shape), where=ok)


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
