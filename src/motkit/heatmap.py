"""Gaussian center heatmaps: rendering objects in, decoding detections out.

A heatmap is a dense per-class grid at 1/R image resolution where each object
center contributes a Gaussian peak; cells combine by max, never by sum.
Decoding finds 3x3 local maxima above a threshold and reads the per-cell
channel maps back into detections. The peak and every regression target sit
at one cell, :func:`_center_cell`: the floor of the center's grid coordinates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .formats import DEFAULT_OUTPUT_THRESHOLD, VARIANT_LTRB, VARIANT_WH, Detection, _check_variant
from .geometry import Displacement, Point2, Size2, TrackedSizeLTRB, TrackedSizeWH, iou, ltrb

log = logging.getLogger(__name__)

MIN_PEAK_OVERLAP = 0.7
RADIUS_FLOOR = 2.0


@dataclass(frozen=True)
class GridSpec:
    """Image geometry and its downsampled grid."""

    width_px: int
    height_px: int
    downsample: int = 4
    num_classes: int = 1

    def __post_init__(self) -> None:
        if self.downsample < 1:
            raise ValueError("downsample must be >= 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.width_px % self.downsample or self.height_px % self.downsample:
            raise ValueError(
                f"image size {self.width_px}x{self.height_px} not divisible by {self.downsample}"
            )

    @property
    def grid_w(self) -> int:
        return self.width_px // self.downsample

    @property
    def grid_h(self) -> int:
        return self.height_px // self.downsample


@dataclass
class Heatmap:
    """Per-class confidence grid, values in [0, 1], shape (classes, rows, cols)."""

    values: np.ndarray


@dataclass
class ChannelMaps:
    """Per-cell regression outputs aligned with a heatmap grid, in CenterTrack's signs.

    ``size_map`` (rows, cols, 2) holds box sizes in pixels, ``displacement_map``
    (rows, cols, 2) the previous minus the current center in grid cells,
    ``tracked_size_map`` either (rows, cols, 2), the previous minus the current
    size in pixels (wh), or (rows, cols, 4), the previous box's edges in pixels
    (ltrb), and ``iou_map`` (rows, cols) the predicted adjacent-frame IOU in [0, 1].
    """

    size_map: np.ndarray
    displacement_map: np.ndarray
    tracked_size_map: np.ndarray
    iou_map: np.ndarray

    @property
    def variant(self) -> str:
        return VARIANT_WH if self.tracked_size_map.shape[2:] == _CHANNELS[VARIANT_WH].cell_shape else VARIANT_LTRB


@dataclass(frozen=True)
class _Channel:
    """One regression channel: its :class:`ChannelMaps` field, the shape of a
    cell (the map's depth: ``(2,)``, ``(4,)`` or ``()`` for a (rows, cols) map),
    one ``objectives.ObjectAnnotation``'s values at which its loss reads 0, and
    the factor that turns a map value into the tracker's, given the downsample R."""

    field: str
    cell_shape: tuple[int, ...]
    target: Callable[..., tuple[float, ...]]
    factor: Callable[[float], float]


# The losses, _paint_zero_loss_maps and decode_detections all read the channels here.
_CHANNELS = {
    "size": _Channel("size_map", (2,), lambda o: (o.size.w, o.size.h), lambda r: 1.0),
    "offset": _Channel(
        "displacement_map", (2,), lambda o: (o.prev_center.x - o.center.x, o.prev_center.y - o.center.y), lambda r: -r
    ),
    VARIANT_WH: _Channel(
        "tracked_size_map",
        (2,),
        lambda o: (o.prev_box.width - o.cur_box.width, o.prev_box.height - o.cur_box.height),
        lambda r: -1.0,
    ),
    VARIANT_LTRB: _Channel("tracked_size_map", (4,), lambda o: ltrb(o.prev_box), lambda r: 1.0),
    "iou": _Channel("iou_map", (), lambda o: (iou(o.prev_box, o.cur_box),), lambda r: 1.0),
}


def _map_channels(variant: str) -> list[_Channel]:
    # the channels of the four ChannelMaps fields, in field order
    return [_CHANNELS[name] for name in ("size", "offset", variant, "iou")]


@dataclass(frozen=True)
class Peak:
    """A 3x3 local maximum; ``cell`` is (x, y) in grid coordinates."""

    cell: tuple[int, int]
    class_id: int
    confidence: float


def empty_channel_maps(grid: GridSpec, variant: str = VARIANT_LTRB) -> ChannelMaps:
    """All-zero channel maps matching ``grid``."""
    _check_variant(variant)
    shape = (grid.grid_h, grid.grid_w)
    return ChannelMaps(*(np.zeros(shape + ch.cell_shape) for ch in _map_channels(variant)))


def _center_cell(center: Point2, shape: tuple[int, ...]) -> tuple[int, int]:
    # the (row, col) index of the cell owning ``center`` (grid units) on a map of ``shape``: the floor
    if not (0.0 <= center.x < shape[1] and 0.0 <= center.y < shape[0]):
        raise ValueError(f"center ({center.x}, {center.y}) lies outside the map of shape {shape}")
    return math.floor(center.y), math.floor(center.x)


def _paint_zero_loss_maps(objects: Iterable, grid: GridSpec, variant: str) -> ChannelMaps:
    """Maps at which every loss reads 0 for ``objects`` (``objectives.ObjectAnnotation``s); the last wins a cell."""
    maps = empty_channel_maps(grid, variant)
    for obj in objects:
        for ch in _map_channels(variant):
            arr = getattr(maps, ch.field)
            np.atleast_3d(arr)[_center_cell(obj.center, arr.shape)] = ch.target(obj)
    return maps


def _min_overlap_radius(w: float, h: float) -> float:
    # Smallest of the three quadratic-root radii that keep any box shifted or
    # shrunk within the radius above the overlap requirement.
    a1 = 1.0
    b1 = h + w
    c1 = w * h * (1 - MIN_PEAK_OVERLAP) / (1 + MIN_PEAK_OVERLAP)
    r1 = (b1 + math.sqrt(b1 * b1 - 4 * a1 * c1)) / 2

    a2 = 4.0
    b2 = 2 * (h + w)
    c2 = (1 - MIN_PEAK_OVERLAP) * w * h
    r2 = (b2 + math.sqrt(b2 * b2 - 4 * a2 * c2)) / 2

    a3 = 4 * MIN_PEAK_OVERLAP
    b3 = -2 * MIN_PEAK_OVERLAP * (h + w)
    c3 = (MIN_PEAK_OVERLAP - 1) * w * h
    r3 = (b3 + math.sqrt(b3 * b3 - 4 * a3 * c3)) / 2
    return min(r1, r2, r3)


def gaussian_sigma(s: Size2) -> float:
    """Kernel width for an object of grid-unit size ``s``.

    One third of the min-overlap radius, with the radius floored at 2 grid
    units so tiny objects still render a usable peak.
    """
    radius = max(RADIUS_FLOOR, _min_overlap_radius(s.w, s.h))
    return radius / 3.0


def render_heatmap(objects: Iterable[tuple[Point2, Size2, int]], grid: GridSpec) -> Heatmap:
    """Render object centers as Gaussian peaks, one channel per class.

    Each cell q of a class channel holds ``max_i exp(-|c_i - q|^2 / (2 sigma_i^2))``
    over that class's objects, where ``c_i`` is the cell owning the center
    (:func:`_center_cell` in grid units), so each peak is exactly 1 there.
    Objects with centers outside the image are skipped and counted in a warning.
    """
    values = np.zeros((grid.num_classes, grid.grid_h, grid.grid_w))
    xs = np.arange(grid.grid_w, dtype=float)[None, :]
    ys = np.arange(grid.grid_h, dtype=float)[:, None]
    r = float(grid.downsample)
    skipped = 0
    for center, size, class_id in objects:
        try:
            cy, cx = _center_cell(Point2(center.x / r, center.y / r), values.shape[1:])
        except ValueError:
            skipped += 1
            continue
        if not 0 <= class_id < grid.num_classes:
            raise ValueError(f"class_id {class_id} outside [0, {grid.num_classes})")
        sigma = gaussian_sigma(Size2(size.w / r, size.h / r))
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        np.maximum(values[class_id], np.exp(-d2 / (2.0 * sigma * sigma)), out=values[class_id])
    if skipped:
        log.warning("render_heatmap: skipped %d object(s) with out-of-bounds centers", skipped)
    return Heatmap(values)


def _window_max3(plane: np.ndarray) -> np.ndarray:
    # Max over each cell's 3x3 neighborhood, clipped at the borders.
    return sliding_window_view(np.pad(plane, 1, constant_values=-np.inf), (3, 3)).max(axis=(2, 3))


def _dedupe_plateaus(plane: np.ndarray, candidates: np.ndarray) -> list[tuple[int, int]]:
    # One peak per connected (8-neighbor) plateau of equal-valued candidates;
    # the first cell in row-major order is the component's representative.
    cand_cells = [tuple(c) for c in np.argwhere(candidates)]
    cand_set = set(cand_cells)
    visited: set[tuple[int, int]] = set()
    keep: list[tuple[int, int]] = []
    for cell in cand_cells:
        if cell in visited:
            continue
        keep.append(cell)
        stack = [cell]
        visited.add(cell)
        value = plane[cell]
        while stack:
            cy, cx = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nb = (cy + dy, cx + dx)
                    if nb in cand_set and nb not in visited and plane[nb] == value:
                        visited.add(nb)
                        stack.append(nb)
    return keep


def extract_peaks(heatmap: Heatmap, threshold: float) -> list[Peak]:
    """All cells maximal in their 3x3 neighborhood with value above ``threshold``.

    Flat maxima yield a single peak (the row-major-first cell of the plateau).
    Peaks are sorted by descending confidence, then class and cell for
    determinism.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold outside [0, 1]: {threshold}")
    peaks: list[Peak] = []
    for class_id in range(heatmap.values.shape[0]):
        plane = heatmap.values[class_id]
        candidates = (plane >= _window_max3(plane)) & (plane > threshold)
        for cy, cx in _dedupe_plateaus(plane, candidates):
            peaks.append(Peak(cell=(int(cx), int(cy)), class_id=class_id, confidence=float(plane[cy, cx])))
    peaks.sort(key=lambda p: (-p.confidence, p.class_id, p.cell[1], p.cell[0]))
    return peaks


def decode_detections(
    peaks: Sequence[Peak],
    maps: ChannelMaps,
    grid: GridSpec,
    out_threshold: float = DEFAULT_OUTPUT_THRESHOLD,
    frame: int = 1,
) -> list[Detection]:
    """Read channel maps at peak cells and build pixel-space detections.

    Each value is multiplied by its channel's factor: offsets and wh tracked
    sizes become the tracker's current minus previous, in pixels. A peak off
    the grid's integer cells or classes raises ``ValueError``.
    """
    r = float(grid.downsample)
    reads = []  # each ChannelMaps field as a (rows, cols, depth) map, with its factor
    for ch in _map_channels(maps.variant):
        arr = getattr(maps, ch.field)
        want = (grid.grid_h, grid.grid_w) + ch.cell_shape
        if arr.shape != want:
            raise ValueError(f"{ch.field} shape {arr.shape} does not match {want}")
        reads.append((np.atleast_3d(arr), ch.factor(r)))
    ts_type = TrackedSizeWH if maps.variant == VARIANT_WH else TrackedSizeLTRB
    dets: list[Detection] = []
    for p in peaks:
        x, y = p.cell
        if not all(isinstance(v, (int, np.integer)) for v in p.cell):
            raise ValueError(f"peak cell {p.cell} is not a pair of integers")
        if not (0 <= x < grid.grid_w and 0 <= y < grid.grid_h):
            raise ValueError(f"peak cell {p.cell} lies off the {grid.grid_w}x{grid.grid_h} grid (columns x rows)")
        if not 0 <= p.class_id < grid.num_classes:
            raise ValueError(f"peak class {p.class_id} outside [0, {grid.num_classes})")
        if p.confidence <= out_threshold:
            continue
        center = Point2(x * r, y * r)
        # 0.0 + turns a -0.0 product into 0.0
        (w, h), disp, ts, (iou_pred,) = ([0.0 + f * float(v) for v in arr[y, x]] for arr, f in reads)
        size, ts = Size2(max(0.0, w), max(0.0, h)), ts_type(*ts)
        iou_pred = float(np.clip(iou_pred, 0.0, 1.0))
        dets.append(Detection(frame, center, size, p.confidence, p.class_id, Displacement(*disp), ts, iou_pred))
    return dets

