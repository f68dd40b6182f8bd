"""Reference training objectives over dense maps, plus a gradient harness.

These are pure scalar functions meant to validate an external training
system: the penalty-reduced focal loss for the center heatmap and L1
regression losses for sizes, displacements, tracked sizes, and the
adjacent-frame IOU, each read only at the cell of an object's center where
its heatmap peak sits (``heatmap._center_cell``). The harness checks the
hand-derived focal gradient against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .formats import VARIANT_LTRB, VARIANT_WH
from .geometry import BoxLTRB, Point2, Size2
from .heatmap import _CHANNELS, GridSpec, _center_cell, _paint_zero_loss_maps

CLAMP_EPS = 1e-7


@dataclass(frozen=True)
class FocalParams:
    alpha: float = 2.0
    beta: float = 4.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("focal exponents must be positive")


@dataclass(frozen=True)
class ObjectAnnotation:
    """Ground truth for one object across an adjacent frame pair.

    ``center`` and ``prev_center`` are in map-grid coordinates; boxes and
    sizes are in whichever units the prediction maps carry.
    """

    center: Point2
    size: Size2
    prev_center: Point2
    prev_box: BoxLTRB
    cur_box: BoxLTRB


@dataclass(frozen=True)
class GtAnnotations:
    objects: tuple[ObjectAnnotation, ...]

    @property
    def n(self) -> int:
        return len(self.objects)


def focal_loss(
    pred: np.ndarray, gt: np.ndarray, n_objects: int, params: FocalParams = FocalParams()
) -> float:
    """Penalty-reduced focal loss between predicted and target heatmaps.

    Cells with target exactly 1 contribute ``(1-p)^alpha log p``; all others
    ``(1-y)^beta p^alpha log(1-p)``. The sum is negated and averaged over the
    object count, so the result is nonnegative. Predictions are clamped away
    from 0 and 1 before the logs.
    """
    p = np.asarray(pred, dtype=float)
    y = np.asarray(gt, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    p = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos = y == 1.0
    pos_term = (1.0 - p) ** params.alpha * np.log(p)
    neg_term = (1.0 - y) ** params.beta * p**params.alpha * np.log1p(-p)
    return float(-np.where(pos, pos_term, neg_term).sum() / n_objects)


def focal_loss_grad(
    pred: np.ndarray, gt: np.ndarray, n_objects: int, params: FocalParams = FocalParams()
) -> np.ndarray:
    """Hand-derived gradient of :func:`focal_loss` with respect to ``pred``.

    Zero where the clamp is active, matching the piecewise-constant clamped
    composition.
    """
    raw = np.asarray(pred, dtype=float)
    y = np.asarray(gt, dtype=float)
    if raw.shape != y.shape:
        raise ValueError(f"shape mismatch: {raw.shape} vs {y.shape}")
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    a, b = params.alpha, params.beta
    p = np.clip(raw, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos_d = -a * (1.0 - p) ** (a - 1.0) * np.log(p) + (1.0 - p) ** a / p
    neg_d = (1.0 - y) ** b * (a * p ** (a - 1.0) * np.log1p(-p) - p**a / (1.0 - p))
    grad = np.where(y == 1.0, pos_d, neg_d)
    inside = (raw > CLAMP_EPS) & (raw < 1.0 - CLAMP_EPS)
    return -grad * inside / n_objects


def _l1(channel: str, pred_map: np.ndarray, gt: GtAnnotations) -> float:
    # Mean over objects of the L1 error at each object's center cell; an object's
    # components are summed before they join the total.
    if gt.n < 1:
        raise ValueError("at least one annotated object is required")
    ch = _CHANNELS[channel]
    m = np.asarray(pred_map, dtype=float)
    if m.ndim < 2 or m.shape[2:] != ch.cell_shape:
        raise ValueError(f"expected a (rows, cols) map of {ch.cell_shape} cells, got shape {m.shape}")
    cells = np.atleast_3d(m)
    total = 0.0
    for obj in gt.objects:
        total += sum(abs(float(p) - t) for p, t in zip(cells[_center_cell(obj.center, m.shape)], ch.target(obj)))
    return total / gt.n


def l1_size_loss(pred_size_map: np.ndarray, gt: GtAnnotations) -> float:
    """Mean L1 error between predicted sizes at center cells and true sizes."""
    return _l1("size", pred_size_map, gt)


def l1_offset_loss(pred_disp_map: np.ndarray, gt: GtAnnotations) -> float:
    """Mean L1 error of predicted displacements; target is previous minus current center.

    This is CenterTrack's sign, in grid cells; ``heatmap.decode_detections``
    converts it to the tracker's current minus previous ``Displacement`` in pixels.
    """
    return _l1("offset", pred_disp_map, gt)


def l1_tracked_size_wh_loss(pred_ts_map: np.ndarray, gt: GtAnnotations) -> float:
    """Mean L1 error of the width/height-change channel.

    The target is previous size minus current size, CenterTrack's sign;
    ``heatmap.decode_detections`` converts it to the tracker's current minus
    previous ``TrackedSizeWH``.
    """
    return _l1(VARIANT_WH, pred_ts_map, gt)


def l1_tracked_size_ltrb_loss(pred_ts_map: np.ndarray, gt: GtAnnotations) -> float:
    """Mean L1 error of the four-channel previous-box-edge prediction."""
    return _l1(VARIANT_LTRB, pred_ts_map, gt)


def l_iou_loss(pred_iou_map: np.ndarray, gt: GtAnnotations) -> float:
    """Mean L1 error between predicted and true adjacent-frame IOU."""
    m = np.asarray(pred_iou_map, dtype=float)
    if np.any(m < 0.0) or np.any(m > 1.0):
        raise ValueError("iou predictions must lie in [0, 1]")
    return _l1("iou", m, gt)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], point: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar map function, cell by cell."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(point, dtype=float)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi = x.copy()
        lo = x.copy()
        hi[idx] += eps
        lo[idx] -= eps
        grad[idx] = (f(hi) - f(lo)) / (2.0 * eps)
    return grad


def focal_gradient_max_rel_err(
    pred: np.ndarray, gt: np.ndarray, n_objects: int, params: FocalParams = FocalParams()
) -> float:
    """Worst-cell relative disagreement between analytic and numeric gradients.

    The denominator of each cell's relative error is floored at one
    thousandth of the largest gradient magnitude so finite-difference
    roundoff at near-zero-gradient cells does not register as disagreement;
    a wrong derivative still shows up at any magnitude that matters.
    """
    analytic = focal_loss_grad(pred, gt, n_objects, params)
    numeric = finite_diff_grad(lambda x: focal_loss(x, gt, n_objects, params), pred)
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3 * scale)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check_report(seed: int = 0) -> dict[str, float]:
    """Max relative error of the analytic focal gradient over one random 12x12 map.

    Also evaluates every L1 loss at its ground truth (all must be exactly 0).
    Returns a name -> value mapping used by the command-line checker.
    """
    rng = np.random.default_rng(seed)
    shape = (12, 12)
    pred = rng.uniform(0.05, 0.95, size=shape)
    gt = rng.uniform(0.0, 0.95, size=shape)
    # sprinkle exact-1 targets so both focal branches are exercised
    for r, c in rng.integers(0, shape[0], size=(3, 2)):
        gt[r, c] = 1.0
    max_rel = focal_gradient_max_rel_err(pred, gt, 3)

    objects = []
    for cell in rng.permutation(shape[0] * shape[1])[:4]:
        cy, cx = divmod(int(cell), shape[1])
        c = Point2(cx + float(rng.uniform(0, 1)), cy + float(rng.uniform(0, 1)))
        pc = Point2(c.x + float(rng.uniform(-2, 2)), c.y + float(rng.uniform(-2, 2)))
        w, h = float(rng.uniform(2, 6)), float(rng.uniform(2, 6))
        pw, ph = float(rng.uniform(2, 6)), float(rng.uniform(2, 6))
        cur = BoxLTRB(c.x - w / 2, c.y - h / 2, c.x + w / 2, c.y + h / 2)
        prev = BoxLTRB(pc.x - pw / 2, pc.y - ph / 2, pc.x + pw / 2, pc.y + ph / 2)
        objects.append(ObjectAnnotation(c, Size2(w, h), pc, prev, cur))
    gt_ann = GtAnnotations(tuple(objects))
    grid = GridSpec(shape[1], shape[0], downsample=1)
    wh_maps, ltrb_maps = (_paint_zero_loss_maps(objects, grid, variant) for variant in (VARIANT_WH, VARIANT_LTRB))

    return {
        "focal_grad_max_rel_err": max_rel,
        "size_l1_at_gt": l1_size_loss(wh_maps.size_map, gt_ann),
        "offset_l1_at_gt": l1_offset_loss(wh_maps.displacement_map, gt_ann),
        "tracked_size_wh_l1_at_gt": l1_tracked_size_wh_loss(wh_maps.tracked_size_map, gt_ann),
        "tracked_size_ltrb_l1_at_gt": l1_tracked_size_ltrb_loss(ltrb_maps.tracked_size_map, gt_ann),
        "iou_l1_at_gt": l_iou_loss(wh_maps.iou_map, gt_ann),
    }
