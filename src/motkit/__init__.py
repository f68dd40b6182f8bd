"""Tracking-by-detection association toolkit.

Detections regressed from the current frame carry back-projection vectors,
previous-frame box predictions, and an expected adjacent-frame overlap;
tracklets are matched greedily under displacement or IOU-distance cost
matrices (alone, summed, or in sequence), and the results are scored with
CLEAR and identity-F1 metrics. A synthetic scene simulator supplies exact
prediction channels so everything runs without a trained detector.
"""

from .association import (
    INADMISSIBLE,
    AssociationResult,
    Strategy,
    associate,
    combine,
    confidence_order,
    displacement_cost,
    greedy_match,
    iou_cost,
    tracked_box,
)
from .formats import (
    Detection,
    DetectionFrame,
    GtEntry,
    ParseError,
    Predictions,
    TrackRecord,
    parse_mot,
    parse_predictions,
    parse_track_file,
    write_gt,
    write_mot,
    write_predictions,
)
from .geometry import (
    BoxLTRB,
    Displacement,
    Point2,
    Size2,
    TrackedSizeLTRB,
    TrackedSizeWH,
    box_from_center_size,
    iou,
    size_gate,
    tracked_box_ltrb,
    tracked_box_wh,
)
from .heatmap import (
    ChannelMaps,
    GridSpec,
    Heatmap,
    Peak,
    decode_detections,
    empty_channel_maps,
    extract_peaks,
    gaussian_sigma,
    read_heatmap,
    render_heatmap,
    write_heatmap,
)
from .metrics import ClearResult, IdResult, clear_mot, idf1
from .objectives import (
    FocalParams,
    GtAnnotations,
    ObjectAnnotation,
    finite_diff_grad,
    focal_gradient_max_rel_err,
    focal_loss,
    focal_loss_grad,
    l1_offset_loss,
    l1_size_loss,
    l1_tracked_size_ltrb_loss,
    l1_tracked_size_wh_loss,
    l_iou_loss,
)
from .simulator import (
    MODERATE_NOISE,
    AgentSpec,
    NoiseConfig,
    ScenarioConfig,
    crossing_scenario,
    exit_scenario,
    generate,
    occluded_crossing_scenario,
    perturb,
    random_scenario,
)
from .tracker import Tracklet, TrackerConfig, TrackerState, run_sequence, step

__version__ = "0.1.0"
