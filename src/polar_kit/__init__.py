"""polar-kit: lane-detection post-processing in polar anchor coordinates.

Library layout:

* ``geometry``    lane grids, poles, polar anchors, pole-grid labels
* ``laneiou``     slope-adaptive interval IoU between lanes
* ``suppression`` adjacency matrices, fast/sequential NMS, dual selection
* ``o2o_head``    deterministic forward pass of the one-to-one scoring head
* ``assignment``  Hungarian and SimOTA label assignment
* ``losses``      value-only loss evaluators
* ``evaluation``  F1/mF1 and TuSimple-style metrics
* ``harness``     synthetic scenes, pipeline runs, timing, file I/O
* ``cli``         the ``polar-kit`` command
"""

from .assignment import AssignmentResult, CostConfig, assign_labels, cost_matrix, hungarian_assign, simota_assign
from .errors import (
    ConfigError,
    InfeasibleAssignment,
    InvalidInput,
    InvalidK,
    InvalidLane,
    InvalidSpec,
    MissingO2OScores,
    NearHorizontalAnchor,
    ParseError,
    PolarKitError,
    ShapeError,
    TooFewRows,
    VersionError,
)
from .evaluation import MetricsReport, ThresholdMetrics, f1_suite, match_lanes, tusimple_metrics
from .geometry import (
    EPS_ANGLE,
    ImageFrame,
    LaneGrid,
    LpmConfig,
    PolarAnchor,
    Pole,
    PoleGridLabels,
    cart_to_image,
    image_to_cart,
    local_pole_lattice,
    local_to_global_radius,
    local_to_global_radius_batch,
    lpm_labels,
    polyline_to_grid,
    sample_anchor_xs,
    sample_anchor_xs_batch,
    top_k_select,
)
from .laneiou import iou_matrix
from .losses import (
    LossComponents,
    LossWeights,
    SegmentParams,
    aux_loss,
    bce,
    endpoint_loss,
    focal,
    giou_loss,
    gpm_losses,
    lpm_loss,
    rank_loss,
    segment_params,
    smooth_l1,
)
from .o2o_head import (
    HeadWeights,
    aggregate_levels,
    edge_tensor,
    head_forward,
    load_weights,
    masked_max_pool,
    node_scores,
    roi_project,
    save_weights,
)
from .suppression import (
    CandidateSet,
    SuppressionThresholds,
    confidence_adjacency,
    dual_confidence_select,
    fast_nms_geometric,
    geometric_adjacency,
    iou_distance,
    sequential_nms,
)

__version__ = "0.1.0"
