"""Default hyperparameters and preset factories.

Each default is stated once: here when no dataclass carries it, otherwise on
the dataclass field.  Everything is overridable at call sites.
"""

from __future__ import annotations

from .geometry import ImageFrame, Pole
from .suppression import SuppressionThresholds

# Working resolution and vertical sampling.
DEFAULT_WIDTH = 800
DEFAULT_HEIGHT = 320
DEFAULT_SAMPLE_ROWS = 36

# Interval IoU base semi-width (30 px total lane width at 800x320).
DEFAULT_W_BASE = 15.0

# Local-pole grid and anchor count of the sparse regime.
SPARSE_GRID = (4, 10)
SPARSE_TOP_K = 20

# Semi-width (px) of the classic-NMS distance function at its aggressive-recall
# setting; 50 px is the conservative one.
NMS_WIDTH_OPTIMAL_PX = 15.0

# Suppression thresholds with no published values; chosen for the synthetic
# harness and overridable everywhere.
DEFAULT_TAU_D = 0.5       # on d = 1 - IoU, i.e. suppress at IoU >= 0.5
DEFAULT_TAU_THETA = 0.15  # radians
DEFAULT_LAMBDA_G = 40.0   # pixels

# Selection modes of a pipeline run, as named in its selections file.
MODES = ("sequential", "fast_geometric", "dual_confidence")

# Global pole placement as a fraction of (width, height), image coordinates.
GLOBAL_POLE_FRAC = (0.5, 0.4)


def default_frame(n_rows: int = DEFAULT_SAMPLE_ROWS) -> ImageFrame:
    return ImageFrame(width=DEFAULT_WIDTH, height=DEFAULT_HEIGHT, n_rows=n_rows)


def default_global_pole(frame: ImageFrame) -> Pole:
    """Global pole near the static vanishing point, returned in Cartesian."""
    x = GLOBAL_POLE_FRAC[0] * frame.width
    y_img = GLOBAL_POLE_FRAC[1] * frame.height
    return Pole(x=x, y=frame.height - y_img, kind="global")


def default_thresholds() -> SuppressionThresholds:
    """Harness gates and distance cut; the score cuts are the dataclass defaults."""
    return SuppressionThresholds(
        tau_theta=DEFAULT_TAU_THETA, lambda_g=DEFAULT_LAMBDA_G, tau_d=DEFAULT_TAU_D
    )
