"""Out-group comfort: the distance regression.

Out-group comfort measures how little the dyad would bother passing
pedestrians: it grows with the distance between the nearest predicted
pedestrian position and the candidate dyad segment, following a reciprocal
regression calibrated in millimeters and clamped to [0, 1]. The in-group
rule lives in `proxemics`; `planner.score_candidates` combines both over a
whole candidate grid.
"""

from __future__ import annotations

import numpy as np

# The reciprocal regression, scale_mm / distance_mm + offset: the score is 0
# at or below 450 mm and saturates at 1 from about 670 mm outward.
COMFORT_SCALE_MM = -1370.25
COMFORT_OFFSET = 3.045
# distance (m) at which the regression reaches its upper clamp
SATURATION_DISTANCE_M = COMFORT_SCALE_MM / (1000.0 * (1.0 - COMFORT_OFFSET))


def comfort_from_distance(distance_m: np.ndarray) -> np.ndarray:
    """Comfort contribution of the nearest disturbance at each given distance.

    Distances are in meters; a distance of zero or less scores 0, since the
    floor of 1e-12 mm sends the regression far below the lower clamp.
    """
    raw = COMFORT_SCALE_MM / np.maximum(distance_m * 1000.0, 1e-12) + COMFORT_OFFSET
    return np.clip(raw, 0.0, 1.0)

