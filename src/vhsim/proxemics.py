"""The in-group rule: F-formation availability, the arrangement choice and
spatial context.

A dyadic conversation arrangement is reduced to three openness classes
(vis-a-vis, L-shaped, side-by-side) from the summed body-orientation angles of
the two interlocutors. Which class a dyad prefers depends on the spatial
context of the encounter: how definite the place is (near a wall or not) and
how crowded the pedestrian flow is. `ingroup_choice` applies the rule to a
whole candidate grid at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    Pose,
    Segment,
    Vec2,
    disc_rect_intersection_area,
    hypot,
)

if TYPE_CHECKING:
    from .simulation import ScenarioConfig


class ArrangementType(enum.IntEnum):
    """A dyad's arrangement, as the code `ingroup_choice` returns, in tie
    order: of two equally preferred, the more closed wins. -1 codes no
    formation."""

    CLOSED = 0
    L_SHAPED = 1
    OPEN = 2


@dataclass(frozen=True)
class SpatialContext:
    near_wall: bool
    crowded: bool


# Preference of a dyad for each arrangement, indexed [near_wall][crowded][code]
# (high = 1.0, middle = 0.6, low = 0.2).
_PREFERENCE = np.array([
    [[1.0, 0.6, 0.2], [0.2, 1.0, 0.2]],  # open space: uncrowded, crowded
    [[0.6, 0.6, 1.0], [0.2, 1.0, 0.6]],  # near a wall: uncrowded, crowded
])

# Summed-angle band of each arrangement in degrees, indexed by code: [0, 60]
# closed, (60, 120) L-shaped, [120, 180] open.
ARRANGEMENT_BANDS = ((0.0, 60.0), (60.0, 120.0), (120.0, 180.0))

# The agent may freely pick its own body orientation up to this angle from
# the partner direction while still holding a formation.
MAX_AGENT_ANGLE_DEG = 90.0

# absorbs last-ulp drift when distances are recomputed from coordinates, so
# grid points constructed exactly on a bound stay inside it
DISTANCE_TOL = 1e-9


def ingroup_choice(
    candidates: np.ndarray,
    user: Pose,
    context: SpatialContext,
    config: ScenarioConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-group rule at every candidate of an (m, 2) array of positions.

    A formation is available where the candidate's distance to the user lies
    within the formation bounds (inclusive) and the user's angle alpha to it
    is at most 90 degrees. The agent turns freely over [0, 90] degrees, so
    the summed angle can reach [alpha, alpha + 90]: L-shaped is always
    feasible, closed while alpha <= 60 and open once alpha >= 30. The best
    arrangement is the feasible one the context prefers most, ties going to
    the more closed.

    Returns (alpha, preference, arrangement) in candidate order: alpha in
    degrees, the best arrangement's preference, and the best arrangement's
    `ArrangementType` code; where no formation is available they are 0 and -1.
    """
    ex = candidates[:, 0] - user.position.x
    ey = candidates[:, 1] - user.position.y
    dist = np.hypot(ex, ey)
    alpha = np.degrees(np.abs(np.angle(np.exp(1j * (np.arctan2(ey, ex) - user.orientation)))))
    available = (
        (dist >= config.formation_min - DISTANCE_TOL)
        & (dist <= config.interpersonal_distance + DISTANCE_TOL)
        & (alpha <= MAX_AGENT_ANGLE_DEG)
    )
    # one column per arrangement in tie order; -1 marks an infeasible one
    closed, l_shaped, open_ = _PREFERENCE[int(context.near_wall), int(context.crowded)].tolist()
    feasible = np.empty((len(candidates), 3))
    feasible[:, 0] = np.where(alpha <= ARRANGEMENT_BANDS[0][1], closed, -1.0)
    feasible[:, 1] = l_shaped
    # compared with the exact 30.0, since alpha + 90 rounds to 120 an ulp below 30
    feasible[:, 2] = np.where(alpha >= ARRANGEMENT_BANDS[2][0] - MAX_AGENT_ANGLE_DEG, open_, -1.0)
    preference = np.where(available, feasible.max(axis=1), 0.0)
    arrangement = np.where(available, feasible.argmax(axis=1), -1)
    return alpha, preference, arrangement


def agent_orientation_for(user: Pose, position: Vec2, arrangement: int, alpha: float) -> float:
    """Body orientation realizing an arrangement code at a position, in
    radians, given the user's angle alpha to that position in degrees.

    Targets the midpoint of the arrangement's band, clamping the agent's own
    share to [0, 90] degrees. With no arrangement (-1) the agent faces the user.
    """
    if arrangement < 0:
        return (user.position - position).angle() if position != user.position else 0.0
    band_mid = sum(ARRANGEMENT_BANDS[arrangement]) / 2.0
    beta = max(0.0, min(MAX_AGENT_ANGLE_DEG, band_mid - alpha))
    to_user = (user.position - position).angle()
    return (to_user + math.radians(beta)) % (2.0 * math.pi)


def classify_spatial_context(dyad: Segment, positions: np.ndarray, config: ScenarioConfig) -> SpatialContext:
    """Classify the dyad's surroundings: near a wall or not, crowded or not.

    Near-wall when a side wall comes within the personal-space radius of the
    dyad segment. The dyad lies inside the environment and the side walls
    span its full height, so the segment's nearest point to a wall is an
    end: the distance is min(x, width - x) over the two ends. Crowded when
    the count of pedestrian `positions` (an (n, 2) array) inside the c-space
    disc (centered on the dyad midpoint, clipped to the environment bounds)
    divided by the clipped disc area reaches the density threshold.
    """
    env = config.build_environment()
    ends = (dyad.a.x, dyad.b.x)
    wall_dist = min(*ends, *(env.width - x for x in ends)) if env.side_walls else math.inf

    mid = dyad.midpoint()
    r = config.c_space_radius
    count = int((hypot(positions[:, 0] - mid.x, positions[:, 1] - mid.y) <= r).sum())
    area = disc_rect_intersection_area(mid, r, env.width, env.height)
    crowded = area > 0.0 and (count / area) >= config.crowd_threshold
    return SpatialContext(wall_dist < config.personal_space, crowded)
