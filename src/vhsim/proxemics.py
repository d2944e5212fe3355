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


class ArrangementType(enum.Enum):
    CLOSED = "closed"
    L_SHAPED = "l_shaped"
    OPEN = "open"


class Definiteness(enum.Enum):
    OPEN_SPACE = "open_space"
    NEAR_WALL = "near_wall"


class Crowdedness(enum.Enum):
    UNCROWDED = "uncrowded"
    CROWDED = "crowded"


@dataclass(frozen=True)
class SpatialContext:
    definiteness: Definiteness
    crowdedness: Crowdedness


# Preference of a dyad for each arrangement under each spatial context
# (high = 1.0, middle = 0.6, low = 0.2).
_PREFERENCE = {
    (Definiteness.OPEN_SPACE, Crowdedness.UNCROWDED): {
        ArrangementType.CLOSED: 1.0,
        ArrangementType.L_SHAPED: 0.6,
        ArrangementType.OPEN: 0.2,
    },
    (Definiteness.OPEN_SPACE, Crowdedness.CROWDED): {
        ArrangementType.CLOSED: 0.2,
        ArrangementType.L_SHAPED: 1.0,
        ArrangementType.OPEN: 0.2,
    },
    (Definiteness.NEAR_WALL, Crowdedness.UNCROWDED): {
        ArrangementType.CLOSED: 0.6,
        ArrangementType.L_SHAPED: 0.6,
        ArrangementType.OPEN: 1.0,
    },
    (Definiteness.NEAR_WALL, Crowdedness.CROWDED): {
        ArrangementType.CLOSED: 0.2,
        ArrangementType.L_SHAPED: 1.0,
        ArrangementType.OPEN: 0.6,
    },
}

# Summed-angle band of each arrangement, in degrees: [0, 60] closed,
# (60, 120) L-shaped, [120, 180] open.
ARRANGEMENT_BANDS = {
    ArrangementType.CLOSED: (0.0, 60.0),
    ArrangementType.L_SHAPED: (60.0, 120.0),
    ArrangementType.OPEN: (120.0, 180.0),
}
CLOSED_MAX_DEG = ARRANGEMENT_BANDS[ArrangementType.CLOSED][1]
OPEN_MIN_DEG = ARRANGEMENT_BANDS[ArrangementType.OPEN][0]

# The agent may freely pick its own body orientation up to this angle from
# the partner direction while still holding a formation.
MAX_AGENT_ANGLE_DEG = 90.0

# absorbs last-ulp drift when distances are recomputed from coordinates, so
# grid points constructed exactly on a bound stay inside it
DISTANCE_TOL = 1e-9


# the arrangements in tie order: of two equally preferred, the more closed wins
_BY_OPENNESS = np.array([ArrangementType.CLOSED, ArrangementType.L_SHAPED, ArrangementType.OPEN], dtype=object)


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
    degrees, the best arrangement's preference, and the best arrangement as
    an object array; where no formation is available they are 0 and None.
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
    table = _PREFERENCE[(context.definiteness, context.crowdedness)]
    feasible = np.empty((len(candidates), 3))
    feasible[:, 0] = np.where(alpha <= CLOSED_MAX_DEG, table[ArrangementType.CLOSED], -1.0)
    feasible[:, 1] = table[ArrangementType.L_SHAPED]
    # compared with the exact 30.0, since alpha + 90 rounds to 120 an ulp below 30
    feasible[:, 2] = np.where(alpha >= OPEN_MIN_DEG - MAX_AGENT_ANGLE_DEG, table[ArrangementType.OPEN], -1.0)
    preference = np.where(available, feasible.max(axis=1), 0.0)
    arrangement = np.where(available, _BY_OPENNESS[feasible.argmax(axis=1)], None)
    return alpha, preference, arrangement


def agent_orientation_for(user: Pose, position: Vec2, arrangement: ArrangementType | None, alpha: float) -> float:
    """Body orientation realizing an arrangement at a position, in radians,
    given the user's angle alpha to that position in degrees.

    Targets the midpoint of the arrangement's band, clamping the agent's own
    share to [0, 90] degrees. With no arrangement the agent faces the user.
    """
    if arrangement is None:
        return (user.position - position).angle() if position != user.position else 0.0
    band_mid = sum(ARRANGEMENT_BANDS[arrangement]) / 2.0
    beta = max(0.0, min(MAX_AGENT_ANGLE_DEG, band_mid - alpha))
    to_user = (user.position - position).angle()
    return (to_user + math.radians(beta)) % (2.0 * math.pi)


def classify_spatial_context(dyad: Segment, positions: np.ndarray, config: ScenarioConfig) -> SpatialContext:
    """Classify the dyad's surroundings by definiteness and crowdedness.

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
    definiteness = Definiteness.NEAR_WALL if wall_dist < config.personal_space else Definiteness.OPEN_SPACE

    mid = dyad.midpoint()
    r = config.c_space_radius
    count = int((hypot(positions[:, 0] - mid.x, positions[:, 1] - mid.y) <= r).sum())
    area = disc_rect_intersection_area(mid, r, env.width, env.height)
    crowded = area > 0.0 and (count / area) >= config.crowd_threshold
    crowdedness = Crowdedness.CROWDED if crowded else Crowdedness.UNCROWDED
    return SpatialContext(definiteness, crowdedness)
