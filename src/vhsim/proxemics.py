"""F-formation availability, arrangement classification, and spatial context.

A dyadic conversation arrangement is reduced to three openness classes
(vis-a-vis, L-shaped, side-by-side) from the summed body-orientation angles of
the two interlocutors. Which class a dyad prefers depends on the spatial
context of the encounter: how definite the place is (near a wall or not) and
how crowded the pedestrian flow is.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    Environment,
    Pose,
    Segment,
    Vec2,
    angle_between,
    disc_rect_intersection_area,
    hypot,
    nearest_wall_distance_segment,
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
class RelativeAngles:
    """Body-orientation angles versus the partner direction, in degrees.

    alpha is the user's angle, beta the agent's; both lie in [0, 180].
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 180.0 and 0.0 <= self.beta <= 180.0):
            raise ValueError(f"angles must lie in [0, 180]: {self}")


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

# The agent may freely pick its own body orientation up to this angle from
# the partner direction while still holding a formation.
MAX_AGENT_ANGLE_DEG = 90.0

# absorbs last-ulp drift when distances are recomputed from coordinates, so
# grid points constructed exactly on a bound stay inside it
DISTANCE_TOL = 1e-9


def relative_angles(user: Pose, agent: Pose) -> RelativeAngles:
    """Angles between each body orientation and the line to the partner."""
    if user.position == agent.position:
        raise ValueError("coincident positions have no relative angles")
    to_agent = agent.position - user.position
    to_user = user.position - agent.position
    alpha = math.degrees(angle_between(user.heading(), to_agent))
    beta = math.degrees(angle_between(agent.heading(), to_user))
    return RelativeAngles(alpha=min(alpha, 180.0), beta=min(beta, 180.0))


def user_angle_to(user: Pose, target: Vec2) -> float:
    """The user-side angle alpha toward a candidate position, in degrees."""
    if user.position == target:
        raise ValueError("coincident positions have no relative angle")
    return min(math.degrees(angle_between(user.heading(), target - user.position)), 180.0)


def is_fformation_available(user: Pose, candidate: Pose, config: ScenarioConfig) -> bool:
    """Whether a formation can be maintained at the candidate position.

    Requires the separation to fall inside the formation distance bounds
    (inclusive) and the user's angle to stay within 90 degrees; the agent can
    always orient itself to satisfy its own side.
    """
    dist = user.position.distance_to(candidate.position)
    if not (config.formation_min - DISTANCE_TOL <= dist <= config.interpersonal_distance + DISTANCE_TOL):
        return False
    return user_angle_to(user, candidate.position) <= MAX_AGENT_ANGLE_DEG


def classify_arrangement(angles: RelativeAngles) -> ArrangementType:
    """Map the summed angles onto the three openness classes.

    [0, 60] closed, (60, 120) L-shaped, [120, 180] open.
    """
    total = angles.alpha + angles.beta
    if total > 180.0:
        raise ValueError(f"alpha + beta exceeds 180 degrees: {total}")
    if total <= 60.0:
        return ArrangementType.CLOSED
    if total < 120.0:
        return ArrangementType.L_SHAPED
    return ArrangementType.OPEN


def feasible_arrangements(user: Pose, candidate_position: Vec2, config: ScenarioConfig) -> set[ArrangementType]:
    """Arrangement types achievable at a position as the agent turns freely.

    With alpha fixed by geometry and beta free in [0, 90], the reachable sum
    interval is [alpha, alpha + 90]; a type is feasible when its band
    intersects that interval. Empty when no formation is available at all.
    """
    probe = Pose(candidate_position, 0.0)
    if user.position == candidate_position or not is_fformation_available(user, probe, config):
        return set()
    alpha = user_angle_to(user, candidate_position)
    feasible = {ArrangementType.L_SHAPED}
    if alpha <= 60.0:
        feasible.add(ArrangementType.CLOSED)
    if alpha + MAX_AGENT_ANGLE_DEG >= 120.0:
        feasible.add(ArrangementType.OPEN)
    return feasible


def agent_orientation_for(user: Pose, position: Vec2, arrangement: ArrangementType) -> float:
    """Body orientation realizing an arrangement at a position, in radians.

    Targets the midpoint of the arrangement's band, clamping the agent's own
    share to [0, 90] degrees.
    """
    band_mid = {
        ArrangementType.CLOSED: 30.0,
        ArrangementType.L_SHAPED: 90.0,
        ArrangementType.OPEN: 150.0,
    }[arrangement]
    alpha = user_angle_to(user, position)
    beta = max(0.0, min(MAX_AGENT_ANGLE_DEG, band_mid - alpha))
    to_user = (user.position - position).angle()
    return (to_user + math.radians(beta)) % (2.0 * math.pi)


def classify_spatial_context(
    env: Environment,
    dyad: Segment,
    positions: np.ndarray,
    config: ScenarioConfig,
) -> SpatialContext:
    """Classify the dyad's surroundings by definiteness and crowdedness.

    Near-wall when any declared wall comes within the personal-space radius of
    the dyad segment. Crowded when the count of pedestrian `positions` (an
    (n, 2) array) inside the c-space disc (centered on the dyad midpoint,
    clipped to the environment bounds) divided by the clipped disc area
    reaches the density threshold.
    """
    wall_dist = nearest_wall_distance_segment(env, dyad)
    definiteness = Definiteness.NEAR_WALL if wall_dist < config.personal_space else Definiteness.OPEN_SPACE

    mid = dyad.midpoint()
    r = config.c_space_radius
    count = int((hypot(positions[:, 0] - mid.x, positions[:, 1] - mid.y) <= r).sum())
    area = disc_rect_intersection_area(mid, r, env.bounds())
    crowded = area > 0.0 and (count / area) >= config.crowd_threshold
    crowdedness = Crowdedness.CROWDED if crowded else Crowdedness.UNCROWDED
    return SpatialContext(definiteness, crowdedness)


def context_preference(context: SpatialContext, arrangement: ArrangementType) -> float:
    """Preference weight of an arrangement under a spatial context."""
    return _PREFERENCE[(context.definiteness, context.crowdedness)][arrangement]
