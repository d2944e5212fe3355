"""Pedestrian trajectory prediction, including detours around the user.

A walking pedestrian who would otherwise pass too close to a standing person
starts deviating at a fixed range and passes by at a minimum clearance. The
predicted path has up to three constant-speed legs: straight ahead, a leg to a
detour waypoint tangent to the clearance circle, and a leg resuming the
original goal direction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Segment, Vec2, distance_point_segment

# Speeds below this (m/s) count as standing still: for a subnormal speed,
# 1 / speed overflows and speed * speed underflows. Trials give every
# pedestrian a speed of 0 or at least 0.1 m/s.
STATIONARY_SPEED = 1e-9


class Phase(enum.Enum):
    DIRECT = "direct"
    AVOIDING = "avoiding"
    RETURNING = "returning"


@dataclass(frozen=True)
class AvoidanceParams:
    """Distances governing how pedestrians dodge the user.

    min_avoidance:   clearance kept from the user while passing (m)
    start_avoidance: range at which a deviating pedestrian begins to turn (m)
    anticipate:      range within which pedestrians are worth predicting (m)
    """

    min_avoidance: float = 0.67
    start_avoidance: float = 2.0
    anticipate: float = 6.0

    def __post_init__(self) -> None:
        if not (0.0 < self.min_avoidance <= self.start_avoidance):
            raise ValueError("need 0 < min_avoidance <= start_avoidance")
        if self.start_avoidance > self.anticipate:
            raise ValueError("start_avoidance must not exceed anticipate")


@dataclass
class PedestrianState:
    """Kinematic state of one non-user pedestrian."""

    id: int
    position: Vec2
    velocity: Vec2
    goal: Vec2
    preferred_speed: float
    phase: Phase = Phase.DIRECT
    waypoint: Vec2 | None = None


@dataclass
class PredictedTrajectory:
    """Sampled future positions of one pedestrian plus its closest approach."""

    pedestrian_id: int
    times: np.ndarray
    points: np.ndarray
    d_min: float

    @property
    def samples(self) -> list[tuple[float, Vec2]]:
        return [(float(t), Vec2(float(p[0]), float(p[1]))) for t, p in zip(self.times, self.points)]


@dataclass(frozen=True)
class AvoidanceGeometry:
    """Detour construction from a pedestrian's current position.

    Both waypoints lie on tangent lines to the clearance circle around the
    user; walking to either keeps the closest approach exactly at the
    clearance radius.
    """

    angle: float
    distance: float
    direction_left: Vec2
    direction_right: Vec2
    waypoint_left: Vec2
    waypoint_right: Vec2


def linear_extrapolate(ped: PedestrianState, t: float) -> Vec2:
    """Constant-velocity position estimate at time t >= 0."""
    if t < 0.0:
        raise ValueError("extrapolation time must be non-negative")
    return Vec2(ped.position.x + ped.velocity.x * t, ped.position.y + ped.velocity.y * t)


def min_approach_distance(ped: PedestrianState, user: Vec2) -> float:
    """Closest distance the straight-line extrapolation comes to the user."""
    speed = ped.velocity.norm()
    if speed < STATIONARY_SPEED:
        raise ValueError("stationary pedestrian has no approach trajectory")
    wx, wy = user.x - ped.position.x, user.y - ped.position.y
    t_star = max(0.0, (wx * ped.velocity.x + wy * ped.velocity.y) / (speed * speed))
    return math.hypot(wx - ped.velocity.x * t_star, wy - ped.velocity.y * t_star)


def avoidance_geometry(ped: PedestrianState, user: Vec2, params: AvoidanceParams) -> AvoidanceGeometry:
    """Build both detour waypoints from the pedestrian's current range.

    The turn angle comes from arcsin(clearance / range) and the waypoint sits
    at range / cos(angle) along the deviated direction, which places it abeam
    of the user. When the pedestrian is already at (or inside) the clearance
    radius the tangent is perpendicular; a short perpendicular hop keeps the
    clearance invariant.
    """
    to_user = user - ped.position
    r = to_user.norm()
    if r == 0.0:
        raise ValueError("pedestrian and user coincide")
    ratio = min(1.0, params.min_avoidance / r)
    angle = math.asin(ratio)
    u_dir = to_user * (1.0 / r)
    cos_a = math.cos(angle)
    if cos_a < 1e-9:
        distance = params.min_avoidance
    else:
        distance = r / cos_a
    dir_left = u_dir.rotated(angle)
    dir_right = u_dir.rotated(-angle)
    return AvoidanceGeometry(
        angle=angle,
        distance=distance,
        direction_left=dir_left,
        direction_right=dir_right,
        waypoint_left=ped.position + dir_left * distance,
        waypoint_right=ped.position + dir_right * distance,
    )


def choose_waypoint(geom: AvoidanceGeometry, heading: Vec2, to_user: Vec2) -> Vec2:
    """Pick the detour side needing the smaller heading change; ties go right.

    Equivalent, robust form: pass on the side of the travel line opposite the
    user's lateral offset. The cross product of heading and the user offset is
    constant along a straight approach, so simulation and prediction always
    agree even for near-head-on geometry.
    """
    cross = heading.x * to_user.y - heading.y * to_user.x
    if cross < 0.0:
        return geom.waypoint_left
    return geom.waypoint_right


def _sample_legs(legs: list[tuple[Vec2, Vec2, float]], arc: np.ndarray) -> np.ndarray:
    """Sample points along consecutive constant-speed legs.

    legs: (start point, unit direction, length) with the last length infinite.
    arc: monotone arc-length values to sample at.
    """
    starts = np.empty(len(legs))
    acc = 0.0
    for i, (_, _, length) in enumerate(legs):
        starts[i] = acc
        acc += length
    idx = np.minimum(np.searchsorted(starts, arc, side="right") - 1, len(legs) - 1)
    idx = np.maximum(idx, 0)
    pts = np.empty((arc.size, 2))
    for i, (base, direction, _) in enumerate(legs):
        mask = idx == i
        if not mask.any():
            continue
        local = arc[mask] - starts[i]
        pts[mask, 0] = base.x + direction.x * local
        pts[mask, 1] = base.y + direction.y * local
    return pts


def predict_trajectory(
    ped: PedestrianState,
    user: Vec2,
    horizon: float,
    dt: float,
    params: AvoidanceParams,
) -> PredictedTrajectory:
    """Sample the pedestrian's future path at step dt over the horizon.

    Pedestrians already detouring continue to their waypoint and then head for
    their goal. Pedestrians on a straight course that would pass closer than
    the clearance radius get the detour inserted at the range where they
    would start turning (immediately, if already inside that range).
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    n = int(math.floor(horizon / dt + 1e-9)) + 1
    times = np.arange(n) * dt
    speed = ped.velocity.norm()
    if speed < STATIONARY_SPEED:
        pts = np.tile((ped.position.x, ped.position.y), (n, 1))
        d_min = ped.position.distance_to(user)
        return PredictedTrajectory(ped.id, times, pts, d_min)

    legs = _build_legs(ped, user, params)
    pts = _sample_legs(legs, times * speed)
    d = np.hypot(pts[:, 0] - user.x, pts[:, 1] - user.y)
    return PredictedTrajectory(ped.id, times, pts, float(d.min()))


def _goal_direction(from_point: Vec2, goal: Vec2, fallback: Vec2) -> Vec2:
    d = goal - from_point
    n = d.norm()
    if n < 1e-12:
        return fallback
    return d * (1.0 / n)


def _build_legs(ped: PedestrianState, user: Vec2, params: AvoidanceParams) -> list[tuple[Vec2, Vec2, float]]:
    v_dir = ped.velocity * (1.0 / ped.velocity.norm())

    if ped.phase is Phase.AVOIDING and ped.waypoint is not None:
        to_wp = ped.waypoint - ped.position
        wp_dist = to_wp.norm()
        if wp_dist < 1e-9:
            out = _goal_direction(ped.waypoint, ped.goal, v_dir)
            return [(ped.position, out, math.inf)]
        wp_dir = to_wp * (1.0 / wp_dist)
        out = _goal_direction(ped.waypoint, ped.goal, wp_dir)
        return [(ped.position, wp_dir, wp_dist), (ped.waypoint, out, math.inf)]

    if ped.phase is Phase.RETURNING:
        return [(ped.position, v_dir, math.inf)]

    # straight course; insert the detour if it would cut inside the clearance
    wx, wy = user.x - ped.position.x, user.y - ped.position.y
    rng = math.hypot(wx, wy)
    proj = wx * v_dir.x + wy * v_dir.y
    if proj <= 0.0:
        return [(ped.position, v_dir, math.inf)]
    miss = math.sqrt(max(0.0, rng * rng - proj * proj))
    if miss >= params.min_avoidance:
        return [(ped.position, v_dir, math.inf)]

    if rng <= params.start_avoidance:
        trigger_arc = 0.0
        trigger = ped.position
    else:
        back = math.sqrt(max(0.0, params.start_avoidance**2 - miss * miss))
        trigger_arc = proj - back
        trigger = ped.position + v_dir * trigger_arc

    probe = replace(ped, position=trigger)
    geom = avoidance_geometry(probe, user, params)
    waypoint = choose_waypoint(geom, v_dir, user - trigger)
    to_wp = waypoint - trigger
    wp_dist = to_wp.norm()
    wp_dir = to_wp * (1.0 / wp_dist) if wp_dist > 1e-12 else v_dir
    out = _goal_direction(waypoint, ped.goal, wp_dir)
    legs: list[tuple[Vec2, Vec2, float]] = []
    if trigger_arc > 1e-12:
        legs.append((ped.position, v_dir, trigger_arc))
    legs.append((trigger, wp_dir, wp_dist))
    legs.append((waypoint, out, math.inf))
    return legs


def anticipated_pedestrians(
    pedestrians: list[PedestrianState],
    dyad: Segment,
    params: AvoidanceParams,
) -> list[PedestrianState]:
    """Pedestrians close enough to the dyad to be worth predicting (inclusive)."""
    return [p for p in pedestrians if distance_point_segment(p.position, dyad) <= params.anticipate]


def exit_time_from_disc(ped: PedestrianState, center: Vec2, radius: float) -> float:
    """Time until the straight-line path leaves a disc; 0 if it never enters.

    A stationary pedestrian inside the disc yields +inf (callers cap it).
    """
    wx, wy = ped.position.x - center.x, ped.position.y - center.y
    vx, vy = ped.velocity.x, ped.velocity.y
    vv = vx * vx + vy * vy
    inside = wx * wx + wy * wy <= radius * radius
    if vv == 0.0:
        return math.inf if inside else 0.0
    b = wx * vx + wy * vy
    c = wx * wx + wy * wy - radius * radius
    disc = b * b - vv * c
    if disc < 0.0:
        return 0.0
    t2 = (-b + math.sqrt(disc)) / vv
    return max(0.0, t2)


def prediction_horizon(
    pedestrians: list[PedestrianState],
    dyad: Segment,
    c_space_radius: float,
    cap: float = 15.0,
) -> float:
    """Shared horizon: until every pedestrian has left the dyad's c-space."""
    mid = dyad.midpoint()
    t = 0.0
    for ped in pedestrians:
        t = max(t, exit_time_from_disc(ped, mid, c_space_radius))
    return min(t, cap)
