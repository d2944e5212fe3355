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
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Segment, Vec2, distance_points_segment, hypot

if TYPE_CHECKING:
    from .simulation import ScenarioConfig

# Speeds below this (m/s) count as standing still: for a subnormal speed,
# 1 / speed overflows and speed * speed underflows. Trials give every
# pedestrian a speed of 0 or at least 0.1 m/s.
STATIONARY_SPEED = 1e-9


class Phase(enum.IntEnum):
    """A pedestrian's dodge phase, as `simulation.Crowd.phase` stores it.

    Array comparisons take a member's `.value`: under Python 3.11, numpy
    spends microseconds probing an IntEnum operand's type on every call.
    """

    DIRECT = 0
    AVOIDING = 1
    RETURNING = 2


@dataclass(frozen=True)
class Prediction:
    """Every tracked pedestrian's future positions on one shared time grid,
    sample k at k * dt.

    `points` holds len(ids) equal blocks, one row per sample time: block i is
    pedestrian ids[i]'s path. As a sequence it yields one one-row
    `Prediction` per pedestrian, whose arrays are views into this one's.
    """

    ids: np.ndarray
    points: np.ndarray

    def __getitem__(self, i: int) -> Prediction:
        i = range(self.ids.size)[i]
        n = self.points.shape[0] // self.ids.size
        return Prediction(self.ids[i:i + 1], self.points[i * n:(i + 1) * n])

    def __iter__(self) -> Iterator[Prediction]:
        return map(self.__getitem__, range(self.ids.size))


def detour_waypoint(position: Vec2, heading: Vec2, user: Vec2, config: ScenarioConfig) -> Vec2:
    """The detour waypoint of a pedestrian at `position` heading along
    `heading`, for both the crowd and the prediction.

    It lies on a tangent to the clearance circle around the user, so walking
    to it keeps the closest approach at the clearance radius: turned by
    arcsin(clearance / range) from the user's direction and range /
    cos(angle) away, abeam of the user. At (or inside) the clearance radius
    the tangent is perpendicular and the hop is the clearance. It passes on
    the side of the travel line opposite the user's lateral offset, ties
    going right; that cross product is constant along a straight approach,
    so the crowd and the prediction agree even for near-head-on geometry.
    """
    to_user = user - position
    r = to_user.norm()
    if r == 0.0:
        raise ValueError("pedestrian and user coincide")
    angle = math.asin(min(1.0, config.min_avoidance_distance / r))
    cos_a = math.cos(angle)
    distance = config.min_avoidance_distance if cos_a < 1e-9 else r / cos_a
    if not heading.x * to_user.y - heading.y * to_user.x < 0.0:
        angle = -angle
    return position + (to_user * (1.0 / r)).rotated(angle) * distance


def sample_count(horizon: float, dt: float) -> int:
    """Samples of a predicted path over `horizon` at step dt, both ends included."""
    return int(math.floor(horizon / dt + 1e-9)) + 1


def predict_trajectory(
    crowd,
    rows: np.ndarray,
    user: Vec2,
    horizon: float,
    dt: float,
    config: ScenarioConfig,
) -> Prediction:
    """Sample the given rows of the crowd at step dt over a shared horizon.

    `crowd` is a `simulation.Crowd`: its `position`, `velocity`, `phase` and
    `waypoint` arrays are read, and a detouring pedestrian's `goal` row.
    Pedestrians already detouring continue to their waypoint and then head
    for their goal. Pedestrians on a straight course that would pass closer
    than the clearance radius get the detour inserted at the range where they
    would start turning (immediately, if already inside that range).

    This array pass alone decides each row's course. Most rows walk straight
    along their velocity and are sampled in one array step. The others have
    up to three constant-speed legs, built from the pass's own values by
    `_waypoint_legs` or `_detour_legs` and sampled together in `_sample_legs`.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    n = sample_count(horizon, dt)
    times = np.arange(n) * dt
    pos, vel = crowd.position[rows], crowd.velocity[rows]
    speed = hypot(vel[:, 0], vel[:, 1])
    moving = speed >= STATIONARY_SPEED
    v_dir = np.zeros_like(vel)
    v_dir[moving] = vel[moving] * (1.0 / speed[moving])[:, None]

    # a row avoiding toward a waypoint heads there; one that is neither that
    # nor returning detours when it heads toward the user and would pass
    # inside the clearance; every other row walks straight
    phase, waypoint = crowd.phase[rows], crowd.waypoint[rows]
    avoiding = (phase == Phase.AVOIDING.value) & ~np.isnan(waypoint[:, 0])
    w = np.array([user.x, user.y]) - pos
    rng = hypot(w[:, 0], w[:, 1])
    proj = w[:, 0] * v_dir[:, 0] + w[:, 1] * v_dir[:, 1]
    miss = np.sqrt(np.maximum(0.0, rng * rng - proj * proj))
    detour = (phase != Phase.RETURNING.value) & ~avoiding & (proj > 0.0) & (miss < config.min_avoidance_distance)

    arc = times * speed[:, None]
    points = pos[:, None, :] + v_dir[:, None, :] * arc[:, :, None]
    legged = np.flatnonzero(moving & (avoiding | detour))
    paths = [
        _waypoint_legs(Vec2(*p), Vec2(*d), Vec2(*g), Vec2(*wp)) if a
        else _detour_legs(Vec2(*p), Vec2(*d), Vec2(*g), r, pr, m, user, config)
        for p, d, g, wp, a, r, pr, m in zip(
            pos[legged].tolist(), v_dir[legged].tolist(), crowd.goal[rows[legged]].tolist(),
            waypoint[legged].tolist(), avoiding[legged].tolist(),
            rng[legged].tolist(), proj[legged].tolist(), miss[legged].tolist())
    ]
    points[legged] = _sample_legs(paths, arc[legged])
    return Prediction(rows, points.reshape(rows.size * n, 2))


def _sample_legs(paths: list[list[tuple[Vec2, Vec2, float]]], arc: np.ndarray) -> np.ndarray:
    """Sample paths of up to three consecutive constant-speed legs.

    paths: per path, its legs as (start point, unit direction, length), the
    last length infinite. arc: (paths, samples) arc lengths to sample at,
    non-decreasing along each row. Returns (paths, samples, 2) points.
    """
    base = np.zeros((len(paths), 3, 2))
    direction = np.zeros((len(paths), 3, 2))
    start = np.full((len(paths), 3), math.inf)  # unused legs never begin
    for j, legs in enumerate(paths):
        acc = 0.0
        for leg, (point, unit, length) in enumerate(legs):
            base[j, leg] = point.x, point.y
            direction[j, leg] = unit.x, unit.y
            start[j, leg] = acc
            acc += length
    leg = (arc >= start[:, 1, None]).astype(np.intp) + (arc >= start[:, 2, None])
    row = np.arange(len(paths))[:, None]
    return base[row, leg] + direction[row, leg] * (arc - start[row, leg])[:, :, None]


def _direction(start: Vec2, end: Vec2, fallback: Vec2) -> Vec2:
    d = end - start
    n = d.norm()
    if n < 1e-12:
        return fallback
    return d * (1.0 / n)


def _waypoint_legs(position: Vec2, v_dir: Vec2, goal: Vec2, waypoint: Vec2) -> list[tuple[Vec2, Vec2, float]]:
    """Legs of a row avoiding toward `waypoint`, each (start point, unit
    direction, length), the last length infinite: to the waypoint, then on
    for the goal."""
    to_wp = waypoint - position
    wp_dist = to_wp.norm()
    if wp_dist < 1e-9:
        return [(position, _direction(waypoint, goal, v_dir), math.inf)]
    wp_dir = to_wp * (1.0 / wp_dist)
    return [(position, wp_dir, wp_dist), (waypoint, _direction(waypoint, goal, wp_dir), math.inf)]


def _detour_legs(
    position: Vec2, v_dir: Vec2, goal: Vec2, rng: float, proj: float, miss: float, user: Vec2, config: ScenarioConfig
) -> list[tuple[Vec2, Vec2, float]]:
    """Legs, as `_waypoint_legs` gives them, of a row on a straight course
    that would pass `miss` from the user, `rng` away and `proj` ahead: on
    until the start range, to the tangent waypoint, then on for the goal."""
    if rng <= config.start_avoidance_distance:
        trigger_arc = 0.0
        trigger = position
    else:
        back = math.sqrt(max(0.0, config.start_avoidance_distance**2 - miss * miss))
        trigger_arc = proj - back
        trigger = position + v_dir * trigger_arc

    waypoint = detour_waypoint(trigger, v_dir, user, config)
    wp_dir = _direction(trigger, waypoint, v_dir)
    legs = [(position, v_dir, trigger_arc)] if trigger_arc > 1e-12 else []
    legs.append((trigger, wp_dir, waypoint.distance_to(trigger)))
    legs.append((waypoint, _direction(waypoint, goal, wp_dir), math.inf))
    return legs


def anticipated_pedestrians(positions: np.ndarray, dyad: Segment, config: ScenarioConfig) -> np.ndarray:
    """Rows of an (n, 2) position array within the tracking distance of the
    dyad (inclusive), the ones worth predicting."""
    return np.flatnonzero(distance_points_segment(positions, dyad) <= config.tracking_distance)


def prediction_horizon(
    positions: np.ndarray,
    velocities: np.ndarray,
    dyad: Segment,
    c_space_radius: float,
    cap: float,
) -> float:
    """Shared horizon: until every pedestrian's straight-line path has left
    the disc of radius `c_space_radius` around the dyad's midpoint.

    A path that never enters the disc needs no time; a stationary pedestrian
    inside it never leaves, which gives the cap.
    """
    mid = dyad.midpoint()
    wx, wy = positions[:, 0] - mid.x, positions[:, 1] - mid.y
    vx, vy = velocities[:, 0], velocities[:, 1]
    vv = vx * vx + vy * vy
    ww = wx * wx + wy * wy
    rr = c_space_radius * c_space_radius
    if ((vv == 0.0) & (ww <= rr)).any():
        return cap
    b = wx * vx + wy * vy
    disc = b * b - vv * (ww - rr)
    leaves = (vv != 0.0) & (disc >= 0.0)
    exits = (-b[leaves] + np.sqrt(disc[leaves])) / vv[leaves]
    return min(max(0.0, float(exits.max(initial=0.0))), cap)
