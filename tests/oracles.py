"""Scalar reference implementations that the tests compare vhsim against.

Each one recomputes a production result the slow, obvious way: per
candidate, per sample or per pedestrian in plain Python, against the side
walls as segments, or, for the disc clip, by clipping a fine polygon. The
arrangement classifier reads a formation back from two poses.
"""

import math
from dataclasses import dataclass

import numpy as np

from crowds import PedestrianState, samples_of, states_of
from vhsim.comfort import COMFORT_OFFSET, COMFORT_SCALE_MM
from vhsim.geometry import Environment, Pose, Segment, Vec2, distance_point_segment
from vhsim.prediction import STATIONARY_SPEED, Phase
from vhsim.proxemics import ArrangementType, SpatialContext
from vhsim.simulation import Crowd, ScenarioConfig, step_pedestrian


def angle_between(u: Vec2, v: Vec2) -> float:
    """Unsigned angle between two nonzero vectors, in [0, pi]."""
    nu, nv = u.norm(), v.norm()
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle_between requires nonzero vectors")
    c = (u.x * v.x + u.y * v.y) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))


def heading(pose: Pose) -> Vec2:
    """Unit vector along a pose's body orientation."""
    return Vec2(math.cos(pose.orientation), math.sin(pose.orientation))


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


def relative_angles(user: Pose, agent: Pose) -> RelativeAngles:
    """Angles between each body orientation and the line to the partner."""
    if user.position == agent.position:
        raise ValueError("coincident positions have no relative angles")
    to_agent = agent.position - user.position
    to_user = user.position - agent.position
    alpha = math.degrees(angle_between(heading(user), to_agent))
    beta = math.degrees(angle_between(heading(agent), to_user))
    return RelativeAngles(alpha=min(alpha, 180.0), beta=min(beta, 180.0))


# hand-transcribed preference table: rows (near_wall, crowded), columns
# closed / L-shaped / open
PREFERENCE_ORACLE = {
    (False, False): (1.0, 0.6, 0.2),
    (False, True): (0.2, 1.0, 0.2),
    (True, False): (0.6, 0.6, 1.0),
    (True, True): (0.2, 1.0, 0.6),
}


def classify_arrangement(angles: RelativeAngles) -> ArrangementType:
    """Map the summed angles onto their class: [0, 60] closed, (60, 120)
    L-shaped, [120, 180] open.

    The planner never classifies a pose: `proxemics.ingroup_choice` picks an
    arrangement and `agent_orientation_for` realizes it. This classifier
    reads the arrangement back from the two poses, so a test can check each
    live decision against it.
    """
    total = angles.alpha + angles.beta
    if total > 180.0:
        raise ValueError(f"alpha + beta exceeds 180 degrees: {total}")
    if total <= 60.0:
        return ArrangementType.CLOSED
    if total < 120.0:
        return ArrangementType.L_SHAPED
    return ArrangementType.OPEN


def context_preference(context: SpatialContext, arrangement: int) -> float:
    """Preference weight of an arrangement code under a spatial context."""
    return PREFERENCE_ORACLE[(context.near_wall, context.crowded)][arrangement]


def oracle_arrangement(candidate: Vec2, user: Pose, context: SpatialContext, config: ScenarioConfig) -> int:
    """Independent in-group choice, from raw trigonometry and the banded
    table: the feasible arrangement the context prefers most, ties going to
    the more closed; -1 without a formation."""
    dx, dy = candidate.x - user.position.x, candidate.y - user.position.y
    dist = math.hypot(dx, dy)
    if dist == 0.0 or not (config.formation_min - 1e-9 <= dist <= config.interpersonal_distance + 1e-9):
        return -1
    bearing = math.atan2(dy, dx)
    alpha = abs(math.degrees(math.atan2(math.sin(bearing - user.orientation),
                                        math.cos(bearing - user.orientation))))
    if alpha > 90.0:
        return -1
    feasible = [ArrangementType.L_SHAPED]
    if alpha <= 60.0:
        feasible.insert(0, ArrangementType.CLOSED)
    if alpha >= 30.0:
        feasible.append(ArrangementType.OPEN)
    return max(feasible, key=lambda a: context_preference(context, a))


def oracle_ingroup(candidate: Vec2, user: Pose, context: SpatialContext, config: ScenarioConfig) -> float:
    """Independent in-group scoring: the preference of `oracle_arrangement`'s
    choice, 0 without a formation."""
    arrangement = oracle_arrangement(candidate, user, context, config)
    return 0.0 if arrangement == -1 else context_preference(context, arrangement)


def oracle_utility(candidate, user, current_vh, context, trajectories, config):
    seg = Segment(user.position, candidate)
    d_best = math.inf
    for traj in trajectories:
        for _, p in samples_of(traj, config.dt):
            d_best = min(d_best, distance_point_segment(p, seg))
    if math.isinf(d_best):
        out = 1.0
    elif d_best <= 0.0:
        out = 0.0
    else:
        out = max(0.0, min(1.0, COMFORT_SCALE_MM / (d_best * 1000.0) + COMFORT_OFFSET))
    ins = oracle_ingroup(candidate, user, context, config)
    move = candidate.distance_to(current_vh)
    return (ins + config.coefficient_c * out) / (1.0 + move * config.coefficient_d)


def oracle_decision(candidates, user, current_vh, context, trajectories, config):
    """Index of the candidate `plan_if_needed` should pick, from its docstring.

    Candidates whose segment to the user clears the trigger radius are safe.
    When any is safe, only safe ones and, if its clearance keeps the rest
    margin above the territory, holding still remain. When none is (the
    agent is cornered), the pool is every candidate within 0.10 m of the best
    clearance, plus holding still unless the intrusion cuts deeper than the
    rest margin into the territory. The highest utility wins, then the
    smaller move, then the earlier index.
    """
    radius = config.territory_radius + config.planning_margin
    clearance = []
    for cand in candidates:
        seg = Segment(user.position, cand)
        clearance.append(min(
            (distance_point_segment(p, seg) for traj in trajectories for _, p in samples_of(traj, config.dt)),
            default=math.inf,
        ))
    hold = [cand.distance_to(current_vh) <= 1e-12 for cand in candidates]
    if any(d >= radius for d in clearance):
        keep = [d >= radius or (h and d >= config.territory_radius + config.rest_margin)
                for d, h in zip(clearance, hold)]
    else:
        best = max(clearance)
        keep = [d >= best - 0.10 or (h and d >= config.territory_radius - config.rest_margin)
                for d, h in zip(clearance, hold)]
    ranked = [
        (oracle_utility(cand, user, current_vh, context, trajectories, config),
         -cand.distance_to(current_vh), -i)
        for i, cand in enumerate(candidates) if keep[i]
    ]
    return -max(ranked)[2]


def oracle_linear(ped: PedestrianState, t: float) -> Vec2:
    """Constant-velocity position estimate at time t."""
    return Vec2(ped.position.x + ped.velocity.x * t, ped.position.y + ped.velocity.y * t)


def oracle_min_approach(ped: PedestrianState, user: Vec2) -> float:
    """Closest distance the straight-line extrapolation comes to the user.

    A pedestrian slower than `STATIONARY_SPEED` has no approach course.
    """
    speed = ped.velocity.norm()
    if speed < STATIONARY_SPEED:
        raise ValueError("stationary pedestrian has no approach trajectory")
    wx, wy = user.x - ped.position.x, user.y - ped.position.y
    t_star = max(0.0, (wx * ped.velocity.x + wy * ped.velocity.y) / (speed * speed))
    return math.hypot(wx - ped.velocity.x * t_star, wy - ped.velocity.y * t_star)


def oracle_approach(candidates: np.ndarray, user: Pose, points: np.ndarray, reach: float) -> np.ndarray:
    """Each candidate segment's smallest distance to a sample within `reach`
    of the farthest candidate, in the planner's original out-of-place form:
    full (samples, candidates) matrices from `np.outer` and `np.clip`. Every
    cell goes through the same IEEE operations as `score_candidates`, so the
    two agree bit for bit; inf when no sample is that close."""
    u = user.position
    ex = candidates[:, 0] - u.x
    ey = candidates[:, 1] - u.y
    ee = ex * ex + ey * ey
    approach = np.full(len(candidates), np.inf)
    if points.size:
        cutoff = math.sqrt(ee.max()) + reach + 1e-6
        wx = points[:, 0] - u.x
        wy = points[:, 1] - u.y
        keep = (wx * wx + wy * wy) <= cutoff * cutoff
        if keep.any():
            wx, wy = wx[keep], wy[keep]
            ee_safe = np.where(ee == 0.0, 1.0, ee)
            t = np.outer(wx, ex) + np.outer(wy, ey)
            t = np.clip(t / ee_safe[None, :], 0.0, 1.0)
            dx = wx[:, None] - t * ex[None, :]
            dy = wy[:, None] - t * ey[None, :]
            approach = np.sqrt((dx * dx + dy * dy).min(axis=0))
    return approach


def side_walls(env: Environment) -> list[Segment]:
    """The environment's walls as segments: its left and right edges when it
    has side walls, else none."""
    if not env.side_walls:
        return []
    return [Segment(Vec2(0.0, 0.0), Vec2(0.0, env.height)),
            Segment(Vec2(env.width, 0.0), Vec2(env.width, env.height))]


def oracle_wall_distance(env: Environment, dyad: Segment) -> float:
    """Distance from a dyad inside the environment to the nearest wall
    segment: the least of the four endpoint-to-segment distances against each
    wall, since the dyad cannot cross one; inf without walls."""
    return min((min(distance_point_segment(dyad.a, w), distance_point_segment(dyad.b, w),
                    distance_point_segment(w.a, dyad), distance_point_segment(w.b, dyad))
                for w in side_walls(env)), default=math.inf)


def inside(env: Environment, p: Vec2) -> bool:
    return 0.0 <= p.x <= env.width and 0.0 <= p.y <= env.height


def oracle_candidates(user: Pose, current_vh: Vec2, config: ScenarioConfig) -> list[Vec2]:
    """The planner's candidate grid, point by point: radius by radius and
    bearing by bearing, dropping points outside the config's environment or
    closer than the wall clearance to a wall segment, then the current spot."""
    env = config.build_environment()
    walls = side_walls(env)
    candidates = []
    radial_step, angular_step = config.candidate_radial_step, config.candidate_angular_step
    n_radii = int(math.floor((config.interpersonal_distance - config.formation_min) / radial_step + 1e-9)) + 1
    n_bearings = int(round(360.0 / angular_step))
    for i in range(n_radii):
        r = config.formation_min + i * radial_step
        for k in range(n_bearings):
            theta = math.radians(k * angular_step)
            p = Vec2(user.position.x + r * math.cos(theta), user.position.y + r * math.sin(theta))
            if not inside(env, p):
                continue
            if walls and min(distance_point_segment(p, w) for w in walls) < config.wall_clearance:
                continue
            candidates.append(p)
    candidates.append(current_vh)
    return candidates


def polygon_disc_rect_area(center: Vec2, radius: float, width: float, height: float, vertices: int) -> float:
    """Area of a disc clipped to [0, width] x [0, height], from a
    Sutherland-Hodgman clip of the inscribed regular polygon with the given
    number of vertices."""
    poly = [
        (center.x + radius * math.cos(2.0 * math.pi * k / vertices),
         center.y + radius * math.sin(2.0 * math.pi * k / vertices))
        for k in range(vertices)
    ]
    # each edge keeps the points p with side * (p[axis] - bound) >= 0
    for axis, bound, side in ((0, 0.0, 1.0), (0, width, -1.0), (1, 0.0, 1.0), (1, height, -1.0)):
        clipped = []
        for i, cur in enumerate(poly):
            nxt = poly[(i + 1) % len(poly)]
            ins_cur = side * (cur[axis] - bound) >= 0.0
            ins_nxt = side * (nxt[axis] - bound) >= 0.0
            if ins_cur:
                clipped.append(cur)
            if ins_cur != ins_nxt:
                t = (bound - cur[axis]) / (nxt[axis] - cur[axis])
                clipped.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        poly = clipped
        if not poly:
            return 0.0
    twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    return abs(twice) * 0.5


def goal_boxes(env: Environment, side: int) -> list[tuple[float, float, float, float]]:
    """The five 0.5 m deep goal boxes side by side along the top (side 0) or
    bottom (side 1) edge, each as (x_min, y_min, x_max, y_max)."""
    step = env.width / 5
    y_min, y_max = (env.height - 0.5, env.height) if side == 0 else (0.0, 0.5)
    return [(i * step, y_min, (i + 1) * step, y_max) for i in range(5)]


def oracle_crowd_tick(crowd: Crowd, user: Vec2) -> None:
    """One tick of the crowd, pedestrian by pedestrian: the scalar dodge rule,
    then, within the goal tolerance, the next goal from the pedestrian's own
    generator: a box on the other side from the goal reached (the bottom
    boxes after a goal in the top boxes' strip, the top boxes after any
    other goal), then a uniform point in it. Every row
    is stepped from the tick before; the crowd's arrays are replaced at the
    end."""
    rows = [list(step_pedestrian(crowd, i, user)) for i in range(len(crowd))]
    goals = crowd.goal.tolist()
    env = crowd.config.build_environment()
    for i, row in enumerate(rows):
        (x, y), (gx, gy) = row[0], goals[i]
        if math.hypot(x - gx, y - gy) <= crowd.config.goal_tolerance:
            boxes = goal_boxes(env, 1 if gy >= env.height - 0.5 else 0)
            rng = crowd.rngs[i]
            x_min, y_min, x_max, y_max = boxes[int(rng.integers(len(boxes)))]
            goals[i] = float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max))
            row[2:] = Phase.DIRECT, (math.nan, math.nan)
    if rows:
        position, velocity, phase, waypoint = zip(*rows)
        crowd.position, crowd.velocity, crowd.goal = np.array(position), np.array(velocity), np.array(goals)
        crowd.phase, crowd.waypoint = np.array(phase, np.int8), np.array(waypoint)


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


def _toward(start: Vec2, end: Vec2, fallback: Vec2) -> Vec2:
    # unit direction from start to end; fallback when they (nearly) coincide
    dx, dy = end.x - start.x, end.y - start.y
    d = math.hypot(dx, dy)
    return fallback if d < 1e-12 else Vec2(dx * (1.0 / d), dy * (1.0 / d))


def oracle_course(ped: PedestrianState, user: Vec2,
                  config: ScenarioConfig) -> tuple[str, list[tuple[Vec2, Vec2, float]]]:
    """The kind of course the prediction gives a pedestrian, and its legs,
    each (start point, unit direction, length), the last length infinite.

    Below STATIONARY_SPEED it stands still. A returning pedestrian walks
    straight on; one avoiding toward a waypoint walks there, then for its
    goal. Any other walks straight on unless that course heads for the user
    and passes inside the clearance: then it turns where the user comes
    within the start range (at once, if already inside it) for the tangent
    waypoint on its side of the course away from the user, then for its goal.
    """
    p, v = ped.position, ped.velocity
    speed = math.hypot(v.x, v.y)
    if speed < STATIONARY_SPEED:
        return "stationary", [(p, Vec2(0.0, 0.0), math.inf)]
    ux, uy = v.x * (1.0 / speed), v.y * (1.0 / speed)
    heading = Vec2(ux, uy)
    if ped.phase is Phase.RETURNING:
        return "returning", [(p, heading, math.inf)]
    if ped.phase is Phase.AVOIDING and ped.waypoint is not None:
        wp = ped.waypoint
        dist = math.hypot(wp.x - p.x, wp.y - p.y)
        if dist < 1e-9:
            return "avoiding", [(p, _toward(wp, ped.goal, heading), math.inf)]
        to_wp = _toward(p, wp, heading)
        return "avoiding", [(p, to_wp, dist), (wp, _toward(wp, ped.goal, to_wp), math.inf)]

    wx, wy = user.x - p.x, user.y - p.y
    rng = math.hypot(wx, wy)
    proj = wx * ux + wy * uy
    miss = math.sqrt(max(0.0, rng * rng - proj * proj))
    if proj <= 0.0 or miss >= config.min_avoidance_distance:
        return "straight", [(p, heading, math.inf)]
    turn_at, lead = p, 0.0
    if rng > config.start_avoidance_distance:
        lead = proj - math.sqrt(max(0.0, config.start_avoidance_distance**2 - miss * miss))
        turn_at = Vec2(p.x + ux * lead, p.y + uy * lead)

    tx, ty = user.x - turn_at.x, user.y - turn_at.y
    r = math.hypot(tx, ty)
    angle = math.asin(min(1.0, config.min_avoidance_distance / r))
    reach = config.min_avoidance_distance if math.cos(angle) < 1e-9 else r / math.cos(angle)
    # the user to the right of the course (negative cross product) means a left turn
    turn = angle if ux * ty - uy * tx < 0.0 else -angle
    c, s, dx, dy = math.cos(turn), math.sin(turn), tx * (1.0 / r), ty * (1.0 / r)
    wp = Vec2(turn_at.x + (c * dx - s * dy) * reach, turn_at.y + (s * dx + c * dy) * reach)
    to_wp = _toward(turn_at, wp, heading)
    legs = [(turn_at, to_wp, math.hypot(wp.x - turn_at.x, wp.y - turn_at.y)),
            (wp, _toward(wp, ped.goal, to_wp), math.inf)]
    if lead > 1e-12:
        return "detour ahead", [(p, heading, lead)] + legs
    return "detour now", legs


def oracle_trajectory(ped: PedestrianState, user: Vec2, horizon: float, dt: float,
                      config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(times, points) of a pedestrian's predicted path: the legs of
    `oracle_course`, sampled leg by leg; its position throughout below
    STATIONARY_SPEED."""
    n = int(math.floor(horizon / dt + 1e-9)) + 1
    times = np.arange(n) * dt
    kind, legs = oracle_course(ped, user, config)
    if kind == "stationary":
        return times, np.tile((ped.position.x, ped.position.y), (n, 1))
    return times, _sample_legs(legs, times * math.hypot(ped.velocity.x, ped.velocity.y))


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


def oracle_snapshot(crowd: Crowd, user: Vec2, vh: Vec2,
                    config: ScenarioConfig) -> tuple[list[int], float, np.ndarray]:
    """(tracked ids, horizon, points) of `make_snapshot`'s prediction, one
    pedestrian at a time: the ones within the tracking distance of the dyad,
    the time until the last of them leaves the c-space disc (capped, and at
    least dt), and their paths stacked in id order."""
    dyad = Segment(user, vh)
    tracked = [p for p in states_of(crowd) if distance_point_segment(p.position, dyad) <= config.tracking_distance]
    t = 0.0
    for p in tracked:
        t = max(t, exit_time_from_disc(p, dyad.midpoint(), config.c_space_radius))
    horizon = max(min(t, config.horizon_cap), config.dt)
    paths = [oracle_trajectory(p, user, horizon, config.dt, config)[1] for p in tracked]
    return [p.id for p in tracked], horizon, np.concatenate(paths) if paths else np.empty((0, 2))
