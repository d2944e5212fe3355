"""Fixed-timestep world simulation: pedestrian flow, agent behavior, metrics.

Pedestrians stream between goal boxes on the top and bottom edges, dodging the
user (and only the user; the agent is invisible to them and has no collider).
The agent either stays put (condition "none") or runs the conflict-avoidance
planner (condition "proposed"). Conflict events are counted on territory and
body entry edges, and the split between stable and adjusting time is recorded.

Everything is deterministic for a given config: each pedestrian draws from its
own PCG64 stream keyed by (trial seed, pedestrian id), so spawn order cannot
perturb per-agent randomness.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields, asdict
from typing import IO

import numpy as np

from .comfort import ComfortCoefficients, points_segment_distance
from .geometry import (
    Environment,
    Pose,
    Rect,
    Segment,
    Vec2,
    angle_difference,
    distance_point_segment,
    narrow_passage,
    open_rect,
    open_square,
)
from .planner import ConflictAvoidancePlanner, PlanPhase, PlannerCoefficients, PlannerParams
from .prediction import AvoidanceParams, PedestrianState, Phase, avoidance_geometry, choose_waypoint
from .proxemics import ProxemicsParams

TRACE_SCHEMA = "vhsim-trace/1"

ENVIRONMENT_PRESETS = ("square12", "square20", "passage", "custom")
CONDITIONS = ("none", "proposed")

# Work bounds, checked before a trial starts so that no accepted scenario can
# run away; each is well above what the reference experiments need (the
# arithmetic is in the README).
MAX_TICKS = 100_000  # round(duration / dt)
MAX_PEDESTRIANS = 1_000  # density * environment area
MAX_SAMPLES = 1_000  # samples per predicted trajectory, horizon_cap / dt
MAX_SCORE_CELLS = 5_000_000  # pedestrians * samples * candidates in the scorer


class ScenarioError(ValueError):
    """Raised for malformed or out-of-range scenario input."""


def _key(default, *, ge=None, gt=None, le=None, choices=None):
    """A scenario field of its default's type, bounded below by `ge` (>=) or
    `gt` (>) and above by `le` (<=), or restricted to `choices`."""
    return field(default=default, metadata=dict(type=type(default), ge=ge, gt=gt, le=le, choices=choices))


def _field_problem(f, value) -> str | None:
    kind, meta = f.metadata["type"], f.metadata
    accepted = (int, float) if kind is float else kind  # an int is a valid float
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        return f"must be {kind.__name__}, got {value!r}"
    if meta["choices"] is not None and value not in meta["choices"]:
        return f"must be one of {meta['choices']}, got {value!r}"
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite, got {value!r}"
    low_ok = (meta["ge"] is None or value >= meta["ge"]) and (meta["gt"] is None or value > meta["gt"])
    if not (low_ok and (meta["le"] is None or value <= meta["le"])):
        low = f">= {meta['ge']}" if meta["ge"] is not None else f"> {meta['gt']}"
        return f"must be {low} and <= {meta['le']}, got {value!r}"
    return None


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation trial.

    All distances in meters, angles in degrees, times in seconds. Every model
    parameter is overridable; the defaults reproduce the reference setup.
    Each field carries its type and range, and a config checks them, the
    rules between fields and the work bounds when it is built, so an invalid
    config cannot exist; violations raise `ScenarioError` naming the fields.
    """

    environment: str = _key("square12", choices=ENVIRONMENT_PRESETS)
    env_width: float = _key(12.0, ge=1.0, le=1000.0)
    env_height: float = _key(12.0, ge=1.0, le=1000.0)
    env_side_walls: bool = _key(False)
    density: float = _key(0.25, ge=0.0, le=4.0)
    speed_min: float = _key(1.0, ge=0.1, le=3.0)
    speed_max: float = _key(1.5, ge=0.1, le=3.0)
    condition: str = _key("proposed", choices=CONDITIONS)
    duration: float = _key(600.0, gt=0.0, le=86_400.0)
    dt: float = _key(0.1, ge=0.001, le=1.0)
    seed: int = _key(1, ge=0, le=2**63 - 1)
    interpersonal_distance: float = _key(1.5, gt=0.0, le=10.0)
    coefficient_c: float = _key(1.0, ge=0.0, le=100.0)
    coefficient_d: float = _key(0.5, ge=0.0, le=100.0)
    tracking_distance: float = _key(6.0, gt=0.0, le=100.0)
    personal_space: float = _key(1.2, gt=0.0, le=100.0)
    formation_min: float = _key(0.6, gt=0.0, le=10.0)
    crowd_threshold: float = _key(0.15, gt=0.0, le=10.0)
    c_space_radius: float = _key(6.0, gt=0.0, le=100.0)
    min_avoidance_distance: float = _key(0.67, gt=0.0, le=100.0)
    start_avoidance_distance: float = _key(2.0, gt=0.0, le=100.0)
    body_radius: float = _key(0.4, gt=0.0, le=10.0)
    territory_radius: float = _key(0.40, gt=0.0, le=10.0)
    planning_margin: float = _key(0.20, ge=0.0, le=10.0)
    rest_margin: float = _key(0.10, ge=0.0, le=10.0)
    replan_interval: float = _key(0.5, gt=0.0, le=3600.0)
    vh_max_speed: float = _key(1.5, gt=0.0, le=10.0)
    vh_turn_rate: float = _key(180.0, gt=0.0, le=3600.0)
    user_turn_rate: float = _key(90.0, ge=0.0, le=3600.0)
    candidate_radial_step: float = _key(0.15, ge=0.01, le=10.0)
    candidate_angular_step: float = _key(15.0, ge=0.1, le=360.0)
    wall_clearance: float = _key(0.3, ge=0.0, le=10.0)
    arrive_position_tol: float = _key(0.05, ge=0.0, le=10.0)
    arrive_angle_tol: float = _key(10.0, ge=0.0, le=180.0)
    horizon_cap: float = _key(4.0, gt=0.0, le=600.0)
    spawn_exclusion: float = _key(2.0, ge=0.0, le=100.0)
    goal_tolerance: float = _key(0.3, ge=0.0, le=10.0)

    def __post_init__(self) -> None:
        for f in fields(self):
            problem = _field_problem(f, getattr(self, f.name))
            if problem is not None:
                raise ScenarioError(f"{f.name}: {problem}")
        env = self.build_environment()
        user, vh = self.initial_poses(env)
        ticks = round(self.duration / self.dt)
        pedestrians = round(self.density * env.width * env.height)
        samples = math.floor(max(self.horizon_cap, self.dt) / self.dt + 1e-9) + 1
        band = self.interpersonal_distance - self.formation_min
        radii = math.floor(band / self.candidate_radial_step + 1e-9) + 1
        candidates = radii * round(360.0 / self.candidate_angular_step) + 1
        cells = max(pedestrians, 1) * samples * candidates
        rules = (
            ("speed_min, speed_max", self.speed_min <= self.speed_max, "need speed_min <= speed_max"),
            ("formation_min, interpersonal_distance", self.formation_min < self.interpersonal_distance,
             "need formation_min < interpersonal_distance"),
            ("min_avoidance_distance, start_avoidance_distance, tracking_distance",
             self.min_avoidance_distance <= self.start_avoidance_distance <= self.tracking_distance,
             "need min_avoidance_distance <= start_avoidance_distance <= tracking_distance"),
            ("interpersonal_distance, env_width, env_height",
             all(0.0 < p.x < env.width and 0.0 < p.y < env.height for p in (user.position, vh.position)),
             f"the dyad must lie strictly inside the {env.width:g} x {env.height:g} m environment"),
            ("duration, dt", 1 <= ticks <= MAX_TICKS,
             f"{ticks} ticks (duration / dt) must be between 1 and {MAX_TICKS}"),
            ("density", pedestrians <= MAX_PEDESTRIANS,
             f"{pedestrians} pedestrians (density * area) exceed {MAX_PEDESTRIANS}"),
            ("horizon_cap, dt", samples <= MAX_SAMPLES,
             f"{samples} samples per trajectory (horizon_cap / dt + 1) exceed {MAX_SAMPLES}"),
            ("density, horizon_cap, dt, candidate_radial_step, candidate_angular_step",
             cells <= MAX_SCORE_CELLS,
             f"{pedestrians} pedestrians * {samples} samples * {candidates} candidates exceed {MAX_SCORE_CELLS}"),
        )
        for names, ok, message in rules:
            if not ok:
                raise ScenarioError(f"{names}: {message}")

    def build_environment(self) -> Environment:
        if self.environment == "square12":
            return open_square(12.0)
        if self.environment == "square20":
            return open_square(20.0)
        if self.environment == "passage":
            return narrow_passage(3.0, 20.0)
        if self.env_side_walls:
            return narrow_passage(self.env_width, self.env_height)
        return open_rect(self.env_width, self.env_height)

    def proxemics_params(self) -> ProxemicsParams:
        return ProxemicsParams(
            r_ps=self.personal_space,
            formation_min=self.formation_min,
            formation_max=self.interpersonal_distance,
            crowd_threshold=self.crowd_threshold,
            c_space_radius=self.c_space_radius,
        )

    def avoidance_params(self) -> AvoidanceParams:
        return AvoidanceParams(
            min_avoidance=self.min_avoidance_distance,
            start_avoidance=self.start_avoidance_distance,
            anticipate=self.tracking_distance,
        )

    def comfort_coefficients(self) -> ComfortCoefficients:
        return ComfortCoefficients()

    def planner_coefficients(self) -> PlannerCoefficients:
        return PlannerCoefficients(outgroup_weight=self.coefficient_c, move_cost=self.coefficient_d)

    def planner_params(self) -> PlannerParams:
        return PlannerParams(
            territory_radius=self.territory_radius,
            planning_margin=self.planning_margin,
            rest_margin=self.rest_margin,
            replan_interval=self.replan_interval,
            radial_step=self.candidate_radial_step,
            angular_step_deg=self.candidate_angular_step,
            wall_clearance=self.wall_clearance,
            max_speed=self.vh_max_speed,
            turn_rate_deg=self.vh_turn_rate,
            arrive_position_tol=self.arrive_position_tol,
            arrive_angle_tol_deg=self.arrive_angle_tol,
            horizon_cap=self.horizon_cap,
        )

    def initial_poses(self, env: Environment) -> tuple[Pose, Pose]:
        """User and agent face each other across the middle of the environment."""
        center = env.center()
        half = 0.5 * self.interpersonal_distance
        user_pos = Vec2(center.x, center.y - half)
        vh_pos = Vec2(center.x, center.y + half)
        user = Pose(user_pos, (vh_pos - user_pos).angle())
        vh = Pose(vh_pos, (user_pos - vh_pos).angle())
        return user, vh


class ConflictKind(enum.Enum):
    SOCIAL = "social"
    PHYSICALITY = "physicality"


@dataclass(frozen=True)
class ConflictEvent:
    kind: ConflictKind
    time: float
    pedestrian_id: int


@dataclass
class TrialMetrics:
    social_conflicts: int
    physicality_conflicts: int
    stable_time: float
    adjusting_time: float
    stable_percentage: float
    duration: float
    events: list[ConflictEvent] = field(default_factory=list)
    mean_ingroup: float | None = None
    decision_count: int = 0


_PHASES = (Phase.DIRECT, Phase.AVOIDING, Phase.RETURNING)  # phase codes 0, 1, 2
_DIRECT, _AVOIDING, _RETURNING = range(3)
# Routing margin (m): a pedestrian whose array step lies within this distance
# of a phase-changing condition takes the scalar `step_pedestrian` instead,
# so the scalar rule decides every edge case.
_MARGIN = 1e-6


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise `math.hypot`, bit for bit: np.hypot and sqrt(x*x + y*y)
    differ from it in the last ulp on some inputs, and a step length or a
    direction computed from them would move a pedestrian."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, x.size)


def _pedestrian_rng(seed: int, ped_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(ped_id,))))


def _draw_goal(rng: np.random.Generator, boxes: list[Rect]) -> Vec2:
    box = boxes[int(rng.integers(len(boxes)))]
    x = float(rng.uniform(box.x_min, box.x_max))
    y = float(rng.uniform(box.y_min, box.y_max))
    return Vec2(x, y)


def _waypoint_xy(waypoint: Vec2 | None) -> tuple[float, float]:
    return (math.nan, math.nan) if waypoint is None else (waypoint.x, waypoint.y)


def _pedestrian_state(i, position, velocity, goal, speed, phase, waypoint) -> PedestrianState:
    wx, wy = waypoint
    return PedestrianState(
        id=i, position=Vec2(*position), velocity=Vec2(*velocity), goal=Vec2(*goal),
        preferred_speed=speed, phase=_PHASES[phase], waypoint=None if math.isnan(wx) else Vec2(wx, wy),
    )


class Crowd:
    """The pedestrians as arrays, one row per pedestrian id.

    `step` advances every pedestrian whose tick is a straight walk toward its
    target (the goal, or the waypoint while avoiding) in one array step, goal
    arrival and the RETURNING -> DIRECT switch beyond the start range
    included. Only a pedestrian whose phase could change on the tick goes
    through the scalar `step_pedestrian`: a possible dodge trigger, a
    waypoint arrival, a target closer than the routing margin, or a
    RETURNING pedestrian on the start-range boundary. A pedestrian that
    reaches its goal draws the next one from its own generator.
    """

    def __init__(
        self,
        pedestrians: list[PedestrianState],
        rngs: list[np.random.Generator],
        goal_sides: list[int],
        env: Environment,
        avoid: AvoidanceParams,
        dt: float,
        goal_tolerance: float,
    ) -> None:
        n = len(pedestrians)
        if any(p.id != i for i, p in enumerate(pedestrians)):
            raise ValueError("pedestrian ids must equal their row indices 0..n-1")
        self.position = np.array([(p.position.x, p.position.y) for p in pedestrians], float).reshape(n, 2)
        self.velocity = np.array([(p.velocity.x, p.velocity.y) for p in pedestrians], float).reshape(n, 2)
        self.goal = np.array([(p.goal.x, p.goal.y) for p in pedestrians], float).reshape(n, 2)
        self.speed = np.array([p.preferred_speed for p in pedestrians], float)
        self.phase = np.array([_PHASES.index(p.phase) for p in pedestrians], np.int8)
        self.waypoint = np.array([_waypoint_xy(p.waypoint) for p in pedestrians], float).reshape(n, 2)
        self.goal_side = list(goal_sides)  # 0 = top boxes, 1 = bottom boxes
        self.rngs = rngs
        self.env = env
        self.avoid = avoid
        self.dt = dt
        self.goal_tolerance = goal_tolerance
        self._step_length = self.speed * dt

    def __len__(self) -> int:
        return self.speed.size

    def state(self, i: int) -> PedestrianState:
        return _pedestrian_state(
            i, self.position[i].tolist(), self.velocity[i].tolist(), self.goal[i].tolist(),
            float(self.speed[i]), int(self.phase[i]), self.waypoint[i].tolist(),
        )

    def states(self) -> list[PedestrianState]:
        columns = (self.position, self.velocity, self.goal, self.speed, self.phase, self.waypoint)
        return list(map(_pedestrian_state, range(len(self)), *(c.tolist() for c in columns)))

    def step(self, user: Vec2) -> None:
        """Advance every pedestrian by dt, as `step_pedestrian` followed by a
        goal re-roll on arrival would."""
        if not len(self):
            return
        avoid, pos, step = self.avoid, self.position, self._step_length
        phase = self.phase.copy()
        avoiding = phase == _AVOIDING
        target = np.where(avoiding[:, None], self.waypoint, self.goal)
        to_target = target - pos
        t_dist = _hypot(to_target[:, 0], to_target[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):  # a target this close goes scalar
            direction = to_target / t_dist[:, None]
        new_pos = pos + direction * step[:, None]
        velocity = direction * self.speed[:, None]

        # Route every pedestrian whose phase could change to the scalar rule.
        # The distance to the user is the complex modulus, within an ulp of
        # the scalar rule's math.hypot, so each test keeps a margin on the
        # scalar side.
        rel = complex(user.x, user.y) - pos.view(complex)[:, 0]
        d_user = np.abs(rel)
        reach, lower = avoid.start_avoidance + _MARGIN, avoid.start_avoidance - _MARGIN
        scalar = set()
        for i in (phase == _RETURNING).nonzero()[0].tolist():
            if d_user[i] > reach:
                phase[i] = _DIRECT
            elif d_user[i] >= lower:
                scalar.add(i)
        miss_limit = (avoid.min_avoidance + _MARGIN) ** 2
        for i in ((d_user <= reach) & (phase == _DIRECT)).nonzero()[0].tolist():
            (dx, dy), (rx, ry) = direction[i].tolist(), (rel[i].real, rel[i].imag)
            dist, proj = math.hypot(rx, ry), rx * dx + ry * dy
            if proj > -_MARGIN and dist * dist - proj * proj < miss_limit:
                scalar.add(i)  # a possible dodge trigger
        for i in (t_dist <= step + _MARGIN).nonzero()[0].tolist():
            if avoiding[i] or t_dist[i] < _MARGIN:
                scalar.add(i)
            elif t_dist[i] <= step[i]:
                new_pos[i] = target[i]  # arrives at its goal
        for i in scalar:
            s = step_pedestrian(self.state(i), user, self.dt, avoid)
            new_pos[i] = s.position.x, s.position.y
            velocity[i] = s.velocity.x, s.velocity.y
            phase[i] = _PHASES.index(s.phase)
            self.waypoint[i] = _waypoint_xy(s.waypoint)

        tolerance = self.goal_tolerance
        near_goal = np.abs(new_pos.view(complex)[:, 0] - self.goal.view(complex)[:, 0]) <= tolerance + _MARGIN
        for i in near_goal.nonzero()[0].tolist():
            (x, y), (gx, gy) = new_pos[i].tolist(), self.goal[i].tolist()
            if math.hypot(x - gx, y - gy) <= tolerance:
                side = self.goal_side[i] = 1 - self.goal_side[i]
                goal = _draw_goal(self.rngs[i], self.env.goal_boxes_top if side == 0 else self.env.goal_boxes_bottom)
                self.goal[i] = goal.x, goal.y
                phase[i] = _DIRECT
                self.waypoint[i] = math.nan, math.nan
        self.position, self.velocity, self.phase = new_pos, velocity, phase


def _spawn_crowd(config: ScenarioConfig, env: Environment, dyad: Segment) -> Crowd:
    count = int(round(config.density * env.width * env.height))
    states: list[PedestrianState] = []
    rngs: list[np.random.Generator] = []
    sides: list[int] = []
    for ped_id in range(count):
        rng = _pedestrian_rng(config.seed, ped_id)
        exclusion = config.spawn_exclusion
        position = None
        while position is None:
            for _ in range(100):
                p = Vec2(float(rng.uniform(0.0, env.width)), float(rng.uniform(0.0, env.height)))
                if distance_point_segment(p, dyad) >= exclusion:
                    position = p
                    break
            else:
                exclusion *= 0.5  # area too tight; relax rather than fail
        side = int(rng.integers(2))
        goal = _draw_goal(rng, env.goal_boxes_top if side == 0 else env.goal_boxes_bottom)
        speed = float(rng.uniform(config.speed_min, config.speed_max))
        direction = goal - position
        n = direction.norm()
        velocity = direction * (speed / n) if n > 1e-12 else Vec2(0.0, 0.0)
        states.append(PedestrianState(
            id=ped_id, position=position, velocity=velocity, goal=goal,
            preferred_speed=speed, phase=Phase.DIRECT,
        ))
        rngs.append(rng)
        sides.append(side)
    return Crowd(states, rngs, sides, env, config.avoidance_params(), config.dt, config.goal_tolerance)


def spawn_flow(config: ScenarioConfig) -> list[PedestrianState]:
    """Initial pedestrian population for a scenario."""
    env = config.build_environment()
    user, vh = config.initial_poses(env)
    return _spawn_crowd(config, env, Segment(user.position, vh.position)).states()


def step_pedestrian(
    ped: PedestrianState,
    user: Vec2,
    dt: float,
    params: AvoidanceParams,
) -> PedestrianState:
    """Advance one pedestrian by dt with the three-phase user-dodging rule.

    The pedestrian heads for its goal, deviates to a waypoint when the user
    sits in its way inside the start-avoidance range, and resumes course after
    the waypoint. It never reacts to the agent. Arrival at the goal leaves the
    pedestrian on the goal point; the caller re-rolls goals.
    """
    px, py = ped.position.x, ped.position.y
    phase = ped.phase
    waypoint = ped.waypoint
    speed = ped.preferred_speed

    dist_user = math.hypot(user.x - px, user.y - py)
    if phase is Phase.RETURNING and dist_user > params.start_avoidance:
        phase = Phase.DIRECT

    if phase is Phase.AVOIDING and waypoint is not None:
        target = waypoint
    else:
        target = ped.goal

    tx, ty = target.x - px, target.y - py
    t_dist = math.hypot(tx, ty)
    if t_dist < 1e-12:
        dir_x, dir_y = ped.velocity.x, ped.velocity.y
        n = math.hypot(dir_x, dir_y)
        if n > 0.0:
            dir_x, dir_y = dir_x / n, dir_y / n
    else:
        dir_x, dir_y = tx / t_dist, ty / t_dist

    if phase is Phase.DIRECT and dist_user <= params.start_avoidance and dist_user > 0.0:
        proj = (user.x - px) * dir_x + (user.y - py) * dir_y
        if proj > 0.0:
            miss = math.sqrt(max(0.0, dist_user * dist_user - proj * proj))
            if miss < params.min_avoidance:
                probe = PedestrianState(
                    id=ped.id, position=Vec2(px, py), velocity=Vec2(dir_x, dir_y),
                    goal=ped.goal, preferred_speed=speed,
                )
                geom = avoidance_geometry(probe, user, params)
                waypoint = choose_waypoint(geom, Vec2(dir_x, dir_y), Vec2(user.x - px, user.y - py))
                phase = Phase.AVOIDING
                target = waypoint
                tx, ty = target.x - px, target.y - py
                t_dist = math.hypot(tx, ty)
                if t_dist > 1e-12:
                    dir_x, dir_y = tx / t_dist, ty / t_dist

    step = speed * dt
    if t_dist <= step:
        if phase is Phase.AVOIDING:
            # reach the waypoint and spend the leftover resuming toward the goal
            leftover = step - t_dist
            px, py = target.x, target.y
            phase = Phase.RETURNING
            waypoint = None
            gx, gy = ped.goal.x - px, ped.goal.y - py
            g_dist = math.hypot(gx, gy)
            if g_dist > 1e-12:
                dir_x, dir_y = gx / g_dist, gy / g_dist
                adv = min(leftover, g_dist)
                px += dir_x * adv
                py += dir_y * adv
        else:
            px, py = target.x, target.y
    else:
        px += dir_x * step
        py += dir_y * step

    return PedestrianState(
        id=ped.id,
        position=Vec2(px, py),
        velocity=Vec2(dir_x * speed, dir_y * speed),
        goal=ped.goal,
        preferred_speed=speed,
        phase=phase,
        waypoint=waypoint,
    )


def step_user(user: Pose, vh: Pose, dt: float, turn_rate_deg: float = 90.0) -> Pose:
    """The user stays put and turns to keep watching the agent."""
    if dt <= 0.0:
        return user
    bearing = (vh.position - user.position).angle()
    d = angle_difference(bearing, user.orientation)
    max_rot = math.radians(turn_rate_deg) * dt
    return Pose(user.position, user.orientation + max(-max_rot, min(max_rot, d)))


def detect_events(
    positions: np.ndarray,
    dyad: Segment,
    vh_position: Vec2,
    inside_territory: np.ndarray,
    inside_body: np.ndarray,
    territory_radius: float,
    body_radius: float,
    time: float,
) -> tuple[list[ConflictEvent], np.ndarray, np.ndarray]:
    """Entry-edge conflict detection against the current dyad and agent body.

    `positions` is an (n, 2) array whose row i is pedestrian i, so an
    event's pedestrian id is its row index. A pedestrian dwelling inside
    produces one event per entry episode. The inside flags from the previous
    tick are consumed and replaced.
    """
    if not len(positions):
        return [], inside_territory, inside_body
    d_seg = points_segment_distance(positions, dyad.a, dyad.b)
    d_body = np.hypot(positions[:, 0] - vh_position.x, positions[:, 1] - vh_position.y)
    now_territory = d_seg < territory_radius
    now_body = d_body < body_radius
    events: list[ConflictEvent] = []
    for idx in np.nonzero(now_territory & ~inside_territory)[0]:
        events.append(ConflictEvent(ConflictKind.SOCIAL, time, int(idx)))
    for idx in np.nonzero(now_body & ~inside_body)[0]:
        events.append(ConflictEvent(ConflictKind.PHYSICALITY, time, int(idx)))
    return events, now_territory, now_body


def reduction_ratio(dc_none: int, dc_avoid: int) -> float | None:
    """Fraction of conflicts removed by avoidance; None when there were none."""
    if dc_none == 0:
        return None
    return (dc_none - dc_avoid) / dc_none


def _trace_header(config: ScenarioConfig) -> dict:
    return {"schema": TRACE_SCHEMA, "config": asdict(config)}


def _round2(v: Vec2, nd: int = 4) -> list[float]:
    return [round(v.x, nd), round(v.y, nd)]


def run_trial(config: ScenarioConfig, trace: IO[str] | None = None) -> TrialMetrics:
    """Run one deterministic trial and accumulate its metrics.

    Tick order: pedestrians move, the planner (if enabled) predicts/replans
    and the agent advances, the user turns, conflicts are detected on entry
    edges, and phase timers accumulate.
    """
    env = config.build_environment()
    user, vh = config.initial_poses(env)
    avoid = config.avoidance_params()
    crowd = _spawn_crowd(config, env, Segment(user.position, vh.position))

    planner: ConflictAvoidancePlanner | None = None
    if config.condition == "proposed":
        planner = ConflictAvoidancePlanner(
            env,
            config.proxemics_params(),
            avoid,
            config.comfort_coefficients(),
            config.planner_coefficients(),
            config.planner_params(),
        )

    n_ticks = int(round(config.duration / config.dt))
    n_peds = len(crowd)
    inside_territory = np.zeros(n_peds, dtype=bool)
    inside_body = np.zeros(n_peds, dtype=bool)
    events: list[ConflictEvent] = []
    stable_time = 0.0
    adjusting_time = 0.0

    if trace is not None:
        trace.write(json.dumps(_trace_header(config), sort_keys=True) + "\n")

    for k in range(n_ticks):
        t = k * config.dt
        crowd.step(user.position)

        if planner is not None:
            vh = planner.update(t, config.dt, user, vh, crowd.states)

        user = step_user(user, vh, config.dt, config.user_turn_rate)

        tick_events, inside_territory, inside_body = detect_events(
            crowd.position, Segment(user.position, vh.position), vh.position,
            inside_territory, inside_body,
            config.territory_radius, config.body_radius, t,
        )
        events.extend(tick_events)

        if planner is not None and planner.state.phase is PlanPhase.ADJUSTING:
            adjusting_time += config.dt
        else:
            stable_time += config.dt

        if trace is not None:
            line = {
                "tick": k,
                "t": round(t, 6),
                "user": _round2(user.position) + [round(user.orientation, 4)],
                "vh": _round2(vh.position) + [round(vh.orientation, 4)],
                "phase": (planner.state.phase.value if planner is not None else "stable"),
                "peds": [[round(x, 4), round(y, 4)] for x, y in crowd.position.tolist()],
                "events": [[e.kind.value, e.pedestrian_id] for e in tick_events],
            }
            trace.write(json.dumps(line, sort_keys=True) + "\n")

    social = sum(1 for e in events if e.kind is ConflictKind.SOCIAL)
    physicality = sum(1 for e in events if e.kind is ConflictKind.PHYSICALITY)
    duration = n_ticks * config.dt
    mean_ingroup = None
    decision_count = 0
    if planner is not None and planner.decision_ingroups:
        decision_count = len(planner.decision_ingroups)
        mean_ingroup = sum(planner.decision_ingroups) / decision_count
    return TrialMetrics(
        social_conflicts=social,
        physicality_conflicts=physicality,
        stable_time=stable_time,
        adjusting_time=adjusting_time,
        stable_percentage=stable_time / duration if duration > 0 else 1.0,
        duration=duration,
        events=events,
        mean_ingroup=mean_ingroup,
        decision_count=decision_count,
    )
