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
from dataclasses import dataclass, field, asdict
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


class Condition(enum.Enum):
    NONE = "none"
    PROPOSED = "proposed"


@dataclass
class ScenarioConfig:
    """Complete description of one simulation trial.

    All distances in meters, angles in degrees, times in seconds. Every model
    parameter is overridable; the defaults reproduce the reference setup.
    """

    environment: str = "square12"
    env_width: float = 12.0
    env_height: float = 12.0
    env_side_walls: bool = False
    density: float = 0.25
    speed_min: float = 1.0
    speed_max: float = 1.5
    condition: str = "proposed"
    duration: float = 600.0
    dt: float = 0.1
    seed: int = 1
    interpersonal_distance: float = 1.5
    coefficient_c: float = 1.0
    coefficient_d: float = 0.5
    tracking_distance: float = 6.0
    personal_space: float = 1.2
    formation_min: float = 0.6
    crowd_threshold: float = 0.15
    c_space_radius: float = 6.0
    min_avoidance_distance: float = 0.67
    start_avoidance_distance: float = 2.0
    body_radius: float = 0.4
    territory_radius: float = 0.40
    planning_margin: float = 0.20
    rest_margin: float = 0.10
    replan_interval: float = 0.5
    vh_max_speed: float = 1.5
    vh_turn_rate: float = 180.0
    user_turn_rate: float = 90.0
    candidate_radial_step: float = 0.15
    candidate_angular_step: float = 15.0
    wall_clearance: float = 0.3
    arrive_position_tol: float = 0.05
    arrive_angle_tol: float = 10.0
    horizon_cap: float = 4.0
    spawn_exclusion: float = 2.0
    goal_tolerance: float = 0.3

    def validate(self) -> None:
        checks = [
            (self.environment in ENVIRONMENT_PRESETS, "environment", f"must be one of {ENVIRONMENT_PRESETS}"),
            (self.condition in CONDITIONS, "condition", f"must be one of {CONDITIONS}"),
            (self.density >= 0.0, "density", "must be >= 0"),
            (self.duration > 0.0, "duration", "must be > 0"),
            (self.dt > 0.0, "dt", "must be > 0"),
            (0.0 < self.speed_min <= self.speed_max <= 3.0, "speed_min/speed_max",
             "must satisfy 0 < speed_min <= speed_max <= 3"),
            (self.env_width > 0.0 and self.env_height > 0.0, "env_width/env_height", "must be > 0"),
            (self.interpersonal_distance > self.formation_min, "interpersonal_distance",
             "must exceed formation_min"),
            (self.formation_min > 0.0, "formation_min", "must be > 0"),
            (0.0 < self.min_avoidance_distance <= self.start_avoidance_distance,
             "min_avoidance_distance", "must satisfy 0 < min <= start"),
            (self.start_avoidance_distance <= self.tracking_distance, "start_avoidance_distance",
             "must not exceed tracking_distance"),
            (self.coefficient_c >= 0.0, "coefficient_c", "must be >= 0"),
            (self.coefficient_d >= 0.0, "coefficient_d", "must be >= 0"),
            (self.body_radius > 0.0, "body_radius", "must be > 0"),
            (self.territory_radius > 0.0, "territory_radius", "must be > 0"),
            (self.rest_margin >= 0.0, "rest_margin", "must be >= 0"),
            (self.personal_space > 0.0, "personal_space", "must be > 0"),
            (self.crowd_threshold > 0.0, "crowd_threshold", "must be > 0"),
            (self.c_space_radius > 0.0, "c_space_radius", "must be > 0"),
            (self.vh_max_speed > 0.0, "vh_max_speed", "must be > 0"),
            (self.replan_interval > 0.0, "replan_interval", "must be > 0"),
            (self.spawn_exclusion >= 0.0, "spawn_exclusion", "must be >= 0"),
            (self.candidate_radial_step > 0.0, "candidate_radial_step", "must be > 0"),
            (self.candidate_angular_step > 0.0, "candidate_angular_step", "must be > 0"),
            (self.seed >= 0, "seed", "must be >= 0"),
        ]
        for ok, name, message in checks:
            if not ok:
                raise ValueError(f"{name}: {message}")

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


@dataclass
class _Walker:
    state: PedestrianState
    rng: np.random.Generator
    goal_side: int  # 0 = top boxes, 1 = bottom boxes


def _pedestrian_rng(seed: int, ped_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(ped_id,))))


def _draw_goal(rng: np.random.Generator, boxes: list[Rect]) -> Vec2:
    box = boxes[int(rng.integers(len(boxes)))]
    x = float(rng.uniform(box.x_min, box.x_max))
    y = float(rng.uniform(box.y_min, box.y_max))
    return Vec2(x, y)


def _spawn_walkers(config: ScenarioConfig, env: Environment, dyad: Segment) -> list[_Walker]:
    count = int(round(config.density * env.width * env.height))
    walkers: list[_Walker] = []
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
        state = PedestrianState(
            id=ped_id, position=position, velocity=velocity, goal=goal,
            preferred_speed=speed, phase=Phase.DIRECT,
        )
        walkers.append(_Walker(state=state, rng=rng, goal_side=side))
    return walkers


def spawn_flow(config: ScenarioConfig) -> list[PedestrianState]:
    """Initial pedestrian population for a scenario."""
    env = config.build_environment()
    user, vh = config.initial_poses(env)
    return [w.state for w in _spawn_walkers(config, env, Segment(user.position, vh.position))]


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
    pedestrians: list[PedestrianState],
    dyad: Segment,
    vh_position: Vec2,
    inside_territory: np.ndarray,
    inside_body: np.ndarray,
    territory_radius: float,
    body_radius: float,
    time: float,
) -> tuple[list[ConflictEvent], np.ndarray, np.ndarray]:
    """Entry-edge conflict detection against the current dyad and agent body.

    A pedestrian dwelling inside produces one event per entry episode. The
    inside flags from the previous tick are consumed and replaced.
    """
    if not pedestrians:
        return [], inside_territory, inside_body
    pts = np.array([(p.position.x, p.position.y) for p in pedestrians])
    d_seg = points_segment_distance(pts, dyad.a, dyad.b)
    d_body = np.hypot(pts[:, 0] - vh_position.x, pts[:, 1] - vh_position.y)
    now_territory = d_seg < territory_radius
    now_body = d_body < body_radius
    events: list[ConflictEvent] = []
    for idx in np.nonzero(now_territory & ~inside_territory)[0]:
        events.append(ConflictEvent(ConflictKind.SOCIAL, time, pedestrians[int(idx)].id))
    for idx in np.nonzero(now_body & ~inside_body)[0]:
        events.append(ConflictEvent(ConflictKind.PHYSICALITY, time, pedestrians[int(idx)].id))
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
    config.validate()
    env = config.build_environment()
    user, vh = config.initial_poses(env)
    avoid = config.avoidance_params()
    walkers = _spawn_walkers(config, env, Segment(user.position, vh.position))

    planner: ConflictAvoidancePlanner | None = None
    if config.condition == Condition.PROPOSED.value:
        planner = ConflictAvoidancePlanner(
            env,
            config.proxemics_params(),
            avoid,
            config.comfort_coefficients(),
            config.planner_coefficients(),
            config.planner_params(),
        )

    n_ticks = int(round(config.duration / config.dt))
    n_peds = len(walkers)
    inside_territory = np.zeros(n_peds, dtype=bool)
    inside_body = np.zeros(n_peds, dtype=bool)
    events: list[ConflictEvent] = []
    stable_time = 0.0
    adjusting_time = 0.0

    if trace is not None:
        trace.write(json.dumps(_trace_header(config), sort_keys=True) + "\n")

    states = [w.state for w in walkers]
    for k in range(n_ticks):
        t = k * config.dt

        for i, w in enumerate(walkers):
            s = step_pedestrian(w.state, user.position, config.dt, avoid)
            if s.position.distance_to(s.goal) <= config.goal_tolerance:
                w.goal_side = 1 - w.goal_side
                boxes = env.goal_boxes_top if w.goal_side == 0 else env.goal_boxes_bottom
                new_goal = _draw_goal(w.rng, boxes)
                s = PedestrianState(
                    id=s.id, position=s.position, velocity=s.velocity, goal=new_goal,
                    preferred_speed=s.preferred_speed, phase=Phase.DIRECT, waypoint=None,
                )
            w.state = s
            states[i] = s

        if planner is not None:
            vh = planner.update(t, config.dt, user, vh, states)

        user = step_user(user, vh, config.dt, config.user_turn_rate)

        tick_events, inside_territory, inside_body = detect_events(
            states, Segment(user.position, vh.position), vh.position,
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
                "peds": [_round2(s.position) for s in states],
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
