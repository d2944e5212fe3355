"""Fixed-timestep world simulation: pedestrian flow, agent behavior, metrics.

Pedestrians stream between goal boxes on the top and bottom edges, dodging the
user (and only the user; the agent is invisible to them and has no collider).
The agent either stays put (condition "none") or runs the conflict-avoidance
planner (condition "proposed"). Conflict events are counted on territory and
body entry edges, and the share of ticks the agent spends stable is measured.

Everything is deterministic for a given config: each pedestrian draws from its
own PCG64 stream keyed by (trial seed, pedestrian id), so spawn order cannot
perturb per-agent randomness. The streams are `pcg.PCG64Stream`s, which draw
what numpy's `Generator` would from the same seed; no trial imports
`numpy.random`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict
from typing import IO

import numpy as np

from .geometry import (
    Environment,
    Pose,
    Segment,
    Vec2,
    angle_difference,
    distance_point_segment,
    hypot,
    points_segment_distance,
)
from .pcg import PCG64Stream
from .planner import ConflictAvoidancePlanner, grid_shape
from .prediction import Phase, detour_waypoint, sample_count

TRACE_SCHEMA = "vhsim-trace/1"

# (width, height, side_walls) of each preset; "custom" reads env_width,
# env_height and env_side_walls.
_PRESETS = {"square12": (12.0, 12.0, False), "square20": (20.0, 20.0, False), "passage": (3.0, 20.0, True)}
ENVIRONMENT_PRESETS = (*_PRESETS, "custom")
CONDITIONS = ("none", "proposed")

# Work bounds, checked before a trial starts so that no accepted scenario can
# run away; each is well above what the reference experiments need (the
# arithmetic is in the README).
MAX_TICKS = 100_000  # round(duration / dt)
MAX_PEDESTRIANS = 1_000  # density * environment area
MAX_SAMPLES = 1_000  # samples per predicted trajectory, horizon_cap / dt
MAX_SCORE_CELLS = 5_000_000  # pedestrians * samples * candidates in the scorer

# Ticks whose events and trace rows `run_trial` evaluates at once. At
# MAX_PEDESTRIANS a block's positions are 1 MB, each distance array half that.
BLOCK_TICKS = 64


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
        user, vh = self.initial_poses()
        ticks = self.tick_count()
        pedestrians = self.pedestrian_count()
        samples = sample_count(max(self.horizon_cap, self.dt), self.dt)
        radii, bearings = grid_shape(self)
        candidates = radii * bearings + 1
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
        if self.environment == "custom":
            return Environment(self.env_width, self.env_height, self.env_side_walls)
        return Environment(*_PRESETS[self.environment])

    def tick_count(self) -> int:
        """Ticks in a trial: duration / dt, rounded."""
        return round(self.duration / self.dt)

    def pedestrian_count(self) -> int:
        """Pedestrians in the crowd: density times the environment's area, rounded."""
        env = self.build_environment()
        return round(self.density * env.width * env.height)

    def initial_poses(self) -> tuple[Pose, Pose]:
        """User and agent face each other across the middle of the environment."""
        center = self.build_environment().center()
        half = 0.5 * self.interpersonal_distance
        user_pos = Vec2(center.x, center.y - half)
        vh_pos = Vec2(center.x, center.y + half)
        user = Pose(user_pos, (vh_pos - user_pos).angle())
        vh = Pose(vh_pos, (user_pos - vh_pos).angle())
        return user, vh


# The conflict kinds, in the order of `detect_events`' kind index.
EVENT_KINDS = ("social", "physicality")


@dataclass
class TrialMetrics:
    social_conflicts: int
    physicality_conflicts: int
    stable_percentage: float
    mean_ingroup: float | None = None
    decision_count: int = 0


# Routing margin (m): a pedestrian whose array step lies within this distance
# of a phase-changing condition takes the scalar `step_pedestrian` instead,
# so the scalar rule decides every edge case.
_MARGIN = 1e-6


def _pedestrian_rng(seed: int, ped_id: int) -> PCG64Stream:
    return PCG64Stream(seed, ped_id)


# Goals lie in GOAL_BOXES equal boxes side by side along the top edge and as
# many along the bottom edge, each GOAL_DEPTH (m) deep.
GOAL_BOXES = 5
GOAL_DEPTH = 0.5


def _draw_goal(rng: PCG64Stream, env: Environment, side: int) -> Vec2:
    """A goal drawn from `rng`: a box along the top (side 0) or bottom (side
    1) edge, then a uniform point in it, x before y."""
    step = env.width / GOAL_BOXES
    i = int(rng.integers(GOAL_BOXES))
    x = float(rng.uniform(i * step, (i + 1) * step))
    if side == 0:
        y = float(rng.uniform(env.height - GOAL_DEPTH, env.height))
    else:
        y = float(rng.uniform(0.0, GOAL_DEPTH))
    return Vec2(x, y)


class Crowd:
    """The pedestrians as arrays, one row per pedestrian id.

    `step` advances every pedestrian whose tick is a straight walk toward its
    target (the goal, or the waypoint while avoiding) in one array step, the
    RETURNING -> DIRECT switch beyond the start range included. Only a
    pedestrian whose phase or course could change on the tick goes through
    the scalar `step_pedestrian`: a possible dodge trigger, a row that may
    reach its target this tick, or a RETURNING pedestrian on the start-range
    boundary. A pedestrian that reaches its goal draws the next one from its
    own stream, a `PCG64Stream` (or anything with its `uniform` and
    `integers` draws), in the band opposite the one holding the goal it
    leaves: the bottom band after a top-band goal (y >= height -
    GOAL_DEPTH), the top band after any other.

    A new crowd walks straight for its goals: every phase is DIRECT and
    every waypoint NaN.

    `step` assigns a new `position` array every tick and never writes into an
    earlier one, so a caller may keep past ticks' arrays by reference.
    """

    def __init__(
        self,
        position: np.ndarray,
        velocity: np.ndarray,
        goal: np.ndarray,
        speed: np.ndarray,
        rngs: list[PCG64Stream],
        config: ScenarioConfig,
    ) -> None:
        self.position, self.velocity, self.goal, self.speed = position, velocity, goal, speed
        self.phase = np.full(speed.size, Phase.DIRECT, np.int8)
        self.waypoint = np.full((speed.size, 2), math.nan)
        self.rngs = rngs
        self.config = config
        self._step_length = self.speed * config.dt

    def __len__(self) -> int:
        return self.speed.size

    def step(self, user: Vec2) -> None:
        """Advance every pedestrian by dt, as `step_pedestrian` followed by a
        goal re-roll on arrival would."""
        config, pos, step = self.config, self.position, self._step_length
        phase = self.phase.copy()
        avoiding = phase == Phase.AVOIDING.value
        # as in `step_pedestrian`, an avoiding row without a waypoint heads for its goal
        target = np.where((avoiding & ~np.isnan(self.waypoint[:, 0]))[:, None], self.waypoint, self.goal)
        to_target = target - pos
        t_dist = hypot(to_target[:, 0], to_target[:, 1])
        # a target closer than the margin always goes scalar, which overwrites its row
        direction = to_target / np.where(t_dist < _MARGIN, 1.0, t_dist)[:, None]
        new_pos = pos + direction * step[:, None]
        velocity = direction * self.speed[:, None]

        # Route every pedestrian whose phase could change to the scalar rule.
        # The distance to the user is the complex modulus, within an ulp of
        # the scalar rule's math.hypot, so each test keeps a margin on the
        # scalar side.
        rel = complex(user.x, user.y) - pos.view(complex)[:, 0]
        d_user = np.abs(rel)
        reach, lower = config.start_avoidance_distance + _MARGIN, config.start_avoidance_distance - _MARGIN
        scalar = set()
        for i in (phase == Phase.RETURNING.value).nonzero()[0].tolist():
            if d_user[i] > reach:
                phase[i] = Phase.DIRECT
            elif d_user[i] >= lower:
                scalar.add(i)
        miss_limit = (config.min_avoidance_distance + _MARGIN) ** 2
        for i in ((d_user <= reach) & (phase == Phase.DIRECT.value)).nonzero()[0].tolist():
            (dx, dy), (rx, ry) = direction[i].tolist(), (rel[i].real, rel[i].imag)
            dist, proj = math.hypot(rx, ry), rx * dx + ry * dy
            if proj > -_MARGIN and dist * dist - proj * proj < miss_limit:
                scalar.add(i)  # a possible dodge trigger
        scalar.update((t_dist <= step + _MARGIN).nonzero()[0].tolist())  # may reach its target
        for i in scalar:
            new_pos[i], velocity[i], phase[i], self.waypoint[i] = step_pedestrian(self, i, user)

        tolerance = config.goal_tolerance
        near_goal = np.abs(new_pos.view(complex)[:, 0] - self.goal.view(complex)[:, 0]) <= tolerance + _MARGIN
        for i in near_goal.nonzero()[0].tolist():
            (x, y), (gx, gy) = new_pos[i].tolist(), self.goal[i].tolist()
            if math.hypot(x - gx, y - gy) <= tolerance:
                env = config.build_environment()
                goal = _draw_goal(self.rngs[i], env, int(gy >= env.height - GOAL_DEPTH))
                self.goal[i] = goal.x, goal.y
                phase[i] = Phase.DIRECT
                self.waypoint[i] = math.nan, math.nan
        self.position, self.velocity, self.phase = new_pos, velocity, phase


def spawn_flow(config: ScenarioConfig) -> Crowd:
    """Initial pedestrian population for a scenario: each pedestrian draws,
    from its own stream, a position at least `spawn_exclusion` from the
    dyad, a goal on a random edge and a speed."""
    env = config.build_environment()
    user, vh = config.initial_poses()
    dyad = Segment(user.position, vh.position)
    count = config.pedestrian_count()
    position, velocity, goal = np.zeros((count, 2)), np.zeros((count, 2)), np.zeros((count, 2))
    speed = np.zeros(count)
    rngs = [_pedestrian_rng(config.seed, ped_id) for ped_id in range(count)]
    for ped_id, rng in enumerate(rngs):
        exclusion = config.spawn_exclusion
        p = None
        while p is None:
            for _ in range(100):
                q = Vec2(float(rng.uniform(0.0, env.width)), float(rng.uniform(0.0, env.height)))
                if distance_point_segment(q, dyad) >= exclusion:
                    p = q
                    break
            else:
                exclusion *= 0.5  # area too tight; relax rather than fail
        g = _draw_goal(rng, env, int(rng.integers(2)))
        pace = float(rng.uniform(config.speed_min, config.speed_max))
        dx, dy = g.x - p.x, g.y - p.y
        n = math.hypot(dx, dy)
        if n > 1e-12:
            velocity[ped_id] = dx * (pace / n), dy * (pace / n)
        position[ped_id], goal[ped_id], speed[ped_id] = (p.x, p.y), (g.x, g.y), pace
    return Crowd(position, velocity, goal, speed, rngs, config)


def step_pedestrian(crowd: Crowd, i: int, user: Vec2) -> tuple[tuple, tuple, int, tuple]:
    """Advance row i of the crowd by `dt` with the three-phase user-dodging rule.

    The pedestrian heads for its goal, deviates to a waypoint when the user
    sits in its way inside the start-avoidance range, and resumes course after
    the waypoint. It never reacts to the agent. Arrival at the goal leaves the
    pedestrian on the goal point; the caller re-rolls goals. Returns the
    row's next position, velocity, phase code and waypoint (NaN when it has
    none), and writes nothing to the crowd.
    """
    config = crowd.config
    (px, py), goal, (wx, wy) = crowd.position[i].tolist(), crowd.goal[i].tolist(), crowd.waypoint[i].tolist()
    phase, speed = int(crowd.phase[i]), float(crowd.speed[i])

    dist_user = math.hypot(user.x - px, user.y - py)
    if phase == Phase.RETURNING and dist_user > config.start_avoidance_distance:
        phase = Phase.DIRECT

    target = (wx, wy) if phase == Phase.AVOIDING and not math.isnan(wx) else goal
    tx, ty = target[0] - px, target[1] - py
    t_dist = math.hypot(tx, ty)
    if t_dist < 1e-12:
        dir_x, dir_y = crowd.velocity[i].tolist()
        n = math.hypot(dir_x, dir_y)
        if n > 0.0:
            dir_x, dir_y = dir_x / n, dir_y / n
    else:
        dir_x, dir_y = tx / t_dist, ty / t_dist

    if phase == Phase.DIRECT and dist_user <= config.start_avoidance_distance and dist_user > 0.0:
        proj = (user.x - px) * dir_x + (user.y - py) * dir_y
        if proj > 0.0:
            miss = math.sqrt(max(0.0, dist_user * dist_user - proj * proj))
            if miss < config.min_avoidance_distance:
                waypoint = detour_waypoint(Vec2(px, py), Vec2(dir_x, dir_y), user, config)
                phase = Phase.AVOIDING
                target = wx, wy = waypoint.x, waypoint.y
                tx, ty = wx - px, wy - py
                t_dist = math.hypot(tx, ty)
                if t_dist > 1e-12:
                    dir_x, dir_y = tx / t_dist, ty / t_dist

    step = speed * config.dt
    if t_dist <= step:
        if phase == Phase.AVOIDING:
            # reach the waypoint and spend the leftover resuming toward the goal
            leftover = step - t_dist
            px, py = target
            phase = Phase.RETURNING
            wx = wy = math.nan
            gx, gy = goal[0] - px, goal[1] - py
            g_dist = math.hypot(gx, gy)
            if g_dist > 1e-12:
                dir_x, dir_y = gx / g_dist, gy / g_dist
                adv = min(leftover, g_dist)
                px += dir_x * adv
                py += dir_y * adv
        else:
            px, py = target
    else:
        px += dir_x * step
        py += dir_y * step

    return (px, py), (dir_x * speed, dir_y * speed), phase, (wx, wy)


def step_user(user: Pose, vh: Pose, config: ScenarioConfig) -> Pose:
    """The user stays put and turns, at most `user_turn_rate`, to keep
    watching the agent."""
    bearing = (vh.position - user.position).angle()
    d = angle_difference(bearing, user.orientation)
    max_rot = math.radians(config.user_turn_rate) * config.dt
    return Pose(user.position, user.orientation + max(-max_rot, min(max_rot, d)))


def detect_events(
    positions: np.ndarray,
    users: np.ndarray,
    agents: np.ndarray,
    inside_territory: np.ndarray,
    inside_body: np.ndarray,
    territory_radius: float,
    body_radius: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry-edge conflict detection over a block of K ticks.

    `positions` is (K, n, 2), pedestrian i at tick k in [k, i], so an event's
    pedestrian id is its column. `users` and `agents` are the K dyad ends,
    the agent's also its body. A pedestrian dwelling inside produces one
    event per entry episode. The inside flags of the tick before the block
    are consumed; its last tick's are returned. The events are an (E, 3)
    int array of rows (tick in the block, index into `EVENT_KINDS`,
    pedestrian id), in tick order, social before physicality, ids ascending.
    """
    ux, uy, vx, vy = users[:, 0, None], users[:, 1, None], agents[:, 0, None], agents[:, 1, None]
    now_territory = points_segment_distance(positions, ((ux, uy), (vx, vy))) < territory_radius
    now_body = np.hypot(positions[..., 0] - vx, positions[..., 1] - vy) < body_radius
    now = np.stack([now_territory, now_body], axis=1)  # (tick, kind, pedestrian)
    before = np.concatenate([np.stack([inside_territory, inside_body])[None], now[:-1]])
    return np.argwhere(now & ~before), now_territory[-1], now_body[-1]


def reduction_ratio(dc_none: int, dc_avoid: int) -> float | None:
    """Fraction of conflicts removed by avoidance; None when there were none."""
    if dc_none == 0:
        return None
    return (dc_none - dc_avoid) / dc_none


def _round(x: np.ndarray, digits: int) -> np.ndarray:
    """`round(v, digits)` for every element of `x`, bit for bit: rint(v *
    10**digits) / 10**digits, unless the product's rounding error, at most
    |product| * 2**-53, might carry it across a half-integer. An element
    within a wider margin of one, or beyond 2**44, takes `round` itself."""
    scale = 10.0**digits
    scaled = x * scale
    whole = np.rint(scaled)
    out = whole / scale
    near = ~(np.abs(np.abs(scaled - whole) - 0.5) > np.abs(scaled) * 2.0**-44)
    out[near] = [round(v, digits) for v in x[near].tolist()]
    return out


def _trace_rows(first_tick: int, times, positions: np.ndarray, poses: np.ndarray, adjusting, events) -> str:
    """A block's trace rows, byte for byte what `json.dumps(row, sort_keys=True)`
    gives, since `str` of a list of finite floats is the same as json's.
    `events` are the block's rows from `detect_events`."""
    tick_events: dict[int, list[str]] = {}
    for k, kind, ped in events.tolist():
        tick_events.setdefault(k, []).append(f'["{EVENT_KINDS[kind]}", {ped}]')
    rows = zip(_round(np.array(times), 6).tolist(), _round(poses, 4).tolist(), _round(positions, 4).tolist(),
               adjusting)
    return "".join(
        f'{{"events": [{", ".join(tick_events.get(k, ()))}], "peds": {peds}, '
        f'"phase": "{"adjusting" if adjusted else "stable"}", "t": {stamp!r}, "tick": {first_tick + k}, '
        f'"user": {pose[:3]}, "vh": {pose[3:]}}}\n'
        for k, (stamp, pose, peds, adjusted) in enumerate(rows)
    )


def run_trial(config: ScenarioConfig, trace: IO[str] | None = None) -> TrialMetrics:
    """Run one deterministic trial and accumulate its metrics.

    Tick order: pedestrians move, the planner (if enabled) predicts/replans
    and the agent advances, the user turns, and a stable tick is counted.
    Every `BLOCK_TICKS` ticks, and at the end, the ticks' kept positions,
    poses and phases give their entry-edge conflicts, counted by kind, and
    trace rows at once.
    """
    crowd = spawn_flow(config)
    user, vh = config.initial_poses()

    planner = ConflictAvoidancePlanner(config) if config.condition == "proposed" else None
    n_ticks = config.tick_count()
    inside_territory = inside_body = np.zeros(len(crowd), dtype=bool)  # replaced, never written
    counts = np.zeros(len(EVENT_KINDS), np.int64)  # events of each kind
    stable_ticks = 0

    if trace is not None:
        trace.write(json.dumps({"schema": TRACE_SCHEMA, "config": asdict(config)}, sort_keys=True) + "\n")

    block: list[tuple] = []  # (time, crowd positions, user and agent poses, adjusting) per pending tick
    for k in range(n_ticks):
        t = k * config.dt
        crowd.step(user.position)

        if planner is not None:
            vh = planner.update(t, user, vh, crowd)

        user = step_user(user, vh, config)

        adjusting = planner is not None and planner.plan is not None
        if not adjusting:
            stable_ticks += 1

        pose = (user.position.x, user.position.y, user.orientation, vh.position.x, vh.position.y, vh.orientation)
        block.append((t, crowd.position, pose, adjusting))
        if len(block) == BLOCK_TICKS or k == n_ticks - 1:
            times, positions, poses, phases = zip(*block)
            positions, poses = np.stack(positions), np.array(poses)
            block_events, inside_territory, inside_body = detect_events(
                positions, poses[:, 0:2], poses[:, 3:5], inside_territory, inside_body,
                config.territory_radius, config.body_radius,
            )
            counts += np.bincount(block_events[:, 1], minlength=len(EVENT_KINDS))
            if trace is not None:
                trace.write(_trace_rows(k + 1 - len(block), times, positions, poses, phases, block_events))
            block = []

    social, physicality = counts.tolist()
    decision_count = planner.decision_count if planner is not None else 0
    return TrialMetrics(
        social_conflicts=social,
        physicality_conflicts=physicality,
        stable_percentage=stable_ticks / n_ticks,
        mean_ingroup=planner.ingroup_sum / decision_count if decision_count else None,
        decision_count=decision_count,
    )
