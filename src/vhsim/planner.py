"""Utility-based position planning for the virtual human.

When a predicted pedestrian path intrudes the dyad's territory, candidate
positions around the user are scored by in-group comfort, out-group comfort,
and movement cost; the best one becomes a rate-limited movement plan. Plans
are kept until finished unless their own target becomes conflicted, so the
agent does not fidget.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .comfort import (
    ComfortCoefficients,
    best_arrangement,
    comfort_from_distance,
    points_segment_distance,
)
from .geometry import (
    Environment,
    Pose,
    Segment,
    Vec2,
    angle_difference,
    nearest_wall_distance,
)
from .prediction import (
    AvoidanceParams,
    PedestrianState,
    PredictedTrajectory,
    anticipated_pedestrians,
    prediction_horizon,
    predict_trajectory,
)
from .proxemics import (
    DISTANCE_TOL,
    ArrangementType,
    ProxemicsParams,
    SpatialContext,
    agent_orientation_for,
    classify_spatial_context,
    context_preference,
)


@dataclass(frozen=True)
class PlannerCoefficients:
    """Utility weights: out-group comfort weight and per-meter move cost."""

    outgroup_weight: float = 1.0
    move_cost: float = 0.5

    def __post_init__(self) -> None:
        if self.outgroup_weight < 0.0 or self.move_cost < 0.0:
            raise ValueError("coefficients must be non-negative")


@dataclass(frozen=True)
class PlannerParams:
    """Territory geometry, candidate grid, and motion limits.

    territory_radius: capsule radius around the dyad segment that defines the
                      group's territory for conflict purposes (m)
    planning_margin:  extra radius used only when deciding whether to replan,
                      absorbing prediction discretization (m)
    rest_margin:      predicted clearance above the territory radius the agent
                      must keep before it may choose to absorb a marginal
                      threat instead of relocating (m)
    """

    territory_radius: float = 0.40
    planning_margin: float = 0.20
    rest_margin: float = 0.10
    replan_interval: float = 0.5
    radial_step: float = 0.15
    angular_step_deg: float = 15.0
    wall_clearance: float = 0.3
    max_speed: float = 1.5
    turn_rate_deg: float = 180.0
    arrive_position_tol: float = 0.05
    arrive_angle_tol_deg: float = 10.0
    horizon_cap: float = 4.0


@dataclass(frozen=True)
class CandidatePlan:
    """A scored candidate target pose for the agent."""

    target_position: Vec2
    target_orientation: float
    arrangement: ArrangementType | None
    ingroup: float
    outgroup: float
    move_distance: float
    utility: float


class PlanPhase(enum.Enum):
    STABLE = "stable"
    ADJUSTING = "adjusting"


@dataclass
class PlanState:
    phase: PlanPhase = PlanPhase.STABLE
    plan: CandidatePlan | None = None


@dataclass
class PlanningSnapshot:
    """Everything the planner needs about the world at one instant."""

    user: Pose
    vh: Pose
    env: Environment
    pedestrians: list[PedestrianState]
    trajectories: list[PredictedTrajectory]


def make_snapshot(
    user: Pose,
    vh: Pose,
    env: Environment,
    pedestrians: list[PedestrianState],
    avoid_params: AvoidanceParams,
    dt: float,
    c_space_radius: float,
    horizon_cap: float = 4.0,
) -> PlanningSnapshot:
    """Predict every pedestrian worth anticipating on a shared sample grid."""
    dyad = Segment(user.position, vh.position)
    tracked = anticipated_pedestrians(pedestrians, dyad, avoid_params)
    trajectories: list[PredictedTrajectory] = []
    if tracked:
        horizon = max(prediction_horizon(tracked, dyad, c_space_radius, horizon_cap), dt)
        trajectories = [
            predict_trajectory(p, user.position, horizon, dt, avoid_params) for p in tracked
        ]
    return PlanningSnapshot(user, vh, env, pedestrians, trajectories)


def detect_potential_conflict(
    dyad: Segment,
    trajectories: list[PredictedTrajectory],
    radius: float,
) -> tuple[bool, list[int]]:
    """Whether any predicted sample intrudes the capsule around the dyad."""
    kept = [t for t in trajectories if t.points.size]
    if not kept:
        return False, []
    pts = np.concatenate([t.points for t in kept], axis=0)
    hit = points_segment_distance(pts, dyad.a, dyad.b) < radius
    if not bool(hit.any()):
        return False, []
    offsets = np.cumsum([0] + [t.points.shape[0] for t in kept[:-1]])
    per_traj = np.logical_or.reduceat(hit, offsets)
    offenders = [t.pedestrian_id for t, flag in zip(kept, per_traj) if flag]
    return bool(offenders), offenders


def generate_candidates(
    user: Pose,
    current_vh: Vec2,
    env: Environment,
    prox: ProxemicsParams,
    params: PlannerParams,
) -> list[Vec2]:
    """Polar grid of target positions around the user, plus the current spot.

    Radii span the formation distance bounds; positions outside the bounds or
    hugging a wall are dropped. The current position is always last, so
    holding still is always an option.
    """
    candidates: list[Vec2] = []
    n_radii = int(math.floor((prox.formation_max - prox.formation_min) / params.radial_step + 1e-9)) + 1
    n_bearings = int(round(360.0 / params.angular_step_deg))
    for i in range(n_radii):
        r = prox.formation_min + i * params.radial_step
        for k in range(n_bearings):
            theta = math.radians(k * params.angular_step_deg)
            p = Vec2(user.position.x + r * math.cos(theta), user.position.y + r * math.sin(theta))
            if not env.contains(p):
                continue
            if env.walls and nearest_wall_distance(env, p) < params.wall_clearance:
                continue
            candidates.append(p)
    candidates.append(current_vh)
    return candidates


def _saturation_distance_m(coeffs: ComfortCoefficients) -> float:
    # distance at which the comfort regression reaches its upper clamp
    return coeffs.scale_mm / (1000.0 * (1.0 - coeffs.offset))


def score_candidates(
    candidates: list[Vec2],
    user: Pose,
    current_vh: Vec2,
    context: SpatialContext,
    trajectories: list[PredictedTrajectory],
    comfort_coeffs: ComfortCoefficients,
    prox: ProxemicsParams,
    coeffs: PlannerCoefficients,
    radius: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score every candidate against the whole predicted sample cloud at once.

    Returns (utility, ingroup, outgroup, move, approach) arrays in candidate
    order; approach is each candidate segment's smallest distance to a
    predicted sample. Samples too far out to come within the comfort
    saturation distance or the trigger `radius` of any candidate segment are
    skipped, so approach is exact below the larger of the two and otherwise
    exact or inf.
    """
    u = user.position
    cand = np.array([(c.x, c.y) for c in candidates])
    ex = cand[:, 0] - u.x
    ey = cand[:, 1] - u.y
    ee = ex * ex + ey * ey

    # out-group: worst clamped comfort over every predicted sample, which only
    # depends on the smallest sample-to-segment distance; samples farther from
    # the user than the farthest candidate plus that margin are dropped up front
    n = len(candidates)
    outgroup = np.ones(n)
    approach = np.full(n, np.inf)
    stacked = [t.points for t in trajectories if t.points.size]
    if stacked:
        pts = np.concatenate(stacked, axis=0)
        cutoff = math.sqrt(ee.max()) + max(_saturation_distance_m(comfort_coeffs), radius) + 1e-6
        wx = pts[:, 0] - u.x
        wy = pts[:, 1] - u.y
        keep = (wx * wx + wy * wy) <= cutoff * cutoff
        if keep.any():
            wx, wy = wx[keep], wy[keep]
            ee_safe = np.where(ee == 0.0, 1.0, ee)
            t = np.outer(wx, ex) + np.outer(wy, ey)
            t = np.clip(t / ee_safe[None, :], 0.0, 1.0)
            dx = wx[:, None] - t * ex[None, :]
            dy = wy[:, None] - t * ey[None, :]
            approach = np.sqrt((dx * dx + dy * dy).min(axis=0))
            outgroup = comfort_from_distance(approach, comfort_coeffs)

    # in-group: formation availability and the best feasible arrangement's
    # context preference, from each candidate's distance and user-side angle
    dist = np.hypot(ex, ey)
    bearing = np.arctan2(ey, ex)
    alpha = np.degrees(np.abs(np.angle(np.exp(1j * (bearing - user.orientation)))))
    available = (
        (dist >= prox.formation_min - DISTANCE_TOL)
        & (dist <= prox.formation_max + DISTANCE_TOL)
        & (alpha <= 90.0)
    )
    p_closed = context_preference(context, ArrangementType.CLOSED)
    p_l = context_preference(context, ArrangementType.L_SHAPED)
    p_open = context_preference(context, ArrangementType.OPEN)
    best_p = np.full(n, p_l)
    best_p = np.where(alpha <= 60.0, np.maximum(best_p, p_closed), best_p)
    best_p = np.where(alpha >= 30.0, np.maximum(best_p, p_open), best_p)
    ingroup = np.where(available, best_p, 0.0)

    move = np.hypot(cand[:, 0] - current_vh.x, cand[:, 1] - current_vh.y)
    utility = (ingroup + coeffs.outgroup_weight * outgroup) / (1.0 + move * coeffs.move_cost)
    return utility, ingroup, outgroup, move, approach


def _assemble_plan(
    candidate: Vec2,
    user: Pose,
    context: SpatialContext,
    prox: ProxemicsParams,
    ingroup: float,
    outgroup: float,
    move: float,
    utility: float,
) -> CandidatePlan:
    arrangement, _ = best_arrangement(candidate, user, context, prox)
    if arrangement is None:
        orientation = (user.position - candidate).angle() if candidate != user.position else 0.0
    else:
        orientation = agent_orientation_for(user, candidate, arrangement)
    return CandidatePlan(
        target_position=candidate,
        target_orientation=orientation,
        arrangement=arrangement,
        ingroup=ingroup,
        outgroup=outgroup,
        move_distance=move,
        utility=utility,
    )


def _argbest(utility: np.ndarray, move: np.ndarray) -> int:
    """Index of the best candidate: highest utility, then smaller move, then earlier index."""
    ties = np.nonzero(utility == utility.max())[0]
    if ties.size == 1:
        return int(ties[0])
    return int(ties[np.argmin(move[ties])])


def step_plan(
    state: PlanState,
    vh: Pose,
    dt: float,
    params: PlannerParams,
) -> tuple[PlanState, Pose]:
    """Advance the agent toward the active plan under speed and turn limits."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.phase is not PlanPhase.ADJUSTING or state.plan is None:
        return state, vh
    plan = state.plan
    to_target = plan.target_position - vh.position
    dist = to_target.norm()
    max_step = params.max_speed * dt
    if dist <= max_step:
        new_pos = plan.target_position
    else:
        new_pos = vh.position + to_target * (max_step / dist)
    d_theta = angle_difference(plan.target_orientation, vh.orientation)
    max_rot = math.radians(params.turn_rate_deg) * dt
    new_theta = vh.orientation + max(-max_rot, min(max_rot, d_theta))
    new_pose = Pose(new_pos, new_theta)

    rem = new_pos.distance_to(plan.target_position)
    rem_angle = abs(angle_difference(plan.target_orientation, new_pose.orientation))
    if rem <= params.arrive_position_tol and rem_angle <= math.radians(params.arrive_angle_tol_deg):
        return PlanState(), new_pose
    return state, new_pose


def plan_if_needed(
    snapshot: PlanningSnapshot,
    state: PlanState,
    prox: ProxemicsParams,
    comfort_coeffs: ComfortCoefficients,
    coeffs: PlannerCoefficients,
    params: PlannerParams,
) -> tuple[PlanState, CandidatePlan | None]:
    """Replan when the territory is threatened and no valid plan is running.

    Returns the new state plus the decision taken, if any. An active plan is
    kept as long as its own target segment stays clear; a decision to stay
    put leaves the agent stable. Before the utility decision, alternatives
    that are themselves predicted to be intruded are dropped (falling back to
    the clearest ones when nothing is fully safe), and staying put remains an
    option only while the predicted intrusion respects the rest margin, so
    the agent absorbs marginal threats at the utility's discretion but never
    rests through a foreseen territory intrusion.
    """
    radius = params.territory_radius + params.planning_margin
    dyad = Segment(snapshot.user.position, snapshot.vh.position)

    if state.phase is PlanPhase.ADJUSTING and state.plan is not None:
        target_seg = Segment(snapshot.user.position, state.plan.target_position)
        conflicted, _ = detect_potential_conflict(target_seg, snapshot.trajectories, radius)
        if not conflicted:
            return state, None
    else:
        conflicted, _ = detect_potential_conflict(dyad, snapshot.trajectories, radius)
        if not conflicted:
            return state, None

    context = classify_spatial_context(snapshot.env, dyad, snapshot.pedestrians, prox)
    candidates = generate_candidates(snapshot.user, snapshot.vh.position, snapshot.env, prox, params)
    utility, ingroup, outgroup, move, approach = score_candidates(
        candidates, snapshot.user, snapshot.vh.position, context,
        snapshot.trajectories, comfort_coeffs, prox, coeffs, radius,
    )
    # Relocation pruning, an out-group mechanism (inert at zero out-group
    # weight). Alternatives must clear the trigger radius or, when nothing
    # does, sit within a band of the best achievable clearance. Holding still
    # stays on the table for the utility to arbitrate unless the predicted
    # intrusion cuts deeper than the rest margin, in which case relocation is
    # forced: resting there would realize a conflict the agent foresaw.
    if coeffs.outgroup_weight > 0.0:
        safe = approach >= radius
        hold = move <= 1e-12
        if safe.any():
            # resting beats a safe move only for threats clearing the
            # territory by the rest margin
            keep = safe | (hold & (approach >= params.territory_radius + params.rest_margin))
        else:
            # cornered: stand ground unless the intrusion cuts deeper than
            # the rest margin into the territory, otherwise chase clearance
            keep = (approach >= approach.max() - 0.10) | (
                hold & (approach >= params.territory_radius - params.rest_margin)
            )
        pool = np.nonzero(keep)[0]
    else:
        pool = np.arange(len(candidates))
    j = _argbest(utility[pool], move[pool])
    i = int(pool[j])
    best = _assemble_plan(
        candidates[i], snapshot.user, context, prox,
        float(ingroup[i]), float(outgroup[i]), float(move[i]), float(utility[i]),
    )
    if best.move_distance <= 1e-12:
        return PlanState(), best
    return PlanState(PlanPhase.ADJUSTING, best), best


class ConflictAvoidancePlanner:
    """Owns the plan state across a simulation run.

    Checks for potential conflicts on a fixed cadence and moves the agent
    every tick while a plan is active. Records the in-group comfort of every
    decision for downstream metrics.
    """

    def __init__(
        self,
        env: Environment,
        prox: ProxemicsParams,
        avoid: AvoidanceParams,
        comfort_coeffs: ComfortCoefficients,
        coeffs: PlannerCoefficients,
        params: PlannerParams,
    ) -> None:
        self.env = env
        self.prox = prox
        self.avoid = avoid
        self.comfort_coeffs = comfort_coeffs
        self.coeffs = coeffs
        self.params = params
        self.state = PlanState()
        self.decision_ingroups: list[float] = []
        self._next_check = 0.0

    def update(
        self,
        t: float,
        dt: float,
        user: Pose,
        vh: Pose,
        pedestrians: Callable[[], list[PedestrianState]],
    ) -> Pose:
        """One tick: maybe replan, then execute the active plan.

        `pedestrians` is called for the crowd's states only on the ticks
        that check for conflicts.
        """
        if t >= self._next_check - 1e-9:
            self._next_check = t + self.params.replan_interval
            snapshot = make_snapshot(
                user, vh, self.env, pedestrians(), self.avoid, dt,
                self.prox.c_space_radius, self.params.horizon_cap,
            )
            self.state, decision = plan_if_needed(
                snapshot, self.state, self.prox, self.comfort_coeffs, self.coeffs, self.params
            )
            if decision is not None:
                self.decision_ingroups.append(decision.ingroup)
        self.state, vh = step_plan(self.state, vh, dt, self.params)
        return vh
