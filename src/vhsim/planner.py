"""Utility-based position planning for the virtual human.

When a predicted pedestrian path intrudes the dyad's territory, candidate
positions around the user are scored by in-group comfort, out-group comfort,
and movement cost; the best one becomes a rate-limited movement plan. Plans
are kept until finished unless their own target becomes conflicted, so the
agent does not fidget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .comfort import SATURATION_DISTANCE_M, comfort_from_distance
from .geometry import (
    Pose,
    Segment,
    Vec2,
    angle_difference,
    points_segment_distance,
)
from .prediction import Prediction, anticipated_pedestrians, prediction_horizon, predict_trajectory
from .proxemics import (
    SpatialContext,
    agent_orientation_for,
    classify_spatial_context,
    ingroup_choice,
)

if TYPE_CHECKING:
    from .simulation import ScenarioConfig

# Cells (kept samples x candidates) the approach kernel of `score_candidates`
# evaluates at once: two float64 buffers of this size, about 80 KB each, are
# all it holds of the samples x candidates product, whatever the crowd,
# horizon or grid. About 60 samples a block on the default 169-candidate grid.
BLOCK_CELLS = 10_000


@dataclass
class PlanningSnapshot:
    """Everything the planner needs about the world at one instant.

    positions: every pedestrian's position, an (n, 2) array
    trajectories: the tracked pedestrians' predicted paths
    """

    user: Pose
    vh: Pose
    positions: np.ndarray
    trajectories: Prediction


@dataclass(frozen=True, eq=False)
class Decision:
    """One search: the context, the candidate grid (an (m, 2) array) and its
    score arrays from `score_candidates`, the indices of the pruned pool, the
    winning row, and the pose the agent moves to. While the agent moves there,
    the decision is the running plan.
    """

    context: SpatialContext
    candidates: np.ndarray
    utility: np.ndarray
    ingroup: np.ndarray
    outgroup: np.ndarray
    move: np.ndarray
    approach: np.ndarray
    alpha: np.ndarray
    arrangement: np.ndarray
    pool: np.ndarray
    winner: int
    target_position: Vec2
    target_orientation: float


def make_snapshot(user: Pose, vh: Pose, crowd, config: ScenarioConfig) -> PlanningSnapshot:
    """Predict every pedestrian of the crowd (a `simulation.Crowd`) worth
    anticipating on a shared sample grid of step `config.dt`."""
    dyad = Segment(user.position, vh.position)
    rows = anticipated_pedestrians(crowd.position, dyad, config)
    horizon = prediction_horizon(
        crowd.position[rows], crowd.velocity[rows], dyad, config.c_space_radius, config.horizon_cap
    )
    prediction = predict_trajectory(crowd, rows, user.position, max(horizon, config.dt), config.dt, config)
    return PlanningSnapshot(user, vh, crowd.position, prediction)


def detect_potential_conflict(
    dyad: Segment,
    prediction: Prediction,
    radius: float,
) -> bool:
    """Whether any predicted sample intrudes the capsule around the dyad."""
    return bool((points_segment_distance(prediction.points, dyad) < radius).any())


def grid_shape(config: ScenarioConfig) -> tuple[int, int]:
    """The candidate grid's (radii, bearings) before any is dropped."""
    band = config.interpersonal_distance - config.formation_min
    return (int(math.floor(band / config.candidate_radial_step + 1e-9)) + 1,
            int(round(360.0 / config.candidate_angular_step)))


def generate_candidates(user: Pose, current_vh: Vec2, config: ScenarioConfig) -> np.ndarray:
    """Polar grid of target positions around the user, plus the current spot,
    as an (m, 2) array.

    Radii span the formation distance bounds; positions outside the bounds or
    closer than `wall_clearance` to a side wall are dropped. The side walls
    span the full height, so a point's distance to the nearer one is
    min(x, width - x). Rows run radius by radius, bearings
    counter-clockwise from +x. The current position is always the last row,
    so holding still is always an option.
    """
    lattice = _lattice(user.position, config)
    return np.vstack((lattice, (current_vh.x, current_vh.y)))


@functools.lru_cache(maxsize=16)
def _lattice(center: Vec2, config: ScenarioConfig) -> np.ndarray:
    """`generate_candidates`' polar grid without the current spot, as a
    read-only (m - 1, 2) array. The user never moves during a trial, so one
    trial builds it once."""
    n_radii, n_bearings = grid_shape(config)
    bearings = [math.radians(k * config.candidate_angular_step) for k in range(n_bearings)]
    r = config.formation_min + np.arange(n_radii)[:, None] * config.candidate_radial_step
    x = center.x + r * np.array([math.cos(b) for b in bearings])
    y = center.y + r * np.array([math.sin(b) for b in bearings])
    grid = np.column_stack((x.ravel(), y.ravel()))
    env = config.build_environment()
    keep = (0.0 <= grid[:, 0]) & (grid[:, 0] <= env.width) & (0.0 <= grid[:, 1]) & (grid[:, 1] <= env.height)
    if env.side_walls:
        keep &= ~(np.minimum(grid[:, 0], env.width - grid[:, 0]) < config.wall_clearance)
    lattice = grid[keep]
    lattice.flags.writeable = False
    return lattice


def score_candidates(
    candidates: np.ndarray,
    user: Pose,
    current_vh: Vec2,
    context: SpatialContext,
    points: np.ndarray,
    config: ScenarioConfig,
) -> tuple[np.ndarray, ...]:
    """Score every candidate of an (m, 2) array against the whole predicted
    sample cloud, an (N, 2) array of `points`, in blocks of about
    `BLOCK_CELLS` sample-candidate cells.

    Returns (utility, ingroup, outgroup, move, approach, alpha, arrangement)
    arrays in candidate order. The last two are the user's angle and the best
    arrangement from `ingroup_choice`, whose preference is the in-group
    comfort; approach is each candidate segment's smallest distance to a
    predicted sample. Samples too far out to come within the comfort
    saturation distance or the trigger radius (territory radius plus
    planning margin) of any candidate segment are skipped, so approach is
    exact below the larger of the two and otherwise exact or inf.
    """
    u = user.position
    ex = candidates[:, 0] - u.x
    ey = candidates[:, 1] - u.y
    ee = ex * ex + ey * ey

    # out-group: worst clamped comfort over every predicted sample, which only
    # depends on the smallest sample-to-segment distance; samples farther from
    # the user than the farthest candidate plus that margin are dropped up front
    n = len(candidates)
    radius = config.territory_radius + config.planning_margin
    cutoff = math.sqrt(ee.max()) + max(SATURATION_DISTANCE_M, radius) + 1e-6
    wx = points[:, 0] - u.x
    wy = points[:, 1] - u.y
    keep = (wx * wx + wy * wy) <= cutoff * cutoff
    # each sample's projection on each candidate segment, clamped to the
    # segment, then the squared distance, for blocks of samples in two reused
    # (rows, m) buffers, folded into a running per-candidate minimum (inf,
    # which scores comfort 1, when no sample is kept); the per-cell
    # operations and their order fix the result's bits, which the tests
    # compare with the dense form in tests/oracles.py
    wx, wy = wx[keep, None], wy[keep, None]
    ee_safe = np.where(ee == 0.0, 1.0, ee)
    rows = max(1, BLOCK_CELLS // n)
    t_block = np.empty((min(rows, len(wx)), n))
    d_block = np.empty_like(t_block)
    closest = np.full(n, np.inf)
    for start in range(0, len(wx), rows):
        bx, by = wx[start:start + rows], wy[start:start + rows]
        t, d = t_block[:len(bx)], d_block[:len(bx)]
        np.multiply(bx, ex, out=t)
        np.multiply(by, ey, out=d)
        t += d
        t /= ee_safe
        np.clip(t, 0.0, 1.0, out=t)
        np.multiply(t, ex, out=d)
        np.subtract(bx, d, out=d)
        d *= d
        t *= ey
        np.subtract(by, t, out=t)
        t *= t
        d += t
        np.minimum(closest, d.min(axis=0), out=closest)
    approach = np.sqrt(closest)
    outgroup = comfort_from_distance(approach)

    alpha, ingroup, arrangement = ingroup_choice(candidates, user, context, config)
    move = np.hypot(candidates[:, 0] - current_vh.x, candidates[:, 1] - current_vh.y)
    utility = (ingroup + config.coefficient_c * outgroup) / (1.0 + move * config.coefficient_d)
    return utility, ingroup, outgroup, move, approach, alpha, arrangement


def _argbest(utility: np.ndarray, move: np.ndarray) -> int:
    """Index of the best candidate: highest utility, then smaller move, then earlier index."""
    ties = np.nonzero(utility == utility.max())[0]
    return int(ties[np.argmin(move[ties])])


def step_plan(plan: Decision | None, vh: Pose, config: ScenarioConfig) -> tuple[Decision | None, Pose]:
    """Advance the agent one tick toward the running plan under speed and
    turn limits; the plan ends (None) on arrival."""
    if plan is None:
        return None, vh
    to_target = plan.target_position - vh.position
    dist = to_target.norm()
    max_step = config.vh_max_speed * config.dt
    if dist <= max_step:
        new_pos = plan.target_position
    else:
        new_pos = vh.position + to_target * (max_step / dist)
    d_theta = angle_difference(plan.target_orientation, vh.orientation)
    max_rot = math.radians(config.vh_turn_rate) * config.dt
    new_theta = vh.orientation + max(-max_rot, min(max_rot, d_theta))
    new_pose = Pose(new_pos, new_theta)

    rem = new_pos.distance_to(plan.target_position)
    rem_angle = abs(angle_difference(plan.target_orientation, new_pose.orientation))
    if rem <= config.arrive_position_tol and rem_angle <= math.radians(config.arrive_angle_tol):
        return None, new_pose
    return plan, new_pose


def search(snapshot: PlanningSnapshot, context: SpatialContext, config: ScenarioConfig) -> Decision:
    """Score the candidate grid, prune it and pick the winner.

    Before the utility decision, alternatives that are themselves predicted
    to be intruded are dropped (falling back to the clearest ones when
    nothing is fully safe), and staying put remains an option only while the
    predicted intrusion respects the rest margin, so the agent absorbs
    marginal threats at the utility's discretion but never rests through a
    foreseen territory intrusion.
    """
    user, current = snapshot.user, snapshot.vh.position
    candidates = generate_candidates(user, current, config)
    scores = score_candidates(candidates, user, current, context, snapshot.trajectories.points, config)
    utility, _, _, move, approach, alpha, arrangement = scores
    # Relocation pruning, an out-group mechanism (inert at zero out-group
    # weight). Alternatives must clear the trigger radius or, when nothing
    # does, sit within a band of the best achievable clearance. Holding still
    # stays on the table for the utility to arbitrate unless the predicted
    # intrusion cuts deeper than the rest margin, in which case relocation is
    # forced: resting there would realize a conflict the agent foresaw.
    if config.coefficient_c > 0.0:
        safe = approach >= config.territory_radius + config.planning_margin
        hold = move <= 1e-12
        if safe.any():
            # resting beats a safe move only for threats clearing the
            # territory by the rest margin
            keep = safe | (hold & (approach >= config.territory_radius + config.rest_margin))
        else:
            # cornered: stand ground unless the intrusion cuts deeper than
            # the rest margin into the territory, otherwise chase clearance
            keep = (approach >= approach.max() - 0.10) | (
                hold & (approach >= config.territory_radius - config.rest_margin)
            )
        pool = np.nonzero(keep)[0]
    else:
        pool = np.arange(len(candidates))
    i = int(pool[_argbest(utility[pool], move[pool])])
    target = Vec2(*candidates[i].tolist())
    orientation = agent_orientation_for(user, target, int(arrangement[i]), float(alpha[i]))
    return Decision(context, candidates, *scores, pool, i, target, orientation)


def plan_if_needed(
    snapshot: PlanningSnapshot,
    plan: Decision | None,
    config: ScenarioConfig,
) -> tuple[Decision | None, Decision | None]:
    """Search when the territory is threatened and no valid plan is running.

    Returns the new plan plus the decision taken, if any. A running plan is
    kept as long as its own target segment stays clear; a decision to stay
    put leaves no plan running.
    """
    dyad = Segment(snapshot.user.position, snapshot.vh.position)
    watched = dyad if plan is None else Segment(snapshot.user.position, plan.target_position)
    conflicted = detect_potential_conflict(
        watched, snapshot.trajectories, config.territory_radius + config.planning_margin
    )
    if not conflicted:
        return plan, None
    context = classify_spatial_context(dyad, snapshot.positions, config)
    decision = search(snapshot, context, config)
    if decision.move[decision.winner] <= 1e-12:
        return None, decision
    return decision, decision


class ConflictAvoidancePlanner:
    """Owns the running plan across a simulation run.

    Checks for potential conflicts on a fixed cadence and moves the agent
    every tick while a plan runs. Counts its decisions and sums their
    winners' in-group comfort, in decision order, for downstream metrics.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.plan: Decision | None = None
        self.decision_count = 0
        self.ingroup_sum = 0.0
        self._next_check = 0.0

    def update(self, t: float, user: Pose, vh: Pose, crowd) -> Pose:
        """One tick of `config.dt`: maybe replan, then execute the running plan.

        `crowd` is the `simulation.Crowd`; its arrays are read only on the
        ticks that check for conflicts.
        """
        config = self.config
        if t >= self._next_check - 1e-9:
            self._next_check = t + config.replan_interval
            snapshot = make_snapshot(user, vh, crowd, config)
            self.plan, decision = plan_if_needed(snapshot, self.plan, config)
            if decision is not None:
                self.decision_count += 1
                self.ingroup_sum += float(decision.ingroup[decision.winner])
        self.plan, vh = step_plan(self.plan, vh, config)
        return vh
