import math
import random
from dataclasses import replace

import numpy as np
import pytest

from oracles import oracle_decision, oracle_ingroup, oracle_utility
from vhsim.comfort import ComfortCoefficients, best_arrangement, comfort_from_distance, points_segment_distance
from vhsim.geometry import Environment, Pose, Segment, Vec2, distance_point_segment, narrow_passage, open_square
from vhsim.planner import (
    CandidatePlan,
    ConflictAvoidancePlanner,
    PlanPhase,
    PlanState,
    PlannerCoefficients,
    PlannerParams,
    PlanningSnapshot,
    _argbest,
    detect_potential_conflict,
    generate_candidates,
    make_snapshot,
    plan_if_needed,
    score_candidates,
    step_plan,
)
from vhsim.prediction import AvoidanceParams, PedestrianState, PredictedTrajectory
from vhsim.proxemics import (
    Crowdedness,
    Definiteness,
    ProxemicsParams,
    SpatialContext,
    classify_spatial_context,
)

PROX = ProxemicsParams()
COEFFS = PlannerCoefficients()
COMFORT = ComfortCoefficients()
PARAMS = PlannerParams()
CTX_OPEN = SpatialContext(Definiteness.OPEN_SPACE, Crowdedness.UNCROWDED)


def traj(points, pid=0, dt=0.1):
    pts = np.asarray(points, dtype=float)
    return PredictedTrajectory(pid, np.arange(len(pts)) * dt, pts, d_min=0.0)


def straight_traj(start, vel, n=60, pid=0, dt=0.1):
    pts = [(start[0] + vel[0] * dt * i, start[1] + vel[1] * dt * i) for i in range(n)]
    return traj(pts, pid=pid, dt=dt)


class TestDetectConflict:
    def test_empty(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        assert detect_potential_conflict(dyad, [], 0.45) == (False, [])

    def test_through_midpoint(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        t = straight_traj((-2, 0.75), (1.0, 0), pid=7)
        conflict, ids = detect_potential_conflict(dyad, [t], 0.45)
        assert conflict and ids == [7]

    def test_skirting_outside_radius(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        offset = 0.45 + 0.1
        t = straight_traj((-2, 1.5 + offset), (1.0, 0), pid=3)
        conflict, ids = detect_potential_conflict(dyad, [t], 0.45)
        assert not conflict and ids == []

    def test_multiple_offenders(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        a = straight_traj((-2, 0.75), (1.0, 0), pid=1)
        b = straight_traj((2, 0.75), (-1.0, 0), pid=2)
        clean = straight_traj((-5, 8), (1.0, 0), pid=3)
        conflict, ids = detect_potential_conflict(dyad, [a, b, clean], 0.45)
        assert conflict and ids == [1, 2]


class TestGenerateCandidates:
    def test_open_square_full_grid(self):
        env = open_square(20.0)
        user = Pose(Vec2(10, 10), 0.0)
        cands = generate_candidates(user, Vec2(10, 11.5), env, PROX, PARAMS)
        assert len(cands) == 7 * 24 + 1
        assert cands[-1] == Vec2(10, 11.5)

    def test_wall_filtering_matches_hand_rule(self):
        env = narrow_passage(3.0, 20.0)
        user = Pose(Vec2(0.5, 10.0), 0.0)
        cands = generate_candidates(user, Vec2(1.5, 10.0), env, PROX, PARAMS)
        # independent count: keep grid points inside bounds and at least
        # 0.3 m from both long walls (x in [0.3, 2.7])
        expected = 0
        for i in range(7):
            r = 0.6 + 0.15 * i
            for k in range(24):
                theta = math.radians(15.0 * k)
                x = 0.5 + r * math.cos(theta)
                y = 10.0 + r * math.sin(theta)
                if 0.0 <= x <= 3.0 and 0.0 <= y <= 20.0 and min(x, 3.0 - x) >= 0.3:
                    expected += 1
        assert len(cands) == expected + 1
        for c in cands[:-1]:
            assert 0.3 <= c.x <= 2.7

    def test_degenerate_env_keeps_only_current(self):
        # corner distance 0.57 m < smallest ring radius, so the grid is empty
        env = Environment(width=0.8, height=0.8)
        user = Pose(Vec2(0.4, 0.4), 0.0)
        cands = generate_candidates(user, Vec2(0.5, 0.4), env, PROX, PARAMS)
        assert cands == [Vec2(0.5, 0.4)]


def score_one(cand, user, current, trajectories):
    """(utility, ingroup, outgroup, move) of one candidate, as the planner scores it."""
    utility, ingroup, outgroup, move, _ = score_candidates(
        [cand], user, current, CTX_OPEN, trajectories, COMFORT, PROX, COEFFS
    )
    return float(utility[0]), float(ingroup[0]), float(outgroup[0]), float(move[0])


class TestScoreCandidate:
    def test_utility_at_zero_move(self):
        user = Pose(Vec2(0, 0), 0.0)
        cand = Vec2(1.0, 0.0)
        utility, ingroup, outgroup, _ = score_one(cand, user, cand, [])
        assert ingroup == 1.0 and outgroup == 1.0
        assert utility == pytest.approx(2.0)

    def test_utility_with_two_meter_move(self):
        user = Pose(Vec2(0, 0), 0.0)
        cand = Vec2(1.0, 0.0)
        utility, _, _, move = score_one(cand, user, Vec2(-1.0, 0.0), [])
        assert move == pytest.approx(2.0)
        assert utility == pytest.approx(1.0)

    def test_no_formation_candidate(self):
        user = Pose(Vec2(0, 0), 0.0)
        cand = Vec2(-1.0, 0.0)  # behind the user
        utility, ingroup, _, move = score_one(cand, user, Vec2(1.0, 0.0), [])
        assert ingroup == 0.0
        assert utility == pytest.approx(1.0 / (1.0 + 0.5 * move))

    def test_utility_formula_invariant(self):
        rng = random.Random(89)
        user = Pose(Vec2(0, 0), rng.uniform(0, 6.28))
        for _ in range(100):
            cand = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            cur = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            trajs = [straight_traj((rng.uniform(-3, 3), rng.uniform(-3, 3)),
                                   (rng.uniform(-1, 1), rng.uniform(-1, 1)), n=20)]
            utility, ingroup, outgroup, move = score_one(cand, user, cur, trajs)
            expected = (ingroup + COEFFS.outgroup_weight * outgroup) / (1.0 + move * COEFFS.move_cost)
            assert utility == pytest.approx(expected, abs=1e-12)
            assert utility == pytest.approx(
                oracle_utility(cand, user, cur, CTX_OPEN, trajs, COMFORT, PROX, COEFFS), abs=1e-9
            )

    def test_approach_exact_within_trigger_radius(self):
        # the only sample is 2.27 m from the user, beyond the candidate plus
        # the 0.67 m comfort saturation, but within a 0.9 m trigger radius
        user = Pose(Vec2(0, 0), 0.0)
        cand = Vec2(1.5, 0.0)
        *_, approach = score_candidates(
            [cand], user, cand, CTX_OPEN, [traj([(2.27, 0.0)])], COMFORT, PROX, COEFFS, 0.9
        )
        assert approach[0] == pytest.approx(0.77, abs=1e-12)

    def test_outgroup_matches_comfort_module(self):
        # the sample pre-filter and the grid-wide segment distances give the
        # regression of the exact closest approach
        rng = random.Random(97)
        user = Pose(Vec2(0, 0), 0.0)
        for _ in range(50):
            cand = Vec2(rng.uniform(0.6, 1.5), rng.uniform(-1, 1))
            trajs = [
                straight_traj((rng.uniform(-4, 4), rng.uniform(-3, 3)),
                              (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), n=30, pid=i)
                for i in range(rng.randint(1, 4))
            ]
            _, _, outgroup, _ = score_one(cand, user, cand, trajs)
            closest = min(points_segment_distance(t.points, user.position, cand).min() for t in trajs)
            assert outgroup == pytest.approx(comfort_from_distance(np.array([closest]), COMFORT)[0], abs=1e-9)

    def test_ingroup_matches_comfort_module(self):
        # the vectorized bands agree with the arrangement a plan is built on
        rng = random.Random(103)
        user = Pose(Vec2(0, 0), 1.0)
        for _ in range(100):
            cand = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if cand == user.position:
                continue
            _, ingroup, _, _ = score_one(cand, user, Vec2(1.0, 0.0), [])
            assert ingroup == best_arrangement(cand, user, CTX_OPEN, PROX)[1]
            assert ingroup == oracle_ingroup(cand, user, CTX_OPEN, PROX)


def make_plan(utility, move=0.0, pos=None):
    return CandidatePlan(
        target_position=pos or Vec2(0, 0),
        target_orientation=0.0,
        arrangement=None,
        ingroup=0.0,
        outgroup=0.0,
        move_distance=move,
        utility=utility,
    )


class TestDecide:
    def test_single(self):
        assert _argbest(np.array([1.0]), np.array([0.0])) == 0

    def test_highest_utility(self):
        assert _argbest(np.array([1.8, 2.0]), np.array([0.0, 0.0])) == 1

    def test_tie_smaller_move(self):
        assert _argbest(np.array([1.5, 1.5]), np.array([2.0, 0.5])) == 1

    def test_tie_earlier_index(self):
        assert _argbest(np.array([1.5, 1.5]), np.array([1.0, 1.0])) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _argbest(np.array([]), np.array([]))

    def test_affine_rescale_invariance(self):
        rng = random.Random(109)
        for _ in range(50):
            utility = np.array([rng.uniform(0, 2) for _ in range(10)])
            move = np.array([rng.uniform(0, 3) for _ in range(10)])
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-1, 1)
            assert _argbest(a * utility + b, move) == _argbest(utility, move)

    def test_permutation_invariance(self):
        rng = random.Random(113)
        utility = np.array([rng.choice([1.0, 1.5, 2.0]) for _ in range(12)])
        move = np.array([rng.choice([0.5, 1.0]) for _ in range(12)])
        best = _argbest(utility, move)
        for _ in range(20):
            order = np.array(rng.sample(range(12), 12))
            other = order[_argbest(utility[order], move[order])]
            assert (utility[other], move[other]) == (utility[best], move[best])


class TestStepPlan:
    def _adjusting(self, target, orientation=0.0):
        plan = make_plan(1.0, pos=target)
        plan = replace(plan, target_orientation=orientation)
        return PlanState(PlanPhase.ADJUSTING, plan)

    def test_arrives_within_one_tick(self):
        state = self._adjusting(Vec2(0.15, 0.0))
        vh = Pose(Vec2(0, 0), 0.0)
        new_state, new_vh = step_plan(state, vh, 0.1, PARAMS)
        assert new_vh.position == Vec2(0.15, 0.0)
        assert new_state.phase is PlanPhase.STABLE

    def test_moves_exactly_speed_limit(self):
        state = self._adjusting(Vec2(3.0, 0.0))
        vh = Pose(Vec2(0, 0), 0.0)
        _, new_vh = step_plan(state, vh, 0.1, PARAMS)
        assert new_vh.position.x == pytest.approx(0.15)
        assert new_vh.position.y == 0.0

    def test_stable_is_identity(self):
        state = PlanState(PlanPhase.STABLE, None)
        vh = Pose(Vec2(1, 2), 0.7)
        new_state, new_vh = step_plan(state, vh, 0.1, PARAMS)
        assert new_state is state and new_vh is vh

    def test_rotation_rate_limited(self):
        state = self._adjusting(Vec2(0.0, 0.0), orientation=math.pi)
        vh = Pose(Vec2(0, 0), 0.0)
        _, new_vh = step_plan(state, vh, 0.1, PARAMS)
        assert new_vh.orientation == pytest.approx(math.radians(18.0))

    def test_never_exceeds_max_speed(self):
        rng = random.Random(127)
        for _ in range(100):
            target = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            vh = Pose(Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 6.28))
            state = self._adjusting(target, orientation=rng.uniform(0, 6.28))
            dt = rng.choice([0.05, 0.1, 0.2])
            _, new_vh = step_plan(state, vh, dt, PARAMS)
            moved = new_vh.position.distance_to(vh.position)
            assert moved <= PARAMS.max_speed * dt + 1e-9

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            step_plan(PlanState(), Pose(Vec2(0, 0), 0.0), 0.0, PARAMS)


def build_snapshot(user, vh, env, trajectories, pedestrians=None):
    return PlanningSnapshot(user, vh, env, pedestrians or [], trajectories)


class TestPlanIfNeeded:
    def setup_method(self):
        self.env = open_square(20.0)
        self.user = Pose(Vec2(10, 9.25), math.pi / 2)
        self.vh = Pose(Vec2(10, 10.75), 1.5 * math.pi)

    def test_no_conflict_stays_stable(self):
        snap = build_snapshot(self.user, self.vh, self.env, [])
        state, decision = plan_if_needed(snap, PlanState(), PROX, COMFORT, COEFFS, PARAMS)
        assert state.phase is PlanPhase.STABLE and decision is None

    def test_conflict_elsewhere_adjusts(self):
        # a pedestrian will walk straight through the current agent position
        t = straight_traj((6.0, 10.75), (1.4, 0.0), n=80, pid=5)
        snap = build_snapshot(self.user, self.vh, self.env, [t])
        state, decision = plan_if_needed(snap, PlanState(), PROX, COMFORT, COEFFS, PARAMS)
        assert state.phase is PlanPhase.ADJUSTING
        assert decision is not None
        assert decision.move_distance > 0.0
        # the chosen target is itself clear of the predicted path
        d = distance_point_segment(
            decision.target_position, Segment(Vec2(6.0, 10.75), Vec2(6.0 + 1.4 * 7.9, 10.75))
        )
        seg_clear = detect_potential_conflict(
            Segment(self.user.position, decision.target_position), [t],
            PARAMS.territory_radius + PARAMS.planning_margin,
        )
        assert seg_clear == (False, [])

    def oracle_target(self, trajectories):
        """The oracle's pick for this scene and its utility."""
        ctx = classify_spatial_context(self.env, Segment(self.user.position, self.vh.position), [], PROX)
        cands = generate_candidates(self.user, self.vh.position, self.env, PROX, PARAMS)
        i = oracle_decision(cands, self.user, self.vh.position, ctx, trajectories, COMFORT, PROX, COEFFS, PARAMS)
        return cands[i], oracle_utility(cands[i], self.user, self.vh.position, ctx, trajectories, COMFORT, PROX, COEFFS)

    def test_decision_matches_hand_scored_candidates(self):
        # safe branch: some candidates clear the pedestrian's path
        t = straight_traj((6.0, 10.75), (1.4, 0.0), n=80, pid=5)
        snap = build_snapshot(self.user, self.vh, self.env, [t])
        state, decision = plan_if_needed(snap, PlanState(), PROX, COMFORT, COEFFS, PARAMS)
        target, utility = self.oracle_target([t])
        assert decision.target_position == target
        assert decision.utility == pytest.approx(utility, abs=1e-9)

    def test_cornered_holds_above_rest_margin(self):
        # a path 0.45 m below the user reaches every candidate segment, so
        # none is safe; another 0.32 m above the agent puts holding still
        # outside the best-clearance band but within territory - rest margin
        below = straight_traj((6.0, 8.80), (1.4, 0.0), n=80, pid=1)
        above = straight_traj((6.0, 11.07), (1.4, 0.0), n=80, pid=2)
        snap = build_snapshot(self.user, self.vh, self.env, [below, above])
        state, decision = plan_if_needed(snap, PlanState(), PROX, COMFORT, COEFFS, PARAMS)
        target, utility = self.oracle_target([below, above])
        assert decision.target_position == target
        assert decision.utility == pytest.approx(utility, abs=1e-9)
        assert state.phase is PlanPhase.STABLE and decision.move_distance == 0.0

    def test_cornered_forced_below_rest_margin(self):
        # as above, but the path 0.20 m above the agent cuts deeper than the
        # rest margin into the territory, so holding still is dropped
        below = straight_traj((6.0, 8.80), (1.4, 0.0), n=80, pid=1)
        above = straight_traj((6.0, 10.95), (1.4, 0.0), n=80, pid=2)
        snap = build_snapshot(self.user, self.vh, self.env, [below, above])
        state, decision = plan_if_needed(snap, PlanState(), PROX, COMFORT, COEFFS, PARAMS)
        target, utility = self.oracle_target([below, above])
        assert decision.target_position == target
        assert decision.utility == pytest.approx(utility, abs=1e-9)
        assert state.phase is PlanPhase.ADJUSTING and decision.move_distance > 0.0

    @pytest.mark.parametrize("arc_radius,holds", [(0.95, False), (1.10, True)])
    def test_safe_branch_holds_only_above_rest_margin(self, arc_radius, holds):
        # samples on two arcs around the user, 40-60 deg either side of the
        # dyad, leave safe only candidates that cost a move of 1.6 m or more,
        # and pass the agent at arc_radius * cos 60 deg: holding still wins
        # the utility whenever it stays in the pool, which it may only above
        # territory radius + rest margin (0.5 m)
        arcs = [
            traj([(10.0 + arc_radius * math.cos(math.radians(a)), 9.25 + arc_radius * math.sin(math.radians(a)))
                  for a in range(lo, lo + 21)], pid=pid)
            for pid, lo in ((1, 40), (2, 120))
        ]
        snap = build_snapshot(self.user, self.vh, self.env, arcs)
        state, decision = plan_if_needed(snap, PlanState(), PROX, COMFORT, COEFFS, PARAMS)
        target, utility = self.oracle_target(arcs)
        assert decision.target_position == target
        assert decision.utility == pytest.approx(utility, abs=1e-9)
        assert (decision.move_distance == 0.0) is holds

    def test_hold_when_outgroup_ignored(self):
        # with zero out-group weight the plain argmax keeps the agent stable
        t = straight_traj((6.0, 10.75), (1.4, 0.0), n=80, pid=5)
        snap = build_snapshot(self.user, self.vh, self.env, [t])
        coeffs = PlannerCoefficients(outgroup_weight=0.0, move_cost=0.5)
        state, decision = plan_if_needed(snap, PlanState(), PROX, COMFORT, coeffs, PARAMS)
        assert state.phase is PlanPhase.STABLE
        assert decision is not None and decision.move_distance == 0.0

    def test_keeps_clean_active_plan(self):
        t = straight_traj((6.0, 10.75), (1.4, 0.0), n=80, pid=5)
        snap = build_snapshot(self.user, self.vh, self.env, [t])
        state, decision = plan_if_needed(snap, PlanState(), PROX, COMFORT, COEFFS, PARAMS)
        assert state.phase is PlanPhase.ADJUSTING
        again, decision2 = plan_if_needed(snap, state, PROX, COMFORT, COEFFS, PARAMS)
        assert again is state and decision2 is None


class TestPlannerLoop:
    def test_never_leaves_stable_without_pedestrians(self):
        env = open_square(12.0)
        prox = ProxemicsParams()
        planner = ConflictAvoidancePlanner(
            env, prox, AvoidanceParams(), COMFORT, COEFFS, PARAMS
        )
        user = Pose(Vec2(6, 5.25), math.pi / 2)
        vh = Pose(Vec2(6, 6.75), 1.5 * math.pi)
        start = vh
        for k in range(100):
            vh = planner.update(k * 0.1, 0.1, user, vh, list)
            assert planner.state.phase is PlanPhase.STABLE
        assert vh.position == start.position

    def test_chosen_plan_prefers_formation_when_clean(self):
        # a candidate with positive in-group and out-group should beat every
        # no-formation candidate whenever its utility is higher
        rng = random.Random(131)
        env = open_square(20.0)
        user = Pose(Vec2(10, 10), rng.uniform(0, 6.28))
        vh = Pose(Vec2(10, 11.5), 0.0)
        for _ in range(20):
            trajs = [
                straight_traj(
                    (rng.uniform(5, 15), rng.uniform(5, 15)),
                    (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                    n=40, pid=i,
                )
                for i in range(3)
            ]
            cands = generate_candidates(user, vh.position, env, PROX, PARAMS)
            utility, ingroup, outgroup, move, _ = score_candidates(
                cands, user, vh.position, CTX_OPEN, trajs, COMFORT, PROX, COEFFS
            )
            winner = _argbest(utility, move)
            zero_in_max = utility[ingroup == 0.0].max(initial=0.0)
            if ((ingroup > 0) & (outgroup > 0) & (utility > zero_in_max)).any():
                assert ingroup[winner] > 0.0


class TestMakeSnapshot:
    def test_only_anticipated_predicted(self):
        env = open_square(20.0)
        user = Pose(Vec2(10, 9.25), math.pi / 2)
        vh = Pose(Vec2(10, 10.75), 1.5 * math.pi)
        near = PedestrianState(1, Vec2(12, 10), Vec2(-1, 0), Vec2(0, 10), 1.0)
        far = PedestrianState(2, Vec2(19, 19), Vec2(-1, 0), Vec2(0, 19), 1.0)
        snap = make_snapshot(user, vh, env, [near, far], AvoidanceParams(), 0.1, 6.0)
        assert [t.pedestrian_id for t in snap.trajectories] == [1]

    def test_shared_sample_grid(self):
        env = open_square(20.0)
        user = Pose(Vec2(10, 9.25), math.pi / 2)
        vh = Pose(Vec2(10, 10.75), 1.5 * math.pi)
        peds = [
            PedestrianState(1, Vec2(12, 10), Vec2(-1.2, 0), Vec2(0, 10), 1.2),
            PedestrianState(2, Vec2(8, 12), Vec2(0.5, -1.0), Vec2(12, 0), 1.118),
        ]
        snap = make_snapshot(user, vh, env, peds, AvoidanceParams(), 0.1, 6.0)
        assert len(snap.trajectories) == 2
        t0, t1 = snap.trajectories
        assert np.array_equal(t0.times, t1.times)
