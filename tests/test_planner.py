import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import vhsim.planner as planner_module
from crowds import WALLED, PedestrianState, crowd_of, positions_of, prediction_of, random_scene
from oracles import (
    context_preference,
    oracle_approach,
    oracle_candidates,
    oracle_decision,
    oracle_ingroup,
    oracle_utility,
    relative_angles,
)
from vhsim.comfort import SATURATION_DISTANCE_M, comfort_from_distance
from vhsim.geometry import (
    Pose,
    Segment,
    Vec2,
    distance_point_segment,
    points_segment_distance,
)
from vhsim.planner import (
    ConflictAvoidancePlanner,
    Decision,
    PlanningSnapshot,
    _argbest,
    detect_potential_conflict,
    generate_candidates,
    make_snapshot,
    plan_if_needed,
    score_candidates,
    search,
    step_plan,
)
from vhsim.proxemics import SpatialContext, classify_spatial_context
from vhsim.simulation import ScenarioConfig, run_trial

CONFIG = ScenarioConfig()
# hand-built scenes bring their own pedestrians; without a crowd the work
# bounds also admit the 4x-finer grid on this square
SQUARE20 = ScenarioConfig(environment="square20", density=0.0)
CTX_OPEN = SpatialContext(near_wall=False, crowded=False)


def traj(points, pid=0):
    """One predicted path: (pedestrian id, (n, 2) samples)."""
    return pid, np.asarray(points, dtype=float)


def straight_traj(start, vel, n=60, pid=0, dt=0.1):
    pts = [(start[0] + vel[0] * dt * i, start[1] + vel[1] * dt * i) for i in range(n)]
    return traj(pts, pid=pid)


def cloud(*trajs):
    """The prediction holding the given equally long paths."""
    return prediction_of(*(pts for _, pts in trajs), ids=[pid for pid, _ in trajs])


def rows(*candidates):
    return np.array([(c.x, c.y) for c in candidates], float).reshape(len(candidates), 2)


class TestDetectConflict:
    def test_empty(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        assert detect_potential_conflict(dyad, cloud(), 0.45) is False

    def test_through_midpoint(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        t = straight_traj((-2, 0.75), (1.0, 0), pid=7)
        assert detect_potential_conflict(dyad, cloud(t), 0.45) is True

    def test_skirting_outside_radius(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        offset = 0.45 + 0.1
        t = straight_traj((-2, 1.5 + offset), (1.0, 0), pid=3)
        assert detect_potential_conflict(dyad, cloud(t), 0.45) is False

    def test_multiple_offenders(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        a = straight_traj((-2, 0.75), (1.0, 0), pid=1)
        b = straight_traj((2, 0.75), (-1.0, 0), pid=2)
        clean = straight_traj((-5, 8), (1.0, 0), pid=3)
        assert detect_potential_conflict(dyad, cloud(clean), 0.45) is False
        assert detect_potential_conflict(dyad, cloud(a, b, clean), 0.45) is True
        assert detect_potential_conflict(dyad, cloud(clean, b), 0.45) is True


class TestGenerateCandidates:
    def test_open_square_full_grid(self):
        user = Pose(Vec2(10, 10), 0.0)
        cands = generate_candidates(user, Vec2(10, 11.5), SQUARE20)
        assert len(cands) == 7 * 24 + 1
        assert cands[-1].tolist() == [10, 11.5]

    def test_wall_filtering_matches_hand_rule(self):
        user = Pose(Vec2(0.5, 10.0), 0.0)
        cands = generate_candidates(user, Vec2(1.5, 10.0), ScenarioConfig(environment="passage"))
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
            assert 0.3 <= c[0] <= 2.7

    @pytest.mark.parametrize("config", [
        pytest.param(ScenarioConfig(environment=name), id=name) for name in ("square20", "passage")
    ] + [pytest.param(config, id=name) for name, config in WALLED.items()])
    def test_rows_equal_the_scalar_grid_bit_for_bit(self, config):
        # users across the whole area, so bounds and walls cut the grid, and
        # one whose innermost ring touches the left edge at x = 0
        env = config.build_environment()
        rng = random.Random(17)
        users = [Vec2(config.formation_min, 0.5 * env.height)]
        users += [Vec2(rng.uniform(0.0, env.width), rng.uniform(0.0, env.height)) for _ in range(200)]
        for position in users:
            user = Pose(position, 0.0)
            # the second call at a user position reuses the first's lattice
            for _ in range(2):
                current = Vec2(rng.uniform(0.0, env.width), rng.uniform(0.0, env.height))
                got = generate_candidates(user, current, config)
                want = np.array([(c.x, c.y) for c in oracle_candidates(user, current, config)])
                assert got.shape == want.shape and (got.view(np.uint64) == want.view(np.uint64)).all()

    def test_lattice_cache_keyed_by_what_it_reads(self):
        # equal inputs share one cached grid, and a change to any input the
        # grid reads builds its own, never a stale one: the grid step, the
        # environment preset (the 12 m square cuts the rings above y = 12),
        # the side walls and their clearance
        center = Vec2(0.5, 11.0)
        strip = ScenarioConfig(environment="custom", env_width=3.0, env_height=20.0)
        lattice = planner_module._lattice(center, strip)
        assert planner_module._lattice(Vec2(0.5, 11.0), replace(strip)) is lattice
        variants = [
            replace(strip, candidate_angular_step=30.0),
            replace(strip, environment="square12"),
            replace(strip, env_side_walls=True),
            replace(strip, env_side_walls=True, wall_clearance=0.5),
        ]
        grids = [lattice]
        for config in variants:
            grid = planner_module._lattice(center, config)
            want = np.array([(c.x, c.y) for c in oracle_candidates(Pose(center, 0.0), center, config)[:-1]])
            assert grid.shape == want.shape and (grid.view(np.uint64) == want.view(np.uint64)).all()
            grids.append(grid)
        assert len({grid.shape for grid in grids}) == len(grids)

    def test_degenerate_env_keeps_only_current(self):
        # no point of a 1 m wide strip lies 0.6 m from both side walls, so
        # the grid is empty
        config = ScenarioConfig(environment="custom", env_width=1.0, env_height=20.0, env_side_walls=True,
                                wall_clearance=0.6)
        user = Pose(Vec2(0.5, 10.0), 0.0)
        cands = generate_candidates(user, Vec2(0.5, 10.4), config)
        assert cands.tolist() == [[0.5, 10.4]]


def score_one(cand, user, current, trajectories):
    """(utility, ingroup, outgroup, move) of one candidate, as the planner scores it."""
    utility, ingroup, outgroup, move, *_ = score_candidates(
        rows(cand), user, current, CTX_OPEN, cloud(*trajectories).points, CONFIG
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
            expected = (ingroup + CONFIG.coefficient_c * outgroup) / (1.0 + move * CONFIG.coefficient_d)
            assert utility == pytest.approx(expected, abs=1e-12)
            assert utility == pytest.approx(
                oracle_utility(cand, user, cur, CTX_OPEN, cloud(*trajs), CONFIG), abs=1e-9
            )

    def test_approach_exact_within_trigger_radius(self):
        # the only sample is 2.27 m from the user, beyond the candidate plus
        # the 0.67 m comfort saturation, but within a 0.9 m trigger radius
        user = Pose(Vec2(0, 0), 0.0)
        cand = Vec2(1.5, 0.0)
        config = replace(CONFIG, territory_radius=0.4, planning_margin=0.5)
        approach = score_candidates(rows(cand), user, cand, CTX_OPEN, np.array([[2.27, 0.0]]), config)[4]
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
            closest = min(points_segment_distance(pts, Segment(user.position, cand)).min() for _, pts in trajs)
            assert outgroup == pytest.approx(comfort_from_distance(np.array([closest]))[0], abs=1e-9)

    def test_ingroup_matches_comfort_module(self):
        # the vectorized bands agree with the arrangement a plan is built on
        rng = random.Random(103)
        user = Pose(Vec2(0, 0), 1.0)
        for _ in range(100):
            cand = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if cand == user.position:
                continue
            _, ingroup, *_, arrangement = score_candidates(
                rows(cand), user, Vec2(1.0, 0.0), CTX_OPEN, np.empty((0, 2)), CONFIG
            )
            ingroup, arrangement = float(ingroup[0]), arrangement[0]
            assert ingroup == (0.0 if arrangement == -1 else context_preference(CTX_OPEN, arrangement))
            assert ingroup == oracle_ingroup(cand, user, CTX_OPEN, CONFIG)


def old_form_scores(candidates, user, current_vh, context, points, config):
    """The first five arrays of `score_candidates`, with the approach distances
    from the out-of-place oracle. In-group and move come from a call with no
    samples, which never enters the approach block."""
    _, ingroup, _, move, *_ = score_candidates(candidates, user, current_vh, context, np.empty((0, 2)), config)
    radius = config.territory_radius + config.planning_margin
    approach = oracle_approach(candidates, user, points, max(SATURATION_DISTANCE_M, radius))
    outgroup = comfort_from_distance(approach)
    utility = (ingroup + config.coefficient_c * outgroup) / (1.0 + move * config.coefficient_d)
    return utility, ingroup, outgroup, move, approach


def assert_bitwise(actual, expected):
    for name, a, e in zip(("utility", "ingroup", "outgroup", "move", "approach"), actual, expected):
        assert a.dtype == e.dtype == np.float64 and a.shape == e.shape, name
        assert np.array_equal(a.view(np.uint64), e.view(np.uint64)), name


class TestScoreKernelExact:
    """The blocked in-place approach kernel gives the out-of-place form's
    outputs bit for bit, whatever the block size: every cell sees the same
    IEEE operations in the same order, and the running minimum is exact."""

    @pytest.mark.parametrize("environment", ["square20", "passage"])
    def test_every_call_of_a_trial(self, environment, monkeypatch):
        calls = []

        def recording(*args):
            out = score_candidates(*args)
            calls.append((tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args), out))
            return out

        monkeypatch.setattr(planner_module, "score_candidates", recording)
        cfg = ScenarioConfig(environment=environment, density=0.25, condition="proposed", duration=120.0, seed=1)
        run_trial(cfg)
        assert len(calls) >= 20
        assert sum(np.isfinite(out[4]).all() for _, out in calls) >= 20
        for args, out in calls:
            expected = old_form_scores(*args)
            assert_bitwise(out, expected)
            # the trial scored with the default block; again with blocks of
            # one sample and of seven
            for rows in (1, 7):
                monkeypatch.setattr(planner_module, "BLOCK_CELLS", rows * len(args[0]))
                assert_bitwise(score_candidates(*args), expected)

    def hand_call(self, candidates, points, config=CONFIG, user=Pose(Vec2(0, 0), 0.3)):
        candidates = np.asarray(candidates, float)
        points = np.asarray(points, float).reshape(-1, 2)
        current = Vec2(*candidates[-1])
        args = (candidates, user, current, CTX_OPEN, points, config)
        out = score_candidates(*args)
        assert_bitwise(out, old_form_scores(*args))
        return out

    def test_no_sample_within_cutoff(self):
        _, _, outgroup, _, approach, *_ = self.hand_call([(1.0, 0.0), (0.0, 1.2)], [(9.0, 9.0), (-8.0, 7.5)])
        assert np.isinf(approach).all() and (outgroup == 1.0).all()

    def test_single_sample(self):
        approach = self.hand_call([(1.0, 0.0), (0.6, 0.9), (-1.3, 0.2)], [(0.7, 0.4)])[4]
        assert np.isfinite(approach).all()

    @pytest.mark.parametrize("extra", [0, 1], ids=["one_block", "one_block_plus_one"])
    def test_block_edges(self, extra):
        # every sample is kept, so the kernel sees exactly one full block,
        # then one full block and a block of one sample
        user = Pose(Vec2(10.0, 10.0), 0.0)
        candidates = generate_candidates(user, Vec2(10.0, 11.5), SQUARE20)
        rows = planner_module.BLOCK_CELLS // len(candidates)
        points = np.random.default_rng(7 + extra).uniform(9.0, 11.0, (rows + extra, 2))
        approach = self.hand_call(candidates, points, user=user)[4]
        assert np.isfinite(approach).all()

    def test_criterion_4b_grid(self):
        # 2 401 candidates: four samples a block, the last block partial
        user = Pose(Vec2(10.0, 10.0), 0.0)
        fine = replace(SQUARE20, candidate_radial_step=0.0375, candidate_angular_step=3.75)
        candidates = generate_candidates(user, Vec2(10.0, 11.5), fine)
        assert len(candidates) == 2401
        points = np.random.default_rng(13).uniform(7.5, 12.5, (50, 2))
        approach = self.hand_call(candidates, points, fine, user)[4]
        assert np.isfinite(approach).all()

    def test_candidate_at_user_hits_zero_length_guard(self):
        points = np.random.default_rng(5).uniform(-1.5, 1.5, (40, 2))
        approach = self.hand_call([(0.9, -0.4), (0.0, 0.0)], points)[4]
        # a zero-length segment is the user's point itself
        assert approach[1] == np.sqrt((points[:, 0] ** 2 + points[:, 1] ** 2).min())

    def test_trigger_radius_beyond_saturation(self):
        rng = np.random.default_rng(11)
        config = replace(CONFIG, planning_margin=2.0 * SATURATION_DISTANCE_M - CONFIG.territory_radius)
        points = rng.uniform(-3.5, 3.5, (300, 2))
        approach = self.hand_call([(1.2, 0.3), (-0.5, 1.0), (0.75, -0.75)], points, config)[4]
        assert np.isfinite(approach).all()


def score_peak(cells):
    """The traced allocation peak, in bytes, of scoring the default grid
    against about `cells` / 169 kept samples."""
    user = Pose(Vec2(10.0, 10.0), 0.0)
    candidates = generate_candidates(user, Vec2(10.0, 11.5), SQUARE20)
    samples = -(-cells // len(candidates))
    points = np.random.default_rng(3).uniform(8.5, 11.5, (samples, 2))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        approach = score_candidates(candidates, user, Vec2(10.0, 11.5), CTX_OPEN, points, CONFIG)[4]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.isfinite(approach).all()
    return samples, peak


class TestScoreMemory:
    # ROADMAP robustness: the scorer holds two blocks of about BLOCK_CELLS
    # cells plus arrays of one value a sample, never the samples x candidates
    # product, which is 8 MB at 10^6 cells
    def test_peak_under_one_megabyte_at_a_million_cells(self):
        assert score_peak(1_000_000)[1] < 1_000_000

    def test_peak_grows_by_the_per_sample_arrays_only(self):
        small, small_peak = score_peak(100_000)
        large, large_peak = score_peak(1_000_000)
        # a handful of float64 a sample, far below the 169 a sample of one
        # samples x candidates array
        assert large_peak - small_peak <= 8 * 8 * (large - small)


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


def plan_to(target, orientation=0.0):
    """A running plan toward the given pose; `step_plan` reads only that pose."""
    one = np.zeros(1)
    return Decision(CTX_OPEN, rows(target), one, one, one, one, one, one, np.array([-1]), np.zeros(1, int), 0,
                    target, orientation)


class TestStepPlan:
    def test_arrives_within_one_tick(self):
        plan = plan_to(Vec2(0.15, 0.0))
        vh = Pose(Vec2(0, 0), 0.0)
        new_plan, new_vh = step_plan(plan, vh, CONFIG)
        assert new_vh.position == Vec2(0.15, 0.0)
        assert new_plan is None

    def test_moves_exactly_speed_limit(self):
        plan = plan_to(Vec2(3.0, 0.0))
        vh = Pose(Vec2(0, 0), 0.0)
        _, new_vh = step_plan(plan, vh, CONFIG)
        assert new_vh.position.x == pytest.approx(0.15)
        assert new_vh.position.y == 0.0

    def test_stable_is_identity(self):
        vh = Pose(Vec2(1, 2), 0.7)
        new_plan, new_vh = step_plan(None, vh, CONFIG)
        assert new_plan is None and new_vh is vh

    def test_rotation_rate_limited(self):
        plan = plan_to(Vec2(0.0, 0.0), orientation=math.pi)
        vh = Pose(Vec2(0, 0), 0.0)
        _, new_vh = step_plan(plan, vh, CONFIG)
        assert new_vh.orientation == pytest.approx(math.radians(18.0))

    def test_never_exceeds_max_speed(self):
        rng = random.Random(127)
        for _ in range(100):
            target = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            vh = Pose(Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 6.28))
            plan = plan_to(target, orientation=rng.uniform(0, 6.28))
            dt = rng.choice([0.05, 0.1, 0.2])
            _, new_vh = step_plan(plan, vh, replace(CONFIG, dt=dt))
            moved = new_vh.position.distance_to(vh.position)
            assert moved <= CONFIG.vh_max_speed * dt + 1e-9


def build_snapshot(user, vh, trajectories, pedestrians=None):
    return PlanningSnapshot(user, vh, positions_of(pedestrians or []), cloud(*trajectories))


class TestPlanIfNeeded:
    def setup_method(self):
        self.user = Pose(Vec2(10, 9.25), math.pi / 2)
        self.vh = Pose(Vec2(10, 10.75), 1.5 * math.pi)

    def test_no_conflict_stays_stable(self):
        snap = build_snapshot(self.user, self.vh, [])
        plan, decision = plan_if_needed(snap, None, SQUARE20)
        assert plan is None and decision is None

    def test_conflict_elsewhere_adjusts(self):
        # a pedestrian will walk straight through the current agent position
        t = straight_traj((6.0, 10.75), (1.4, 0.0), n=80, pid=5)
        snap = build_snapshot(self.user, self.vh, [t])
        plan, decision = plan_if_needed(snap, None, SQUARE20)
        assert plan is decision is not None
        assert decision.move[decision.winner] > 0.0
        # the chosen target is itself clear of the predicted path
        d = distance_point_segment(
            decision.target_position, Segment(Vec2(6.0, 10.75), Vec2(6.0 + 1.4 * 7.9, 10.75))
        )
        seg_clear = detect_potential_conflict(
            Segment(self.user.position, decision.target_position), cloud(t),
            SQUARE20.territory_radius + SQUARE20.planning_margin,
        )
        assert seg_clear is False

    def test_winner_arrangement_is_the_one_scored_on_a_band_edge(self):
        # the winner lies at alpha = 60 degrees, the closed band's edge, where
        # recomputing the user's angle from the target by another formula
        # lands an ulp past the edge and would give an L-shaped plan scored
        # as closed
        user = Pose(Vec2(9.0, 10.0), math.radians(30.0))
        vh = Pose(Vec2(10.0, 11.0), 0.0)
        snap = build_snapshot(user, vh, [traj([(9.5, 10.5)])])
        _, plan = plan_if_needed(snap, None, SQUARE20)
        arrangement, ingroup = plan.arrangement[plan.winner], plan.ingroup[plan.winner]
        assert relative_angles(user, Pose(plan.target_position, 0.0)).alpha == pytest.approx(60.0, abs=1e-9)
        assert (arrangement == -1) == (ingroup == 0.0)
        assert context_preference(CTX_OPEN, arrangement) == ingroup

    def oracle_target(self, trajectories):
        """The oracle's pick for this scene and its utility."""
        dyad = Segment(self.user.position, self.vh.position)
        ctx = classify_spatial_context(dyad, positions_of([]), SQUARE20)
        cands = [Vec2(*c) for c in generate_candidates(self.user, self.vh.position, SQUARE20).tolist()]
        paths = cloud(*trajectories)
        i = oracle_decision(cands, self.user, self.vh.position, ctx, paths, SQUARE20)
        return cands[i], oracle_utility(cands[i], self.user, self.vh.position, ctx, paths, SQUARE20)

    def test_decision_matches_hand_scored_candidates(self):
        # safe branch: some candidates clear the pedestrian's path
        t = straight_traj((6.0, 10.75), (1.4, 0.0), n=80, pid=5)
        snap = build_snapshot(self.user, self.vh, [t])
        _, decision = plan_if_needed(snap, None, SQUARE20)
        target, utility = self.oracle_target([t])
        assert decision.target_position == target
        assert decision.utility[decision.winner] == pytest.approx(utility, abs=1e-9)

    def test_cornered_holds_above_rest_margin(self):
        # a path 0.45 m below the user reaches every candidate segment, so
        # none is safe; another 0.32 m above the agent puts holding still
        # outside the best-clearance band but within territory - rest margin
        below = straight_traj((6.0, 8.80), (1.4, 0.0), n=80, pid=1)
        above = straight_traj((6.0, 11.07), (1.4, 0.0), n=80, pid=2)
        snap = build_snapshot(self.user, self.vh, [below, above])
        plan, decision = plan_if_needed(snap, None, SQUARE20)
        target, utility = self.oracle_target([below, above])
        assert decision.target_position == target
        assert decision.utility[decision.winner] == pytest.approx(utility, abs=1e-9)
        assert plan is None and decision.move[decision.winner] == 0.0

    def test_cornered_forced_below_rest_margin(self):
        # as above, but the path 0.20 m above the agent cuts deeper than the
        # rest margin into the territory, so holding still is dropped
        below = straight_traj((6.0, 8.80), (1.4, 0.0), n=80, pid=1)
        above = straight_traj((6.0, 10.95), (1.4, 0.0), n=80, pid=2)
        snap = build_snapshot(self.user, self.vh, [below, above])
        plan, decision = plan_if_needed(snap, None, SQUARE20)
        target, utility = self.oracle_target([below, above])
        assert decision.target_position == target
        assert decision.utility[decision.winner] == pytest.approx(utility, abs=1e-9)
        assert plan is decision and decision.move[decision.winner] > 0.0

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
        snap = build_snapshot(self.user, self.vh, arcs)
        _, decision = plan_if_needed(snap, None, SQUARE20)
        target, utility = self.oracle_target(arcs)
        assert decision.target_position == target
        assert decision.utility[decision.winner] == pytest.approx(utility, abs=1e-9)
        assert (float(decision.move[decision.winner]) == 0.0) is holds

    def test_hold_when_outgroup_ignored(self):
        # with zero out-group weight the plain argmax keeps the agent stable
        t = straight_traj((6.0, 10.75), (1.4, 0.0), n=80, pid=5)
        snap = build_snapshot(self.user, self.vh, [t])
        config = replace(SQUARE20, coefficient_c=0.0, coefficient_d=0.5)
        plan, decision = plan_if_needed(snap, None, config)
        assert plan is None
        assert decision is not None and decision.move[decision.winner] == 0.0

    def test_keeps_clean_active_plan(self):
        t = straight_traj((6.0, 10.75), (1.4, 0.0), n=80, pid=5)
        snap = build_snapshot(self.user, self.vh, [t])
        plan, decision = plan_if_needed(snap, None, SQUARE20)
        assert plan is decision is not None
        again, decision2 = plan_if_needed(snap, plan, SQUARE20)
        assert again is plan and decision2 is None


class TestSearchOnRandomScenes:
    def test_pruned_winner_matches_oracle(self):
        # the acceptance suite's scene generator, other seeds: the pruned
        # winner and its utility against the scalar decision rule
        rng = random.Random(7)
        for _ in range(30):
            snap, context = random_scene(rng, SQUARE20)
            decision = search(snap, context, SQUARE20)
            cands = [Vec2(*c) for c in decision.candidates.tolist()]
            args = (snap.user, snap.vh.position, context, snap.trajectories, SQUARE20)
            assert decision.winner == oracle_decision(cands, *args)
            assert decision.utility[decision.winner] == pytest.approx(
                oracle_utility(cands[decision.winner], *args), abs=1e-9
            )


class TestPlannerLoop:
    def test_never_leaves_stable_without_pedestrians(self):
        planner = ConflictAvoidancePlanner(CONFIG)
        user = Pose(Vec2(6, 5.25), math.pi / 2)
        vh = Pose(Vec2(6, 6.75), 1.5 * math.pi)
        start = vh
        for k in range(100):
            vh = planner.update(k * 0.1, user, vh, crowd_of([]))
            assert planner.plan is None
        assert vh.position == start.position

    def test_chosen_plan_prefers_formation_when_clean(self):
        # a candidate with positive in-group and out-group should beat every
        # no-formation candidate whenever its utility is higher
        rng = random.Random(131)
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
            d = search(build_snapshot(user, vh, trajs), CTX_OPEN, SQUARE20)
            utility, ingroup, outgroup = d.utility, d.ingroup, d.outgroup
            winner = _argbest(utility, d.move)
            zero_in_max = utility[ingroup == 0.0].max(initial=0.0)
            if ((ingroup > 0) & (outgroup > 0) & (utility > zero_in_max)).any():
                assert ingroup[winner] > 0.0


class TestMakeSnapshot:
    def test_only_anticipated_predicted(self):
        user = Pose(Vec2(10, 9.25), math.pi / 2)
        vh = Pose(Vec2(10, 10.75), 1.5 * math.pi)
        near = PedestrianState(0, Vec2(12, 10), Vec2(-1, 0), Vec2(0, 10), 1.0)
        far = PedestrianState(1, Vec2(19, 19), Vec2(-1, 0), Vec2(0, 19), 1.0)
        snap = make_snapshot(user, vh, crowd_of([near, far]), CONFIG)
        assert [int(t.ids[0]) for t in snap.trajectories] == [0]

    def test_shared_sample_grid(self):
        user = Pose(Vec2(10, 9.25), math.pi / 2)
        vh = Pose(Vec2(10, 10.75), 1.5 * math.pi)
        peds = [
            PedestrianState(0, Vec2(12, 10), Vec2(-1.2, 0), Vec2(0, 10), 1.2),
            PedestrianState(1, Vec2(8, 12), Vec2(0.5, -1.0), Vec2(12, 0), 1.118),
        ]
        snap = make_snapshot(user, vh, crowd_of(peds), CONFIG)
        assert snap.trajectories.ids.size == 2
        t0, t1 = snap.trajectories
        assert t0.points.shape == t1.points.shape
