import hashlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from vhsim.geometry import Pose, Segment, Vec2, open_square
from vhsim.prediction import AvoidanceParams, PedestrianState, Phase
from vhsim.simulation import (
    ConflictKind,
    ScenarioConfig,
    detect_events,
    reduction_ratio,
    run_trial,
    spawn_flow,
    step_pedestrian,
    step_user,
)

AVOID = AvoidanceParams()


def make_ped(pos, goal, speed=1.0, pid=0, phase=Phase.DIRECT, waypoint=None):
    d = Vec2(*goal) - Vec2(*pos)
    n = d.norm()
    vel = d * (speed / n) if n > 0 else Vec2(0.0, 0.0)
    return PedestrianState(
        id=pid, position=Vec2(*pos), velocity=vel, goal=Vec2(*goal),
        preferred_speed=speed, phase=phase, waypoint=waypoint,
    )


class TestSpawnFlow:
    def test_quarter_density_square12(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, seed=1)
        assert len(spawn_flow(cfg)) == 36

    def test_low_density_square20(self):
        cfg = ScenarioConfig(environment="square20", density=0.05, seed=1)
        assert len(spawn_flow(cfg)) == 20

    def test_zero_density(self):
        cfg = ScenarioConfig(environment="square12", density=0.0, seed=1)
        assert spawn_flow(cfg) == []

    def test_spawn_respects_exclusion_and_bounds(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, seed=3)
        env = cfg.build_environment()
        user, vh = cfg.initial_poses(env)
        dyad = Segment(user.position, vh.position)
        from vhsim.geometry import distance_point_segment

        for ped in spawn_flow(cfg):
            assert env.contains(ped.position)
            assert distance_point_segment(ped.position, dyad) >= cfg.spawn_exclusion - 1e-9
            assert cfg.speed_min <= ped.preferred_speed <= cfg.speed_max
            boxes = env.goal_boxes_top + env.goal_boxes_bottom
            assert any(b.contains(ped.goal) for b in boxes)

    def test_same_seed_same_population(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, seed=9)
        a = spawn_flow(cfg)
        b = spawn_flow(cfg)
        assert a == b

    def test_ids_independent_of_spawn_order(self):
        # per-pedestrian streams: pedestrian 5 is identical no matter how many
        # others spawn, as long as the scenario seed matches
        cfg_small = ScenarioConfig(environment="square12", density=0.05, seed=4)
        cfg_large = ScenarioConfig(environment="square12", density=0.25, seed=4)
        small = spawn_flow(cfg_small)
        large = spawn_flow(cfg_large)
        for a, b in zip(small, large):
            assert a == b


class TestStepPedestrian:
    def test_straight_walk(self):
        ped = make_ped((0, 0), (10, 0), speed=1.2)
        out = step_pedestrian(ped, Vec2(50, 50), 0.1, AVOID)
        assert out.position.x == pytest.approx(0.12)
        assert out.position.y == pytest.approx(0.0)
        assert out.phase is Phase.DIRECT

    def test_head_on_keeps_clearance(self):
        ped = make_ped((-6, 0.03), (8, 0.03), speed=1.4)
        user = Vec2(0, 0)
        min_d = math.inf
        for _ in range(100):
            ped = step_pedestrian(ped, user, 0.1, AVOID)
            min_d = min(min_d, ped.position.distance_to(user))
        assert min_d == pytest.approx(AVOID.min_avoidance, abs=1.4 * 0.1)

    def test_phase_cycle(self):
        ped = make_ped((-4, 0.0), (8, 0.0), speed=1.5)
        user = Vec2(0, 0)
        seen = [ped.phase]
        for _ in range(90):
            ped = step_pedestrian(ped, user, 0.1, AVOID)
            if ped.phase is not seen[-1]:
                seen.append(ped.phase)
        assert seen == [Phase.DIRECT, Phase.AVOIDING, Phase.RETURNING, Phase.DIRECT]

    def test_transitions_only_legal(self):
        legal = {
            (Phase.DIRECT, Phase.AVOIDING),
            (Phase.AVOIDING, Phase.RETURNING),
            (Phase.RETURNING, Phase.DIRECT),
        }
        ped = make_ped((-5, 0.1), (8, -0.2), speed=1.3)
        user = Vec2(0, 0)
        for _ in range(120):
            nxt = step_pedestrian(ped, user, 0.1, AVOID)
            if nxt.phase is not ped.phase:
                assert (ped.phase, nxt.phase) in legal
            ped = nxt

    def test_speed_is_constant(self):
        # displacement equals speed*dt except on path-bend ticks, where the
        # straight-line distance between samples is shorter than the arc
        ped = make_ped((-4, 0.0), (8, 0.0), speed=1.5)
        user = Vec2(0, 0)
        prev = ped.position
        short_ticks = 0
        for _ in range(60):
            ped = step_pedestrian(ped, user, 0.1, AVOID)
            step = ped.position.distance_to(prev)
            assert step <= 0.15 + 1e-9
            if step < 0.15 - 1e-6:
                short_ticks += 1
            prev = ped.position
        assert short_ticks <= 2

    def test_ignores_far_user(self):
        ped = make_ped((0, 0), (10, 0), speed=1.0)
        near = step_pedestrian(ped, Vec2(5, 4), 0.1, AVOID)
        far = step_pedestrian(ped, Vec2(50, 50), 0.1, AVOID)
        assert near.position == far.position

    def test_arrives_at_goal(self):
        ped = make_ped((0, 0), (0.25, 0), speed=1.0)
        out = step_pedestrian(ped, Vec2(50, 50), 0.5, AVOID)
        assert out.position == Vec2(0.25, 0.0)


class TestStepUser:
    def test_converges_to_face_agent(self):
        user = Pose(Vec2(0, 0), 0.0)
        vh = Pose(Vec2(0, 2), 0.0)
        for _ in range(30):
            user = step_user(user, vh, 0.1)
        assert user.orientation == pytest.approx(math.pi / 2, abs=1e-9)

    def test_rate_limited(self):
        user = Pose(Vec2(0, 0), 0.0)
        vh = Pose(Vec2(-2, 0), 0.0)  # target bearing pi
        stepped = step_user(user, vh, 0.1, turn_rate_deg=90.0)
        assert stepped.orientation == pytest.approx(math.radians(9.0))

    def test_zero_dt_identity(self):
        user = Pose(Vec2(0, 0), 1.0)
        vh = Pose(Vec2(5, 5), 0.0)
        assert step_user(user, vh, 0.0) == user

    def test_position_fixed(self):
        user = Pose(Vec2(3, 4), 0.5)
        vh = Pose(Vec2(9, -2), 0.0)
        assert step_user(user, vh, 0.1).position == Vec2(3, 4)


class TestDetectEvents:
    # pedestrians are rows of an (n, 2) position array; row i is pedestrian i
    def setup_method(self):
        self.dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        self.vh = Vec2(0, 1.5)

    def _run(self, positions, flags=None):
        pts = np.array(positions, float).reshape(-1, 2)
        n = len(pts)
        t_flags = np.zeros(n, bool) if flags is None else flags[0]
        b_flags = np.zeros(n, bool) if flags is None else flags[1]
        return detect_events(pts, self.dyad, self.vh, t_flags, b_flags, 0.45, 0.4, 1.0)

    def test_crossing_between_gives_social_only(self):
        events, t_f, b_f = self._run([(0.2, 0.75)])
        kinds = [e.kind for e in events]
        assert kinds == [ConflictKind.SOCIAL]

    def test_through_agent_body_gives_both(self):
        events, _, _ = self._run([(0.05, 1.45)])
        kinds = sorted(e.kind.value for e in events)
        assert kinds == ["physicality", "social"]

    def test_grazing_outside_radius(self):
        events, _, _ = self._run([(0.55, 0.75)])
        assert events == []

    def test_event_ids_are_row_indices(self):
        events, _, _ = self._run([(5.0, 5.0), (0.2, 0.75), (5.0, 6.0), (0.05, 1.45)])
        assert [(e.kind.value, e.pedestrian_id) for e in events] == [
            ("social", 1), ("social", 3), ("physicality", 3),
        ]

    def test_edge_triggered_once(self):
        pts = np.array([(0.1, 0.75)])
        t_flags = np.zeros(1, bool)
        b_flags = np.zeros(1, bool)
        total = 0
        for k in range(5):  # dwell inside for 5 ticks
            events, t_flags, b_flags = detect_events(
                pts, self.dyad, self.vh, t_flags, b_flags, 0.45, 0.4, k * 0.1
            )
            total += len(events)
        assert total == 1

    def test_reentry_triggers_again(self):
        ped_in = np.array([(0.1, 0.75)])
        ped_out = np.array([(3.0, 0.75)])
        t_flags = np.zeros(1, bool)
        b_flags = np.zeros(1, bool)
        count = 0
        for pts in (ped_in, ped_out, ped_in):
            events, t_flags, b_flags = detect_events(
                pts, self.dyad, self.vh, t_flags, b_flags, 0.45, 0.4, 0.0
            )
            count += sum(1 for e in events if e.kind is ConflictKind.SOCIAL)
        assert count == 2

    def test_empty_scene(self):
        events, t_f, b_f = detect_events(
            np.zeros((0, 2)), self.dyad, self.vh, np.zeros(0, bool), np.zeros(0, bool), 0.45, 0.4, 0.0
        )
        assert events == []


class TestRunTrial:
    def test_zero_density_is_quiet(self):
        cfg = ScenarioConfig(environment="square12", density=0.0, duration=20.0, condition="proposed")
        m = run_trial(cfg)
        assert m.social_conflicts == 0
        assert m.physicality_conflicts == 0
        assert m.stable_percentage == pytest.approx(1.0)

    def test_none_condition_accumulates_conflicts(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, duration=120.0, seed=1, condition="none")
        m = run_trial(cfg)
        assert m.physicality_conflicts > 0
        assert m.social_conflicts >= m.physicality_conflicts // 2
        assert m.stable_percentage == pytest.approx(1.0)  # static agent never adjusts

    def test_determinism(self):
        cfg = ScenarioConfig(environment="square12", density=0.15, duration=60.0, seed=5, condition="proposed")
        assert run_trial(cfg) == run_trial(cfg)

    def test_zero_density_conditions_agree(self):
        base = ScenarioConfig(environment="square12", density=0.0, duration=30.0, seed=2)
        m_none = run_trial(replace(base, condition="none"))
        m_prop = run_trial(replace(base, condition="proposed"))
        assert m_none.social_conflicts == m_prop.social_conflicts == 0
        assert m_none.stable_percentage == m_prop.stable_percentage

    def test_timers_sum_to_duration(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, duration=60.0, seed=7, condition="proposed")
        m = run_trial(cfg)
        assert m.stable_time + m.adjusting_time == pytest.approx(m.duration, abs=cfg.dt)

    def test_pedestrian_count_conserved(self):
        cfg = ScenarioConfig(environment="square12", density=0.1, duration=15.0, seed=3, condition="none")
        buf = io.StringIO()
        run_trial(cfg, trace=buf)
        lines = buf.getvalue().strip().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == "vhsim-trace/1"
        counts = {len(json.loads(line)["peds"]) for line in lines[1:]}
        assert counts == {14}  # 0.1 * 144 rounded

    def test_proposed_reduces_conflicts(self):
        base = ScenarioConfig(environment="square12", density=0.25, duration=120.0, seed=1)
        m_none = run_trial(replace(base, condition="none"))
        m_prop = run_trial(replace(base, condition="proposed"))
        assert m_prop.social_conflicts < m_none.social_conflicts
        assert m_prop.physicality_conflicts < m_none.physicality_conflicts

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            run_trial(ScenarioConfig(density=-1.0))


class TestPassThrough:
    def test_pedestrian_walks_through_static_agent(self):
        # under condition none the agent has no collider for pedestrians
        cfg = ScenarioConfig(environment="square12", density=0.0, duration=1.0, condition="none")
        env = cfg.build_environment()
        user, vh = cfg.initial_poses(env)
        ped = make_ped((vh.position.x - 3.0, vh.position.y), (vh.position.x + 4.0, vh.position.y), speed=1.5)
        closest = math.inf
        for _ in range(50):
            ped = step_pedestrian(ped, user.position, 0.1, AVOID)
            closest = min(closest, ped.position.distance_to(vh.position))
        assert closest < cfg.body_radius  # occupies the agent's space


class TestReductionRatio:
    def test_full_reduction(self):
        assert reduction_ratio(86, 0) == pytest.approx(1.0)

    def test_partial_reduction(self):
        assert reduction_ratio(522, 104) == pytest.approx(0.8008, abs=1e-4)

    def test_no_reduction(self):
        assert reduction_ratio(37, 37) == 0.0

    def test_undefined_when_no_baseline(self):
        assert reduction_ratio(0, 0) is None
        assert reduction_ratio(0, 5) is None


class TestScenarioConfig:
    def test_environment_presets(self):
        assert ScenarioConfig(environment="square12").build_environment().width == 12.0
        assert ScenarioConfig(environment="square20").build_environment().width == 20.0
        passage = ScenarioConfig(environment="passage").build_environment()
        assert (passage.width, passage.height) == (3.0, 20.0)
        assert len(passage.walls) == 2

    def test_custom_environment(self):
        cfg = ScenarioConfig(environment="custom", env_width=8.0, env_height=15.0)
        env = cfg.build_environment()
        assert (env.width, env.height) == (8.0, 15.0)
        assert env.walls == []
        square = ScenarioConfig(environment="custom", env_width=12.0, env_height=12.0)
        assert square.build_environment() == open_square(12.0)
        walled = ScenarioConfig(environment="custom", env_width=4.0, env_height=15.0, env_side_walls=True)
        assert len(walled.build_environment().walls) == 2

    def test_initial_poses_face_each_other(self):
        cfg = ScenarioConfig(environment="square12")
        env = cfg.build_environment()
        user, vh = cfg.initial_poses(env)
        assert user.position.distance_to(vh.position) == pytest.approx(cfg.interpersonal_distance)
        from vhsim.proxemics import relative_angles

        angles = relative_angles(user, vh)
        assert angles.alpha == pytest.approx(0.0, abs=1e-9)
        assert angles.beta == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("density", -1.0),
            ("duration", 0.0),
            ("duration", 0.04),
            ("dt", 0.0),
            ("speed_min", 0.0),
            ("condition", "sometimes"),
            ("environment", "mars"),
            ("min_avoidance_distance", 3.0),
            ("candidate_angular_step", 0.0),
            ("candidate_radial_step", 0.0),
            ("seed", -1),
            ("seed", 2**64),
            ("seed", True),
            pytest.param("density", 10**400, id="density-10**400"),
            ("env_side_walls", "yes"),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            replace(ScenarioConfig(), **{field: value})


class TestGoldenTrials:
    """Every metric and the trace digest of two 60 s proposed trials at seed 1
    and density 0.25, compared exactly: a change that moves any of them
    changes the simulated model, its arithmetic or the trace format."""

    GOLDEN = {
        "square20": (
            dict(
                social_conflicts=1, physicality_conflicts=1,
                stable_time=53.60000000000049, adjusting_time=6.399999999999993,
                stable_percentage=0.8933333333333415, duration=60.0,
                mean_ingroup=0.8076923076923077, decision_count=104,
            ),
            [("social", 26.400000000000002, 81), ("physicality", 26.400000000000002, 81)],
            "d69dd8671386a3c4605e26438dac4e7d3f07a790f071ad217f895b257782260c",
        ),
        "passage": (
            dict(
                social_conflicts=0, physicality_conflicts=0,
                stable_time=55.10000000000051, adjusting_time=4.899999999999999,
                stable_percentage=0.9183333333333419, duration=60.0,
                mean_ingroup=0.9193548387096774, decision_count=62,
            ),
            [],
            "cf232cfdedd8a214ddd8c5a5cdc5b772ab3acbf1b86230378bcbd7568dc79783",
        ),
    }

    @pytest.mark.parametrize("environment", sorted(GOLDEN))
    def test_pinned_metrics_and_trace(self, environment):
        fields, events, trace_sha = self.GOLDEN[environment]
        cfg = ScenarioConfig(environment=environment, density=0.25, condition="proposed", duration=60.0, seed=1)
        trace = io.StringIO()
        metrics = run_trial(cfg, trace=trace)
        assert {name: getattr(metrics, name) for name in fields} == fields
        assert [(e.kind.value, e.time, e.pedestrian_id) for e in metrics.events] == events
        assert hashlib.sha256(trace.getvalue().encode()).hexdigest() == trace_sha
