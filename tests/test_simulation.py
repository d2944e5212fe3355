import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crowds import PedestrianState, states_of, step_state
from oracles import goal_boxes, inside, relative_angles
from vhsim import simulation
from vhsim.geometry import Environment, Pose, Segment, Vec2, points_segment_distance
from vhsim.planner import generate_candidates
from vhsim.proxemics import Definiteness, classify_spatial_context
from vhsim.prediction import Phase
from vhsim.simulation import (
    EVENT_KINDS,
    ScenarioConfig,
    detect_events,
    reduction_ratio,
    run_trial,
    spawn_flow,
    step_user,
)

CONFIG = ScenarioConfig()


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
        assert len(spawn_flow(cfg)) == 0

    def test_spawn_respects_exclusion_and_bounds(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, seed=3)
        env = cfg.build_environment()
        user, vh = cfg.initial_poses()
        dyad = Segment(user.position, vh.position)
        from vhsim.geometry import distance_point_segment

        for ped in states_of(spawn_flow(cfg)):
            assert inside(env, ped.position)
            assert distance_point_segment(ped.position, dyad) >= cfg.spawn_exclusion - 1e-9
            assert cfg.speed_min <= ped.preferred_speed <= cfg.speed_max
            boxes = goal_boxes(env, 0) + goal_boxes(env, 1)
            assert any(x_min <= ped.goal.x <= x_max and y_min <= ped.goal.y <= y_max
                       for x_min, y_min, x_max, y_max in boxes)

    def test_same_seed_same_population(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, seed=9)
        a = states_of(spawn_flow(cfg))
        b = states_of(spawn_flow(cfg))
        assert a == b

    def test_ids_independent_of_spawn_order(self):
        # per-pedestrian streams: pedestrian 5 is identical no matter how many
        # others spawn, as long as the scenario seed matches
        cfg_small = ScenarioConfig(environment="square12", density=0.05, seed=4)
        cfg_large = ScenarioConfig(environment="square12", density=0.25, seed=4)
        small = states_of(spawn_flow(cfg_small))
        large = states_of(spawn_flow(cfg_large))
        for a, b in zip(small, large):
            assert a == b


class TestStepPedestrian:
    def test_straight_walk(self):
        ped = make_ped((0, 0), (10, 0), speed=1.2)
        out = step_state(ped, Vec2(50, 50), CONFIG)
        assert out.position.x == pytest.approx(0.12)
        assert out.position.y == pytest.approx(0.0)
        assert out.phase is Phase.DIRECT

    def test_head_on_keeps_clearance(self):
        ped = make_ped((-6, 0.03), (8, 0.03), speed=1.4)
        user = Vec2(0, 0)
        min_d = math.inf
        for _ in range(100):
            ped = step_state(ped, user, CONFIG)
            min_d = min(min_d, ped.position.distance_to(user))
        assert min_d == pytest.approx(CONFIG.min_avoidance_distance, abs=1.4 * 0.1)

    def test_phase_cycle(self):
        ped = make_ped((-4, 0.0), (8, 0.0), speed=1.5)
        user = Vec2(0, 0)
        seen = [ped.phase]
        for _ in range(90):
            ped = step_state(ped, user, CONFIG)
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
            nxt = step_state(ped, user, CONFIG)
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
            ped = step_state(ped, user, CONFIG)
            step = ped.position.distance_to(prev)
            assert step <= 0.15 + 1e-9
            if step < 0.15 - 1e-6:
                short_ticks += 1
            prev = ped.position
        assert short_ticks <= 2

    def test_ignores_far_user(self):
        ped = make_ped((0, 0), (10, 0), speed=1.0)
        near = step_state(ped, Vec2(5, 4), CONFIG)
        far = step_state(ped, Vec2(50, 50), CONFIG)
        assert near.position == far.position

    def test_arrives_at_goal(self):
        ped = make_ped((0, 0), (0.25, 0), speed=1.0)
        out = step_state(ped, Vec2(50, 50), replace(CONFIG, dt=0.5))
        assert out.position == Vec2(0.25, 0.0)


class TestStepUser:
    def test_converges_to_face_agent(self):
        user = Pose(Vec2(0, 0), 0.0)
        vh = Pose(Vec2(0, 2), 0.0)
        for _ in range(30):
            user = step_user(user, vh, CONFIG)
        assert user.orientation == pytest.approx(math.pi / 2, abs=1e-9)

    def test_rate_limited(self):
        user = Pose(Vec2(0, 0), 0.0)
        vh = Pose(Vec2(-2, 0), 0.0)  # target bearing pi
        stepped = step_user(user, vh, CONFIG)
        assert stepped.orientation == pytest.approx(math.radians(9.0))

    def test_position_fixed(self):
        user = Pose(Vec2(3, 4), 0.5)
        vh = Pose(Vec2(9, -2), 0.0)
        assert step_user(user, vh, CONFIG).position == Vec2(3, 4)


class TestDetectEvents:
    # a block is a (K, n, 2) position array; column i is pedestrian i
    USER, VH = (0.0, 0.0), (0.0, 1.5)

    def _block(self, ticks, flags=None):
        pts = np.array(ticks, float).reshape(len(ticks), -1, 2)
        k, n = pts.shape[:2]
        t_flags, b_flags = flags if flags is not None else (np.zeros(n, bool), np.zeros(n, bool))
        return detect_events(pts, np.tile(self.USER, (k, 1)), np.tile(self.VH, (k, 1)), t_flags, b_flags,
                             0.45, 0.4)

    def _run(self, positions):
        """The (kind, pedestrian id) of each event of a one-tick block."""
        events, _, _ = self._block([positions])
        assert events.shape[1:] == (3,) and events.dtype.kind == "i" and (events[:, 0] == 0).all()
        return [(EVENT_KINDS[kind], ped) for _, kind, ped in events.tolist()]

    def _blocks(self, ticks, sizes):
        """Events of `ticks` detected in consecutive blocks of `sizes` ticks,
        as (tick, kind, pedestrian id)."""
        events, flags, first = [], None, 0
        for size in sizes:
            found, *flags = self._block(ticks[first:first + size], flags)
            events += [(first + k, EVENT_KINDS[kind], ped) for k, kind, ped in found.tolist()]
            first += size
        assert first == len(ticks)
        return events

    def test_crossing_between_gives_social_only(self):
        assert self._run([(0.2, 0.75)]) == [("social", 0)]

    def test_through_agent_body_gives_both(self):
        assert self._run([(0.05, 1.45)]) == [("social", 0), ("physicality", 0)]

    def test_grazing_outside_radius(self):
        assert self._run([(0.55, 0.75)]) == []

    def test_event_ids_are_row_indices(self):
        assert self._run([(5.0, 5.0), (0.2, 0.75), (5.0, 6.0), (0.05, 1.45)]) == [
            ("social", 1), ("social", 3), ("physicality", 3),
        ]

    def test_edge_triggered_once(self, sizes=(5,)):
        total = len(self._blocks([[(0.1, 0.75)]] * 5, sizes))  # dwell inside for 5 ticks
        assert total == 1

    def test_reentry_triggers_again(self, sizes=(3,)):
        ped_in, ped_out = [(0.1, 0.75)], [(3.0, 0.75)]
        assert self._blocks([ped_in, ped_out, ped_in], sizes) == [(0, "social", 0), (2, "social", 0)]

    @pytest.mark.parametrize("sizes", [[1] * 5, [2, 3], [4, 1]])
    def test_dwell_across_block_boundaries(self, sizes):
        self.test_edge_triggered_once(sizes)

    @pytest.mark.parametrize("sizes", [[1, 1, 1], [2, 1], [1, 2]])
    def test_reentry_across_block_boundaries(self, sizes):
        self.test_reentry_triggers_again(sizes)

    def test_empty_scene(self):
        events, t_f, b_f = self._block(np.zeros((3, 0, 2)))
        assert events.shape == (0, 3) and t_f.shape == b_f.shape == (0,)

    def test_block_matches_tick_by_tick(self):
        # a moving dyad and a random crowd: one block, against each tick on its own
        # with the dyad as a Segment, social before physicality, ids ascending
        rng = np.random.default_rng(7)
        k, n = 40, 25
        pts = rng.uniform(-1.5, 1.5, (k, n, 2))
        users = rng.uniform(-0.5, 0.5, (k, 2))
        agents = users + rng.uniform(-1.5, 1.5, (k, 2))
        agents[3] = users[3]  # a zero-length dyad
        events, t_flags, b_flags = detect_events(pts, users, agents, np.zeros(n, bool), np.zeros(n, bool),
                                                 0.45, 0.4)
        expected, inside_t, inside_b = [], np.zeros(n, bool), np.zeros(n, bool)
        for j in range(k):
            dyad = Segment(Vec2(*users[j]), Vec2(*agents[j]))
            now_t = points_segment_distance(pts[j], dyad) < 0.45
            now_b = np.hypot(pts[j, :, 0] - agents[j, 0], pts[j, :, 1] - agents[j, 1]) < 0.4
            expected += [[j, 0, i] for i in np.flatnonzero(now_t & ~inside_t).tolist()]
            expected += [[j, 1, i] for i in np.flatnonzero(now_b & ~inside_b).tolist()]
            inside_t, inside_b = now_t, now_b
        assert events.tolist() == expected
        assert len(expected) > 10
        assert (t_flags == inside_t).all() and (b_flags == inside_b).all()


class TestRunTrial:
    def test_zero_density_is_quiet(self):
        cfg = ScenarioConfig(environment="square12", density=0.0, duration=20.0, condition="proposed")
        m = run_trial(cfg)
        assert m.social_conflicts == 0
        assert m.physicality_conflicts == 0
        assert m.stable_percentage == 1.0

    def test_none_condition_accumulates_conflicts(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, duration=120.0, seed=1, condition="none")
        m = run_trial(cfg)
        assert m.physicality_conflicts > 0
        assert m.social_conflicts >= m.physicality_conflicts // 2
        assert m.stable_percentage == 1.0  # static agent never adjusts

    def test_long_none_trial_is_wholly_stable(self):
        # a share summed tick by tick in seconds would read 1.000000000000113
        cfg = ScenarioConfig(environment="square12", density=0.05, duration=600.0, seed=1, condition="none")
        assert run_trial(cfg).stable_percentage == 1.0

    def test_determinism(self):
        cfg = ScenarioConfig(environment="square12", density=0.15, duration=60.0, seed=5, condition="proposed")
        first, second = io.StringIO(), io.StringIO()
        assert run_trial(cfg, trace=first) == run_trial(cfg, trace=second)
        assert first.getvalue() == second.getvalue()

    def test_zero_density_conditions_agree(self):
        base = ScenarioConfig(environment="square12", density=0.0, duration=30.0, seed=2)
        m_none = run_trial(replace(base, condition="none"))
        m_prop = run_trial(replace(base, condition="proposed"))
        assert m_none.social_conflicts == m_prop.social_conflicts == 0
        assert m_none.stable_percentage == m_prop.stable_percentage

    def test_stable_percentage_is_share_of_stable_rows(self):
        cfg = ScenarioConfig(environment="square12", density=0.25, duration=60.0, seed=7, condition="proposed")
        trace = io.StringIO()
        m = run_trial(cfg, trace=trace)
        phases = [json.loads(line)["phase"] for line in trace.getvalue().splitlines()[1:]]
        assert len(phases) == cfg.tick_count() and 0 < phases.count("adjusting") < len(phases)
        assert m.stable_percentage == phases.count("stable") / len(phases)

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


class TestBlockRounding:
    """`simulation._round` against `round`, bit for bit as uint64."""

    @staticmethod
    def _check(values, digits, monkeypatch):
        calls = []

        def counted_round(v, d):
            calls.append(v)
            return round(v, d)

        monkeypatch.setattr(simulation, "round", counted_round, raising=False)
        x = np.asarray(values, float)
        got = simulation._round(x, digits)
        want = np.array([round(v, digits) for v in x.ravel().tolist()]).reshape(x.shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        return len(calls)

    def test_seeded_values(self, monkeypatch):
        x = np.random.default_rng(18).uniform(-1000.0, 1000.0, 10**6)
        self._check(x, 4, monkeypatch)
        self._check(x.reshape(1000, 500, 2), 4, monkeypatch)

    def test_binary_ties_and_their_neighbours(self, monkeypatch):
        # j / 32 times 10**4 and j / 128 times 10**6 are half-integers for odd j
        ties4 = np.arange(-4001, 4002, 2) / 32.0
        ties6 = np.arange(-4001, 4002, 2) / 128.0
        assert {0.03125, 0.09375} <= set(ties4.tolist())
        for ties, digits in ((ties4, 4), (ties6, 6)):
            assert self._check(ties, digits, monkeypatch) == ties.size  # every tie falls back
            near = np.concatenate([ties + 1e-9, ties - 1e-9, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
            assert self._check(near, digits, monkeypatch) > 0

    def test_negative_zero_results(self, monkeypatch):
        x = np.array([-0.0, -1e-5, -4.9e-5, -1e-300, -5e-324, 0.0, -5e-5, 1e-300])
        self._check(x, 4, monkeypatch)
        zeros = simulation._round(x, 4)[:5]
        assert (zeros == 0.0).all() and np.signbit(zeros).all()

    def test_angles(self, monkeypatch):
        x = np.random.default_rng(5).uniform(0.0, 2 * math.pi, 10**5)
        self._check(np.concatenate([x, [0.0, math.pi, math.pi / 2, 2 * math.pi - 1e-12]]), 4, monkeypatch)

    @pytest.mark.parametrize("dt", [0.001, 0.05, 0.1, 1.0])
    def test_tick_times(self, dt, monkeypatch):
        ticks = np.arange(simulation.MAX_TICKS + 1)
        times = [k * dt for k in ticks.tolist()]  # as run_trial computes them
        assert times[-1] == simulation.MAX_TICKS * dt
        self._check(times, 6, monkeypatch)


class TestBlockBoundaries:
    """A trial's outputs do not depend on how its ticks are cut into blocks."""

    TRIALS = {
        "square20-none": ScenarioConfig(environment="square20", density=0.25, condition="none",
                                        duration=120.0, seed=3),
        "passage-proposed": ScenarioConfig(environment="passage", density=0.25, condition="proposed",
                                           duration=60.0, seed=1),
        "zero-density": ScenarioConfig(environment="square12", density=0.0, condition="proposed",
                                       duration=20.0, seed=3),
    }

    @pytest.mark.parametrize("name", sorted(TRIALS))
    def test_same_outputs_for_any_block_size(self, name, monkeypatch):
        outputs = []
        for block in (1, 7, simulation.BLOCK_TICKS):
            monkeypatch.setattr(simulation, "BLOCK_TICKS", block)
            trace = io.StringIO()
            metrics = run_trial(self.TRIALS[name], trace=trace)
            outputs.append((metrics, trace.getvalue()))
        assert outputs[0] == outputs[1] == outputs[2]
        metrics, trace = outputs[0]
        assert len(trace.splitlines()) == 1 + self.TRIALS[name].tick_count()
        if name == "square20-none":
            assert (metrics.social_conflicts, metrics.physicality_conflicts) == (71, 68)
            assert hashlib.sha256(trace.encode()).hexdigest() == (
                "21f08a764ec6900b098b12f9b96891b6e255dfb2cca370358310dff633d691d5")
        if name == "passage-proposed":
            assert metrics.decision_count > 0


class TestPassThrough:
    def test_pedestrian_walks_through_static_agent(self):
        # under condition none the agent has no collider for pedestrians
        cfg = ScenarioConfig(environment="square12", density=0.0, duration=1.0, condition="none")
        user, vh = cfg.initial_poses()
        ped = make_ped((vh.position.x - 3.0, vh.position.y), (vh.position.x + 4.0, vh.position.y), speed=1.5)
        closest = math.inf
        for _ in range(50):
            ped = step_state(ped, user.position, CONFIG)
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
        assert passage.side_walls

    def test_custom_environment(self):
        cfg = ScenarioConfig(environment="custom", env_width=8.0, env_height=15.0)
        env = cfg.build_environment()
        assert (env.width, env.height) == (8.0, 15.0)
        assert not env.side_walls
        square = ScenarioConfig(environment="custom", env_width=12.0, env_height=12.0)
        assert square.build_environment() == Environment(12.0, 12.0)
        walled = ScenarioConfig(environment="custom", env_width=4.0, env_height=15.0, env_side_walls=True)
        assert walled.build_environment() == Environment(4.0, 15.0, side_walls=True)

    def test_side_walls_are_the_left_and_right_edges(self):
        # on a wide environment the walls are its short edges, x = 0 and x = 20
        cfg = ScenarioConfig(environment="custom", env_width=20.0, env_height=4.0, env_side_walls=True)
        none = np.empty((0, 2))

        def definiteness(a: Vec2, b: Vec2) -> Definiteness:
            return classify_spatial_context(Segment(a, b), none, cfg).definiteness

        assert definiteness(Vec2(0.5, 2.0), Vec2(2.0, 2.0)) is Definiteness.NEAR_WALL
        assert definiteness(Vec2(18.0, 2.0), Vec2(19.5, 2.0)) is Definiteness.NEAR_WALL
        # 0.3 m from the long bottom edge, 9 m from either wall
        assert definiteness(Vec2(9.0, 0.3), Vec2(11.0, 0.3)) is Definiteness.OPEN_SPACE
        # candidates keep 0.3 m from the left wall but not from the bottom edge
        grid = generate_candidates(Pose(Vec2(1.0, 0.7), 0.0), Vec2(1.0, 2.2), cfg)[:-1]
        assert grid[:, 0].min() >= cfg.wall_clearance > grid[:, 1].min()

    def test_initial_poses_face_each_other(self):
        cfg = ScenarioConfig(environment="square12")
        user, vh = cfg.initial_poses()
        assert user.position.distance_to(vh.position) == pytest.approx(cfg.interpersonal_distance)
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
            ("start_avoidance_distance", 7.0),
            ("formation_min", 1.5),
            ("personal_space", 0.0),
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

    def test_equal_min_start_allowed(self):
        ScenarioConfig(min_avoidance_distance=1.0, start_avoidance_distance=1.0)


def trace_events(trace: str, dt: float) -> list[tuple]:
    """Every event of a trace as (kind, time, pedestrian id), the time as the
    trial computed it, tick * dt; each row's `t` is that time rounded."""
    rows = [json.loads(line) for line in trace.splitlines()[1:]]
    assert all(row["t"] == round(row["tick"] * dt, 6) for row in rows)
    return [(kind, row["tick"] * dt, ped) for row in rows for kind, ped in row["events"]]


class TestGoldenTrials:
    """Every metric, the events and the trace digest of two 60 s proposed
    trials at seed 1 and density 0.25, compared exactly: a change that moves
    any of them changes the simulated model, its arithmetic or the trace
    format."""

    GOLDEN = {
        "square20": (
            dict(
                social_conflicts=1, physicality_conflicts=1, stable_percentage=0.8933333333333333,
                mean_ingroup=0.8076923076923077, decision_count=104,
            ),
            [("social", 26.400000000000002, 81), ("physicality", 26.400000000000002, 81)],
            "d69dd8671386a3c4605e26438dac4e7d3f07a790f071ad217f895b257782260c",
        ),
        "passage": (
            dict(
                social_conflicts=0, physicality_conflicts=0, stable_percentage=0.9183333333333333,
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
        assert trace_events(trace.getvalue(), cfg.dt) == events
        assert hashlib.sha256(trace.getvalue().encode()).hexdigest() == trace_sha

    def test_mean_ingroup_adds_in_decision_order(self):
        # Python 3.12's `sum()` of floats is compensated and gives the last
        # bit of this mean differently; the planner's running total does not
        # depend on the interpreter
        cfg = ScenarioConfig(environment="square20", density=0.05, condition="proposed", duration=600.0, seed=1)
        assert run_trial(cfg).mean_ingroup == 0.8610169491525421


# numpy's AVX-512 kernels of arcsin and arctan2 differ from math's in the last
# ulp on many inputs; with these switched off they agree. The goldens must
# hold under either dispatch.
SECOND_DISPATCH = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

GOLDEN_SCRIPT = r"""
import hashlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__

if any(__cpu_features__.get(name) for name in sys.argv[1:]):
    print(json.dumps(None))  # numpy kept a feature it was told to disable
    raise SystemExit
from vhsim.simulation import ScenarioConfig, run_trial

out = {}
for environment in ("square20", "passage"):
    cfg = ScenarioConfig(environment=environment, density=0.25, condition="proposed", duration=60.0, seed=1)
    trace = io.StringIO()
    m = run_trial(cfg, trace=trace)
    rows = [json.loads(line) for line in trace.getvalue().splitlines()[1:]]
    out[environment] = [
        vars(m),
        [(kind, row["tick"] * cfg.dt, ped) for row in rows for kind, ped in row["events"]],
        hashlib.sha256(trace.getvalue().encode()).hexdigest(),
    ]
print(json.dumps(out))
"""


def test_goldens_under_a_second_numpy_dispatch():
    """`TestGoldenTrials`' two trials, in a process whose numpy runs without
    its AVX-512 kernels, give the same pinned metrics, events and traces."""
    from numpy._core._multiarray_umath import __cpu_features__

    if not all(__cpu_features__.get(name) for name in SECOND_DISPATCH):
        pytest.skip("this CPU or numpy build does not dispatch to " + ", ".join(SECOND_DISPATCH))
    src = str(Path(simulation.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(SECOND_DISPATCH),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", GOLDEN_SCRIPT, *SECOND_DISPATCH], env=env,
                            capture_output=True, text=True, timeout=600)
    if result.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in result.stderr:
        pytest.skip("numpy refused NPY_DISABLE_CPU_FEATURES")
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    if got is None:
        pytest.skip("numpy kept a feature NPY_DISABLE_CPU_FEATURES disables")
    for environment, (fields, events, trace_sha) in TestGoldenTrials.GOLDEN.items():
        metrics, got_events, got_sha = got[environment]
        assert {name: metrics[name] for name in fields} == fields, environment
        assert [tuple(e) for e in got_events] == events, environment
        assert got_sha == trace_sha, environment
