import math
import random

import numpy as np
import pytest

from vhsim.geometry import Segment, Vec2
from vhsim.prediction import (
    AvoidanceParams,
    PedestrianState,
    Phase,
    anticipated_pedestrians,
    avoidance_geometry,
    choose_waypoint,
    exit_time_from_disc,
    linear_extrapolate,
    min_approach_distance,
    predict_trajectory,
    prediction_horizon,
)

PARAMS = AvoidanceParams()


def make_ped(pos, vel, goal=None, pid=0, phase=Phase.DIRECT, waypoint=None):
    speed = math.hypot(*vel)
    return PedestrianState(
        id=pid,
        position=Vec2(*pos),
        velocity=Vec2(*vel),
        goal=Vec2(*goal) if goal else Vec2(pos[0] + vel[0] * 50, pos[1] + vel[1] * 50),
        preferred_speed=speed,
        phase=phase,
        waypoint=waypoint,
    )


def min_distance_on_segment(a: Vec2, b: Vec2, point: Vec2, steps: int = 20000) -> float:
    """Brute-force minimum distance from a point to a densely sampled segment."""
    best = math.inf
    for i in range(steps + 1):
        t = i / steps
        x = a.x + (b.x - a.x) * t
        y = a.y + (b.y - a.y) * t
        best = min(best, math.hypot(x - point.x, y - point.y))
    return best


class TestLinearExtrapolate:
    def test_basic(self):
        ped = make_ped((0, 0), (1, 0))
        assert linear_extrapolate(ped, 2.0) == Vec2(2.0, 0.0)

    def test_identity_at_zero(self):
        ped = make_ped((3, -1), (0.4, 0.9))
        assert linear_extrapolate(ped, 0.0) == ped.position

    def test_negative_velocity(self):
        ped = make_ped((1, 1), (0, -1.5))
        assert linear_extrapolate(ped, 2.0) == Vec2(1.0, -2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            linear_extrapolate(make_ped((0, 0), (1, 0)), -1.0)


class TestMinApproach:
    def test_head_on(self):
        ped = make_ped((-5, 0), (1, 0))
        assert min_approach_distance(ped, Vec2(0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_offset(self):
        ped = make_ped((-5, 1), (1, 0))
        assert min_approach_distance(ped, Vec2(0, 0)) == pytest.approx(1.0)

    def test_walking_away(self):
        ped = make_ped((3, 0), (1, 0))
        assert min_approach_distance(ped, Vec2(0, 0)) == pytest.approx(3.0)

    def test_stationary_rejected(self):
        with pytest.raises(ValueError):
            min_approach_distance(make_ped((1, 0), (0, 0)), Vec2(0, 0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("speed", [5e-324, 1e-300, 9e-10])
class TestBelowStationarySpeed:
    """A speed under 1e-9 m/s is standing still: no NaN samples from
    inf * 0, and no ZeroDivisionError."""

    def ped(self, speed):
        return PedestrianState(id=0, position=Vec2(2, 1), velocity=Vec2(speed, 0.0), goal=Vec2(10, 1),
                               preferred_speed=speed)

    def test_prediction_stands_still(self, speed):
        ped = self.ped(speed)
        traj = predict_trajectory(ped, Vec2(0, 0), 2.0, 0.5, PARAMS)
        assert all(p == ped.position for _, p in traj.samples)
        assert traj.d_min == ped.position.distance_to(Vec2(0, 0))

    def test_min_approach_rejected(self, speed):
        with pytest.raises(ValueError):
            min_approach_distance(self.ped(speed), Vec2(0, 0))


class TestAvoidanceGeometry:
    def test_arcsin_half(self):
        params = AvoidanceParams(min_avoidance=0.67, start_avoidance=1.34)
        ped = make_ped((-1.34, 0), (1, 0))
        geom = avoidance_geometry(ped, Vec2(0, 0), params)
        assert geom.angle == pytest.approx(math.radians(30.0), abs=1e-12)

    def test_sixty_degrees_doubles_range(self):
        # sin 60 ratio makes the waypoint leg twice the trigger range
        d_start = 2.0
        d_min = d_start * math.sin(math.radians(60.0))
        params = AvoidanceParams(min_avoidance=d_min, start_avoidance=d_start)
        ped = make_ped((-d_start, 0), (1, 0))
        geom = avoidance_geometry(ped, Vec2(0, 0), params)
        assert geom.distance == pytest.approx(2.0 * d_start, rel=1e-12)

    def test_waypoints_tangent_to_clearance_circle(self):
        user = Vec2(0, 0)
        ped = make_ped((-2, 0), (1, 0))
        geom = avoidance_geometry(ped, user, AvoidanceParams(min_avoidance=0.67, start_avoidance=2.0))
        for wp in (geom.waypoint_left, geom.waypoint_right):
            realized = min_distance_on_segment(ped.position, wp, user)
            assert realized == pytest.approx(0.67, abs=1e-6)

    def test_waypoints_mirror_across_approach_line(self):
        rng = random.Random(13)
        user = Vec2(0, 0)
        for _ in range(100):
            angle = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0.7, 2.0)
            pos = Vec2(r * math.cos(angle), r * math.sin(angle))
            ped = make_ped((pos.x, pos.y), (-math.cos(angle), -math.sin(angle)))
            geom = avoidance_geometry(ped, user, PARAMS)
            # reflect the left waypoint across the pedestrian-to-user line
            axis = (user - ped.position).normalized()
            rel = geom.waypoint_left - ped.position
            proj = axis * rel.dot(axis)
            mirrored = ped.position + proj * 2.0 - rel
            assert mirrored.x == pytest.approx(geom.waypoint_right.x, abs=1e-9)
            assert mirrored.y == pytest.approx(geom.waypoint_right.y, abs=1e-9)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            avoidance_geometry(make_ped((0, 0), (1, 0)), Vec2(0, 0), PARAMS)


class TestChooseWaypoint:
    def test_user_offset_left_passes_right(self):
        ped = make_ped((-2, -0.1), (1, 0))  # user slightly left of travel line
        geom = avoidance_geometry(ped, Vec2(0, 0), PARAMS)
        chosen = choose_waypoint(geom, ped.velocity, Vec2(0, 0) - ped.position)
        assert chosen == geom.waypoint_right

    def test_user_offset_right_passes_left(self):
        ped = make_ped((-2, 0.1), (1, 0))
        geom = avoidance_geometry(ped, Vec2(0, 0), PARAMS)
        chosen = choose_waypoint(geom, ped.velocity, Vec2(0, 0) - ped.position)
        assert chosen == geom.waypoint_left

    def test_exact_tie_goes_right(self):
        ped = make_ped((-2, 0), (1, 0))
        geom = avoidance_geometry(ped, Vec2(0, 0), PARAMS)
        chosen = choose_waypoint(geom, ped.velocity, Vec2(0, 0) - ped.position)
        assert chosen == geom.waypoint_right


class TestPredictTrajectory:
    def test_far_miss_equals_linear(self):
        ped = make_ped((-5, 2), (1.2, 0), goal=(10, 2))
        traj = predict_trajectory(ped, Vec2(0, 0), horizon=5.0, dt=0.1, params=PARAMS)
        for t, p in traj.samples:
            expected = linear_extrapolate(ped, t)
            assert p.x == pytest.approx(expected.x, abs=1e-9)
            assert p.y == pytest.approx(expected.y, abs=1e-9)

    def test_head_on_keeps_clearance(self):
        ped = make_ped((-5, 0.05), (1.3, 0), goal=(10, 0.05))
        traj = predict_trajectory(ped, Vec2(0, 0), horizon=9.0, dt=0.1, params=PARAMS)
        v_dt = 1.3 * 0.1
        assert traj.d_min == pytest.approx(PARAMS.min_avoidance, abs=v_dt)

    def test_already_inside_start_range(self):
        ped = make_ped((-1.2, 0.0), (1.0, 0), goal=(10, 0))
        traj = predict_trajectory(ped, Vec2(0, 0), horizon=6.0, dt=0.05, params=PARAMS)
        assert traj.d_min == pytest.approx(PARAMS.min_avoidance, abs=1.0 * 0.05)
        # detour starts immediately: the second sample already deviates
        p1 = traj.samples[1][1]
        assert abs(p1.y) > 1e-6

    def test_degenerate_equal_distances(self):
        params = AvoidanceParams(min_avoidance=0.67, start_avoidance=0.67)
        ped = make_ped((-0.67, 0.0), (1.0, 0), goal=(10, 0))
        traj = predict_trajectory(ped, Vec2(0, 0), horizon=3.0, dt=0.05, params=params)
        assert traj.d_min >= 0.67 - 1.0 * 0.05

    def test_deterministic(self):
        ped = make_ped((-4, 0.3), (1.1, -0.05), goal=(9, -1))
        a = predict_trajectory(ped, Vec2(0, 0), 8.0, 0.1, PARAMS)
        b = predict_trajectory(ped, Vec2(0, 0), 8.0, 0.1, PARAMS)
        assert np.array_equal(a.points, b.points)
        assert a.d_min == b.d_min

    def test_d_min_matches_samples(self):
        ped = make_ped((-5, 0.4), (1.25, 0), goal=(10, 0.4))
        traj = predict_trajectory(ped, Vec2(0, 0), 8.0, 0.1, PARAMS)
        d = min(Vec2(0, 0).distance_to(p) for _, p in traj.samples)
        assert traj.d_min == pytest.approx(d, abs=1e-12)

    def test_stationary_pedestrian(self):
        ped = make_ped((2, 1), (0, 0))
        traj = predict_trajectory(ped, Vec2(0, 0), 2.0, 0.5, PARAMS)
        assert all(p == ped.position for _, p in traj.samples)

    def test_avoiding_phase_heads_to_waypoint_then_goal(self):
        wp = Vec2(0.5, 0.8)
        ped = make_ped((0, 0), (0.53, 0.85), goal=(5, 0), phase=Phase.AVOIDING, waypoint=wp)
        traj = predict_trajectory(ped, Vec2(2, 0), 6.0, 0.1, PARAMS)
        pts = traj.points
        d_wp = np.hypot(pts[:, 0] - wp.x, pts[:, 1] - wp.y)
        assert d_wp.min() < 0.06  # passes through the waypoint
        end = traj.samples[-1][1]
        assert end.distance_to(Vec2(5, 0)) < end.distance_to(Vec2(0, 0))

    def test_sample_grid(self):
        ped = make_ped((0, 0), (1, 0))
        traj = predict_trajectory(ped, Vec2(10, 10), 1.0, 0.25, PARAMS)
        assert [round(t, 6) for t, _ in traj.samples] == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestRealizedClearanceSweep:
    def test_random_parameter_pairs(self):
        # head-on approaches across random clearance/trigger distances: the
        # realized closest approach stays within one sample step of the target
        rng = random.Random(101)
        for _ in range(200):
            d_min = rng.uniform(0.2, 1.5)
            d_start = d_min + rng.uniform(0.0, 2.0)
            params = AvoidanceParams(min_avoidance=d_min, start_avoidance=d_start, anticipate=50.0)
            speed = rng.uniform(1.0, 1.5)
            offset = rng.uniform(-0.9, 0.9) * d_min
            start_range = d_start + rng.uniform(0.5, 4.0)
            ped = make_ped((-start_range, offset), (speed, 0), goal=(30, offset))
            dt = 0.1
            horizon = (start_range + 8.0) / speed
            traj = predict_trajectory(ped, Vec2(0, 0), horizon, dt, params)
            assert traj.d_min >= d_min - speed * dt - 1e-9
            assert traj.d_min <= d_min + speed * dt + 1e-9


class TestAnticipated:
    def test_inclusion_by_distance(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        far = make_ped((10, 0), (1, 0), pid=1)
        near = make_ped((3, 0), (1, 0), pid=2)
        edge = make_ped((6, 0.0), (1, 0), pid=3)
        got = anticipated_pedestrians([far, near, edge], dyad, PARAMS)
        assert [p.id for p in got] == [2, 3]

    def test_boundary_inclusive(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.0))
        ped = make_ped((6.0, 0.0), (1, 0), pid=9)
        assert anticipated_pedestrians([ped], dyad, PARAMS) == [ped]


class TestParamsValidation:
    def test_min_above_start_rejected(self):
        with pytest.raises(ValueError):
            AvoidanceParams(min_avoidance=2.5, start_avoidance=2.0)

    def test_equal_min_start_allowed(self):
        AvoidanceParams(min_avoidance=1.0, start_avoidance=1.0)

    def test_start_above_anticipate_rejected(self):
        with pytest.raises(ValueError):
            AvoidanceParams(min_avoidance=0.5, start_avoidance=7.0, anticipate=6.0)


class TestHorizon:
    def test_exit_time_crossing(self):
        ped = make_ped((-10, 0), (1, 0))
        t = exit_time_from_disc(ped, Vec2(0, 0), 6.0)
        assert t == pytest.approx(16.0)

    def test_exit_time_inside(self):
        ped = make_ped((0, 0), (2, 0))
        assert exit_time_from_disc(ped, Vec2(0, 0), 6.0) == pytest.approx(3.0)

    def test_never_entering(self):
        ped = make_ped((-10, 8), (1, 0))
        assert exit_time_from_disc(ped, Vec2(0, 0), 6.0) == 0.0

    def test_stationary_inside_is_inf(self):
        ped = make_ped((1, 0), (0, 0))
        assert exit_time_from_disc(ped, Vec2(0, 0), 6.0) == math.inf

    def test_horizon_capped(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        slow = make_ped((-5.9, 0.75), (0.1, 0))
        assert prediction_horizon([slow], dyad, 6.0, cap=15.0) == 15.0
