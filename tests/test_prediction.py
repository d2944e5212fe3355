import math
import random

import numpy as np
import pytest

from crowds import PedestrianState, crowd_of, d_min_of, positions_of, predict_one, samples_of
from oracles import oracle_linear, oracle_min_approach
from vhsim.geometry import Segment, Vec2
from vhsim.prediction import (
    Phase,
    anticipated_pedestrians,
    avoidance_geometry,
    choose_waypoint,
    prediction_horizon,
)
from vhsim.simulation import ScenarioConfig

CONFIG = ScenarioConfig()


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("speed", [5e-324, 1e-300, 9e-10])
class TestBelowStationarySpeed:
    """A speed under 1e-9 m/s is standing still: no NaN samples from
    inf * 0."""

    def ped(self, speed):
        return PedestrianState(id=0, position=Vec2(2, 1), velocity=Vec2(speed, 0.0), goal=Vec2(10, 1),
                               preferred_speed=speed)

    def test_prediction_stands_still(self, speed):
        ped = self.ped(speed)
        traj = predict_one(ped, Vec2(0, 0), 2.0, 0.5, CONFIG)
        assert all(p == ped.position for _, p in samples_of(traj))
        assert d_min_of(traj) == ped.position.distance_to(Vec2(0, 0))

    def test_min_approach_rejected(self, speed):
        # heading straight for the user, yet too slow to have an approach
        # course: the reference rejects it and the prediction inserts no detour
        ped, user = self.ped(speed), Vec2(6, 1)
        with pytest.raises(ValueError):
            oracle_min_approach(ped, user)
        traj = predict_one(ped, user, 2.0, 0.5, CONFIG)
        assert all(p == ped.position for _, p in samples_of(traj))


class TestAvoidanceGeometry:
    def test_arcsin_half(self):
        config = ScenarioConfig(min_avoidance_distance=0.67, start_avoidance_distance=1.34)
        ped = make_ped((-1.34, 0), (1, 0))
        geom = avoidance_geometry(ped.position, Vec2(0, 0), config)
        assert geom.angle == pytest.approx(math.radians(30.0), abs=1e-12)

    def test_sixty_degrees_doubles_range(self):
        # sin 60 ratio makes the waypoint leg twice the trigger range
        d_start = 2.0
        d_min = d_start * math.sin(math.radians(60.0))
        config = ScenarioConfig(min_avoidance_distance=d_min, start_avoidance_distance=d_start)
        ped = make_ped((-d_start, 0), (1, 0))
        geom = avoidance_geometry(ped.position, Vec2(0, 0), config)
        assert geom.distance == pytest.approx(2.0 * d_start, rel=1e-12)

    def test_waypoints_tangent_to_clearance_circle(self):
        user = Vec2(0, 0)
        ped = make_ped((-2, 0), (1, 0))
        config = ScenarioConfig(min_avoidance_distance=0.67, start_avoidance_distance=2.0)
        geom = avoidance_geometry(ped.position, user, config)
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
            geom = avoidance_geometry(ped.position, user, CONFIG)
            # reflect the left waypoint across the pedestrian-to-user line
            axis = user - ped.position
            axis = axis * (1.0 / axis.norm())
            rel = geom.waypoint_left - ped.position
            proj = axis * (rel.x * axis.x + rel.y * axis.y)
            mirrored = ped.position + proj * 2.0 - rel
            assert mirrored.x == pytest.approx(geom.waypoint_right.x, abs=1e-9)
            assert mirrored.y == pytest.approx(geom.waypoint_right.y, abs=1e-9)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            avoidance_geometry(Vec2(0, 0), Vec2(0, 0), CONFIG)


class TestChooseWaypoint:
    def test_user_offset_left_passes_right(self):
        ped = make_ped((-2, -0.1), (1, 0))  # user slightly left of travel line
        geom = avoidance_geometry(ped.position, Vec2(0, 0), CONFIG)
        chosen = choose_waypoint(geom, ped.velocity, Vec2(0, 0) - ped.position)
        assert chosen == geom.waypoint_right

    def test_user_offset_right_passes_left(self):
        ped = make_ped((-2, 0.1), (1, 0))
        geom = avoidance_geometry(ped.position, Vec2(0, 0), CONFIG)
        chosen = choose_waypoint(geom, ped.velocity, Vec2(0, 0) - ped.position)
        assert chosen == geom.waypoint_left

    def test_exact_tie_goes_right(self):
        ped = make_ped((-2, 0), (1, 0))
        geom = avoidance_geometry(ped.position, Vec2(0, 0), CONFIG)
        chosen = choose_waypoint(geom, ped.velocity, Vec2(0, 0) - ped.position)
        assert chosen == geom.waypoint_right


class TestPredictTrajectory:
    def test_far_miss_equals_linear(self):
        ped = make_ped((-5, 2), (1.2, 0), goal=(10, 2))
        traj = predict_one(ped, Vec2(0, 0), horizon=5.0, dt=0.1, config=CONFIG)
        for t, p in samples_of(traj):
            expected = oracle_linear(ped, t)
            assert p.x == pytest.approx(expected.x, abs=1e-9)
            assert p.y == pytest.approx(expected.y, abs=1e-9)
        assert d_min_of(traj) == pytest.approx(oracle_min_approach(ped, Vec2(0, 0)), abs=1.2 * 0.1)

    def test_head_on_keeps_clearance(self):
        ped = make_ped((-5, 0.05), (1.3, 0), goal=(10, 0.05))
        traj = predict_one(ped, Vec2(0, 0), horizon=9.0, dt=0.1, config=CONFIG)
        v_dt = 1.3 * 0.1
        assert d_min_of(traj) == pytest.approx(CONFIG.min_avoidance_distance, abs=v_dt)

    def test_already_inside_start_range(self):
        ped = make_ped((-1.2, 0.0), (1.0, 0), goal=(10, 0))
        traj = predict_one(ped, Vec2(0, 0), horizon=6.0, dt=0.05, config=CONFIG)
        assert d_min_of(traj) == pytest.approx(CONFIG.min_avoidance_distance, abs=1.0 * 0.05)
        # detour starts immediately: the second sample already deviates
        p1 = samples_of(traj)[1][1]
        assert abs(p1.y) > 1e-6

    def test_degenerate_equal_distances(self):
        config = ScenarioConfig(min_avoidance_distance=0.67, start_avoidance_distance=0.67)
        ped = make_ped((-0.67, 0.0), (1.0, 0), goal=(10, 0))
        traj = predict_one(ped, Vec2(0, 0), horizon=3.0, dt=0.05, config=config)
        assert d_min_of(traj) >= 0.67 - 1.0 * 0.05

    def test_deterministic(self):
        ped = make_ped((-4, 0.3), (1.1, -0.05), goal=(9, -1))
        a = predict_one(ped, Vec2(0, 0), 8.0, 0.1, CONFIG)
        b = predict_one(ped, Vec2(0, 0), 8.0, 0.1, CONFIG)
        assert np.array_equal(a.points, b.points)
        assert d_min_of(a) == d_min_of(b)

    def test_d_min_matches_samples(self):
        ped = make_ped((-5, 0.4), (1.25, 0), goal=(10, 0.4))
        traj = predict_one(ped, Vec2(0, 0), 8.0, 0.1, CONFIG)
        d = min(Vec2(0, 0).distance_to(p) for _, p in samples_of(traj))
        assert d_min_of(traj) == pytest.approx(d, abs=1e-12)

    def test_stationary_pedestrian(self):
        ped = make_ped((2, 1), (0, 0))
        traj = predict_one(ped, Vec2(0, 0), 2.0, 0.5, CONFIG)
        assert all(p == ped.position for _, p in samples_of(traj))

    def test_avoiding_phase_heads_to_waypoint_then_goal(self):
        wp = Vec2(0.5, 0.8)
        ped = make_ped((0, 0), (0.53, 0.85), goal=(5, 0), phase=Phase.AVOIDING, waypoint=wp)
        traj = predict_one(ped, Vec2(2, 0), 6.0, 0.1, CONFIG)
        pts = traj.points
        d_wp = np.hypot(pts[:, 0] - wp.x, pts[:, 1] - wp.y)
        assert d_wp.min() < 0.06  # passes through the waypoint
        end = samples_of(traj)[-1][1]
        assert end.distance_to(Vec2(5, 0)) < end.distance_to(Vec2(0, 0))

    def test_sample_grid(self):
        ped = make_ped((0, 0), (1, 0))
        traj = predict_one(ped, Vec2(10, 10), 1.0, 0.25, CONFIG)
        assert [round(t, 6) for t, _ in samples_of(traj)] == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestRealizedClearanceSweep:
    def test_random_parameter_pairs(self):
        # head-on approaches across random clearance/trigger distances: the
        # realized closest approach stays within one sample step of the target
        rng = random.Random(101)
        for _ in range(200):
            d_min = rng.uniform(0.2, 1.5)
            d_start = d_min + rng.uniform(0.0, 2.0)
            config = ScenarioConfig(
                min_avoidance_distance=d_min, start_avoidance_distance=d_start, tracking_distance=50.0
            )
            speed = rng.uniform(1.0, 1.5)
            offset = rng.uniform(-0.9, 0.9) * d_min
            start_range = d_start + rng.uniform(0.5, 4.0)
            ped = make_ped((-start_range, offset), (speed, 0), goal=(30, offset))
            dt = 0.1
            horizon = (start_range + 8.0) / speed
            traj = predict_one(ped, Vec2(0, 0), horizon, dt, config)
            assert d_min_of(traj) >= d_min - speed * dt - 1e-9
            assert d_min_of(traj) <= d_min + speed * dt + 1e-9


class TestAnticipated:
    def test_inclusion_by_distance(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        far = make_ped((10, 0), (1, 0), pid=1)
        near = make_ped((3, 0), (1, 0), pid=2)
        edge = make_ped((6, 0.0), (1, 0), pid=3)
        peds = [far, near, edge]
        got = anticipated_pedestrians(positions_of(peds), dyad, CONFIG)
        assert [peds[i].id for i in got] == [2, 3]

    def test_boundary_inclusive(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.0))
        ped = make_ped((6.0, 0.0), (1, 0), pid=9)
        assert anticipated_pedestrians(positions_of([ped]), dyad, CONFIG).tolist() == [0]

    def test_boundary_inclusive_where_numpy_hypot_is_not(self):
        # exactly 6 m from the dyad's end by math.hypot, the distance the
        # scalar rule measures; np.hypot and sqrt(x*x + y*y) read one ulp more
        dx, dy = -2.6326286130146603, -5.3915922125042535
        assert math.hypot(dx, dy) == CONFIG.tracking_distance < np.hypot(dx, dy)
        assert CONFIG.tracking_distance < math.sqrt(dx * dx + dy * dy)
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        positions = np.array([[dx, dy], [math.nextafter(dx, -math.inf), dy]])
        assert anticipated_pedestrians(positions, dyad, CONFIG).tolist() == [0]


def exit_time(ped: PedestrianState, radius: float) -> float:
    """The shared horizon of one pedestrian around the origin, uncapped."""
    crowd = crowd_of([ped])
    return prediction_horizon(crowd.position, crowd.velocity, Segment(Vec2(0, 0), Vec2(0, 0)), radius, math.inf)


class TestHorizon:
    def test_exit_time_crossing(self):
        ped = make_ped((-10, 0), (1, 0))
        t = exit_time(ped, 6.0)
        assert t == pytest.approx(16.0)

    def test_exit_time_inside(self):
        ped = make_ped((0, 0), (2, 0))
        assert exit_time(ped, 6.0) == pytest.approx(3.0)

    def test_never_entering(self):
        ped = make_ped((-10, 8), (1, 0))
        assert exit_time(ped, 6.0) == 0.0

    def test_stationary_inside_is_inf(self):
        ped = make_ped((1, 0), (0, 0))
        assert exit_time(ped, 6.0) == math.inf

    def test_horizon_capped(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        slow = make_ped((-5.9, 0.75), (0.1, 0))
        crowd = crowd_of([slow])
        assert prediction_horizon(crowd.position, crowd.velocity, dyad, 6.0, cap=15.0) == 15.0

    def test_stationary_inside_gives_the_cap(self):
        dyad = Segment(Vec2(0, 0), Vec2(0, 1.5))
        crowd = crowd_of([make_ped((-10, 0.75), (1.4, 0)), make_ped((3, 0.75), (0, 0), pid=1)])
        assert prediction_horizon(crowd.position, crowd.velocity, dyad, 6.0, cap=4.0) == 4.0
