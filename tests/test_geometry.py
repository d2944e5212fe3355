import math
import random
from dataclasses import replace

import numpy as np
import pytest

from oracles import polygon_disc_rect_area
from vhsim.geometry import (
    Environment,
    Pose,
    Segment,
    Vec2,
    angle_difference,
    disc_rect_intersection_area,
    distance_point_segment,
    distance_points_segment,
    normalize_angle,
    points_segment_distance,
)
from vhsim.proxemics import Definiteness, classify_spatial_context
from vhsim.simulation import ScenarioConfig, _draw_goal

PASSAGE = ScenarioConfig(environment="passage")


class TestDistancePointSegment:
    def test_point_on_segment_is_zero(self):
        s = Segment(Vec2(0, 0), Vec2(2, 0))
        assert distance_point_segment(Vec2(1, 0), s) == 0.0

    def test_perpendicular_foot_inside_segment(self):
        s = Segment(Vec2(0, 0), Vec2(2, 0))
        assert distance_point_segment(Vec2(0, 1), s) == pytest.approx(1.0)

    def test_nearest_point_is_endpoint(self):
        s = Segment(Vec2(0, 0), Vec2(2, 0))
        assert distance_point_segment(Vec2(3, 0), s) == pytest.approx(1.0)

    def test_degenerate_segment(self):
        s = Segment(Vec2(1, 1), Vec2(1, 1))
        assert distance_point_segment(Vec2(4, 5), s) == pytest.approx(5.0)

    def test_reflection_symmetry_and_nonnegative(self):
        rng = random.Random(7)
        for _ in range(200):
            p = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            a = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            d = distance_point_segment(p, Segment(a, b))
            assert d >= 0.0
            # mirror the whole scene across the x axis
            d_mirror = distance_point_segment(
                Vec2(p.x, -p.y), Segment(Vec2(a.x, -a.y), Vec2(b.x, -b.y))
            )
            assert d == pytest.approx(d_mirror, abs=1e-12)

    def test_zero_iff_on_segment(self):
        rng = random.Random(11)
        s = Segment(Vec2(-1, -1), Vec2(2, 3))
        for _ in range(100):
            t = rng.random()
            on = Vec2(-1 + 3 * t, -1 + 4 * t)
            assert distance_point_segment(on, s) < 1e-9
            off = Vec2(on.x + 0.01, on.y - 0.0075)
            assert distance_point_segment(off, s) > 0.0


class TestAngles:
    def test_normalize_angle_range(self):
        for raw in (-7.5, -math.pi, 0.0, 1.0, 9.42, 100.0):
            a = normalize_angle(raw)
            assert 0.0 <= a < 2 * math.pi
            assert math.isclose(math.cos(a), math.cos(raw), abs_tol=1e-9)

    def test_angle_difference_shortest(self):
        assert angle_difference(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
        assert angle_difference(2 * math.pi - 0.1, 0.1) == pytest.approx(-0.2)

    def test_pose_normalizes_orientation(self):
        p = Pose(Vec2(0, 0), -math.pi / 2)
        assert p.orientation == pytest.approx(1.5 * math.pi)


def near_wall(config: ScenarioConfig, dyad: Segment, personal_space: float) -> bool:
    context = classify_spatial_context(dyad, np.empty((0, 2)), replace(config, personal_space=personal_space))
    return context.definiteness is Definiteness.NEAR_WALL


class TestEnvironment:
    def test_narrow_passage_centerline(self):
        env = PASSAGE.build_environment()
        assert env == Environment(3.0, 20.0, side_walls=True)
        assert env.center() == Vec2(1.5, 10.0)
        # the centerline is 1.5 m from either wall
        centerline = Segment(Vec2(1.5, 9.0), Vec2(1.5, 11.0))
        assert near_wall(PASSAGE, centerline, 1.5 + 1e-9) and not near_wall(PASSAGE, centerline, 1.5)

    def test_half_meter_from_wall(self):
        for x in (0.5, 2.5):
            dyad = Segment(Vec2(x, 4.0), Vec2(1.5, 4.0))
            assert near_wall(PASSAGE, dyad, 0.5 + 1e-9) and not near_wall(PASSAGE, dyad, 0.5)

    def test_open_square_has_no_walls(self):
        square = ScenarioConfig(environment="square20")
        assert square.build_environment() == Environment(20.0, 20.0, side_walls=False)
        assert not near_wall(square, Segment(Vec2(0.0, 10.0), Vec2(20.0, 10.0)), 100.0)

    def test_goal_boxes_cover_edges(self):
        # every draw lies in its edge's 0.5 m strip, and the five 2.4 m boxes
        # along each edge are all drawn from
        env = Environment(12.0, 12.0)
        rng = np.random.default_rng(3)
        for side, (y_min, y_max) in ((0, (11.5, 12.0)), (1, (0.0, 0.5))):
            goals = [_draw_goal(rng, env, side) for _ in range(200)]
            assert all(0.0 <= g.x <= 12.0 and y_min <= g.y <= y_max for g in goals)
            assert {int(g.x // 2.4) for g in goals} == {0, 1, 2, 3, 4}

    def test_segment_wall_distance(self):
        # the dyad's nearer end is 0.75 m from the left wall
        dyad = Segment(Vec2(0.75, 10.0), Vec2(2.25, 10.0))
        assert near_wall(PASSAGE, dyad, 0.75 + 1e-9) and not near_wall(PASSAGE, dyad, 0.75)


def np_distance_point_segment(p: Vec2, s: Segment) -> float:
    """`distance_point_segment` with numpy's hypot in place of math.hypot."""
    ex, ey = s.b.x - s.a.x, s.b.y - s.a.y
    wx, wy = p.x - s.a.x, p.y - s.a.y
    ee = ex * ex + ey * ey
    if ee == 0.0:
        return float(np.hypot(wx, wy))
    t = max(0.0, min(1.0, (wx * ex + wy * ey) / ee))
    return float(np.hypot(wx - t * ex, wy - t * ey))


class TestDistancePointsSegment:
    # each name of the shared body against the scalar rule with its own hypot
    @pytest.mark.parametrize("rows, scalar, b", [
        pytest.param(rows, scalar, b, id=prefix + name)
        for rows, scalar, prefix in [(distance_points_segment, distance_point_segment, ""),
                                     (points_segment_distance, np_distance_point_segment, "np.hypot-")]
        for b, name in [(Vec2(2.5, 1.75), "segment"), (Vec2(-1.0, 0.5), "degenerate")]
    ])
    def test_rows_equal_the_scalar_distance_bit_for_bit(self, rows, scalar, b):
        # points on both sides and beyond both ends, so every clamp branch runs
        rng = np.random.default_rng(5)
        pts = rng.uniform(-6.0, 6.0, (4000, 2))
        s = Segment(Vec2(-1.0, 0.5), b)
        want = np.array([scalar(Vec2(x, y), s) for x, y in pts.tolist()])
        assert (rows(pts, s).view(np.uint64) == want.view(np.uint64)).all()

    def test_one_segment_per_block_row(self):
        # (K, 1) end columns against (K, n, 2) points: row k equals the call
        # with segment k alone, zero-length and underflowing segments included
        rng = np.random.default_rng(18)
        pts = rng.uniform(-6.0, 6.0, (6, 500, 2))
        a = rng.uniform(-2.0, 2.0, (6, 2))
        b = a + rng.uniform(-2.0, 2.0, (6, 2))
        b[2] = a[2]
        a[4], b[4] = (1e-170, -1e-170), (2e-170, 0.0)  # its squared length underflows to zero
        ends = ((a[:, 0, None], a[:, 1, None]), (b[:, 0, None], b[:, 1, None]))
        got = points_segment_distance(pts, ends)
        for k in range(6):
            want = points_segment_distance(pts[k], Segment(Vec2(*a[k].tolist()), Vec2(*b[k].tolist())))
            assert (got[k].view(np.uint64) == want.view(np.uint64)).all()
            if k in (2, 4):
                wx, wy = pts[k, :, 0] - a[k, 0], pts[k, :, 1] - a[k, 1]
                assert (got[k].view(np.uint64) == np.hypot(wx, wy).view(np.uint64)).all()


class TestDiscRectArea:
    def test_disc_inside_rect(self):
        area = disc_rect_intersection_area(Vec2(10, 10), 2.0, 20, 20)
        assert area == pytest.approx(math.pi * 4.0, rel=1e-12)

    def test_inscribed_disc(self):
        area = disc_rect_intersection_area(Vec2(6, 6), 6.0, 12, 12)
        assert area == pytest.approx(math.pi * 36.0, rel=1e-12)

    def test_half_disc(self):
        area = disc_rect_intersection_area(Vec2(0, 10), 3.0, 20, 20)
        assert area == pytest.approx(math.pi * 4.5, rel=1e-12)

    def test_corner_quarter(self):
        area = disc_rect_intersection_area(Vec2(20, 0), 6.0, 20, 20)
        assert area == pytest.approx(math.pi * 9.0, rel=1e-12)

    def test_disjoint(self):
        assert disc_rect_intersection_area(Vec2(-10, -10), 2.0, 20, 20) == 0.0

    def test_matches_fine_polygon(self):
        # a 20 000-gon's area is short of the disc's by about 5e-8 r^2
        rng = random.Random(211)
        for case in range(100):
            width = 3.0 if case % 4 == 0 else rng.uniform(1.0, 20.0)
            height = rng.uniform(3.0, 20.0)
            r = rng.uniform(0.5, 8.0)
            # centers anywhere from well outside to deep inside, so discs
            # spill over edges and corners or miss the rectangle entirely
            center = Vec2(rng.uniform(-r - 1.0, width + r + 1.0),
                          rng.uniform(-r - 1.0, height + r + 1.0))
            exact = disc_rect_intersection_area(center, r, width, height)
            assert abs(exact - polygon_disc_rect_area(center, r, width, height, 20000)) <= 1e-7 * r * r


class TestVec2:
    def test_rotated_preserves_norm(self):
        rng = random.Random(5)
        for _ in range(100):
            v = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            w = v.rotated(rng.uniform(0, 7))
            assert w.norm() == pytest.approx(v.norm(), abs=1e-12)
