import math
import random

import numpy as np
import pytest

from vhsim.comfort import comfort_from_distance
from vhsim.geometry import Pose, Segment, Vec2, distance_point_segment, distance_points_segment, points_segment_distance
from vhsim.planner import score_candidates
from vhsim.proxemics import ArrangementType, Crowdedness, Definiteness, SpatialContext, ingroup_choice
from vhsim.simulation import ScenarioConfig

CONFIG = ScenarioConfig()
CTX_OPEN = SpatialContext(Definiteness.OPEN_SPACE, Crowdedness.UNCROWDED)


def traj_from_points(points):
    """One pedestrian's predicted samples, an (n, 2) array."""
    return np.asarray(points, dtype=float).reshape(-1, 2)


def outgroup(candidate, user, trajectories):
    """The planner's out-group comfort of the segment user-candidate."""
    points = np.concatenate(trajectories) if trajectories else np.empty((0, 2))
    _, _, out, *_ = score_candidates(
        np.array([[candidate.x, candidate.y]]), Pose(user, 0.0), candidate, CTX_OPEN, points, CONFIG
    )
    return float(out[0])


def outgroup_at_instant(g, positions):
    """Out-group comfort of segment g against pedestrians at one instant."""
    return outgroup(g.b, g.a, [traj_from_points([(p.x, p.y) for p in positions])] if positions else [])


def ingroup(candidate, user, context):
    """The planner's in-group comfort of a candidate."""
    _, ins, *_ = score_candidates(
        np.array([[candidate.x, candidate.y]]), user, candidate, context, np.empty((0, 2)), CONFIG
    )
    return float(ins[0])


class TestDistanceComfort:
    def test_zero_at_450mm(self):
        g = Segment(Vec2(0, 0), Vec2(1.5, 0))
        score = outgroup_at_instant(g, [Vec2(0.75, 0.45)])
        assert score == 0.0

    def test_one_at_saturation_distance(self):
        g = Segment(Vec2(0, 0), Vec2(1.5, 0))
        score = outgroup_at_instant(g, [Vec2(0.75, 0.67005)])
        assert score == pytest.approx(1.0, abs=1e-3)

    def test_empty_set_is_fully_comfortable(self):
        assert outgroup_at_instant(Segment(Vec2(0, 0), Vec2(1, 0)), []) == 1.0

    def test_pedestrian_on_segment(self):
        g = Segment(Vec2(0, 0), Vec2(1.5, 0))
        assert outgroup_at_instant(g, [Vec2(0.5, 0.0)]) == 0.0

    def test_closest_pedestrian_governs(self):
        g = Segment(Vec2(0, 0), Vec2(1.5, 0))
        near = Vec2(0.75, 0.5)
        far = Vec2(0.75, 3.0)
        assert outgroup_at_instant(g, [near, far]) == outgroup_at_instant(g, [near])

    def test_monotone_in_distance(self):
        g = Segment(Vec2(0, 0), Vec2(1.5, 0))
        prev = -1.0
        for mm in range(350, 800, 10):
            score = outgroup_at_instant(g, [Vec2(0.75, mm / 1000.0)])
            assert score >= prev
            prev = score

    def test_bounds(self):
        rng = random.Random(41)
        g = Segment(Vec2(0, 0), Vec2(1.5, 0))
        for _ in range(200):
            p = Vec2(rng.uniform(-2, 4), rng.uniform(-3, 3))
            score = outgroup_at_instant(g, [p])
            assert 0.0 <= score <= 1.0
            d = distance_point_segment(p, g)
            if d <= 0.45:
                assert score == 0.0
            if d >= 0.67005:
                assert score == 1.0


class TestComfortFromDistance:
    def test_formula_at_600mm(self):
        # 3.045 - 1370.25/600
        assert comfort_from_distance(np.array([0.6]))[0] == pytest.approx(0.76125, abs=1e-9)


class TestOutgroupComfort:
    def test_no_pedestrians(self):
        assert outgroup(Vec2(1.5, 0), Vec2(0, 0), []) == 1.0

    def test_path_crossing_segment(self):
        traj = traj_from_points([(0.75, -1.0), (0.75, 0.0), (0.75, 1.0)])
        assert outgroup(Vec2(1.5, 0), Vec2(0, 0), [traj]) == 0.0

    def test_closest_approach_600mm(self):
        traj = traj_from_points([(0.75, 2.0), (0.75, 0.6), (0.75, 1.4)])
        score = outgroup(Vec2(1.5, 0), Vec2(0, 0), [traj])
        assert score == pytest.approx(0.76125, abs=1e-9)

    def test_equals_min_over_time_of_distance_comfort(self):
        rng = random.Random(59)
        user = Vec2(0, 0)
        cand = Vec2(1.2, 0.4)
        g = Segment(user, cand)
        for _ in range(50):
            n = rng.randint(1, 4)
            trajs = []
            for _ in range(n):
                pts = [(rng.uniform(-2, 3), rng.uniform(-2, 2)) for _ in range(rng.randint(1, 20))]
                trajs.append(traj_from_points(pts))
            got = outgroup(cand, user, trajs)
            k = max(len(t) for t in trajs)
            per_time = []
            for i in range(k):
                positions = [
                    Vec2(*t[i]) for t in trajs if i < len(t)
                ]
                per_time.append(outgroup_at_instant(g, positions))
            assert got == pytest.approx(min(per_time), abs=1e-12)

    def test_never_exceeds_any_time_slice(self):
        traj = traj_from_points([(2.0, 0.0), (0.9, 0.55), (0.2, 2.0)])
        user, cand = Vec2(0, 0), Vec2(1.5, 0)
        total = outgroup(cand, user, [traj])
        g = Segment(user, cand)
        for p in traj:
            assert total <= outgroup_at_instant(g, [Vec2(*p)]) + 1e-12


# both names of geometry's one point-segment body: numpy's hypot and math.hypot
DISTANCES = pytest.mark.parametrize(
    "distances", [points_segment_distance, distance_points_segment], ids=["np.hypot", "math.hypot"]
)


class TestPointsSegmentDistance:
    @DISTANCES
    def test_matches_scalar_version(self, distances):
        rng = random.Random(67)
        s = Segment(Vec2(-1, 0.5), Vec2(2, -0.5))
        pts = np.array([(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(100)])
        got = distances(pts, s)
        for p, d in zip(pts, got):
            assert d == pytest.approx(distance_point_segment(Vec2(*p), s), abs=1e-12)

    @DISTANCES
    def test_degenerate_segment(self, distances):
        pts = np.array([(1.0, 0.0), (0.0, 2.0)])
        got = distances(pts, Segment(Vec2(0, 0), Vec2(0, 0)))
        assert got == pytest.approx([1.0, 2.0])


class TestIngroupComfort:
    def test_open_uncrowded_alpha_zero(self):
        user = Pose(Vec2(0, 0), 0.0)
        ctx = SpatialContext(Definiteness.OPEN_SPACE, Crowdedness.UNCROWDED)
        score = ingroup(Vec2(1.0, 0.0), user, ctx)
        assert score == 1.0  # closed feasible and preferred

    def test_out_of_range_candidate(self):
        user = Pose(Vec2(0, 0), 0.0)
        ctx = SpatialContext(Definiteness.OPEN_SPACE, Crowdedness.UNCROWDED)
        assert ingroup(Vec2(2.0, 0.0), user, ctx) == 0.0

    def test_near_wall_crowded_l_and_open(self):
        user = Pose(Vec2(0, 0), math.radians(80))
        ctx = SpatialContext(Definiteness.NEAR_WALL, Crowdedness.CROWDED)
        # alpha = 80: closed out of reach, feasible {L-shaped, open} -> max(1.0, 0.6)
        score = ingroup(Vec2(1.0, 0.0), user, ctx)
        assert score == 1.0

    def test_value_set(self):
        rng = random.Random(73)
        user = Pose(Vec2(0, 0), 0.0)
        for key in (
            (Definiteness.OPEN_SPACE, Crowdedness.UNCROWDED),
            (Definiteness.OPEN_SPACE, Crowdedness.CROWDED),
            (Definiteness.NEAR_WALL, Crowdedness.UNCROWDED),
            (Definiteness.NEAR_WALL, Crowdedness.CROWDED),
        ):
            ctx = SpatialContext(*key)
            for _ in range(100):
                cand = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if cand == user.position:
                    continue
                score = ingroup(cand, user, ctx)
                assert score in (0.0, 0.2, 0.6, 1.0)


def best_arrangement(candidate, user, context):
    """`ingroup_choice`'s arrangement and preference at one candidate."""
    _, preference, arrangement = ingroup_choice(np.array([[candidate.x, candidate.y]]), user, context, CONFIG)
    return arrangement[0], float(preference[0])


class TestBestArrangement:
    def test_tie_prefers_more_closed(self):
        user = Pose(Vec2(0, 0), 0.0)
        ctx = SpatialContext(Definiteness.NEAR_WALL, Crowdedness.UNCROWDED)
        # alpha = 0: feasible {closed, L}; both score 0.6 near a wall uncrowded
        arrangement, score = best_arrangement(Vec2(1.0, 0.0), user, ctx)
        assert arrangement is ArrangementType.CLOSED
        assert score == 0.6

    def test_no_formation(self):
        user = Pose(Vec2(0, 0), 0.0)
        ctx = SpatialContext(Definiteness.OPEN_SPACE, Crowdedness.UNCROWDED)
        arrangement, score = best_arrangement(Vec2(-1.0, 0.0), user, ctx)
        assert arrangement is None and score == 0.0
