import math
import random
from dataclasses import replace

import numpy as np
import pytest

from crowds import WALLED, PedestrianState, positions_of
from oracles import (
    PREFERENCE_ORACLE,
    RelativeAngles,
    classify_arrangement,
    context_preference,
    oracle_arrangement,
    oracle_ingroup,
    oracle_wall_distance,
    relative_angles,
)
from vhsim import proxemics
from vhsim.geometry import Pose, Segment, Vec2
from vhsim.planner import generate_candidates
from vhsim.proxemics import (
    ArrangementType,
    SpatialContext,
    agent_orientation_for,
    classify_spatial_context,
    ingroup_choice,
)
from vhsim.simulation import ScenarioConfig

CONFIG = ScenarioConfig()
PASSAGE = ScenarioConfig(environment="passage")
CTX_OPEN = SpatialContext(near_wall=False, crowded=False)
CONTEXTS = [SpatialContext(near_wall, crowded) for near_wall in (False, True) for crowded in (False, True)]


def arrangement_at(user, position, context=CTX_OPEN):
    """`ingroup_choice`'s best arrangement code at one position; -1 without a formation."""
    return int(ingroup_choice(np.array([[position.x, position.y]]), user, context, CONFIG)[2][0])


def formation_available(user, candidate):
    return arrangement_at(user, candidate.position) != -1


def feasible_set(user, position):
    """The arrangements `ingroup_choice` picks at a position across the four
    contexts. Each feasible arrangement is the favorite of some context, so
    this is the feasible set."""
    return {arrangement_at(user, position, ctx) for ctx in CONTEXTS} - {-1}


def arrangement_oracle(total: float) -> ArrangementType:
    # hand transcription of the three openness bands
    if 0 <= total <= 60:
        return ArrangementType.CLOSED
    if 60 < total < 120:
        return ArrangementType.L_SHAPED
    if 120 <= total <= 180:
        return ArrangementType.OPEN
    raise AssertionError(total)


class TestRelativeAngles:
    def test_facing_each_other(self):
        user = Pose(Vec2(0, 0), 0.0)
        agent = Pose(Vec2(2, 0), math.pi)
        angles = relative_angles(user, agent)
        assert angles.alpha == pytest.approx(0.0, abs=1e-9)
        assert angles.beta == pytest.approx(0.0, abs=1e-9)

    def test_user_facing_away(self):
        user = Pose(Vec2(0, 0), math.pi)
        agent = Pose(Vec2(2, 0), math.pi)
        assert relative_angles(user, agent).alpha == pytest.approx(180.0)

    def test_bearing_45(self):
        user = Pose(Vec2(0, 0), 0.0)
        agent = Pose(Vec2(1, 1), 0.0)
        assert relative_angles(user, agent).alpha == pytest.approx(45.0)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            relative_angles(Pose(Vec2(1, 1), 0.0), Pose(Vec2(1, 1), 1.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RelativeAngles(alpha=200.0, beta=0.0)


class TestFormationAvailability:
    def test_mid_distance_small_angle(self):
        user = Pose(Vec2(0, 0), math.radians(45))
        agent = Pose(Vec2(1, 0), 0.0)  # 1.0 m, alpha 45
        assert formation_available(user, agent)

    def test_too_close(self):
        user = Pose(Vec2(0, 0), 0.0)
        agent = Pose(Vec2(0.5, 0), 0.0)
        assert not formation_available(user, agent)

    def test_inclusive_far_bound_at_90(self):
        user = Pose(Vec2(0, 0), math.pi / 2)
        agent = Pose(Vec2(1.5, 0), 0.0)  # 1.5 m, alpha 90
        assert formation_available(user, agent)

    def test_rigid_motion_invariance(self):
        rng = random.Random(19)
        for _ in range(200):
            u = Pose(Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 6.28))
            a = Pose(Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 6.28))
            if u.position == a.position:
                continue
            before = formation_available(u, a)
            phi = rng.uniform(0, 2 * math.pi)
            shift = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            u2 = Pose(u.position.rotated(phi) + shift, u.orientation + phi)
            a2 = Pose(a.position.rotated(phi) + shift, a.orientation + phi)
            assert formation_available(u2, a2) == before


class TestArrangement:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            (30, 20, ArrangementType.CLOSED),
            (45, 45, ArrangementType.L_SHAPED),
            (90, 60, ArrangementType.OPEN),
            (0, 60, ArrangementType.CLOSED),
            (0, 120, ArrangementType.OPEN),
        ],
        ids=lambda v: f"ArrangementType.{v.name}" if isinstance(v, ArrangementType) else None,
    )
    def test_examples(self, alpha, beta, expected):
        assert classify_arrangement(RelativeAngles(alpha, beta)) == expected

    def test_exhaustive_against_oracle(self):
        for alpha in range(0, 181):
            for beta in range(0, 181 - alpha):
                got = classify_arrangement(RelativeAngles(float(alpha), float(beta)))
                assert got == arrangement_oracle(alpha + beta), (alpha, beta)

    def test_over_180_rejected(self):
        with pytest.raises(ValueError):
            classify_arrangement(RelativeAngles(100.0, 100.0))


class TestFeasibleArrangements:
    def test_alpha_zero(self):
        user = Pose(Vec2(0, 0), 0.0)
        got = feasible_set(user, Vec2(1.0, 0.0))
        assert got == {ArrangementType.CLOSED, ArrangementType.L_SHAPED}

    def test_alpha_ninety(self):
        user = Pose(Vec2(0, 0), math.pi / 2)
        got = feasible_set(user, Vec2(1.0, 0.0))
        assert got == {ArrangementType.L_SHAPED, ArrangementType.OPEN}

    def test_unavailable_is_empty(self):
        user = Pose(Vec2(0, 0), 0.0)
        assert feasible_set(user, Vec2(3.0, 0.0)) == set()

    def test_never_empty_when_available(self):
        rng = random.Random(23)
        for _ in range(300):
            user = Pose(Vec2(0, 0), rng.uniform(0, 2 * math.pi))
            r = rng.uniform(0.6, 1.5)
            theta = rng.uniform(0, 2 * math.pi)
            cand = Vec2(r * math.cos(theta), r * math.sin(theta))
            feas = feasible_set(user, cand)
            if oracle_ingroup(cand, user, CTX_OPEN, CONFIG) > 0.0:
                assert feas
            else:
                assert feas == set()

    def test_oracle_agrees_one_ulp_below_the_open_band(self):
        # alpha is 29.999999999999996 here, so open is not feasible and near
        # a wall, where open scores 1.0, the closed arrangement's 0.6 is best
        user = Pose(Vec2(0, 0), 0.0)
        cand = Vec2(0.8660254037844387, 0.49999999999999994)
        ctx = SpatialContext(near_wall=True, crowded=False)
        alpha, preference, arrangement = ingroup_choice(np.array([[cand.x, cand.y]]), user, ctx, CONFIG)
        assert alpha[0] < 30.0 and arrangement[0] == ArrangementType.CLOSED
        assert preference[0] == oracle_ingroup(cand, user, ctx, CONFIG) == 0.6


class TestArrangementCodes:
    def test_codes_are_integers(self):
        user = Pose(Vec2(0, 0), 0.0)
        arrangement = ingroup_choice(np.array([[1.0, 0.0], [3.0, 0.0]]), user, CTX_OPEN, CONFIG)[2]
        assert arrangement.dtype.kind == "i"
        assert arrangement.tolist() == [ArrangementType.CLOSED, -1]

    @pytest.mark.parametrize("orientation", [0.0, 1.0])
    @pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: f"near_wall={c.near_wall}-crowded={c.crowded}")
    def test_default_grid_matches_oracle(self, context, orientation):
        # the planner's grid around a user at the square's center, the agent
        # 1.2 m away: outside the formation bounds or behind the user, -1.
        # Facing +x, grid bearings fall on the 30 and 60 degree band edges.
        # (Facing +y, the oracle's trigonometry reads one of them an ulp below
        # 30 degrees and `ingroup_choice`'s an ulp above.)
        user = Pose(Vec2(6.0, 6.0), orientation)
        candidates = generate_candidates(user, Vec2(6.0, 7.2), CONFIG)
        arrangement = ingroup_choice(candidates, user, context, CONFIG)[2]
        expected = [oracle_arrangement(Vec2(*c), user, context, CONFIG) for c in candidates.tolist()]
        assert arrangement.tolist() == expected
        assert -1 in expected and {0, 1, 2} & set(expected)

    def test_no_formation_faces_the_user(self):
        user = Pose(Vec2(1.0, 2.0), 0.3)
        position = Vec2(3.0, 4.0)
        assert agent_orientation_for(user, position, -1, 45.0) == (user.position - position).angle()


class TestSpatialContext:
    def test_open_square_sparse(self):
        dyad = Segment(Vec2(10, 9.25), Vec2(10, 10.75))
        peds = [_ped(0, Vec2(1, 1)), _ped(1, Vec2(19, 19))]
        ctx = classify_spatial_context(dyad, positions_of(peds), ScenarioConfig(environment="square20"))
        assert ctx == SpatialContext(near_wall=False, crowded=False)

    def test_passage_dyad_across_corridor_is_near_wall(self):
        dyad = Segment(Vec2(0.75, 10.0), Vec2(2.25, 10.0))
        ctx = classify_spatial_context(dyad, positions_of([]), PASSAGE)
        # nearest wall at 0.75 m < 1.2 m personal space
        assert ctx.near_wall is True

    def test_passage_centerline_dyad_is_open_space(self):
        dyad = Segment(Vec2(1.5, 9.25), Vec2(1.5, 10.75))
        ctx = classify_spatial_context(dyad, positions_of([]), PASSAGE)
        # 1.5 m to both walls exceeds the 1.2 m threshold
        assert ctx.near_wall is False

    @pytest.mark.parametrize("config", [pytest.param(ScenarioConfig(environment="passage"), id="passage")]
                             + [pytest.param(config, id=name) for name, config in WALLED.items()])
    def test_near_wall_matches_segment_distance_bit_for_bit(self, config):
        # random dyads inside the environment; at a personal space equal to
        # the segment-to-wall distance the dyad is open space, one ulp above
        # it near the wall
        env = config.build_environment()
        rng = random.Random(23)
        none = positions_of([])
        for _ in range(300):
            a = Vec2(rng.uniform(0.0, env.width), rng.uniform(0.0, env.height))
            r, theta = rng.uniform(0.6, 1.5), rng.uniform(0.0, 2.0 * math.pi)
            b = Vec2(a.x + r * math.cos(theta), a.y + r * math.sin(theta))
            if not (0.0 < b.x < env.width and 0.0 < b.y < env.height):
                continue
            dyad = Segment(a, b)
            d = oracle_wall_distance(env, dyad)
            at = replace(config, personal_space=d)
            above = replace(config, personal_space=math.nextafter(d, math.inf))
            assert classify_spatial_context(dyad, none, at).near_wall is False
            assert classify_spatial_context(dyad, none, above).near_wall is True

    def test_crowded_at_quarter_density(self):
        dyad = Segment(Vec2(6, 5.25), Vec2(6, 6.75))
        rng = random.Random(31)
        # 0.25 p/m^2 over the whole square; the c-space disc sees about that
        peds = [
            _ped(i, Vec2(rng.uniform(0, 12), rng.uniform(0, 12)))
            for i in range(36)
        ]
        ctx = classify_spatial_context(dyad, positions_of(peds), CONFIG)
        assert ctx.crowded is True

    def test_empty_scene_uncrowded(self):
        dyad = Segment(Vec2(6, 5.25), Vec2(6, 6.75))
        ctx = classify_spatial_context(dyad, positions_of([]), CONFIG)
        assert ctx.crowded is False

    def test_count_inclusive_where_numpy_hypot_is_not(self):
        # exactly on the c-space circle by math.hypot, the distance the count
        # measures; np.hypot and sqrt(x*x + y*y) read one ulp beyond it. One
        # pedestrian in the clipped quarter disc (28.3 m^2) is crowded at a
        # threshold of 0.03 per m^2.
        x, y = 4.3438986187338715, 4.138906231139088
        assert math.hypot(x, y) == CONFIG.c_space_radius < np.hypot(x, y)
        assert CONFIG.c_space_radius < math.sqrt(x * x + y * y)
        config = ScenarioConfig(crowd_threshold=0.03)
        dyad = Segment(Vec2(0.0, -0.75), Vec2(0.0, 0.75))  # midpoint at the origin
        on_circle = classify_spatial_context(dyad, np.array([[x, y]]), config)
        beyond = classify_spatial_context(dyad, np.array([[math.nextafter(x, math.inf), y]]), config)
        assert on_circle.crowded is True
        assert beyond.crowded is False


class TestPreferenceTable:
    def test_all_cells_match_oracle(self):
        # the production table, indexed [near_wall][crowded][code]
        assert proxemics._PREFERENCE.shape == (2, 2, 3)
        for (near_wall, crowded), row in PREFERENCE_ORACLE.items():
            for arrangement in ArrangementType:
                assert proxemics._PREFERENCE[int(near_wall), int(crowded), arrangement] == row[arrangement]

    def test_values_are_the_three_levels(self):
        for key in PREFERENCE_ORACLE:
            ctx = SpatialContext(*key)
            for arrangement in ArrangementType:
                assert context_preference(ctx, arrangement) in (1.0, 0.6, 0.2)

    @pytest.mark.parametrize(
        "near_wall,crowded,arrangement,expected",
        [
            pytest.param(False, False, ArrangementType.CLOSED, 1.0, id="open_space-uncrowded-CLOSED-1.0"),
            pytest.param(False, True, ArrangementType.L_SHAPED, 1.0, id="open_space-crowded-L_SHAPED-1.0"),
            pytest.param(True, False, ArrangementType.OPEN, 1.0, id="near_wall-uncrowded-OPEN-1.0"),
            pytest.param(True, True, ArrangementType.CLOSED, 0.2, id="near_wall-crowded-CLOSED-0.2"),
        ],
    )
    def test_named_cells(self, near_wall, crowded, arrangement, expected):
        assert context_preference(SpatialContext(near_wall, crowded), arrangement) == expected


def _ped(pid: int, pos: Vec2) -> PedestrianState:
    return PedestrianState(
        id=pid, position=pos, velocity=Vec2(1.0, 0.0), goal=Vec2(0.0, 0.0), preferred_speed=1.0
    )
