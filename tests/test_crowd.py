"""The array crowd against the scalar loop it replaces.

`Crowd.step` must leave every pedestrian exactly where `step_pedestrian` and
the goal re-roll of `oracles.oracle_crowd_tick` leave it: positions,
velocities, goals, phases and waypoints are compared bit for bit after every
tick. The hand-built scenes each force one of the scalar routes.
"""

import copy
import math

import numpy as np
import pytest

from oracles import OracleWalker, oracle_crowd_tick
from vhsim import simulation
from vhsim.geometry import Segment, Vec2, open_square
from vhsim.prediction import AvoidanceParams, PedestrianState, Phase
from vhsim.simulation import Crowd, ScenarioConfig, _hypot, _spawn_crowd

AVOID = AvoidanceParams()
PHASE_CODE = {Phase.DIRECT: 0, Phase.AVOIDING: 1, Phase.RETURNING: 2}
ORIGIN = Vec2(0.0, 0.0)


def crowd_rows(crowd: Crowd) -> np.ndarray:
    return np.column_stack([crowd.position, crowd.velocity, crowd.goal, crowd.phase, crowd.waypoint])


def oracle_rows(walkers: list[OracleWalker]) -> np.ndarray:
    rows = []
    for w in walkers:
        s = w.state
        wp = s.waypoint or Vec2(math.nan, math.nan)
        rows.append((s.position.x, s.position.y, s.velocity.x, s.velocity.y, s.goal.x, s.goal.y,
                     PHASE_CODE[s.phase], wp.x, wp.y))
    return np.array(rows, float).reshape(len(walkers), 9)


def run_pair(crowd: Crowd, walkers: list[OracleWalker], user: Vec2, ticks: int) -> None:
    for tick in range(ticks):
        crowd.step(user)
        oracle_crowd_tick(walkers, user, crowd.env, crowd.dt, crowd.avoid, crowd.goal_tolerance)
        got, want = crowd_rows(crowd).view(np.uint64), oracle_rows(walkers).view(np.uint64)
        bad = np.nonzero((got != want).any(axis=1))[0]
        if bad.size:
            pytest.fail(f"tick {tick}: pedestrians {bad.tolist()} differ:\n"
                        f"{crowd_rows(crowd)[bad]}\nscalar loop:\n{oracle_rows(walkers)[bad]}")


@pytest.fixture
def scalar_calls(monkeypatch):
    """Count the crowd's calls of the scalar rule (the oracle holds its own reference)."""
    calls = []
    original = simulation.step_pedestrian

    def counted(ped, *args):
        calls.append(ped.id)
        return original(ped, *args)

    monkeypatch.setattr(simulation, "step_pedestrian", counted)
    return calls


@pytest.mark.parametrize("environment", ["square20", "passage"])
def test_matches_scalar_loop_for_6000_ticks(environment, scalar_calls):
    cfg = ScenarioConfig(environment=environment, density=0.25, seed=1)
    env = cfg.build_environment()
    user, vh = cfg.initial_poses(env)
    crowd = _spawn_crowd(cfg, env, Segment(user.position, vh.position))
    walkers = [OracleWalker(s, copy.deepcopy(rng), side)
               for s, rng, side in zip(crowd.states(), crowd.rngs, crowd.goal_side)]
    ticks = 6000
    run_pair(crowd, walkers, user.position, ticks)
    # the scalar rule ran, but only on the few ticks where a phase could change
    assert 0 < len(scalar_calls) <= 0.02 * len(crowd) * ticks


def scene(*states: PedestrianState, goal_tolerance: float = 0.3) -> tuple[Crowd, list[OracleWalker]]:
    """A crowd of the given pedestrians plus a straight walker far from the
    user, in a 20 m square whose goal boxes take the re-rolls."""
    extra = PedestrianState(id=len(states), position=Vec2(15.0, 2.0), velocity=Vec2(0.0, 1.3),
                            goal=Vec2(15.0, 19.7), preferred_speed=1.3)
    peds = list(states) + [extra]
    rngs = [np.random.default_rng(i) for i in range(len(peds))]
    crowd = Crowd(peds, rngs, [0] * len(peds), open_square(20.0), AVOID, 0.1, goal_tolerance)
    walkers = [OracleWalker(s, copy.deepcopy(rng), 0) for s, rng in zip(peds, rngs)]
    return crowd, walkers


def walker(position, goal, speed=1.2, phase=Phase.DIRECT, waypoint=None, velocity=None) -> PedestrianState:
    position, goal = Vec2(*position), Vec2(*goal)
    d = goal - position
    velocity = d * (speed / d.norm()) if velocity is None else Vec2(*velocity)
    return PedestrianState(id=0, position=position, velocity=velocity, goal=goal,
                           preferred_speed=speed, phase=phase,
                           waypoint=None if waypoint is None else Vec2(*waypoint))


def test_trigger_at_exactly_the_start_range(scalar_calls):
    # math.hypot puts the user exactly at the start range, so the scalar rule
    # triggers, where the crowd's routing distance (the modulus of the
    # complex offset) reads one ulp beyond it
    dx, dy = 1.7351907623351672, -0.9945416121544143
    assert math.hypot(dx, dy) == AVOID.start_avoidance < np.abs(complex(dx, dy))
    crowd, walkers = scene(walker((-dx, -dy), (2.0 * dx, 2.0 * dy)))
    run_pair(crowd, walkers, ORIGIN, 1)
    assert scalar_calls == [0] and crowd.phase[0] == PHASE_CODE[Phase.AVOIDING]
    run_pair(crowd, walkers, ORIGIN, 60)  # on through the detour and back
    assert crowd.phase[0] == PHASE_CODE[Phase.DIRECT]


def test_waypoint_arrival_with_leftover_step(scalar_calls):
    crowd, walkers = scene(walker((0.5, -0.8), (10.0, -0.8), phase=Phase.AVOIDING, waypoint=(0.55, -0.8)))
    run_pair(crowd, walkers, ORIGIN, 1)
    assert scalar_calls == [0] and crowd.phase[0] == PHASE_CODE[Phase.RETURNING]
    assert crowd.position[0, 0] > 0.55  # spent the leftover toward the goal


def test_returning_on_the_start_range_boundary(scalar_calls):
    # exactly at the start range by math.hypot, so still RETURNING; the
    # crowd's routing distance reads one ulp beyond it
    x, y = 1.376165892632652, 1.4512640820865705
    assert math.hypot(x, y) == AVOID.start_avoidance < np.abs(complex(-x, -y))
    crowd, walkers = scene(walker((x, y), (5.0 * x, 5.0 * y), phase=Phase.RETURNING))
    run_pair(crowd, walkers, ORIGIN, 1)
    assert scalar_calls == [0] and crowd.phase[0] == PHASE_CODE[Phase.RETURNING]
    run_pair(crowd, walkers, ORIGIN, 1)
    assert crowd.phase[0] == PHASE_CODE[Phase.DIRECT]


def test_standing_on_its_goal(scalar_calls):
    crowd, walkers = scene(walker((5.0, 5.0), (5.0, 5.0), velocity=(0.6, -0.8)))
    goal = crowd.goal[0].copy()
    run_pair(crowd, walkers, ORIGIN, 1)
    assert scalar_calls == [0] and not np.array_equal(crowd.goal[0], goal)  # re-rolled
    run_pair(crowd, walkers, ORIGIN, 30)


def test_zero_spawn_velocity(scalar_calls):
    # spawned on its goal, so the spawn leaves its velocity at zero
    crowd, walkers = scene(walker((5.0, 5.0), (5.0, 5.0), velocity=(0.0, 0.0)), goal_tolerance=0.0)
    run_pair(crowd, walkers, ORIGIN, 1)
    assert scalar_calls == [0] and crowd.velocity[0].tolist() == [0.0, 0.0]
    run_pair(crowd, walkers, ORIGIN, 30)


def test_distance_helper_is_math_hypot_where_numpy_is_not():
    rng = np.random.default_rng(20261018)
    x, y = rng.uniform(-30.0, 30.0, (2, 20_000))
    exact = np.array([math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])
    trap = np.hypot(x, y) != exact
    assert trap.any(), "no input separates np.hypot from math.hypot; the test has lost its teeth"
    assert (_hypot(x[trap], y[trap]) == exact[trap]).all()
    assert (_hypot(x, y) == exact).all()
