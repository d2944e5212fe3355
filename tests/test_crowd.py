"""The array crowd against the scalar loop it replaces.

`Crowd.step` must leave every pedestrian exactly where `step_pedestrian` and
the goal re-roll of `oracles.oracle_crowd_tick` leave it: positions,
velocities, goals, phases and waypoints are compared bit for bit after every
tick. The hand-built scenes each force one of the scalar routes: a dodge
trigger at exactly the start range, a waypoint arrival, a RETURNING row on
the start-range boundary, a row standing on its goal (with or without a
velocity) and a goal within one step.
"""

import copy
import math

import numpy as np
import pytest

from crowds import PedestrianState, crowd_of
from oracles import oracle_crowd_tick
from vhsim import simulation
from vhsim.geometry import Vec2, hypot
from vhsim.prediction import Phase
from vhsim.simulation import GOAL_DEPTH, Crowd, ScenarioConfig, spawn_flow

CONFIG = ScenarioConfig()
ORIGIN = Vec2(0.0, 0.0)


def crowd_rows(crowd: Crowd) -> np.ndarray:
    return np.column_stack([crowd.position, crowd.velocity, crowd.goal, crowd.phase, crowd.waypoint])


def run_pair(crowd: Crowd, oracle: Crowd, user: Vec2, ticks: int) -> None:
    """Step the crowd and the oracle's copy of it, comparing every row after each tick."""
    for tick in range(ticks):
        crowd.step(user)
        oracle_crowd_tick(oracle, user)
        got, want = crowd_rows(crowd).view(np.uint64), crowd_rows(oracle).view(np.uint64)
        bad = np.nonzero((got != want).any(axis=1))[0]
        if bad.size:
            pytest.fail(f"tick {tick}: pedestrians {bad.tolist()} differ:\n"
                        f"{crowd_rows(crowd)[bad]}\nscalar loop:\n{crowd_rows(oracle)[bad]}")


@pytest.fixture
def scalar_calls(monkeypatch):
    """Count the crowd's calls of the scalar rule (the oracle holds its own reference)."""
    calls = []
    original = simulation.step_pedestrian

    def counted(crowd, i, *args):
        calls.append(i)
        return original(crowd, i, *args)

    monkeypatch.setattr(simulation, "step_pedestrian", counted)
    return calls


@pytest.mark.parametrize("environment", ["square20", "passage"])
def test_matches_scalar_loop_for_6000_ticks(environment, scalar_calls):
    cfg = ScenarioConfig(environment=environment, density=0.25, seed=1)
    user, _ = cfg.initial_poses()
    crowd = spawn_flow(cfg)
    oracle = copy.deepcopy(crowd)
    ticks = 6000
    run_pair(crowd, oracle, user.position, ticks)
    # the scalar rule ran, but only on the few ticks where a phase could change
    assert 0 < len(scalar_calls) <= 0.02 * len(crowd) * ticks


@pytest.mark.parametrize("environment", ["square20", "passage"])
def test_every_new_goal_lies_in_the_other_band(environment):
    # read from the goals alone: a goal in the top band (y >= height -
    # GOAL_DEPTH) is followed by one in the bottom band, and the other way
    cfg = ScenarioConfig(environment=environment, density=0.25, seed=1)
    height = cfg.build_environment().height
    user, _ = cfg.initial_poses()
    crowd = spawn_flow(cfg)
    changes = 0
    for tick in range(6000):
        before = crowd.goal[:, 1].copy()
        crowd.step(user.position)
        changed = (crowd.goal[:, 1] != before).nonzero()[0]
        was_top, now_y = before[changed] >= height - GOAL_DEPTH, crowd.goal[changed, 1]
        assert np.where(was_top, now_y < GOAL_DEPTH, now_y >= height - GOAL_DEPTH).all(), f"tick {tick}"
        changes += changed.size
    assert changes > 100


def scene(*states: PedestrianState, goal_tolerance: float = 0.3) -> tuple[Crowd, Crowd]:
    """A crowd of the given pedestrians plus a straight walker far from the
    user, in a 20 m square whose goal boxes take the re-rolls, and the
    oracle's copy of it."""
    extra = PedestrianState(id=len(states), position=Vec2(15.0, 2.0), velocity=Vec2(0.0, 1.3),
                            goal=Vec2(15.0, 19.7), preferred_speed=1.3)
    peds = list(states) + [extra]
    rngs = [np.random.default_rng(i) for i in range(len(peds))]
    crowd = crowd_of(peds, rngs, ScenarioConfig(environment="square20", goal_tolerance=goal_tolerance))
    return crowd, copy.deepcopy(crowd)


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
    assert math.hypot(dx, dy) == CONFIG.start_avoidance_distance < np.abs(complex(dx, dy))
    crowd, oracle = scene(walker((-dx, -dy), (2.0 * dx, 2.0 * dy)))
    run_pair(crowd, oracle, ORIGIN, 1)
    assert scalar_calls == [0] and crowd.phase[0] == Phase.AVOIDING
    run_pair(crowd, oracle, ORIGIN, 60)  # on through the detour and back
    assert crowd.phase[0] == Phase.DIRECT


def test_waypoint_arrival_with_leftover_step(scalar_calls):
    crowd, oracle = scene(walker((0.5, -0.8), (10.0, -0.8), phase=Phase.AVOIDING, waypoint=(0.55, -0.8)))
    run_pair(crowd, oracle, ORIGIN, 1)
    assert scalar_calls == [0] and crowd.phase[0] == Phase.RETURNING
    assert crowd.position[0, 0] > 0.55  # spent the leftover toward the goal


def test_returning_on_the_start_range_boundary(scalar_calls):
    # exactly at the start range by math.hypot, so still RETURNING; the
    # crowd's routing distance reads one ulp beyond it
    x, y = 1.376165892632652, 1.4512640820865705
    assert math.hypot(x, y) == CONFIG.start_avoidance_distance < np.abs(complex(-x, -y))
    crowd, oracle = scene(walker((x, y), (5.0 * x, 5.0 * y), phase=Phase.RETURNING))
    run_pair(crowd, oracle, ORIGIN, 1)
    assert scalar_calls == [0] and crowd.phase[0] == Phase.RETURNING
    run_pair(crowd, oracle, ORIGIN, 1)
    assert crowd.phase[0] == Phase.DIRECT


def test_standing_on_its_goal(scalar_calls):
    crowd, oracle = scene(walker((5.0, 5.0), (5.0, 5.0), velocity=(0.6, -0.8)))
    goal = crowd.goal[0].copy()
    run_pair(crowd, oracle, ORIGIN, 1)
    assert scalar_calls == [0] and not np.array_equal(crowd.goal[0], goal)  # re-rolled
    run_pair(crowd, oracle, ORIGIN, 30)


def test_goal_within_one_step(scalar_calls):
    # a goal tolerance shorter than a step lets a walker come within one step
    # of its goal; the scalar rule puts it on the goal, which is re-rolled
    crowd, oracle = scene(walker((5.0, 5.0), (5.0, 5.05)), goal_tolerance=0.0)
    assert crowd.speed[0] * CONFIG.dt == pytest.approx(0.12)
    goal = crowd.goal[0].copy()
    run_pair(crowd, oracle, ORIGIN, 1)
    assert scalar_calls == [0] and not np.array_equal(crowd.goal[0], goal)  # re-rolled
    run_pair(crowd, oracle, ORIGIN, 30)


def test_zero_spawn_velocity(scalar_calls):
    # spawned on its goal, so the spawn leaves its velocity at zero
    crowd, oracle = scene(walker((5.0, 5.0), (5.0, 5.0), velocity=(0.0, 0.0)), goal_tolerance=0.0)
    run_pair(crowd, oracle, ORIGIN, 1)
    assert scalar_calls == [0] and crowd.velocity[0].tolist() == [0.0, 0.0]
    run_pair(crowd, oracle, ORIGIN, 30)


def test_mid_field_goal_rerolls_into_the_top_band():
    # only a hand-built row can hold a goal in neither band; like any goal
    # outside the top band, it is followed by one in the top band
    crowd, oracle = scene(walker((5.0, 5.0), (5.0, 5.1)))
    run_pair(crowd, oracle, ORIGIN, 1)
    assert crowd.goal[0, 1] >= 20.0 - GOAL_DEPTH


def test_avoiding_without_a_waypoint_heads_for_its_goal():
    # the scalar rule heads for the goal while no waypoint is set; only a
    # hand-built row can be AVOIDING without one
    crowd = crowd_of([walker((5.0, 5.0), (10.0, 5.0), phase=Phase.AVOIDING)])
    oracle = copy.deepcopy(crowd)
    run_pair(crowd, oracle, ORIGIN, 1)
    assert crowd.position.tolist() == [[5.0 + 1.2 * CONFIG.dt, 5.0]]


def test_distance_helper_is_math_hypot_where_numpy_is_not():
    rng = np.random.default_rng(20261018)
    x, y = rng.uniform(-30.0, 30.0, (2, 20_000))
    exact = np.array([math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])
    trap = np.hypot(x, y) != exact
    assert trap.any(), "no input separates np.hypot from math.hypot; the test has lost its teeth"
    assert (hypot(x[trap], y[trap]) == exact[trap]).all()
    assert (hypot(x, y) == exact).all()


def test_step_leaves_earlier_position_arrays_unchanged(scalar_calls):
    # run_trial keeps a block of past position arrays by reference, not by copy
    cfg = ScenarioConfig(environment="square12", density=0.25, seed=2)
    user, _ = cfg.initial_poses()
    crowd = spawn_flow(cfg)
    kept, copies = [], []
    for _ in range(300):  # long enough for dodges, waypoint arrivals and goal re-rolls
        crowd.step(user.position)
        assert all(crowd.position is not earlier for earlier in kept)
        kept.append(crowd.position)
        copies.append(crowd.position.copy())
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(kept, copies))
    assert scalar_calls  # the scalar route, which writes rows of the new array, ran
