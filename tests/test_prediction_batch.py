"""The crowd-wide prediction against the scalar, one-pedestrian-at-a-time path.

`make_snapshot` predicts every tracked row of the crowd in one array pass.
On every check tick of two trials, and on hand-built scenes that force the
rare branches, its tracked ids, horizon and sample points must equal
`oracles.oracle_snapshot` bit for bit.
"""

import math

import numpy as np
import pytest

from crowds import PedestrianState, crowd_of, states_of
from oracles import oracle_course, oracle_snapshot, oracle_trajectory
from vhsim import planner
from vhsim.geometry import Pose, Segment, Vec2
from vhsim.prediction import Phase, anticipated_pedestrians, predict_trajectory, prediction_horizon
from vhsim.simulation import ScenarioConfig, run_trial

CONFIG = ScenarioConfig()


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("environment", ["square20", "passage"])
def test_every_check_tick_matches_the_scalar_path(environment, monkeypatch):
    original = planner.make_snapshot
    kinds: dict[str, int] = {}
    checks = []

    def checked(user, vh, crowd, config):
        snap = original(user, vh, crowd, config)
        ids, horizon, points = oracle_snapshot(crowd, user.position, vh.position, config)
        got = snap.trajectories
        assert got.ids.tolist() == ids
        assert (bits(got.points) == bits(points)).all()
        states = states_of(crowd)
        if ids:
            dyad = Segment(user.position, vh.position)
            rows = anticipated_pedestrians(crowd.position, dyad, config)
            got_horizon = max(prediction_horizon(crowd.position[rows], crowd.velocity[rows], dyad,
                                                 config.c_space_radius, config.horizon_cap), config.dt)
            assert bits([got_horizon]) == bits([horizon])
            times = oracle_trajectory(states[ids[0]], user.position, horizon, config.dt, config)[0]
            assert (bits(np.arange(got.points.shape[0] // len(ids)) * config.dt) == bits(times)).all()
        for i in ids:
            kind = oracle_course(states[i], user.position, config)[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        checks.append(len(ids))
        return snap

    monkeypatch.setattr(planner, "make_snapshot", checked)
    run_trial(ScenarioConfig(environment=environment, density=0.25, condition="proposed", duration=120.0, seed=1))
    assert len(checks) == 240 and sum(checks) > 0
    assert {"straight", "detour ahead", "detour now", "avoiding", "returning"} <= set(kinds), kinds


def ped(pid, position, velocity, goal=(30.0, 0.0), phase=Phase.DIRECT, waypoint=None) -> PedestrianState:
    return PedestrianState(id=pid, position=Vec2(*position), velocity=Vec2(*velocity), goal=Vec2(*goal),
                           preferred_speed=math.hypot(*velocity), phase=phase,
                           waypoint=None if waypoint is None else Vec2(*waypoint))


def hand_built_scene() -> list[PedestrianState]:
    """One row of each kind the prediction branches on, the user at the origin."""
    return [
        ped(0, (2.0, 1.0), (0.0, 0.0)),  # standing still
        ped(1, (2.0, -1.0), (5e-324, 0.0)),  # slower than STATIONARY_SPEED
        ped(2, (-5.0, 2.0), (1.2, 0.0)),  # straight, passing wide
        ped(3, (3.0, 0.1), (1.1, 0.0)),  # straight, walking away
        ped(4, (-5.0, 0.1), (1.3, 0.0)),  # detour ahead
        ped(5, (-1.2, 0.05), (1.0, 0.0)),  # detour now: inside the start range
        ped(6, (-0.6, -0.9), (0.9, 0.6), phase=Phase.AVOIDING, waypoint=(0.5, -0.8)),
        ped(7, (0.5, -0.8), (0.9, 0.6), phase=Phase.AVOIDING, waypoint=(0.5 + 4e-10, -0.8)),  # at its waypoint
        ped(8, (-4.0, 0.1), (1.2, 0.0), phase=Phase.AVOIDING),  # avoiding without a waypoint: detour rule
        ped(9, (1.0, 0.7), (1.2, 0.1), phase=Phase.RETURNING),
    ]


def test_hand_built_rows_match_the_scalar_path():
    peds = hand_built_scene()
    user = Vec2(0.0, 0.0)
    crowd = crowd_of(peds)
    kinds = [oracle_course(p, user, CONFIG)[0] for p in peds]
    assert kinds == ["stationary", "stationary", "straight", "straight", "detour ahead", "detour now",
                     "avoiding", "avoiding", "detour ahead", "returning"]
    got = predict_trajectory(crowd, np.arange(len(peds)), user, 6.0, 0.1, CONFIG)
    assert got.ids.size == len(peds) and got.ids.tolist() == list(range(len(peds)))
    for p, view in zip(peds, got):
        times, points = oracle_trajectory(p, user, 6.0, 0.1, CONFIG)
        assert (bits(np.arange(len(view.points)) * 0.1) == bits(times)).all()
        assert (bits(view.points) == bits(points)).all(), f"pedestrian {p.id} ({kinds[p.id]})"
    assert (got[0].points == (2.0, 1.0)).all() and (got[1].points == (2.0, -1.0)).all()


def test_hand_built_snapshot_matches_the_scalar_path():
    crowd = crowd_of(hand_built_scene())
    user, vh = Vec2(0.0, 0.0), Vec2(0.0, 1.5)
    snap = planner.make_snapshot(Pose(user, 0.0), Pose(vh, 0.0), crowd, CONFIG)
    ids, horizon, points = oracle_snapshot(crowd, user, vh, CONFIG)
    assert snap.trajectories.ids.tolist() == ids and horizon == 4.0  # a stationary row inside the disc
    assert (bits(snap.trajectories.points) == bits(points)).all()
