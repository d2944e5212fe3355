"""Hand-written pedestrians and sample paths as the arrays the planner reads,
seeded random planner scenes, walled test scenarios, and scalar views of a
predicted path."""

import math
from dataclasses import dataclass, replace

import numpy as np

from vhsim.geometry import Pose, Vec2, hypot
from vhsim.planner import PlanningSnapshot, make_snapshot
from vhsim.prediction import Phase, Prediction, predict_trajectory
from vhsim.proxemics import SpatialContext
from vhsim.simulation import Crowd, ScenarioConfig, step_pedestrian


@dataclass
class PedestrianState:
    """One pedestrian of a hand-written scene, as a row of a `Crowd` holds it."""

    id: int
    position: Vec2
    velocity: Vec2
    goal: Vec2
    preferred_speed: float
    phase: Phase = Phase.DIRECT
    waypoint: Vec2 | None = None


# What a hand-written crowd reads unless given its own; it is frozen.
DEFAULT_CONFIG = ScenarioConfig(goal_tolerance=0.0)


def crowd_of(pedestrians: list[PedestrianState], rngs=None, config=None) -> Crowd:
    """A crowd whose row i is pedestrians[i]; their ids must be 0..n-1."""
    n = len(pedestrians)
    assert [p.id for p in pedestrians] == list(range(n)), "ids must equal the row indices"

    def column(name: str) -> np.ndarray:
        return np.array([(getattr(p, name).x, getattr(p, name).y) for p in pedestrians], float).reshape(n, 2)

    crowd = Crowd(
        column("position"), column("velocity"), column("goal"),
        np.array([p.preferred_speed for p in pedestrians], float),
        rngs or [None] * n, config or DEFAULT_CONFIG,
    )
    for i, p in enumerate(pedestrians):
        crowd.phase[i] = p.phase
        if p.waypoint is not None:
            crowd.waypoint[i] = p.waypoint.x, p.waypoint.y
    return crowd


def crowd_of_one(ped: PedestrianState, config=None) -> Crowd:
    """A one-row crowd holding `ped`, whatever its id."""
    return crowd_of([replace(ped, id=0)], config=config)


def states_of(crowd: Crowd) -> list[PedestrianState]:
    """Every pedestrian of the crowd as a `PedestrianState`, in row order."""
    states = []
    for i in range(len(crowd)):
        (x, y), (vx, vy), (gx, gy), (wx, wy) = (
            a[i].tolist() for a in (crowd.position, crowd.velocity, crowd.goal, crowd.waypoint))
        states.append(PedestrianState(i, Vec2(x, y), Vec2(vx, vy), Vec2(gx, gy), float(crowd.speed[i]),
                                      Phase(crowd.phase[i]), None if math.isnan(wx) else Vec2(wx, wy)))
    return states


def step_state(ped: PedestrianState, user: Vec2, config: ScenarioConfig) -> PedestrianState:
    """`ped` one tick on, by the crowd's scalar dodge rule `step_pedestrian`."""
    crowd = crowd_of_one(ped, config=config)
    crowd.position[0], crowd.velocity[0], crowd.phase[0], crowd.waypoint[0] = step_pedestrian(crowd, 0, user)
    return replace(states_of(crowd)[0], id=ped.id)


def positions_of(pedestrians: list[PedestrianState]) -> np.ndarray:
    return np.array([(p.position.x, p.position.y) for p in pedestrians], float).reshape(len(pedestrians), 2)


def predict_one(ped: PedestrianState, user: Vec2, horizon: float, dt: float,
                config: ScenarioConfig) -> Prediction:
    """One pedestrian's predicted path, through the crowd-wide prediction."""
    return predict_trajectory(crowd_of_one(ped), np.array([0]), user, horizon, dt, config)[0]


def prediction_of(*paths, ids=None) -> Prediction:
    """A prediction holding the given sample paths, which must be equally
    long; ids default to 0, 1, ..."""
    points = np.array(paths, float).reshape(-1, 2)
    ids = np.arange(len(paths)) if ids is None else np.array(ids, int)
    return Prediction(ids, points)


def samples_of(traj: Prediction, dt: float) -> list[tuple[float, Vec2]]:
    """The path's (time, position) samples as scalars, the path predicted at
    step dt."""
    times = np.arange(len(traj.points)) * dt
    return [(float(t), Vec2(float(p[0]), float(p[1]))) for t, p in zip(times, traj.points)]


def d_min_of(traj: Prediction, user: Vec2) -> float:
    """The path's closest predicted approach to the user."""
    return float(hypot(traj.points[:, 0] - user.x, traj.points[:, 1] - user.y).min())


# Walled scenes beside the passage: a wide one, whose walls are its short
# edges, and a narrow one whose candidates may touch the walls.
WALLED = {
    "wide": ScenarioConfig(environment="custom", env_width=20.0, env_height=4.3, env_side_walls=True),
    "narrow-no-clearance": ScenarioConfig(environment="custom", env_width=2.5, env_height=15.3,
                                          env_side_walls=True, wall_clearance=0.0),
}


def random_scene(rng, config: ScenarioConfig) -> tuple[PlanningSnapshot, SpatialContext]:
    """A user at 8-12 m on both axes, the agent 0.6-1.5 m away, 1-6
    pedestrians walking within 5 m of the user, and a random context. In a
    20 m square every candidate around the user lies inside."""
    user = Pose(Vec2(rng.uniform(8, 12), rng.uniform(8, 12)), rng.uniform(0, 2 * math.pi))
    angle = rng.uniform(0, 2 * math.pi)
    r = rng.uniform(0.6, 1.5)
    vh = Pose(user.position + Vec2(r * math.cos(angle), r * math.sin(angle)), rng.uniform(0, 2 * math.pi))
    peds = []
    for pid in range(rng.randint(1, 6)):
        px = user.position.x + rng.uniform(-5, 5)
        py = user.position.y + rng.uniform(-5, 5)
        speed = rng.uniform(1.0, 1.5)
        heading = rng.uniform(0, 2 * math.pi)
        peds.append(PedestrianState(
            id=pid, position=Vec2(px, py),
            velocity=Vec2(speed * math.cos(heading), speed * math.sin(heading)),
            goal=Vec2(px + 20 * math.cos(heading), py + 20 * math.sin(heading)),
            preferred_speed=speed,
        ))
    snapshot = make_snapshot(user, vh, crowd_of(peds), config)
    return snapshot, SpatialContext(rng.choice([False, True]), rng.choice([False, True]))
