"""`pcg.PCG64Stream` against the numpy `Generator` it replaces.

Each stream must give, draw for draw and bit for bit, what
`Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(ped_id,))))` gives,
so that the crowd, and every output of a trial, stays what it was when the
pedestrians drew from numpy.
"""

import copy
import random

import numpy as np
import pytest

from vhsim import simulation
from vhsim.pcg import PCG64Stream
from vhsim.simulation import ScenarioConfig, spawn_flow

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)
IDS = (0, 1, 999)


def numpy_stream(seed: int, ped_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(ped_id,))))


def draws(stream, kinds: list[int]) -> list:
    """One draw per entry of `kinds`: 0 a uniform, else integers(kind)."""
    return [float(stream.uniform(-3.0, 17.5)) if k == 0 else int(stream.integers(k)) for k in kinds]


def mixed_kinds(rng: random.Random, count: int = 240) -> list[int]:
    # runs of integers leave half a 64-bit output buffered across the uniforms
    return [rng.choice((0, 2, 5, 0, 2)) for _ in range(count)]


@pytest.mark.parametrize("ped_id", IDS)
@pytest.mark.parametrize("seed", EDGE_SEEDS + tuple(random.Random(2014).randrange(2**63) for _ in range(3)))
def test_matches_numpy_generator(seed, ped_id):
    kinds = mixed_kinds(random.Random(seed ^ ped_id))
    got, want = draws(PCG64Stream(seed, ped_id), kinds), draws(numpy_stream(seed, ped_id), kinds)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert got == want


def test_one_outcome_draws_nothing():
    kinds = [2, 1, 0, 1, 5, 1, 1, 0]
    assert draws(PCG64Stream(3, 4), kinds) == draws(numpy_stream(3, 4), kinds)
    assert PCG64Stream(3, 4).integers(1) == 0


@pytest.mark.parametrize("n", (0, -1, 2**32))
def test_rejects_an_empty_or_too_wide_range(n):
    with pytest.raises(ValueError):
        PCG64Stream(1, 0).integers(n)


class Scripted(PCG64Stream):
    """A stream whose 32-bit outputs are given."""

    def __init__(self, words):
        super().__init__(1, 0)
        self.words = list(words)

    def _next32(self):
        return self.words.pop(0)


def test_lemire_rejects_below_the_threshold():
    # for n = 5 the threshold is (2**32 - 5) % 5 = 1: the output 0 leaves 0,
    # which is rejected; 7 leaves 35 and is kept, giving 35 >> 32 = 0
    stream = Scripted([0, 7, 2**32 - 1])
    assert stream.integers(5) == 0
    assert stream.words == [2**32 - 1]
    assert stream.integers(5) == 4  # (2**32 - 1) * 5 >> 32, with no redraw
    assert stream.words == []


def test_first_draws_of_seed_1_pedestrian_0():
    # pinned, so that the reference itself cannot move with a numpy release
    stream = PCG64Stream(1, 0)
    assert stream.uniform(0.0, 20.0) == 13.980690948736713
    assert stream.uniform(0.0, 20.0) == 3.4867104274619165
    assert stream.integers(2) == 1
    assert stream.integers(5) == 3
    assert stream.uniform(0.0, 1.0) == 0.3202023865997371
    assert stream.integers(5) == 1


def test_deepcopy_continues_identically():
    stream = PCG64Stream(7, 11)
    stream.integers(2)  # leaves half an output buffered
    twin = copy.deepcopy(stream)
    kinds = mixed_kinds(random.Random(5), 60)
    assert draws(twin, kinds) == draws(stream, kinds)


def test_crowd_is_what_numpy_streams_give(monkeypatch):
    config = ScenarioConfig(environment="square20", density=0.25, seed=1)
    ours = spawn_flow(config)
    monkeypatch.setattr(simulation, "_pedestrian_rng", numpy_stream)
    theirs = spawn_flow(config)
    assert isinstance(theirs.rngs[0], np.random.Generator)
    user, _ = config.initial_poses()

    def rows(crowd):
        return np.column_stack([crowd.position, crowd.velocity, crowd.goal, crowd.speed, crowd.phase,
                                crowd.waypoint]).view(np.uint64)

    assert (rows(ours) == rows(theirs)).all()
    rerolls = 0
    for tick in range(6000):
        goals = ours.goal.copy()
        ours.step(user.position)
        theirs.step(user.position)
        rerolls += int((ours.goal != goals).any(axis=1).sum())
        assert (rows(ours) == rows(theirs)).all(), f"tick {tick}"
    assert rerolls > 100
