"""Conflict-avoidance behavior planning and crowd simulation for a virtual
human sharing a public space with pedestrians who cannot see it."""

from .geometry import Environment, Pose, Segment, Vec2
from .prediction import Phase, Prediction
from .proxemics import ArrangementType, SpatialContext
from .planner import ConflictAvoidancePlanner, Decision
from .simulation import (
    ScenarioConfig,
    TrialMetrics,
    reduction_ratio,
    run_trial,
    spawn_flow,
)
from .cli import ResultRow, parse_scenario, run_ablation, run_matrix

__version__ = "0.1.0"
