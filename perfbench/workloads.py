"""The benchmark's workloads, the layers it traces, and the output checks.

A workload is run in units: one unit is one call into vhsim's public entry
points (`simulation.run_trial` for a single trial, `cli.run_matrix` for the
paired matrix). Only that call is timed. Each unit yields one fingerprint per
trial: the trial's row as `cli.emit_csv` writes it, plus its decision count.
A unit that writes a trace sink also adds the SHA-256 of the trace file, so
what the write path writes is checked too. Fingerprints are compared with the
recorded ones in `references.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Trial seeds with recorded fingerprints. Seed 1 is the scenario default; the
# benchmark's --seed picks where a run starts in this rotation, and each unit
# of a run takes the next seed, so inputs stay checkable for any --seed.
REFERENCE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
FULL_DURATION = 600.0
# The matrix runs 8 trials per unit; at 600 s a unit takes about 19 s, so a
# run would time a single unit and its wall time would carry all of this
# shared machine's drift. At 120 s a run takes the median of about five units.
PAIRED_DURATION = 120.0
# Long enough that steady stepping, not cold start, is most of `setup_s`: a
# fresh process's first tenth of a second swung by up to 39% between sets of
# runs on a shared machine, while steady stepping swung by about 15%.
WARMUP_DURATION = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    environments: tuple[str, ...]
    densities: tuple[float, ...]
    condition: str | None  # None: cli.run_matrix with paired none/proposed trials
    trace_sink: bool = False
    duration: float = FULL_DURATION  # simulated seconds per trial

    @property
    def trials_per_unit(self) -> int:
        cells = len(self.environments) * len(self.densities)
        return cells if self.condition else 2 * cells


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 9's trial; most host time is in prediction, planner and
        # geometry, so changes to those layers show here.
        Workload("heavy_proposed", ("square20",), (0.25,), "proposed"),
        # Same crowd with the planner off: prediction, planner and proxemics
        # never run, so a planner-only change must leave this unchanged.
        Workload("crowd_none", ("square20",), (0.25,), "none"),
        # cli pairing over passage walls and low density, where the planner
        # triggers rarely and candidate generation costs more.
        Workload("paired_matrix", ("square20", "passage"), (0.05, 0.25), None,
                 duration=PAIRED_DURATION),
        # Criterion 8's scene with a trace sink: the trace write path.
        Workload("traced_trial", ("square12",), (0.15,), "proposed", trace_sink=True),
    )
}


def trial_seed(seed: int, unit: int) -> int:
    return REFERENCE_SEEDS[(seed + unit) % len(REFERENCE_SEEDS)]


def configs(vhsim, workload: Workload, seed: int, duration: float) -> list:
    """Every trial config one unit of the workload runs."""
    base = vhsim.ScenarioConfig(duration=duration, seed=seed)
    conditions = (workload.condition,) if workload.condition else ("none", "proposed")
    return [
        replace(base, environment=env, density=density, condition=condition)
        for env in workload.environments
        for density in workload.densities
        for condition in conditions
    ]


@dataclass
class Unit:
    seed: int
    seconds: float
    ticks: int
    fingerprints: dict[str, str] = field(default_factory=dict)


class _Sink:
    """Trace sink whose `write` the tracer can wrap."""

    def __init__(self, handle) -> None:
        self.write = handle.write


def _csv_line(cli, row, work_dir: Path) -> str:
    path = work_dir / "row.csv"
    cli.emit_csv([row], path)
    return path.read_text().splitlines()[1]


def _trial_row(cli, config, metrics):
    row = cli.ResultRow(
        environment=config.environment, density=config.density, axis="", value="",
        replicate=0, seed=config.seed, stable_pct=metrics.stable_percentage,
        mean_ingroup=metrics.mean_ingroup,
    )
    setattr(row, f"social_{config.condition}", metrics.social_conflicts)
    setattr(row, f"physicality_{config.condition}", metrics.physicality_conflicts)
    return row


def _label(environment: str, density: float, condition: str) -> str:
    return f"{environment}/{density:g}/{condition}"


@contextlib.contextmanager
def _decision_capture(cli):
    """Record each matrix trial's decision count as cli's run_trial returns it."""
    original = cli.run_trial
    seen: dict[str, int] = {}

    def run_trial(config, *args, **kwargs):
        metrics = original(config, *args, **kwargs)
        seen[_label(config.environment, config.density, config.condition)] = metrics.decision_count
        return metrics

    cli.run_trial = run_trial
    try:
        yield seen
    finally:
        cli.run_trial = original


def run_unit(vhsim, workload: Workload, seed: int, duration: float, work_dir: Path,
             tracer: Tracer | None = None) -> Unit:
    """Run one unit, timing only the call into vhsim, and fingerprint it."""
    cli, simulation = vhsim.cli, vhsim.simulation
    work_dir.mkdir(parents=True, exist_ok=True)
    cfgs = configs(vhsim, workload, seed, duration)
    ticks = sum(int(round(c.duration / c.dt)) for c in cfgs)
    unit = Unit(seed=seed, seconds=0.0, ticks=ticks)

    if workload.condition is None:
        base = vhsim.ScenarioConfig(duration=duration)
        with _decision_capture(cli) as decisions:
            start = time.perf_counter()
            rows = cli.run_matrix(
                base, list(workload.environments), list(workload.densities),
                replicates=1, seeds=[seed], jobs=1,
            )
            unit.seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.counters["cli.trials_requested"] += workload.trials_per_unit
        for row in rows:
            line = _csv_line(cli, row, work_dir)
            for condition in ("none", "proposed"):
                label = _label(row.environment, row.density, condition)
                unit.fingerprints[label] = f"{line};decision_count={decisions.get(label)}"
        return unit

    (config,) = cfgs
    trace_path = work_dir / "trace.jsonl"
    handle = trace_path.open("w") if workload.trace_sink else None
    sink = None
    if handle is not None:
        sink = _Sink(handle)
        if tracer is not None:
            tracer.wrap(sink, "write", "simulation.trace.write", hook=_count_bytes)
    try:
        start = time.perf_counter()
        metrics = simulation.run_trial(config, trace=sink)
        if handle is not None:
            handle.close()  # the final flush belongs to the write path
        unit.seconds = time.perf_counter() - start
    finally:
        if handle is not None:
            handle.close()
    line = _csv_line(cli, _trial_row(cli, config, metrics), work_dir)
    label = _label(config.environment, config.density, config.condition)
    fingerprint = f"{line};decision_count={metrics.decision_count}"
    if handle is not None:
        fingerprint += f";trace_sha256={hashlib.sha256(trace_path.read_bytes()).hexdigest()}"
    unit.fingerprints[label] = fingerprint
    return unit


def warm_up(vhsim, workload: Workload, seed: int) -> None:
    """Build the workload's configs and crowds and run one short trial."""
    cfgs = configs(vhsim, workload, seed, WARMUP_DURATION)
    for cfg in cfgs:
        vhsim.spawn_flow(cfg)
    vhsim.simulation.run_trial(cfgs[-1])


# ---------------------------------------------------------------- references

def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())


def check_unit(references: dict, workload: Workload, unit: Unit, duration: float) -> dict[str, str]:
    """A message for each trial whose fingerprint differs from the reference."""
    expected = references.get(f"{duration:g}", {}).get(workload.name, {}).get(str(unit.seed))
    if expected is None:
        return {label: f"workload={workload.name} trial seed={unit.seed} trial={label}: "
                       f"no reference recorded for duration {duration:g}"
                for label in unit.fingerprints}
    problems = {}
    for label in sorted(set(expected) | set(unit.fingerprints)):
        want, got = expected.get(label), unit.fingerprints.get(label)
        if want != got:
            problems[label] = (f"workload={workload.name} trial seed={unit.seed} trial={label}: "
                               f"expected {want!r}, got {got!r}")
    return problems


# -------------------------------------------------------------------- layers

def _count_bytes(counters, args, result):
    counters["simulation.trace.bytes"] += len(args[0])


def _count_events(counters, args, result):
    counters["simulation.events"] += len(result[0])


def _count_tracked(counters, args, result):
    counters["prediction.tracked"] += len(result)


def _count_samples(counters, args, result):
    counters["prediction.samples"] += result.points.shape[0]


def _count_candidates(counters, args, result):
    counters["planner.candidates"] += len(result)
    counters["planner.last_candidates"] = len(result)


def _count_decision(counters, args, result):
    if result[1] is None:
        return
    snapshot = args[0]
    samples = sum(t.points.shape[0] for t in snapshot.trajectories)
    counters["planner.decisions"] += 1
    counters["planner.score_cells"] += samples * counters["planner.last_candidates"]


# (module, attribute path, span name, counter hook). Each function is wrapped
# where its caller looks it up: prediction's functions through `planner`,
# which imports them by name, and the disc clip through `proxemics`.
LAYERS = (
    ("simulation", "run_trial", "simulation.run_trial", None),
    ("cli", "run_matrix", "cli.run_matrix", None),
    ("cli", "run_trial", "cli.run_trial", None),
    ("simulation", "step_pedestrian", "simulation.step_pedestrian", None),
    ("simulation", "detect_events", "simulation.detect_events", _count_events),
    ("simulation", "points_segment_distance", "comfort.points_segment_distance", None),
    ("planner", "ConflictAvoidancePlanner.update", "planner.update", None),
    ("planner", "make_snapshot", "planner.make_snapshot", None),
    ("planner", "anticipated_pedestrians", "prediction.anticipated_pedestrians", _count_tracked),
    ("planner", "prediction_horizon", "prediction.prediction_horizon", None),
    ("planner", "predict_trajectory", "prediction.predict_trajectory", _count_samples),
    ("planner", "plan_if_needed", "planner.plan_if_needed", _count_decision),
    ("planner", "detect_potential_conflict", "planner.detect_potential_conflict", None),
    ("planner", "points_segment_distance", "comfort.points_segment_distance", None),
    ("planner", "classify_spatial_context", "proxemics.classify_spatial_context", None),
    ("proxemics", "disc_rect_intersection_area", "geometry.disc_rect_intersection_area", None),
    ("planner", "generate_candidates", "planner.generate_candidates", _count_candidates),
    ("planner", "step_plan", "planner.step_plan", None),
)


def install_layers(tracer: Tracer, vhsim) -> None:
    for module_name, path, name, hook in LAYERS:
        owner = getattr(vhsim, module_name, None)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        tracer.wrap(owner, attr, name, hook=hook, new_trial=name.endswith(".run_trial"))
