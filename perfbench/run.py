"""vhsim benchmark: host time per simulated trial, checked against references.

Run from the repository root:

    python3 perfbench/run.py --workload heavy_proposed --seed 1 --seconds 20 --trace 0

With `--trace 0` it runs units of the workload back to back for about
`--seconds` seconds, with no instrumentation, and reports the end-to-end
metrics. With `--trace 1` it runs one unit untraced and the same unit again
under the span tracer, and reports the per-layer metrics. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` (trials
whose fingerprint differs from the reference, or which raised) and `metrics`.
vhsim is imported from `src/` next to this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
CRITERION_9_BUDGET_S = 10.0

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402

SETUP_PROBES = len(workloads.REFERENCE_SEEDS)  # one per trial seed

MODULES = ("simulation", "prediction", "planner", "proxemics", "geometry", "comfort", "cli")

# Per-layer metrics of a traced run: (name, unit). `<span>.calls` and
# `<span>.self_s` come from the span of that name; the rest are counters or
# derived below.
PER_LAYER = (
    ("simulation.run_trial.self_s", "s"),
    ("simulation.step_pedestrian.calls", "count"),
    ("simulation.step_pedestrian.self_s", "s"),
    ("simulation.detect_events.calls", "count"),
    ("simulation.detect_events.self_s", "s"),
    ("simulation.events", "count"),
    ("simulation.trace.bytes", "B"),
    ("simulation.trace.write_s", "s"),
    ("prediction.predict_trajectory.calls", "count"),
    ("prediction.predict_trajectory.self_s", "s"),
    ("prediction.samples", "count"),
    ("prediction.anticipated_pedestrians.self_s", "s"),
    ("prediction.tracked", "count"),
    ("prediction.prediction_horizon.self_s", "s"),
    ("planner.update.calls", "count"),
    ("planner.update.p50_ms", "ms"),
    ("planner.update.p99_ms", "ms"),
    ("planner.make_snapshot.self_s", "s"),
    ("planner.plan_if_needed.calls", "count"),
    ("planner.plan_if_needed.self_s", "s"),
    ("planner.decisions", "count"),
    ("planner.trigger_ratio", "ratio"),
    ("planner.score_cells", "count"),
    ("planner.generate_candidates.self_s", "s"),
    ("planner.candidates", "count"),
    ("planner.detect_potential_conflict.calls", "count"),
    ("planner.detect_potential_conflict.self_s", "s"),
    ("planner.step_plan.self_s", "s"),
    ("proxemics.classify_spatial_context.calls", "count"),
    ("proxemics.classify_spatial_context.self_s", "s"),
    ("geometry.disc_rect_intersection_area.calls", "count"),
    ("geometry.disc_rect_intersection_area.self_s", "s"),
    ("comfort.points_segment_distance.calls", "count"),
    ("comfort.points_segment_distance.self_s", "s"),
    ("cli.trials_requested", "count"),
    ("cli.trials_run", "count"),
    ("cli.run_trial.s", "s"),
    ("cli.run_matrix.self_s", "s"),
    *((f"{module}.self_s", "s") for module in MODULES),
    ("traced_wall_s", "s"),
    ("trace_overhead_s", "s"),
    ("trace.span_us", "us"),
    ("trace.tracer_s", "s"),
    ("trace.residual_s", "s"),
)

END_TO_END = (
    ("wall_s", "s"),
    ("ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def import_vhsim():
    """Import vhsim from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "vhsim" / "__init__.py").is_file():
        print(f"error: no vhsim package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vhsim
    import vhsim.cli
    import vhsim.simulation

    if Path(vhsim.__file__).resolve().parent != (SRC / "vhsim").resolve():
        print(f"error: imported vhsim from {vhsim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return vhsim


def machine_facts(vhsim) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "vhsim": vhsim.__version__,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds for a fresh interpreter to import vhsim, build the
    workload's configs and crowds, and finish a short warm-up trial.

    Each probe times itself from after its own start-up, when numpy is
    already imported. Interpreter start and numpy's import are not vhsim's
    work, and on a shared machine they swing from run to run by more than any
    bound could allow: numpy's import alone took 0.13 to 0.28 s on the
    2-vCPU machine of the baseline.

    Probe i warms up on the run's i-th trial seed, so the probes cover every
    reference seed once and the warm-up work is the same for every `seed`.
    """
    times = []
    for i in range(SETUP_PROBES):
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                   "--workload", workload, "--seed", str(seed + i)]
        done = subprocess.run(command, check=True, timeout=120, cwd=ROOT,
                              capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(vhsim, workload, seed, seconds, duration, references):
    """Untraced units back to back until the next would pass `seconds`."""
    units, problems, attempted = [], {}, 0
    start = time.perf_counter()
    while True:
        index = len(units)
        unit_seed = workloads.trial_seed(seed, index)
        attempted += workload.trials_per_unit
        try:
            unit = workloads.run_unit(vhsim, workload, unit_seed, duration, OUT / workload.name)
        except Exception:
            traceback.print_exc()
            for k in range(workload.trials_per_unit):
                problems[f"{index}:{k}"] = f"workload={workload.name} trial seed={unit_seed}: raised"
            break
        units.append(unit)
        for label, message in workloads.check_unit(references, workload, unit, duration).items():
            problems[f"{index}:{label}"] = message
        if time.perf_counter() - start + unit.seconds > seconds:
            break
    metrics = {}
    if units:
        wall = [u.seconds for u in units]
        metrics = {
            "wall_s": metric(statistics.median(wall), "s"),
            "ticks_per_s": metric(statistics.median(u.ticks / u.seconds for u in units), "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print("units: " + json.dumps({"trial_seeds": [u.seed for u in units],
                                      "wall_s": [round(w, 4) for w in wall]}))
    return metrics, attempted, problems


def run_traced(vhsim, workload, seed, duration, references):
    """One unit untraced, then the same unit traced; per-layer metrics."""
    unit_seed = workloads.trial_seed(seed, 0)
    work_dir = OUT / workload.name
    attempted = 2 * workload.trials_per_unit
    tracer = Tracer()
    try:
        plain = workloads.run_unit(vhsim, workload, unit_seed, duration, work_dir)
        workloads.install_layers(tracer, vhsim)
        try:
            traced = workloads.run_unit(vhsim, workload, unit_seed, duration, work_dir, tracer)
        finally:
            tracer.uninstall()
    except Exception:
        traceback.print_exc()
        message = f"workload={workload.name} trial seed={unit_seed}: raised"
        return {}, attempted, {str(k): message for k in range(attempted)}

    problems = {f"untraced:{label}": message for label, message
                in workloads.check_unit(references, workload, plain, duration).items()}
    for label, message in workloads.check_unit(references, workload, traced, duration).items():
        problems[f"traced:{label}"] = message
    for label, text in plain.fingerprints.items():
        if traced.fingerprints.get(label) != text:
            problems[f"traced:{label}"] = (
                f"workload={workload.name} trial seed={unit_seed} trial={label}: "
                f"traced run gave {traced.fingerprints.get(label)!r}, untraced {text!r}")
    if tracer.absent:
        print("absent layers: " + ", ".join(tracer.absent))
    tracer.write(OUT / f"spans-{workload.name}.npz")
    metrics = layer_metrics(tracer, traced.seconds, plain.seconds, span_cost())
    return metrics, attempted, problems


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                  cost: tuple[float, float]) -> dict:
    """Per-layer metrics, with the tracer's own cost (`cost`, from
    `span_cost`) taken out of every span's time and reported on its own."""
    outside, inside = cost
    spans = tracer.summary(outside, inside)
    # A root span's outside cost falls outside every span.
    roots = int((tracer.arrays()["parent"] < 0).sum())
    tracer_s = float(tracer.tracer_seconds(outside, inside).sum()) + roots * outside
    counters = tracer.counters

    def span(name: str, key: str) -> float:
        return spans[name][key] if name in spans else 0

    update = spans["planner.update"]["durations"] if "planner.update" in spans else numpy.zeros(0)
    p50_ms, p99_ms = 1e3 * numpy.percentile(update, [50, 99]) if update.size else (0.0, 0.0)
    checks = span("planner.plan_if_needed", "calls")
    derived = {
        "simulation.trace.write_s": span("simulation.trace.write", "self_s"),
        "planner.update.p50_ms": float(p50_ms),
        "planner.update.p99_ms": float(p99_ms),
        "planner.trigger_ratio": counters["planner.decisions"] / checks if checks else 0.0,
        "cli.trials_run": span("cli.run_trial", "calls"),
        "cli.run_trial.s": span("cli.run_trial", "total_s"),
        "traced_wall_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
        "trace.span_us": 1e6 * (outside + inside),
        "trace.tracer_s": tracer_s,
        "trace.residual_s": traced_s - untraced_s - tracer_s,
    }
    for module in MODULES:
        derived[f"{module}.self_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.split(".", 1)[0] == module
        )
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = span(name[: -len(".calls")], "calls")
        elif name.endswith(".self_s"):
            value = span(name[: -len(".self_s")], "self_s")
        else:
            value = counters.get(name, 0)
        out[name] = metric(value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds per trial instead of the workload's own "
                             "(short values are for smoke tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.duration is not None and args.duration <= 0):
        parser.error("--seconds and --duration must be > 0")

    workload = workloads.WORKLOADS[args.workload]
    duration = args.duration or workload.duration
    if args.setup_probe:
        start = time.perf_counter()
        vhsim = import_vhsim()
        workloads.warm_up(vhsim, workload, workloads.trial_seed(args.seed, 0))
        print(time.perf_counter() - start)
        return 0
    vhsim = import_vhsim()

    load_before = os.getloadavg()
    references = workloads.load_references()
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    workloads.warm_up(vhsim, workload, workloads.trial_seed(args.seed, 0))
    if args.trace:
        metrics, attempted, problems = run_traced(vhsim, workload, args.seed, duration, references)
    else:
        metrics, attempted, problems = run_timed(vhsim, workload, args.seed, args.seconds,
                                                 duration, references)
        metrics["setup_s"] = metric(setup_s, "s")
    facts = machine_facts(vhsim)
    facts["load_before"] = load_before
    facts["load_after"] = os.getloadavg()
    print("machine: " + json.dumps(facts))
    for problem in problems.values():
        print("mismatch: " + problem, file=sys.stderr)
    if args.workload == "heavy_proposed" and "wall_s" in metrics:
        wall = metrics["wall_s"]["value"]
        print(f"criterion 9: heavy_proposed wall_s {wall:.3f} s against the "
              f"{CRITERION_9_BUDGET_S:g} s budget ({100 * wall / CRITERION_9_BUDGET_S:.1f}% used)")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
