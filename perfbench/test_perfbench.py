"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402

SMOKE_DURATION = 5.0
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace,
                  "--duration", f"{SMOKE_DURATION:g}")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
        return
    assert values["simulation.run_trial.self_s"] > 0
    # each call site of points_segment_distance is counted once
    assert values["comfort.points_segment_distance.calls"] == (
        values["simulation.detect_events.calls"] + values["planner.detect_potential_conflict.calls"]
    )
    if workload == "crowd_none":
        for module in ("prediction", "planner", "proxemics", "geometry"):
            assert values[f"{module}.self_s"] == 0
    if workload == "paired_matrix":
        assert values["cli.trials_requested"] == values["cli.trials_run"] == 8
    if workload == "traced_trial":
        assert values["simulation.trace.bytes"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_does_not_perturb_outputs(workload, tmp_path):
    vhsim = run.import_vhsim()
    bench = workloads.WORKLOADS[workload]
    plain = workloads.run_unit(vhsim, bench, 2, SMOKE_DURATION, tmp_path)
    tracer = Tracer()
    workloads.install_layers(tracer, vhsim)
    try:
        traced = workloads.run_unit(vhsim, bench, 2, SMOKE_DURATION, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert traced.fingerprints == plain.fingerprints
    if bench.trace_sink:
        assert all(";trace_sha256=" in text for text in plain.fingerprints.values())
    assert not tracer.absent
    assert workloads.check_unit(workloads.load_references(), bench, traced, SMOKE_DURATION) == {}
    # uninstall restored every wrapped function
    assert vhsim.planner.predict_trajectory is vhsim.prediction.predict_trajectory
    assert vhsim.cli.run_trial is vhsim.simulation.run_trial


def test_tracing_does_not_perturb_a_long_trial(tmp_path):
    vhsim = run.import_vhsim()
    bench = workloads.WORKLOADS["heavy_proposed"]
    plain = workloads.run_unit(vhsim, bench, 1, 60.0, tmp_path)
    tracer = Tracer()
    workloads.install_layers(tracer, vhsim)
    try:
        traced = workloads.run_unit(vhsim, bench, 1, 60.0, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert traced.fingerprints == plain.fingerprints
    assert tracer.counters["planner.decisions"] > 0


def test_reference_mismatch_names_workload_seed_and_trial(tmp_path):
    vhsim = run.import_vhsim()
    bench = workloads.WORKLOADS["paired_matrix"]
    unit = workloads.run_unit(vhsim, bench, 3, SMOKE_DURATION, tmp_path)
    references = workloads.load_references()
    assert workloads.check_unit(references, bench, unit, SMOKE_DURATION) == {}
    label = "passage/0.25/proposed"
    unit.fingerprints[label] += "x"
    problems = workloads.check_unit(references, bench, unit, SMOKE_DURATION)
    assert list(problems) == [label]
    assert "workload=paired_matrix" in problems[label] and "seed=3" in problems[label]
    assert label in problems[label]


def test_self_time_is_duration_minus_children():
    def inner():
        time.sleep(0.01)

    def outer():
        inner()
        inner()
        time.sleep(0.01)

    fake = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.wrap(fake, "inner", "m.inner")
    tracer.wrap(fake, "outer", "m.outer", new_trial=True)
    fake.outer()  # calls the unwrapped inner: outer looks it up as a local name
    tracer.uninstall()
    spans = tracer.summary()
    assert spans["m.outer"]["calls"] == 1 and spans["m.inner"]["calls"] == 0

    def outer_by_attribute():
        fake.inner()
        fake.inner()
        time.sleep(0.01)

    fake.outer = outer_by_attribute
    tracer = Tracer()
    tracer.wrap(fake, "inner", "m.inner")
    tracer.wrap(fake, "outer", "m.outer", new_trial=True)
    fake.outer()
    fake.outer()
    tracer.uninstall()
    spans = tracer.summary()
    assert spans["m.inner"]["calls"] == 4 and spans["m.outer"]["calls"] == 2
    outer_total = spans["m.outer"]["total_s"]
    assert spans["m.outer"]["self_s"] == pytest.approx(outer_total - spans["m.inner"]["total_s"])
    assert spans["m.outer"]["self_s"] + spans["m.inner"]["self_s"] == pytest.approx(outer_total)
    assert sorted(set(tracer.arrays()["trial"])) == [0, 1]


def test_tracer_cost_is_taken_out_of_self_time():
    def empty(counters, args, result):
        counters["hooked"] += 1

    def outer():
        for _ in range(2000):
            fake.inner()

    fake = types.SimpleNamespace(inner=lambda: None, outer=outer)
    tracer = Tracer()
    tracer.wrap(fake, "inner", "m.inner", hook=empty)
    tracer.wrap(fake, "outer", "m.outer", new_trial=True)
    fake.outer()
    tracer.uninstall()
    outside, inside = span_cost(calls=2000, repeats=3)
    assert outside > 0 and inside > 0
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    outer_s, inner_s = duration[a["parent"] < 0].sum(), duration[a["parent"] >= 0].sum()
    hooks = a["hook"].sum()
    assert hooks > 0 and tracer.counters["hooked"] == 2000
    corrected = tracer.summary(outside, inside)
    assert corrected["m.outer"]["self_s"] == pytest.approx(
        outer_s - inner_s - 2000 * outside - hooks - inside)
    assert corrected["m.inner"]["self_s"] == pytest.approx(inner_s - 2000 * inside)
    # corrected self times plus the tracer's cost add up to the root's duration
    tracer_s = tracer.tracer_seconds(outside, inside).sum()
    assert corrected["m.outer"]["self_s"] + corrected["m.inner"]["self_s"] + tracer_s == pytest.approx(
        outer_s)
    assert corrected["m.outer"]["total_s"] == pytest.approx(outer_s - tracer_s)


def test_missing_layers_are_reported_absent():
    tracer = Tracer()
    tracer.wrap(types.SimpleNamespace(), "gone", "m.gone")
    fake_vhsim = types.SimpleNamespace(planner=types.SimpleNamespace())
    workloads.install_layers(tracer, fake_vhsim)
    assert len(tracer.absent) == 1 + len(workloads.LAYERS)
    metrics = run.layer_metrics(tracer, 1.0, 1.0, (1e-6, 1e-7))
    assert metrics["planner.update.calls"]["value"] == 0
    assert metrics["trace.tracer_s"]["value"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = _bench("--workload", "crowd_none", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_names_every_metric_and_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
