"""Every function the benchmark traces still exists where it looks it up,
and its counter hooks still read what vhsim returns.

perfbench (perfbench/workloads.py, `LAYERS`) wraps vhsim's functions by
module attribute and reads a name it cannot find as zero, so a rename would
silently zero its per-layer metrics. These tests import that table and its
tracer, change nothing, and resolve each entry on vhsim the way
`install_layers` does; one also installs the layers around a short trial and
compares the counters with the trial's metrics.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import vhsim
from vhsim.simulation import ScenarioConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    sys.path.insert(0, str(PERFBENCH))  # it imports the tracer by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module


WORKLOADS = _workloads()
LAYERS = WORKLOADS.LAYERS


@pytest.mark.parametrize("module_name, path", [layer[:2] for layer in LAYERS],
                         ids=[".".join(layer[:2]) for layer in LAYERS])
def test_layer_resolves(module_name, path):
    owner = getattr(vhsim, module_name, None)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"perfbench traces vhsim.{module_name}.{path}, which no longer exists"


def test_layer_counters_read_the_trial():
    tracer = WORKLOADS.Tracer()
    # the first golden trial of tests/test_simulation.py: 2 events, 104 decisions
    cfg = ScenarioConfig(environment="square20", density=0.25, condition="proposed", duration=60.0, seed=1)
    WORKLOADS.install_layers(tracer, vhsim)
    try:
        metrics = vhsim.simulation.run_trial(cfg)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    events = metrics.social_conflicts + metrics.physicality_conflicts
    assert events > 0 and metrics.decision_count > 0
    assert tracer.counters["simulation.events"] == events
    assert tracer.counters["planner.decisions"] == metrics.decision_count
