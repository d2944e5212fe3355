"""Every function the benchmark traces still exists where it looks it up.

perfbench (perfbench/workloads.py, `LAYERS`) wraps vhsim's functions by
module attribute and reads a name it cannot find as zero, so a rename would
silently zero its per-layer metrics. This test imports that table, changes
nothing, and resolves each entry on vhsim the way `install_layers` does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import vhsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    sys.path.insert(0, str(PERFBENCH))  # it imports the tracer by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("module_name, path", [layer[:2] for layer in LAYERS],
                         ids=[".".join(layer[:2]) for layer in LAYERS])
def test_layer_resolves(module_name, path):
    owner = getattr(vhsim, module_name, None)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"perfbench traces vhsim.{module_name}.{path}, which no longer exists"
