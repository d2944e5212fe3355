"""Every function defined in `src/vhsim` runs in a trial or a command.

A subprocess installs `sys.setprofile` before it imports vhsim, so the calls
made while the package loads count too. It then runs short `matrix`,
`ablate coefficient_c` and traced walled `custom` `simulate` commands and
records every function it entered. A function that none of them enters is
dead code: delete it, or move it to the tests when a test uses it as a
reference. The same commands must leave `numpy.random` unimported, since the
pedestrians draw from `pcg.PCG64Stream`, and `concurrent.futures`, since
they run in one process.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vhsim

PACKAGE = Path(vhsim.__file__).resolve().parent

# Never entered by a trial or a command, but called by perfbench: its decision
# count iterates the prediction as a sequence. Each goes once the benchmark
# stops calling it.
ALLOWED = {
    "prediction.Prediction.__getitem__": "perfbench's decision count iterates the prediction",
    "prediction.Prediction.__iter__": "perfbench's decision count iterates the prediction",
}

SCRIPT = r"""
import json, os, sys

codes = set()


def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(profile)
from vhsim.cli import main

out = sys.argv[1]
scenario = os.path.join(out, "short.txt")
walled = os.path.join(out, "walled.txt")
with open(scenario, "w") as f:
    f.write("duration: 30\n")
with open(walled, "w") as f:
    f.write("environment: custom\nenv_width: 4\nenv_height: 15\nenv_side_walls: true\ndensity: 0.25\nduration: 30\n")
assert main(["matrix", "--scenario", scenario, "--environments", "square20,passage", "--densities", "0.05,0.25",
             "--replicates", "1", "--out", out]) == 0
assert main(["ablate", "--axis", "coefficient_c", "--values", "1,4", "--scenario", scenario,
             "--replicates", "1", "--out", out]) == 0
assert main(["simulate", "--scenario", walled, "--out", out, "--trace"]) == 0
sys.setprofile(None)
with open(os.path.join(out, "reached.json"), "w") as f:
    json.dump({"reached": [[c.co_filename, c.co_firstlineno] for c in codes],
               "numpy_random": "numpy.random" in sys.modules,
               "concurrent_futures": "concurrent.futures" in sys.modules}, f)
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """Every function and method in the package, keyed as its code object
    reports itself: (file, first line, which is the first decorator's)."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first)] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


@pytest.fixture(scope="module")
def commands_run(tmp_path_factory) -> dict:
    """What the commands of `SCRIPT` reached, and whether they imported
    `numpy.random` or `concurrent.futures`."""
    out = tmp_path_factory.mktemp("reachability")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(out)], env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads((out / "reached.json").read_text())


def test_every_function_is_reached(commands_run):
    reached = {
        (Path(filename).stem, line)
        for filename, line in commands_run["reached"]
        if Path(filename).resolve().parent == PACKAGE
    }
    functions = defined_functions()
    assert len(functions) > 50
    unreached = sorted(name for key, name in functions.items() if key not in reached)
    assert unreached == sorted(ALLOWED), "never entered by a trial or a command: " + ", ".join(unreached)


def test_no_command_imports_numpy_random(commands_run):
    assert not commands_run["numpy_random"]


def test_no_single_process_command_imports_the_process_pool(commands_run):
    assert not commands_run["concurrent_futures"]
