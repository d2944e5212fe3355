"""Record the reference fingerprints every benchmark run is checked against.

    python3 perfbench/record_references.py                 # each workload's own duration
    python3 perfbench/record_references.py --duration 5    # smoke-test length

Run it only for a deliberate change to the model's outputs, in a change of
its own; a change that claims a speed-up must leave references.json alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds per trial (default: each workload's own)")
    args = parser.parse_args(argv)
    vhsim = run.import_vhsim()
    references = workloads.load_references()
    for name, workload in sorted(workloads.WORKLOADS.items()):
        duration = args.duration or workload.duration
        table = references.setdefault(f"{duration:g}", {})
        for seed in workloads.REFERENCE_SEEDS:
            unit = workloads.run_unit(vhsim, workload, seed, duration, run.OUT / name)
            table.setdefault(name, {})[str(seed)] = unit.fingerprints
            print(f"{name} seed {seed}: {unit.seconds:.2f} s", flush=True)
        workloads.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
