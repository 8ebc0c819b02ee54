"""Record the reference values the benchmark compares its first calls with.

    python3 bench/record_reference.py

Runs the first REFERENCE_CALLS requests of every workload at DEFAULT_SEED
and writes their ratios to reference.json.  Record again only for a change
that is meant to move the ratios by more than the comparison tolerances.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from framegeo import experiments  # noqa: E402


def main() -> int:
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        calls = []
        for j in range(workloads.REFERENCE_CALLS):
            output = workload.request(experiments.trial_seed(workloads.DEFAULT_SEED, j))
            if workload.check(output):
                raise SystemExit(f"{name}: call {j} fails its checks; nothing recorded")
            calls.append(workload.values(output))
        reference[name] = calls
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
