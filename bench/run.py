"""framegeo benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload verify_6_3 --seed 1 --seconds 25 --trace 0

Load shape: one client in one process, closed loop (the next request
starts when the previous one returns), BLAS pinned to one thread.  Request
j uses master seed trial_seed(seed, j).

With --trace 0 the run starts SETUP_SAMPLES fresh interpreters one after
another.  Each imports the library and makes one warm-up call; set-up time
is from its start to the end of that call, and setup_s is the median.  The
last one goes on to the timed run.  With --trace 1 a single process runs
each request traced and untraced and reports per-layer metrics.

End-to-end times are scaled by a calibration unit timed alongside them
(see worker.Calibration), because the speed of a shared machine drifts;
the unscaled values are in the JSON report.

Prints each metric as "name value unit", then a JSON report with the
machine facts, then, as its last line, the JSON result object.  Exits 1 if
any trial failed its checks, 2 if the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A worker process failed or printed no result."""


def _spawn(phase: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--phase", phase, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    start = time.monotonic()
    proc = subprocess.run(cmd, env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - start), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{phase} worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            runs = [_spawn("trace", args, deadline)]
        else:
            runs = [_spawn("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
            runs.append(_spawn("measure", args, deadline))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    final = runs[-1]
    metrics = final["metrics"]
    setup_samples = [r["setup_s"] for r in runs]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] * r["scale"]
                                                         for r in runs), "unit": "s"}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {failed / attempted!r} frac")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "calls": final["calls"],
        "trials_per_s_mean": final.get("trials_per_s_mean"),
        "unscaled": {**final.get("unscaled", {}), "setup_s": setup_samples},
        "setup_scale": [r["scale"] for r in runs],
        "calibration_ms_p50": final.get("calibration_ms_p50"),
        "failed_frac": failed / attempted,
        "machine": {**final["machine"], "loadavg_start": loadavg,
                    "git_commit": _git_commit()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
