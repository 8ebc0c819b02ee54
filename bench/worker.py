"""One benchmark process, started by run.py with BLAS pinned to one thread.

    --phase setup    import, make one warm-up call, report when it ended
    --phase measure  the same, then the remaining reference calls, then
                     --seconds of closed-loop requests with tracing off
    --phase trace    the same, then --seconds of requests, each run once
                     traced and once untraced, in alternating order

The warm-up and reference calls replay the first requests at the default
seed and compare them with reference.json.  Every trial of every call is
checked.  The process prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import linprog  # noqa: E402
from scipy.spatial import ConvexHull  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from framegeo import experiments  # noqa: E402

CALIBRATION_REF_S = 0.00125  # times are scaled to this calibration unit time
CALIBRATION_LP_REF_S = 0.003  # and this much more per LP in the unit
CALIBRATION_HULL_REF_S = 0.0002  # and per convex hull
SETUP_CALIBRATION_UNITS = 16
THROUGHPUT_WINDOWS = 15


class Calibration:
    """A fixed unit of work that uses no framegeo code, timed to track the
    current speed of a shared machine.

    On a shared 2-core 2.0 GHz Xeon VM, the speed of one input in one
    process drifted by up to 1.7x within minutes, so no amount of work in
    one run averages it out.  The unit mixes interpreted Python with small numpy kernels, as a
    trial does, and runs between requests; each request's time is scaled by
    ``ref_s`` over the mean of the two units around it.  Times read as on a
    machine where one unit takes ``ref_s``.

    A workload that spends much of its time in HiGHS LPs or in qhull adds
    ``lps`` small LPs or ``hulls`` small convex hulls to the unit: their
    speed drifts apart from that of the Python and numpy part.
    """

    def __init__(self, lps=0, hulls=0):
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((40, 5))
        self.lps = lps
        self.lp_matrix = rng.standard_normal((4, 16))
        self.lp_rhs = self.lp_matrix @ np.abs(rng.standard_normal(16))
        self.hulls = hulls
        self.hull_points = rng.standard_normal((60, 4))
        self.ref_s = (CALIBRATION_REF_S + lps * CALIBRATION_LP_REF_S
                      + hulls * CALIBRATION_HULL_REF_S)
        self.times = []

    def run(self):
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += (i * 7) % 13
        P = self.points
        M = P.T @ P
        for _ in range(30):
            g = np.einsum("ij,jk,ik->i", P, np.linalg.inv(M), P)
            M = M + 1e-9 * np.outer(P[int(np.argmax(g))], P[0])
        A = self.lp_matrix
        for _ in range(self.lps):
            linprog(np.ones(2 * A.shape[1]), A_eq=np.hstack([A, -A]), b_eq=self.lp_rhs,
                    bounds=(0, None), method="highs")
        for _ in range(self.hulls):
            ConvexHull(self.hull_points)
        self.times.append(time.perf_counter() - start)


class Tally:
    """Trials attempted and failed over every call the process makes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, workload, output, reference=None):
        self.attempted += workload.trials
        self.failed += workloads.failed_trials(workload, output, reference)


def _call(request, *args):
    """One request; None when it raised (the traceback goes to stderr)."""
    try:
        return request(*args)
    except Exception:  # every failure is counted, the loop keeps running
        traceback.print_exc()
        return None


def _blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        return None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _windowed_throughput(latencies, trials_per_call) -> float:
    """Median over THROUGHPUT_WINDOWS consecutive windows of the run of the
    trials per second in each; a rare multi-second request moves one window."""
    total = sum(latencies)
    windows = [[] for _ in range(THROUGHPUT_WINDOWS)]
    end = 0.0
    for t in latencies:
        end += t
        windows[min(int(end / total * THROUGHPUT_WINDOWS), THROUGHPUT_WINDOWS - 1)].append(t)
    return statistics.median(len(w) * trials_per_call / sum(w) for w in windows if w)


def _latency_metrics(latencies, trials_per_call) -> dict:
    p50 = statistics.median(latencies) * 1e3
    p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3 if len(latencies) > 1 else p50
    return {"trials_per_s": _windowed_throughput(latencies, trials_per_call),
            "request_ms_p50": p50, "request_ms_p90": p90}


def measure(workload, seed, seconds, tally) -> dict:
    calibration = Calibration(workload.calibration_lps, workload.calibration_hulls)
    calibration.run()
    latencies = []
    start = time.perf_counter()
    j = 0
    while time.perf_counter() - start < seconds:
        master = experiments.trial_seed(seed, j)
        j += 1
        t0 = time.perf_counter()
        output = _call(workload.request, master)
        latencies.append(time.perf_counter() - t0)
        tally.add(workload, output)
        calibration.run()
    units = calibration.times
    scaled = [t * 2.0 * calibration.ref_s / (before + after)
              for t, before, after in zip(latencies, units, units[1:])]
    metrics = {name: {"value": value, "unit": "1/s" if name == "trials_per_s" else "ms"}
               for name, value in _latency_metrics(scaled, workload.trials).items()}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    return {"calls": j, "metrics": metrics,
            "unscaled": _latency_metrics(latencies, workload.trials),
            "trials_per_s_mean": len(scaled) * workload.trials / sum(scaled),
            "calibration_ms_p50": statistics.median(units) * 1e3}


def trace(workload, seed, seconds, tally) -> dict:
    tracer = tracing.Tracer()
    spent = {True: 0.0, False: 0.0}
    start = time.perf_counter()
    j = 0
    while time.perf_counter() - start < seconds:
        master = experiments.trial_seed(seed, j)
        outputs = {}
        for traced in ((True, False) if j % 2 == 0 else (False, True)):
            t0 = time.perf_counter()
            if traced:
                outputs[traced] = _call(tracer.request, workload.request, master)
            else:
                outputs[traced] = _call(workload.request, master)
            spent[traced] += time.perf_counter() - t0
            tally.add(workload, outputs[traced])
        j += 1
        if None not in outputs.values() and \
                workload.values(outputs[True]) != workload.values(outputs[False]):
            print(f"call {j - 1}: traced output differs from untraced", file=sys.stderr)
            tally.failed += workload.trials
    metrics = tracer.metrics(j * workload.trials)
    # untraced trials_per_s / traced trials_per_s - 1, over the same inputs
    metrics["trace.overhead_frac"] = {"value": spent[True] / spent[False] - 1.0,
                                      "unit": "frac"}
    return {"calls": j, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[workload.name]
    tally = Tally()
    warm = workload.request(experiments.trial_seed(workloads.DEFAULT_SEED, 0))
    ready = time.monotonic()
    tally.add(workload, warm, reference[0])
    calibration = Calibration(workload.calibration_lps, workload.calibration_hulls)
    for _ in range(SETUP_CALIBRATION_UNITS):
        calibration.run()
    result = {"ready": ready,
              "scale": calibration.ref_s / statistics.median(calibration.times)}
    if args.phase != "setup":
        for j in range(1, len(reference)):
            output = _call(workload.request,
                           experiments.trial_seed(workloads.DEFAULT_SEED, j))
            tally.add(workload, output, reference[j])
        run = measure if args.phase == "measure" else trace
        result.update(run(workload, args.seed, args.seconds, tally))
        result["machine"] = machine_facts()
    result.update(attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
