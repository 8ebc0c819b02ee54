"""The benchmark's workloads: one request per master seed, and its checks.

A request is one public call over a fixed chunk of trials.  Every workload
reaches the library through module attributes (``experiments.run_suite``,
``polytopes.volume``, ...) at call time, so the tracer's patches see each
call.  The checks use only numpy and the math module, never the library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from framegeo import experiments, frames, majorization, polytopes

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_CALLS = 2
POLYTOPE_RTOL = 1e-9
# another solver path may move Lowner/John ratios at the DEFAULT_EPS scale
ELLIPSOID_RTOL = experiments.BOUND_TOL
PROVED_RTOL = 1e-9  # slack on the Vaaler and Blaschke-Santalo inequalities


@dataclass(frozen=True)
class Workload:
    """One request shape.  ``check`` returns the number of failed trials;
    ``values`` the ratios compared with the reference, by tolerance class;
    ``calibration_lps`` and ``calibration_hulls`` the HiGHS LPs and convex
    hulls in its calibration unit (see worker.Calibration)."""

    name: str
    trials: int
    request: Callable[[int], object]
    check: Callable[[object], int]
    values: Callable[[object], dict]
    calibration_lps: int = 0
    calibration_hulls: int = 0


def _ball_volume(k: int) -> float:
    return math.pi ** (k / 2) / math.gamma(k / 2 + 1)


def _report_ok(report) -> bool:
    if not report.proved_ok:
        return False
    if "cube_section_ratio" not in report.ratios:
        return True
    # Vaaler: central sections of the cube have volume >= 2^k.
    # Blaschke-Santalo: vol(section) * vol(projection) <= vol(B^k)^2.
    return (report.ratios["cube_section_ratio"] >= 1.0 - PROVED_RTOL
            and report.extras["volume_product"]
            <= _ball_volume(report.k) ** 2 * (1.0 + PROVED_RTOL))


def _suite(name: str, n: int, k: int, trials: int, kinds: tuple,
           calibration_hulls: int = 0) -> Workload:
    def request(master):
        return experiments.run_suite([experiments.SuiteSpec(n, k, trials, master, kinds)])

    def check(output):
        reports, _ = output
        return sum(not _report_ok(r) for r in reports) + max(0, trials - len(reports))

    def values(output):
        reports, _ = output
        return {
            "polytope": [r.ratios[key] for r in reports
                         for key in ("cube_section_ratio", "cross_projection_ratio")
                         if key in r.ratios],
            "ellipsoid": [r.ratios[key] for r in reports
                          for key in ("lowner_ratio", "john_ratio")],
        }

    return Workload(name, trials, request, check, values,
                    calibration_hulls=calibration_hulls)


def _scan(name: str, n: int, k: int, trials: int) -> Workload:
    def request(master):
        return experiments.conjecture_scan(n, k, trials, master)

    def check(output):
        finite = math.isfinite(output.min_cross_ratio) and math.isfinite(output.max_cube_ratio)
        return len(output.ball2_violations) if finite else trials

    def values(output):
        return {"polytope": [output.min_cross_ratio, output.max_cube_ratio],
                "ellipsoid": []}

    return Workload(name, trials, request, check, values)


QUERY_N, QUERY_K = 8, 4
QUERY_DIRECTIONS = 16
QUERY_SAMPLES = 20_000
GAUGE_RTOL = 1e-7       # two different LPs for the same support value
ESTIMATE_SIGMAS = 5.0


class QueryOutput(NamedTuple):
    profile: np.ndarray
    vectors: np.ndarray
    directions: np.ndarray
    h_section: list
    h_cross: list
    gauge: list
    volume: float
    estimate: polytopes.VolumeEstimate


def _query_request(master: int) -> QueryOutput:
    seed = experiments.trial_seed(master, 0)
    profile = majorization.random_realizable_profile(QUERY_N, QUERY_K, seed)
    frame = majorization.construct_realization(profile)
    section = polytopes.polytope_from_frame(frame)
    cross = polytopes.cross_projection(frame)
    directions = np.random.default_rng(seed).standard_normal((QUERY_DIRECTIONS, QUERY_K))
    return QueryOutput(
        profile=profile.entries,
        vectors=frame.vectors,
        directions=directions,
        h_section=[polytopes.support_function(section, u) for u in directions],
        h_cross=[polytopes.support_function(cross, u) for u in directions],
        gauge=[polytopes.absolute_hull_gauge(frame.vectors, u) for u in directions],
        volume=polytopes.volume(section),
        estimate=polytopes.estimate_volume(section, QUERY_SAMPLES, seed),
    )


def _query_check(out: QueryOutput) -> int:
    V = out.vectors
    certified = np.max(np.abs(V.T @ V - np.eye(QUERY_K))) <= frames.TAU_CERT
    profile_ok = (np.max(np.abs(np.einsum("ij,ij->i", V, V) - out.profile))
                  <= majorization.TAU_SH)
    gauge_ok = all(abs(h - g) <= GAUGE_RTOL * abs(g)
                   for h, g in zip(out.h_section, out.gauge))
    vrep_ok = np.allclose(out.h_cross, np.max(np.abs(out.directions @ V.T), axis=1),
                          rtol=POLYTOPE_RTOL, atol=0.0)
    estimate_ok = (abs(out.estimate.value - out.volume)
                   <= ESTIMATE_SIGMAS * out.estimate.standard_error)
    return 0 if (certified and profile_ok and gauge_ok and vrep_ok and estimate_ok) else 1


def _query_values(out: QueryOutput) -> dict:
    return {"polytope": [out.volume, *out.h_section, *out.h_cross], "ellipsoid": []}


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {w.name: w for w in (
    _suite("verify_6_3", 6, 3, 20, ("ellipsoid", "volume"), calibration_hulls=8),
    # k=4, not 5: see "Known library defect" in NOTES.md
    _scan("scan_14_4", 14, 4, 4),
    _suite("ellipsoid_40_5", 40, 5, 10, ("ellipsoid",)),
    Workload("query_8_4", 1, _query_request, _query_check, _query_values,
             calibration_lps=1),
)}


def load_reference() -> dict:
    """Reference values per workload: one entry per call at DEFAULT_SEED."""
    return json.loads(REFERENCE_PATH.read_text())


def matches_reference(values: dict, reference: dict) -> bool:
    """Whether every value is within its class tolerance of the reference."""
    for kind, rtol in (("polytope", POLYTOPE_RTOL), ("ellipsoid", ELLIPSOID_RTOL)):
        got, want = values[kind], reference[kind]
        if len(got) != len(want):
            return False
        if not all(abs(a - b) <= rtol * abs(b) for a, b in zip(got, want)):
            return False
    return True


def failed_trials(workload: Workload, output, reference=None) -> int:
    """Failed trials of one call; ``output`` None means the call raised."""
    if output is None:
        return workload.trials
    if reference is not None and not matches_reference(workload.values(output), reference):
        return workload.trials
    return min(workload.trials, workload.check(output))
