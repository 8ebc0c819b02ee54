"""Self-tests of the benchmark: python3 -m pytest bench"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import QhullError

import tracing
import workloads
from framegeo import experiments

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float)
        assert f"{m['name']} {printed['value']!r} {m['unit']}" in lines


def _suite_output(kinds=("ellipsoid", "volume")):
    return experiments.run_suite([experiments.SuiteSpec(6, 3, 4, 11, kinds)])


def _corrupt(report, key, value):
    return dataclasses.replace(report, ratios={**report.ratios, key: value})


def _verify_output():
    verify = workloads.WORKLOADS["verify_6_3"]
    return verify, verify.request(experiments.trial_seed(workloads.DEFAULT_SEED, 0))


def test_check_rejects_corrupted_ratios():
    verify, (reports, csv) = _verify_output()
    assert verify.check((reports, csv)) == 0
    # below Vaaler's bound, though the library's own pass flags still hold
    low_cube = [_corrupt(reports[0], "cube_section_ratio", 0.999), *reports[1:]]
    assert low_cube[0].proved_ok
    assert verify.check((low_cube, csv)) == 1
    # above the Blaschke-Santalo bound
    big = dataclasses.replace(reports[1], extras={**reports[1].extras, "volume_product": 1e3})
    assert verify.check(([reports[0], big, *reports[2:]], csv)) == 1
    # a missing trial counts as failed
    assert verify.check((reports[1:], csv)) == 1


def test_windowed_throughput_lets_one_slow_request_move_only_its_window():
    import worker
    steady = [0.1] * 150
    assert worker._windowed_throughput(steady, 2) == pytest.approx(20.0)
    # 3 s more request time: the plain mean drops by 17%, the windowed median by less
    slow = steady[:75] + [3.0] + steady[75:]
    mean = 151 * 2 / sum(slow)
    assert mean < 17.0
    assert worker._windowed_throughput(slow, 2) > 19.0


def test_reference_comparison_rejects_a_moved_ratio():
    verify, (reports, csv) = _verify_output()
    reference = workloads.load_reference()["verify_6_3"][0]
    assert workloads.failed_trials(verify, (reports, csv), reference) == 0
    moved = [_corrupt(reports[0], "cross_projection_ratio",
                      reports[0].ratios["cross_projection_ratio"] * (1 + 1e-8)), *reports[1:]]
    assert workloads.failed_trials(verify, (moved, csv), reference) == verify.trials


def test_query_check_rejects_a_wrong_support_value():
    query = workloads.WORKLOADS["query_8_4"]
    output = query.request(experiments.trial_seed(3, 0))
    assert query.check(output) == 0
    gauge = list(output.gauge)
    gauge[0] *= 1 + 1e-6
    assert query.check(output._replace(gauge=gauge)) == 1
    wrong = output.estimate._replace(value=output.volume + 6 * output.estimate.standard_error)
    assert query.check(output._replace(estimate=wrong)) == 1


def _attributes():
    namespaces = tracing.MODULES + (np.linalg,)
    return [(m, name, value) for m in namespaces for name, value in vars(m).items()]


def test_trace_wrappers_restore_every_attribute():
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.request(workloads.WORKLOADS["query_8_4"].request, 7)
    with pytest.raises(ZeroDivisionError):
        tracer.request(lambda: 1 / 0)
    after = _attributes()
    assert len(before) == len(after)
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert tracer.counts["polytopes.lp_calls"] == 2 * workloads.QUERY_DIRECTIONS


def test_suite_csv_is_byte_identical_traced_and_untraced():
    _, plain = _suite_output()
    tracer = tracing.Tracer()
    _, traced = tracer.request(_suite_output)
    assert traced == plain
    assert tracer.counts["polytopes.qhull_calls"] == 3 * 4
    assert len(tracer.durations["frames.certify_unit_decomposition"]) == 2 * 4


# A Haar-random (14,5) subspace whose cube section makes volume() raise
# (see "Known library defect" in NOTES.md).  When volume() handles it, this
# test fails as an unexpected pass: move scan_14_4 back to k = 5 then.
QHULL_DEFECT_MASTER = 13042816953551769219


@pytest.mark.xfail(raises=QhullError, strict=True,
                   reason="volume() fails on near-degenerate k=5 cube sections")
def test_known_defect_volume_of_a_near_degenerate_k5_section():
    experiments.conjecture_scan(14, 5, 1, QHULL_DEFECT_MASTER)
