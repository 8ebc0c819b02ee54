import csv
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framegeo.experiments
import framegeo.frames
import framegeo.majorization
import framegeo.polytopes
from framegeo import jsonio
from framegeo.cli import main
from framegeo.ellipsoids import (DEFAULT_EPS, Ellipsoid, SpanError, ellipsoid_volume_ratio,
                                 lowner_block, lowner_symmetric)
from framegeo.experiments import (BOUND_TOL, CSV_COLUMNS, Check,
                                  ConjectureScanSummary, ExperimentReport,
                                  SuiteSpec, conjecture_scan,
                                  random_subspace, render_csv, run_suite,
                                  splitmix64, trial_seed,
                                  verify_ellipsoid_bounds, verify_volume_bounds)
from framegeo.frames import FrameSet, Subspace, project_standard_basis
from framegeo.majorization import NormProfile, construct_realization
from framegeo.polytopes import UnsupportedDimensionError, equality_subspace


def skew_subspace(entries, k):
    """Subspace whose projected standard basis realizes the given profile."""
    frame = construct_realization(NormProfile(k=k, entries=np.asarray(entries, dtype=float)))
    return Subspace(n=frame.n, k=frame.k, basis=frame.vectors.T.copy())


def test_splitmix64_reference_values():
    # first outputs of the reference stream seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert splitmix64(0) == splitmix64(0)


def test_trial_seed_mixes_and_wraps():
    assert trial_seed(42, 0) == splitmix64(42)
    assert trial_seed(42, 1) == splitmix64(43)
    assert trial_seed(2 ** 64 - 1, 1) == splitmix64(0)
    seeds = {trial_seed(7, t) for t in range(100)}
    assert len(seeds) == 100


def test_random_subspace_is_deterministic_and_orthonormal():
    a = random_subspace(6, 3, seed=5)
    b = random_subspace(6, 3, seed=5)
    assert np.array_equal(a.basis, b.basis)
    assert np.max(np.abs(a.basis @ a.basis.T - np.eye(3))) <= 1e-12
    with pytest.raises(ValueError):
        random_subspace(2, 3, seed=0)


def test_random_subspace_norm_statistics():
    # |P e_1|^2 is uniform on [0, 1] for n=4, k=2, so the mean over many
    # draws sits near 1/2 (3.3 standard deviations here)
    vals = [project_standard_basis(random_subspace(4, 2, trial_seed(99, t))).squared_norms()[0]
            for t in range(1000)]
    assert abs(float(np.mean(vals)) - 0.5) <= 0.03


@pytest.mark.parametrize("n,k", [(1, 1), (4, 4), (7, 1), (6, 3), (200, 20)])
def test_stacked_draw_has_the_bits_of_a_qr_per_seed(n, k):
    # a block's draws come from one stacked qr (numpy >= 1.22), which must
    # run LAPACK on each sample as a qr of that sample alone does
    seeds = [trial_seed(8, t) for t in range(5)]
    for seed, subspace in zip(seeds, framegeo.experiments._draw(n, k, seeds)):
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))
        want = (q * np.where(np.diag(r) < 0.0, -1.0, 1.0)).T
        assert subspace.basis.tobytes() == want.tobytes()


def test_ellipsoid_report_on_equality_subspace():
    r = verify_ellipsoid_bounds(equality_subspace(6, 2), trial_id=3, seed=17)
    assert (r.n, r.k, r.trial_id, r.seed) == (6, 2, 3, 17)
    assert r.ratios["lowner_ratio"] == pytest.approx(r.checks["lowner_ratio"].bound, rel=1e-9)
    assert r.ratios["john_ratio"] == pytest.approx(r.checks["john_ratio"].bound, rel=1e-9)
    assert r.checks["lowner_ratio"].bound == pytest.approx((2 / 6) ** 1.0)
    assert r.proved_ok
    assert r.checks["lowner_ratio"].at_equality and r.checks["john_ratio"].at_equality
    assert r.profile_uniform


def test_ellipsoid_report_on_skew_subspace():
    r = verify_ellipsoid_bounds(skew_subspace([1.0, 0.6, 0.3, 0.1], k=2))
    assert r.proved_ok
    assert not r.profile_uniform
    assert not r.checks["lowner_ratio"].at_equality
    assert not r.checks["john_ratio"].at_equality


def test_lowner_john_ratios_are_reciprocal():
    for seed in range(5):
        r = verify_ellipsoid_bounds(random_subspace(7, 3, seed))
        prod = r.ratios["lowner_ratio"] * r.ratios["john_ratio"]
        assert prod == pytest.approx(1.0, rel=1e-9)


def test_volume_report_on_equality_subspace():
    r = verify_volume_bounds(equality_subspace(6, 3))
    for key in ("lowner_ratio", "john_ratio", "cube_section_ratio",
                "cross_projection_ratio"):
        assert r.ratios[key] == pytest.approx(r.checks[key].bound, rel=1e-9), key
        assert r.checks[key].at_equality, key
    assert r.proved_ok
    assert r.passes["chain_cube"] and r.passes["chain_cross"]
    assert r.extras["volume_product"] == pytest.approx(4.0 ** 3 / 6.0, rel=1e-9)


@pytest.mark.parametrize("sub", [equality_subspace(n, k) for n, k in
                                 [(2, 1), (4, 2), (6, 2), (3, 3), (6, 3), (9, 3)]]
                         + [random_subspace(6, 3, trial_seed(11, t)) for t in range(20)])
def test_mahler_lower_bound_is_a_proved_entry_up_to_k3(sub):
    # vol(section) * vol(projection) >= 4^k / k!, with equality for the
    # cube/cross-polytope pairs of the equality subspaces
    r = verify_volume_bounds(sub)
    assert r.passes["mahler"] and r.proved_ok
    assert r.extras["volume_product"] >= 4.0 ** sub.k / math.factorial(sub.k) * (1.0 - 1e-12)


def test_mahler_lower_bound_is_not_asserted_above_k3():
    assert "mahler" not in verify_volume_bounds(random_subspace(8, 4, 0)).passes


@pytest.mark.parametrize("seed", range(6))
def test_volume_report_sandwich_on_random_subspaces(seed):
    n, k = 5 + seed % 3, 2 + seed % 2
    r = verify_volume_bounds(random_subspace(n, k, seed))
    assert r.proved_ok
    assert r.ratios["cube_section_ratio"] <= r.ratios["john_ratio"] + 1e-6
    assert r.ratios["cross_projection_ratio"] >= r.ratios["lowner_ratio"] - 1e-6


def test_equality_flag_tracks_uniform_profile():
    reports = [verify_volume_bounds(random_subspace(4, 2, trial_seed(5, t)))
               for t in range(10)]
    reports.append(verify_volume_bounds(equality_subspace(4, 2)))
    for r in reports:
        assert r.checks["lowner_ratio"].at_equality == r.profile_uniform


@pytest.mark.parametrize("n,k", [(7, 3), (10, 4), (11, 5), (9, 2)])
def test_uniform_profile_reaches_both_ellipsoid_bounds_where_k_does_not_divide_n(n, k):
    r = verify_ellipsoid_bounds(skew_subspace(np.full(n, k / n), k=k))
    assert r.checks["lowner_ratio"].at_equality and r.checks["john_ratio"].at_equality
    assert r.proved_ok and r.profile_uniform
    assert abs(r.ratios["lowner_ratio"] - (k / n) ** (k / 2)) <= 1e-12


def test_checks_are_relative_to_a_huge_bound():
    # (n/k)^{k/2} = 2^50 at (200, 100); the John ratio at equality lies
    # 25 above it, 2.2e-14 relative
    r = verify_ellipsoid_bounds(equality_subspace(200, 100))
    assert all(r.passes.values())
    assert all(check.at_equality for check in r.checks.values())


def test_checks_are_relative_to_a_tiny_bound(monkeypatch):
    # (k/n)^{k/2} = 1e-10 at (200, 20): a cover of half that volume is no
    # cover of the frame, and a margin of 1e-6 would pass it
    k = 20

    def shrunk(point_sets, eps):
        return [fit._replace(ellipsoid=Ellipsoid(k=k, matrix=fit.ellipsoid.matrix * 4.0 ** (1 / k)))
                for fit in lowner_block(point_sets, eps=eps)]

    monkeypatch.setattr(framegeo.experiments, "lowner_block", shrunk)
    r = verify_ellipsoid_bounds(equality_subspace(200, k))
    assert r.ratios["lowner_ratio"] == pytest.approx(r.checks["lowner_ratio"].bound / 2,
                                                     rel=1e-9)
    assert not r.passes["lowner_ratio"]
    assert not r.proved_ok


@pytest.mark.parametrize("check,tol,holds,at_equality", [
    (Check(1.0 + 5e-7, 1.0, True), BOUND_TOL, True, True),
    (Check(1.0 + 2e-6, 1.0, True), BOUND_TOL, False, False),
    (Check(1.0 - 2e-6, 1.0, True), BOUND_TOL, True, False),
    (Check(1.0 - 2e-6, 1.0, False), BOUND_TOL, False, False),
    (Check(-1.0 - 5e-7, -1.0, False), BOUND_TOL, True, True),  # slack is tol * |bound|
    (Check(5e-7, 0.0, True), BOUND_TOL, False, False),         # and 0 at a zero bound
    (Check(float("nan"), 1.0, False), BOUND_TOL, False, False),
    (Check(1.0 + 1e-8, 1.0, True), 1e-9, False, True),         # the scan's slack
])
def test_check_holds_relative_to_its_bound(check, tol, holds, at_equality):
    assert check.holds(tol) is holds
    assert check.at_equality is at_equality


def test_volume_report_requires_exact_range():
    with pytest.raises(UnsupportedDimensionError):
        verify_volume_bounds(random_subspace(8, 6, 0))


def test_suite_spec_rejects_unknown_experiments():
    with pytest.raises(ValueError):
        SuiteSpec(n=4, k=2, trials=1, seed=0, experiments=("volume", "frobnicate"))


@pytest.mark.parametrize("trials,experiments,message", [
    (0, ("volume",), "trials must be positive"),
    (-2, ("ellipsoid", "volume"), "trials must be positive"),
    (3, (), "experiments must name"),
])
def test_suite_spec_rejects_a_batch_that_checks_nothing(trials, experiments, message):
    with pytest.raises(ValueError, match=message):
        SuiteSpec(n=4, k=2, trials=trials, seed=0, experiments=experiments)


def test_run_suite_is_deterministic_and_sorted():
    config = [SuiteSpec(n=6, k=3, trials=2, seed=11),
              SuiteSpec(n=4, k=2, trials=3, seed=11)]
    reports_a, csv_a = run_suite(config)
    reports_b, csv_b = run_suite(config)
    assert csv_a == csv_b
    assert [(r.n, r.k, r.trial_id) for r in reports_a] == \
           [(4, 2, 0), (4, 2, 1), (4, 2, 2), (6, 3, 0), (6, 3, 1)]
    for r in reports_a:
        assert r.seed == trial_seed(11, r.trial_id)
    assert all(r.proved_ok for r in reports_a)
    assert reports_a == reports_b


def test_run_suite_csv_shape():
    config = [SuiteSpec(n=4, k=2, trials=2, seed=3),
              SuiteSpec(n=5, k=2, trials=1, seed=3, experiments=("ellipsoid",))]
    reports, text = run_suite(config)
    lines = text.splitlines()
    assert lines[0].startswith("# tolerance ledger:")
    assert lines[1] == ",".join(CSV_COLUMNS)
    rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    assert len(rows) == 3
    assert all(len(row) == len(CSV_COLUMNS) for row in rows)
    # the ellipsoid-only row leaves the polytope columns empty
    ell_row = rows[-1]
    assert ell_row[0] == "5"
    idx = CSV_COLUMNS.index("cube_section_ratio")
    assert ell_row[idx] == "" and ell_row[idx + 1] == ""
    full_row = rows[0]
    assert full_row[idx] != ""
    # floats round-trip exactly through repr
    assert float(full_row[4]) == reports[0].ratios["lowner_ratio"]


def test_empty_suite_renders_header_only():
    reports, text = run_suite([])
    assert reports == []
    assert len(text.splitlines()) == 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(size=st.sampled_from([(3, 2), (5, 2), (6, 3), (8, 4), (9, 3), (12, 5)]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_a_trial_is_invariant_under_a_change_of_basis(size, seed, data):
    # rotating the basis rotates the frame, and permuting the coordinates of
    # R^n reorders it; neither moves a volume, a ratio or a verdict
    n, k = size
    subspace = random_subspace(n, k, seed)
    q = random_subspace(k, k, data.draw(st.integers(0, 2 ** 32 - 1))).basis
    perm = data.draw(st.permutations(range(n)))
    want = verify_volume_bounds(subspace)
    for basis in (q @ subspace.basis, subspace.basis[:, perm]):
        got = verify_volume_bounds(Subspace(n=n, k=k, basis=basis))
        assert got.ratios == pytest.approx(want.ratios, rel=1e-12, abs=0.0)
        assert got.extras["volume_product"] == pytest.approx(
            want.extras["volume_product"], rel=1e-12, abs=0.0)
        assert got.passes == want.passes


def test_exit_status_flags_failures(capsys, monkeypatch):
    # verify exits 1 when a trial fails a proved bound, and names that trial alone
    real = framegeo.experiments._report
    failing = set()

    def report(*trial):
        r = real(*trial)
        if r.trial_id not in failing:
            return r
        return dataclasses.replace(r, checks={**r.checks, "john_ratio": Check(3.0, 2.0, True)})

    monkeypatch.setattr(framegeo.experiments, "_report", report)
    argv = ["verify", "--n", "4", "--k", "2", "--trials", "2", "--seed", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    failing.add(1)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"bound violated: trial 1 seed {trial_seed(5, 1)}: john_ratio\n"


def test_a_failing_block_stops_on_its_first_failing_trial(capsys, monkeypatch):
    # trial 1 loses positive definiteness within a few steps and trial 3
    # spans a plane, which the block finds before its first round; the block
    # raises trial 3's error, so the trials are fitted again in order and
    # verify stops on trial 1 with what trial 1 raises alone
    rng = np.random.default_rng(9)
    near_plane = rng.standard_normal((8, 3))
    near_plane[:, 1] = near_plane[:, 0] + 1e-8 * rng.standard_normal(8)
    project = framegeo.experiments.project_standard_basis
    fit_block = framegeo.experiments.lowner_block
    projected, raised = [], []

    def planted(subspace):
        frame = project(subspace)
        projected.append(frame)
        vectors = {1: near_plane, 3: frame.vectors * [1.0, 1.0, 0.0]}.get(len(projected) - 1)
        return frame if vectors is None else FrameSet(n=8, k=3, vectors=vectors)

    def recorded(point_sets, **kwargs):
        try:
            return fit_block(point_sets, **kwargs)
        except SpanError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(framegeo.experiments, "project_standard_basis", planted)
    monkeypatch.setattr(framegeo.experiments, "lowner_block", recorded)
    argv = ["verify", "--n", "8", "--k", "3", "--trials", "5", "--seed", "2",
            "--experiments", "ellipsoid"]
    code = main(argv)
    with pytest.raises(SpanError) as alone:
        lowner_symmetric(near_plane, eps=DEFAULT_EPS)
    assert len(projected) == 5 and len(raised) == 1
    assert str(raised[0]) == "points span a 2-dimensional subspace of R^3" != str(alone.value)
    assert (code, capsys.readouterr().err) == (2, f"error: {alone.value}\n")


def test_a_block_reads_each_trials_lowner_ratio_and_profile_flag_alone():
    # one stacked log-determinant and one stacked einsum give each trial
    # the Lowner ratio and the profile flag it has alone
    subspaces = [equality_subspace(6, 3), random_subspace(6, 3, 1),
                 skew_subspace(np.full(6, 0.5), k=3), random_subspace(6, 3, 2)]
    reports = framegeo.experiments._verify(subspaces, False, range(4), range(4))
    for subspace, report in zip(subspaces, reports):
        frame = project_standard_basis(subspace)
        fit = lowner_symmetric(frame.vectors, eps=DEFAULT_EPS)
        assert repr(report.ratios["lowner_ratio"]) == repr(ellipsoid_volume_ratio(fit.ellipsoid))
        assert report.profile_uniform == bool(
            np.max(np.abs(frame.squared_norms() - 0.5)) <= BOUND_TOL)
    assert [report.profile_uniform for report in reports] == [True, False, True, False]


def test_equality_csv_flags_column():
    text = render_csv([verify_volume_bounds(equality_subspace(4, 2))])
    row = text.splitlines()[2].split(",")
    assert row[CSV_COLUMNS.index("equality_flags")] == "lowner|john|cube|cross"
    assert row[CSV_COLUMNS.index("profile_uniform")] == "True"


def test_csv_header_is_the_one_readme_documents():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("with the fixed column set")[1].split("```")[1]
    assert ",".join(CSV_COLUMNS) == "".join(block.split())


def test_tolerance_ledger_records_every_tolerance_in_force():
    # no function takes a per-call tolerance, so the ledger is the complete
    # list: every TAU_* constant, the solver's eps and the bounds' slack
    ledger = render_csv([]).splitlines()[0]
    assert ledger.startswith("# tolerance ledger: ")
    fields = dict(item.split("=") for item in ledger.split(": ", 1)[1].split())
    expected = {name.lower(): value
                for module in (framegeo.frames, framegeo.majorization, framegeo.polytopes)
                for name, value in vars(module).items() if name.startswith("TAU_")}
    expected.update(mvee_eps=DEFAULT_EPS, bound_tol=BOUND_TOL)
    assert fields == {name: "%g" % value for name, value in expected.items()}


def test_render_csv_column_order_on_hand_built_reports():
    # exact binary fractions, so every cell's position is checked without
    # numerics; the john and cross values sit within BOUND_TOL of their bounds
    checks = {"lowner_ratio": Check(0.125, 0.25, False),
              "john_ratio": Check(4.0 - 2.0 ** -22, 4.0, True),
              "cube_section_ratio": Check(8.0, 4.0, True),
              "cross_projection_ratio": Check(0.25 + 2.0 ** -24, 0.25, False),
              "chain_cube": Check(8.0, 2.0, True)}
    full = ExperimentReport(
        trial_id=2, n=6, k=3, seed=9,
        ratios={key: check.value for key, check in checks.items() if key != "chain_cube"},
        checks=checks, profile_uniform=False)
    ellipsoid_only = ExperimentReport(
        trial_id=0, n=5, k=2, seed=1,
        ratios={"lowner_ratio": 0.125, "john_ratio": 8.0},
        checks={"lowner_ratio": Check(0.125, 0.0625, False),
                "john_ratio": Check(8.0, 16.0, True)},
        profile_uniform=True)
    lines = render_csv([full, ellipsoid_only]).splitlines()
    assert lines[0].startswith("# tolerance ledger:")
    assert lines[1:] == [
        "n,k,trial_id,seed,lowner_ratio,john_ratio,cube_section_ratio,"
        "cross_projection_ratio,bound_kn,bound_nk,pass_lowner,pass_john,"
        "pass_cube,pass_cross,equality_flags,profile_uniform",
        "6,3,2,9,0.125,3.999999761581421,8.0,0.2500000596046448,0.25,4.0,"
        "False,True,False,True,john|cross,False",
        "5,2,0,1,0.125,8.0,,,0.0625,16.0,True,True,,,,True",
    ]


RATIO_COLUMNS = CSV_COLUMNS[4:8]
SHORT_NAMES = [column[len("pass_"):] for column in CSV_COLUMNS[10:14]]


def reference_csv_row(r):
    """A report's CSV row the long way: every pass cell from ``Check.holds()``
    and every equality flag from ``Check.at_equality``."""
    checks = [r.checks.get(column) for column in RATIO_COLUMNS]
    cells = [str(r.n), str(r.k), str(r.trial_id), str(r.seed)]
    cells += [repr(float(r.ratios[column])) if column in r.ratios else ""
              for column in RATIO_COLUMNS]
    cells += [repr(float(check.bound)) for check in checks[:2]]
    cells += ["" if check is None else str(check.holds()) for check in checks]
    cells.append("|".join(short for short, check in zip(SHORT_NAMES, checks)
                          if check is not None and check.at_equality))
    cells.append(str(bool(r.profile_uniform)))
    return ",".join(cells)


def plant_at_the_edges(report):
    """The report with each ratio check's value moved to bound - slack or
    bound + slack, where ``Check``'s rule flips, or one ulp beyond it,
    the choice turning with the trial and the column."""
    checks = dict(report.checks)
    for i, column in enumerate(RATIO_COLUMNS):
        if column not in checks:
            continue
        check, turn = checks[column], report.trial_id + i
        slack = BOUND_TOL * abs(check.bound)
        side = (-1.0, 1.0)[turn % 2]
        edge = check.bound + side * slack
        if turn % 3 == 2:
            edge = np.nextafter(edge, side * math.inf)
        checks[column] = check._replace(value=float(edge))
    ratios = {column: checks[column].value for column in report.ratios}
    return dataclasses.replace(report, ratios=ratios, checks=checks)


def test_csv_rows_match_a_reference_renderer(monkeypatch):
    # volume rows, ellipsoid-only rows with empty cells, k = 1 rows and, on
    # odd trials, checks planted at or one ulp past the edges of their
    # slack through a patched _report; then equality-subspace rows and
    # hand-built rows whose bounds are 0.0 and -0.0
    real = framegeo.experiments._report

    def report(*trial):
        r = real(*trial)
        return plant_at_the_edges(r) if r.trial_id % 2 else r

    monkeypatch.setattr(framegeo.experiments, "_report", report)
    reports, text = run_suite([SuiteSpec(6, 3, 12, 7), SuiteSpec(4, 1, 12, 3),
                               SuiteSpec(40, 5, 6, 3, ("ellipsoid",))])
    monkeypatch.undo()
    assert text.splitlines()[2:] == [reference_csv_row(r) for r in reports]
    equality = [verify_volume_bounds(equality_subspace(n, k), trial_id=t)
                for t, (n, k) in enumerate([(4, 2), (6, 3), (4, 1), (10, 5)])]
    zero = [ExperimentReport(trial_id=t, n=4, k=2, seed=0,
                             ratios={"lowner_ratio": 0.0, "john_ratio": 1.0},
                             checks={"lowner_ratio": Check(0.0, bound, False),
                                     "john_ratio": Check(1.0, 2.0, True)},
                             profile_uniform=False)
            for t, bound in enumerate([0.0, -0.0, 0.0])]
    extra = equality + zero
    assert render_csv(extra).splitlines()[2:] == [reference_csv_row(r) for r in extra]
    # every branch is met: empty cells, k = 1, rows at equality in every
    # column, failing cells, and both zero bounds
    rows = [reference_csv_row(r).split(",") for r in reports + extra]
    passes = [cell for row in rows for cell in row[10:14]]
    assert {"", "True", "False"} <= set(passes)
    assert {row[1] for row in rows} >= {"1", "3", "5"}
    assert all(row[14] == "lowner|john|cube|cross" for row in rows[len(reports):-3])
    assert [row[8] for row in rows[-3:]] == ["0.0", "-0.0", "0.0"]


def test_conjecture_scan_line_in_plane():
    summary = conjecture_scan(2, 1, trials=64, seed=9)
    assert isinstance(summary, ConjectureScanSummary)
    assert summary.bound_2pow == pytest.approx(2.0 ** -0.5)
    assert summary.bound_ball2 == pytest.approx(2.0 ** 0.5)
    assert summary.ball2_violations == ()
    assert summary.counterexample is None
    assert summary.min_cross_ratio >= summary.bound_2pow - 1e-9
    assert summary.max_cube_ratio <= summary.bound_ball2 + 1e-9
    assert summary.min_cross_ratio < 1.0 < summary.max_cube_ratio


def test_conjecture_scan_extremes_rerun_alone():
    summary = conjecture_scan(8, 3, trials=12, seed=4)
    for trial, seed, key, value in [
            (summary.min_cross_trial, summary.min_cross_seed,
             "cross_projection_ratio", summary.min_cross_ratio),
            (summary.max_cube_trial, summary.max_cube_seed,
             "cube_section_ratio", summary.max_cube_ratio)]:
        assert seed == trial_seed(4, trial)
        assert verify_volume_bounds(random_subspace(8, 3, seed)).ratios[key] == value


def spy_on_groups(monkeypatch):
    """The number of hulls in each group whose flags grow in one pass."""
    groups, real = [], framegeo.polytopes._polar_volume

    def polar_volume(hulls):
        groups.append(len(hulls))
        return real(hulls)

    monkeypatch.setattr(framegeo.polytopes, "_polar_volume", polar_volume)
    return groups


# trial counts that span more than one block of draws and more than one
# group of hulls
BLOCKED_REQUESTS = [(4, 1, 70, 3), (3, 2, 300, 5), (6, 3, 70, 20), (14, 4, 40, 2),
                    (10, 5, 40, 1), (14, 5, 36, 4)]


@pytest.mark.parametrize("n,k,trials,seed", BLOCKED_REQUESTS)
def test_run_suite_gives_every_trial_the_bits_it_has_alone(monkeypatch, n, k, trials, seed):
    groups = spy_on_groups(monkeypatch)
    reports, _ = run_suite([SuiteSpec(n, k, trials, seed)])
    assert len(groups) > 1 and max(groups) > 1
    monkeypatch.undo()
    assert len(reports) == trials
    for t, report in enumerate(reports):
        s = trial_seed(seed, t)
        alone = framegeo.experiments._verify([random_subspace(n, k, s)], True, [t], [s])[0]
        assert (report.trial_id, report.seed) == (t, s)
        assert repr(report.ratios) == repr(alone.ratios)
        assert repr(report.extras) == repr(alone.extras)
        assert report.checks == alone.checks
        assert report.profile_uniform == alone.profile_uniform


def test_ellipsoid_suite_gives_every_trial_the_bits_it_has_alone():
    n, k, trials, seed = 40, 5, 40, 3
    reports, _ = run_suite([SuiteSpec(n, k, trials, seed, ("ellipsoid",))])
    for t, report in enumerate(reports):
        s = trial_seed(seed, t)
        alone = verify_ellipsoid_bounds(random_subspace(n, k, s), t, s)
        assert repr(report.ratios) == repr(alone.ratios)
        assert report.checks == alone.checks


@pytest.mark.parametrize("n,k,trials,seed", BLOCKED_REQUESTS)
def test_conjecture_scan_gives_every_trial_the_bits_it_has_alone(monkeypatch, n, k,
                                                                 trials, seed):
    groups = spy_on_groups(monkeypatch)
    seen, real = [], framegeo.experiments._polytope_ratios

    def recorded(frames):
        seen.extend(real(frames))
        return seen[-len(frames):]

    monkeypatch.setattr(framegeo.experiments, "_polytope_ratios", recorded)
    summary = conjecture_scan(n, k, trials, seed)
    assert len(groups) > 1 and max(groups) > 1
    monkeypatch.undo()
    alone = [verify_volume_bounds(random_subspace(n, k, trial_seed(seed, t))).ratios
             for t in range(trials)]
    assert len(seen) == trials
    for (cube, cross, _), ratios in zip(seen, alone):
        assert (repr(cube), repr(cross)) == (repr(ratios["cube_section_ratio"]),
                                             repr(ratios["cross_projection_ratio"]))
    # the extremes and the counterexample are read off those same bits
    cubes = [ratios["cube_section_ratio"] for ratios in alone]
    crosses = [ratios["cross_projection_ratio"] for ratios in alone]
    top, bottom = cubes.index(max(cubes)), crosses.index(min(crosses))
    assert (summary.max_cube_trial, summary.max_cube_seed) == (top, trial_seed(seed, top))
    assert (summary.min_cross_trial, summary.min_cross_seed) == (bottom,
                                                                 trial_seed(seed, bottom))
    assert repr(summary.max_cube_ratio) == repr(cubes[top])
    assert repr(summary.min_cross_ratio) == repr(crosses[bottom])
    assert summary.counterexample is None and min(crosses) >= summary.bound_2pow
    assert summary.ball2_violations == () and max(cubes) <= summary.bound_ball2


def test_conjecture_scan_reports_planted_violations_and_counterexample(monkeypatch, capsys):
    # no Haar draw crosses either two-power bound, so the scan's violation
    # and counterexample paths are reached by planting ratios on chosen trials
    n, k, trials, seed = 6, 3, 8, 5
    ball2, two_pow = 2.0 ** ((n - k) / 2), 2.0 ** ((k - n) / 2)
    cube_plant = {1: ball2 * (1 + 1e-6), 4: ball2 * (1 + 1e-6)}
    cross_plant = {3: two_pow * (1 - 1e-6), 6: two_pow * 0.5}
    real, calls = framegeo.experiments._polytope_ratios, itertools.count()

    def planted(frames):
        out = []
        for cube, cross, product in real(frames):
            t = next(calls) % trials
            out.append((cube_plant.get(t, cube), cross_plant.get(t, cross), product))
        return out

    monkeypatch.setattr(framegeo.experiments, "_polytope_ratios", planted)
    summary = conjecture_scan(n, k, trials, seed)
    assert summary.ball2_violations == (1, 4)
    assert (summary.max_cube_trial, summary.max_cube_seed) == (1, trial_seed(seed, 1))
    assert summary.max_cube_ratio == cube_plant[1]
    assert (summary.min_cross_trial, summary.min_cross_seed) == (6, trial_seed(seed, 6))
    assert summary.min_cross_ratio == cross_plant[6]
    counterexample = summary.counterexample
    assert counterexample == {
        "trial_id": 3, "seed": trial_seed(seed, 3),
        "cross_projection_ratio": cross_plant[3],
        "subspace": jsonio.subspace_to_dict(random_subspace(n, k, trial_seed(seed, 3)))}

    argv = ["conjecture-scan", "--n", str(n), "--k", str(k),
            "--trials", str(trials), "--seed", str(seed)]
    assert main(argv) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ball2_violations"] == [1, 4]
    assert data["counterexample"] == json.loads(json.dumps(counterexample))
    assert (data["max_cube_trial"], data["min_cross_trial"]) == (1, 6)


def test_conjecture_scan_bound_attained_by_diagonal_line():
    r = verify_volume_bounds(equality_subspace(2, 1))
    assert r.ratios["cross_projection_ratio"] == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert r.ratios["cube_section_ratio"] == pytest.approx(2.0 ** 0.5, rel=1e-12)


@pytest.mark.parametrize("trial,hulls,fits", [
    (lambda: verify_volume_bounds(random_subspace(6, 3, trial_seed(7, 0))), 1, 1),
    (lambda: conjecture_scan(14, 4, trials=1, seed=1), 1, 0),
    (lambda: verify_volume_bounds(random_subspace(4, 1, trial_seed(3, 0))), 0, 1),
    (lambda: conjecture_scan(4, 1, trials=1, seed=3), 0, 0),
], ids=["verify_6_3", "scan_14_4", "verify_4_1", "scan_4_1"])
def test_one_trial_certifies_once_and_hulls_the_frame_once(monkeypatch, trial, hulls, fits):
    # the one certification is the check of the Subspace's basis, which is
    # the product certify_unit_decomposition would form; the frame is not
    # certified again.  One projection serves the fit and both bodies; one
    # hull of the +/- v_i serves both bodies, the section's volume being read
    # off its facets.  At k = 1 both volumes are read off directly.  The
    # library must look each name up in the namespace where the benchmark
    # tracer patches it.
    counts = {"subspaces": 0, "hulls": 0, "certifications": 0, "projections": 0, "fits": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    check_bases = framegeo.frames._orthonormal_bases

    def checked(bases):
        counts["subspaces"] += len(bases)
        return check_bases(bases)

    # a Subspace's basis is checked in a stack, alone or with its block's
    monkeypatch.setattr(framegeo.frames, "_orthonormal_bases", checked)
    monkeypatch.setattr(framegeo.polytopes, "ConvexHull",
                        counted("hulls", framegeo.polytopes.ConvexHull))
    for module in (framegeo.polytopes, framegeo.frames):
        monkeypatch.setattr(module, "certify_unit_decomposition",
                            counted("certifications", module.certify_unit_decomposition))
    monkeypatch.setattr(framegeo.experiments, "project_standard_basis",
                        counted("projections", framegeo.experiments.project_standard_basis))
    fit_block = framegeo.experiments.lowner_block

    def fitted(point_sets, **kwargs):
        counts["fits"] += len(point_sets)
        return fit_block(point_sets, **kwargs)

    monkeypatch.setattr(framegeo.experiments, "lowner_block", fitted)
    trial()
    assert counts == {"subspaces": 1, "hulls": hulls, "certifications": 0,
                      "projections": 1, "fits": fits}


one_trial = pytest.mark.parametrize("trial", [
    lambda: verify_volume_bounds(random_subspace(6, 3, trial_seed(7, 0))),
    lambda: verify_ellipsoid_bounds(random_subspace(40, 5, trial_seed(3, 0))),
    lambda: conjecture_scan(14, 4, trials=1, seed=1),
], ids=["verify_6_3", "ellipsoid_40_5", "scan_14_4"])


@one_trial
def test_one_trial_runs_no_matrix_rank(rank_calls, trial):
    # a certified frame spans R^k, and the fit reads its rank off the
    # pivoted QR it starts from
    trial()
    assert rank_calls == []


@one_trial
def test_one_trial_merges_no_rows(monkeypatch, trial):
    # qhull takes the raw +/- v_i, repeats and zeros included; rows are
    # merged only where a body stores them
    calls = []
    for name in ("_collapse_rows", "cKDTree"):
        def counted(*args, _name=name, _fn=getattr(framegeo.polytopes, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(framegeo.polytopes, name, counted)
    trial()
    assert calls == []


def test_conjecture_scan_validation():
    with pytest.raises(ValueError):
        conjecture_scan(3, 2, trials=0, seed=0)
    with pytest.raises(UnsupportedDimensionError):
        conjecture_scan(8, 6, trials=1, seed=0)


def _cross_polytope_support(vectors, k):
    """The k-subset S of the frame whose +/- vectors hull all the others, by
    brute force: every v_i = c V_S with |c|_1 <= 1; None if there is none."""
    for subset in itertools.combinations(range(len(vectors)), k):
        vs = vectors[list(subset)]
        if abs(np.linalg.det(vs)) > 1e-12:
            coefficients = np.linalg.solve(vs.T, vectors.T)
            if np.abs(coefficients).sum(axis=0).max() <= 1.0 + 1e-12:
                return list(subset)
    return None


@pytest.mark.parametrize("n,k,draws", [(3, 2, 120), (6, 3, 1000)])
def test_trials_with_2k_vertices_match_their_closed_forms(n, k, draws):
    # where the cross projection is the cross-polytope conv(+/- v_S), the
    # section is its polar parallelotope, the Lowner ellipsoid is V_S^T B^k
    # with weight 1/k on each v in S, and John's is its polar
    found = 0
    for t in range(draws):
        subspace = random_subspace(n, k, trial_seed(5, t))
        vectors = project_standard_basis(subspace).vectors
        support = _cross_polytope_support(vectors, k)
        if support is None:
            continue
        found += 1
        det = abs(np.linalg.det(vectors[support]))
        ratios = verify_volume_bounds(subspace).ratios
        for key, want in (("cube_section_ratio", 1.0 / det), ("john_ratio", 1.0 / det),
                          ("cross_projection_ratio", det), ("lowner_ratio", det)):
            assert ratios[key] == pytest.approx(want, rel=1e-14, abs=0.0), (t, key)
        weights = np.zeros(n)
        weights[support] = 1.0 / k
        assert np.array_equal(lowner_symmetric(vectors, eps=DEFAULT_EPS).weights, weights)
    assert found >= 50

