"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package, prints a single
pass/fail line with the measured margin against the stated tolerance, and
then asserts.  The random batch shared by the bound checks lives in
conftest.py.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import block_diag

from framegeo.ellipsoids import lowner_symmetric
from framegeo.experiments import (conjecture_scan, random_subspace,
                                  trial_seed, verify_volume_bounds)
from framegeo.frames import certify_unit_decomposition, project_standard_basis
from framegeo.majorization import (NormProfile, construct_realization,
                                   is_realizable, random_realizable_profile)
from framegeo.polytopes import (cross_projection, equality_subspace,
                                polytope_from_frame, support_function)

EQUALITY_CASES = [(2, 1), (4, 2), (6, 2), (6, 3), (8, 4)]


def _emit(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)


@pytest.fixture(scope="module")
def equality_reports():
    return {(n, k): verify_volume_bounds(equality_subspace(n, k))
            for n, k in EQUALITY_CASES}


def test_criterion_1_equality_cases(capsys, equality_reports):
    start = time.perf_counter()
    worst = 0.0
    for (n, k), report in equality_reports.items():
        for key, ratio in report.ratios.items():
            bound = report.bounds[key]
            worst = max(worst, abs(ratio - bound) / abs(bound))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _emit(capsys, 1, "block-average cases attain all four volume-ratio bounds",
          ok, f"max relative deviation {worst:.2e}, tol 1e-06, {elapsed:.2f}s/10s")
    assert ok, f"worst relative deviation {worst:.3e} (tol 1e-6), {elapsed:.2f}s"


def test_criterion_2_cover_bound_and_equality_iff(capsys, random_batch,
                                                  equality_reports):
    reports, elapsed = random_batch
    assert len(reports) == 500
    min_slack = math.inf
    iff_breaks = []
    for r in reports + list(equality_reports.values()):
        min_slack = min(min_slack,
                        r.ratios["lowner_ratio"] - r.bounds["lowner_ratio"])
        if r.equality["lowner_ratio"] != r.profile_uniform:
            iff_breaks.append((r.n, r.k, r.trial_id))
    both_sides = ({r.profile_uniform for r in equality_reports.values()} == {True}
                  and any(not r.profile_uniform for r in reports))
    ok = min_slack >= -1e-6 and not iff_breaks and both_sides and elapsed < 60.0
    _emit(capsys, 2, "cover ratio bound and uniform-profile equality test on "
          "500 random subspaces", ok,
          f"min slack {min_slack:.2e} >= -1e-06, iff breaks {len(iff_breaks)}, "
          f"{elapsed:.2f}s/60s")
    assert ok, (min_slack, iff_breaks[:5], elapsed)


def test_criterion_3_exact_volume_inequalities(capsys, random_batch):
    reports, _ = random_batch
    min_cube_slack = math.inf
    min_cross_slack = math.inf
    sandwich_breaks = 0
    for r in reports:
        min_cube_slack = min(min_cube_slack,
                             r.bounds["cube_section_ratio"]
                             - r.ratios["cube_section_ratio"])
        min_cross_slack = min(min_cross_slack,
                              r.ratios["cross_projection_ratio"]
                              - r.bounds["cross_projection_ratio"])
        if (r.ratios["cube_section_ratio"] > r.ratios["john_ratio"] + 1e-6
                or r.ratios["cross_projection_ratio"]
                < r.ratios["lowner_ratio"] - 1e-6):
            sandwich_breaks += 1
    ok = (min_cube_slack >= -1e-9 and min_cross_slack >= -1e-9
          and sandwich_breaks == 0)
    _emit(capsys, 3, "exact section/projection volumes obey both bounds and "
          "the ellipsoid sandwich", ok,
          f"min slacks {min_cube_slack:.2e}/{min_cross_slack:.2e} >= -1e-09, "
          f"sandwich breaks {sandwich_breaks}")
    assert ok, (min_cube_slack, min_cross_slack, sandwich_breaks)


def test_criterion_4_profile_realization_round_trip(capsys):
    start = time.perf_counter()
    pairs = [(n, k) for n in range(2, 11) for k in range(1, n + 1)]
    worst_norm = 0.0
    worst_cert = 0.0
    for t in range(1000):
        n, k = pairs[t % len(pairs)]
        profile = random_realizable_profile(n, k, seed=trial_seed(4242, t))
        frame = construct_realization(profile)
        worst_norm = max(worst_norm, float(np.max(np.abs(
            frame.squared_norms() - profile.entries))))
        worst_cert = max(worst_cert,
                         certify_unit_decomposition(frame).deviation)
    not_realizable = 0
    for t in range(1000):
        n, k = pairs[t % len(pairs)]
        frame = project_standard_basis(random_subspace(n, k, trial_seed(4343, t)))
        profile = NormProfile(k=k, entries=frame.squared_norms())
        if not is_realizable(profile):
            not_realizable += 1
    elapsed = time.perf_counter() - start
    ok = (worst_norm <= 1e-8 and worst_cert <= 1e-8 and not_realizable == 0
          and elapsed < 30.0)
    _emit(capsys, 4, "1000 realizable profiles construct and 1000 projected "
          "frames test realizable", ok,
          f"max norm error {worst_norm:.2e}, max certification deviation "
          f"{worst_cert:.2e}, tol 1e-08; unrealizable {not_realizable}; "
          f"{elapsed:.2f}s/30s")
    assert ok, (worst_norm, worst_cert, not_realizable, elapsed)


def test_criterion_5_section_is_polar_of_projection(capsys):
    pairs = [(5, 2), (6, 3), (7, 3), (8, 4), (4, 2)]
    worst = 0.0
    for s in range(50):
        n, k = pairs[s % len(pairs)]
        frame = project_standard_basis(random_subspace(n, k, trial_seed(777, s)))
        section = polytope_from_frame(frame)
        # The polar of the projection is {y : |<w, y>| <= 1} over its vertex
        # representatives w.  Its support comes from a linear program written
        # here, which shares no code with the library's vertex maximum: one
        # block y_j per direction u_j, maximizing sum_j <u_j, y_j>, so that
        # each block's optimum is the support at u_j.
        W = cross_projection(frame).vrep
        U = np.random.default_rng(trial_seed(778, s)).standard_normal((200, k))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        A_ub = block_diag([np.vstack([W, -W])] * len(U), format="csr")
        res = linprog(c=-U.ravel(), A_ub=A_ub, b_ub=np.ones(A_ub.shape[0]),
                      bounds=(None, None), method="highs")
        assert res.status == 0, res.message
        lp = np.einsum("jk,jk->j", U, res.x.reshape(U.shape))
        worst = max(worst, *(abs(support_function(section, u) - h) for u, h in zip(U, lp)))
    ok = worst <= 1e-8
    _emit(capsys, 5, "support functions of the section and the polar of the "
          "projection agree", ok,
          f"max deviation {worst:.2e} over 50x200 directions, tol 1e-08")
    assert ok, worst


def _grid_min_covering_ellipse_area(pts):
    """Independent oracle: smallest-area covering ellipse over a grid of
    rotation angles and aspect ratios, scale solved exactly per cell.

    For a fixed angle and aspect ratio rho = b/a the minimal covering scale
    is a^2 = max_i (x_i^2 + y_i^2 / rho^2), so the grid only needs to cover
    (theta, rho); two refinement rounds bring the relative resolution of
    both parameters below 1e-3.
    """
    def scan(thetas, rhos):
        best = (math.inf, 0.0, 1.0)
        for theta in thetas:
            c, s = math.cos(theta), math.sin(theta)
            x = pts[:, 0] * c + pts[:, 1] * s
            y = -pts[:, 0] * s + pts[:, 1] * c
            a_sq = np.max(x[:, None] ** 2 + (y[:, None] / rhos[None, :]) ** 2,
                          axis=0)
            areas = math.pi * rhos * a_sq
            j = int(np.argmin(areas))
            if areas[j] < best[0]:
                best = (float(areas[j]), theta, float(rhos[j]))
        return best

    area, theta, rho = scan(np.linspace(0.0, math.pi / 2, 181, endpoint=False),
                            np.geomspace(0.02, 50.0, 241))
    for span, steps in ((0.02, 41), (0.002, 41)):
        area, theta, rho = scan(
            theta + np.linspace(-span, span, steps),
            rho * np.geomspace(1.0 - span, 1.0 + span, steps))
    return area


def test_criterion_6_solver_against_independent_oracles(capsys):
    rng = np.random.default_rng(31337)
    worst_interval = 0.0
    for _ in range(20):
        pts = rng.standard_normal((int(rng.integers(3, 13)), 1)) * rng.uniform(0.2, 4.0)
        got = lowner_symmetric(pts).ellipsoid.matrix[0, 0]
        expected = 1.0 / float(np.max(np.abs(pts))) ** 2
        worst_interval = max(worst_interval, abs(got - expected) / expected)
    worst_excess = 0.0
    for _ in range(20):
        pts = rng.standard_normal((int(rng.integers(4, 11)), 2))
        A = lowner_symmetric(pts).ellipsoid.matrix
        solver_area = math.pi / math.sqrt(float(np.linalg.det(A)))
        oracle_area = _grid_min_covering_ellipse_area(pts)
        assert oracle_area <= solver_area * 1.02  # the oracle saw the optimum
        worst_excess = max(worst_excess,
                           (solver_area - oracle_area) / oracle_area)
    ok = worst_interval <= 1e-12 and worst_excess <= 0.003
    _emit(capsys, 6, "solver matches the interval oracle and the planar grid "
          "oracle", ok,
          f"interval deviation {worst_interval:.2e} <= 1e-12, grid excess "
          f"{worst_excess:.2e} <= 3e-03")
    assert ok, (worst_interval, worst_excess)


def test_criterion_7_two_power_bound_scan(capsys):
    start = time.perf_counter()
    summaries = [conjecture_scan(n, k, trials=10_000, seed=2718 + n * 10 + k)
                 for n, k in ((3, 2), (4, 3), (5, 3))]
    elapsed = time.perf_counter() - start
    violations = sum(len(s.ball2_violations) for s in summaries)
    observed = "; ".join(
        f"(n={s.n},k={s.k}) min cross ratio {s.min_cross_ratio:.6f} vs "
        f"soft bound {s.bound_2pow:.6f}" for s in summaries)
    ok = violations == 0 and elapsed < 600.0
    _emit(capsys, 7, "30000-subspace scan of the proved two-power section "
          "bound", ok,
          f"violations {violations}, {elapsed:.1f}s/600s; unasserted: {observed}")
    assert ok, (violations, elapsed)
