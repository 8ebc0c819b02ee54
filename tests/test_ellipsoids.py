import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import framegeo.ellipsoids
from framegeo.ellipsoids import (DEFAULT_EPS, ConvergenceError, Ellipsoid,
                                 SpanError, ellipsoid_volume,
                                 ellipsoid_volume_ratio, ellipsoid_volume_ratios,
                                 john_of_cube_section, lowner_block, lowner_symmetric,
                                 polar_ellipsoid, unit_ball_volume)
from framegeo.frames import Subspace, project_standard_basis
from framegeo.majorization import NormProfile, construct_realization
from framegeo.polytopes import equality_subspace
from framegeo.experiments import random_subspace, trial_seed, verify_ellipsoid_bounds


def assert_certificate(pts, fit, eps=DEFAULT_EPS):
    """The solver's exit certificate and a valid design, checked on pts."""
    quad = np.einsum("ij,jk,ik->i", pts, fit.ellipsoid.matrix, pts)
    assert np.max(quad) <= 1.0 + eps
    assert np.all(quad[fit.weights > 0.0] >= 1.0 - eps)
    assert fit.weights.min() >= 0.0
    assert fit.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_unit_ball_volume_past_the_gamma_overflow():
    # gamma(k/2 + 1) overflows from k = 342; below that the expression is kept
    assert unit_ball_volume(341) == math.pi ** 170.5 / math.gamma(171.5)
    for k in (341, 342, 400, 435):
        log_volume = k / 2 * math.log(math.pi) - math.lgamma(k / 2 + 1)
        assert unit_ball_volume(k) == pytest.approx(math.exp(log_volume), rel=1e-12)
    for k in (342, 343):  # vol(B^k) = 2 pi / k vol(B^(k-2)) across the switch
        assert unit_ball_volume(k) == pytest.approx(
            2.0 * math.pi / k * unit_ball_volume(k - 2), rel=1e-12)


@pytest.mark.parametrize("n,k", [(360, 345), (420, 400), (500, 440)])
def test_ellipsoid_reports_past_the_gamma_overflow(n, k):
    # at (500, 440) vol(B^k) is subnormal, so the ratios are not formed from it
    assert verify_ellipsoid_bounds(random_subspace(n, k, trial_seed(1, 0))).proved_ok


def test_ellipsoid_volume_ratio_past_the_unit_ball_underflow():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((3, 3))
    e = Ellipsoid(k=3, matrix=B @ B.T + np.eye(3))
    assert ellipsoid_volume(e) == unit_ball_volume(3) * ellipsoid_volume_ratio(e)
    # vol(B^600) is 0 in floats; the ratio 4^(-300) = 2^(-600) is not
    e = Ellipsoid(k=600, matrix=4.0 * np.eye(600))
    assert unit_ball_volume(600) == 0.0
    assert ellipsoid_volume_ratio(e) == pytest.approx(2.0 ** -600, rel=1e-12)
    assert ellipsoid_volume_ratio(polar_ellipsoid(e)) == pytest.approx(2.0 ** 600, rel=1e-12)


def test_ellipsoid_volume_diagonal():
    e = Ellipsoid(k=2, matrix=2.0 * np.eye(2))
    assert ellipsoid_volume(e) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_ellipsoid_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        Ellipsoid(k=2, matrix=np.array([[1.0, 0.0], [0.0, -1.0]]))


@pytest.mark.parametrize("make", [
    lambda: Ellipsoid(k=2, matrix=np.eye(3)),
    lambda: Ellipsoid(k=2, matrix=np.array([[1.0, 0.0], [0.0, math.inf]])),
    lambda: lowner_symmetric(np.array([[1.0, 0.0], [0.0, math.nan]])),
], ids=["ellipsoid-shape", "ellipsoid-non-finite", "lowner-non-finite"])
def test_malformed_input_raises_value_error(make):
    with pytest.raises(ValueError) as err:
        make()
    assert err.type is ValueError


def test_polar_is_an_involution():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((3, 3))
    e = Ellipsoid(k=3, matrix=B @ B.T + np.eye(3))
    back = polar_ellipsoid(polar_ellipsoid(e))
    assert np.max(np.abs(back.matrix - e.matrix)) <= 1e-12
    # volume product of an ellipsoid and its polar is the squared ball volume
    prod = ellipsoid_volume(e) * ellipsoid_volume(polar_ellipsoid(e))
    assert prod == pytest.approx(unit_ball_volume(3) ** 2, rel=1e-9)


def test_single_pair_interval():
    fit = lowner_symmetric(np.array([[0.5]]))
    assert abs(fit.ellipsoid.matrix[0, 0] - 4.0) <= 1e-12
    assert fit.weights[0] == pytest.approx(1.0)


def test_interval_oracle_exact():
    # in one dimension the cover is the interval of half-length max |p_i|
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.standard_normal((6, 1)) * rng.uniform(0.1, 5.0)
        fit = lowner_symmetric(pts)
        expected = 1.0 / float(np.max(np.abs(pts))) ** 2
        assert abs(fit.ellipsoid.matrix[0, 0] - expected) <= 1e-12 * expected


def test_equality_frame_gives_round_ellipsoid():
    frame = project_standard_basis(equality_subspace(4, 2))
    fit = lowner_symmetric(frame.vectors)
    assert np.max(np.abs(fit.ellipsoid.matrix - 2.0 * np.eye(2))) <= 1e-9
    # the vectors come in identical pairs (0, 1) and (2, 3); the optimum
    # fixes only each pair's total weight
    assert np.all(fit.weights >= 0.0)
    assert np.allclose(fit.weights.reshape(2, 2).sum(axis=1), 0.5, atol=1e-9)


def test_axis_aligned_john_is_unit_ball():
    basis = np.zeros((2, 5))
    basis[0, 0] = basis[1, 1] = 1.0
    ell = john_of_cube_section(Subspace(n=5, k=2, basis=basis))
    assert np.max(np.abs(ell.matrix - np.eye(2))) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_containment_and_support_certificates(seed):
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(5, 12)), int(rng.integers(2, 5))
    pts = rng.standard_normal((m, k))
    eps = 1e-7
    fit = lowner_symmetric(pts, eps=eps)
    quad = np.einsum("ij,jk,ik->i", pts, fit.ellipsoid.matrix, pts)
    assert np.max(quad) <= 1.0 + eps
    assert np.max(quad) >= 1.0 - eps * k
    support = fit.weights > eps
    assert np.all(quad[support] >= 1.0 - 10.0 * eps)
    assert fit.weights.min() >= 0.0
    assert fit.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_scale_equivariance():
    rng = np.random.default_rng(33)
    pts = rng.standard_normal((7, 3))
    base = lowner_symmetric(pts).ellipsoid.matrix
    for c in (0.5, 2.0):
        scaled = lowner_symmetric(c * pts).ellipsoid.matrix
        assert np.max(np.abs(scaled - base / c ** 2)) <= 1e-10 * np.max(np.abs(base))


def test_rotation_leaves_volume_invariant():
    rng = np.random.default_rng(44)
    pts = rng.standard_normal((9, 3))
    vol = ellipsoid_volume(lowner_symmetric(pts).ellipsoid)
    for seed in range(3):
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        vol_rot = ellipsoid_volume(lowner_symmetric(pts @ q.T).ellipsoid)
        assert vol_rot == pytest.approx(vol, rel=1e-8)


def test_zero_vectors_are_dropped():
    pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    fit = lowner_symmetric(pts)
    assert fit.weights[1] == 0.0
    ref = lowner_symmetric(pts[[0, 2]])
    assert np.max(np.abs(fit.ellipsoid.matrix - ref.ellipsoid.matrix)) <= 1e-12


@pytest.mark.parametrize("pts", [
    np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]]),
    np.random.default_rng(21).standard_normal((8, 3)) @ np.diag([1.0, 0.0, 0.0]),
    np.random.default_rng(22).standard_normal((8, 3)) @ np.diag([1.0, 1.0, 0.0]),
    np.random.default_rng(23).standard_normal((8, 1)) @ np.array([[1.0, -2.0, 0.5]]),
    np.random.default_rng(24).standard_normal((8, 2)) @ np.array([[1.0, 2.0, 0.0],
                                                                  [0.0, 1.0, 3.0]]),
], ids=["line_in_R2", "axis_in_R3", "plane_in_R3", "line_in_R3", "plane_mixed_in_R3"])
def test_rank_deficient_points_raise(pts):
    with pytest.raises(SpanError) as err:
        lowner_symmetric(pts)
    assert err.value.rank == np.linalg.matrix_rank(pts) < pts.shape[1]


def test_no_points_span_the_zero_subspace():
    # SpanError subclasses ValueError, so a caller catching that still does
    with pytest.raises(SpanError) as err:
        lowner_symmetric(np.zeros((0, 3)))
    assert err.value.rank == 0
    for shapeless in (np.zeros((3, 0)), np.zeros((0, 0)), np.ones(3)):
        with pytest.raises(ValueError, match=r"\(m, k\) array"):
            lowner_symmetric(shapeless)


@pytest.mark.parametrize("s", [1e-8, 1e-9, 1e-10])
def test_points_near_a_plane_raise_span_error_fast(s):
    # 8 Gaussian points in R^3 whose second coordinate is the first plus s
    # times noise.  M(u) squares the condition number, so within a few steps
    # it is not positive-definite in floating point and the fit raises
    # instead of running to its iteration cap
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((8, 3))
    pts[:, 1] = pts[:, 0] + s * rng.standard_normal(8)
    with pytest.raises(SpanError):
        lowner_symmetric(pts, max_iterations=1000)


def test_eps_must_be_positive():
    # and finite: nan passed an eps <= 0 check and ran the fit to its step
    # cap, and inf made the 1 +/- eps certificate vacuous
    for eps in (0.0, -math.inf, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            lowner_symmetric(np.eye(2), eps=eps)


def test_max_iterations_must_be_nonnegative():
    # a negative cap would run no step and leave no Cholesky factor to return
    with pytest.raises(ValueError, match="max_iterations"):
        lowner_symmetric(np.eye(2), max_iterations=-1)
    assert lowner_symmetric(np.eye(2), max_iterations=0).iterations == 0


def test_iteration_cap_raises_with_gap():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((30, 4))
    with pytest.raises(ConvergenceError) as err:
        lowner_symmetric(pts, eps=1e-12, max_iterations=3)
    assert err.value.gap > 0.0


def test_slow_tail_frame_converges_in_few_steps():
    # a non-degenerate Haar frame (13 support points, none near-active off
    # the support) on which Frank-Wolfe/away steps alone take 8623 steps
    frame = project_standard_basis(random_subspace(40, 5, trial_seed(5, 70)))
    fit = lowner_symmetric(frame.vectors, max_iterations=300)
    assert_certificate(frame.vectors, fit)
    assert 0 < fit.iterations <= 300
    assert 0.0 <= fit.gap <= 5 * DEFAULT_EPS


@pytest.mark.parametrize("m,k,seed", [(12, 3, 29), (20, 4, 9), (20, 4, 52)])
def test_heavy_tailed_points_converge_without_null_steps(m, k, seed):
    # well-conditioned points with Cauchy-scaled norms; a line search that
    # halves its Newton step until it moves no weight accepts that null
    # step over and over, and the fit runs to its iteration cap
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, k)) * rng.standard_cauchy((m, 1))
    fit = lowner_symmetric(pts, eps=1e-10, max_iterations=200)
    assert_certificate(pts, fit, eps=1e-10)


def test_pivoted_start_takes_few_steps_on_haar_frames():
    # uniform weights on all 40 points would take about 45 steps here: an
    # away step drops at most one of the ~31 points off the optimal support
    steps = []
    for t in range(20):
        frame = project_standard_basis(random_subspace(40, 5, trial_seed(11, t)))
        fit = lowner_symmetric(frame.vectors)
        assert_certificate(frame.vectors, fit)
        steps.append(fit.iterations)
    assert np.median(steps) <= 20


def test_fit_reports_steps_and_final_gap():
    frame = project_standard_basis(equality_subspace(6, 3))
    fit = lowner_symmetric(frame.vectors)
    assert fit.iterations == 0  # the k pivoted points are already optimal
    assert fit.gap <= 3 * DEFAULT_EPS
    pts = np.random.default_rng(5).standard_normal((30, 4))
    fit = lowner_symmetric(pts)
    quad = np.einsum("ij,jk,ik->i", pts, fit.ellipsoid.matrix, pts)
    gap = max(np.max(quad) - 1.0, 1.0 - np.min(quad[fit.weights > 0.0])) * 4
    assert fit.iterations > 0
    assert fit.gap == pytest.approx(gap, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("n,k", [(100, 10), (200, 8)])
def test_large_haar_frames_certify_in_few_newton_steps(n, k):
    # points outside the cover join the Newton step, up to k per step; with
    # one Frank-Wolfe step per added point these frames took up to 165 steps
    # at (100, 10) and 106 at (200, 8)
    for t in range(20):
        pts = project_standard_basis(random_subspace(n, k, trial_seed(2026, t))).vectors
        fit = lowner_symmetric(pts, max_iterations=20)
        assert_certificate(pts, fit)
        assert fit.newton_steps == fit.iterations


def test_slowest_first_order_frame_certifies_in_few_steps():
    # 198 of the 201 steps this frame took were Frank-Wolfe/away steps
    # while points off the support stayed out of the Newton step
    pts = project_standard_basis(random_subspace(100, 10, trial_seed(2026, 115))).vectors
    fit = lowner_symmetric(pts, max_iterations=20)
    assert_certificate(pts, fit)


def test_fit_counts_its_newton_steps(monkeypatch):
    # iterations - newton_steps is the number of Frank-Wolfe/away steps
    calls = []
    step = framegeo.ellipsoids._frank_wolfe_step

    def counted(*args):
        calls.append("frank_wolfe")
        return step(*args)

    monkeypatch.setattr(framegeo.ellipsoids, "_frank_wolfe_step", counted)
    rng = np.random.default_rng(214)
    pts = rng.standard_normal((30, 6)) * rng.standard_cauchy((30, 1))
    fit = lowner_symmetric(pts)
    assert_certificate(pts, fit)
    assert 0 < fit.newton_steps < fit.iterations
    assert fit.iterations - fit.newton_steps == len(calls)
    calls.clear()
    frame = project_standard_basis(random_subspace(40, 5, trial_seed(2026, 0))).vectors
    fit = lowner_symmetric(frame)
    assert fit.newton_steps == fit.iterations > 0
    assert not calls


@pytest.mark.parametrize("helper,rejected", [
    ("_cholesky", lambda M: None),
    ("_newton_direction", lambda YA, r: np.zeros(r.size)),
], ids=["factorization-fails", "direction-does-not-ascend"])
def test_a_rejected_newton_trial_gives_way_to_a_first_order_step(monkeypatch, helper,
                                                                 rejected):
    # no known input makes a Newton trial's M(u) lose positive definiteness
    # or its direction fail to ascend, so during the first trial the
    # factorization is made to fail, or the direction to be zero (slope 0)
    frame = project_standard_basis(random_subspace(40, 5, trial_seed(2026, 0))).vectors
    plain = lowner_symmetric(frame)
    started, trials = [], []
    newton_step = framegeo.ellipsoids._newton_step
    real = getattr(framegeo.ellipsoids, helper)

    def recorded_step(*args):
        started.append(args)
        trials.append(newton_step(*args))
        return trials[-1]

    def first_trial_rejected(*args):
        return (rejected if len(started) == 1 and not trials else real)(*args)

    monkeypatch.setattr(framegeo.ellipsoids, "_newton_step", recorded_step)
    monkeypatch.setattr(framegeo.ellipsoids, helper, first_trial_rejected)
    fit = lowner_symmetric(frame)
    assert trials[0] is None and fit.newton_steps == len(trials) - 1 > 0
    assert_certificate(frame, fit)
    assert fit.newton_steps < plain.newton_steps


def _heavy_tailed(m, k, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)) * rng.standard_cauchy((m, 1))


@pytest.mark.parametrize("m,k", [(12, 3), (20, 4), (30, 6)])
def test_heavy_tailed_points_certify_across_seeds(m, k):
    # well-conditioned directions with row norms spread over decades; the
    # fit certifies gap <= k eps in its own factorization, while <A p, p>
    # recomputed from the explicit A carries rounding of up to 1.6e-9 here
    for seed in range(300):
        if (m, k, seed) == (30, 6, 237):
            continue  # the conditioning limit, an xfail below
        pts = _heavy_tailed(m, k, seed)
        fit = lowner_symmetric(pts, eps=1e-10, max_iterations=2000)
        assert fit.gap <= k * 1e-10
        assert_certificate(pts, fit, eps=1e-8)


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="ROADMAP D9: M(u) = P^T U P squares cond(P) = 7.3e3 and "
                          "rounds off the digits an eps of 1e-10 needs")
def test_heavy_tailed_points_at_the_conditioning_limit():
    pts = _heavy_tailed(30, 6, 237)
    fit = lowner_symmetric(pts, eps=1e-10, max_iterations=2000)
    assert_certificate(pts, fit, eps=1e-10)


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="ROADMAP D12: with more active points than k(k+1)/2 every "
                          "Newton solve is least squares, which drops the direction "
                          "that moves weight within a near-duplicate pair")
def test_a_frame_stacked_on_a_near_duplicate_copy_converges():
    frame = project_standard_basis(random_subspace(6, 3, trial_seed(99, 3))).vectors
    copy = frame * (1.0 + 1e-12 * np.random.default_rng(3).standard_normal(frame.shape))
    pts = np.vstack([frame, copy])
    fit = lowner_symmetric(pts, eps=1e-12, max_iterations=2000)
    assert_certificate(pts, fit, eps=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["duplicated", "antipodal"])
@pytest.mark.parametrize("n,k,seed", [(14, 5, 62), (20, 4, 3), (40, 5, 63)])
def test_repeated_rows_take_the_least_squares_newton_step(lstsq_calls, sign, n, k, seed):
    # a point and its copy give equal rows of Q o Q, so the Newton system is
    # not positive-definite and least squares solves it
    frame = project_standard_basis(random_subspace(n, k, seed)).vectors
    ref = lowner_symmetric(frame, eps=1e-12)
    assert not lstsq_calls
    pts = np.vstack([frame, sign * frame])
    fit = lowner_symmetric(pts, eps=1e-12)
    assert lstsq_calls
    assert_certificate(pts, fit, eps=1e-12)
    scale = np.max(np.abs(ref.ellipsoid.matrix))
    assert np.max(np.abs(fit.ellipsoid.matrix - ref.ellipsoid.matrix)) <= 1e-12 * scale


# repeated and antipodal points make the Newton system [[-(Q o Q), 1],
# [1^T, 0]] singular on the support; zero rows and scaled-down copies are
# points the cover must ignore
REPEATED_POINTS = {
    "duplicated rows": lambda V: np.vstack([V, V[:3]]),
    "antipodal copies": lambda V: np.vstack([V, -V]),
    "zero rows": lambda V: np.vstack([np.zeros((2, V.shape[1])), V,
                                      np.zeros((1, V.shape[1]))]),
    "scaled copies": lambda V: np.vstack([V, 1e-3 * V]),
}


@pytest.mark.parametrize("kind", sorted(REPEATED_POINTS))
@pytest.mark.parametrize("n,k,seed", [(6, 3, 61), (14, 5, 62), (40, 5, 63)])
def test_repeated_points_keep_the_certificate(kind, n, k, seed):
    frame = project_standard_basis(random_subspace(n, k, seed)).vectors
    pts = REPEATED_POINTS[kind](frame)
    fit = lowner_symmetric(pts)
    assert_certificate(pts, fit)
    assert np.all(fit.weights[~pts.any(axis=1)] == 0.0)
    ref = ellipsoid_volume(lowner_symmetric(frame).ellipsoid)
    assert ellipsoid_volume(fit.ellipsoid) == pytest.approx(ref, rel=1e-9)


def fit_bits(fit):
    """Every bit of a fit: its matrix, weights, step counts and gap."""
    return (repr(fit.ellipsoid.matrix.tolist()), repr(fit.weights.tolist()),
            fit.iterations, fit.newton_steps, repr(fit.gap))


def haar_block(n, k, size, master=1):
    return [project_standard_basis(random_subspace(n, k, trial_seed(master, t))).vectors
            for t in range(size)]


BLOCK_SIZES = [(6, 3, 20), (14, 4, 32), (40, 5, 10), (200, 20, 16), (4, 1, 20), (5, 2, 20)]


@pytest.mark.parametrize("n,k,size", BLOCK_SIZES)
def test_a_block_fit_gives_every_set_the_bits_it_has_alone(n, k, size):
    # a round stacks only the leverages and the tests read off them; each
    # set keeps its own solves and factorizations, and leaves the block
    # once certified, at the start or after five steps or more
    sets = haar_block(n, k, size)
    alone = [fit_bits(lowner_symmetric(points)) for points in sets]
    assert [fit_bits(fit) for fit in lowner_block(sets)] == alone
    assert [fit_bits(fit) for fit in lowner_block(sets[::-1])] == alone[::-1]
    steps = [bits[2] for bits in alone]
    if k in (3, 4):
        assert 0 in steps and max(steps) >= 5


@pytest.mark.parametrize("n,k,size", BLOCK_SIZES)
def test_a_fits_cover_is_exactly_symmetric_and_the_matrix_ellipsoid_keeps(n, k, size):
    # the cover is built once, without Ellipsoid's symmetrizing copy: numpy
    # forms L^{-T} L^{-1} by syrk, so it is exactly symmetric, and it is
    # bit for bit the matrix that Ellipsoid(k, cover) keeps
    for fit in lowner_block(haar_block(n, k, size)):
        A = fit.ellipsoid.matrix
        assert not A.flags.writeable
        assert A.tobytes() == A.T.copy().tobytes()
        assert Ellipsoid(k, A).matrix.tobytes() == A.tobytes()


class PlantedLapack:
    """scipy's LAPACK, with the inverse factor dtrtri returns passed through
    ``plant`` first."""

    def __init__(self, plant):
        self.plant = plant

    def __getattr__(self, name):
        return getattr(lapack, name)

    def dtrtri(self, L, lower):
        L_inv, info = lapack.dtrtri(L, lower=lower)
        return self.plant(L_inv.copy()), info


def _zero_first_column(L_inv):
    L_inv[:, 0] = 0.0
    return L_inv


def _nan_corner(L_inv):
    L_inv[0, 0] = np.nan
    return L_inv


def _inf_corner(L_inv):
    L_inv[-1, -1] = np.inf
    return L_inv


@pytest.mark.parametrize("plant,message", [
    (_zero_first_column, "matrix is not positive-definite"),
    (_nan_corner, "matrix contains non-finite entries"),
    (_inf_corner, "matrix contains non-finite entries"),
], ids=["singular", "nan", "inf"])
def test_a_cover_planted_bad_at_exit_raises_what_ellipsoid_raises(monkeypatch, plant, message):
    # the exit's L^{-1} is altered, so the cover A = L^{-T} L^{-1} / k is
    # singular or not finite; the fit raises what Ellipsoid(k, A) raises
    sets = haar_block(6, 3, 4)
    planted = []

    def kept(L_inv):
        planted.append(plant(L_inv))
        return planted[-1]

    monkeypatch.setattr(framegeo.ellipsoids, "lapack", PlantedLapack(kept))
    with pytest.raises(ValueError) as block:
        lowner_block(sets)
    with pytest.raises(ValueError) as alone:
        lowner_symmetric(sets[0])
    monkeypatch.undo()
    L_inv = planted[-1]
    with pytest.raises(ValueError) as want:
        Ellipsoid(3, (L_inv.T @ L_inv) / 3)
    assert str(block.value) == str(alone.value) == str(want.value) == message


def test_a_set_whose_newton_trial_is_rejected_steps_alone_in_its_block(monkeypatch):
    # the set's first Newton trial is rejected, so it takes a Frank-Wolfe or
    # away step from its own row of leverages while the others take Newton
    # steps; the step and every fit keep the bits they have alone
    sets = haar_block(40, 5, 10)
    target, rejected, first_order = sets[3], [], []
    newton_step = framegeo.ellipsoids._newton_step
    frank_wolfe_step = framegeo.ellipsoids._frank_wolfe_step

    def reject_once(P, *args):
        if P is target and not rejected:
            rejected.append(P)
            return None
        return newton_step(P, *args)

    def recorded(u, g, i_fw, i_aw, k):
        frank_wolfe_step(u, g, i_fw, i_aw, k)
        first_order.append((i_fw, i_aw, repr(u.tolist())))

    monkeypatch.setattr(framegeo.ellipsoids, "_newton_step", reject_once)
    monkeypatch.setattr(framegeo.ellipsoids, "_frank_wolfe_step", recorded)
    fits = lowner_block(sets)
    in_block = first_order[:]
    rejected.clear()
    first_order.clear()
    alone = [lowner_symmetric(points) for points in sets]
    assert len(in_block) == 1 and in_block == first_order
    assert [fit_bits(fit) for fit in fits] == [fit_bits(fit) for fit in alone]
    assert [fit.iterations - fit.newton_steps for fit in fits] == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert_certificate(target, fits[3])


def test_a_set_with_repeated_points_takes_least_squares_in_its_block(lstsq_calls):
    V = haar_block(20, 4, 4)
    sets = [np.vstack([V[0], V[1]]), np.vstack([V[2], V[2]]), np.vstack([V[3], -V[1]])]
    fits = lowner_block(sets)
    assert lstsq_calls
    alone = [lowner_symmetric(points) for points in sets]
    assert [fit_bits(fit) for fit in fits] == [fit_bits(fit) for fit in alone]
    for points, fit in zip(sets, fits):
        assert_certificate(points, fit)


def test_a_capped_block_raises_what_its_first_capped_set_raises_alone():
    # at a cap of 4 steps the first three sets of the block certify and five
    # of the others do not, the fourth first, each with its own gap; the
    # block raises in the round of the cap
    sets = haar_block(40, 5, 10)
    sets = sets[3:] + sets[:3]
    capped = []
    for points in sets:
        try:
            lowner_symmetric(points, max_iterations=4)
        except ConvergenceError as err:
            capped.append(err)
    assert len(capped) == 5 and len({err.gap for err in capped}) == 5
    with pytest.raises(ConvergenceError) as err:
        lowner_block(sets, max_iterations=4)
    assert (str(err.value), repr(err.value.gap)) == (str(capped[0]), repr(capped[0].gap))


def _near_plane(s=1e-8):
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((8, 3))
    pts[:, 1] = pts[:, 0] + s * rng.standard_normal(8)
    return pts


@pytest.mark.parametrize("make,rank", [
    (lambda V: V * [1.0, 1.0, 0.0], 2),   # spans a plane: fails at the start
    (lambda V: _near_plane(), 2),          # within rounding of one: fails in a round
], ids=["plane", "near-plane"])
def test_a_rank_deficient_set_in_a_block_raises_its_span_error(make, rank):
    sets = haar_block(8, 3, 5)
    sets[2] = make(sets[2])
    with pytest.raises(SpanError) as alone:
        lowner_symmetric(sets[2])
    with pytest.raises(SpanError) as err:
        lowner_block(sets)
    assert err.value.rank == alone.value.rank == rank
    assert str(err.value) == str(alone.value)
    # a non-finite set after it: the block's finiteness test comes first
    with pytest.raises(ValueError, match="^points contain non-finite entries$"):
        lowner_block(sets[:4] + [np.full_like(sets[4], np.nan)])
    # a block of (0, k) sets raises what one raises alone, rank 0
    with pytest.raises(SpanError) as empty_alone:
        lowner_symmetric(np.zeros((0, 3)))
    with pytest.raises(SpanError) as empty:
        lowner_block([np.zeros((0, 3))] * 3)
    assert empty.value.rank == empty_alone.value.rank == 0
    assert str(empty.value) == str(empty_alone.value)


def test_the_start_raises_for_the_first_deficient_set_and_clears_mixed_scales():
    sets = haar_block(8, 3, 5)
    deficient = list(sets)
    deficient[1] = sets[1] * [1.0, 0.0, 0.0]  # rank 1
    deficient[3] = sets[3] * [1.0, 1.0, 0.0]  # rank 2
    for block, rank in ((deficient, 1), (deficient[::-1], 2)):
        with pytest.raises(SpanError) as err:
            lowner_block(block)
        assert (str(err.value), err.value.rank) == (
            f"points span a {rank}-dimensional subspace of R^3", rank)
    # sets 1e20 apart in scale: the block's least |R_ii| is below the
    # largest set's rank threshold, so each set's own threshold decides,
    # and every set spans and is fitted as it is alone
    scaled = [P * 1e-20 ** (b % 2) for b, P in enumerate(sets)]
    diags = [np.abs(np.diag(scipy.linalg.qr(P.T, pivoting=True)[1])) for P in scaled]
    assert min(map(min, diags)) < max(map(max, diags)) * 8 * np.finfo(float).eps
    assert ([fit_bits(fit) for fit in lowner_block(scaled)]
            == [fit_bits(lowner_symmetric(P)) for P in scaled])


def test_a_block_takes_sets_of_one_shape():
    assert lowner_block([]) == []
    with pytest.raises(ValueError, match="one shape"):
        lowner_block([np.eye(3), np.eye(4)[:, :3]])


@pytest.mark.parametrize("k", [1, 2, 5, 20, 600])
def test_stacked_volume_ratios_are_each_ratio_alone(k):
    # one stacked log-determinant gives every ellipsoid's ratio bit for bit,
    # past the unit ball's underflow too
    rng = np.random.default_rng(k)
    ellipsoids = []
    for _ in range(4):
        B = rng.standard_normal((k, k))
        ellipsoids.append(Ellipsoid(k=k, matrix=B @ B.T / k + np.eye(k)))
    alone = [math.exp(-0.5 * np.linalg.slogdet(e.matrix)[1]) for e in ellipsoids]
    assert repr(ellipsoid_volume_ratios(ellipsoids)) == repr(alone)
    assert repr([ellipsoid_volume_ratio(e) for e in ellipsoids]) == repr(alone)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (12, 4)])
def test_equality_frames_keep_the_certificate(n, k):
    # all n points are active, more than k (k + 1) / 2 of them at (12, 4)
    pts = project_standard_basis(equality_subspace(n, k)).vectors
    fit = lowner_symmetric(pts)
    assert_certificate(pts, fit)
    assert np.max(np.abs(fit.ellipsoid.matrix - (n / k) * np.eye(k))) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_uniform_profiles_give_the_round_cover(k, data, seed):
    # a rotated Parseval frame with every squared norm k/n is covered by the
    # ball of radius sqrt(k/n), and both ellipsoid bounds hold with equality
    n = data.draw(st.integers(k, 40))
    q = random_subspace(k, k, seed).basis
    V = construct_realization(NormProfile(k, np.full(n, k / n))).vectors @ q
    fit = lowner_symmetric(V)
    assert np.max(np.abs(fit.ellipsoid.matrix * k / n - np.eye(k))) <= 2 * DEFAULT_EPS
    report = verify_ellipsoid_bounds(Subspace(n=n, k=k, basis=V.T))
    for name in ("lowner_ratio", "john_ratio"):
        check = report.checks[name]
        assert check.value == pytest.approx(check.bound, rel=1e-12, abs=0.0)
        assert check.at_equality
    assert report.profile_uniform


def test_points_within_rounding_of_a_line_raise_span_error():
    # rank 2 by SVD, but the moment matrix is singular in floating point
    pts = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9], [2.0, 2.0 - 1e-9]])
    assert np.linalg.matrix_rank(pts) == 2
    with pytest.raises(SpanError):
        lowner_symmetric(pts)


def assert_duality_bracket(points, fit, ratio, eps=DEFAULT_EPS):
    """The Lowner ratio reported for ``fit``, checked from its weights and
    matrix alone: it is the volume ratio of the matrix and the dual value
    det(k M(u))^{1/2} at the weights, which by weak duality is at most the
    true ratio; the cover A / max_i <A p_i, p_i> holds every point, so its
    volume ratio is at least the true one, and it is within (1 + eps)^{k/2}."""
    k = points.shape[1]
    ball = unit_ball_volume(k)
    dual = math.sqrt(np.linalg.det(k * (points.T * fit.weights) @ points))
    assert ratio == pytest.approx(dual, rel=1e-12, abs=0.0)
    assert ellipsoid_volume(fit.ellipsoid) / ball == pytest.approx(ratio, rel=1e-12, abs=0.0)
    reach = np.einsum("ij,jk,ik->i", points, fit.ellipsoid.matrix, points).max()
    cover = ellipsoid_volume(Ellipsoid(k=k, matrix=fit.ellipsoid.matrix / reach)) / ball
    assert ratio * (1.0 - 1e-12) <= cover <= ratio * (1.0 + eps) ** (k / 2)


@pytest.mark.parametrize("n,k,frames", [(6, 3, 60), (14, 4, 60), (40, 5, 30), (100, 10, 10)])
def test_every_lowner_fit_is_bracketed_by_its_dual(n, k, frames):
    for t in range(frames):
        subspace = random_subspace(n, k, trial_seed(2026, t))
        points = project_standard_basis(subspace).vectors
        ratio = verify_ellipsoid_bounds(subspace).ratios["lowner_ratio"]
        assert_duality_bracket(points, lowner_symmetric(points, eps=DEFAULT_EPS), ratio)
        # uniform weights on a Parseval frame: the paper's Lowner bound
        uniform = math.sqrt(np.linalg.det(k * points.T @ points / n))
        assert uniform == pytest.approx((k / n) ** (k / 2), rel=1e-12, abs=0.0)
        assert uniform <= ratio


@pytest.mark.parametrize("plant", ["scaled-matrix", "permuted-weights"])
def test_duality_bracket_fails_on_a_planted_error(plant):
    subspace = random_subspace(14, 4, trial_seed(2026, 0))
    points = project_standard_basis(subspace).vectors
    ratio = verify_ellipsoid_bounds(subspace).ratios["lowner_ratio"]
    fit = lowner_symmetric(points, eps=DEFAULT_EPS)
    if plant == "scaled-matrix":
        fit = fit._replace(ellipsoid=Ellipsoid(k=4, matrix=fit.ellipsoid.matrix * (1.0 + 1e-6)))
    else:
        fit = fit._replace(weights=np.roll(fit.weights, 1))
    with pytest.raises(AssertionError):
        assert_duality_bracket(points, fit, ratio)


@pytest.mark.parametrize("n,k,seed", [(5, 2, 0), (7, 3, 1), (8, 4, 2)])
def test_projected_frames_respect_volume_bound(n, k, seed):
    report = verify_ellipsoid_bounds(random_subspace(n, k, seed))
    assert report.checks["lowner_ratio"].bound == pytest.approx((k / n) ** (k / 2), rel=1e-12)
    assert report.passes["lowner_ratio"]


def test_k2_grid_oracle_local_optimality():
    # no nearby covering ellipse does better than the solver by more than it should
    rng = np.random.default_rng(101)
    pts = rng.standard_normal((8, 2))
    A = lowner_symmetric(pts).ellipsoid.matrix
    evals, evecs = np.linalg.eigh(A)
    axes = 1.0 / np.sqrt(evals)
    vol_solver = axes[0] * axes[1]
    theta0 = math.atan2(evecs[1, 0], evecs[0, 0])
    best = math.inf
    thetas = theta0 + np.linspace(-0.02, 0.02, 21)
    scales = np.linspace(0.99, 1.01, 21)
    for theta in thetas:
        c, s = math.cos(theta), math.sin(theta)
        x = pts @ np.array([c, s])
        y = pts @ np.array([-s, c])
        for fa in scales:
            for fb in scales:
                a, b = axes[0] * fa, axes[1] * fb
                if np.all((x / a) ** 2 + (y / b) ** 2 <= 1.0 + 1e-9):
                    best = min(best, a * b)
    assert best >= vol_solver * (1.0 - 0.003)
