import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

import framegeo.polytopes
from framegeo.ellipsoids import DEFAULT_EPS, Ellipsoid, ellipsoid_volume, lowner_symmetric
from framegeo.frames import (CertificationError, FrameSet, Subspace,
                             orthogonal_completion, project_standard_basis)
from framegeo.experiments import random_subspace, trial_seed, verify_volume_bounds
from framegeo.majorization import construct_realization, random_realizable_profile
from framegeo.polytopes import (K_EXACT, TAU_GEO, DegenerateBodyError,
                                Polytope, UnboundedBodyError,
                                UnsupportedDimensionError, VolumeEstimate,
                                _collapse_rows, _frame_volumes, absolute_hull_gauge,
                                cross_projection, enumerate_vertices,
                                equality_subspace, estimate_volume, polar,
                                polytope_from_frame, support_function, volume)

SQ2 = math.sqrt(2.0)


def section_of(n, k):
    return polytope_from_frame(project_standard_basis(equality_subspace(n, k)))


def hull_of(n, k):
    return cross_projection(project_standard_basis(equality_subspace(n, k)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_cube_volume(k):
    cube = Polytope(k=k, hrep=np.eye(k))
    assert volume(cube) == pytest.approx(2.0 ** k, rel=1e-12)


def test_diagonal_line_section_is_a_segment():
    assert volume(section_of(2, 1)) == pytest.approx(2.0 * SQ2, rel=1e-12)


@pytest.mark.parametrize("n,k,expected", [
    (4, 2, 8.0),
    (6, 3, 16.0 * SQ2),
    (8, 4, 64.0),
    (10, 5, 128.0 * SQ2),
])
def test_block_average_section_volumes(n, k, expected):
    # the section is a cube with side 2 sqrt(n/k)
    assert volume(section_of(n, k)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n,k,expected", [
    (2, 1, SQ2),
    (4, 2, 1.0),
    (6, 3, (8.0 / 6.0) * 0.5 ** 1.5),
    (8, 4, (16.0 / 24.0) * 0.25),
    (10, 5, 4.0 * SQ2 / 120.0),
])
def test_block_average_hull_volumes(n, k, expected):
    assert volume(hull_of(n, k)) == pytest.approx(expected, rel=1e-12)


def test_section_times_hull_matches_cube_cross_product():
    # the two bodies are polar to each other; for the block-average case the
    # pair is a scaled cube and its dual, so the product is 2^k * 2^k / k!
    for n, k in [(4, 2), (6, 3)]:
        prod = volume(section_of(n, k)) * volume(hull_of(n, k))
        assert prod == pytest.approx(4.0 ** k / math.factorial(k), rel=1e-9)


def test_duplicate_functionals_are_collapsed_with_multiplicity():
    p = section_of(4, 2)
    assert p.hrep.shape == (2, 2)


def test_interior_generator_is_not_a_vertex():
    vecs = np.array([[0.8, 0.0], [0.6, 0.0], [0.0, 1.0]])
    frame = FrameSet(n=3, k=2, vectors=vecs)
    q = cross_projection(frame)
    assert q.vrep.shape == (2, 2)
    got = {tuple(np.round(r, 9)) for r in q.vrep}
    assert got == {(0.8, 0.0), (0.0, 1.0)}


def test_zero_frame_vector_imposes_nothing():
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    frame = FrameSet(n=3, k=2, vectors=vecs)
    assert polytope_from_frame(frame).hrep.shape == (2, 2)
    assert cross_projection(frame).vrep.shape == (2, 2)


def test_uncertified_frame_is_rejected():
    frame = FrameSet(n=2, k=2, vectors=np.array([[2.0, 0.0], [0.0, 1.0]]))
    for body in (polytope_from_frame, cross_projection):
        with pytest.raises(CertificationError) as err:
            body(frame)
        assert err.value.deviation == 3.0, body


def test_enumerate_vertices_of_scaled_square():
    verts = enumerate_vertices(section_of(4, 2)).vrep
    assert verts.shape == (2, 2)
    full = np.vstack([verts, -verts])
    expected = np.array([[-SQ2, -SQ2], [-SQ2, SQ2], [SQ2, -SQ2], [SQ2, SQ2]])
    order = np.lexsort(full.T[::-1])
    assert np.allclose(full[order], expected, atol=1e-9)


@pytest.mark.parametrize("n,k,seed", [(5, 2, 3), (6, 3, 4), (7, 3, 5)])
def test_enumerated_vertices_are_feasible_and_active(n, k, seed):
    p = polytope_from_frame(project_standard_basis(random_subspace(n, k, seed)))
    verts = enumerate_vertices(p).vrep
    prods = np.abs(verts @ p.hrep.T)
    assert np.max(prods) <= 1.0 + 1e-9
    # each vertex sits on at least k facets
    active = np.sum(prods >= 1.0 - 1e-9, axis=1)
    assert np.min(active) >= k


def oracle_section_vertices(G, tol=1e-9):
    """Vertex representatives of {y : |G y| <= 1} by brute force.

    Every vertex solves k independent active constraints <g_i, y> = +/-1,
    so solve each k-subset of rows for every sign pattern with a leading +1,
    keep the feasible solutions and merge points equal up to sign.
    """
    m, k = G.shape
    patterns = np.array([(1.0,) + tail
                         for tail in itertools.product([1.0, -1.0], repeat=k - 1)])
    found = []
    for idx in itertools.combinations(range(m), k):
        sub = G[list(idx)]
        if abs(np.linalg.det(sub)) <= 1e-12:
            continue
        for y in np.linalg.solve(sub, patterns.T).T:
            if np.max(np.abs(G @ y)) > 1.0 + tol:
                continue
            if not any(min(np.max(np.abs(y - z)), np.max(np.abs(y + z))) <= tol
                       for z in found):
                found.append(y)
    return np.array(found)


def assert_same_up_to_sign(got, want, tol=1e-9):
    assert got.shape == want.shape
    dist = np.minimum(np.max(np.abs(got[:, None, :] - want[None, :, :]), axis=2),
                      np.max(np.abs(got[:, None, :] + want[None, :, :]), axis=2))
    close = dist <= tol
    # a bijection: every row matches exactly one row of the other set
    assert np.all(close.sum(axis=0) == 1) and np.all(close.sum(axis=1) == 1)


RANDOM_SECTIONS = [(n, k, seed) for n, k, seeds in
                   [(5, 2, (31, 32, 33)), (6, 3, (34, 35, 36)), (8, 4, (37, 38)),
                    (14, 4, (39, 40)), (16, 3, (43,)), (10, 5, (41, 42))]
                   for seed in seeds]


@pytest.mark.parametrize("n,k,seed", RANDOM_SECTIONS)
def test_section_vertices_match_brute_force_oracle(n, k, seed):
    frame = project_standard_basis(random_subspace(n, k, seed))
    p = polytope_from_frame(frame)
    verts = oracle_section_vertices(p.hrep)
    assert_same_up_to_sign(enumerate_vertices(p).vrep, verts)
    section = volume(p)
    assert section == pytest.approx(ConvexHull(np.vstack([verts, -verts])).volume,
                                    rel=1e-12)
    # Vaaler: a central k-section of the n-cube has volume >= 2^k
    assert section / 2.0 ** k >= 1.0
    # Blaschke-Santalo for the polar pair (section, projection)
    ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
    assert section * volume(cross_projection(frame)) <= ball ** 2 * (1.0 + 1e-9)


@pytest.mark.parametrize("n,k,seed", RANDOM_SECTIONS + [(4, 1, 44), (16, 2, 45)]
                         + [(n, k, None) for n, k in [(4, 2), (6, 3), (8, 4), (10, 5)]])
def test_trial_volumes_match_the_public_bodies(n, k, seed):
    # a trial takes both volumes from one hull; the public path builds each
    # body on its own.  seed None is the equality subspace.
    sub = equality_subspace(n, k) if seed is None else random_subspace(n, k, seed)
    frame = project_standard_basis(sub)
    ratios = verify_volume_bounds(sub).ratios
    assert ratios["cube_section_ratio"] * 2.0 ** k == pytest.approx(
        volume(polytope_from_frame(frame)), rel=1e-14, abs=0.0)
    cross = ratios["cross_projection_ratio"] * 2.0 ** k / math.factorial(k)
    assert cross == pytest.approx(volume(cross_projection(frame)), rel=1e-14, abs=0.0)


def test_every_hull_entry_point_handles_k1():
    # qhull cannot run at k = 1, where every hull is an interval [-t, t]
    frame = FrameSet(n=3, k=1, vectors=np.array([[0.6], [0.0], [-0.8]]))
    cross = cross_projection(frame)
    assert np.array_equal(cross.vrep, np.array([[0.8]]))
    assert volume(cross) == 1.6
    section = polytope_from_frame(frame)
    assert np.array_equal(enumerate_vertices(section).vrep, np.array([[1.0 / 0.8]]))
    assert volume(section) == 2.0 / 0.8
    assert framegeo.polytopes._frame_volumes([frame])[0] == (volume(section), volume(cross))
    hrep = Polytope(k=1, hrep=np.array([[0.5], [-2.0], [1.0]]))
    assert np.array_equal(enumerate_vertices(hrep).vrep, np.array([[0.5]]))
    assert volume(hrep) == 1.0
    assert volume(Polytope(k=1, vrep=np.array([[0.5], [-3.0]]))) == 6.0
    with pytest.raises(DegenerateBodyError):
        volume(Polytope(k=1, vrep=np.array([[0.0]])))


@pytest.mark.parametrize("n", range(2, 7))
def test_codimension_one_cross_projection_matches_cauchy(n):
    # Cauchy's projection formula over the cross-polytope's 2^n facets
    # (unit normals eps / sqrt(n), each of volume sqrt(n) / (n - 1)!) gives
    # the shadow on the hyperplane with unit normal a:
    # sum_eps |<eps, a>| / (2 (n - 1)!)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    for t in range(20):
        sub = random_subspace(n, n - 1, trial_seed(n, t))
        a = np.linalg.svd(sub.basis)[2][-1]
        cauchy = np.abs(signs @ a).sum() / (2 * math.factorial(n - 1))
        shadow = volume(cross_projection(project_standard_basis(sub)))
        assert shadow == pytest.approx(cauchy, rel=1e-12)


def ball_section_volume(a):
    """Volume of the section of [-1, 1]^n by the hyperplane normal to ``a``:
    2^n f(0) |a|, where f is the density of sum a_i U_i with U_i uniform on
    [-1, 1] (Ball, "Cube slicing in R^n"),
    f(0) = sum_eps (prod eps_i) (sum eps_i |a_i|)_+^(n-1) / ((n-1)! prod 2|a_i|).
    The alternating sum cancels badly in floats, so it is exact in rationals."""
    n = len(a)
    w = [Fraction(abs(float(x))) for x in a]
    total = Fraction(0)
    for eps in itertools.product((-1, 1), repeat=n):
        s = sum(e * x for e, x in zip(eps, w))
        if s > 0:
            total += math.prod(eps) * s ** (n - 1)
    density = total / (math.factorial(n - 1) * math.prod(2 * x for x in w))
    return 2.0 ** n * float(density) * float(np.linalg.norm(a))


# criterion 7's scans at (3,2) and (4,3), then one master seed for each n
@pytest.mark.parametrize("n,master", [(3, 2750), (4, 2761), (3, 3), (4, 4), (5, 5), (6, 6)])
def test_codimension_one_cube_section_matches_ball(n, master):
    for t in range(40):
        frame = project_standard_basis(random_subspace(n, n - 1, trial_seed(master, t)))
        exact = ball_section_volume(orthogonal_completion(frame)[-1])
        for section in (_frame_volumes([frame])[0][0], volume(polytope_from_frame(frame))):
            assert section == pytest.approx(exact, rel=1e-13)
            assert section * (1 + 1e-9) != pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 4), (10, 5)])
def test_equality_section_has_one_vertex_per_cube_corner_pair(n, k):
    p = section_of(n, k)
    verts = enumerate_vertices(p).vrep
    assert verts.shape == (2 ** (k - 1), k)
    assert_same_up_to_sign(verts, oracle_section_vertices(p.hrep))


def test_section_with_non_simplicial_polar_is_an_octahedron():
    # The functionals are the cube's corners, so the polar hull has square
    # facets that qhull splits into triangles with repeated normals; the
    # section is the octahedron conv(+/- e_i).
    corners = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0],
                        [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]])
    p = Polytope(k=3, hrep=corners)
    assert_same_up_to_sign(enumerate_vertices(p).vrep, np.eye(3))
    assert volume(p) == pytest.approx(4.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_section_volume_is_exact_on_a_non_simplicial_hull(k):
    # functionals at the cube's corners (both signs of each): qhull splits
    # the cube's facets, and the section is the cross-polytope, 2^k / k!
    corners = np.array(list(itertools.product([1.0, -1.0], repeat=k)))
    assert volume(Polytope(k=k, hrep=corners)) == pytest.approx(
        2.0 ** k / math.factorial(k), rel=1e-12)


def test_section_volume_of_the_cube_from_28000_functionals_27995_interior():
    # 28 000 functionals at k = 5: the cross-polytope's 5 corners and 27 995
    # points inside it, which bound nothing.  The section is the cube
    # [-1, 1]^5.  Faces are keyed by at most 3 hull-vertex numbers, not by
    # the 56 000 point numbers.
    inner = np.random.default_rng(9).uniform(-0.1, 0.1, (28_000 - 5, 5))
    assert volume(Polytope(k=5, hrep=np.vstack([np.eye(5), inner]))) == pytest.approx(
        32.0, rel=1e-12)


def test_trial_hulls_a_frame_padded_with_zero_vectors():
    # the trial hulls the raw +/- v_i, here 5 unit vectors and 27 995 zeros;
    # the section is [-1, 1]^5 and the projection the cross-polytope
    basis = np.zeros((5, 28_000))
    basis[:, :5] = np.eye(5)
    ratios = verify_volume_bounds(Subspace(n=28_000, k=5, basis=basis)).ratios
    assert [ratios["cube_section_ratio"], ratios["cross_projection_ratio"]] == pytest.approx(
        [1.0, 1.0], rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(size=st.sampled_from([(4, 2), (6, 3), (8, 4), (14, 4), (9, 5)]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_trial_volumes_ignore_the_order_and_signs_of_the_frame(size, seed, data):
    # reordering and flipping the v_i reorders qhull's points and facets,
    # and so the apexes of the triangulation, but not the volumes
    n, k = size
    frame = project_standard_basis(random_subspace(n, k, seed))
    order = data.draw(st.permutations(range(n)))
    signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n,
                                        max_size=n)))
    moved = FrameSet(n=n, k=k, vectors=signs[:, None] * frame.vectors[order])
    want = framegeo.polytopes._frame_volumes([frame])[0]
    got = framegeo.polytopes._frame_volumes([moved])[0]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_collapse_rows_semantics():
    tol = 1e-9
    rows = np.array([
        [1.0, 2.0],               # first of its class: kept as is
        [1.0, 2.0],               # exact duplicate
        [1.0, 2.0 + 1e-12],       # near duplicate
        [-1.0, -2.0],             # the same functional up to sign
        [0.0, 0.0],               # zero: dropped
        [1e-12, -3e-13],          # norm below tol: dropped
        [-1e-10, 3.0],            # negative entry below tol does not set the sign
        [-3e-10, -3.0],           # flips to [3e-10, 3.0], a near duplicate
        [0.0, -1.0],              # flips to [0.0, 1.0]
        [5.0, 0.0],
        [5.0 + 0.6e-9, 0.0],      # within tol of the rep [5, 0]
        [5.0 + 1.2e-9, 0.0],      # within tol of the row before, not of the rep
        [7.0, 0.0],
        [7.0 + 0.6e-9, 0.0],      # joins [7, 0]
        [7.0 + 1.5e-9, 0.0],      # near only the row before, which is no rep
        [7.0 + 1.2e-9, 0.0],      # near both rows before: joins the rep
    ])
    reps = _collapse_rows(rows, tol)
    expected = np.array([[1.0, 2.0], [-1e-10, 3.0], [0.0, 1.0],
                         [5.0, 0.0], [5.0 + 1.2e-9, 0.0],
                         [7.0, 0.0], [7.0 + 1.5e-9, 0.0]])
    assert np.array_equal(reps, expected)
    # a row with no entry above tol keeps its sign, and is kept if its norm
    # exceeds tol
    faint = np.array([[-8e-10, -8e-10, -8e-10, -8e-10], [0.0, 0.0, 0.0, -2.0]])
    reps = _collapse_rows(faint, tol)
    assert np.array_equal(reps, np.array([[-8e-10] * 4, [0.0, 0.0, 0.0, 2.0]]))
    for empty in (np.zeros((0, 3)), np.zeros((2, 3))):
        assert _collapse_rows(empty, tol).shape == (0, 3)


def polygon_area(pts):
    """Shoelace area of the polygon with vertices pts, in order."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def shoelace_area(verts):
    """Area of the centrally symmetric polygon with vertices +/- verts."""
    pts = np.vstack([verts, -verts])
    return polygon_area(pts[np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))])


def monotone_chain_hull(points):
    """Vertices of the convex hull of 2-D points in counter-clockwise order,
    by Andrew's monotone chain."""
    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(sorted_points):
        chain = []
        for p in sorted_points:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    pts = sorted(map(tuple, points))
    return np.array(half(pts) + half(pts[::-1]))


@pytest.mark.parametrize("n", range(3, 13))
def test_planar_trial_volumes_match_a_polygon_oracle(n):
    # at k = 2 both bodies are polygons, so their areas follow from the
    # brute-force section vertices and a monotone-chain hull of the +/- v_i
    # with no qhull; every (3, 2) trial of criterion 7 is covered this way
    for t in range(4):
        frame = project_standard_basis(random_subspace(n, 2, trial_seed(n, t)))
        v = frame.vectors
        section = shoelace_area(oracle_section_vertices(v))
        cross = polygon_area(monotone_chain_hull(np.vstack([v, -v])))
        got = (*_frame_volumes([frame])[0], volume(polytope_from_frame(frame)),
               volume(cross_projection(frame)))
        assert got == pytest.approx((section, cross, section, cross), rel=1e-12, abs=0.0)


def test_vertex_enumeration_guards():
    # any number of functionals: 16 rows at k = 2
    p = polytope_from_frame(project_standard_basis(random_subspace(16, 2, 44)))
    assert p.hrep.shape == (16, 2)
    verts = oracle_section_vertices(p.hrep)
    assert_same_up_to_sign(enumerate_vertices(p).vrep, verts)
    assert volume(p) == pytest.approx(shoelace_area(verts), rel=1e-12)
    with pytest.raises(UnsupportedDimensionError):
        enumerate_vertices(Polytope(k=6, hrep=np.eye(6)))
    with pytest.raises(UnboundedBodyError):
        enumerate_vertices(Polytope(k=2, hrep=np.array([[1.0, 0.0], [2.0, 0.0]])))
    with pytest.raises(ValueError):
        enumerate_vertices(Polytope(k=2, vrep=np.eye(2)))


def test_volume_guards():
    with pytest.raises(UnsupportedDimensionError):
        volume(Polytope(k=6, vrep=np.eye(6)))
    with pytest.raises(DegenerateBodyError):
        volume(Polytope(k=2, vrep=np.array([[1.0, 1.0], [2.0, 2.0]])))


def test_polytope_needs_a_representation():
    # exactly one: with both, volume read the V-rep and estimate_volume the H-rep
    for vrep, hrep in [(None, None), (np.eye(2), 2.0 * np.eye(2))]:
        with pytest.raises(ValueError, match="exactly one"):
            Polytope(k=2, vrep=vrep, hrep=hrep)
    with pytest.raises(ValueError):
        Polytope(k=2, hrep=np.ones((3, 4)))
    with pytest.raises(ValueError):
        Polytope(k=1, hrep=np.array([[math.nan]]))


@pytest.mark.parametrize("make", [
    lambda: Polytope(k=0, vrep=np.ones((1, 0))),
    lambda: Polytope(k=-1, hrep=np.ones((1, 1))),
], ids=["vrep-k0", "hrep-negative-k"])
def test_malformed_input_raises_value_error(make):
    with pytest.raises(ValueError, match="k must be positive") as err:
        make()
    assert err.type is ValueError


def test_gauge_values_on_cross_polytope():
    gens = np.eye(2)
    assert absolute_hull_gauge(gens, [0.5, 0.5]) == pytest.approx(1.0, abs=1e-9)
    assert absolute_hull_gauge(gens, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-9)
    assert absolute_hull_gauge(gens, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert absolute_hull_gauge(gens, [-0.25, 0.1]) == pytest.approx(0.35, abs=1e-9)


def test_gauge_outside_span_is_infinite():
    assert absolute_hull_gauge(np.array([[1.0, 0.0]]), [0.0, 1.0]) == math.inf
    # more rows than k, whose third singular value is rounding
    rows = np.random.default_rng(4).standard_normal((7, 2)) @ np.array([[1.0, 2.0, 0.0],
                                                                         [0.0, 1.0, 3.0]])
    assert absolute_hull_gauge(rows, [0.0, 0.0, 1.0]) == math.inf
    assert math.isfinite(absolute_hull_gauge(rows, rows[0] + rows[3]))


@pytest.mark.parametrize("delta", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_lps_return_large_finite_optimum(delta):
    # rows e1, e1 + delta e2, e3 .. e6: e2 is (g2 - g1) / delta, so both the
    # gauge and the support at e2 are 2 / delta, not unbounded
    G = np.eye(6)
    G[1, 0] = 1.0
    G[1, 1] = delta
    e2 = np.eye(6)[1]
    assert absolute_hull_gauge(G, e2) == pytest.approx(2.0 / delta, rel=1e-12)
    assert support_function(Polytope(k=6, hrep=G), e2) == pytest.approx(2.0 / delta, rel=1e-12)


def _highs_gauge(W, point):
    """The gauge program as one HiGHS LP on the raw generators, lambda = x - x'
    with x, x' >= 0, and its dual, max <point, y> over |<w_i, y>| <= 1 (the
    support of the polar at the point); inf, inf outside the span."""
    m = W.shape[0]
    primal = linprog(np.ones(2 * m), A_eq=np.hstack([W.T, -W.T]), b_eq=point,
                     bounds=(0, None), method="highs")
    dual = linprog(-np.asarray(point), A_ub=np.vstack([W, -W]), b_ub=np.ones(2 * m),
                   bounds=(None, None), method="highs")
    if primal.status == 2:
        assert dual.status == 3, dual.message
        return math.inf, math.inf
    assert (primal.status, dual.status) == (0, 0), (primal.message, dual.message)
    return primal.fun, -dual.fun


def _gauge_oracle_cases():
    """Generator sets with points on which the simplex meets degenerate
    pivots: a generator, a sum of two, half of one, and random points."""
    rng = np.random.default_rng(2027)
    sets = [construct_realization(random_realizable_profile(8, 4, trial_seed(13, t))).vectors
            for t in range(6)]
    sets += [rng.standard_normal(shape) for shape in ((8, 4), (12, 6), (5, 3), (6, 6))]
    for _ in range(3):
        G = rng.standard_normal((6, 4))
        G = np.vstack([G, G[:2], -G[2:4], np.zeros((2, 4))])  # duplicated, negated, zero
        sets.append(G[rng.permutation(len(G))])
    sets += [project_standard_basis(equality_subspace(n, k)).vectors
             for n, k in ((4, 2), (6, 3), (8, 4), (12, 6), (12, 4))]
    sets += [rng.standard_normal((m, 6)) for m in (2, 3, 4, 5)]  # rank m < k
    for W in sets:
        m, k = W.shape
        points = [W[m // 2], W[0] + W[1], 0.5 * W[m - 1], W.T @ rng.standard_normal(m),
                  *rng.standard_normal((3, k))]
        for point in points:
            yield W, point


def test_gauge_matches_highs_and_its_dual_bound():
    infinite = 0
    for W, point in _gauge_oracle_cases():
        value = absolute_hull_gauge(W, point)
        primal, dual = _highs_gauge(W, point)
        if math.isinf(primal):
            assert value == math.inf
            infinite += 1
            continue
        # the returned value is the optimum: HiGHS's, and the best dual bound
        assert value == pytest.approx(primal, rel=1e-12, abs=1e-300)
        assert value == pytest.approx(dual, rel=1e-12, abs=1e-300)
    # every random point off a rank-deficient span
    assert infinite == 4 * 3


def _numpy_gauge(W, point):
    """The gauge simplex as written on numpy's linear algebra, with the
    plan's factorization: np.linalg.solve for the signs, np.linalg.inv for
    each new basis, np.linalg.norm for the span test, and numpy's own
    ratio test."""
    plan = framegeo.polytopes._gauge_plan(W.shape, W.tobytes())
    coords = plan.vh @ point
    if np.linalg.norm(point - coords @ plan.vh) > TAU_GEO * np.linalg.norm(point):
        return math.inf
    if plan.sigma.size == 0:
        return 0.0
    b, A, tol = coords / plan.sigma, plan.ut, framegeo.polytopes._LP_TOL
    r, m = A.shape
    basis = plan.basis.copy()
    sign = np.where(np.linalg.solve(A[:, basis], b) < 0.0, -1.0, 1.0)
    inverse = plan.inverse * sign[:, None]
    for _ in range(framegeo.polytopes._LP_PIVOTS_PER_COLUMN * (m + r)):
        z = inverse @ b
        y = inverse.sum(axis=0)
        reduced = y @ A
        over = (np.abs(reduced) > 1.0 + tol).nonzero()[0]
        if over.size == 0:
            break
        j = over[0]
        entering = math.copysign(1.0, reduced[j])
        step = inverse @ (entering * A[:, j])
        rising = (step > tol * np.abs(step).max()).nonzero()[0]
        level = np.where(z > tol * np.abs(z).max(), z, 0.0)[rising] / step[rising]
        ties = rising[level == level.min()]
        leaving = ties[np.argmin(basis[ties])]
        basis[leaving], sign[leaving] = j, entering
        inverse = np.linalg.inv(A[:, basis] * sign)
    return float(z.sum())


def test_gauge_matches_the_simplex_on_numpy_linear_algebra():
    identical = cases = 0
    for W, point in _gauge_oracle_cases():
        value, reference = absolute_hull_gauge(W, point), _numpy_gauge(W, point)
        if math.isinf(reference):
            assert value == math.inf
            continue
        assert value == pytest.approx(reference, rel=1e-14, abs=0.0)
        identical += value == reference
        cases += 1
    # the same pivots, and nearly always the same roundings
    assert identical >= 0.9 * cases


@pytest.mark.parametrize("generators,point", [
    ([[math.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),  # returned inf
    (np.eye(2), [math.nan, 1.0]),                  # raised ArithmeticError
    (np.eye(3), [1.0, 1.0]),                       # raised numpy's matmul error
    ([1.0, 2.0], [1.0]),                           # raised "not enough values to unpack"
], ids=["inf-generator", "nan-point", "short-point", "1d-generators"])
def test_gauge_rejects_malformed_input(generators, point):
    with pytest.raises(ValueError, match="must be a finite"):
        absolute_hull_gauge(generators, point)


def test_gauge_plan_is_built_once_per_generator_set(monkeypatch):
    svds = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    seed = trial_seed(24, 0)
    W = construct_realization(random_realizable_profile(8, 4, seed)).vectors
    directions = np.random.default_rng(seed).standard_normal((16, 4))
    values = [absolute_hull_gauge(W, u) for u in directions]
    assert svds == [(8, 4)]
    # one ulp is another generator set: its own plan, and the value that
    # set gets with no plan cached
    moved = W.copy()
    moved[3, 2] = np.nextafter(moved[3, 2], math.inf)
    moved_values = [absolute_hull_gauge(moved, u) for u in directions]
    assert len(svds) == 2 and moved_values != values
    framegeo.polytopes._gauge_plan.cache_clear()
    assert [absolute_hull_gauge(moved, u) for u in directions] == moved_values
    assert [absolute_hull_gauge(W, u) for u in directions] == values
    assert len(svds) == 4
    # a plan is shared by every caller, so none of its arrays can be written
    for array in framegeo.polytopes._gauge_plan(W.shape, W.tobytes()):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert [absolute_hull_gauge(W, u) for u in directions] == values


def test_support_of_cube_is_l1_norm():
    cube_h = Polytope(k=2, hrep=np.eye(2))
    cube_v = Polytope(k=2, vrep=np.array([[1.0, 1.0], [1.0, -1.0]]))
    for u in ([3.0, 4.0], [-1.0, 0.25], [0.0, 0.0]):
        expected = abs(u[0]) + abs(u[1])
        assert support_function(cube_h, u) == pytest.approx(expected, abs=1e-9)
        assert support_function(cube_v, u) == pytest.approx(expected, abs=1e-12)


def test_support_direction_validation_and_unbounded():
    # a slab has no vertices, yet its support is finite across it
    slab = Polytope(k=2, hrep=np.array([[1.0, 0.0]]))
    assert support_function(slab, [1.0, 0.0]) == 1.0
    with pytest.raises(UnboundedBodyError):
        support_function(slab, [0.0, 1.0])
    with pytest.raises(ValueError):
        support_function(slab, [1.0, 0.0, 0.0])
    # a direction that is not finite is malformed in every branch: it gave
    # nan, inf or ArithmeticError
    bodies = [slab, hull_of(4, 2), section_of(4, 2), Polytope(k=6, hrep=np.eye(6)),
              Polytope(k=6, vrep=np.eye(6))]
    for body, bad in itertools.product(bodies, (math.nan, math.inf, -math.inf)):
        direction = np.ones(body.k)
        direction[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            support_function(body, direction)


@pytest.mark.parametrize("n,k,seed", [(5, 2, 11), (6, 3, 12), (8, 4, 13)])
def test_support_gauge_duality(n, k, seed):
    """The section and the hull of one frame are polar bodies, so the support
    of either one equals the gauge of the other."""
    frame = project_standard_basis(random_subspace(n, k, seed))
    p = polytope_from_frame(frame)
    q = cross_projection(frame)
    rng = np.random.default_rng(seed + 100)
    for _ in range(12):
        u = rng.standard_normal(k)
        h_p = support_function(p, u)
        h_q = support_function(q, u)
        assert h_q == pytest.approx(float(np.max(np.abs(frame.vectors @ u))), abs=1e-12)
        assert h_p == pytest.approx(absolute_hull_gauge(q.vrep, u), abs=1e-8)
        # Cauchy-Schwarz for polar pairs
        assert h_p * h_q >= float(u @ u) - 1e-8


def test_polar_swaps_representations_and_involutes():
    p = section_of(4, 2)
    q = polar(p)
    assert q.vrep is not None and q.hrep is None
    assert np.array_equal(q.vrep, p.hrep)
    back = polar(polar(hull_of(4, 2)))
    assert np.array_equal(back.vrep, hull_of(4, 2).vrep)
    assert volume(polar(p)) == pytest.approx(volume(hull_of(4, 2)), rel=1e-9)


def _count_calls(monkeypatch, name):
    """Wrap ``framegeo.polytopes.<name>``; returns the list each call appends to."""
    calls = []
    wrapped = getattr(framegeo.polytopes, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(framegeo.polytopes, name, counted)
    return calls


def test_section_support_reads_kept_vertices_in_the_exact_range(monkeypatch):
    lps = _count_calls(monkeypatch, "linprog")
    hulls = _count_calls(monkeypatch, "ConvexHull")
    gauges = _count_calls(monkeypatch, "absolute_hull_gauge")
    directions = np.random.default_rng(5).standard_normal((16, 4))
    p = polytope_from_frame(project_standard_basis(random_subspace(8, 4, 5)))
    values = [support_function(p, u) for u in directions]
    assert (len(gauges), len(hulls)) == (0, 1)
    assert values == pytest.approx([float(np.max(np.abs(enumerate_vertices(p).vrep @ u)))
                                    for u in directions], rel=1e-14, abs=0.0)
    # the volume reuses the hull the body kept
    volume(p)
    assert (len(gauges), len(hulls)) == (0, 1)
    # above the exact range there is no vertex set: one gauge program per
    # direction, and none of them is a scipy LP
    q = polytope_from_frame(project_standard_basis(random_subspace(8, 6, 5)))
    for u in np.random.default_rng(6).standard_normal((3, 6)):
        support_function(q, u)
    assert (len(gauges), len(hulls), len(lps)) == (3, 1, 0)


def test_prescribed_norm_query_runs_no_rank_test_and_one_hull(rank_calls, monkeypatch):
    # the frame's rows are collapsed once, for both bodies; the cross
    # projection builds the frame's hull, which the section's support values,
    # volume and estimate read; certified rows span, so no span check runs,
    # and neither does the Lowner fit
    hulls = _count_calls(monkeypatch, "ConvexHull")
    collapses = _count_calls(monkeypatch, "_collapse_rows")
    profile = random_realizable_profile(8, 4, seed=trial_seed(1, 0))
    frame = construct_realization(profile)
    section = polytope_from_frame(frame)
    cross = cross_projection(frame)
    for u in np.random.default_rng(3).standard_normal((16, 4)):
        support_function(section, u)
        support_function(cross, u)
    volume(section)
    estimate_volume(section, samples=2000, seed=3)
    assert (len(rank_calls), len(hulls), len(collapses)) == (0, 1, 1)


@pytest.mark.parametrize("n,k,seed", [(2, 1, 4), (8, 4, 5), (9, 5, 6), (7, 3, 7)])
def test_section_beside_its_projection_matches_a_section_alone(n, k, seed):
    vectors = project_standard_basis(random_subspace(n, k, seed)).vectors
    frame = FrameSet(n=n, k=k, vectors=vectors)
    cross = cross_projection(frame)
    beside = polytope_from_frame(frame)
    alone = polytope_from_frame(FrameSet(n=n, k=k, vectors=vectors))
    # a body with the same rows and no frame checks its span and builds its own hull
    unframed = Polytope(k=k, hrep=alone.hrep)
    directions = np.random.default_rng(seed).standard_normal((8, k))
    for section in (alone, unframed):
        assert np.array_equal(beside.hrep, section.hrep)
        assert volume(beside) == volume(section)
        assert [support_function(beside, u) for u in directions] == [
            support_function(section, u) for u in directions]
        assert np.array_equal(enumerate_vertices(beside).vrep, enumerate_vertices(section).vrep)
        assert estimate_volume(beside, 3000, seed) == estimate_volume(section, 3000, seed)
    # the section reads the hull the projection built, in either order
    assert beside._rows_hull is frame._polytope_rows.hull
    late = FrameSet(n=n, k=k, vectors=vectors)
    first = polytope_from_frame(late)
    assert np.array_equal(cross_projection(late).vrep, cross.vrep)
    assert volume(first) == volume(alone)


def test_a_new_frame_with_the_same_vectors_builds_its_own_hull(monkeypatch):
    hulls = _count_calls(monkeypatch, "ConvexHull")
    collapses = _count_calls(monkeypatch, "_collapse_rows")
    vectors = construct_realization(random_realizable_profile(8, 4, trial_seed(3, 0))).vectors
    frame = FrameSet(n=8, k=4, vectors=vectors)
    for _ in range(2):
        volume(polytope_from_frame(frame))
        cross_projection(frame)
    assert (len(hulls), len(collapses)) == (1, 1)
    replay = FrameSet(n=8, k=4, vectors=vectors)
    volume(polytope_from_frame(replay))
    cross_projection(replay)
    assert (len(hulls), len(collapses)) == (2, 2)
    # above the exact range the section builds no hull, the projection one
    high = project_standard_basis(random_subspace(9, 6, 3))
    section = polytope_from_frame(high)
    support_function(section, np.ones(6))
    assert len(hulls) == 2
    cross_projection(high)
    support_function(section, np.ones(6))
    assert len(hulls) == 3 and section._rows_hull is None


def test_every_frame_is_certified_on_every_build(monkeypatch):
    certifications = _count_calls(monkeypatch, "certify_unit_decomposition")
    vectors = project_standard_basis(random_subspace(8, 4, 9)).vectors
    frame = FrameSet(n=8, k=4, vectors=vectors)
    for build in (polytope_from_frame, cross_projection, polytope_from_frame):
        build(frame)
    assert len(certifications) == 3
    bad = FrameSet(n=8, k=4, vectors=1.01 * vectors)
    for build in (polytope_from_frame, cross_projection):
        with pytest.raises(CertificationError):
            build(bad)


def test_cross_projection_builds_its_one_hull_and_keeps_it(monkeypatch):
    # the hull cross_projection builds to find the vertices is its only one
    # until the body's own: the volumes read it, the estimate's gauge reads
    # the functionals polar to its facets, and the support reads the vertices
    cross = cross_projection(project_standard_basis(random_subspace(8, 4, 5)))
    hulls = _count_calls(monkeypatch, "ConvexHull")
    assert volume(cross) == volume(cross)
    estimate_volume(cross, samples=2000, seed=3)
    for u in np.random.default_rng(3).standard_normal((16, 4)):
        support_function(cross, u)
    assert len(hulls) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(1, K_EXACT), m=st.integers(0, 35), seed=st.integers(0, 2 ** 32 - 1))
def test_bodies_over_a_cross_polytope_match_their_closed_forms(k, m, seed):
    # conv(+/- rows) is the cross-polytope conv(+/- rows of V_S): the other m
    # rows are c V_S with |c|_1 < 1, inside it.  Its polar {y : |rows y| <= 1}
    # is the parallelotope V_S^-1 [-1, 1]^k, whose support at u is |V_S^-T u|_1
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2))
    vs = (q1 * rng.uniform(0.5, 2.0, k)) @ q2
    c = rng.standard_normal((m, k))
    c *= 0.99 * rng.random((m, 1)) / np.abs(c).sum(axis=1, keepdims=True)
    rows = rng.permutation(np.vstack([vs, c @ vs]))
    det = abs(np.linalg.det(vs))
    hull, section = Polytope(k, vrep=rows), Polytope(k, hrep=rows)
    assert volume(hull) == pytest.approx(2.0 ** k * det / math.factorial(k), rel=1e-12)
    assert volume(section) == pytest.approx(2.0 ** k / det, rel=1e-12)
    signs = np.array([(1.0,) + tail for tail in itertools.product([1.0, -1.0], repeat=k - 1)])
    assert_same_up_to_sign(enumerate_vertices(section).vrep, np.linalg.solve(vs, signs.T).T)
    for u in rng.standard_normal((3, k)):
        assert support_function(hull, u) == pytest.approx(np.abs(vs @ u).max(), rel=1e-12)
        assert support_function(section, u) == pytest.approx(
            np.abs(np.linalg.solve(vs.T, u)).sum(), rel=1e-12)


def test_slab_keeps_its_verdict_that_the_functionals_do_not_span(rank_calls):
    slab = Polytope(k=2, hrep=np.array([[1.0, 0.0], [2.0, 0.0]]))
    for _ in range(5):
        assert support_function(slab, [1.0, 0.0]) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(UnboundedBodyError):
        volume(slab)
    with pytest.raises(UnboundedBodyError):
        enumerate_vertices(slab)
    assert len(rank_calls) == 1


@pytest.mark.parametrize("n,seed", [(8, 61), (9, 62)])
def test_support_above_the_exact_range_matches_brute_force_vertices(n, seed):
    # at k = 6 the support is the gauge LP; the oracle shares no code with it
    p = polytope_from_frame(project_standard_basis(random_subspace(n, 6, seed)))
    verts = oracle_section_vertices(p.hrep)
    for u in np.random.default_rng(seed).standard_normal((10, 6)):
        assert support_function(p, u) == pytest.approx(float(np.max(np.abs(verts @ u))),
                                                       rel=1e-9)


def test_kept_vertices_change_no_value_of_the_body():
    fresh = section_of(8, 4)
    filled = section_of(8, 4)
    support_function(filled, np.ones(4))
    assert repr(filled) == repr(fresh)
    assert np.array_equal(polar(filled).vrep, polar(fresh).vrep)
    assert polar(filled).hrep is None
    assert np.array_equal(filled.hrep, fresh.hrep) and filled.vrep is None
    # bodies compare by identity, so comparing two never raises on their arrays
    assert (filled == fresh) is False


@pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("k", [1, 2])
def test_hrep_body_at_any_scale(k, c):
    # the cube [-1/2, 1/2]^k scaled by 1/c
    p = Polytope(k=k, hrep=2.0 * c * np.eye(k))
    corners = np.array(list(itertools.product([0.5], *[[0.5, -0.5]] * (k - 1))))
    assert_same_up_to_sign(enumerate_vertices(p).vrep * c, corners)
    assert volume(p) * c ** k == pytest.approx(1.0, rel=1e-12)
    u = np.arange(1.0, k + 1.0)
    assert support_function(p, u) * c == pytest.approx(0.5 * u.sum(), rel=1e-12)


def test_polar_requires_interior_origin():
    flat = Polytope(k=2, vrep=np.array([[1.0, 0.0]]))
    with pytest.raises(DegenerateBodyError):
        polar(flat)


def test_hrep_scaling_rescales_volume():
    rng = np.random.default_rng(21)
    G = rng.standard_normal((6, 3))
    base = volume(Polytope(k=3, hrep=G))
    for c in (0.5, 3.0):
        scaled = volume(Polytope(k=3, hrep=c * G))
        assert scaled == pytest.approx(base / c ** 3, rel=1e-9)


def test_estimate_volume_of_cube():
    cube = Polytope(k=3, hrep=np.eye(3))
    est = estimate_volume(cube, samples=400_000, seed=5)
    assert est.standard_error > 0.0
    assert abs(est.value - 8.0) <= 4.0 * est.standard_error


def test_estimate_volume_of_block_average_hull():
    body = hull_of(4, 2)
    est = estimate_volume(body, samples=200_000, seed=6)
    assert abs(est.value - 1.0) <= 4.0 * est.standard_error


def test_estimate_volume_is_deterministic():
    body = section_of(6, 3)
    a = estimate_volume(body, samples=50_000, seed=7)
    b = estimate_volume(body, samples=50_000, seed=7)
    assert a == b
    with pytest.raises(ValueError):
        estimate_volume(body, samples=0, seed=7)


def test_estimate_volume_of_hrep_bodies_above_the_exact_range():
    cube = estimate_volume(Polytope(k=6, hrep=np.eye(6)), samples=200_000, seed=9)
    assert abs(cube.value - 64.0) <= 4.0 * cube.standard_error
    # the equality section is a cube with side 2 sqrt(n/k)
    section = estimate_volume(section_of(12, 6), samples=200_000, seed=10)
    assert abs(section.value - (2.0 * SQ2) ** 6) <= 4.0 * section.standard_error
    random_section = polytope_from_frame(project_standard_basis(random_subspace(20, 6, 11)))
    est = estimate_volume(random_section, samples=20_000, seed=11)
    assert math.isfinite(est.value) and est.value > 0.0 and est.standard_error > 0.0
    with pytest.raises(UnboundedBodyError):
        estimate_volume(Polytope(k=3, hrep=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                     [1.0, 1.0, 0.0]])),
                        samples=100, seed=12)


def test_estimate_volume_of_hull_with_many_vertex_pairs():
    body = cross_projection(project_standard_basis(random_subspace(30, 4, 3)))
    assert body.vrep.shape[0] > 14
    est = estimate_volume(body, samples=200_000, seed=13)
    assert abs(est.value - volume(body)) <= 4.0 * est.standard_error


def test_estimate_volume_of_a_flat_vrep_body_is_degenerate():
    flat = Polytope(k=2, vrep=np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(DegenerateBodyError):
        volume(flat)
    with pytest.raises(DegenerateBodyError):
        estimate_volume(flat, samples=100, seed=0)


@pytest.mark.parametrize("rep,error", [("hrep", UnboundedBodyError),
                                       ("vrep", DegenerateBodyError)])
def test_estimate_volume_of_a_body_with_no_rows_raises_what_volume_raises(rep, error):
    body = Polytope(k=2, **{rep: np.zeros((0, 2))})
    with pytest.raises(error):
        volume(body)
    with pytest.raises(error):
        estimate_volume(body, samples=100, seed=0)


def test_support_of_a_vrep_body_with_no_rows_is_that_of_the_origin():
    # the body is {0}, whose gauge is 0 at the origin and inf elsewhere
    empty = np.zeros((0, 2))
    body = Polytope(k=2, vrep=empty)
    for u in ([1.0, -2.0], [0.0, 0.0]):
        assert support_function(body, u) == 0.0
    assert absolute_hull_gauge(empty, [0.0, 0.0]) == 0.0
    assert absolute_hull_gauge(empty, [1.0, -2.0]) == math.inf


def test_estimate_volume_grows_a_vrep_container_to_hold_every_vertex(monkeypatch):
    # the solver certifies its cover only to 1 + eps; here it is off by 4x
    body = cross_projection(project_standard_basis(random_subspace(8, 4, 14)))
    solve = framegeo.polytopes.lowner_symmetric

    def half_size_cover(points, eps):
        fit = solve(points, eps=eps)
        return fit._replace(ellipsoid=Ellipsoid(k=fit.ellipsoid.k,
                                                matrix=4.0 * fit.ellipsoid.matrix))

    monkeypatch.setattr(framegeo.polytopes, "lowner_symmetric", half_size_cover)
    est = estimate_volume(body, samples=200_000, seed=15)
    assert abs(est.value - volume(body)) <= 4.0 * est.standard_error


@pytest.mark.parametrize("n,k,seed", [(6, 3, 51), (8, 4, 52), (14, 4, 53)])
def test_lowner_weighted_ellipsoid_of_functionals_holds_the_section(n, k, seed):
    # the container estimate_volume samples an H-rep body in
    G = polytope_from_frame(project_standard_basis(random_subspace(n, k, seed))).hrep
    w = lowner_symmetric(G).weights
    M = G.T @ np.diag(w) @ G
    verts = enumerate_vertices(Polytope(k=k, hrep=G)).vrep
    assert np.max(np.einsum("ij,jk,ik->i", verts, M, verts)) <= 1.0 + 1e-12


def test_estimate_volume_gauge_path_in_high_dimension():
    # vertex-only body above the exact range falls back to the gauge program
    body = Polytope(k=6, vrep=np.eye(6))
    est = estimate_volume(body, samples=4000, seed=8)
    exact = 2.0 ** 6 / math.factorial(6)
    assert est.standard_error > 0.0
    assert abs(est.value - exact) <= 5.0 * est.standard_error


def _polar_vertices(p):
    """A V-rep body's polar vertices, one per facet of its hull, so each
    +/- pair twice."""
    equations = ConvexHull(np.vstack([p.vrep, -p.vrep])).equations
    return equations[:, :-1] / -equations[:, -1:]


def _hit_test_functionals(p):
    """The rows estimate_volume scores a direction against: an H-rep body's
    functionals, a V-rep body's polar vertices up to K_EXACT, one per +/-
    pair, else None."""
    if p.hrep is not None:
        return p.hrep
    if p.k > K_EXACT:
        return None
    points = _polar_vertices(p)
    return framegeo.polytopes._collapse_rows(points, TAU_GEO * np.abs(points).max())


def _container(p):
    """The ellipsoid estimate_volume covers a body by."""
    if p.hrep is not None:
        u = lowner_symmetric(p.hrep, eps=DEFAULT_EPS).weights
        return Ellipsoid(k=p.k, matrix=(p.hrep.T * (u / u.sum())) @ p.hrep)
    A = lowner_symmetric(p.vrep, eps=DEFAULT_EPS).ellipsoid.matrix
    reach = np.einsum("ij,jk,ik->i", p.vrep, A, p.vrep).max()
    return Ellipsoid(k=p.k, matrix=A / reach)


def _unblocked_estimate(p, samples, seed, functionals=None):
    """estimate_volume as a straight loop: the same container and draws,
    each 100 000-direction chunk scored one sign pattern at a time, with
    each direction's terms summed in order over its unflipped coordinates
    1, 5, 6, ... and then its flipped coordinates 2, 3, 4 (counting from 1).
    The functionals scored are ``_hit_test_functionals`` unless given."""
    k = p.k
    container = _container(p)
    if functionals is None:
        functionals = _hit_test_functionals(p)
    L = np.linalg.cholesky(container.matrix)
    flips = min(k, 4) - 1
    order = [0, *range(4, k), *range(1, 1 + flips)]
    signs = []
    for pattern in range(2 ** flips):
        s = np.ones(k)
        for i in range(flips):
            if pattern >> i & 1:
                s[1 + i] = -1.0
        signs.append(s)
    orbit = len(signs)
    draws = -(-samples // orbit)
    rng = np.random.default_rng(seed)
    total = squares = 0.0
    done = 0
    while done < draws:
        count = min(100_000 // orbit, draws - done)
        z = rng.standard_normal((count, k))
        norms = np.sqrt(sum(z[:, j] ** 2 for j in range(k)))
        orbit_sum = 0.0
        for s in signs:
            if functionals is not None:
                G = functionals @ np.linalg.inv(L).T
                dots = sum((s[j] * z[:, j])[:, None] * G[:, j] for j in order)
                gauge = np.abs(dots).max(axis=1)
            else:
                gauge = np.array([absolute_hull_gauge(p.vrep @ L, s * w) for w in z])
            ratio = np.minimum(norms / gauge, 1.0)
            score = ratio
            for _ in range(k - 1):
                score = score * ratio
            orbit_sum = orbit_sum + score
        means = orbit_sum / orbit
        total += float(means.sum())
        squares += float(means @ means)
        done += count
    mean = total / draws
    spread = math.sqrt(max(squares / draws - mean * mean, 0.0))
    vol = ellipsoid_volume(container)
    return VolumeEstimate(mean * vol, spread / math.sqrt(draws) * vol)


# each body with the directions of the blocks it is tested in: whole orbits
# of max(256, 2**14 // m) directions, m its functionals (or generators on
# the gauge path), with orbits of 2**(min(k, 4) - 1) directions
@pytest.mark.parametrize("body,block", [
    (lambda: section_of(3, 1), 16384),
    (lambda: polytope_from_frame(project_standard_basis(random_subspace(8, 4, 21))), 2048),
    (lambda: polytope_from_frame(project_standard_basis(random_subspace(12, 5, 22))), 1360),
    (lambda: cross_projection(project_standard_basis(random_subspace(6, 2, 23))), 4096),
    (lambda: cross_projection(project_standard_basis(random_subspace(10, 5, 24))), 256),
    # at k = 8 numpy's row sums (np.linalg.norm, np.add.reduce) no longer add in order
    (lambda: Polytope(k=8, hrep=np.eye(8)), 2048),
    (lambda: Polytope(k=6, vrep=np.eye(6) + 0.1), 2728),
], ids=["section-1", "section-4", "section-5", "cross-2", "cross-5", "cube-8", "gauge-6"])
def test_blocked_estimate_is_bit_identical_to_the_unblocked_loop(body, block):
    p = body()
    # the block's edges and a count that crosses the 100 000-direction chunk;
    # with one gauge program per direction, the first block and one past it
    samples = [1, block - 1, block, block + 1, 100_001]
    if _hit_test_functionals(p) is None:
        samples = [1, block + 1]
    for count in samples:
        assert estimate_volume(p, count, seed=31) == _unblocked_estimate(p, count, 31), count


@pytest.mark.parametrize("n,k", [(6, 2), (8, 4), (10, 5)])
def test_a_cross_projection_is_scored_on_one_functional_per_pair(n, k):
    # |<G, z>| = |<-G, z>|, so scoring both of a pair changes no estimate
    # beyond rounding, and the body scores half its polar vertices
    p = cross_projection(project_standard_basis(random_subspace(n, k, trial_seed(36, 0))))
    every = _polar_vertices(p)
    assert 2 * len(_hit_test_functionals(p)) == len(every)
    for seed in range(3):
        est = estimate_volume(p, 20_000, seed)
        want = _unblocked_estimate(p, 20_000, seed, functionals=every)
        assert est.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
        assert est.standard_error == pytest.approx(want.standard_error, rel=1e-12, abs=0.0)


def test_estimate_volume_peak_memory_does_not_grow_with_the_facets():
    # 26 vertex pairs whose hull has 620 facets: the unblocked image of one
    # 100 000-sample chunk took 954 MiB
    body = cross_projection(project_standard_basis(random_subspace(40, 5, 3)))
    tracemalloc.start()
    try:
        estimate_volume(body, samples=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("build", [polytope_from_frame, cross_projection])
def test_estimate_volume_standard_error_is_calibrated(build):
    # z = (estimate - exact) / standard error over 60 Haar (8,4) bodies: an
    # error off by 2x (per direction, or binomial) moves sd(z) out of range
    z = []
    for seed in range(60):
        body = build(project_standard_basis(random_subspace(8, 4, 400 + seed)))
        est = estimate_volume(body, samples=20_000, seed=seed)
        z.append((est.value - volume(body)) / est.standard_error)
    assert abs(np.mean(z)) <= 0.5
    assert 0.7 <= np.std(z) <= 1.3


@pytest.mark.parametrize("kind,n,k,seed", [
    *((kind, n, k, seed) for n, k in ((6, 3), (8, 4)) for kind in ("section", "cross")
      for seed in (61, 62)),
    *(("query", 8, 4, seed) for seed in (41, 42, 43, 44)),
])
def test_estimate_standard_error_is_below_the_binomial_one(kind, n, k, seed):
    # a fifth below the hit-or-miss error of as many directions at the exact
    # hit rate, which hit-or-miss itself reports at its estimated rate
    if kind == "query":
        frame = construct_realization(random_realizable_profile(n, k, trial_seed(seed, 0)))
    else:
        frame = project_standard_basis(random_subspace(n, k, seed))
    p = cross_projection(frame) if kind == "cross" else polytope_from_frame(frame)
    vol = ellipsoid_volume(_container(p))
    f = volume(p) / vol
    est = estimate_volume(p, samples=20_000, seed=5)
    assert 1.25 * est.standard_error < math.sqrt(f * (1.0 - f) / 20_000) * vol


def test_monte_carlo_agrees_with_exact_on_random_bodies():
    checked = 0
    for seed in range(10):
        n = 5 + seed % 3
        k = 2 + seed % 2
        frame = project_standard_basis(random_subspace(n, k, seed + 50))
        for body in (polytope_from_frame(frame), cross_projection(frame)):
            exact = volume(body)
            est = estimate_volume(body, samples=100_000, seed=seed)
            assert abs(est.value - exact) <= 4.0 * est.standard_error, (n, k, seed)
            checked += 1
    assert checked == 20


def test_equality_subspace_validation():
    with pytest.raises(ValueError):
        equality_subspace(5, 2)
    with pytest.raises(ValueError):
        equality_subspace(2, 3)
    with pytest.raises(ValueError):
        equality_subspace(4, 0)
    sub = equality_subspace(9, 3)
    norms = project_standard_basis(sub).squared_norms()
    assert np.max(np.abs(norms - 1.0 / 3.0)) <= 1e-12


# Haar-random (14,5) subspaces whose cube sections made the old volume path,
# a second hull of the section's vertices, raise QhullError: the first trial
# of conjecture_scan(14, 5, 1, m) for these masters m, and
# random_subspace(14, 5, trial_seed(M, t)) for these pairs.  (31, 31) and
# (5, 57) give one seed, as do (31, 34) and (5, 60).
NEAR_DEGENERATE_K5_SEEDS = sorted(
    {trial_seed(m, 0) for m in (1000942, 1000969, 1001043, 1001284, 1001308, 1001607,
                                1002012, 1002221, 1002222, 1002287, 1002432, 1003870,
                                6143717607687760369)}
    | {trial_seed(M, t) for M, t in ((31, 31), (31, 34), (5, 57), (5, 60),
                                     (2024, 376), (2024, 425))})


@pytest.mark.parametrize("seed", NEAR_DEGENERATE_K5_SEEDS)
def test_volume_of_a_near_degenerate_k5_section(seed):
    frame = project_standard_basis(random_subspace(14, 5, seed))
    section = polytope_from_frame(frame)
    got = volume(section)
    assert framegeo.polytopes._frame_volumes([frame])[0][0] == pytest.approx(got, rel=1e-14, abs=0.0)
    # oracle: a joggled hull of the +/- vertices, good to about 1e-9
    verts = enumerate_vertices(section).vrep
    joggled = ConvexHull(np.vstack([verts, -verts]), qhull_options="QJ").volume
    assert got == pytest.approx(joggled, rel=2e-8)


def brute_force_polar_volume(hull):
    """The flag sum of ``_polar_volume`` the long way: all k! orderings of
    every facet's vertices, each face's apex looked up in a table of the
    lowest facet holding it, and a determinant for each chain whose apex
    strictly increases from the first vertex up to the facet."""
    points = framegeo.polytopes._polar_points(hull.equations)
    k = points.shape[1]
    lowest = {}
    for facet, simplex in enumerate(hull.simplices):
        for j in range(1, k):
            for face in itertools.combinations(sorted(simplex), j):
                lowest.setdefault(face, facet)
    flags = []
    for facet, simplex in enumerate(hull.simplices):
        for order in itertools.permutations(simplex):
            chain = [lowest[tuple(sorted(order[:j]))] for j in range(1, k)] + [facet]
            if all(a < b for a, b in zip(chain, chain[1:])):
                flags.append(chain)
    return float(np.abs(np.linalg.det(points[flags])).sum() / math.factorial(k))


def corner_rows(k):
    """The cube's corners (a non-simplicial hull), with repeated, zero and
    interior rows."""
    corners = np.array(list(itertools.product([1.0, -1.0], repeat=k)))
    return np.vstack([corners, corners[:3], np.zeros((2, k)), 0.5 * corners[1:4]])


def cross_rows(k):
    """The cross-polytope's corners, each repeated, with interior rows."""
    inner = np.random.default_rng(k).uniform(-0.2, 0.2, (30, k))
    return np.vstack([np.eye(k), np.eye(k), inner])


def assert_polar_volume_matches_the_brute_force_flag_sum(rows):
    hull = framegeo.polytopes._hull(rows)
    assert framegeo.polytopes._polar_volume([hull])[0] == pytest.approx(
        brute_force_polar_volume(hull), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("t", range(3))
@pytest.mark.parametrize("n,k", [(3, 2), (7, 2), (6, 3), (11, 3), (8, 4), (14, 4),
                                 (10, 5), (14, 5)])
def test_polar_volume_of_haar_hulls_matches_the_brute_force_flag_sum(n, k, t):
    frame = project_standard_basis(random_subspace(n, k, trial_seed(30, t)))
    assert_polar_volume_matches_the_brute_force_flag_sum(frame.vectors)


@pytest.mark.parametrize("seed", NEAR_DEGENERATE_K5_SEEDS)
def test_polar_volume_of_near_degenerate_hulls_matches_the_brute_force_flag_sum(seed):
    frame = project_standard_basis(random_subspace(14, 5, seed))
    assert_polar_volume_matches_the_brute_force_flag_sum(frame.vectors)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_polar_volume_of_degenerate_hulls_matches_the_brute_force_flag_sum(k):
    # pins the ridge apex read off hull.neighbors where qhull splits facets
    # and drops repeated, zero and interior points
    for rows in (corner_rows(k), cross_rows(k)):
        assert_polar_volume_matches_the_brute_force_flag_sum(rows)


def test_polar_volume_at_k6_matches_closed_forms_and_a_hull_of_the_polar():
    # K_EXACT stops the public path at k = 5, so only a direct call reaches
    # the levels of faces with 2, 3 and 4 vertices
    polar_volume = framegeo.polytopes._polar_volume
    for n in (12, 18):
        frame = project_standard_basis(equality_subspace(n, 6))
        got = polar_volume([framegeo.polytopes._hull(frame.vectors)])[0]
        assert got == pytest.approx(2.0 ** 6 * (n / 6) ** 3, rel=1e-12)
    hull = framegeo.polytopes._hull(
        project_standard_basis(random_subspace(12, 6, trial_seed(30, 0))).vectors)
    want = ConvexHull(framegeo.polytopes._polar_points(hull.equations)).volume
    assert polar_volume([hull])[0] == pytest.approx(want, rel=1e-12)


def assert_grouped_growth_matches_each_hull_alone(hulls):
    """Each hull's section volume, grown in its group and in one group of
    all of them, is bit for bit the one it has alone; returns the groups."""
    polar_volume = framegeo.polytopes._polar_volume
    alone = [repr(polar_volume([hull])[0]) for hull in hulls]
    groups = list(framegeo.polytopes._hull_groups(hulls))
    assert [hull for group in groups for hull in group] == hulls
    assert [repr(volume) for group in groups for volume in polar_volume(group)] == alone
    assert [repr(volume) for volume in polar_volume(hulls)] == alone
    return groups


HAAR_SIZES = {2: ((3, 2), (7, 2)), 3: ((6, 3), (11, 3)), 4: ((8, 4), (14, 4)),
              5: ((10, 5), (14, 5))}


@pytest.mark.parametrize("k,draws", [(2, 60), (3, 20), (4, 5), (5, 3)])
def test_grouped_flag_growth_matches_each_hull_alone(k, draws):
    # Haar hulls, with the degenerate hulls (repeated, zero and interior
    # rows, split facets) among them and, at k = 5, the near-degenerate ones
    hull_of_rows = framegeo.polytopes._hull
    haar = [hull_of_rows(project_standard_basis(random_subspace(n, k, trial_seed(30, t))).vectors)
            for n, _ in HAAR_SIZES[k] for t in range(draws)]
    hulls = (haar[:draws] + [hull_of_rows(corner_rows(k)), hull_of_rows(cross_rows(k))]
             + haar[draws:])
    if k == 5:
        hulls += [hull_of_rows(project_standard_basis(random_subspace(14, 5, seed)).vectors)
                  for seed in NEAR_DEGENERATE_K5_SEEDS]
    groups = assert_grouped_growth_matches_each_hull_alone(hulls)
    # the groups split at the facet budget: each holds it unless it is one
    # hull, and the next hull would overflow it
    budget = framegeo.polytopes._GROUP_FACETS
    facets = [sum(len(hull.equations) for hull in group) for group in groups]
    assert len(groups) > 1 and max(map(len, groups)) > 1
    for group, total, after in zip(groups, facets, groups[1:] + [None]):
        assert total <= budget or len(group) == 1
        if after is not None:
            assert total + len(after[0].equations) > budget


def test_grouped_flag_growth_of_intervals_matches_each_alone():
    hulls = [framegeo.polytopes._hull(np.array(rows)) for rows in
             ([[0.6], [0.0], [-0.8]], [[2.0]], [[-0.5], [0.25]], [[1e-9], [3.0]])]
    assert_grouped_growth_matches_each_hull_alone(hulls)


def test_grouped_flag_growth_at_k6_matches_each_hull_alone():
    # faces of 2, 3 and 4 vertices are keyed across the group
    subspaces = (equality_subspace(12, 6), random_subspace(12, 6, trial_seed(30, 0)),
                 equality_subspace(18, 6), random_subspace(14, 6, trial_seed(30, 1)))
    hulls = [framegeo.polytopes._hull(project_standard_basis(s).vectors) for s in subspaces]
    assert_grouped_growth_matches_each_hull_alone(hulls)


@pytest.mark.parametrize("n,k", [(4, 1), (6, 3), (14, 4), (14, 5)])
def test_polar_points_of_a_group_are_each_hulls_bit_for_bit(n, k):
    hulls = [framegeo.polytopes._hull(project_standard_basis(
        random_subspace(n, k, trial_seed(31, t))).vectors) for t in range(6)]
    polar_points = framegeo.polytopes._polar_points
    stacked = polar_points(np.vstack([hull.equations for hull in hulls]))
    alone = np.vstack([polar_points(hull.equations) for hull in hulls])
    assert stacked.shape == alone.shape
    assert stacked.tobytes() == alone.tobytes()


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_a_group_with_an_unbounded_polar_raises_what_that_hull_raises_alone(offset):
    # a facet offset >= 0 in the middle hull of a group: the origin is not
    # interior, and the group raises that hull's error
    hulls = [framegeo.polytopes._hull(project_standard_basis(
        random_subspace(6, 3, trial_seed(32, t))).vectors) for t in range(5)]
    equations = hulls[2].equations.copy()
    equations[3, -1] = offset
    hulls[2] = SimpleNamespace(equations=equations, simplices=hulls[2].simplices,
                               neighbors=hulls[2].neighbors, points=hulls[2].points)
    polar_volume = framegeo.polytopes._polar_volume
    with pytest.raises(UnboundedBodyError) as alone:
        polar_volume([hulls[2]])
    with pytest.raises(UnboundedBodyError) as grouped:
        polar_volume(hulls)
    assert str(grouped.value) == str(alone.value) == (
        "functionals do not span R^k; the body is unbounded")
    polar_volume(hulls[:2] + hulls[3:])  # the others alone are bounded


def test_hull_groups_split_at_the_facet_budget():
    def hull(facets):
        return SimpleNamespace(equations=np.zeros((facets, 1)))

    budget = framegeo.polytopes._GROUP_FACETS
    hulls = [hull(f) for f in (300, budget - 312, 12, budget + 1, 1, budget - 1, 1)]
    assert [[len(h.equations) for h in group]
            for group in framegeo.polytopes._hull_groups(hulls)] == [
        [300, budget - 312, 12], [budget + 1], [1, budget - 1], [1]]


def test_hull_groups_read_neither_vertices_nor_points():
    class Hull:
        """A stand-in hull whose vertices, which scipy computes on demand
        by a sort, and whose points must not be read."""

        def __init__(self, facets):
            self.equations = np.zeros((facets, 1))

        @property
        def vertices(self):
            raise AssertionError("vertices read")

        @property
        def points(self):
            raise AssertionError("points read")

    groups = list(framegeo.polytopes._hull_groups([Hull(300), Hull(212), Hull(1)]))
    assert [[len(h.equations) for h in group] for group in groups] == [[300, 212], [1]]


def polar_volume_by_route(monkeypatch, hulls):
    """``_polar_volume`` of a group of hulls with every face apex taken from
    a table, then from a sort: per route, the volumes' reprs and each apex
    array ``_first_facets`` returned."""
    polytopes = framegeo.polytopes
    first_facets = polytopes._first_facets
    runs = {}
    for route, multiple in (("table", math.inf), ("sort", 0)):
        apexes = []

        def recorded(keys, size):
            apexes.append(first_facets(keys, size))
            return apexes[-1]

        with monkeypatch.context() as patch:
            patch.setattr(polytopes, "_APEX_TABLE", multiple)
            patch.setattr(polytopes, "_first_facets", recorded)
            runs[route] = [repr(v) for v in polytopes._polar_volume(hulls)], apexes
    return runs["table"], runs["sort"]


def assert_first_facet_routes_agree(monkeypatch, hulls, k):
    """Both routes give every group of the hulls the same apexes, k - 2
    arrays of them, and the same volumes, bit for bit."""
    for group in framegeo.polytopes._hull_groups(hulls):
        (table, by_table), (sort, by_sort) = polar_volume_by_route(monkeypatch, group)
        assert len(by_table) == len(by_sort) == max(0, k - 2)
        for left, right in zip(by_table, by_sort):
            assert left.shape == right.shape and np.array_equal(left, right)
        assert table == sort


@pytest.mark.parametrize("keys,want", [
    ([[4, 2], [2, 9], [9, 4], [4, 4]], [[0, 0], [0, 1], [1, 0], [0, 0]]),
    ([[7, 1, 3]], [[0, 0, 0]]),
    ([[5], [5], [0], [5], [0]], [[0], [0], [2], [0], [2]]),
])
@pytest.mark.parametrize("multiple", [math.inf, 0])
def test_first_facets_is_the_lowest_row_holding_each_key(monkeypatch, keys, want, multiple):
    monkeypatch.setattr(framegeo.polytopes, "_APEX_TABLE", multiple)
    got = framegeo.polytopes._first_facets(np.array(keys), 10)
    assert got.tolist() == want


@pytest.mark.parametrize("k", [3, 4, 5])
def test_first_facet_routes_agree_on_haar_groups(monkeypatch, k):
    hulls = [framegeo.polytopes._hull(
        project_standard_basis(random_subspace(n, k, trial_seed(34, t))).vectors)
        for n, _ in HAAR_SIZES[k] for t in range(4)]
    assert_first_facet_routes_agree(monkeypatch, hulls, k)


def test_first_facet_routes_agree_on_near_degenerate_k5_hulls(monkeypatch):
    hulls = [framegeo.polytopes._hull(project_standard_basis(random_subspace(14, 5, seed)).vectors)
             for seed in NEAR_DEGENERATE_K5_SEEDS]
    assert_first_facet_routes_agree(monkeypatch, hulls, 5)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_first_facet_routes_agree_on_corner_and_interior_hulls(monkeypatch, k):
    # the cube's and the cross-polytope's corners with repeated, zero and
    # interior rows, alone and in a group with a Haar hull between them,
    # whose point numbers then skip the interior points
    hull_of_rows = framegeo.polytopes._hull
    corner, cross = hull_of_rows(corner_rows(k)), hull_of_rows(cross_rows(k))
    haar = hull_of_rows(project_standard_basis(random_subspace(2 * k + 1, k, 3)).vectors)
    for hulls in ([corner], [cross], [corner, haar, cross]):
        assert_first_facet_routes_agree(monkeypatch, hulls, k)
        (_, _), (volumes, _) = polar_volume_by_route(monkeypatch, hulls)
        assert volumes == [repr(framegeo.polytopes._polar_volume([h])[0]) for h in hulls]


def test_polar_volume_of_a_lone_hull_past_the_key_range_of_its_points():
    # the cube's corners among 55 400 interior rows at k = 6: the hull's P
    # points would put a key of P^4 past 2^63, but its faces are keyed by
    # its 64 vertices; its 2036 facets pass the facet budget, so it forms a
    # group alone; the polar is the cross-polytope, 2^6 / 6!
    corners = np.array(list(itertools.product([1.0, -1.0], repeat=6)))[:32]
    inner = np.random.default_rng(6).uniform(-0.1, 0.1, (27_700, 6))
    hull = framegeo.polytopes._hull(np.vstack([inner, corners]))
    assert len(hull.points) ** 4 >= 2 ** 63
    assert len(list(framegeo.polytopes._hull_groups([hull, hull]))) == 2
    assert framegeo.polytopes._polar_volume([hull])[0] == pytest.approx(
        2.0 ** 6 / math.factorial(6), rel=1e-12)


SUBSET_PASS_SIZES = [(n, k) for k in (2, 3) for n in range(k, 40)
                     if framegeo.polytopes._takes_subset_pass(n, k)]


def sorted_simplices(hull):
    return {tuple(sorted(simplex)) for simplex in hull.simplices.tolist()}


def qhull_path_volumes(rows):
    """(section, cross projection) volumes of the +/- rows from qhull."""
    hull = framegeo.polytopes._hull(rows)
    return float(framegeo.polytopes._polar_volume([hull])[0]), float(hull.volume)


def test_subset_pass_takes_small_frames_at_k_2_and_3_only():
    takes = framegeo.polytopes._takes_subset_pass
    budget = framegeo.polytopes._SUBSET_CANDIDATES
    assert (6, 3) in SUBSET_PASS_SIZES and (4, 2) in SUBSET_PASS_SIZES
    for n, k in [(n, k) for k in range(1, 7) for n in range(k, 40)]:
        assert takes(n, k) is (k in (2, 3) and math.comb(n, k) * 2 ** (k - 1) <= budget)
    assert not takes(14, 4) and not takes(4, 1)


@pytest.mark.parametrize("n,k", SUBSET_PASS_SIZES)
def test_subset_pass_builds_qhulls_facets_of_haar_frames(n, k):
    # one block of 50 frames: the facets as qhull's, each neighbor across
    # slot p holding the ridge without p, the polar points those of qhull's
    # facets, and both volumes those of the qhull path
    frames = [project_standard_basis(random_subspace(n, k, trial_seed(39, t))).vectors
              for t in range(50)]
    polar_points = framegeo.polytopes._polar_points
    for rows, hull in zip(frames, framegeo.polytopes._subset_facets(frames)):
        qhull = framegeo.polytopes._hull(rows)
        assert hull is not None
        assert sorted_simplices(hull) == sorted_simplices(qhull)
        assert len(hull.points) == len(qhull.points) == 2 * n
        for facet, (simplex, across) in enumerate(zip(hull.simplices, hull.neighbors)):
            for p in range(k):
                ridge = set(simplex.tolist()) - {simplex[p]}
                assert across[p] != facet and ridge < set(hull.simplices[across[p]].tolist())
        want = {tuple(sorted(s)): y for s, y in zip(qhull.simplices.tolist(),
                                                    polar_points(qhull.equations))}
        for simplex, y in zip(hull.simplices.tolist(), polar_points(hull.equations)):
            assert np.allclose(y, want[tuple(sorted(simplex))], rtol=1e-12, atol=0.0)
        got = (framegeo.polytopes._polar_volume([hull])[0], hull.volume)
        assert got == pytest.approx(qhull_path_volumes(rows), rel=1e-13, abs=0.0)


def assert_same_facets(hull, other):
    """Two ``_Facets`` hold the same bits."""
    assert repr(hull.volume) == repr(other.volume)
    for name in ("points", "simplices", "neighbors", "equations"):
        mine, theirs = getattr(hull, name), getattr(other, name)
        assert mine.shape == theirs.shape and mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


def planted_near_tight_row(rows):
    """The rows and one more, w, at 1 - 1e-11 on a vertex y of the section:
    <w, y> is within TAU_GEO of tight, so y's facet is nearly not simplicial."""
    y = framegeo.polytopes._polar_points(framegeo.polytopes._hull(rows).equations)[0]
    return np.vstack([rows, (1.0 - 1e-11) * y / (y @ y)])


def degenerate_frames():
    haar = project_standard_basis(random_subspace(6, 3, trial_seed(39, 0))).vectors
    pair = Subspace(n=5, k=3, basis=np.array([[SQ2 / 2, SQ2 / 2, 0, 0, 0],
                                              [0, 0, SQ2 / 2, SQ2 / 2, 0],
                                              [0, 0, 0, 0, 1.0]]))
    repeated, antipodal, zero = haar.copy(), haar.copy(), haar.copy()
    repeated[4], antipodal[4], zero[4] = haar[1], -haar[1], 0.0
    # a Parseval frame whose hull is the cube: every facet is a square, so
    # every candidate has a fourth tight row, and no facet is simplicial
    corners = np.array([(1.0, *signs) for signs in itertools.product([1.0, -1.0], repeat=2)])
    return {"block_4_2": project_standard_basis(equality_subspace(4, 2)).vectors,
            "cube_corners": corners / 2.0,
            "block_6_3": project_standard_basis(equality_subspace(6, 3)).vectors,
            "pair_5_3": project_standard_basis(pair).vectors,
            "repeated": repeated, "antipodal": antipodal, "zero": zero,
            "near_tight": planted_near_tight_row(haar)}


@pytest.mark.parametrize("name", sorted(degenerate_frames()))
def test_subset_pass_sends_degenerate_frames_to_qhull(name):
    # alone and between two Haar frames of the same size, the frame goes to
    # qhull, and _frame_volumes gives it the qhull path's bits
    rows = degenerate_frames()[name]
    n, k = rows.shape
    assert framegeo.polytopes._takes_subset_pass(n, k)
    haar = [project_standard_basis(random_subspace(n, k, trial_seed(40, t))).vectors
            for t in range(2)]
    subset_facets = framegeo.polytopes._subset_facets
    assert subset_facets([rows]) == [None]
    alone = subset_facets(haar)
    block = subset_facets([haar[0], rows, haar[1]])
    assert block[1] is None
    for hull, by_itself in zip(block[::2], alone):
        assert_same_facets(hull, by_itself)
    frames = [SimpleNamespace(vectors=v) for v in (haar[0], rows, haar[1])]
    got = _frame_volumes(frames)
    assert repr(got[1]) == repr(qhull_path_volumes(rows))
    assert got[::2] == _frame_volumes(frames[::2])


def test_subset_pass_sends_a_frame_whose_ridges_do_not_pair_to_qhull(monkeypatch):
    # with the tight-row test turned inside out, the candidates through the
    # planted row's near-tight vertex count as facets too, and some ridge
    # then lies in more than two of them
    rows = degenerate_frames()["near_tight"]
    haar = project_standard_basis(random_subspace(7, 3, trial_seed(40, 0))).vectors
    monkeypatch.setattr(framegeo.polytopes, "TAU_GEO", -1e-6)
    block = framegeo.polytopes._subset_facets([haar, rows])
    assert block[0] is not None and block[1] is None


def test_subset_pass_is_bit_for_bit_alone_in_a_block():
    frames = [project_standard_basis(random_subspace(6, 3, trial_seed(41, t))).vectors
              for t in range(7)]
    block = framegeo.polytopes._subset_facets(frames)
    for rows, hull in zip(frames, block):
        assert_same_facets(framegeo.polytopes._subset_facets([rows])[0], hull)
