"""Origin-symmetric polytopes attached to frames.

A certified frame v_1, ..., v_n in R^k defines two polar bodies: the cube
section {y : |<v_i, y>| <= 1 for all i} (an H-representation) and the
cross-polytope projection, the absolute convex hull of the v_i (a
V-representation).  Both representations store one row per +/- pair, and
rows are merged only where a body stores them.  Every hull of +/- rows
comes from one helper, ``_hull``, which stands in for qhull at k = 1 with
the interval [-t, t].  Exact volumes, for k <= K_EXACT and any number of
rows, take one hull: a V-rep body's is the volume of the hull of its +/-
vertices, and an H-rep body's is the volume of the polar of the hull of its
+/- functionals, summed over a pulling triangulation of the polar's
boundary read off the hull's facets.  So a trial's two volumes come from
one hull of the raw +/- v_i of a projected frame (qhull takes repeated,
zero and interior points), and no hull of the section's vertices is built.
An H-rep body keeps only the hull of its functionals and the points read
off it, once built: for k <= K_EXACT and functionals that span R^k, each
facet gives a vertex of the body (facet dualization), its support function
is the maximum of |<s, u>| over those points, and its volume reuses the
hull.  Otherwise the support of {|<g_i, y>| <= 1} at u is the gauge of
conv(+/- g_i) at u (LP duality), so the package has one linear program,
``absolute_hull_gauge``.  It is posed on the orthonormal rows of the
generators' SVD, so a large finite optimum is not taken for an unbounded
one, and solved by a small dense simplex whose optimum is certified by a
matching dual solution.  The SVD, the rank and the simplex's first basis
depend on the generators alone: they are computed once per generator set,
kept in a small cache keyed on the generators' bytes, and reused for every
point.  A hit-or-miss Monte Carlo estimator covers every dimension: it
samples an H-rep body in sqrt(k) times its John ellipsoid and a V-rep body
in the Lowner ellipsoid of its vertices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import lapack
# not called: bench/tracing.py counts LP calls by patching this name
from scipy.optimize import linprog  # noqa: F401
from scipy.spatial import ConvexHull, cKDTree

from .ellipsoids import (DEFAULT_EPS, Ellipsoid, SpanError, ellipsoid_volume,
                         lowner_symmetric)
from .frames import (FrameSet, Subspace, _certified_vectors,
                     certify_unit_decomposition)

TAU_GEO = 1e-9  # geometric dedup / feasibility tolerance
K_EXACT = 5     # exact volume supported up to this dimension
_LP_TOL = 1e-12  # relative tolerance of the gauge simplex and its certificate
_LP_PIVOTS_PER_COLUMN = 50
_CHUNK = 100_000       # samples estimate_volume draws at a time
_BLOCK_IMAGE = 2 ** 14  # entries of the image of one block it tests (128 KiB)
_GAUGE_PLANS = 16  # generator sets whose gauge plans are kept, O(m k) each


class DegenerateBodyError(ValueError):
    """Body is lower-dimensional (or empty) where full dimension is required."""


class UnsupportedDimensionError(ValueError):
    """Exact computation requested outside the supported size range."""


class UnboundedBodyError(ValueError):
    """H-representation does not bound the body (functionals fail to span)."""


@dataclass(frozen=True, eq=False)
class Polytope:
    """Origin-symmetric polytope; rows store one representative per +/- pair.

    ``vrep`` rows are vertex representatives (the body is the convex hull of
    them and their negatives); ``hrep`` rows g cut {y : |<g, y>| <= 1}.  A
    body has exactly one representation, the other is None.  It is
    read-only, so an H-rep body may keep the hull of its +/- functionals
    and the vertices read off it, once built, in cached properties that
    take no part in repr.  Bodies compare by identity.
    """

    k: int
    vrep: Optional[np.ndarray] = None
    hrep: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if (self.vrep is None) == (self.hrep is None):
            raise ValueError("polytope needs exactly one of a V- and an H-representation")
        name = "hrep" if self.vrep is None else "vrep"
        rep = np.array(getattr(self, name), dtype=float)
        if rep.ndim != 2 or rep.shape[1] != self.k:
            raise ValueError(f"{name} must have shape (m, {self.k})")
        if not np.all(np.isfinite(rep)):
            raise ValueError(f"{name} contains non-finite entries")
        rep.setflags(write=False)
        object.__setattr__(self, name, rep)

    @functools.cached_property
    def _functional_hull(self):
        """The hull of the H-rep body's +/- functionals, whose polar the body
        is, built once; None when they do not span R^k, and above K_EXACT,
        where no hull is built."""
        if self.k > K_EXACT or not _spans(self.hrep):
            return None
        return _hull(self.hrep)

    @functools.cached_property
    def _hull_vertices(self):
        """The H-rep body's vertices, one per facet of ``_functional_hull``
        (a vertex may repeat), built once; None where that hull is."""
        hull = self._functional_hull
        if hull is None:
            return None
        points = _polar_points(hull)
        points.setflags(write=False)
        return points


class VolumeEstimate(NamedTuple):
    value: float
    standard_error: float


def _canonicalize_signs(rows: np.ndarray, tol: float = TAU_GEO) -> np.ndarray:
    """Flip each row so its first coordinate larger than ``tol`` is positive."""
    out = np.array(rows, dtype=float)
    big = np.abs(out) > tol
    lead = out[np.arange(out.shape[0]), np.argmax(big, axis=1)]
    out[big.any(axis=1) & (lead < 0.0)] *= -1.0
    return out


def _collapse_rows(rows: np.ndarray, tol: float = TAU_GEO):
    """Drop near-zero rows and merge +/- duplicates; returns the representatives.

    Rows are taken in order: a row joins the first representative within
    ``tol`` of it (max norm), or else becomes a representative itself.
    """
    k = rows.shape[1] if rows.ndim == 2 else 0
    canon = _canonicalize_signs(rows, tol)
    canon = canon[np.linalg.norm(canon, axis=1) > tol]
    if canon.shape[0] == 0:
        return np.zeros((0, k))
    first, later = cKDTree(canon).query_pairs(tol, p=np.inf, output_type="ndarray").T
    # A row is a representative unless an earlier representative is near it.
    # Each row depends only on earlier rows, so this iteration settles after
    # one pass per link of the longest chain of near rows.
    is_rep = np.ones(canon.shape[0], dtype=bool)
    is_rep[later] = False
    while True:
        settled = np.ones_like(is_rep)
        settled[later[is_rep[first]]] = False
        if np.array_equal(settled, is_rep):
            break
        is_rep = settled
    return canon[is_rep]


class _Interval(NamedTuple):
    """The hull attributes callers read, for the interval [-t, t] at k = 1."""
    volume: float
    vertices: np.ndarray
    equations: np.ndarray


def _hull(rows: np.ndarray):
    """Convex hull of the +/- rows; qhull cannot run at k = 1, where the hull
    is [-t, t], t = max |row|, with the argmax row as its vertex."""
    if rows.shape[1] == 1:
        top = int(np.argmax(np.abs(rows[:, 0])))
        t = float(abs(rows[top, 0]))
        return _Interval(2.0 * t, np.array([top]), np.array([[1.0, -t], [-1.0, -t]]))
    return ConvexHull(np.vstack([rows, -rows]))


def _require_exact(k: int) -> None:
    if k > K_EXACT:
        raise UnsupportedDimensionError(
            f"exact computation needs k <= {K_EXACT}, got k={k}; "
            f"use estimate_volume")


def polytope_from_frame(frame: FrameSet) -> Polytope:
    """Cube section {y : |<v_i, y>| <= 1} of a certified frame (H-rep).

    Zero vectors impose no constraint and are dropped; duplicate functionals
    are collapsed.
    """
    vectors = _certified_vectors(frame, certify_unit_decomposition(frame))
    return Polytope(k=frame.k, hrep=_collapse_rows(vectors))


def absolute_hull_gauge(generators, point) -> float:
    """Gauge of the absolute convex hull of ``generators`` at ``point``.

    The minimum of sum |lambda_i| subject to sum lambda_i w_i = point; the
    point lies in the hull of the +/- generators exactly when the value is
    at most 1.  Returns inf when the point is outside the generators' span:
    when its component off the row space of W = U Sigma V^T exceeds TAU_GEO
    times its norm, the row space being spanned by the r rows of V^T whose
    sigma_i are above rounding.  Otherwise the program is posed on the
    orthonormal rows of U_r^T, at Sigma_r^-1 V_r^T point, so a large finite
    optimum stays well scaled, and solved by ``_least_l1``, a dense simplex
    that certifies its optimum.  The factorization, the rank and the
    simplex's first basis depend on the generators alone: they are computed
    once per generator set (``_gauge_plan``) and reused for every point.
    Generators must be a finite (m, k) array and the point a finite (k,)
    vector, else ValueError.
    """
    W = np.ascontiguousarray(generators, dtype=float)
    y = np.asarray(point, dtype=float)
    if W.ndim != 2 or not np.isfinite(W).all():
        raise ValueError("generators must be a finite (m, k) array")
    if y.shape != W.shape[1:] or not np.isfinite(y).all():
        raise ValueError(f"point must be a finite vector of shape ({W.shape[1]},)")
    return _factored_gauge(_gauge_plan(W.shape, W.tobytes()), y)


class _GaugePlan(NamedTuple):
    """What every gauge point of the generators W = U Sigma V^T shares:
    U_r^T, sigma_1 .. sigma_r and V_r^T, r the number of sigma_i above
    rounding, and the simplex's first basis, the first r pivots of a
    column-pivoted QR of U_r^T, with the inverse of its columns."""
    ut: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray
    basis: np.ndarray
    inverse: np.ndarray


@functools.lru_cache(maxsize=_GAUGE_PLANS)
def _gauge_plan(shape: tuple, data: bytes) -> _GaugePlan:
    """The ``_GaugePlan`` of the float generators with this shape and C-order
    bytes, kept for the last _GAUGE_PLANS generator sets; it is shared by
    every caller, so each of its arrays is read-only."""
    m, k = shape
    u, s, vh = np.linalg.svd(np.frombuffer(data).reshape(shape), full_matrices=False)
    r = int(np.count_nonzero(s > s.max(initial=0.0) * max(m, k) * np.finfo(float).eps))
    ut = u[:, :r].T
    # LAPACK rejects a QR of no rows; at r = 0 no point reaches the simplex
    basis = lapack.dgeqp3(ut)[1][:r] - 1 if r else np.zeros(0, dtype=np.int32)
    plan = _GaugePlan(ut, s[:r], vh[:r], basis, np.linalg.inv(ut[:, basis]))
    for array in plan:
        array.setflags(write=False)
    return plan


def _factored_gauge(plan: _GaugePlan, y: np.ndarray) -> float:
    """``absolute_hull_gauge`` at y from the generators' ``_GaugePlan``."""
    coords = plan.vh @ y
    if np.linalg.norm(y - coords @ plan.vh) > TAU_GEO * np.linalg.norm(y):
        return math.inf
    return _least_l1(plan, coords / plan.sigma) if plan.sigma.size else 0.0


def _least_l1(plan: _GaugePlan, b: np.ndarray) -> float:
    """min sum |lambda| subject to A lambda = b, for A = U_r^T (r x m, rank r).

    A primal simplex over the columns +/- a_j.  The first basis is the
    plan's, each column signed so that its coefficient in b is nonnegative;
    its inverse is the plan's with the rows multiplied by those signs (exact
    in floating point), so a point that needs no pivot inverts nothing.  The
    coefficients are solved for, not read off that inverse: at a degenerate
    point (a generator, say) a coefficient is zero up to rounding, and the
    two roundings can give it different signs and the simplex another path.
    Each step takes the dual y = B^-T 1 and enters the lowest-index column
    with |<a_j, y>| > 1 + _LP_TOL; the ratio test breaks ties by the lowest
    column index (Bland's rule, so degenerate pivots cannot cycle), and the
    new basis is inverted.  At exit the basic solution z and y certify the
    optimum: B z = b with z >= 0, |A^T y| <= 1 + _LP_TOL and sum z = <b, y>,
    all within _LP_TOL relative to the value.  A failed certificate, or more
    than _LP_PIVOTS_PER_COLUMN * (m + r) pivots, raises ArithmeticError.
    """
    A = plan.ut
    r, m = A.shape
    basis = plan.basis.copy()
    sign = np.where(np.linalg.solve(A[:, basis], b) < 0.0, -1.0, 1.0)
    inverse = plan.inverse * sign[:, None]
    for _ in range(_LP_PIVOTS_PER_COLUMN * (m + r)):
        z = inverse @ b
        y = inverse.sum(axis=0)
        reduced = y @ A
        over = (np.abs(reduced) > 1.0 + _LP_TOL).nonzero()[0]
        if over.size == 0:
            break
        j = over[0]
        entering = math.copysign(1.0, reduced[j])
        step = inverse @ (entering * A[:, j])
        rising = (step > _LP_TOL * np.abs(step).max()).nonzero()[0]
        if rising.size == 0:
            raise ArithmeticError("gauge program failed: no leaving column")
        # degenerate entries are zeros, so that ties are exact
        level = np.where(z > _LP_TOL * np.abs(z).max(), z, 0.0)[rising] / step[rising]
        ties = rising[level == level.min()]
        leaving = ties[np.argmin(basis[ties])]
        basis[leaving], sign[leaving] = j, entering
        inverse = np.linalg.inv(A[:, basis] * sign)
    else:
        raise ArithmeticError("gauge program failed: pivot limit reached")
    value = float(z.sum())
    slack = _LP_TOL * value
    if not (np.abs((A[:, basis] * sign) @ z - b).max() <= slack and z.min() >= -slack
            and abs(value - b @ y) <= slack):
        raise ArithmeticError("gauge program failed: the optimum does not certify")
    return value


def cross_projection(frame: FrameSet) -> Polytope:
    """Projection of the cross-polytope: absolute convex hull of the frame (V-rep).

    Duplicates are collapsed and non-extreme points are removed, so the
    stored rows are exactly the vertex representatives.  A certified frame
    spans R^k, so the vertices are those of the convex hull of the +/-
    representatives.
    """
    reps = _collapse_rows(_certified_vectors(frame, certify_unit_decomposition(frame)))
    keep = np.unique(_hull(reps).vertices % reps.shape[0])
    return Polytope(k=frame.k, vrep=reps[keep])


def _polar_points(hull) -> np.ndarray:
    """One polar vertex per facet of a hull of +/- points: the facet
    a.x + b = 0 (b < 0: the origin is interior) gives a / (-b)."""
    offsets = hull.equations[:, -1]
    if not np.all(offsets < 0.0):
        raise UnboundedBodyError("functionals do not span R^k; the body is unbounded")
    return hull.equations[:, :-1] / -offsets[:, None]


@functools.lru_cache(maxsize=None)
def _flag_plan(k: int):
    """The nonempty proper subsets of a facet's k vertex slots, as rows of
    slots padded with -1, and for each of the k! orderings of the slots the
    rows of its first j slots, j = 1 .. k-1: shape (k!, k-1)."""
    subsets = [s for j in range(1, k) for s in itertools.combinations(range(k), j)]
    slots = np.array([s + (-1,) * (k - 1 - len(s)) for s in subsets])
    prefixes = np.array([[subsets.index(tuple(sorted(order[:j]))) for j in range(1, k)]
                         for order in itertools.permutations(range(k))])
    for plan in (slots, prefixes):  # shared by every caller
        plan.setflags(write=False)
    return slots, prefixes


def _polar_volume(hull) -> float:
    """Volume of the polar of a hull of +/- points, read off the hull's facets.

    A flag of the polar pairs a facet F of the hull (a polar vertex u_F)
    with an ordering p_1, ..., p_k of F's vertices.  For j < k the face dual
    to {p_1 .. p_j} gets as its apex the polar vertex of the lowest-index
    facet that holds all of them; F is the apex at j = k.  Coning each face
    from its apex over the faces that miss it triangulates the polar's
    boundary (a pulling triangulation): with the origin, each flag whose
    apex changes at every step is a simplex of volume |det(apexes)| / k!,
    and every other flag is degenerate.  qhull's splits of a non-simplicial
    facet share one polar vertex, so the flags across them have zero
    volume.  At k = 1 the polar of [-t, t] is [-1/t, 1/t].
    """
    points = _polar_points(hull)
    k = points.shape[1]
    if k == 1:
        return 4.0 / hull.volume
    slots, prefixes = _flag_plan(k)
    # number the hull's vertices 0 .. V-1 in point order, so that the int64
    # keys below grow with V, not with the interior points the hull was given
    labels, numbers = np.unique(hull.simplices, return_inverse=True)
    vertices = np.sort(numbers.reshape(hull.simplices.shape), axis=1)
    facets = vertices.shape[0]
    # each subset's sorted vertices as one int key, shifted so that 0 pads
    digits = np.where(slots >= 0, vertices[:, slots] + 1, 0)
    keys = np.ravel_multi_index(tuple(np.moveaxis(digits, -1, 0)),
                                (labels.size + 1,) * (k - 1))
    # keys run facet by facet, so a key's first occurrence is its lowest facet
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    apex = (first // len(slots))[inverse].reshape(facets, len(slots))
    chain = np.empty((facets, len(prefixes), k), dtype=apex.dtype)
    chain[..., :-1] = apex[:, prefixes]
    chain[..., -1] = np.arange(facets)[:, None]
    flags = chain[np.all(chain[..., 1:] != chain[..., :-1], axis=2)]
    return float(np.abs(np.linalg.det(points[flags])).sum() / math.factorial(k))


def _spans(G: np.ndarray) -> bool:
    """Whether the rows G span R^k: functionals that bound their body, or
    vertex representatives of a full-dimensional one."""
    m, k = G.shape
    return m >= k and np.linalg.matrix_rank(G) == k


def enumerate_vertices(p: Polytope) -> Polytope:
    """All vertices of {y : |<g_i, y>| <= 1}, read off the facets of conv(+/- g_i).

    The body keeps one vertex per facet; antipodal facets and qhull's splits
    of non-simplicial ones repeat a vertex, so they are collapsed to one per
    +/- pair, within TAU_GEO relative to their largest entry so that any
    scale works."""
    if p.hrep is None:
        raise ValueError("enumerate_vertices needs an H-representation")
    _require_exact(p.k)
    cands = p._hull_vertices
    if cands is None:
        raise UnboundedBodyError("functionals do not span R^k; the body is unbounded")
    return Polytope(k=p.k, vrep=_collapse_rows(cands, TAU_GEO * np.abs(cands).max()))


def volume(p: Polytope) -> float:
    """Exact volume: a V-rep body's is that of the hull of its +/- vertices,
    an H-rep body's that of the polar of the hull of its +/- functionals."""
    _require_exact(p.k)
    if p.vrep is not None:
        if not _spans(p.vrep):
            raise DegenerateBodyError("body is not full-dimensional")
        return float(_hull(p.vrep).volume)
    hull = p._functional_hull
    if hull is None:
        raise UnboundedBodyError("functionals do not span R^k; the body is unbounded")
    return _polar_volume(hull)


def _frame_volumes(frame: FrameSet) -> tuple[float, float]:
    """Exact (cube section, cross projection) volumes of a frame projected
    from a Subspace, whose basis check (TAU_ORTH < TAU_CERT) certified it,
    both from one hull of its +/- vectors: the hull's own volume and that of
    its polar, the section."""
    _require_exact(frame.k)
    hull = _hull(frame.vectors)
    return _polar_volume(hull), float(hull.volume)


def support_function(p: Polytope, direction) -> float:
    """h(u) = max over the body of <u, y>.

    V-rep: the maximum of |<w_i, u>| over vertex representatives, 0 for a
    body with none, which is {0}.  H-rep, for k <= K_EXACT and functionals
    that span R^k: the same maximum over the body's vertices, one per facet
    of the hull it keeps (a vertex may repeat, which changes no maximum).
    Any other H-rep body: by LP duality, the gauge of conv(+/- g_i) at u
    (``absolute_hull_gauge``); where that is inf the support is too, and
    UnboundedBodyError is raised.
    """
    u = np.asarray(direction, dtype=float)
    if u.shape != (p.k,) or not np.isfinite(u).all():
        raise ValueError(f"direction must be a finite vector of shape ({p.k},)")
    if p.vrep is not None:
        return float(np.max(np.abs(p.vrep @ u), initial=0.0))
    vertices = p._hull_vertices
    if vertices is not None:
        return float(np.max(np.abs(vertices @ u)))
    h = absolute_hull_gauge(p.hrep, u)
    if h == math.inf:
        raise UnboundedBodyError("support is unbounded in this direction")
    return h


def polar(p: Polytope) -> Polytope:
    """Polar body: vertex representatives and functionals swap roles."""
    if p.vrep is not None and not _spans(p.vrep):
        raise DegenerateBodyError(
            "origin is not interior: vertex representatives do not span R^k")
    return Polytope(k=p.k, vrep=p.hrep, hrep=p.vrep)


def estimate_volume(p: Polytope, samples: int, seed: int) -> VolumeEstimate:
    """Hit-or-miss Monte Carlo volume, sampling uniformly in a covering ellipsoid.

    A V-rep body is sampled in the Lowner ellipsoid {x : <A x, x> <= 1} of
    its vertices, with A divided by max_i <A v_i, v_i> so that every vertex
    lies inside (the solver certifies that maximum only up to 1 + eps).  An
    H-rep body is sampled in {y : y^T M y <= 1} for M = sum_i u_i g_i g_i^T,
    u the Lowner weights of its functionals (sqrt(k) times its John
    ellipsoid): for any weights on the simplex the ellipsoid
    {x : x^T M^-1 x <= 1} lies in conv(+/- g_i), since its support
    sqrt(c^T M c) is at most max_i |<g_i, c>|, so its polar holds the body.
    The estimate hits/samples * vol(container) is unbiased; the standard
    error is the binomial one, sqrt(p(1-p)/samples) * vol(container).

    Samples are drawn _CHUNK at a time, a normal direction and then a radius
    each, and tested in blocks of rows such that a block's image under the
    m functionals has about _BLOCK_IMAGE entries; a sample is a column, so
    the max over the m functionals runs along contiguous rows.  A block has
    at least 256 rows, so peak memory is O(_CHUNK * k + 256 * m), not
    O(_CHUNK * m).  Above K_EXACT a V-rep body has no
    functionals: each sample takes one gauge program, and all of them share
    the plan ``absolute_hull_gauge`` uses for these generators, so the SVD,
    the rank and the first basis are computed once.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    k = p.k
    if p.hrep is not None:
        functionals = p.hrep
        try:
            u = lowner_symmetric(functionals, eps=DEFAULT_EPS).weights
        except SpanError:
            raise UnboundedBodyError(
                "functionals do not span R^k; the body is unbounded") from None
        container = Ellipsoid(k=k, matrix=(functionals.T * (u / u.sum())) @ functionals)
    else:
        try:
            A = lowner_symmetric(p.vrep, eps=DEFAULT_EPS).ellipsoid.matrix
        except SpanError:
            raise DegenerateBodyError("body is not full-dimensional") from None
        reach = np.einsum("ij,jk,ik->i", p.vrep, A, p.vrep).max()
        container = Ellipsoid(k=k, matrix=A / reach)
        if k <= K_EXACT:
            # the facets of the vertices' hull are the polar's vertices
            functionals = _polar_points(_hull(p.vrep))
        else:
            functionals, plan = None, _gauge_plan(p.vrep.shape, p.vrep.tobytes())
    vol_container = ellipsoid_volume(container)
    L_inv = np.linalg.inv(np.linalg.cholesky(container.matrix))
    rows = max(256, _BLOCK_IMAGE // len(p.vrep if functionals is None else functionals))

    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        count = min(_CHUNK, samples - done)
        z = rng.standard_normal((count, k))
        radii = rng.random(count) ** (1.0 / k)
        for start in range(0, count, rows):
            zt = z[start:start + rows].T.copy()
            zt /= np.sqrt(np.add.reduce(zt * zt, axis=0))
            zt *= radii[start:start + rows]
            batch = L_inv.T @ zt  # one sample per column
            if functionals is not None:
                image = functionals @ batch
                np.abs(image, out=image)
                hits += int(np.count_nonzero(image.max(axis=0) <= 1.0))
            else:
                hits += sum(1 for y in np.ascontiguousarray(batch.T)
                            if _factored_gauge(plan, y) <= 1.0 + TAU_GEO)
        done += count
    frac = hits / samples
    value = frac * vol_container
    err = math.sqrt(frac * (1.0 - frac) / samples) * vol_container
    return VolumeEstimate(value=value, standard_error=err)


def equality_subspace(n: int, k: int) -> Subspace:
    """Block-averaging subspace attaining the section/projection volume bounds.

    Row j of the basis is sqrt(k/n) on coordinates j*(n/k) .. (j+1)*(n/k)-1
    and zero elsewhere, so the projected standard basis has all squared
    norms equal to k/n.  Requires k to divide n.
    """
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    if n % k != 0:
        raise ValueError(f"k must divide n for the equality construction, got n={n}, k={k}")
    block = n // k
    val = math.sqrt(k / n)
    basis = np.zeros((k, n))
    for j in range(k):
        basis[j, j * block:(j + 1) * block] = val
    return Subspace(n=n, k=k, basis=basis)
