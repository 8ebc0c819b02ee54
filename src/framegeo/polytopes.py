"""Origin-symmetric polytopes attached to frames.

A certified frame v_1, ..., v_n in R^k defines two polar bodies: the cube
section {y : |<v_i, y>| <= 1 for all i} (an H-representation) and the
cross-polytope projection, the absolute convex hull of the v_i (a
V-representation).  Both representations store one row per +/- pair.  A
frame's two bodies share what they are built from: its certified vectors
are collapsed to +/- representatives once per frame object, and the hull
of those representatives, built when either body first needs it, is the
section's own hull and gives the projection's vertices.  Every hull of +/-
rows comes from one helper, ``_hull``, which stands in for qhull at k = 1
with the interval [-t, t].  Exact volumes, for k <= K_EXACT and any number of
rows, take one hull: a V-rep body's is the volume of the hull of its +/-
vertices, and an H-rep body's is the volume of the polar of the hull of its
+/- functionals, summed over a pulling triangulation of the polar's
boundary.  Its flags are grown from the hull's facets down, level by level,
keeping only the chains whose apex falls at every level (a ridge's apex is
read off the facet's neighbor across it), and each chain carries the
exterior product of its apexes' polar vertices, so that its determinant is
built as it grows, one factor per level.  So a trial's two volumes come from
one hull of the raw +/- v_i of a projected frame (qhull takes repeated,
zero and interior points), and no hull of the section's vertices is built.
A block of trials grows the flags of a group of its hulls in one pass,
numbering their facets and vertices hull after hull, which leaves each
hull's volume bit for bit as it is alone.
A body of either representation keeps the hull of its +/- rows and the
points polar to its facets, once built, for k <= K_EXACT and rows that span
R^k (a frame's section takes its frame's hull, with no rank test, since
certified rows span): an H-rep body's vertices (facet dualization) or a
V-rep body's functionals.  Its volume, its vertices and its Monte Carlo hit
test read them, and its support at u is the maximum of |<s, u>| over its
vertices.
Otherwise the support of {|<g_i, y>| <= 1} at u is the gauge of
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
_GROUP_FACETS = 512  # facets of the hulls whose flags grow in one pass


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
    read-only, so it may keep the hull of its +/- rows and the points polar
    to its facets, once built, in cached properties that take no part in
    repr.  Bodies compare by identity.  A frame's section also holds the
    frame's ``_FrameRows``, whose hull is the section's (not a field).
    """

    k: int
    vrep: Optional[np.ndarray] = None
    hrep: Optional[np.ndarray] = None
    _frame_rows = None

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
    def _rows_hull(self):
        """The hull of the body's +/- rows, built once: a V-rep body is it,
        an H-rep body its polar.  None above K_EXACT, where no hull is
        built, and where the rows do not span R^k.  A frame's section takes
        the hull of its frame's rows, which span."""
        if self.k > K_EXACT:
            return None
        if self._frame_rows is not None:
            return self._frame_rows.hull
        rows = self.hrep if self.vrep is None else self.vrep
        return _hull(rows) if _spans(rows) else None

    @functools.cached_property
    def _facet_points(self):
        """The points polar to the facets of ``_rows_hull``, one per facet (a
        point may repeat), built once: an H-rep body's vertices, a V-rep
        body's functionals.  None where that hull is."""
        hull = self._rows_hull
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
    points: np.ndarray


def _hull(rows: np.ndarray):
    """Convex hull of the +/- rows; qhull cannot run at k = 1, where the hull
    is [-t, t], t = max |row|, with the argmax row as its vertex."""
    points = np.vstack([rows, -rows])
    if rows.shape[1] == 1:
        top = int(np.argmax(np.abs(rows[:, 0])))
        t = float(abs(rows[top, 0]))
        return _Interval(2.0 * t, np.array([top]), np.array([[1.0, -t], [-1.0, -t]]), points)
    return ConvexHull(points)


class _FrameRows:
    """What a frame's section and projection share: the +/- representatives
    of its certified vectors and, built on first use, their hull."""

    def __init__(self, reps: np.ndarray):
        reps.setflags(write=False)
        self.reps = reps

    @functools.cached_property
    def hull(self):
        return _hull(self.reps)


def _shared_rows(frame: FrameSet) -> _FrameRows:
    """The ``_FrameRows`` of a frame, which is certified on every call; its
    vectors are collapsed once per frame object, which keeps them, so another
    frame with the same vectors builds its own."""
    vectors = _certified_vectors(frame, certify_unit_decomposition(frame))
    rows = getattr(frame, "_polytope_rows", None)
    if rows is None:
        rows = _FrameRows(_collapse_rows(vectors))
        object.__setattr__(frame, "_polytope_rows", rows)
    return rows


def _require_exact(k: int) -> None:
    if k > K_EXACT:
        raise UnsupportedDimensionError(
            f"exact computation needs k <= {K_EXACT}, got k={k}; "
            f"use estimate_volume")


def polytope_from_frame(frame: FrameSet) -> Polytope:
    """Cube section {y : |<v_i, y>| <= 1} of a certified frame (H-rep).

    Zero vectors impose no constraint and are dropped; duplicate functionals
    are collapsed.  The section's hull, once built, is the frame's, shared
    with ``cross_projection``.
    """
    rows = _shared_rows(frame)
    section = Polytope(k=frame.k, hrep=rows.reps)
    object.__setattr__(section, "_frame_rows", rows)
    return section


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
    if W.ndim != 2:
        raise ValueError("generators must be a finite (m, k) array")
    if y.shape != W.shape[1:] or not np.isfinite(y).all():
        raise ValueError(f"point must be a finite vector of shape ({W.shape[1]},)")
    return _factored_gauge(_gauge_plan(W.shape, W.tobytes()), y)


class _GaugePlan(NamedTuple):
    """What every gauge point of the generators W = U Sigma V^T shares:
    U_r^T, sigma_1 .. sigma_r and V_r^T, r the number of sigma_i above
    rounding, and the simplex's first basis, the first r pivots of a
    column-pivoted QR of U_r^T, with its columns and their inverse."""
    ut: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray
    basis: np.ndarray
    columns: np.ndarray
    inverse: np.ndarray


@functools.lru_cache(maxsize=_GAUGE_PLANS)
def _gauge_plan(shape: tuple, data: bytes) -> _GaugePlan:
    """The ``_GaugePlan`` of the float generators with this shape and C-order
    bytes, kept for the last _GAUGE_PLANS generator sets; it is shared by
    every caller, so each of its arrays is read-only.  Generators that are
    not finite raise ValueError, and no plan is kept for them."""
    m, k = shape
    W = np.frombuffer(data).reshape(shape)
    if not np.isfinite(W).all():
        raise ValueError("generators must be a finite (m, k) array")
    u, s, vh = np.linalg.svd(W, full_matrices=False)
    r = int(np.count_nonzero(s > s.max(initial=0.0) * max(m, k) * np.finfo(float).eps))
    ut = u[:, :r].T
    # LAPACK rejects a QR of no rows; at r = 0 no point reaches the simplex
    basis = lapack.dgeqp3(ut)[1][:r] - 1 if r else np.zeros(0, dtype=np.int32)
    columns = ut[:, basis]
    plan = _GaugePlan(ut, s[:r], vh[:r], basis, columns, np.linalg.inv(columns))
    for array in plan:
        array.setflags(write=False)
    return plan


def _factored_gauge(plan: _GaugePlan, y: np.ndarray) -> float:
    """``absolute_hull_gauge`` at y from the generators' ``_GaugePlan``."""
    coords = plan.vh @ y
    off = y - coords @ plan.vh
    if math.sqrt(off @ off) > TAU_GEO * math.sqrt(y @ y):
        return math.inf
    return _least_l1(plan, coords / plan.sigma) if plan.sigma.size else 0.0


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b by LAPACK's gesv, as ``np.linalg.solve`` forms it, without
    numpy's per-call wrappers; a singular a raises LinAlgError."""
    x, info = lapack.dgesv(a, b)[2:]
    if info:
        raise np.linalg.LinAlgError("singular matrix")
    return x


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
    sign = np.where(_solve(plan.columns, b) < 0.0, -1.0, 1.0)
    inverse = plan.inverse * sign[:, None]
    bound = 1.0 + _LP_TOL
    for _ in range(_LP_PIVOTS_PER_COLUMN * (m + r)):
        z = inverse @ b
        y = inverse.sum(axis=0)
        reduced = (y @ A).tolist()
        j = next((j for j, value in enumerate(reduced) if abs(value) > bound), None)
        if j is None:
            break
        entering = math.copysign(1.0, reduced[j])
        step = (inverse @ (entering * A[:, j])).tolist()
        levels = z.tolist()
        rise, floor = (_LP_TOL * max(map(abs, values)) for values in (step, levels))
        # degenerate entries are zeros, so that ties are exact; they leave
        # by the lowest column index
        leaving = min((((level if level > floor else 0.0) / rate, basis[i], i)
                       for i, (level, rate) in enumerate(zip(levels, step)) if rate > rise),
                      default=None)
        if leaving is None:
            raise ArithmeticError("gauge program failed: no leaving column")
        i = leaving[2]
        basis[i], sign[i] = j, entering
        # C order, as np.linalg.inv returns it: matmul sums in another order
        # over a Fortran-order matrix
        inverse = np.ascontiguousarray(_solve(A[:, basis] * sign, np.eye(r)))
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
    representatives, the hull the frame's section shares.
    """
    rows = _shared_rows(frame)
    keep = np.unique(rows.hull.vertices % rows.reps.shape[0])
    return Polytope(k=frame.k, vrep=rows.reps[keep])


def _polar_points(hull) -> np.ndarray:
    """One polar vertex per facet of a hull of +/- points: the facet
    a.x + b = 0 (b < 0: the origin is interior) gives a / (-b)."""
    offsets = hull.equations[:, -1]
    if not np.all(offsets < 0.0):
        raise UnboundedBodyError("functionals do not span R^k; the body is unbounded")
    return hull.equations[:, :-1] / -offsets[:, None]


@functools.lru_cache(maxsize=None)
def _flag_levels(k: int):
    """Index tables for growing the flags of a k-dimensional polar, shared by
    every caller.  ``subsets[j]`` holds the j-subsets of range(k) (a facet's
    vertex slots, or coordinates) in ``itertools.combinations`` order, one
    per row; ``children[j]`` gives, for each j-subset and each of its j
    positions, the number of the (j-1)-subset left without that entry.
    ``wedge[g]`` forms v ^ w for a vector v and a g-vector w stored on the
    g-subsets of coordinates: component S is the sum over positions p of
    (-1)^p v[S[p]] w[S minus S[p]], listed as one pair of arrays per p:
    the coordinates S[p] of (v, -v), so S[p] + k where p is odd, and the
    subsets S minus S[p]."""
    subsets = {j: list(itertools.combinations(range(k), j)) for j in range(k + 1)}
    number = {s: i for j in subsets for i, s in enumerate(subsets[j])}
    children = {j: np.array([[number[s[:p] + s[p + 1:]] for p in range(j)]
                             for s in subsets[j]]) for j in range(2, k + 1)}
    wedge = {g: [(np.array([s[p] + k * (p % 2) for s in subsets[g + 1]]),
                  np.array([number[s[:p] + s[p + 1:]] for s in subsets[g + 1]]))
                 for p in range(g + 1)] for g in range(1, k)}
    subsets = {j: np.array(subsets[j]) for j in range(2, k - 1)}
    pairs = [pair for level in wedge.values() for pair in level]
    for plan in [*subsets.values(), *children.values(), *itertools.chain(*pairs)]:
        plan.setflags(write=False)
    return subsets, children, wedge


def _polar_volume(hulls) -> np.ndarray:
    """Volumes of the polars of a group of hulls of +/- points in R^k, read
    off the hulls' facets, whose flags grow in one pass.

    A flag of the polar pairs a facet F of the hull (a polar vertex u_F)
    with an ordering p_1, ..., p_k of F's vertices.  For j < k the face dual
    to {p_1 .. p_j} gets as its apex the polar vertex of the lowest-index
    facet that holds all of them; F is the apex at j = k.  Coning each face
    from its apex over the faces that miss it triangulates the polar's
    boundary (a pulling triangulation): with the origin, each flag whose
    apex changes at every step is a simplex of volume |det(apexes)| / k!,
    and every other flag is degenerate.  The apex can only fall as vertices
    are dropped, so the flags are grown from each facet down, one vertex
    dropped per level, and a chain is kept only while its apex falls
    strictly.  The apexes come three ways:
    - a ridge, F without one vertex, lies in exactly two of qhull's
      simplices (its output is triangulated), so its apex is the lower of F
      and F's neighbor across it;
    - a vertex's apex is the first facet it occurs in;
    - a face of 2 .. k-2 vertices is keyed by its sorted vertex numbers,
      and its apex is the first facet with that key.
    Each chain carries the exterior product of its apexes' polar vertices,
    u_F, then u_a ^ u_F for the ridge's apex a, and so on, one factor per
    level, so chains that share a prefix share its product; at the last
    level it is the determinant.  qhull's splits of a non-simplicial facet
    share one polar vertex, so the flags across them have zero volume.  At
    k = 1 the polar of [-t, t] is [-1/t, 1/t].

    The group's facets and vertices are numbered hull after hull, so no face
    of one hull meets another's, each hull's chains stay contiguous and in
    the order they have when it grows alone, and its volume, summed over
    them, is bit for bit the one it has alone.  A key of j digits is below
    V^j for the group's V vertices, so the group must keep V^(k-2) < 2^63;
    ``_hull_groups`` keeps it for the hulls' point counts, which bound V.
    """
    points = np.vstack([_polar_points(hull) for hull in hulls])
    k = points.shape[1]
    if k == 1:
        return np.array([4.0 / hull.volume for hull in hulls])
    subsets, children, wedge = _flag_levels(k)
    # each hull's facets and points follow those of the hulls before it
    starts = np.cumsum([0, *(hull.simplices.shape[0] for hull in hulls)])
    bases = np.cumsum([0, *(hull.points.shape[0] for hull in hulls)])
    simplices = np.vstack([hull.simplices + base for hull, base in zip(hulls, bases)])
    # number the hulls' vertices 0 .. V-1 in point order, so that the int64
    # keys below grow with V, not with the interior points the hulls were given
    labels, first, numbers = np.unique(simplices, return_index=True,
                                       return_inverse=True)
    facets = simplices.shape[0]
    numbers = numbers.reshape(facets, k)
    rows = np.arange(facets)
    # sort each facet's slots by vertex number, its neighbors along with them
    order = np.argsort(numbers, axis=1)
    vertices = numbers[rows[:, None], order]
    neighbors = np.vstack([hull.neighbors + start for hull, start in zip(hulls, starts)])
    neighbors = neighbors[rows[:, None], order]
    # apex[j][F, s]: the apex of F's j-subset s of slots; the (k-1)-subsets
    # run in combinations order, so the one without slot i is number k-1-i
    apex = {k - 1: np.minimum(rows[:, None], neighbors[:, ::-1])}
    if k > 2:
        apex[1] = (first // k)[vertices]
    for j in range(2, k - 1):
        digits = vertices[:, subsets[j]]
        keys = np.ravel_multi_index(tuple(np.moveaxis(digits, -1, 0)), (labels.size,) * j)
        # keys run facet by facet, so a key's first occurrence is its lowest facet
        _, at, inverse = np.unique(keys, return_index=True, return_inverse=True)
        apex[j] = (at // len(subsets[j]))[inverse].reshape(facets, -1)
    # each chain: its facet, its subset of slots, its apex and its product,
    # stored one component per row
    facet, subset, top, product = rows, np.zeros(facets, dtype=np.intp), rows, points.T
    signed = np.hstack([points, -points]).T  # u and -u, as wedge reads them
    for j in range(k - 1, 0, -1):
        kids = children[j + 1][subset]
        below = apex[j][facet[:, None], kids]
        chain, slot = np.nonzero(below < top[:, None])
        facet, subset, top = facet[chain], kids[chain, slot], below[chain, slot]
        u, w = signed[:, top], product[:, chain]
        (c, s), *terms = wedge[k - j]
        product = u[c] * w[s]
        for c, s in terms:
            product += u[c] * w[s]
    # the chains run facet by facet, so each hull's are one contiguous run
    ends = np.searchsorted(facet, starts)
    return np.array([np.abs(product[:, lo:hi]).sum() / math.factorial(k)
                     for lo, hi in zip(ends[:-1], ends[1:])])


def _hull_groups(hulls, k: int):
    """Runs of consecutive hulls in R^k whose polar flags grow in one pass
    of ``_polar_volume``.  A hull joins the run while the run keeps at most
    _GROUP_FACETS facets, past which a pass costs more per hull than it
    saves, and its P points keep P^(k-2) < 2^63: P bounds the run's vertex
    count, so every face key fits an int64, and no hull's vertices are
    computed (scipy finds them by a sort per hull).  Otherwise it starts the
    next run, alone if need be."""
    group, facets, points = [], 0, 0
    for hull in hulls:
        size, count = len(hull.equations), len(hull.points)
        if group and (facets + size > _GROUP_FACETS
                      or (points + count) ** (k - 2) >= 2 ** 63):
            yield group
            group, facets, points = [], 0, 0
        group.append(hull)
        facets += size
        points += count
    if group:
        yield group


def _spans(G: np.ndarray) -> bool:
    """Whether the rows G span R^k: functionals that bound their body, or
    vertex representatives of a full-dimensional one."""
    m, k = G.shape
    return m >= k and np.linalg.matrix_rank(G) == k


def _span_error(p: Polytope) -> ValueError:
    """The error of a body whose rows do not span R^k, by representation."""
    if p.hrep is None:
        return DegenerateBodyError("body is not full-dimensional")
    return UnboundedBodyError("functionals do not span R^k; the body is unbounded")


def enumerate_vertices(p: Polytope) -> Polytope:
    """All vertices of {y : |<g_i, y>| <= 1}, read off the facets of conv(+/- g_i).

    The body keeps one vertex per facet; antipodal facets and qhull's splits
    of non-simplicial ones repeat a vertex, so they are collapsed to one per
    +/- pair, within TAU_GEO relative to their largest entry so that any
    scale works."""
    if p.hrep is None:
        raise ValueError("enumerate_vertices needs an H-representation")
    _require_exact(p.k)
    cands = p._facet_points
    if cands is None:
        raise _span_error(p)
    return Polytope(k=p.k, vrep=_collapse_rows(cands, TAU_GEO * np.abs(cands).max()))


def volume(p: Polytope) -> float:
    """Exact volume: a V-rep body's is that of the hull of its +/- vertices,
    an H-rep body's that of the polar of the hull of its +/- functionals."""
    _require_exact(p.k)
    hull = p._rows_hull
    if hull is None:
        raise _span_error(p)
    return float(hull.volume if p.hrep is None else _polar_volume([hull])[0])


def _frame_volumes(frames) -> list[tuple[float, float]]:
    """Exact (cube section, cross projection) volumes of each of a block of
    frames in R^k projected from Subspaces, whose basis checks (TAU_ORTH <
    TAU_CERT) certified them, both from one hull of its +/- vectors: the
    hull's own volume and that of its polar, the section.  The frames are
    hulled in turn, the sections' flags grow a group of hulls at a time
    (``_hull_groups``), and a group's hulls are dropped once its volumes
    are read."""
    k = frames[0].k
    _require_exact(k)
    volumes = []
    for group in _hull_groups((_hull(frame.vectors) for frame in frames), k):
        volumes += zip(_polar_volume(group).tolist(), (float(hull.volume) for hull in group))
    return volumes


def support_function(p: Polytope, direction) -> float:
    """h(u) = max over the body of <u, y>.

    The maximum of |<s, u>| over a V-rep body's vertex representatives (0
    for none: the body is {0}) or over the vertices an H-rep body keeps, for
    k <= K_EXACT and functionals that span R^k (a vertex may repeat).  Any
    other H-rep body: by LP duality, the gauge of conv(+/- g_i) at u
    (``absolute_hull_gauge``); where that is inf the support is too, and
    UnboundedBodyError is raised.
    """
    u = np.asarray(direction, dtype=float)
    if u.shape != (p.k,) or not np.isfinite(u).all():
        raise ValueError(f"direction must be a finite vector of shape ({p.k},)")
    points = p._facet_points if p.vrep is None else p.vrep
    if points is not None:
        return float(np.abs(points @ u).max(initial=0.0))
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
    O(_CHUNK * m).  A V-rep body's functionals are the points polar to the
    facets of the hull it keeps.  Above K_EXACT it keeps none: each sample
    takes one gauge program, and all of them share the plan
    ``absolute_hull_gauge`` uses for these generators, so the SVD, the rank
    and the first basis are computed once.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    k = p.k
    rows = p.hrep if p.vrep is None else p.vrep
    try:
        fit = lowner_symmetric(rows, eps=DEFAULT_EPS)
    except SpanError:
        raise _span_error(p) from None
    if p.vrep is None:
        u = fit.weights
        container = Ellipsoid(k=k, matrix=(rows.T * (u / u.sum())) @ rows)
    else:
        A = fit.ellipsoid.matrix
        reach = np.einsum("ij,jk,ik->i", rows, A, rows).max()
        container = Ellipsoid(k=k, matrix=A / reach)
    functionals = p.hrep if p.vrep is None else p._facet_points
    if functionals is None:
        plan = _gauge_plan(rows.shape, rows.tobytes())
    vol_container = ellipsoid_volume(container)
    L_inv = np.linalg.inv(np.linalg.cholesky(container.matrix))
    block = max(256, _BLOCK_IMAGE // len(rows if functionals is None else functionals))

    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        count = min(_CHUNK, samples - done)
        z = rng.standard_normal((count, k))
        radii = rng.random(count) ** (1.0 / k)
        for start in range(0, count, block):
            zt = z[start:start + block].T.copy()
            zt /= np.sqrt(np.add.reduce(zt * zt, axis=0))
            zt *= radii[start:start + block]
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
