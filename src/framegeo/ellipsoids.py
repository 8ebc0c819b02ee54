"""Origin-centered ellipsoids: volumes, polars, and minimum-volume covers.

An ellipsoid is stored as the symmetric positive-definite matrix A of its
quadratic form {x : <A x, x> <= 1}.  The minimum-volume cover of a
symmetric point set (the Lowner ellipsoid of the points' absolute convex
hull) maximizes the D-optimal design objective log det(sum_i u_i p_i p_i^T)
over the weight simplex.  The design starts on k spanning points, the
first k pivots of a column-pivoted QR of the points (the core-set start of
Kumar and Yildirim), not on all m, since the optimal support is small and
an away step drops at most one point.  A step is one damped Newton trial
on the support (which removes the slow linear tail of first-order steps)
if it raises log det by more than the Armijo amount, and otherwise, or when
a point off the support lies outside the cover, a Frank-Wolfe or away step
(Todd and Yildirim).  The exit certificate: every point inside (1 + eps)
times the cover, every support point outside (1 - eps) times it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .frames import Subspace, project_standard_basis

DEFAULT_EPS = 1e-7
MAX_ITERATIONS = 10 ** 6
_ARMIJO = 1e-4  # fraction of the predicted log det rise a Newton step must keep


class SpanError(ValueError):
    """Points fail to span R^k; ``rank`` holds the dimension they do span."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class ConvergenceError(RuntimeError):
    """Solver hit its iteration cap; ``gap`` is the remaining optimality gap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True)
class Ellipsoid:
    """{x in R^k : <A x, x> <= 1} for symmetric positive-definite A."""

    k: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (self.k, self.k):
            raise ValueError(f"matrix must be {self.k} x {self.k}, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains non-finite entries")
        mat = 0.5 * (mat + mat.T)
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            raise ValueError("matrix is not positive-definite") from None
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


class LownerFit(NamedTuple):
    """Cover, design weights, steps taken and final optimality gap."""

    ellipsoid: Ellipsoid
    weights: np.ndarray
    iterations: int
    gap: float


def unit_ball_volume(k: int) -> float:
    """Volume of the Euclidean unit ball in R^k."""
    return math.pi ** (k / 2) / math.gamma(k / 2 + 1)


def ellipsoid_volume(e: Ellipsoid) -> float:
    """vol(e) = vol(B^k) / sqrt(det A)."""
    sign, logdet = np.linalg.slogdet(e.matrix)
    if sign <= 0:
        raise ValueError("ellipsoid matrix must be positive-definite")
    return unit_ball_volume(e.k) * math.exp(-0.5 * logdet)


def polar_ellipsoid(e: Ellipsoid) -> Ellipsoid:
    """Polar body of an origin-centered ellipsoid: A maps to A^{-1}."""
    return Ellipsoid(k=e.k, matrix=np.linalg.inv(e.matrix))


def lowner_symmetric(points, eps: float = DEFAULT_EPS,
                     max_iterations: int = MAX_ITERATIONS) -> LownerFit:
    """Minimum-volume origin-centered ellipsoid covering +/- p for each point.

    Maximizes log det M(u) for M(u) = sum_i u_i p_i p_i^T over the simplex;
    every step starts from a fresh Cholesky factorization of
    M and the leverages g_i = p_i^T M^{-1} p_i.  One column-pivoted QR of
    P^T decides spanning and gives the start: its i-th pivot is the point
    furthest from the span of those before, at distance |R_ii|, so the rank
    is the count of |R_ii| > |R_00| max(m, k) eps (matrix_rank's threshold),
    and weight 1/k on the first k pivots makes M positive-definite.  From
    there a Haar frame at (40, 5) takes about 12 steps on average, against
    about 45 from uniform weights on all 40 points, which must drop the ~31
    points off the optimal support one away step at a time.  A step is
      * one damped Newton trial for log det M on the support S with
        sum(u_S) = 1, from the KKT system [[-(Q o Q), 1], [1^T, 0]]
        (Q = P_S M^{-1} P_S^T) solved by least squares, since repeated
        points or more than k (k + 1) / 2 of them make it singular.  The
        trial stops where a weight reaches zero and drops that point, and
        is kept only if log det rises by more than the Armijo amount;
      * or, where the trial is rejected or a point off the support has
        g_i > k (1 + eps), a Frank-Wolfe step toward the point with the
        largest leverage or a Wolfe away step shrinking the weight of the
        support point with the smallest leverage, whichever leverage is
        further from k, with the exact line search
        lambda = (g - k) / (k (g - 1)).
    ``max_iterations`` counts steps.  On exit A = (k M(u))^{-1}
    satisfies max_i <A p_i, p_i> <= 1 + eps, and every surviving support
    point has <A p_i, p_i> >= 1 - eps; ``iterations`` and ``gap`` of the
    result are the steps taken and the final gap.

    Zero input vectors carry no constraint and get weight zero: their
    leverage is 0 < k, so no Frank-Wolfe step picks them, and the start
    pivots no zero point while the rank is k.  Points that do not span R^k
    raise SpanError, and so do points whose weighted moment matrix M(u)
    loses positive definiteness in floating point (reported as rank k - 1).
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("points must be a nonempty (m, k) array")
    if not np.all(np.isfinite(P)):
        raise ValueError("points contain non-finite entries")
    if eps <= 0:
        raise ValueError("eps must be positive")
    m, k = P.shape
    R, pivots = lapack.dgeqp3(P.T)[:2]
    diag = np.abs(np.diagonal(R))
    tol = diag.max(initial=0.0) * max(m, k) * np.finfo(float).eps
    rank = int(np.count_nonzero(diag > tol))
    if rank < k:
        raise SpanError(f"points span a {rank}-dimensional subspace of R^{k}", rank)

    u = np.zeros(m)
    u[pivots[:k] - 1] = 1.0 / k
    threshold = k * (1.0 + eps)
    floor = k * (1.0 - eps)
    for iterations in range(max_iterations + 1):
        L = _cholesky((P.T * u) @ P)
        if L is None:
            raise SpanError(f"points lie within rounding of a proper subspace "
                            f"of R^{k}: M(u) is not positive-definite", k - 1)
        Y = lapack.dtrtrs(L, P.T, lower=1)[0]
        g = np.einsum("ij,ij->j", Y, Y)
        support = u > 0.0
        g_sup = np.where(support, g, math.inf)
        i_fw = int(g.argmax())
        i_aw = int(g_sup.argmin())
        gap = max(g[i_fw] - k, k - g_sup[i_aw])
        if g[i_fw] <= threshold and g_sup[i_aw] >= floor:
            break
        if iterations == max_iterations:
            raise ConvergenceError(
                f"no convergence within {max_iterations} iterations "
                f"(remaining gap {gap:.3e})", float(gap))
        if (np.any((g > threshold) & ~support)
                or not _newton_step(P, u, np.flatnonzero(support), L, Y, g, k)):
            _frank_wolfe_step(u, g, i_fw, i_aw, k)
        u /= u.sum()

    L_inv = lapack.dtrtri(L, lower=1)[0]
    ell = Ellipsoid(k=k, matrix=(L_inv.T @ L_inv) / k)
    return LownerFit(ellipsoid=ell, weights=u,
                     iterations=iterations, gap=float(gap))


def _cholesky(M):
    """Lower Cholesky factor of M, or None when M is not positive-definite."""
    L, info = lapack.dpotrf(M, lower=1)
    return L if info == 0 else None


def _frank_wolfe_step(u, g, i_fw: int, i_aw: int, k: int) -> None:
    """Frank-Wolfe step toward i_fw or away step from i_aw, updating u in place.

    Takes the step whose leverage is further from k, with the exact line
    search for log det.
    """
    if g[i_fw] - k >= k - g[i_aw]:
        gj = float(g[i_fw])
        lam = (gj - k) / (k * (gj - 1.0))
        u *= 1.0 - lam
        u[i_fw] += lam
    else:
        gj = float(g[i_aw])
        lam_max = u[i_aw] / (1.0 - u[i_aw]) if u[i_aw] < 1.0 else math.inf
        lam_unc = (k - gj) / (k * (gj - 1.0)) if gj > 1.0 else math.inf
        lam = min(lam_unc, lam_max)
        u *= 1.0 + lam
        u[i_aw] -= lam
        if lam >= lam_max:
            u[i_aw] = 0.0


def _newton_step(P, u, S, L, Y, g, k: int) -> bool:
    """One damped Newton trial for log det M on the support S, in place.

    L is the Cholesky factor of M(u) and Y = L^{-1} P^T; the trial stops
    where a weight reaches zero.  Returns False, leaving u alone, unless the
    trial raises log det by strictly more than the Armijo amount.
    """
    s = S.size
    YS = Y[:, S]
    Q = YS.T @ YS
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = -(Q * Q)
    kkt[:s, s] = 1.0
    kkt[s, :s] = 1.0
    rhs = np.zeros(s + 1)
    rhs[:s] = k - g[S]
    d = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:s]
    slope = float((g[S] - k) @ d)
    if not slope > 0.0:
        return False
    uS = u[S]
    to_zero = np.full(s, math.inf)
    shrinking = d < 0.0
    to_zero[shrinking] = -uS[shrinking] / d[shrinking]
    j_cap = int(to_zero.argmin())
    t = min(1.0, float(to_zero[j_cap]))
    trial = np.maximum(uS + t * d, 0.0)
    if t == to_zero[j_cap]:
        trial[j_cap] = 0.0
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    PS = P[S]
    L_t = _cholesky((PS.T * trial) @ PS)
    if (L_t is None or not 2.0 * float(np.log(L_t.diagonal()).sum())
            > logdet + _ARMIJO * t * slope):
        return False
    u[S] = trial
    return True


def john_of_cube_section(subspace: Subspace, eps: float = DEFAULT_EPS) -> Ellipsoid:
    """Largest ellipsoid inside the cube section, in subspace coordinates.

    The section of the unit cube by the subspace and the projection of the
    cross-polytope onto it are polar to each other, so the John ellipsoid
    of the section is the polar of the Lowner ellipsoid of the projected
    standard basis.
    """
    frame = project_standard_basis(subspace)
    fit = lowner_symmetric(frame.vectors, eps=eps)
    return polar_ellipsoid(fit.ellipsoid)

