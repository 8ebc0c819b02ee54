"""Origin-centered ellipsoids: volumes, polars, and minimum-volume covers.

An ellipsoid is stored as the symmetric positive-definite matrix A of its
quadratic form {x : <A x, x> <= 1}.  The minimum-volume cover of a
symmetric point set (the Lowner ellipsoid of the points' absolute convex
hull) maximizes the D-optimal design objective log det(sum_i u_i p_i p_i^T)
over the weight simplex.  The design starts on k spanning points, the
first k pivots of a column-pivoted QR of the points (the core-set start of
Kumar and Yildirim), not on all m, since the optimal support is small.  A
step is one damped Newton trial on an active set (Sun and Freund): the
support plus up to k points outside the cover, whose KKT system is one
Cholesky solve.  It is kept if it raises log det by more than the Armijo
amount, and otherwise the step is a Frank-Wolfe or away step (Todd and
Yildirim).  The exit certificate: every point inside (1 + eps) times the
cover, every support point outside (1 - eps) times it.
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
_FLAT = 1e-13  # per unit of k, a predicted log det rise below its rounding


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
    """Cover, design weights, steps taken, final optimality gap and how many
    of the steps were Newton steps (the rest are Frank-Wolfe/away steps)."""

    ellipsoid: Ellipsoid
    weights: np.ndarray
    iterations: int
    gap: float
    newton_steps: int


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
    every step starts from the Cholesky factor L of M and the leverages
    g_i = p_i^T M^{-1} p_i.  One column-pivoted QR of P^T decides spanning
    and gives the start: its i-th pivot is the point furthest from the span
    of those before, at distance |R_ii|, so the rank is the count of
    |R_ii| > |R_00| max(m, k) eps (matrix_rank's threshold), and weight 1/k
    on the first k pivots makes M positive-definite.  A step is
      * one damped Newton trial for log det M on the active set: the
        support S and the (at most k, largest leverage first) points off it
        with g_i > k (1 + eps), with sum(u) = 1.  Eliminating that
        constraint leaves H [a, b] = [k - g, 1] for H = Q o Q
        (Q = P_A M^{-1} P_A^T), one Cholesky solve, and the direction
        d = (sum a / sum b) b - a; least squares on the bordered system
        where H is not positive-definite (repeated points, or more than
        k (k + 1) / 2 of them).  An entering point with
        d_i <= 0 leaves the set and the system is solved again.  The trial
        stops where a weight reaches zero and drops that point, and is kept
        if log det rises by more than the Armijo amount, or if it is a full
        step whose predicted rise is below log det's rounding; the trial's
        Cholesky factor is then the next step's L;
      * or, where the trial is rejected, a Frank-Wolfe step toward the
        point with the largest leverage or a Wolfe away step shrinking the
        weight of the support point with the smallest leverage, whichever
        leverage is further from k, with the exact line search
        lambda = (g - k) / (k (g - 1)).
    Haar frames take about 5 steps at (40, 5) and 7 at (100, 10), all of
    them Newton steps.  ``max_iterations`` counts steps.  On exit
    A = (k M(u))^{-1} satisfies max_i <A p_i, p_i> <= 1 + eps, and every
    surviving support point has <A p_i, p_i> >= 1 - eps; ``iterations``,
    ``gap`` and ``newton_steps`` of the result are the steps taken, the
    final gap and how many of the steps were Newton steps.

    Zero input vectors carry no constraint and get weight zero: their
    leverage is 0 < k, so no step adds them to the support, and the start
    pivots no zero point while the rank is k.  Points that do not span R^k
    raise SpanError, an empty (0, k) array with rank 0, and so do points
    whose weighted moment matrix M(u) loses positive definiteness in
    floating point (reported as rank k - 1).
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] == 0:
        raise ValueError("points must be an (m, k) array with k >= 1")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations}")
    if not np.all(np.isfinite(P)):
        raise ValueError("points contain non-finite entries")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
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
    L = None
    newton_steps = 0
    for iterations in range(max_iterations + 1):
        if L is None:
            L = _cholesky((P.T * u) @ P)
            if L is None:
                raise SpanError(f"points lie within rounding of a proper subspace "
                                f"of R^{k}: M(u) is not positive-definite", k - 1)
        Y = lapack.dtrtrs(L, P.T, lower=1)[0]
        g = np.einsum("ij,ij->j", Y, Y)
        S = u.nonzero()[0]
        i_fw = int(g.argmax())
        i_aw = int(S[g[S].argmin()])
        gap = max(g[i_fw] - k, k - g[i_aw])
        if g[i_fw] <= threshold and g[i_aw] >= floor:
            break
        if iterations == max_iterations:
            raise ConvergenceError(
                f"no convergence within {max_iterations} iterations "
                f"(remaining gap {gap:.3e})", float(gap))
        entering = ((g > threshold) & (u == 0.0)).nonzero()[0]
        if entering.size > k:
            entering = entering[np.argsort(-g[entering], kind="stable")[:k]]
        L = _newton_step(P, u, S, entering, L, Y, g, k)
        if L is None:
            _frank_wolfe_step(u, g, i_fw, i_aw, k)
            u /= u.sum()
        else:
            newton_steps += 1

    L_inv = lapack.dtrtri(L, lower=1)[0]
    ell = Ellipsoid(k=k, matrix=(L_inv.T @ L_inv) / k)
    return LownerFit(ellipsoid=ell, weights=u, iterations=iterations,
                     gap=float(gap), newton_steps=newton_steps)


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


def _newton_step(P, u, S, E, L, Y, g, k: int):
    """One damped Newton trial for log det M on the support S and entering E.

    L is the Cholesky factor of M(u), Y = L^{-1} P^T and E are points off
    the support.  An entering point whose direction is not positive is
    dropped and the system solved again.  The trial stops where a weight
    reaches zero and is normalized to sum 1.  Returns the Cholesky factor
    of the trial's M, having moved u to the trial, if log det rises by
    strictly more than the Armijo amount or a full step predicts a rise
    below log det's rounding; otherwise None, leaving u alone.
    """
    A = np.concatenate((S, E))
    while True:
        gA = g[A]
        d = _newton_direction(Y[:, A], k - gA)
        falling = d[S.size:] <= 0.0
        if not falling.any():
            break
        E = E[~falling]
        A = np.concatenate((S, E))
    slope = float((gA - k) @ d)
    if not slope > 0.0:
        return None
    uA = u[A]
    shrinking = (d < 0.0).nonzero()[0]
    to_zero = uA[shrinking] / -d[shrinking]
    t = min(1.0, float(to_zero.min(initial=1.0)))
    trial = np.maximum(uA + t * d, 0.0)
    trial[shrinking[to_zero == t]] = 0.0
    trial /= trial.sum()
    PA = P[A]
    L_t = _cholesky((PA.T * trial) @ PA)
    if L_t is None:
        return None
    rise = 2.0 * float(np.log(L_t.diagonal() / L.diagonal()).sum())
    if not (rise > _ARMIJO * t * slope or (t == 1.0 and slope <= _FLAT * k)):
        return None
    u[A] = trial
    return L_t


def _newton_direction(YA, r):
    """Newton direction d with sum(d) = 0 for the KKT system of the points YA.

    The system [[-H, 1], [1^T, 0]] [d, mu] = [r, 0], H = Q o Q and
    Q = YA^T YA, reduces by its Schur complement to one Cholesky solve
    H [a, b] = [r, 1], so d = (sum a / sum b) b - a.  Where H is not
    positive-definite (repeated or antipodal points, or more than
    k (k + 1) / 2 of them) the bordered system is solved by least squares.
    """
    Q = YA.T @ YA
    H = Q * Q
    s = r.size
    rhs = np.ones((2, s))
    rhs[0] = r
    x, info = lapack.dposv(H, rhs.T, lower=1)[1:]
    if info == 0:
        sum_a, sum_b = x.sum(axis=0)
        return (sum_a / sum_b) * x[:, 1] - x[:, 0]
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = -H
    kkt[:s, s] = 1.0
    kkt[s, :s] = 1.0
    return np.linalg.lstsq(kkt, np.append(r, 0.0), rcond=None)[0][:s]


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

