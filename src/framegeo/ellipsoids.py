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
Yildirim).  Where the active set is the k support points and one entering
point, the step is a face step instead: by Cauchy-Binet log det on those
k + 1 points has a closed-form maximizer up to one scalar root (Pukelsheim;
Todd), and the Newton trial runs only where that maximizer has a zero
weight or its log det does not rise.  The exit certificate: every point
inside (1 + eps) times the cover, every support point outside (1 - eps)
times it.  The fit advances a
block of point sets of one shape round by round (``lowner_block``): one
einsum gives every unfinished set's leverages and stacked argmax, argmin and
masks its tests and points, while each set keeps its own triangular solves,
Newton solves and Cholesky factorizations, so it has the bits it has alone;
``lowner_symmetric`` is a block of one.  A block's start (its checks, ranks
and first weights) is one pass over the block, and a certified cover is
checked once, by the tests ``Ellipsoid`` would make of it.

``ellipsoid_volume_ratio`` gives vol(E)/vol(B^k) = exp(-1/2 log det A)
without forming either volume, so the Lowner and John ratios hold at any k
the fit reaches, although vol(B^k) is subnormal from k = 436;
``ellipsoid_volume_ratios`` gives a block's from one stacked determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .frames import Subspace, _checked, project_standard_basis

DEFAULT_EPS = 1e-7
MAX_ITERATIONS = 10 ** 6
_ARMIJO = 1e-4  # fraction of the predicted log det rise a Newton step must keep
_FLAT = 1e-13  # per unit of k, a predicted log det rise below its rounding
_EPS = np.finfo(float).eps


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
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (self.k, self.k):
            raise ValueError(f"matrix must be {self.k} x {self.k}, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix contains non-finite entries")
        mat = 0.5 * (mat + mat.T)  # a new array, which the caller cannot alter
        if _cholesky(mat) is None:
            raise ValueError("matrix is not positive-definite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


class LownerFit(NamedTuple):
    """Cover, design weights, steps taken, final optimality gap and how many
    of the steps were Newton steps, a face step counted as one (the rest
    are Frank-Wolfe/away steps)."""

    ellipsoid: Ellipsoid
    weights: np.ndarray
    iterations: int
    gap: float
    newton_steps: int


def unit_ball_volume(k: int) -> float:
    """Volume of the Euclidean unit ball in R^k; from k = 342, where
    gamma(k/2 + 1) overflows, it is taken from the logarithms."""
    try:
        return math.pi ** (k / 2) / math.gamma(k / 2 + 1)
    except OverflowError:
        return math.exp(k / 2 * math.log(math.pi) - math.lgamma(k / 2 + 1))


def ellipsoid_volume_ratio(e: Ellipsoid) -> float:
    """vol(e) / vol(B^k) = exp(-1/2 log det A), formed without either volume,
    so it holds at any k although vol(B^k) is subnormal from k = 436."""
    return ellipsoid_volume_ratios([e])[0]


def ellipsoid_volume_ratios(ellipsoids) -> list[float]:
    """``ellipsoid_volume_ratio`` of each of a block of ellipsoids in R^k,
    from one stacked log-determinant."""
    sign, logdet = np.linalg.slogdet(np.array([e.matrix for e in ellipsoids]))
    if (sign <= 0).any():
        raise ValueError("ellipsoid matrix must be positive-definite")
    return [math.exp(-0.5 * value) for value in logdet.tolist()]


def ellipsoid_volume(e: Ellipsoid) -> float:
    """vol(e) = vol(B^k) / sqrt(det A)."""
    return unit_ball_volume(e.k) * ellipsoid_volume_ratio(e)


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
      * in its place, where the active set is the k support points and
        one entering point e, a face step to the maximizer of log det on
        those k + 1 points.  Their null vector c = (x, 1), Y_S x = -y_e
        for Y = L^{-1} P^T, gives det M(u) proportional to
        prod(u) sum(c_i^2 / u_i) by Cauchy-Binet, maximized at
        u_i = (1 +/- s_i) / (2k) for one scalar root (``_face_weights``).
        It is kept if its M has a Cholesky factor and log det rises;
        otherwise, or where the maximizer has a zero weight, the Newton
        trial runs.  A support of k + 1 points takes no face step
        (retried there, it cycles under rounding);
      * or, where the trial is rejected, a Frank-Wolfe step toward the
        point with the largest leverage or a Wolfe away step shrinking the
        weight of the support point with the smallest leverage, whichever
        leverage is further from k, with the exact line search
        lambda = (g - k) / (k (g - 1)).
    Haar frames (``trial_seed(2026, t)``) take on average 0.90 steps at
    (6, 3) and 2.10 at (8, 4) over 1000 frames, 4.89 at (40, 5) over 200
    and 6.63 at (100, 10) over 60, all of them Newton or face steps.  ``max_iterations`` counts steps.  On exit
    A = (k M(u))^{-1} satisfies max_i <A p_i, p_i> <= 1 + eps, and every
    surviving support point has <A p_i, p_i> >= 1 - eps; ``iterations``,
    ``gap`` and ``newton_steps`` of the result are the steps taken, the
    final gap and how many of the steps were Newton or face steps, that
    is, not Frank-Wolfe/away steps.

    Zero input vectors carry no constraint and get weight zero: their
    leverage is 0 < k, so no step adds them to the support, and the start
    pivots no zero point while the rank is k.  Points that do not span R^k
    raise SpanError, an empty (0, k) array with rank 0, and so do points
    whose weighted moment matrix M(u) loses positive definiteness in
    floating point (reported as rank k - 1).

    The fit is ``lowner_block``, which advances a block of point sets round
    by round, on a block of one set.
    """
    return lowner_block([points], eps, max_iterations)[0]


def lowner_block(point_sets, eps: float = DEFAULT_EPS,
                 max_iterations: int = MAX_ITERATIONS) -> list[LownerFit]:
    """``lowner_symmetric`` of each of a block of point sets of one shape
    (m, k), advanced round by round, each fit with the bits it has alone.

    In a round every unfinished set forms Y = L^{-1} P^T with its own
    triangular solve and copies it into its row of one (sets, m, k) buffer;
    one einsum over the buffer gives all the leverages, and stacked argmax,
    argmin and masks give each set's exit test, Frank-Wolfe and away points
    and entering candidates.  Each unfinished set then takes its own Newton
    trial or Frank-Wolfe step, with its own Cholesky factorizations and
    solves, and leaves the block once it is certified; its cover is built
    once (``_cover``).  The block starts in one pass: the sets' shapes are
    checked one by one in order, their entries by one finiteness test over
    the block, and each set takes its own pivoted QR.  The block's least
    |R_ii| is tested against the highest of the sets' rank thresholds, and
    only where it does not clear them are all the sets' |R_ii| compared with
    their own thresholds in one stacked test, so the first rank-deficient
    set in order raises the SpanError it raises alone; one assignment puts
    every set's start weights on its first k pivots.  In a
    round the first failing set in order raises, at the cap the first
    unfinished one.  Sets that fail in different rounds thus need not
    raise the error of the first of them in order.
    """
    sets = [np.asarray(points, dtype=float) for points in point_sets]
    for P in sets:
        if P.ndim != 2 or P.shape[1] == 0:
            raise ValueError("points must be an (m, k) array with k >= 1")
        if P.shape != sets[0].shape:
            raise ValueError("point sets must share one shape (m, k)")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations}")
    if sets and not np.isfinite(sets).all():
        raise ValueError("points contain non-finite entries")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not sets:
        return []
    m, k = sets[0].shape
    # each set's own pivoted QR; its rank counts its |R_ii| above its largest
    # |R_ii| times max(m, k) eps.  Where the block's least |R_ii| is above
    # the threshold of the block's largest, every set has rank k.
    count = len(sets)
    diags = np.empty((count, min(m, k)))
    pivots = np.empty((count, m), dtype=np.intp)
    for b, P in enumerate(sets):
        R, pivots[b] = lapack.dgeqp3(P.T)[:2]
        diags[b] = R.diagonal()
    np.abs(diags, out=diags)
    if m < k or not diags.min() > diags.max() * max(m, k) * _EPS:
        limits = diags.max(axis=1, initial=0.0, keepdims=True) * max(m, k) * _EPS
        ranks = (diags > limits).sum(axis=1)
        if ranks.min() < k:
            rank = int(ranks[ranks < k][0])
            raise SpanError(f"points span a {rank}-dimensional subspace of R^{k}", rank)
    U = np.zeros((count, m))
    U[np.arange(count)[:, None], pivots[:, :k] - 1] = 1.0 / k

    threshold = k * (1.0 + eps)
    floor = k * (1.0 - eps)
    fits = [None] * len(sets)
    # the unfinished sets in order: set live[j] keeps its weights in U[j],
    # its Cholesky factor in Ls[j], and its Y = L^{-1} P^T in Ys[j] and,
    # transposed, in buffer[j]
    live = list(range(len(sets)))
    Ls = [None] * len(sets)
    Ys = [None] * len(sets)
    newton_steps = [0] * len(sets)
    buffer = np.empty((len(sets), m, k))
    for iterations in range(max_iterations + 1):
        for j, b in enumerate(live):
            P = sets[b]
            if Ls[j] is None:
                Ls[j] = _cholesky((P.T * U[j]) @ P)
                if Ls[j] is None:
                    raise SpanError(f"points lie within rounding of a proper subspace "
                                    f"of R^{k}: M(u) is not positive-definite", k - 1)
            Ys[j] = lapack.dtrtrs(Ls[j], P.T, lower=1)[0]
            buffer[j] = Ys[j].T
        g = np.einsum("bij,bij->bi", buffer, buffer)
        off = np.logical_not(U)  # the points off each set's support
        i_fw = g.argmax(axis=1).tolist()
        on_support = g.copy()
        on_support[off] = np.inf
        i_aw = on_support.argmin(axis=1).tolist()
        entering_all = None
        stepping = []
        for j, b in enumerate(live):
            g_fw, g_aw = g.item(j, i_fw[j]), g.item(j, i_aw[j])
            gap = max(g_fw - k, k - g_aw)
            if g_fw <= threshold and g_aw >= floor:
                fits[b] = LownerFit(_cover(Ls[j], k), U[j].copy(),
                                    iterations, gap, newton_steps[b])
                continue
            if iterations == max_iterations:
                raise ConvergenceError(
                    f"no convergence within {max_iterations} iterations "
                    f"(remaining gap {gap:.3e})", gap)
            if entering_all is None:
                entering_all = (g > threshold) & off
            stepping.append(j)
            u, gj = U[j], g[j]
            entering = entering_all[j].nonzero()[0]
            if entering.size > k:
                entering = entering[np.argsort(-gj[entering], kind="stable")[:k]]
            Ls[j] = _newton_step(sets[b], u, u.nonzero()[0], entering, Ls[j], Ys[j], gj, k)
            if Ls[j] is None:
                _frank_wolfe_step(u, gj, i_fw[j], i_aw[j], k)
                u /= u.sum()
            else:
                newton_steps[b] += 1
        if not stepping:
            return fits
        if len(stepping) < len(live):
            live = [live[j] for j in stepping]
            Ls = [Ls[j] for j in stepping]
            U = U[stepping]
            buffer = buffer[:len(live)]


def _cover(L, k: int) -> Ellipsoid:
    """The cover A = (k M)^{-1} = L^{-T} L^{-1} / k of a fit whose M has the
    Cholesky factor L, as an Ellipsoid checked once: numpy forms
    L^{-T} L^{-1} by syrk, so A is exactly symmetric and is the matrix
    ``Ellipsoid(k, A)`` keeps, and only its finiteness and its Cholesky
    factorization are tested, with that constructor's errors."""
    L_inv = lapack.dtrtri(L, lower=1)[0]
    A = L_inv.T @ L_inv
    A /= k
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    if _cholesky(A) is None:
        raise ValueError("matrix is not positive-definite")
    A.setflags(write=False)
    return _checked(Ellipsoid, k=k, matrix=A)


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
    """One face step or damped Newton trial for log det M on the support S
    and entering E.

    L is the Cholesky factor of M(u), Y = L^{-1} P^T and E are points off
    the support.  Where S has k points and E one, the step is the exact
    maximizer of log det on their face (``_face_step``) if that has every
    weight positive and is kept.  Otherwise it is the Newton trial: an
    entering point whose Newton direction is not positive is dropped and
    the system solved again, and the trial stops where a weight reaches
    zero and is normalized to sum 1.  Returns the Cholesky factor of the
    step's M, having moved u to the step, if the step is kept: a face step
    where log det rises, a trial where it rises by strictly more than the
    Armijo amount or a full step predicts a rise below log det's rounding;
    otherwise None, leaving u alone.
    """
    if S.size == k and E.size == 1:
        L_t = _face_step(P, u, S, E[0], L, Y, k)
        if L_t is not None:
            return L_t
    A = np.concatenate((S, E))
    while True:
        gA = g[A]
        d = _newton_direction(Y[:, A], k - gA)
        falling = d[S.size:] <= 0.0
        if not np.count_nonzero(falling):
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


def _face_step(P, u, S, e: int, L, Y, k: int):
    """The maximizer of log det M on the face of the k support points S and
    the entering point e, or None where it has a zero weight or is not kept.

    The k + 1 points have the null vector c = (x, 1), Y_S x = -y_e, and by
    Cauchy-Binet det M(u) is proportional to prod(u) sum(c_i^2 / u_i) on
    their face, whose maximizer ``_face_weights`` gives.  The step is kept
    if the Cholesky factor of its M exists and log det rises; u is then
    moved to it and that factor returned.
    """
    x, info = lapack.dgesv(Y[:, S], -Y[:, e])[2:]
    if info != 0:
        return None
    c2 = (x * x).tolist()
    c2.append(1.0)
    weights = _face_weights(c2, k)
    if weights is None:
        return None
    A = np.append(S, e)
    trial = np.array(weights)
    trial /= trial.sum()
    PA = P[A]
    L_t = _cholesky((PA.T * trial) @ PA)
    if L_t is None or not np.log(L_t.diagonal() / L.diagonal()).sum() > 0.0:
        return None
    u[A] = trial
    return L_t


def _face_weights(c2, k: int):
    """The weights of k + 1 points that maximize prod(u) sum(c2_i / u_i) on
    the simplex, as a list, or None where the maximizer has a zero weight.

    A stationary point has u_i = (1 +/- s_i) / (2k) with s_i^2 =
    1 - 4k c2_i / sum(c2 / u).  Let j be the point with the largest c2 (the
    first of a tie), q_i = c2_i / c2_j and r = s_j, so that s_i =
    sqrt(1 - q_i + q_i r^2); at most j takes the minus root, and sum(u) = 1
    is f(r) = sum_{i != j} s_i +/- r - (k - 1) = 0 on 0 <= r < 1, f convex.
    Where the plus root's f(0) <= 0, Newton from r = 1 (f = 2) falls
    monotonically to the root; otherwise, where sum_{i != j} q_i > 1, j
    takes the minus root and Newton from r = 0 rises monotonically to the
    root below r = 1 (where u_j = 0).  Otherwise the maximizer is on the
    boundary.  Each Newton run stops once f <= 0 or r stops moving.
    """
    j = max(range(k + 1), key=c2.__getitem__)
    q = [c / c2[j] for c in c2[:j] + c2[j + 1:]]
    at_zero = [math.sqrt(1.0 - qi) for qi in q]  # s_i at r = 0
    slopes = [math.sqrt(qi) for qi in q]
    f_zero = sum(at_zero) - (k - 1)  # the plus root's f(0)
    # each run starts at its first Newton iterate: from r = 1, where f = 2
    # and f' = 1 + sum(q), or from r = 0, where f' = -1
    if f_zero <= 0.0:
        sign, r = 1.0, max(1.0 - 2.0 / (1.0 + sum(q)), 0.0)
    elif sum(q) > 1.0:
        sign, r = -1.0, f_zero
    else:
        return None
    while True:
        s = [math.hypot(a, b * r) for a, b in zip(at_zero, slopes)]
        # f is tested before f' is formed: a point tied with j has s = 0 only
        # at r = 0, where the plus root's f(0) <= 0
        f = sum(s) + sign * r - (k - 1)
        if not f > 0.0:
            break
        df = sign + r * sum([qi / si for qi, si in zip(q, s)])
        if not sign * df > 0.0:
            break
        nxt = max(r - f / df, 0.0)
        if not sign * (r - nxt) > 0.0:
            break
        r = nxt
    weights = [(1.0 + si) / (2 * k) for si in s]
    weights.insert(j, (1.0 + sign * r) / (2 * k))
    return weights


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
    rhs = np.empty((2, s))
    rhs[0] = r
    rhs[1] = 1.0
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

