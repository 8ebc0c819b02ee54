"""Majorization order and frames with prescribed squared norms.

A nonnegative profile (c_1, ..., c_n) is the squared-norm sequence of some
unit decomposition of R^k exactly when the indicator vector with k ones
majorizes it, so the realizable profiles are the points of [0, 1]^n summing
to k.  One prefix-sum rule decides ``majorizes``, ``is_realizable`` and the
violated prefix that ``construct_realization`` reports, and
``random_realizable_profile`` scales exponential draws onto that set in one
water-filling step.  ``construct_realization`` is the constructive
direction: orthogonal plane rotations of the rows of an n x k matrix with
orthonormal columns each move one row's squared norm onto its target.  Its
unassigned rows are always unit rows, at most one partial row and zero
rows, so it takes O(n) steps: 0.2 s at (n, k) = (4000, 1333).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import FrameSet, FrameStructureError, _float_array

TAU_MAJ = 1e-9  # majorization / realizability tolerance
TAU_SH = 1e-8   # verification tolerance for constructed realizations


class NotRealizableError(ValueError):
    """Profile cannot be the squared-norm sequence of a unit decomposition.

    ``prefix`` is the length of the first violated prefix-sum condition,
    or 0 when the total sum is wrong.
    """

    def __init__(self, message: str, prefix: int):
        super().__init__(message)
        self.prefix = prefix


@dataclass(frozen=True)
class NormProfile:
    """Candidate squared norms for a unit decomposition of R^k."""

    k: int
    entries: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise FrameStructureError(f"k must be positive, got {self.k}")
        ent = _float_array(self.entries, "entries")
        if ent.ndim != 1 or ent.size == 0:
            raise FrameStructureError("entries must be a nonempty 1-d array")
        if np.any(ent < 0):
            raise FrameStructureError("entries must be nonnegative")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _first_violation(a, b) -> int:
    """First violated condition of ``a`` majorizing ``b``: the shortest prefix
    length m >= 1 whose descending sum of ``b`` exceeds that of ``a`` by more
    than TAU_MAJ, 0 when the totals differ by more than TAU_MAJ, or -1 when
    none is violated."""
    pa = np.cumsum(np.sort(a)[::-1])
    pb = np.cumsum(np.sort(b)[::-1])
    bad = np.flatnonzero(pb > pa + TAU_MAJ)
    if bad.size:
        return int(bad[0]) + 1
    if pa.size and abs(pa[-1] - pb[-1]) > TAU_MAJ:
        return 0
    return -1


def majorizes(a, b) -> bool:
    """True when every descending prefix sum of ``a`` dominates the one of
    ``b`` within TAU_MAJ and the totals agree within TAU_MAJ.  Non-finite
    entries raise FrameStructureError."""
    a = _float_array(a, "a")
    b = _float_array(b, "b")
    if a.ndim != 1 or a.shape != b.shape:
        raise FrameStructureError("majorizes expects two 1-d vectors of equal length")
    return _first_violation(a, b) < 0


def _indicator(profile: NormProfile) -> np.ndarray:
    """The vector of k ones and n - k zeros; the profile is realizable
    exactly when this vector majorizes it."""
    k, n = profile.k, profile.n
    if k > n:
        raise FrameStructureError(f"k={k} exceeds the number of entries n={n}")
    return np.repeat([1.0, 0.0], [k, n - k])


def is_realizable(profile: NormProfile) -> bool:
    """Whether some unit decomposition of R^k has these squared norms: the
    indicator vector with k ones majorizes them within TAU_MAJ."""
    return majorizes(_indicator(profile), profile.entries)


def _rotate_rows(B: np.ndarray, i: int, j: int, norms: np.ndarray, target: float) -> None:
    """Left-rotate rows i and j of B, which are orthogonal, so row i's squared
    norm becomes ``target``: with a = |B_i|^2 > target > b = |B_j|^2, that of
    cos(t) B_i + sin(t) B_j is (a+b)/2 + (a-b)/2 cos(2t).  The caller keeps
    target more than 1e-12 inside (b, a), so the acos argument is in range.
    """
    a = norms[i]
    b = norms[j]
    theta = 0.5 * math.acos((target - 0.5 * (a + b)) / (0.5 * (a - b)))
    c, s = math.cos(theta), math.sin(theta)
    row_i = c * B[i] + s * B[j]
    row_j = -s * B[i] + c * B[j]
    B[i] = row_i
    B[j] = row_j
    norms[i] = float(row_i @ row_i)
    norms[j] = float(row_j @ row_j)


def construct_realization(profile: NormProfile) -> FrameSet:
    """Build a unit decomposition whose squared norms match the profile.

    Starting from the standard basis padded with zero rows (squared norms
    1, ..., 1, 0, ..., 0) and processing targets in decreasing order, each
    step takes the nearest unassigned row if it is within 1e-12 of the
    target, else rotates the plane of the two rows whose norms straddle the
    target most tightly, hi above and lo below, so hi meets it exactly.
    That pairing keeps the remaining norms majorizing the remaining
    targets.  lo is the partial row or a fresh zero row and is left
    strictly inside (0, 1), so the unassigned rows are always a run of unit
    rows, at most one partial row and a run of zero rows: three cursors
    hold them, each step weighs at most three rows, and every rotated pair
    is orthogonal (untouched unit and zero rows share no support with
    rotated ones).  The columns stay orthonormal; at most n - 1 rotations
    are spent and the rows are returned in entry order.  Raises
    ArithmeticError when a squared norm misses its target by more than TAU_SH.
    """
    k, size = profile.k, profile.n
    bad = _first_violation(_indicator(profile), profile.entries)
    if bad == 0:
        raise NotRealizableError(
            f"profile sums to {profile.entries.sum():.12g}, expected k={k}", 0)
    if bad > 0:
        raise NotRealizableError(
            f"sum of the {bad} largest entries exceeds {min(bad, k)}", bad)

    order = np.argsort(-profile.entries, kind="stable")
    targets = profile.entries[order]
    B = np.zeros((size, k))
    B[np.arange(k), np.arange(k)] = 1.0
    norms = np.concatenate([np.ones(k), np.zeros(size - k)])
    source_row = np.empty(size, dtype=int)
    one, part, zero = 0, None, k  # next unit row, partial row or None, next zero row

    for m, target in enumerate(targets):
        rows = [r for r, left in ((one, one < k), (part, part is not None),
                                  (zero, zero < size)) if left]
        # in index order, so ties go to the lowest index as over all rows
        chosen = min(rows, key=lambda r: abs(norms[r] - target))
        above = [r for r in rows if norms[r] > target]
        below = [r for r in rows if norms[r] < target]
        lo = None
        # with none straddling, the profile is realizable merely up to
        # tolerance and the nearest row is within that slack
        if abs(norms[chosen] - target) > 1e-12 and above and below:
            chosen = min(above, key=norms.__getitem__)
            lo = max(below, key=norms.__getitem__)
            _rotate_rows(B, chosen, lo, norms, float(target))
        source_row[m] = chosen
        if chosen == part:
            part = None
        elif chosen == zero:  # one == zero only once the unit rows are gone
            zero += 1
        else:
            one += 1
        if lo is not None:
            part, zero = lo, zero + (lo == zero)

    vectors = np.empty((size, k))
    vectors[order] = B[source_row]
    miss = float(np.max(np.abs(np.einsum("ij,ij->i", vectors, vectors) - profile.entries)))
    if miss > TAU_SH:
        raise ArithmeticError(
            f"realization misses the profile by {miss:.3e} (tolerance {TAU_SH:g})")
    return FrameSet(n=size, k=k, vectors=vectors)


def random_realizable_profile(n: int, k: int, seed: int) -> NormProfile:
    """Deterministic sampler of realizable profiles (interior-biased).

    Exponential variates x are scaled onto the realizable set, the points
    of [0, 1]^n summing to k, in one water-filling step: c_i = min(1, lam x_i)
    with the one factor lam that makes the entries sum to k.  The j largest
    variates are capped, for the fewest j such that the largest of the rest,
    scaled to sum k - j, is at most 1; that holds at j = k - 1 at the latest.
    """
    if not 1 <= k <= n:
        raise FrameStructureError(f"need 1 <= k <= n, got n={n}, k={k}")
    x = np.random.default_rng(seed).exponential(size=n)
    order = np.argsort(-x, kind="stable")
    tail = np.cumsum(x[order][::-1])[::-1]  # tail[j]: sum of all but the j largest
    j = int(np.argmax(x[order] * (k - np.arange(n)) <= tail))
    x[order[:j]] = 1.0
    x[order[j:]] *= (k - j) / tail[j]
    return NormProfile(k=k, entries=np.minimum(x, 1.0))
