"""Majorization order and frames with prescribed squared norms.

A nonnegative profile (c_1, ..., c_n) is the squared-norm sequence of some
unit decomposition of R^k exactly when the indicator vector with k ones
majorizes it, so the realizable profiles are the points of [0, 1]^n summing
to k.  One prefix-sum rule decides ``majorizes``, ``is_realizable`` and the
violated prefix that ``construct_realization`` reports, and
``random_realizable_profile`` scales exponential draws onto that set in one
water-filling step.  The constructive direction is implemented with plane
rotations acting on the rows of an n x k matrix with orthonormal columns:
each rotation moves one row's squared norm exactly onto its target while
preserving the column Gram identity.
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


def _first_violation(a, b, tol: float) -> int:
    """First violated condition of ``a`` majorizing ``b``: the shortest prefix
    length m >= 1 whose descending sum of ``b`` exceeds that of ``a`` by more
    than ``tol``, 0 when the totals differ by more than ``tol``, or -1 when
    none is violated."""
    pa = np.cumsum(np.sort(a)[::-1])
    pb = np.cumsum(np.sort(b)[::-1])
    bad = np.flatnonzero(pb > pa + tol)
    if bad.size:
        return int(bad[0]) + 1
    if pa.size and abs(pa[-1] - pb[-1]) > tol:
        return 0
    return -1


def majorizes(a, b, tol: float = TAU_MAJ) -> bool:
    """True when every descending prefix sum of ``a`` dominates the one of
    ``b`` within ``tol`` and the totals agree within ``tol``.  Non-finite
    entries raise FrameStructureError."""
    a = _float_array(a, "a")
    b = _float_array(b, "b")
    if a.ndim != 1 or a.shape != b.shape:
        raise FrameStructureError("majorizes expects two 1-d vectors of equal length")
    return _first_violation(a, b, tol) < 0


def _indicator(profile: NormProfile) -> np.ndarray:
    """The vector of k ones and n - k zeros; the profile is realizable
    exactly when this vector majorizes it."""
    k, n = profile.k, profile.n
    if k > n:
        raise FrameStructureError(f"k={k} exceeds the number of entries n={n}")
    return np.repeat([1.0, 0.0], [k, n - k])


def is_realizable(profile: NormProfile, tol: float = TAU_MAJ) -> bool:
    """Whether some unit decomposition of R^k has these squared norms: the
    indicator vector with k ones majorizes them."""
    return majorizes(_indicator(profile), profile.entries, tol)


def _rotate_rows(B: np.ndarray, i: int, j: int, norms: np.ndarray, target: float) -> None:
    """Left-rotate rows i and j of B so row i's squared norm becomes ``target``.

    With a = |B_i|^2, b = |B_j|^2 and g = <B_i, B_j>, the squared norm of
    cos(t) B_i + sin(t) B_j equals (a+b)/2 + R cos(2t - phi) for
    R = hypot((a-b)/2, g) and phi = atan2(g, (a-b)/2), so the angle solving
    for ``target`` is closed-form whenever target lies between the row norms.
    """
    a = norms[i]
    b = norms[j]
    g = float(B[i] @ B[j])
    mid = 0.5 * (a + b)
    radius = math.hypot(0.5 * (a - b), g)
    if radius < 1e-300:
        return
    x = min(1.0, max(-1.0, (target - mid) / radius))
    phi = math.atan2(g, 0.5 * (a - b))
    theta = 0.5 * (phi + math.acos(x))
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
    step pairs the two unassigned rows whose norms straddle the target most
    tightly and rotates that plane so one row meets the target exactly.
    That pairing keeps the remaining norms majorizing the remaining
    targets, so every later target stays reachable.  Rotations act
    orthogonally on the left, so the k columns stay orthonormal throughout;
    at most n - 1 rotations are spent and the rows are returned in the
    original entry order.  Raises ArithmeticError when a squared norm of
    the result misses its target by more than TAU_SH.
    """
    k, size = profile.k, profile.n
    bad = _first_violation(_indicator(profile), profile.entries, TAU_MAJ)
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
    active = list(range(size))
    source_row = np.empty(size, dtype=int)

    for m, target in enumerate(targets):
        if len(active) == 1:
            source_row[m] = active.pop()
            continue
        nearest = min(active, key=lambda r: abs(norms[r] - target))
        if abs(norms[nearest] - target) <= 1e-12:
            chosen = nearest
        else:
            above = [r for r in active if norms[r] > target]
            below = [r for r in active if norms[r] < target]
            if not above or not below:
                # only reachable when the profile is realizable merely up to
                # tolerance; the nearest row is then within that slack
                chosen = nearest
            else:
                hi = min(above, key=norms.__getitem__)
                lo = max(below, key=norms.__getitem__)
                _rotate_rows(B, hi, lo, norms, float(target))
                chosen = hi
        source_row[m] = chosen
        active.remove(chosen)

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
