"""Unit decompositions (Parseval frames) and their certification.

A family of vectors v_1, ..., v_n in R^k is a unit decomposition when the
outer products v_i v_i^T sum to the identity on R^k.  Equivalently, the
k x n matrix whose columns are the v_i has orthonormal rows, i.e. it is a
sub-matrix of an orthogonal matrix of order n.  The operations here certify
that identity numerically, relate frames to projections of the standard
basis of R^n, and extend certified frames to full orthogonal matrices by
one complete QR factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAU_ORTH = 1e-10  # orthonormality tolerance for subspace bases
TAU_CERT = 1e-9   # certification tolerance for unit decompositions


class FrameStructureError(ValueError):
    """Malformed frame, subspace, or profile data (shape, finiteness, bounds)."""


class CertificationError(ValueError):
    """A frame failed unit-decomposition certification.

    The ``deviation`` attribute holds the max-norm of sum(v_i v_i^T) - I_k
    for the offending frame.
    """

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation


def _float_array(data, name: str) -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError):
        raise FrameStructureError(f"{name} is not a rectangular array of reals") from None
    if not np.all(np.isfinite(arr)):
        raise FrameStructureError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class FrameSet:
    """Ordered family of n vectors in R^k, stored as rows of ``vectors``."""

    n: int
    k: int
    vectors: np.ndarray

    def __post_init__(self):
        if self.k < 1 or self.n < self.k:
            raise FrameStructureError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        vecs = _float_array(self.vectors, "vectors")
        if vecs.shape != (self.n, self.k):
            raise FrameStructureError(
                f"vectors must have shape ({self.n}, {self.k}), got {vecs.shape}")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    def squared_norms(self) -> np.ndarray:
        """Squared Euclidean norm of each vector (the frame's norm profile)."""
        return np.einsum("ij,ij->i", self.vectors, self.vectors)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^n given by k orthonormal basis rows."""

    n: int
    k: int
    basis: np.ndarray

    def __post_init__(self):
        if self.k < 1 or self.n < self.k:
            raise FrameStructureError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        basis = _float_array(self.basis, "basis")
        if basis.shape != (self.k, self.n):
            raise FrameStructureError(
                f"basis must have shape ({self.k}, {self.n}), got {basis.shape}")
        dev = basis @ basis.T - np.eye(self.k)
        i, j = np.unravel_index(np.argmax(np.abs(dev)), dev.shape)
        if abs(dev[i, j]) > TAU_ORTH:
            expected = 1.0 if i == j else 0.0
            raise FrameStructureError(
                f"basis rows {i} and {j} are not orthonormal: "
                f"|<b_{i}, b_{j}> - {expected:g}| = {abs(dev[i, j]):.3e} > {TAU_ORTH:g}")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise inner products of a frame; symmetric by construction."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        ent = _float_array(self.entries, "entries")
        if ent.shape != (self.n, self.n):
            raise FrameStructureError(
                f"entries must have shape ({self.n}, {self.n}), got {ent.shape}")
        ent = 0.5 * (ent + ent.T)
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a unit-decomposition check.

    ``deviation`` is the max-norm of sum(v_i v_i^T) - I_k.  Every eigenvalue
    of that sum is within k * deviation of 1, so while TAU_CERT < 1/k a
    family that passes spans R^k; no rank test is made.
    """

    ok: bool
    deviation: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ProjectionMatrixCheck:
    """Outcome of an (approximate) projection-matrix check on a Gram matrix."""

    ok: bool
    idempotency_deviation: float
    trace_deviation: float

    def __bool__(self) -> bool:
        return self.ok


def certify_unit_decomposition(frame: FrameSet) -> CertificationResult:
    """Check sum(v_i v_i^T) = I_k entrywise within TAU_CERT."""
    V = frame.vectors
    dev = V.T @ V - np.eye(frame.k)
    deviation = float(np.max(np.abs(dev)))
    return CertificationResult(ok=deviation <= TAU_CERT, deviation=deviation)


def _certified_vectors(frame: FrameSet, cert: CertificationResult) -> np.ndarray:
    """The frame's vectors, which span R^k, when ``cert``, the frame's
    certification, passed; CertificationError with its deviation otherwise.
    Its callers, ``orthogonal_completion``, ``polytope_from_frame`` and
    ``cross_projection``, certify through their own module's name for
    ``certify_unit_decomposition``, where the benchmark tracer patches it."""
    if not cert.ok:
        raise CertificationError(
            f"frame is not a unit decomposition within {TAU_CERT:g}: "
            f"deviation {cert.deviation:.3e}", cert.deviation)
    return frame.vectors


def project_standard_basis(subspace: Subspace) -> FrameSet:
    """Orthogonal projections of the standard basis of R^n onto the subspace.

    The i-th output vector is the projection of e_i written in the
    subspace's basis coordinates, i.e. column i of the basis matrix.  The
    result is always a unit decomposition of R^k (up to roundoff in the
    supplied basis).
    """
    return FrameSet(n=subspace.n, k=subspace.k, vectors=subspace.basis.T.copy())


def gram_matrix(frame: FrameSet) -> GramMatrix:
    """The n x n matrix of pairwise inner products <v_i, v_j>."""
    V = frame.vectors
    return GramMatrix(n=frame.n, entries=V @ V.T)


def is_projection_matrix(gram: GramMatrix, target_rank: int) -> ProjectionMatrixCheck:
    """Check that a Gram matrix is idempotent with the prescribed trace, both
    within TAU_CERT."""
    if target_rank < 0:
        raise ValueError("target_rank must be nonnegative")
    G = gram.entries
    idem = float(np.max(np.abs(G @ G - G)))
    trace_dev = float(abs(np.trace(G) - target_rank))
    ok = idem <= TAU_CERT and trace_dev <= TAU_CERT
    return ProjectionMatrixCheck(ok=ok, idempotency_deviation=idem,
                                 trace_deviation=trace_dev)


def orthogonal_completion(frame: FrameSet) -> np.ndarray:
    """Extend a certified frame's k x n matrix to an orthogonal matrix of order n.

    Rows k..n-1 are the last n - k columns of a complete QR factorization
    of the n x k matrix V of frame vectors: they are orthonormal and
    orthogonal to the column span of V, which the certification has shown
    to be k orthonormal columns within TAU_CERT.  The top k x n block of the
    result is the frame's matrix, bit for bit.
    """
    V = _certified_vectors(frame, certify_unit_decomposition(frame))
    Q = np.linalg.qr(V, mode="complete")[0]
    return np.vstack([V.T, Q[:, frame.k:].T])
