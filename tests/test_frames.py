import numpy as np
import pytest

from framegeo.frames import (TAU_CERT, TAU_ORTH, CertificationError, FrameSet,
                             FrameStructureError, GramMatrix, Subspace,
                             _orthonormal_bases, _subspaces,
                             certify_unit_decomposition, gram_matrix,
                             is_projection_matrix, orthogonal_completion,
                             project_standard_basis)
from framegeo.experiments import random_subspace, trial_seed

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_standard_basis_certifies_exactly():
    frame = FrameSet(n=3, k=3, vectors=np.eye(3))
    cert = certify_unit_decomposition(frame)
    assert cert.ok and bool(cert)
    assert cert.deviation == 0.0


def test_diagonal_line_frame():
    frame = FrameSet(n=2, k=1, vectors=[[INV_SQRT2], [INV_SQRT2]])
    cert = certify_unit_decomposition(frame)
    assert cert.ok
    assert cert.deviation <= 1e-15
    gram = gram_matrix(frame)
    assert np.allclose(gram.entries, 0.5 * np.ones((2, 2)), atol=1e-15)
    check = is_projection_matrix(gram, target_rank=1)
    assert check.ok
    assert check.idempotency_deviation <= 1e-15
    assert check.trace_deviation <= 1e-15


def test_scaled_frame_fails_certification():
    frame = FrameSet(n=2, k=2, vectors=0.9 * np.eye(2))
    cert = certify_unit_decomposition(frame)
    assert not cert.ok
    assert cert.deviation == pytest.approx(1 - 0.81, abs=1e-12)


def test_ragged_vectors_rejected():
    with pytest.raises(FrameStructureError):
        FrameSet(n=2, k=2, vectors=[[1.0, 0.0], [1.0]])


def test_nonfinite_vectors_rejected():
    with pytest.raises(FrameStructureError):
        FrameSet(n=2, k=2, vectors=[[np.nan, 0.0], [0.0, 1.0]])


def test_frame_requires_n_at_least_k():
    with pytest.raises(FrameStructureError):
        FrameSet(n=1, k=2, vectors=np.ones((1, 2)))


@pytest.mark.parametrize("make,error", [
    (lambda: FrameSet(n=3, k=2, vectors=np.ones((2, 3))), FrameStructureError),
    (lambda: FrameSet(n=2, k=1, vectors=[1.0, 0.0]), FrameStructureError),
    (lambda: Subspace(n=1, k=2, basis=np.ones((2, 1))), FrameStructureError),
    (lambda: Subspace(n=3, k=2, basis=np.eye(3)), FrameStructureError),
    (lambda: GramMatrix(n=3, entries=np.eye(2)), FrameStructureError),
    (lambda: is_projection_matrix(GramMatrix(n=2, entries=np.eye(2)), target_rank=-1),
     ValueError),
], ids=["frame-shape", "frame-1d", "subspace-n-below-k", "subspace-shape", "gram-shape",
        "negative-rank"])
def test_malformed_input_raises(make, error):
    with pytest.raises(error) as err:
        make()
    assert err.type is error


def test_projection_check_is_true_exactly_when_it_holds():
    gram = gram_matrix(FrameSet(n=2, k=2, vectors=np.eye(2)))
    assert bool(is_projection_matrix(gram, target_rank=2))
    assert not bool(is_projection_matrix(gram, target_rank=1))


def test_vectors_are_immutable():
    frame = FrameSet(n=2, k=2, vectors=np.eye(2))
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 5.0


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(FrameStructureError, match="rows 0 and 1"):
        Subspace(n=3, k=2, basis=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


def test_project_standard_basis_block_subspace():
    basis = np.array([[INV_SQRT2, INV_SQRT2, 0.0, 0.0],
                      [0.0, 0.0, INV_SQRT2, INV_SQRT2]])
    frame = project_standard_basis(Subspace(n=4, k=2, basis=basis))
    expected = np.array([[INV_SQRT2, 0.0], [INV_SQRT2, 0.0],
                         [0.0, INV_SQRT2], [0.0, INV_SQRT2]])
    assert np.array_equal(frame.vectors, expected)
    assert certify_unit_decomposition(frame).deviation <= 10 * TAU_ORTH


@pytest.mark.parametrize("n,k", [(3, 2), (4, 1), (6, 3), (14, 4), (40, 5), (200, 20)])
def test_subspace_check_implies_certification_of_its_frame(n, k):
    # a trial certifies its frame only through the Subspace's basis check:
    # B B^T - I is the product certification forms, so a basis accepted at
    # TAU_ORTH gives a frame certified at TAU_CERT
    assert TAU_ORTH < TAU_CERT
    rounding = 4 * n * np.finfo(float).eps
    rng = np.random.default_rng(n * 100 + k)
    for _ in range(20):
        q = np.linalg.qr(rng.standard_normal((n, k)))[0].T
        step = rng.standard_normal((k, n))

        def deviation(t):
            basis = q + t * step
            return float(np.max(np.abs(basis @ basis.T - np.eye(k))))
        # deviation is linear in t at this scale, up to rounding
        t = 0.999 * TAU_ORTH / deviation(1e-10) * 1e-10
        assert 0.99 * TAU_ORTH <= deviation(t) <= TAU_ORTH
        cert = certify_unit_decomposition(
            project_standard_basis(Subspace(n=n, k=k, basis=q + t * step)))
        assert cert.ok and cert.deviation <= TAU_ORTH + rounding


@pytest.mark.parametrize("n,k,seed", [(4, 2, 0), (6, 3, 1), (8, 5, 2), (9, 1, 3)])
def test_projected_basis_gram_is_projection(n, k, seed):
    frame = project_standard_basis(random_subspace(n, k, seed))
    gram = gram_matrix(frame)
    assert np.array_equal(gram.entries, gram.entries.T)
    check = is_projection_matrix(gram, target_rank=k)
    assert check.ok, (check.idempotency_deviation, check.trace_deviation)
    # trace identity: total squared norm equals the rank
    assert abs(frame.squared_norms().sum() - k) <= n * TAU_CERT


@pytest.mark.parametrize("n,k,seed", [(5, 2, 10), (7, 4, 11)])
def test_column_sum_identities(n, k, seed):
    # certified frames have unit diagonal and zero off-diagonal coordinate sums
    frame = project_standard_basis(random_subspace(n, k, seed))
    V = frame.vectors
    sums = V.T @ V
    assert np.max(np.abs(sums - np.eye(k))) <= TAU_CERT


def test_gram_matrix_symmetric_by_construction():
    gram = GramMatrix(n=2, entries=np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(gram.entries, gram.entries.T)


def test_is_projection_matrix_rejects_wrong_rank():
    frame = FrameSet(n=2, k=2, vectors=np.eye(2))
    gram = gram_matrix(frame)
    assert not is_projection_matrix(gram, target_rank=1).ok


def test_orthogonal_completion_diagonal_line():
    frame = FrameSet(n=2, k=1, vectors=[[INV_SQRT2], [INV_SQRT2]])
    M = orthogonal_completion(frame)
    assert np.array_equal(M[0], frame.vectors.T[0])
    assert abs(abs(M[1] @ np.array([1.0, -1.0])) - np.sqrt(2)) <= 1e-12
    assert np.max(np.abs(M @ M.T - np.eye(2))) <= 10 * TAU_CERT


@pytest.mark.parametrize("n,k,seed", [(4, 2, 20), (6, 3, 21), (9, 4, 22), (7, 7, 23)])
def test_orthogonal_completion_random(n, k, seed):
    frame = project_standard_basis(random_subspace(n, k, seed))
    M = orthogonal_completion(frame)
    assert M.shape == (n, n)
    assert np.array_equal(M[:k], frame.vectors.T)
    assert np.max(np.abs(M @ M.T - np.eye(n))) <= 10 * TAU_CERT
    assert abs(abs(np.linalg.det(M)) - 1.0) <= 1e-9


@pytest.mark.parametrize("n,k", [(4, 1), (6, 3), (9, 4), (7, 7), (40, 5), (200, 20)])
def test_orthogonal_completion_of_inexact_frames(n, k):
    # noise of this size leaves sum(v_i v_i^T) - I_k near the certification
    # tolerance, so the completion must not need exactly orthonormal columns
    rng = np.random.default_rng(n * 100 + k)
    certified = 0
    for seed in range(8):
        V = project_standard_basis(random_subspace(n, k, seed)).vectors
        frame = FrameSet(n=n, k=k, vectors=V + rng.standard_normal((n, k)) * 3e-10 / np.sqrt(n))
        if not certify_unit_decomposition(frame).ok:
            continue
        certified += 1
        M = orthogonal_completion(frame)
        assert np.array_equal(M[:k], frame.vectors.T)
        assert np.max(np.abs(M @ M.T - np.eye(n))) <= 10 * TAU_CERT
    assert certified > 0


def test_orthogonal_completion_requires_certification():
    frame = FrameSet(n=3, k=3, vectors=0.5 * np.eye(3))
    with pytest.raises(CertificationError) as err:
        orthogonal_completion(frame)
    assert err.value.deviation == pytest.approx(0.75, abs=1e-12)


def haar_bases(n, k, count):
    return np.array([random_subspace(n, k, trial_seed(34, t)).basis for t in range(count)])


def tilted(basis):
    """The basis with row 1 turned 1e-6 toward row 2: rows 1 and 2 fail."""
    out = basis.copy()
    out[1] += 1e-6 * basis[2]
    return out


def with_nan(basis):
    out = basis.copy()
    out[0, 3] = np.nan
    return out


def alone_message(basis):
    k, n = basis.shape
    with pytest.raises(FrameStructureError) as err:
        Subspace(n=n, k=k, basis=basis)
    return str(err.value)


@pytest.mark.parametrize("plants,first,prefix", [
    ({2: tilted}, 2, "basis rows 1 and 2 are not orthonormal"),
    ({2: with_nan}, 2, "basis contains non-finite entries"),
    ({2: tilted, 4: with_nan}, 2, "basis rows 1 and 2 are not orthonormal"),
    ({1: with_nan, 3: tilted}, 1, "basis contains non-finite entries"),
    ({3: lambda b: with_nan(tilted(b))}, 3, "basis contains non-finite entries"),
], ids=["tilted", "nan", "tilted-then-nan", "nan-then-tilted", "both-in-one"])
def test_stacked_basis_check_raises_what_the_first_failing_basis_raises_alone(
        plants, first, prefix):
    n, k = 7, 3
    bases = haar_bases(n, k, 6)
    for at, plant in plants.items():
        bases[at] = plant(bases[at])
    message = alone_message(bases[first])
    assert message.startswith(prefix)
    for check in (_orthonormal_bases, lambda stack: _subspaces(n, k, stack)):
        with pytest.raises(FrameStructureError) as err:
            check(bases.copy())
        assert str(err.value) == message


def test_stacked_basis_check_makes_read_only_subspaces_of_a_block():
    n, k = 9, 4
    bases = haar_bases(n, k, 5)
    subspaces = _subspaces(n, k, np.asfortranarray(bases))
    for basis, subspace in zip(bases, subspaces):
        alone = Subspace(n=n, k=k, basis=basis)
        assert (subspace.n, subspace.k) == (n, k)
        assert subspace.basis.tobytes() == alone.basis.tobytes()
        assert subspace.basis.flags.c_contiguous and not subspace.basis.flags.writeable
        with pytest.raises(ValueError):
            subspace.basis[0, 0] = 2.0


def test_projection_copies_the_basis_once_into_a_read_only_frame():
    subspace = random_subspace(8, 3, trial_seed(34, 0))
    frame = project_standard_basis(subspace)
    want = FrameSet(n=8, k=3, vectors=subspace.basis.T)
    assert (frame.n, frame.k) == (8, 3)
    assert frame.vectors.tobytes() == want.vectors.tobytes()
    assert frame.vectors.flags.c_contiguous and not frame.vectors.flags.writeable
    assert not np.shares_memory(frame.vectors, subspace.basis)
