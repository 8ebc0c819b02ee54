import numpy as np
import pytest

import framegeo.majorization as majorization
from framegeo.frames import FrameStructureError
from framegeo.majorization import (TAU_MAJ, TAU_SH, NormProfile, NotRealizableError,
                                   construct_realization, is_realizable,
                                   majorizes, random_realizable_profile)
from framegeo.frames import certify_unit_decomposition, gram_matrix
from framegeo.experiments import random_subspace, trial_seed
from framegeo.frames import project_standard_basis


def test_indicator_majorizes_uniform():
    assert majorizes([1, 1, 0, 0], [0.5, 0.5, 0.5, 0.5])
    assert not majorizes([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0])


def test_majorizes_is_reflexive_and_permutation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.random(6)
        assert majorizes(a, a)
        assert majorizes(a, rng.permutation(a))


def test_majorizes_transitive_on_averaging_chains():
    # averaging a vector with a permutation of itself moves it down the order
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.random(7)
        b = 0.5 * (a + rng.permutation(a))
        c = 0.5 * (b + rng.permutation(b))
        assert majorizes(a, b) and majorizes(b, c) and majorizes(a, c)


def test_majorizes_requires_matching_totals():
    assert not majorizes([1.0, 0.0], [0.5, 0.4])


def test_majorizes_shape_errors():
    with pytest.raises(FrameStructureError):
        majorizes([1.0, 0.0], [1.0])


def test_majorizes_rejects_non_finite_input():
    with pytest.raises(FrameStructureError):
        majorizes([np.inf, 0.0], [np.inf, 0.0])
    with pytest.raises(FrameStructureError):
        majorizes([np.nan, 0.0], [0.5, 0.5])


def test_majorizes_empty_vectors():
    assert majorizes([], [])


def test_is_realizable_basics():
    assert is_realizable(NormProfile(k=2, entries=np.full(4, 0.5)))
    assert is_realizable(NormProfile(k=3, entries=np.ones(3)))
    assert not is_realizable(NormProfile(k=1, entries=np.array([1.5, 0.0])))
    assert not is_realizable(NormProfile(k=2, entries=np.array([0.5, 0.5, 0.5])))


def test_is_realizable_checks_k():
    with pytest.raises(FrameStructureError):
        is_realizable(NormProfile(k=3, entries=np.array([1.0, 1.0])))


def test_profile_entries_must_be_nonnegative():
    with pytest.raises(FrameStructureError):
        NormProfile(k=1, entries=np.array([0.5, -0.1]))


@pytest.mark.parametrize("make", [
    lambda: NormProfile(k=0, entries=np.array([1.0])),
    lambda: NormProfile(k=1, entries=np.array([])),
    lambda: NormProfile(k=1, entries=np.full((2, 2), 0.5)),
    lambda: random_realizable_profile(3, 0, seed=1),
    lambda: random_realizable_profile(3, 4, seed=1),
], ids=["profile-k0", "profile-empty", "profile-2d", "random-k0", "random-k-above-n"])
def test_malformed_input_raises_frame_structure_error(make):
    with pytest.raises(FrameStructureError):
        make()


def test_construct_all_ones_is_standard_basis():
    frame = construct_realization(NormProfile(k=3, entries=np.ones(3)))
    assert np.array_equal(frame.vectors, np.eye(3))


def test_construct_indicator_profile_pads_with_zeros():
    frame = construct_realization(NormProfile(k=2, entries=np.array([0.0, 1.0, 1.0, 0.0])))
    assert np.array_equal(frame.vectors[0], np.zeros(2))
    assert np.array_equal(frame.vectors[3], np.zeros(2))
    assert np.array_equal(sorted(map(tuple, frame.vectors[1:3])), [(0, 1), (1, 0)])


def test_construct_uniform_profile():
    frame = construct_realization(NormProfile(k=2, entries=np.full(4, 0.5)))
    assert np.max(np.abs(frame.squared_norms() - 0.5)) <= TAU_SH
    assert certify_unit_decomposition(frame).deviation <= TAU_SH


def test_construct_matches_profile_order():
    entries = np.array([0.3, 0.9, 0.15, 0.65])
    frame = construct_realization(NormProfile(k=2, entries=entries))
    assert np.max(np.abs(frame.squared_norms() - entries)) <= TAU_SH
    diag = np.diag(gram_matrix(frame).entries)
    assert np.max(np.abs(diag - entries)) <= TAU_SH


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3), (9, 5), (10, 7), (8, 8)])
def test_construct_random_profiles(n, k):
    for trial in range(20):
        profile = random_realizable_profile(n, k, seed=trial_seed(77, trial * 13 + n + k))
        frame = construct_realization(profile)
        assert certify_unit_decomposition(frame).deviation <= TAU_SH
        assert np.max(np.abs(frame.squared_norms() - profile.entries)) <= TAU_SH


def test_realization_rotates_straddling_orthogonal_pairs_at_most_n_minus_1_times(monkeypatch):
    # the unassigned rows are always unit rows, at most one partial row and
    # zero rows, so every rotated pair is orthogonal, bit for bit
    rotations = []
    rotate = majorization._rotate_rows

    def spy(B, i, j, norms, target):
        rotations.append((float(B[i] @ B[j]), norms[i], norms[j], target))
        rotate(B, i, j, norms, target)

    monkeypatch.setattr(majorization, "_rotate_rows", spy)
    sizes = [(3, 1), (4, 2), (6, 3), (9, 5), (10, 7), (12, 3), (20, 10), (40, 13)]
    realized = spent = 0
    for t, (n, k) in enumerate(sizes * 5):
        entries = random_realizable_profile(n, k, seed=trial_seed(43, t)).entries
        for kind in (entries, np.round(4.0 * entries) / 4.0, np.full(n, k / n)):
            profile = NormProfile(k=k, entries=kind)
            if not is_realizable(profile):
                continue
            rotations.clear()
            construct_realization(profile)
            realized += 1
            spent += len(rotations)
            assert len(rotations) <= n - 1
            for inner, above, below, target in rotations:
                assert inner == 0.0
                assert below < target < above
    assert realized >= 90 and spent >= 500


def test_realization_at_a_large_size():
    profile = random_realizable_profile(3000, 1000, seed=trial_seed(8, 0))
    frame = construct_realization(profile)
    assert np.max(np.abs(frame.squared_norms() - profile.entries)) <= TAU_SH
    assert certify_unit_decomposition(frame).ok


def test_construction_checks_its_output_against_tau_sh(monkeypatch):
    profile = NormProfile(k=2, entries=np.array([0.3, 0.9, 0.15, 0.65]))
    # no realization misses its profile by less than a negative tolerance
    monkeypatch.setattr(majorization, "TAU_SH", -1.0)
    with pytest.raises(ArithmeticError):
        construct_realization(profile)


def test_not_realizable_reports_first_prefix():
    with pytest.raises(NotRealizableError) as err:
        construct_realization(NormProfile(k=2, entries=np.array([1.5, 0.5])))
    assert err.value.prefix == 1
    with pytest.raises(NotRealizableError) as err:
        construct_realization(NormProfile(k=1, entries=np.array([0.4, 0.4])))
    assert err.value.prefix == 0


def _first_violated_prefix(entries, k, tol=TAU_MAJ):
    """Realizability by plain Python sums: the first prefix length whose sum
    of the largest entries exceeds min(m, k) by more than tol, 0 for a total
    off k by more than tol, -1 when none is violated."""
    total = 0.0
    for m, c in enumerate(sorted(map(float, entries), reverse=True), 1):
        total += c
        if total > min(m, k) + tol:
            return m
    return 0 if abs(total - k) > tol else -1


def test_realizability_is_majorization_by_the_indicator():
    sizes = [(1, 1), (3, 1), (4, 2), (5, 2), (6, 3), (8, 4), (9, 5), (7, 7), (12, 3)]
    rejected = 0
    for t in range(500):
        n, k = sizes[t % len(sizes)]
        entries = random_realizable_profile(n, k, seed=trial_seed(31, t)).entries.copy()
        kind = (t // len(sizes)) % 4
        if kind == 1:
            entries[t % n] = 1.0 + 2 * TAU_MAJ
        elif kind == 2:
            entries *= (k + 2 * TAU_MAJ) / entries.sum()
        elif kind == 3:
            entries *= (k - 2 * TAU_MAJ) / entries.sum()
        profile = NormProfile(k=k, entries=entries)
        indicator = [1.0] * k + [0.0] * (n - k)
        expected = _first_violated_prefix(entries, k)
        assert is_realizable(profile) == majorizes(indicator, entries) == (expected < 0)
        if expected >= 0:
            rejected += 1
            with pytest.raises(NotRealizableError) as err:
                construct_realization(profile)
            assert err.value.prefix == expected
    assert 300 <= rejected < 500


def test_realization_profile_round_trip():
    profile = random_realizable_profile(7, 3, seed=123)
    frame = construct_realization(profile)
    observed = NormProfile(k=3, entries=frame.squared_norms())
    assert is_realizable(observed)


def test_projected_basis_profiles_are_realizable():
    for trial in range(25):
        n, k = [(4, 2), (6, 3), (9, 4), (10, 6), (5, 1)][trial % 5]
        frame = project_standard_basis(random_subspace(n, k, seed=trial))
        assert is_realizable(NormProfile(k=k, entries=frame.squared_norms()))


def test_random_profile_deterministic_and_normalized():
    a = random_realizable_profile(6, 3, seed=42)
    b = random_realizable_profile(6, 3, seed=42)
    assert np.array_equal(a.entries, b.entries)
    assert abs(a.entries.sum() - 3.0) <= 1e-12
    assert a.entries.max() <= 1.0 + 1e-9
    assert is_realizable(a)


@pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (4, 4), (8, 4), (9, 4), (9, 8),
                                 (20, 19), (200, 100), (200, 190), (1000, 10),
                                 (1000, 999)])
def test_random_profile_is_one_scaling_of_its_draw_capped_at_one(n, k):
    # the law, from the draw alone: c_i = min(1, lam x_i) for one lam, sum k
    for t in range(20):
        seed = trial_seed(5, t)
        x = np.random.default_rng(seed).exponential(size=n)
        c = random_realizable_profile(n, k, seed).entries
        assert np.all(c >= 0.0) and np.all(c <= 1.0)
        assert abs(c.sum() - k) <= 1e-12 * k
        free = c < 1.0
        if not free.any():
            continue
        lam = c[free] / x[free]
        assert lam.max() - lam.min() <= 1e-12 * lam.max()
        assert np.all(lam.max() * x[~free] >= 1.0 - 1e-12)


def test_random_profile_square_case_is_all_ones():
    profile = random_realizable_profile(4, 4, seed=3)
    assert np.max(np.abs(profile.entries - 1.0)) <= 1e-9
