"""Subspaces at which the bounds of README's table are attained, or are
not although the profile is uniform: pair subspaces and equal-angle frames."""

import math
from pathlib import Path

import numpy as np
import pytest

from framegeo.experiments import verify_volume_bounds
from framegeo.frames import Subspace, project_standard_basis
from framegeo.polytopes import cross_projection, polytope_from_frame, volume

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
RATIO_CHECKS = ("lowner_ratio", "john_ratio", "cube_section_ratio", "cross_projection_ratio")
PAIR_SIZES = [(3, 2), (5, 3), (6, 4), (7, 4), (7, 5), (8, 5), (9, 5), (6, 5), (10, 5)]


def pair_subspace(n, k):
    """The pair subspace of R^n for n - k <= k: the diagonals
    (e_2i + e_2i+1) / sqrt(2) of the first p = n - k coordinate pairs and
    the 2k - n coordinates left over.  Its section is a box of p sides
    2 sqrt(2) and 2k - n sides 2, and its cross projection a cross-polytope
    with p semi-axes 1/sqrt(2) and 2k - n of length 1."""
    p = n - k
    if not 0 <= p <= k:
        raise ValueError(f"need k <= n <= 2k, got n={n}, k={k}")
    basis = np.zeros((k, n))
    for i in range(p):
        basis[i, 2 * i] = basis[i, 2 * i + 1] = math.sqrt(0.5)
    for i in range(k - p):
        basis[p + i, 2 * p + i] = 1.0
    return Subspace(n=n, k=k, basis=basis)


def equal_angle_subspace(n):
    """The subspace of R^n whose projected basis is the equal-angle frame
    sqrt(2/n) (cos(j pi/n), sin(j pi/n)), j < n, in R^2."""
    angles = np.pi * np.arange(n) / n
    return Subspace(n=n, k=2, basis=math.sqrt(2.0 / n) * np.array([np.cos(angles),
                                                                   np.sin(angles)]))


@pytest.mark.parametrize("n,k", PAIR_SIZES)
def test_pair_subspace_volumes_are_their_closed_forms(n, k):
    frame = project_standard_basis(pair_subspace(n, k))
    section = 2.0 ** k * 2.0 ** ((n - k) / 2)
    cross = 2.0 ** k / math.factorial(k) * 2.0 ** ((k - n) / 2)
    assert volume(polytope_from_frame(frame)) == pytest.approx(section, rel=1e-13, abs=0.0)
    assert volume(cross_projection(frame)) == pytest.approx(cross, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n,k", PAIR_SIZES)
def test_pair_subspace_attains_ball_and_no_ratio_bound_below_n_equal_2k(n, k):
    r = verify_volume_bounds(pair_subspace(n, k))
    assert r.proved_ok
    assert r.checks["ball2"].at_equality
    uniform = n - k == k
    assert r.profile_uniform is uniform
    for name in RATIO_CHECKS:
        assert r.checks[name].at_equality is uniform, name


def test_readme_equality_paragraph_examples():
    # the paragraph's words, then what they say
    paragraph = " ".join(README.split("## Installation")[0].split())
    for claim in ("`sqrt(2/n) (cos(jπ/n), sin(jπ/n))`", "at n = 4 and n = 6",
                  "cube ratios are 0.828 and 0.804 of the bound",
                  "cross ratios 1.414 and 1.5 of it",
                  "attained off the uniform profile by the pair subspaces"):
        assert claim in paragraph, claim
    for n, cube, cross in ((4, 0.828, 1.414), (6, 0.804, 1.5)):
        r = verify_volume_bounds(equal_angle_subspace(n))
        assert r.profile_uniform and r.proved_ok
        assert r.checks["lowner_ratio"].at_equality and r.checks["john_ratio"].at_equality
        for name, share in (("cube_section_ratio", cube), ("cross_projection_ratio", cross)):
            check = r.checks[name]
            assert not check.at_equality
            assert round(check.value / check.bound, 3) == share, name
    # Ball's bound and the exploratory bound, off the uniform profile
    r = verify_volume_bounds(pair_subspace(5, 3))
    assert not r.profile_uniform and r.checks["ball2"].at_equality
    assert r.ratios["cross_projection_ratio"] == pytest.approx(2.0 ** -1, rel=1e-13)
