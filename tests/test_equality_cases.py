"""Subspaces at which the bounds of README's table are attained, or are
not although the profile is uniform: pair subspaces and equal-angle frames,
and block and pair subspaces rotated off them by small angles."""

import math
from pathlib import Path

import numpy as np
import pytest

from framegeo.experiments import BOUND_TOL, render_csv, verify_volume_bounds
from framegeo.frames import Subspace, project_standard_basis
from framegeo.polytopes import (cross_projection, equality_subspace, polytope_from_frame,
                                volume)

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


def rotated(subspace, d):
    """The subspace turned by an angle of at most d toward a direction
    seeded by its size: its basis B plus d X, for X a normal draw projected
    off B's rows and scaled to unit Frobenius norm, with its rows made
    orthonormal again by the polar factor (B + d X) (I + d^2 X X^T)^-1/2."""
    B = subspace.basis
    G = np.random.default_rng([subspace.n, subspace.k]).standard_normal(B.shape)
    X = G - (G @ B.T) @ B
    A = B + d * X / np.linalg.norm(X)
    w, U = np.linalg.eigh(A @ A.T)
    return Subspace(n=subspace.n, k=subspace.k, basis=(U / np.sqrt(w)) @ U.T @ A)


def margin(check):
    """How far a check's value lies inside its bound, relative to the bound."""
    slack = (check.value - check.bound) / abs(check.bound)
    return -slack if check.is_upper else slack


RUNGS = [10.0 ** -e for e in range(2, 13, 2)]
LADDERS = {"block": (equality_subspace, [(4, 2), (6, 3), (8, 4), (10, 5)]),
           "pair": (pair_subspace, [(5, 3), (7, 4)])}
# Near a block subspace the frame's vectors come in pairs a distance ~d
# apart, and the section volume summed over the pulling triangulation of
# their hull loses accuracy as d falls: at (10, 5) it passes the cube
# bound, whose margin is about 1.4 d, by 7.6e-8 relative at d = 1e-10 and
# 1.2e-4 at d = 1e-12, where a hull of the same polar vertices is within
# 1.4e-12 of the closed form's side.  Over 40 other seeded directions at
# d = 1e-12 it passed the bound on 16 at (8, 4) and 39 at (10, 5).
SECTION_ROUNDOFF = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="near-duplicate frame vectors put the section volume's error past d")


def ladder_cases():
    for family, (build, sizes) in LADDERS.items():
        for n, k in sizes:
            for d in RUNGS:
                marks = SECTION_ROUNDOFF if (family, n, k) == ("block", 10, 5) and d <= 1e-10 else ()
                yield pytest.param(build, n, k, d, marks=marks, id=f"{family}-{n}-{k}-{d:.0e}")


@pytest.mark.parametrize("build,n,k,d", ladder_cases())
def test_every_check_holds_near_an_equality_case_with_a_margin_of_order_d(build, n, k, d):
    # a ratio at its constant bound at d = 0 moves off it by about c d, with
    # c read at d = 1e-4, where rounding and the d^2 terms are both far
    # below it (c is 0.5 to 1.9 here); the chain and Mahler checks compare
    # two ratios that move together, or rounding decides them exactly at
    # equality, so they are only required to hold
    at_equality = [*RATIO_CHECKS, "ball2"] if build is equality_subspace else ["ball2"]
    exact = verify_volume_bounds(build(n, k)).checks
    assert all(exact[name].at_equality for name in at_equality)
    reference = verify_volume_bounds(rotated(build(n, k), 1e-4)).checks
    report = verify_volume_bounds(rotated(build(n, k), d))
    assert report.proved_ok
    for name in at_equality:
        c = margin(reference[name]) / 1e-4
        assert 0.5 * c * d < margin(report.checks[name]) < 2.0 * c * d, name


@pytest.mark.parametrize("n,k", LADDERS["block"][1])
def test_bound_tol_flags_a_block_subspace_turned_by_1e_8_as_at_equality(n, k):
    # Known limitation: the CSV judges equality within BOUND_TOL, so a block
    # subspace turned by 1e-8, no equality case (its profile is off k/n), is
    # flagged at equality on all four ratio checks, and its profile uniform
    report = verify_volume_bounds(rotated(equality_subspace(n, k), 1e-8))
    for name in RATIO_CHECKS:
        assert 0.0 < margin(report.checks[name]) < 1e-7 < BOUND_TOL, name
    frame = project_standard_basis(rotated(equality_subspace(n, k), 1e-8)).vectors
    assert 0.0 < np.abs(np.einsum("ij,ij->i", frame, frame) - k / n).max() < BOUND_TOL
    row = render_csv([report]).splitlines()[-1].split(",")
    assert row[-2:] == ["lowner|john|cube|cross", "True"]
