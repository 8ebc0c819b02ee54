"""Randomized end-to-end verification of the ellipsoid and volume bounds.

Each trial draws a rotation-invariant random subspace (the check of its
orthonormal basis is the frame's only certification), projects the standard
basis onto it, takes both polytope volumes from one hull of its +/- vectors,
then checks the volume ratios against the bounds:

    vol(Lowner of projection) / vol(B^k)   >= (k/n)^{k/2}
    vol(John of section)      / vol(B^k)   <= (n/k)^{k/2}
    vol(cube section)         / vol(Q^k)   <= (n/k)^{k/2}
    vol(cross projection)     / vol(D^k)   >= (k/n)^{k/2}

together with the sandwich between polytope and ellipsoid ratios and, as
report entries but not CSV columns, Vaaler's vol(cube section) >= 2^k,
Blaschke-Santalo's vol(cube section) * vol(cross projection) <= vol(B^k)^2
and, for k <= 3 where it is proved, Mahler's lower bound on that product,
4^k / k!.
Every check is relative to its bound b: an upper bound holds when the value
is at most b + tol |b|, a lower one when it is at least b - tol |b|, and a
ratio is at equality when both hold.  An absolute margin would pass any ratio
at (200, 20), where (k/n)^{k/2} = 1e-10, and fail the John ratio at equality
at (200, 100), where (n/k)^{k/2} = 2^50.
The conjecture scan additionally tracks the two-power bounds 2^{±(n-k)/2},
with the same relative rule; the upper one for cube sections is proved (a
violation indicates a solver or volume bug), the lower one for cross
projections is exploratory and is reported without being asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ellipsoids import (DEFAULT_EPS, ellipsoid_volume, lowner_symmetric,
                         unit_ball_volume)
from .frames import Subspace, project_standard_basis
from . import frames as _frames
from . import majorization as _majorization
from . import polytopes as _polytopes

BOUND_TOL = 1e-6
_SCAN_SLACK = 1e-9  # the scan's relative margin on both two-power bounds
_MASK64 = (1 << 64) - 1

# (report key, CSV short name) of the four volume ratios.  Every report
# holds the two ellipsoid rows, which carry the CSV's bound_kn and bound_nk.
_RATIOS = (
    ("lowner_ratio", "lowner"),
    ("john_ratio", "john"),
    ("cube_section_ratio", "cube"),
    ("cross_projection_ratio", "cross"),
)

CSV_COLUMNS = (
    "n", "k", "trial_id", "seed",
    *(column for column, _ in _RATIOS),
    "bound_kn", "bound_nk",
    *("pass_" + short for _, short in _RATIOS),
    "equality_flags", "profile_uniform",
)


def splitmix64(value: int) -> int:
    """One SplitMix64 scrambling round of a 64-bit integer."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, trial_id: int) -> int:
    """Per-trial seed: SplitMix64 mix of master seed + trial id.

    The mix decorrelates neighbouring trial streams while staying a pure
    function of (master_seed, trial_id), so trials can be evaluated in any
    order or in parallel without changing their draws.
    """
    return splitmix64((master_seed + trial_id) & _MASK64)


def random_subspace(n: int, k: int, seed: int) -> Subspace:
    """Rotation-invariant random subspace via QR of a Gaussian matrix.

    The basis rows are the orthonormalized columns of an n x k standard
    normal sample (signs fixed by the R diagonal); a numerically degenerate
    draw is resampled internally.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    while True:
        gauss = rng.standard_normal((n, k))
        q, r = np.linalg.qr(gauss)
        diag = np.diag(r)
        if np.min(np.abs(diag)) > 1e-12:
            return Subspace(n=n, k=k, basis=(q * np.sign(diag)).T)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial ratios, bounds, pass flags, and equality flags."""

    trial_id: int
    n: int
    k: int
    seed: int
    ratios: dict
    bounds: dict
    passes: dict
    equality: dict
    profile_uniform: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.ratios:
            if key not in self.bounds or key not in self.passes or key not in self.equality:
                raise ValueError(f"ratio {key!r} lacks a matching bound/pass/equality entry")

    @property
    def proved_ok(self) -> bool:
        return all(self.passes.values())


def _holds(value: float, bound: float, is_upper: bool, tol: float) -> bool:
    """value <= bound (upper) or value >= bound (lower), within tol * |bound|."""
    slack = tol * abs(bound)
    return bool(value <= bound + slack if is_upper else value >= bound - slack)


def _profile_uniform(frame) -> bool:
    return bool(np.max(np.abs(frame.squared_norms() - frame.k / frame.n)) <= BOUND_TOL)


def _polytope_ratios(frame) -> tuple[float, float, float]:
    """Normalized (cube section, cross projection) ratios of a frame projected
    from a Subspace, and the product of the two volumes."""
    vol_section, vol_cross = _polytopes._frame_volumes(frame)
    k = frame.k
    return (vol_section / 2.0 ** k,
            vol_cross / (2.0 ** k / math.factorial(k)),
            vol_section * vol_cross)


def _verify(subspace: Subspace, volumes: bool, trial_id: int,
            seed: int) -> ExperimentReport:
    n, k = subspace.n, subspace.k
    frame = project_standard_basis(subspace)
    if volumes:  # before the fit, so an unsupported k fails first
        cube, cross, product = _polytope_ratios(frame)
    fit = lowner_symmetric(frame.vectors, eps=DEFAULT_EPS)
    ball = unit_ball_volume(k)
    lowner = ellipsoid_volume(fit.ellipsoid) / ball
    lower, upper = (k / n) ** (k / 2), (n / k) ** (k / 2)
    # name -> (value, bound, is_upper); the John ellipsoid is the cover's
    # polar, and vol(E) vol(E polar) = vol(B^k)^2
    checks = {"lowner_ratio": (lowner, lower, False),
              "john_ratio": (1.0 / lowner, upper, True)}
    if volumes:
        checks.update(cube_section_ratio=(cube, upper, True),
                      cross_projection_ratio=(cross, lower, False),
                      chain_cube=(cube, 1.0 / lowner, True),
                      chain_cross=(cross, lowner, False),
                      vaaler=(cube, 1.0, False),
                      blaschke_santalo=(product, ball ** 2, True))
        if k <= 3:  # proved for k = 2 (Mahler) and k = 3 (Iriyeh-Shibata)
            checks["mahler"] = (product, 4.0 ** k / math.factorial(k), False)
    rows = {column: checks[column] for column, _ in _RATIOS if column in checks}
    ratios = {column: value for column, (value, _, _) in rows.items()}
    bounds = {column: bound for column, (_, bound, _) in rows.items()}
    passes = {name: _holds(value, bound, is_upper, BOUND_TOL)
              for name, (value, bound, is_upper) in checks.items()}
    equality = {column: (_holds(value, bound, True, BOUND_TOL)
                         and _holds(value, bound, False, BOUND_TOL))
                for column, (value, bound, _) in rows.items()}
    return ExperimentReport(trial_id=trial_id, n=n, k=k, seed=seed,
                            ratios=ratios, bounds=bounds, passes=passes,
                            equality=equality,
                            profile_uniform=_profile_uniform(frame),
                            extras={"volume_product": product} if volumes else {})


def verify_ellipsoid_bounds(subspace: Subspace, trial_id: int = 0,
                            seed: int = 0) -> ExperimentReport:
    """Check the Lowner/John volume-ratio bounds on one subspace."""
    return _verify(subspace, False, trial_id, seed)


def verify_volume_bounds(subspace: Subspace, trial_id: int = 0,
                         seed: int = 0) -> ExperimentReport:
    """Check the polytope volume bounds, the ellipsoid bounds, and the sandwich
    between them on one subspace (k must be within the exact-volume range);
    both polytope volumes come from one hull of the frame's +/- v_i."""
    return _verify(subspace, True, trial_id, seed)


@dataclass(frozen=True)
class ConjectureScanSummary:
    """Extremes of the volume ratios over a batch of random subspaces."""

    n: int
    k: int
    trials: int
    seed: int
    min_cross_ratio: float
    bound_2pow: float        # exploratory lower bound 2^{(k-n)/2} for cross projections
    max_cube_ratio: float
    bound_ball2: float       # proved upper bound 2^{(n-k)/2} for cube sections
    ball2_violations: tuple  # trial ids exceeding the proved bound (solver/volume bug)
    counterexample: Optional[dict]  # first trial below the exploratory bound, if any
    min_cross_trial: int     # trial id and seed of the minimum cross ratio
    min_cross_seed: int
    max_cube_trial: int      # trial id and seed of the maximum cube ratio
    max_cube_seed: int


def conjecture_scan(n: int, k: int, trials: int, seed: int) -> ConjectureScanSummary:
    """Scan random subspaces for the two-power volume bounds.

    The cube-section ratio must stay below 2^{(n-k)/2} (proved; violations
    are collected as evidence of a solver or volume bug).  The running
    minimum of the cross-projection ratio is compared against 2^{(k-n)/2}
    without being asserted; the first trial below that bound, if any, is
    serialized as a counterexample candidate.  The trial id and seed of each
    extreme are kept, so ``random_subspace(n, k, seed)`` re-runs it alone.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    bound_2pow = 2.0 ** ((k - n) / 2)
    bound_ball2 = 2.0 ** ((n - k) / 2)
    min_cross = math.inf
    max_cube = -math.inf
    min_cross_at = max_cube_at = (None, None)
    violations = []
    counterexample = None
    for t in range(trials):
        s = trial_seed(seed, t)
        sub = random_subspace(n, k, s)
        cube_ratio, cross_ratio, _ = _polytope_ratios(project_standard_basis(sub))
        if cube_ratio > max_cube:
            max_cube, max_cube_at = cube_ratio, (t, s)
        if cross_ratio < min_cross:
            min_cross, min_cross_at = cross_ratio, (t, s)
        if not _holds(cube_ratio, bound_ball2, True, _SCAN_SLACK):
            violations.append(t)
        if (not _holds(cross_ratio, bound_2pow, False, _SCAN_SLACK)
                and counterexample is None):
            counterexample = {
                "trial_id": t,
                "seed": s,
                "cross_projection_ratio": cross_ratio,
                "subspace": {"n": n, "k": k, "basis": sub.basis.tolist()},
            }
    return ConjectureScanSummary(n=n, k=k, trials=trials, seed=seed,
                                 min_cross_ratio=min_cross, bound_2pow=bound_2pow,
                                 max_cube_ratio=max_cube, bound_ball2=bound_ball2,
                                 ball2_violations=tuple(violations),
                                 counterexample=counterexample,
                                 min_cross_trial=min_cross_at[0],
                                 min_cross_seed=min_cross_at[1],
                                 max_cube_trial=max_cube_at[0],
                                 max_cube_seed=max_cube_at[1])


@dataclass(frozen=True)
class SuiteSpec:
    """One batch of the verification suite."""

    n: int
    k: int
    trials: int
    seed: int
    experiments: tuple = ("ellipsoid", "volume")

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not self.experiments:
            raise ValueError("experiments must name 'ellipsoid' or 'volume'")
        extra = set(self.experiments) - {"ellipsoid", "volume"}
        if extra:
            raise ValueError(f"unknown experiments: {sorted(extra)}")


def run_suite(config) -> tuple[list[ExperimentReport], str]:
    """Run the verification suite for every spec in ``config``.

    Returns the reports sorted by (n, k, trial_id) together with their CSV
    rendering.  Determinism: the per-trial seed is trial_seed(seed, t), so
    the output is a pure function of the config.
    """
    reports = []
    for spec in config:
        for t in range(spec.trials):
            s = trial_seed(spec.seed, t)
            sub = random_subspace(spec.n, spec.k, s)
            reports.append(_verify(sub, "volume" in spec.experiments, t, s))
    reports.sort(key=lambda r: (r.n, r.k, r.trial_id))
    return reports, render_csv(reports)


def _csv_float(value) -> str:
    return "" if value is None else repr(float(value))


def _csv_flag(value) -> str:
    return "" if value is None else str(bool(value))


def render_csv(reports) -> str:
    """Deterministic CSV rendering with the tolerance ledger in the header."""
    lines = [
        "# tolerance ledger: tau_orth=%g tau_cert=%g tau_maj=%g tau_sh=%g "
        "tau_geo=%g mvee_eps=%g bound_tol=%g" % (
            _frames.TAU_ORTH, _frames.TAU_CERT, _majorization.TAU_MAJ,
            _majorization.TAU_SH, _polytopes.TAU_GEO, DEFAULT_EPS, BOUND_TOL),
        ",".join(CSV_COLUMNS),
    ]
    for r in reports:
        row = [str(r.n), str(r.k), str(r.trial_id), str(r.seed),
               *(_csv_float(r.ratios.get(column)) for column, _ in _RATIOS),
               *(_csv_float(r.bounds.get(column)) for column, _ in _RATIOS[:2]),
               *(_csv_flag(r.passes.get(column)) for column, _ in _RATIOS),
               "|".join(short for column, short in _RATIOS if r.equality.get(column)),
               str(bool(r.profile_uniform))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def suite_exit_status(reports) -> int:
    """0 when every proved-bound pass flag holds, 1 otherwise."""
    return 0 if all(r.proved_ok for r in reports) else 1
