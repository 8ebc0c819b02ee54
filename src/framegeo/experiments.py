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
Every check is a ``Check(value, bound, is_upper)`` relative to its bound b:
an upper bound holds when the value is at most b + tol |b|, a lower one when
it is at least b - tol |b|, and it is at equality when both hold.  An
absolute margin would pass any ratio at (200, 20), where (k/n)^{k/2} = 1e-10,
and fail the John ratio at equality at (200, 100), where (n/k)^{k/2} = 2^50.
The Lowner and John ratios are ``ellipsoid_volume_ratio``s, formed without
vol(B^k), so they hold at any k the fit reaches.
The conjecture scan additionally tracks the two-power bounds 2^{±(n-k)/2},
with the same relative rule; the upper one for cube sections is proved (a
violation indicates a solver or volume bug), the lower one for cross
projections is exploratory and is reported without being asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .ellipsoids import (DEFAULT_EPS, ellipsoid_volume_ratio, lowner_symmetric,
                         unit_ball_volume)
from .frames import Subspace, project_standard_basis
from . import frames as _frames
from . import jsonio
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
    normal sample, each column's sign flipped where R's diagonal is
    negative, which makes the draw Haar distributed.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))
    return Subspace(n=n, k=k, basis=(q * np.where(np.diag(r) < 0.0, -1.0, 1.0)).T)


class Check(NamedTuple):
    """value <= bound (is_upper) or value >= bound, within tol * |bound|."""

    value: float
    bound: float
    is_upper: bool

    def holds(self, tol: float = BOUND_TOL) -> bool:
        slack = tol * abs(self.bound)
        return bool(self.value <= self.bound + slack if self.is_upper
                    else self.value >= self.bound - slack)

    @property
    def at_equality(self) -> bool:
        slack = BOUND_TOL * abs(self.bound)
        return bool(self.bound - slack <= self.value <= self.bound + slack)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial checks, name -> ``Check`` in ``_verify``'s order, from which
    ``passes`` and ``proved_ok`` derive.  ``ratios`` and ``extras`` stay fields:
    ``bench/`` reads them and calls ``dataclasses.replace(report, ratios=...)``."""

    trial_id: int
    n: int
    k: int
    seed: int
    ratios: dict
    checks: dict
    profile_uniform: bool
    extras: dict = field(default_factory=dict)

    @property
    def passes(self) -> dict:
        return {name: check.holds() for name, check in self.checks.items()}

    @property
    def proved_ok(self) -> bool:
        return all(check.holds() for check in self.checks.values())


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
    lowner = ellipsoid_volume_ratio(fit.ellipsoid)
    lower, upper = (k / n) ** (k / 2), (n / k) ** (k / 2)
    # the John ellipsoid is the cover's polar, and vol(E) vol(E polar) = vol(B^k)^2
    checks = {"lowner_ratio": Check(lowner, lower, False),
              "john_ratio": Check(1.0 / lowner, upper, True)}
    if volumes:
        checks.update(cube_section_ratio=Check(cube, upper, True),
                      cross_projection_ratio=Check(cross, lower, False),
                      chain_cube=Check(cube, 1.0 / lowner, True),
                      chain_cross=Check(cross, lowner, False),
                      vaaler=Check(cube, 1.0, False),
                      blaschke_santalo=Check(product, unit_ball_volume(k) ** 2, True))
        if k <= 3:  # proved for k = 2 (Mahler) and k = 3 (Iriyeh-Shibata)
            checks["mahler"] = Check(product, 4.0 ** k / math.factorial(k), False)
    ratios = {column: checks[column].value for column, _ in _RATIOS if column in checks}
    return ExperimentReport(trial_id=trial_id, n=n, k=k, seed=seed,
                            ratios=ratios, checks=checks,
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
    are collected as evidence of a solver or volume bug).  The cross-projection
    ratio is compared against 2^{(k-n)/2} without being asserted; the first
    trial below that bound, if any, is serialized as a counterexample
    candidate, its subspace re-drawn from its seed.  The summary is read off
    the trials' two ratio arrays; the trial id and seed of the first trial at
    each extreme are kept, so ``random_subspace(n, k, seed)`` re-runs it alone.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    bound_2pow = 2.0 ** ((k - n) / 2)
    bound_ball2 = 2.0 ** ((n - k) / 2)
    seeds = [trial_seed(seed, t) for t in range(trials)]
    cube, cross = np.array([
        _polytope_ratios(project_standard_basis(random_subspace(n, k, s)))[:2]
        for s in seeds]).T
    below = next((t for t, ratio in enumerate(cross)
                  if not Check(ratio, bound_2pow, False).holds(_SCAN_SLACK)), None)
    counterexample = None if below is None else {
        "trial_id": below,
        "seed": seeds[below],
        "cross_projection_ratio": float(cross[below]),
        "subspace": jsonio.subspace_to_dict(random_subspace(n, k, seeds[below])),
    }
    top, bottom = int(np.argmax(cube)), int(np.argmin(cross))  # first trial at each
    return ConjectureScanSummary(
        n=n, k=k, trials=trials, seed=seed,
        min_cross_ratio=float(cross[bottom]), bound_2pow=bound_2pow,
        max_cube_ratio=float(cube[top]), bound_ball2=bound_ball2,
        ball2_violations=tuple(t for t, ratio in enumerate(cube)
                               if not Check(ratio, bound_ball2, True).holds(_SCAN_SLACK)),
        counterexample=counterexample,
        min_cross_trial=bottom, min_cross_seed=seeds[bottom],
        max_cube_trial=top, max_cube_seed=seeds[top])


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
        checks = [r.checks.get(column) for column, _ in _RATIOS]
        row = [str(r.n), str(r.k), str(r.trial_id), str(r.seed),
               *(_csv_float(r.ratios.get(column)) for column, _ in _RATIOS),
               *(_csv_float(check.bound) for check in checks[:2]),
               *("" if check is None else str(check.holds()) for check in checks),
               "|".join(short for (_, short), check in zip(_RATIOS, checks)
                        if check is not None and check.at_equality),
               str(bool(r.profile_uniform))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
