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
Ball's vol(cube section) / vol(Q^k) <= 2^{(n-k)/2} (tighter than (n/k)^{k/2}
for n < 2k), Blaschke-Santalo's
vol(cube section) * vol(cross projection) <= vol(B^k)^2 and, for k <= 3 where it is proved, Mahler's lower bound on that product,
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

A request runs its trials in blocks, stage by stage, since each stage of a
small trial costs mostly its calls' overhead: one stacked QR draws the
block's subspaces and one stacked check takes their bases, every frame is
projected (one copy of its basis) and hulled, the sections' flags grow for
a group of hulls at a time, the block's Lowner fits advance round by round
together (``lowner_block``), one stacked log-determinant gives their ratios
and one stacked einsum the norm profiles, and then each trial's checks are
assembled against the block's bounds, formed once.  At k = 2 and 3, where
a frame has at most 192 candidate vertices C(n, k) 2^(k-1), the block's
hulls come from one stacked pass over its frames' k-subsets, and a frame
the pass cannot take (a near-tight row, a near-singular subset, unpaired
ridges) goes to qhull; elsewhere each frame takes one qhull call, as every
body's hull does, so ``volume`` may differ from a trial's in the last bits.
The choice rests on (n, k) alone.  A block gives each trial the bits it
has alone, and the public one-trial functions are the same path with a
block of one; where the block's fit fails, its trials are fitted again one
at a time in order, so the first failing trial raises what it raises alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .ellipsoids import (DEFAULT_EPS, ConvergenceError, SpanError,
                         ellipsoid_volume_ratios, lowner_block, lowner_symmetric,
                         unit_ball_volume)
from .frames import Subspace, project_standard_basis
from . import frames as _frames
from . import jsonio
from . import majorization as _majorization
from . import polytopes as _polytopes

BOUND_TOL = 1e-6
_SCAN_SLACK = 1e-9  # the scan's relative margin on both two-power bounds
_MASK64 = (1 << 64) - 1
_BLOCK_TRIALS = 32       # trials run stage by stage at a time
_BLOCK_ENTRIES = 2 ** 16  # entries of a block's stacked samples (512 KiB)

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


def _draw(n: int, k: int, seeds) -> list[Subspace]:
    """``random_subspace(n, k, seed)`` for each of the seeds, from one stacked
    QR of their samples; each seed keeps its own generator, which writes its
    n x k sample into its slice of one (seeds, n, k) stack, the stream and
    layout it draws alone, and the block's bases take one stacked check
    (``frames._subspaces``)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    samples = np.empty((len(seeds), n, k))
    for sample, seed in zip(samples, seeds):
        np.random.default_rng(seed).standard_normal(out=sample)
    q, r = np.linalg.qr(samples)
    signs = np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    return _frames._subspaces(n, k, (q * signs[:, None, :]).transpose(0, 2, 1))


def random_subspace(n: int, k: int, seed: int) -> Subspace:
    """Rotation-invariant random subspace via QR of a Gaussian matrix.

    The basis rows are the orthonormalized columns of an n x k standard
    normal sample, each column's sign flipped where R's diagonal is
    negative, which makes the draw Haar distributed.
    """
    return _draw(n, k, [seed])[0]


def _blocks(n: int, k: int, trials: int):
    """The trial ids of a request, in blocks of up to _BLOCK_TRIALS trials
    and _BLOCK_ENTRIES entries of their n x k samples."""
    size = max(1, min(_BLOCK_TRIALS, _BLOCK_ENTRIES // (n * k)))
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


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


def _verdict(check: Check) -> tuple[bool, bool]:
    """``check.holds()`` and ``check.at_equality`` from one slack: a CSV
    row's pass cell and equality flag for the check."""
    slack = BOUND_TOL * abs(check.bound)
    above = check.value >= check.bound - slack
    below = check.value <= check.bound + slack
    return bool(below if check.is_upper else above), bool(above and below)


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


def _polytope_ratios(frames) -> list[tuple[float, float, float]]:
    """Normalized (cube section, cross projection) ratios of each of a block
    of frames projected from Subspaces, and the product of the two volumes."""
    k = frames[0].k
    return [(section / 2.0 ** k, cross / (2.0 ** k / math.factorial(k)), section * cross)
            for section, cross in _polytopes._frame_volumes(frames)]


def _fits(frames):
    """The Lowner fit of each of a block of frames, advanced together.  Where
    the block raises, the frames are fitted one at a time in order, so the
    first failing trial raises what it raises alone."""
    vectors = [frame.vectors for frame in frames]
    try:
        return lowner_block(vectors, eps=DEFAULT_EPS)
    except (SpanError, ConvergenceError):
        return [lowner_symmetric(points, eps=DEFAULT_EPS) for points in vectors]


def _ball2_bound(n: int, k: int) -> float:
    """Ball's bound 2^{(n-k)/2} on vol(cube section) / vol(Q^k); from n - k
    = 2 max_exp on it passes every float, where it is inf."""
    return 2.0 ** ((n - k) / 2) if n - k < 2 * sys.float_info.max_exp else math.inf


class _Bounds(NamedTuple):
    """The bounds of a report at (n, k): (k/n)^{k/2} and (n/k)^{k/2}, and,
    for reports with volumes, Ball's bound, vol(B^k)^2 and, for k <= 3,
    Mahler's 4^k / k!; the others are None."""

    lower: float
    upper: float
    ball2: Optional[float] = None
    ball_squared: Optional[float] = None
    mahler: Optional[float] = None


def _bounds(n: int, k: int, volumes: bool) -> _Bounds:
    """The ``_Bounds`` of the reports of a block at (n, k), formed once."""
    lower, upper = (k / n) ** (k / 2), (n / k) ** (k / 2)
    if not volumes:
        return _Bounds(lower, upper)
    # proved for k = 2 (Mahler) and k = 3 (Iriyeh-Shibata); from k = 171 k!
    # passes every float, and 4.0 ** k / k! cannot convert it
    mahler = 4.0 ** k / math.factorial(k) if k <= 3 else None
    return _Bounds(lower, upper, _ball2_bound(n, k), unit_ball_volume(k) ** 2, mahler)


def _report(n: int, k: int, lowner: float, profile_uniform: bool, polytope,
            trial_id: int, seed: int, bounds: Optional[_Bounds] = None) -> ExperimentReport:
    """One trial's checks from its Lowner ratio, with its (cube, cross,
    product) of ``_polytope_ratios``, or None for the ellipsoid bounds alone.
    ``bounds`` are the ``_bounds`` its block forms once for all its trials;
    where they are not given, as for a trial alone, they are formed here."""
    if bounds is None:
        bounds = _bounds(n, k, polytope is not None)
    lower, upper, ball2, ball_squared, mahler = bounds
    # the John ellipsoid is the cover's polar, and vol(E) vol(E polar) = vol(B^k)^2
    john = 1.0 / lowner
    checks = {"lowner_ratio": Check(lowner, lower, False),
              "john_ratio": Check(john, upper, True)}
    ratios = {"lowner_ratio": lowner, "john_ratio": john}
    if polytope is not None:
        cube, cross, product = polytope
        checks.update(cube_section_ratio=Check(cube, upper, True),
                      cross_projection_ratio=Check(cross, lower, False),
                      chain_cube=Check(cube, john, True),
                      chain_cross=Check(cross, lowner, False),
                      vaaler=Check(cube, 1.0, False),
                      ball2=Check(cube, ball2, True),
                      blaschke_santalo=Check(product, ball_squared, True))
        if mahler is not None:
            checks["mahler"] = Check(product, mahler, False)
        ratios.update(cube_section_ratio=cube, cross_projection_ratio=cross)
    return ExperimentReport(trial_id=trial_id, n=n, k=k, seed=seed,
                            ratios=ratios, checks=checks,
                            profile_uniform=profile_uniform,
                            extras={} if polytope is None else {"volume_product": product})


def _verify(subspaces, volumes: bool, trial_ids, seeds) -> list[ExperimentReport]:
    """A block of trials, stage by stage: every subspace is projected, then
    every frame's volumes are taken (before any fit, so an unsupported k
    fails first), then the block is fitted, its Lowner ratios read off one
    stacked log-determinant and its norm profiles off one stacked einsum,
    and each trial's checks are assembled against bounds formed once."""
    frames = [project_standard_basis(subspace) for subspace in subspaces]
    n, k = frames[0].n, frames[0].k
    ratios = _polytope_ratios(frames) if volumes else [None] * len(frames)
    lowners = ellipsoid_volume_ratios([fit.ellipsoid for fit in _fits(frames)])
    vectors = np.array([frame.vectors for frame in frames])
    norms = np.einsum("bij,bij->bi", vectors, vectors)
    uniform = (np.abs(norms - k / n).max(axis=1) <= BOUND_TOL).tolist()
    bounds = _bounds(n, k, volumes)
    return [_report(n, k, *trial, bounds)
            for trial in zip(lowners, uniform, ratios, trial_ids, seeds)]


def verify_ellipsoid_bounds(subspace: Subspace, trial_id: int = 0,
                            seed: int = 0) -> ExperimentReport:
    """Check the Lowner/John volume-ratio bounds on one subspace."""
    return _verify([subspace], False, [trial_id], [seed])[0]


def verify_volume_bounds(subspace: Subspace, trial_id: int = 0,
                         seed: int = 0) -> ExperimentReport:
    """Check the polytope volume bounds, the ellipsoid bounds, and the sandwich
    between them on one subspace (k must be within the exact-volume range);
    both polytope volumes come from one hull of the frame's +/- v_i."""
    return _verify([subspace], True, [trial_id], [seed])[0]


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
    bound_ball2: float       # proved upper bound 2^{(n-k)/2} for cube sections, or inf
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
    bound_ball2 = _ball2_bound(n, k)
    seeds = [trial_seed(seed, t) for t in range(trials)]
    ratios = []
    for block in _blocks(n, k, trials):
        subspaces = _draw(n, k, [seeds[t] for t in block])
        ratios += _polytope_ratios([project_standard_basis(s) for s in subspaces])
    cube, cross = np.array([trial[:2] for trial in ratios]).T
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
        for block in _blocks(spec.n, spec.k, spec.trials):
            seeds = [trial_seed(spec.seed, t) for t in block]
            reports += _verify(_draw(spec.n, spec.k, seeds),
                               "volume" in spec.experiments, block, seeds)
    reports.sort(key=lambda r: (r.n, r.k, r.trial_id))
    return reports, render_csv(reports)


def _csv_float(value) -> str:
    return "" if value is None else repr(float(value))


def render_csv(reports) -> str:
    """Deterministic CSV rendering with the tolerance ledger in the header.

    A row's pass cells and equality flags are ``Check.holds()`` and
    ``Check.at_equality`` of its four ratio checks, read together from one
    slack (``_verdict``); the text of each distinct pair of bound cells is
    formed once per call."""
    lines = [
        "# tolerance ledger: tau_orth=%g tau_cert=%g tau_maj=%g tau_sh=%g "
        "tau_geo=%g mvee_eps=%g bound_tol=%g" % (
            _frames.TAU_ORTH, _frames.TAU_CERT, _majorization.TAU_MAJ,
            _majorization.TAU_SH, _polytopes.TAU_GEO, DEFAULT_EPS, BOUND_TOL),
        ",".join(CSV_COLUMNS),
    ]
    bound_cells = {}  # (bound_kn, bound_nk) -> their two cells
    for r in reports:
        checks = [r.checks.get(column) for column, _ in _RATIOS]
        bounds = (checks[0].bound, checks[1].bound)
        cells = bound_cells.get(bounds)
        if cells is None or 0.0 in bounds:  # 0.0 and -0.0 are one key, two texts
            cells = bound_cells[bounds] = ",".join(map(_csv_float, bounds))
        passes, flags = [], []
        for check, (_, short) in zip(checks, _RATIOS):
            if check is None:
                passes.append("")
                continue
            passed, equal = _verdict(check)
            passes.append(str(passed))
            if equal:
                flags.append(short)
        lines.append(",".join([str(r.n), str(r.k), str(r.trial_id), str(r.seed),
                               *[_csv_float(r.ratios.get(column)) for column, _ in _RATIOS],
                               cells, *passes, "|".join(flags), str(bool(r.profile_uniform))]))
    return "\n".join(lines) + "\n"
