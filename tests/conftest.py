import time

import numpy as np
import pytest

from framegeo.experiments import random_subspace, trial_seed, verify_volume_bounds
from framegeo.polytopes import _gauge_plan

# every (n, k) pair with n <= 8, k <= 4 that gives a proper subspace
BATCH_PAIRS = [(n, k) for n in range(2, 9) for k in range(1, min(4, n - 1) + 1)]
BATCH_TRIALS = 500
BATCH_MASTER_SEED = 1729


@pytest.fixture(autouse=True)
def no_cached_gauge_plans():
    """Start every test with no gauge plan cached, so that test order never
    decides which test pays for a generator set's factorization."""
    _gauge_plan.cache_clear()


@pytest.fixture(scope="session")
def random_batch():
    """500 full volume reports on Haar-random subspaces, shared by the
    acceptance criteria; returns (reports, elapsed_seconds)."""
    start = time.perf_counter()
    reports = []
    for t in range(BATCH_TRIALS):
        n, k = BATCH_PAIRS[t % len(BATCH_PAIRS)]
        seed = trial_seed(BATCH_MASTER_SEED, t)
        reports.append(verify_volume_bounds(random_subspace(n, k, seed),
                                            trial_id=t, seed=seed))
    return reports, time.perf_counter() - start


@pytest.fixture
def rank_calls(monkeypatch):
    """Wrap ``np.linalg.matrix_rank``; returns the list each call appends to."""
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def counted(*args, **kwargs):
        calls.append("matrix_rank")
        return matrix_rank(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    return calls


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Wrap ``np.linalg.lstsq``; returns the list each call appends to."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append("lstsq")
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls
