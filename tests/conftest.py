import concurrent.futures
import math
import tracemalloc

import pytest

from ramclass.abelian_fields import AbelianGroupSpec, count_stratified
from ramclass.dirichlet import PrimeSieve
from ramclass.quadratic import moment_scan, rank_probability_scan

QUAD_CHECKPOINTS = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
C3_CHECKPOINTS = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]


@pytest.fixture(scope="session")
def sieve_10m():
    return PrimeSieve(10 ** 7)


@pytest.fixture
def traced_peak():
    """peak(fn, *args): the tracemalloc peak, in bytes, of one call fn(*args)."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture(scope="session")
def c3_counts():
    """Exact C3 pair counts on a dense grid up to 1e7, stratified by r."""
    group = AbelianGroupSpec([3])
    omega = group.omega_subset(3, math.inf)
    grid = sorted({int(10 ** (4 + k / 3)) for k in range(10)} | set(C3_CHECKPOINTS))
    strat = count_stratified(group, omega, grid, 3)
    totals = count_stratified(group, frozenset(), grid, 0)[0]
    return {"group": group, "omega": omega, "grid": grid,
            "strat": strat, "totals": totals}


@pytest.fixture(scope="session")
def quad_scan_rows():
    return {
        "moment": moment_scan(QUAD_CHECKPOINTS),
        "probability": rank_probability_scan(QUAD_CHECKPOINTS, 0),
    }


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand in for the scan's process pool: record each max_workers, run in-process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes
