import gc

import numpy as np
import pytest

from mcmpricer import TimeGrid, build_vol, simulate_paths

BENCH_RATE = float(np.log(1.1))


@pytest.fixture(scope="session")
def tri_vol_2d():
    return build_vol(2, [[0.2, 0.0], [0.1, 0.2]])


@pytest.fixture(scope="session")
def paths_1d_two_dates():
    """2^18 driftful 1D paths on the (0, 0.5, 1.0) grid, shared across tests."""
    vol = build_vol(1, 0.2)
    return simulate_paths(vol, TimeGrid(1.0, 2), 100.0, BENCH_RATE, 2**18, seed=911)


def mc_z(sample_mean, target, sample_std, n):
    """Standardised MC deviation of a sample mean from its target."""
    return (sample_mean - target) / (sample_std / np.sqrt(n))


def cyclic_garbage(call):
    """Objects that only the cycle collector frees after a second ``call()``, run with it off.

    The first call makes any lazy imports, whose modules hold cycles of their own.
    """
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()
