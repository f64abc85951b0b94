"""Simulate the multi-asset lognormal model with triangular volatility.

Shows: exact log-space path simulation, the precomputed inverse vol matrices,
reproducibility from the seed, and the martingale sanity check.
"""

import numpy as np

from mcmpricer import TimeGrid, build_vol, simulate_paths

# A 2-asset model where the second asset loads on both Brownian factors.
vol = build_vol(2, [[0.2, 0.0], [0.1, 0.2]])
print("sigma =\n", vol.mats[0])
print("rho = sigma^'-1' =\n", vol.invs[0])

grid = TimeGrid(maturity=1.0, n_steps=10)
paths = simulate_paths(vol, grid, s0=100.0, r=0.0, n_paths=2**16, seed=42)

print("\nS_T means with r=0 (martingale, expect ~100):", paths.s[:, -1, :].mean(axis=0))
print("log S_T std devs:", np.log(paths.s[:, -1, :] / 100.0).std(axis=0))

# The paths are a pure function of the seed.
again = simulate_paths(vol, grid, s0=100.0, r=0.0, n_paths=2**16, seed=42)
print("bit-identical for the same seed:", paths.s.tobytes() == again.s.tobytes())
