"""Estimate E[g(S_t) | S_s = x] without regression, versus the exact law.

Compares the weighted-indicator estimator and its conditioned (closed-form
kernel) version against the lognormal conditional expectation of a put
payoff, and shows the variance reduction from conditioning.
"""

import numpy as np

from mcmpricer import (
    TimeGrid,
    build_vol,
    conditioned_continuation,
    lognormal_conditional_put,
    raw_continuation,
    simulate_paths,
)

rate = float(np.log(1.1))
vol = build_vol(1, 0.2)
paths = simulate_paths(vol, TimeGrid(1.0, 2), 100.0, rate, 2**18, seed=3)
g = np.maximum(100.0 - paths.s[:, -1, 0], 0.0)

print(f"{'x':>5} {'raw quotient':>14} {'conditioned':>14} {'exact':>10}")
for x in (80.0, 90.0, 100.0, 110.0, 120.0):
    rn, rd = raw_continuation(paths, 1, 2, x, g)
    cn, cd = conditioned_continuation(paths, 1, 2, x, g)
    exact = lognormal_conditional_put(x, 100.0, rate, 0.2, 0.5)
    print(f"{x:5.0f} {rn / rd:14.4f} {cn / cd:14.4f} {exact:10.4f}")

# Spread across independent replications: conditioning is strictly tighter.
raw_vals, cond_vals = [], []
for rep in range(16):
    p = simulate_paths(vol, TimeGrid(1.0, 2), 100.0, rate, 2**14, seed=100 + rep)
    gg = np.maximum(100.0 - p.s[:, -1, 0], 0.0)
    n, d = raw_continuation(p, 1, 2, 100.0, gg)
    raw_vals.append(n / d)
    n, d = conditioned_continuation(p, 1, 2, 100.0, gg)
    cond_vals.append(n / d)
print("\nreplication std: raw", round(np.std(raw_vals), 4), " conditioned", round(np.std(cond_vals), 4))
