"""Price Bermudan geometric-basket puts: weighted Monte Carlo vs baselines.

Reproduces a desk-scale slice of the benchmark grid (strike 100, maturity 1,
rate ln(1.1), vol 0.2 per asset, 10 exercise dates, 2^10 paths, 16
replications) and compares against regression Monte Carlo (``method="LS"``
of the same ``price_mcm``) and the 1D-equivalent binomial tree.
"""

import numpy as np

from mcmpricer import Payoff, price_mcm, price_tree_1d

RATE = float(np.log(1.1))

print(f"{'d':>3} {'tree (true)':>12} {'P1':>16} {'P2eq':>16} {'P2opt':>16} {'LS':>16}")
for dim in (1, 5, 10):
    payoff = Payoff("geometric_put", dim, 100.0)
    tree = price_tree_1d(dim, 100.0, 100.0, RATE, 0.2, 1.0, 5000)
    cells = []
    for method in ("P1", "P2eq", "P2opt", "LS"):
        est = price_mcm(payoff, 0.2, 1.0, 10, 100.0, RATE, 2**10, seed=42,
                        method=method, replications=16)
        cells.append(f"{est.price:7.3f}+-{est.std:.3f}")
    print(f"{dim:>3} {tree:12.3f} " + " ".join(f"{c:>16}" for c in cells))

# Two-asset contracts (put on minimum, call on maximum).
for kind in ("min_put", "max_call"):
    payoff = Payoff(kind, 2, 100.0)
    est = price_mcm(payoff, 0.2, 1.0, 10, 100.0, RATE, 2**10, seed=42,
                    method="P2opt", replications=16)
    print(f"{kind}: {est.price:.3f} +- {est.std:.3f}")
