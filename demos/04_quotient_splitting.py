"""Optimal numerator/denominator sample splits for quotient estimators.

A quotient of two Monte Carlo means has an asymptotic variance that depends
on how the budget is split between numerator and denominator; even with
uncorrelated samples the optimum is a half split.  This demo maps the
variance profile, validates the prediction by brute-force replication, and
prices with the split calibrated in closed form, by one pilot pass (M1) and
by the fixed point (M2).
"""

import numpy as np

from mcmpricer import (
    Payoff,
    QuotientStats,
    optimal_plan,
    price_mcm,
    sigma1_of_lambda,
    sigma2_of_lambda,
)
from mcmpricer.ratio import prefers_case1

stats = QuotientStats(a=1.0, b=2.0, sigma1=1.0, sigma2=1.0, rho=0.3)
case1 = prefers_case1(stats)
plan = optimal_plan(stats, n_max=2**16)
print(f"regime {plan.regime}, lambda* = {plan.lam:.4f}, predicted Sigma = {plan.sigma:.4f}")

f = sigma1_of_lambda if case1 else sigma2_of_lambda
for lam in (0.25, 0.5, plan.lam, 0.75, 1.0):
    print(f"  Sigma(lambda={lam:.3f}) = {f(stats, lam):.4f}")

# Brute-force check on synthetic correlated pairs: empirical variance at the
# optimum vs the full split.  In this regime (case 2) the split blends a
# paired and an independent numerator mean against the shared denominator.
rng = np.random.default_rng(0)


def sampler(n):
    z1 = rng.standard_normal(n)
    z2 = 0.3 * z1 + np.sqrt(1 - 0.09) * rng.standard_normal(n)
    return 1.0 + z1, 2.0 + z2


print()
n, reps = 2**12, 4000
for lam in (plan.lam, 1.0):
    qs = []
    for _ in range(reps):
        x, y = sampler(n)
        x_ind = 1.0 + rng.standard_normal(n)
        num = lam * x.mean() + (1 - lam) * x_ind.mean()
        qs.append(num / y.mean())
    pred = f(stats, lam) / n
    print(f"lambda={lam:.3f}: empirical var {np.var(qs):.3e}   predicted {pred:.3e}")

# The pricer calibrates the split of P2opt at every exercise date, pooled
# over the in-the-money queries: from the closed-form kernel moments, from
# one pilot pass (M1), or by the M2 fixed point on the pilot's samples.
print()
payoff = Payoff("geometric_put", 1, 100.0)
for calibration in ("closed", "M1", "M2"):
    est = price_mcm(payoff, 0.2, 1.0, 10, 100.0, np.log(1.1), 2**10, seed=42, method="P2opt",
                    replications=8, calibration=calibration)
    print(f"P2opt, {calibration:>6} calibration: {est.price:.4f} (spread {est.std:.4f})")
