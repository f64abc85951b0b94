"""Optimal numerator/denominator sample splits for quotient estimators.

A quotient of two Monte Carlo means has an asymptotic variance that depends
on how the budget is split between numerator and denominator; even with
uncorrelated samples the optimum is a half split.  This demo maps the
variance profile, calibrates the split from samples (M1 and the fixed-point
M2), and validates the prediction by brute-force replication.
"""

import numpy as np

from mcmpricer import (
    QuotientStats,
    calibrate_m1,
    calibrate_m2,
    optimal_plan,
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

# Calibrate from synthetic correlated pairs.
rng = np.random.default_rng(0)


def sampler(n):
    z1 = rng.standard_normal(n)
    z2 = 0.3 * z1 + np.sqrt(1 - 0.09) * rng.standard_normal(n)
    return 1.0 + z1, 2.0 + z2


print("\nM1 plan:", calibrate_m1(sampler, 2**16).lam)
m2 = calibrate_m2(sampler, 2**14)
print("M2 plan:", m2.lam, "converged:", m2.converged)

# Brute-force check: empirical variance at the optimum vs the full split.
# In this regime (case 2) the split blends a paired and an independent
# numerator mean against the shared denominator.
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
