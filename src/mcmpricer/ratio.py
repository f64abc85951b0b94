"""Optimal numerator/denominator sample split for quotient estimators.

A continuation value is a quotient Q = mean(X) / mean(Y).  Splitting the
sample budget between the two means changes the delta-method asymptotic
variance; with A = E(X), B = E(Y), sigma_i the standard deviations and rho
the correlation, the two regimes are

    case 1 (N' = lambda N):  Sigma_1(l) = [ (2l^2-2l+1)(A/B)^2 s2^2 + s1^2 - 2l(A/B) s1 s2 rho ] / B^2
    case 2 (N  = lambda N'): Sigma_2(l) = [ (2l^2-2l+1) s1^2 + (A/B)^2 s2^2 - 2l(A/B) s1 s2 rho ] / B^2

minimised at lambda = 1/2 + (B s1 rho)/(2 A s2) and 1/2 + (A s2 rho)/(2 B s1)
respectively; the regime is picked by the sign of A^2 s2^2 - B^2 s1^2.  Even
at rho = 0 the optimal split is one half.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DenominatorMeanNearZeroError

M2_MAX_ITER = 50
M2_EPS = 1e-3


@dataclass(frozen=True)
class QuotientStats:
    """Moments of the numerator/denominator samples of one quotient (floats)
    or of one per query (arrays); a NaN or infinite rho becomes 0."""

    a: float
    b: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        if np.any(self.sigma1 < 0.0) or np.any(self.sigma2 < 0.0):
            raise ValueError("standard deviations must be nonnegative")
        rho = np.nan_to_num(self.rho, nan=0.0, posinf=0.0, neginf=0.0)
        object.__setattr__(self, "rho", np.clip(rho, -1.0, 1.0))

    @property
    def eps_b(self) -> float:
        return 1e-10 * (1.0 + abs(self.a))


@dataclass(frozen=True)
class QuotientPlan:
    """Resolved sample-split plan for one quotient estimation."""

    regime: str                 # "case1" (N' = lambda N) or "case2" (N = lambda N')
    lam: float
    sigma: float                # predicted asymptotic variance at lam
    n: int                      # denominator sample count
    n_prime: int                # numerator sample count
    converged: bool = True


def sigma1_of_lambda(stats: QuotientStats, lam: float) -> float:
    """Case-1 asymptotic variance of the normalised quotient."""
    _check_b(stats)
    a, b, s1, s2, rho = stats.a, stats.b, stats.sigma1, stats.sigma2, stats.rho
    quad = 2.0 * lam * lam - 2.0 * lam + 1.0
    return (quad * (a / b) ** 2 * s2**2 + s1**2 - 2.0 * lam * (a / b) * s1 * s2 * rho) / b**2


def sigma2_of_lambda(stats: QuotientStats, lam: float) -> float:
    """Case-2 asymptotic variance of the normalised quotient."""
    _check_b(stats)
    a, b, s1, s2, rho = stats.a, stats.b, stats.sigma1, stats.sigma2, stats.rho
    quad = 2.0 * lam * lam - 2.0 * lam + 1.0
    return (quad * s1**2 + (a / b) ** 2 * s2**2 - 2.0 * lam * (a / b) * s1 * s2 * rho) / b**2


def _check_b(stats: QuotientStats) -> None:
    if abs(stats.b) < stats.eps_b:
        raise DenominatorMeanNearZeroError(f"|E(Y)| = {abs(stats.b):.3e} below floor {stats.eps_b:.3e}")


def prefers_case1(stats: QuotientStats) -> bool:
    return stats.a**2 * stats.sigma2**2 >= stats.b**2 * stats.sigma1**2


def lambda_min(stats: QuotientStats, case1: bool) -> float:
    """Unclamped variance-minimising split ratio for the given regime (1/2 where it divides by 0)."""
    bs1, as2 = stats.b * stats.sigma1, stats.a * stats.sigma2
    num, den = (bs1, as2) if case1 else (as2, bs1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 + np.where(den != 0.0, num * stats.rho / (2.0 * den), 0.0)


def p2_preferred(stats: QuotientStats, case1: bool) -> bool:
    """Correlation condition under which the all-simulated quotient beats
    the closed-denominator estimator.

    With q = A sigma2 / (B sigma1), the split-optimal variance drops below
    sigma1^2 / B^2 exactly when rho > q (sqrt(2) - 1) in case 1 and
    rho > sqrt(2) - 1/q in case 2 (solve B^2 Sigma(lambda_min) - sigma1^2 < 0
    as a quadratic in rho).  The paper's looser constant (sqrt(13) - 3) / 2
    overstates the preference for the simulated denominator near the
    boundary.  Either threshold can exceed 1, making the condition
    unsatisfiable.
    """
    a, b, s1, s2 = stats.a, stats.b, stats.sigma1, stats.sigma2
    if b == 0.0 or s1 == 0.0 or a == 0.0 or s2 == 0.0:
        return False
    # direct comparison; robust to signed means, where the closed-form
    # correlation thresholds above assume positive A and B
    lam = float(np.clip(lambda_min(stats, case1), 0.0, 1.0))
    sig = sigma1_of_lambda(stats, lam) if case1 else sigma2_of_lambda(stats, lam)
    return b * b * sig - s1 * s1 < 0.0


def optimal_plan(stats: QuotientStats, n_max: int) -> QuotientPlan:
    """Regime and clamped optimal lambda for one quotient.

    The regime compares A^2 sigma2^2 with B^2 sigma1^2; lambda is clamped to
    [1/n_max, 1] and resolved against n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    case1 = prefers_case1(stats)
    return _resolve(stats, case1, lambda_min(stats, case1), n_max)


def _resolve(stats: QuotientStats, case1: bool, lam: float, n_max: int) -> QuotientPlan:
    """The plan for a chosen regime and split: lambda clamped to [1/n_max, 1],
    its predicted variance and the sample counts."""
    lam = float(np.clip(lam, 1.0 / n_max, 1.0))
    sigma = sigma1_of_lambda(stats, lam) if case1 else sigma2_of_lambda(stats, lam)
    if case1:
        n, n_prime = n_max, max(1, round(lam * n_max))
    else:
        n, n_prime = max(1, round(lam * n_max)), n_max
    return QuotientPlan("case1" if case1 else "case2", lam, float(sigma), n, n_prime)


def m2_fixed_point(plan: QuotientPlan, replan: Callable[[QuotientPlan], QuotientPlan]) -> QuotientPlan:
    """The M2 fixed point: repeat plan = replan(plan) until lambda settles.

    ``replan`` re-estimates the split-dependent mean (A in case 1, B in
    case 2) on lambda times the pilot's samples and returns the plan it
    resolves to.  The first plan whose lambda moves by less than M2_EPS is
    returned; after M2_MAX_ITER rounds, the last plan flagged converged=False.
    """
    for _ in range(M2_MAX_ITER):
        new = replan(plan)
        if abs(new.lam - plan.lam) < M2_EPS:
            return new
        plan = new
    return replace(plan, converged=False)


def pooled_plan(
    a: np.ndarray,
    b: np.ndarray,
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    rho: np.ndarray,
    n_max: int,
) -> QuotientPlan:
    """One plan pooled over many query points.

    Each query contributes its own regime vote and unclamped lambda; the
    pooled plan takes the majority regime and the median moments and lambda
    of the queries voting for it.  Degenerate queries (|B| at or below eps_b
    or a zero variance) are dropped; with nothing left the plan degrades to
    lambda = 1.
    """
    stats = QuotientStats(*(np.asarray(v, dtype=float) for v in (a, b, sigma1, sigma2, rho)))
    keep = (np.abs(stats.b) > stats.eps_b) & (stats.sigma1 > 0.0) & (stats.sigma2 > 0.0)
    n_keep = np.count_nonzero(keep)
    if n_keep == 0:
        return QuotientPlan("case1", 1.0, 0.0, n_max, n_max)
    votes = prefers_case1(stats)
    case1 = np.count_nonzero(votes & keep) * 2 >= n_keep
    # elementwise over every query: a voter's entry is the lambda of its own moments
    lam = lambda_min(stats, case1)
    cols = np.stack([getattr(stats, f.name) for f in fields(stats)] + [lam])
    med = np.median(cols[:, keep & (votes == case1)], axis=1)
    return _resolve(QuotientStats(*(float(v) for v in med[:-1])), case1, float(med[-1]), n_max)
