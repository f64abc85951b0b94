from dataclasses import fields, replace
from itertools import cycle

import numpy as np
import pytest

from mcmpricer import QuotientPlan, QuotientStats, optimal_plan, sigma1_of_lambda, sigma2_of_lambda
from mcmpricer.errors import DenominatorMeanNearZeroError
from mcmpricer.ratio import (
    M2_EPS,
    M2_MAX_ITER,
    _resolve,
    lambda_min,
    m2_fixed_point,
    p2_preferred,
    pooled_plan,
    prefers_case1,
)

STATS_FIELDS = ("a", "b", "sigma1", "sigma2", "rho")


def _random_stats(rng):
    return QuotientStats(
        a=float(rng.normal(0.0, 2.0)) + 3.0,
        b=float(rng.uniform(0.5, 3.0)),
        sigma1=float(rng.uniform(0.1, 3.0)),
        sigma2=float(rng.uniform(0.1, 3.0)),
        rho=float(rng.uniform(-1.0, 1.0)),
    )


class TestVarianceFormulas:
    def test_plugin_values(self):
        s = QuotientStats(1.0, 1.0, 1.0, 1.0, 0.0)
        assert sigma1_of_lambda(s, 1.0) == pytest.approx(2.0)
        s = QuotientStats(1.0, 1.0, 1.0, 1.0, 1.0)
        assert sigma1_of_lambda(s, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_case_ordering_iff(self):
        rng = np.random.default_rng(60)
        grid = np.linspace(0.0, 1.0, 41)
        for _ in range(1000):
            s = _random_stats(rng)
            s1_vals = np.array([sigma1_of_lambda(s, l) for l in grid])
            s2_vals = np.array([sigma2_of_lambda(s, l) for l in grid])
            if s.a**2 * s.sigma2**2 >= s.b**2 * s.sigma1**2:
                assert np.all(s1_vals <= s2_vals + 1e-12)
            else:
                assert np.all(s1_vals >= s2_vals - 1e-12)

    def test_denominator_mean_floor(self):
        s = QuotientStats(1.0, 1e-12, 1.0, 1.0, 0.0)
        with pytest.raises(DenominatorMeanNearZeroError):
            sigma1_of_lambda(s, 0.5)


class TestOptimalPlan:
    def test_rho_zero_gives_half(self):
        plan = optimal_plan(QuotientStats(2.0, 1.0, 1.0, 1.5, 0.0), n_max=1000)
        assert plan.lam == 0.5
        assert plan.n_prime == 500

    def test_perfect_correlation_boundary(self):
        plan = optimal_plan(QuotientStats(1.0, 1.0, 1.0, 1.0, 1.0), n_max=100)
        assert plan.lam == 1.0

    def test_case1_plugin(self):
        plan = optimal_plan(QuotientStats(2.0, 1.0, 1.0, 1.0, 0.5), n_max=1000)
        assert plan.regime == "case1"
        assert plan.lam == pytest.approx(0.625)
        assert plan.n == 1000 and plan.n_prime == 625

    def test_argmin_on_grid(self):
        rng = np.random.default_rng(61)
        grid = np.linspace(0.0, 1.0, 201)
        for _ in range(1000):
            s = _random_stats(rng)
            case1 = prefers_case1(s)
            f = sigma1_of_lambda if case1 else sigma2_of_lambda
            lam = float(np.clip(lambda_min(s, case1), 0.0, 1.0))
            best = f(s, lam)
            assert all(best <= f(s, l) + 1e-12 for l in grid)

    def test_degenerate_sigma2_forces_case2_half(self):
        plan = optimal_plan(QuotientStats(1.0, 2.0, 1.0, 0.0, 0.0), n_max=64)
        assert plan.regime == "case2"
        assert plan.lam == 0.5

    def test_lambda_clamped_to_grid(self):
        plan = optimal_plan(QuotientStats(1.0, 1.0, 1.0, 1.0, -1.0), n_max=8)
        assert plan.lam == 1.0 / 8.0
        assert plan.n_prime == 1

    def test_regime_consistency(self):
        # the selected regime attains min(Sigma1(l1*), Sigma2(l2*))
        rng = np.random.default_rng(69)
        for _ in range(300):
            s = _random_stats(rng)
            plan = optimal_plan(s, n_max=10**6)
            best1 = sigma1_of_lambda(s, float(np.clip(lambda_min(s, True), 1e-6, 1.0)))
            best2 = sigma2_of_lambda(s, float(np.clip(lambda_min(s, False), 1e-6, 1.0)))
            assert plan.sigma == pytest.approx(min(best1, best2), rel=1e-9)


class TestProcedureChoice:
    def test_exact_threshold_implies_variance_gain(self):
        # for positive means, the closed-form correlation thresholds
        # rho > q (sqrt(2)-1) (case 1) and rho > sqrt(2) - 1/q (case 2) with
        # q = A s2 / (B s1) imply B^2 Sigma(lambda_min) < s1^2
        rng = np.random.default_rng(62)
        checked = 0
        while checked < 1000:
            s = QuotientStats(
                a=float(rng.uniform(0.2, 4.0)), b=float(rng.uniform(0.2, 4.0)),
                sigma1=float(rng.uniform(0.1, 3.0)), sigma2=float(rng.uniform(0.1, 3.0)),
                rho=float(rng.uniform(0.0, 1.0)),
            )
            case1 = prefers_case1(s)
            q = s.a * s.sigma2 / (s.b * s.sigma1)
            thr = q * (np.sqrt(2.0) - 1.0) if case1 else np.sqrt(2.0) - 1.0 / q
            if not s.rho > thr:
                continue
            lam = float(np.clip(lambda_min(s, case1), 0.0, 1.0))
            sig = sigma1_of_lambda(s, lam) if case1 else sigma2_of_lambda(s, lam)
            assert s.b**2 * sig - s.sigma1**2 < 0.0
            assert p2_preferred(s, case1)
            checked += 1

    def test_loose_reference_constants_overreach(self):
        # between the reference threshold and the exact one the variance gain
        # fails; this is why p2_preferred uses the exact constants
        s = QuotientStats(1.0, 1.0, 1.0, 1.0, 0.35)
        assert prefers_case1(s)
        assert s.rho > (np.sqrt(13.0) - 3.0) / 2.0    # the loose case-1 threshold at q = 1
        assert not p2_preferred(s, True)
        lam = lambda_min(s, True)
        assert s.b**2 * sigma1_of_lambda(s, lam) - s.sigma1**2 > 0.0

    def test_unsatisfiable_threshold_defaults_to_p1(self):
        # with q = A s2/(B s1) > 1/(sqrt(2)-1) the case-1 threshold exceeds 1,
        # so even perfect correlation cannot make the split beat the closed
        # denominator, and P1 stays the better estimator when B is closed-form
        s = QuotientStats(5.0, 1.0, 1.0, 1.0, 0.99)
        assert prefers_case1(s)
        assert not p2_preferred(s, True)


class TestQuotientEstimate:
    def test_stderr_matches_lambda_one_delta_method(self):
        # at lambda = 1 the prediction is the classic ratio delta method;
        # compare with the empirical variance of independent replications
        rng = np.random.default_rng(65)
        a, b, rho, n = 1.0, 2.0, 0.3, 2**12
        reps = 3000
        z1 = rng.standard_normal((reps, n))
        z2 = rho * z1 + np.sqrt(1 - rho**2) * rng.standard_normal((reps, n))
        q = (a + z1).mean(axis=1) / (b + z2).mean(axis=1)
        stats = QuotientStats(a, b, 1.0, 1.0, rho)
        predicted = sigma1_of_lambda(stats, 1.0) / n
        assert q.var() == pytest.approx(predicted, rel=0.15)


def _m2_replan(stats, n_max, noise, calls=None):
    """A deterministic M2 replan shaped as the pricer's.

    The mean whose estimate depends on the split (A in case 1, B in case 2)
    is re-estimated, here as its pilot value plus ``noise(plan)``, and the
    plan is pooled again, so the regime may change between rounds.  Each
    returned plan is appended to ``calls`` when given.
    """

    def replan(plan):
        name = "a" if plan.regime == "case1" else "b"
        new = replace(stats, **{name: getattr(stats, name) + noise(plan)})
        out = pooled_plan(*(np.array([getattr(new, f)]) for f in STATS_FIELDS), n_max)
        if calls is not None:
            calls.append(out)
        return out

    return replan


def _pooled_plan_by_copies(a, b, sigma1, sigma2, rho, n_max):
    """The pooled plan built from filtered copies of the moments: the oracle of ``pooled_plan``."""
    stats = QuotientStats(*(np.asarray(v, dtype=float) for v in (a, b, sigma1, sigma2, rho)))

    def select(st, keep):
        return QuotientStats(*(getattr(st, f)[keep] for f in STATS_FIELDS))

    stats = select(stats, (np.abs(stats.b) > stats.eps_b) & (stats.sigma1 > 0.0) & (stats.sigma2 > 0.0))
    if stats.a.size == 0:
        return QuotientPlan("case1", 1.0, 0.0, n_max, n_max)
    votes = prefers_case1(stats)
    case1 = np.count_nonzero(votes) * 2 >= votes.size
    voters = select(stats, votes == case1)
    med = QuotientStats(*(float(np.median(getattr(voters, f))) for f in STATS_FIELDS))
    return _resolve(med, case1, float(np.median(lambda_min(voters, case1))), n_max)


class TestCalibration:
    def test_m2_fixed_point_converges(self):
        # a mean biased by 1 - lambda contracts to its fixed point in a
        # few rounds; the plan returned is the last replan, settled to M2_EPS
        stats, n_max, calls = QuotientStats(1.0, 2.0, 1.0, 1.0, 0.3), 2**14, []
        replan = _m2_replan(stats, n_max, lambda plan: 1.0 - plan.lam, calls)
        plan = m2_fixed_point(optimal_plan(stats, n_max), replan)
        assert plan.converged
        assert len(calls) > 1 and plan is calls[-1]
        assert abs(replan(plan).lam - plan.lam) < M2_EPS

    def test_m2_iteration_cap_flags_nonconvergence(self):
        # B jumps by 1 whenever lambda passes 0.56, so lambda cycles between
        # 0.575 and 0.55: the cap ends the loop on the last replan, flagged
        stats, n_max, calls = QuotientStats(1.0, 2.0, 1.0, 1.0, 0.3), 2**14, []
        replan = _m2_replan(stats, n_max, lambda plan: float(plan.lam > 0.56), calls)
        plan = m2_fixed_point(optimal_plan(stats, n_max), replan)
        assert len(calls) == M2_MAX_ITER
        assert plan == replace(calls[-1], converged=False)

    def test_m2_converges_at_clamped_lambda(self):
        # rho = -1 puts lambda* below the 1/n_max grid in either regime; the
        # re-estimated mean moves the unclamped lambda* by more than M2_EPS
        # every round, but the clamped split is its own fixed point
        n_max = 8
        for stats in (QuotientStats(2.0, 1.0, 1.0, 0.5, -1.0),     # case 1, lambda* = 0.5 - 1 / A
                      QuotientStats(0.9, 1.0, 1.0, 1.0, -1.0)):    # case 2, lambda* = 0.5 - A / (2 B)
            shifts = cycle([0.1, 0.0])
            replan = _m2_replan(stats, n_max, lambda plan: next(shifts))
            plan = m2_fixed_point(optimal_plan(stats, n_max), replan)
            assert plan.lam == 1.0 / n_max and plan.converged, stats
            case1 = prefers_case1(stats)
            name = "a" if case1 else "b"
            moved = replace(stats, **{name: getattr(stats, name) + 0.1})
            assert max(lambda_min(stats, case1), lambda_min(moved, case1)) < 1.0 / n_max
            assert abs(lambda_min(moved, case1) - lambda_min(stats, case1)) > M2_EPS

    def test_m2_regime_labels_its_counts(self):
        # case 1 keeps all n_max denominator samples (N' = lambda N), case 2
        # all n_max numerator samples; the label must match the counts, also
        # when a replan changes the regime.  The noise has the size of a mean's
        # error over lambda * n_max samples.
        n_max = 64
        rng = np.random.default_rng(70)
        draws = [(1.14626, 1.48379, 2.81152, 2.84579, -0.80643)]
        for _ in range(300):
            a, b = rng.uniform(0.2, 3.0, 2)
            s1, s2 = rng.uniform(0.1, 3.0, 2)
            draws.append((a, b, s1, s2, rng.uniform(-0.95, 0.95)))
        for a, b, s1, s2, rho in draws:

            def noise(plan):
                sd = s1 if plan.regime == "case1" else s2
                return sd * np.sin(37.0 * plan.lam) / np.sqrt(max(2, round(plan.lam * n_max)))

            stats = QuotientStats(a, b, s1, s2, rho)
            plan = m2_fixed_point(optimal_plan(stats, n_max), _m2_replan(stats, n_max, noise))
            split = max(1, round(plan.lam * n_max))
            if plan.regime == "case1":
                assert (plan.n, plan.n_prime) == (n_max, split), (a, b, s1, s2, rho)
            else:
                assert (plan.n, plan.n_prime) == (split, n_max), (a, b, s1, s2, rho)

    def test_pooled_plan_majority_and_median(self):
        a = np.array([2.0, 2.1, 1.9, 2.0])
        b = np.ones(4)
        s1 = np.ones(4)
        s2 = np.ones(4)
        rho = np.array([0.5, 0.5, 0.5, 0.5])
        plan = pooled_plan(a, b, s1, s2, rho, n_max=1000)
        assert plan.regime == "case1"
        assert plan.lam == pytest.approx(0.5 + 0.5 / (2.0 * 2.0), abs=0.01)

    def test_pooled_plan_is_the_single_query_plan_and_drops_degenerate_queries(self):
        # one healthy query pools to its own optimal plan; queries with a NaN or
        # infinite rho and a zero sigma, or with B under the floor, never vote
        rng = np.random.default_rng(72)
        pad = np.array([
            [1.0, 1.0, 0.0, 1.0, np.nan],
            [1.0, 1e-12, 1.0, 1.0, 0.5],
            [2.0, 1.0, 1.0, 0.0, np.inf],
            [0.5, 1.0, 0.0, 0.0, -np.inf],
        ])
        for _ in range(300):
            s = _random_stats(rng)
            n_max = int(rng.integers(1, 10**6))
            single = optimal_plan(s, n_max)
            plan = pooled_plan(*(np.array([getattr(s, f)]) for f in STATS_FIELDS), n_max)
            assert (plan.regime, plan.lam, plan.n, plan.n_prime, plan.sigma) == (
                single.regime, single.lam, single.n, single.n_prime, single.sigma)
            batch = np.array([[getattr(_random_stats(rng), f) for f in STATS_FIELDS] for _ in range(5)])
            padded = np.concatenate([batch, pad])[rng.permutation(len(batch) + len(pad))]
            assert pooled_plan(*padded.T, n_max) == pooled_plan(*batch.T, n_max)

    def test_pooled_plan_is_bitwise_the_plan_of_filtered_copies(self):
        rng = np.random.default_rng(73)
        degenerate = [
            lambda q: q.update(rho=np.nan),
            lambda q: q.update(rho=np.inf),
            lambda q: q.update(rho=-np.inf),
            lambda q: q.update(b=1e-10 * (1.0 + abs(q["a"]))),     # |B| at the floor
            lambda q: q.update(b=-0.5e-10),
            lambda q: q.update(sigma1=0.0),
            lambda q: q.update(sigma2=0.0),
        ]
        cases = []
        for _ in range(400):
            n_q = int(rng.integers(1, 40))
            rows = []
            for _ in range(n_q):
                q = {"a": rng.normal(0.0, 2.0), "b": rng.normal(1.0, 1.0), "sigma1": rng.uniform(0.0, 3.0),
                     "sigma2": rng.uniform(0.0, 3.0), "rho": rng.uniform(-1.2, 1.2)}
                if rng.random() < 0.3:
                    degenerate[rng.integers(len(degenerate))](q)
                rows.append([q[f] for f in STATS_FIELDS])
            cases.append(np.array(rows).T)
        # all degenerate, and a tied vote: one case-1 and one case-2 query
        cases.append(np.array([[1.0, 0.0, 1.0, 1.0, 0.1], [1.0, 1.0, 0.0, 1.0, np.nan]]).T)
        cases.append(np.array([[2.0, 1.0, 1.0, 1.0, 0.4], [0.5, 1.0, 1.0, 1.0, -0.3]]).T)
        assert prefers_case1(QuotientStats(*cases[-1][:, 0])) and not prefers_case1(QuotientStats(*cases[-1][:, 1]))
        for cols in cases:
            n_max = int(rng.integers(1, 10**6))
            got, want = pooled_plan(*cols, n_max), _pooled_plan_by_copies(*cols, n_max)
            assert got == want
            assert [repr(getattr(got, f.name)) for f in fields(got)] == [
                repr(getattr(want, f.name)) for f in fields(want)]

    def test_pooled_plan_all_degenerate(self):
        z = np.zeros(3)
        plan = pooled_plan(z, z, z, z, z, n_max=10)
        assert plan.lam == 1.0
