"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines as they complete.  Heavy criteria (Table reproductions) run at
2^14 paths with 16 replications and dominate the runtime.
"""

import os
import time

import numpy as np
import pytest

from mcmpricer import (
    DiagonalKernelParams,
    Payoff,
    QuotientStats,
    RunConfig,
    build_vol,
    conditional_expectation_check,
    gamma_bruteforce,
    gamma_recursive,
    kernel_h,
    path_weights,
    price_mcm,
    price_tree_1d,
    scaling_report,
    sigma1_of_lambda,
    sigma2_of_lambda,
    simulate_paths,
)
from mcmpricer.market_model import TimeGrid
from mcmpricer.oracles import tree_converged
from mcmpricer.ratio import lambda_min, optimal_plan, p2_preferred, prefers_case1

BENCH_RATE = float(np.log(1.1))
SEED = 20260808

# Reference rows: geometric put, 2^14 paths, 10 steps (price, std dev);
# true values from the 1D-equivalent tree method.
TABLE1_ROWS = {1: (4.807, 0.047), 5: (1.506, 0.012), 10: (0.842, 0.012)}
TABLE1_TRUE = {1: 4.918, 5: 1.583, 10: 0.890}
TABLE2_ROWS = {"min_put": (8.088, 0.067, 0.05), "max_call": (20.91, 0.24, 0.10)}
TABLE2_TRUE = {"min_put": (8.262, 0.35), "max_call": (21.15, 0.70)}


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {number} ({name}): {status} -- {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_involution_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in range(1, 7):
        pi = rng.normal(1.0, 2.0, (1000, d))
        cov = rng.normal(0.0, 1.5, (d, d))
        cov = 0.5 * (cov + cov.T)
        rec = gamma_recursive(pi, cov)
        enum = gamma_bruteforce(pi, cov)
        worst = max(worst, float(np.max(np.abs(rec - enum) / (1.0 + np.abs(enum)))))
    elapsed = time.perf_counter() - t0
    _report(
        1, "involution-determinant oracle",
        worst <= 1e-10 and elapsed < 5.0,
        f"max rel deviation {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 5s), d=1..6 x 1000 draws",
    )


def test_criterion_2_conditional_expectation_oracle():
    t0 = time.perf_counter()
    tolerances = {80.0: 0.02, 100.0: 0.01, 120.0: 0.02}
    details = []
    ok = True
    for x, tol in tolerances.items():
        mcm, oracle = conditional_expectation_check(x, n_paths=2**18, seed=SEED)
        rel = abs(mcm - oracle) / oracle
        ok &= rel < tol
        details.append(f"x={x:.0f}: rel {rel * 100:.3f}% (tol {tol * 100:.0f}%)")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(2, "conditional-expectation oracle", ok, "; ".join(details) + f", {elapsed:.1f}s (< 30s)")


@pytest.mark.slow
def test_criterion_3_table1_reproduction():
    t0 = time.perf_counter()
    details = []
    ok = True
    for dim, (row_price, row_std) in TABLE1_ROWS.items():
        payoff = Payoff("geometric_put", dim, 100.0)
        est = price_mcm(payoff, 0.2, 1.0, 10, 100.0, BENCH_RATE, 2**14,
                        seed=SEED, method="P2opt", replications=16)
        band = 3.0 * row_std + 0.05
        in_row = abs(est.price - row_price) <= band
        in_true = abs(est.price - TABLE1_TRUE[dim]) <= 0.25
        ok &= in_row and in_true
        details.append(
            f"d={dim}: {est.price:.3f}+-{est.std:.3f} vs {row_price} (band {band:.3f}, "
            f"true {TABLE1_TRUE[dim]} +-0.25)"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _report(3, "Table 1 reproduction", ok, "; ".join(details) + f"; total {elapsed:.0f}s (< 300s)")


@pytest.mark.slow
def test_criterion_4_table2_reproduction():
    details = []
    ok = True
    for kind, (row_price, row_std, extra) in TABLE2_ROWS.items():
        payoff = Payoff(kind, 2, 100.0)
        est = price_mcm(payoff, 0.2, 1.0, 10, 100.0, BENCH_RATE, 2**14,
                        seed=SEED, method="P2opt", replications=16)
        band = 3.0 * row_std + extra
        true_val, true_band = TABLE2_TRUE[kind]
        in_row = abs(est.price - row_price) <= band
        in_true = abs(est.price - true_val) <= true_band
        ok &= in_row and in_true
        details.append(
            f"{kind}: {est.price:.3f}+-{est.std:.3f} vs {row_price} (band {band:.3f}, "
            f"true {true_val} +-{true_band})"
        )
    _report(4, "Table 2 reproduction", ok, "; ".join(details))


def test_criterion_5_variance_reduction_orderings():
    # (a) conditioning never increases the per-sample std dev of the
    # continuation estimator, matched paths, all Table-1 (dim, steps) configs
    ok = True
    details = []
    worst_ratio = 0.0
    for dim in (1, 5, 10):
        vol = build_vol(dim, 0.2)
        payoff = Payoff("geometric_put", dim, 100.0)
        for steps in (10, 20, 30):
            grid = TimeGrid(1.0, steps)
            paths = simulate_paths(vol, grid, 100.0, BENCH_RATE, 2**14, seed=SEED + dim + steps)
            for k in (1, steps // 2, steps - 1):
                g = payoff(paths.s[:, k + 1, :])
                # deepest query level at which the indicator-weighted sample
                # still has support among paying paths
                for level in (97.0, 94.0, 90.0, 86.0, 82.0):
                    x = np.full(dim, level)
                    hits = np.count_nonzero((g > 0) & np.all(paths.s[:, k, :] >= x, axis=-1))
                    if hits >= 100:
                        break
                params = DiagonalKernelParams.from_model(
                    vol, float(grid.dates[k]), float(grid.dates[k + 1]), BENCH_RATE, paths.s0
                )
                cond = g * kernel_h(params, x, paths.w_at_date(k + 1))
                raw = g * np.all(paths.s[:, k, :] >= x, axis=-1) * path_weights(paths, k, k + 1)
                ratio = cond.std() / max(raw.std(), 1e-300)
                worst_ratio = max(worst_ratio, ratio)
                ok &= cond.std() <= raw.std()
    details.append(f"(a) sample-level conditioning ordering, worst cond/raw std ratio {worst_ratio:.3f}")

    # (b) optimal split stabilises the equal-split estimator at d=5, 20 steps
    payoff = Payoff("geometric_put", 5, 100.0)
    eq = price_mcm(payoff, 0.2, 1.0, 20, 100.0, BENCH_RATE, 2**10, seed=SEED, method="P2eq", replications=16)
    op = price_mcm(payoff, 0.2, 1.0, 20, 100.0, BENCH_RATE, 2**10, seed=SEED, method="P2opt", replications=16)
    ok &= op.std <= eq.std
    details.append(f"(b) d=5/20 steps: P2opt {op.price:.3f}+-{op.std:.3f} vs P2eq {eq.price:.3f}+-{eq.std:.3f}")

    # (c) lambda_min is the grid argmin for random stats
    rng = np.random.default_rng(SEED)
    grid_l = np.linspace(0.0, 1.0, 201)
    argmin_ok = True
    for _ in range(1000):
        s = QuotientStats(
            a=float(rng.normal(0.0, 2.0)) + 3.0, b=float(rng.uniform(0.5, 3.0)),
            sigma1=float(rng.uniform(0.1, 3.0)), sigma2=float(rng.uniform(0.1, 3.0)),
            rho=float(rng.uniform(-1.0, 1.0)),
        )
        case1 = prefers_case1(s)
        f = sigma1_of_lambda if case1 else sigma2_of_lambda
        lam = float(np.clip(lambda_min(s, case1), 0.0, 1.0))
        best = f(s, lam)
        if not all(best <= f(s, l) + 1e-12 for l in grid_l):
            argmin_ok = False
            break
    ok &= argmin_ok
    details.append(f"(c) lambda argmin on 201-point grid, 1000 draws: {argmin_ok}")
    _report(5, "variance-reduction orderings", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_6_split_theory_numerics():
    ok = True
    details = []

    # lambda at rho = 0 is exactly one half
    plan = optimal_plan(QuotientStats(2.0, 1.0, 1.0, 1.5, 0.0), n_max=2**14)
    ok &= plan.lam == 0.5
    details.append(f"rho=0 -> lambda={plan.lam}")

    # correlation condition implies the variance gain, 1000 satisfying draws
    rng = np.random.default_rng(SEED + 1)
    implication = True
    checked = 0
    while checked < 1000:
        s = QuotientStats(
            a=float(rng.uniform(0.2, 4.0)), b=float(rng.uniform(0.2, 4.0)),
            sigma1=float(rng.uniform(0.1, 3.0)), sigma2=float(rng.uniform(0.1, 3.0)),
            rho=float(rng.uniform(0.0, 1.0)),
        )
        case1 = prefers_case1(s)
        if not p2_preferred(s, case1):
            continue
        lam = float(np.clip(lambda_min(s, case1), 0.0, 1.0))
        sig = sigma1_of_lambda(s, lam) if case1 else sigma2_of_lambda(s, lam)
        implication &= s.b**2 * sig - s.sigma1**2 < 0.0
        checked += 1
    ok &= implication
    details.append(f"variance-gain implication on 1000 satisfying draws: {implication}")

    # delta-method prediction vs empirical variance on synthetic quotients
    a, b, s1, s2, rho = 1.0, 2.0, 1.0, 1.0, 0.3
    stats = QuotientStats(a, b, s1, s2, rho)
    case1 = prefers_case1(stats)
    lam_star = lambda_min(stats, case1)
    n = 2**16
    reps = 10**4
    rng = np.random.default_rng(SEED + 2)
    var_emp = {}
    for lam in (lam_star, 1.0):
        acc = []
        for _ in range(0, reps, 50):
            z1 = rng.standard_normal((50, n))
            z2 = rho * z1 + np.sqrt(1.0 - rho**2) * rng.standard_normal((50, n))
            x_cor = (a + s1 * z1).mean(axis=1)
            y = (b + s2 * z2).mean(axis=1)
            if lam == 1.0:
                q = x_cor / y
            elif case1:
                y_ind = (b + s2 * rng.standard_normal((50, n))).mean(axis=1)
                q = x_cor / (lam * y + (1.0 - lam) * y_ind)
            else:
                x_ind = (a + s1 * rng.standard_normal((50, n))).mean(axis=1)
                q = (lam * x_cor + (1.0 - lam) * x_ind) / y
            acc.append(q)
        var_emp[lam] = float(np.var(np.concatenate(acc)))
    ordering = var_emp[lam_star] <= var_emp[1.0]
    ok &= ordering
    within = True
    for lam in (lam_star, 1.0):
        pred = (sigma1_of_lambda(stats, lam) if case1 else sigma2_of_lambda(stats, lam)) / n
        rel = abs(pred - var_emp[lam]) / var_emp[lam]
        within &= rel <= 0.15
        details.append(f"lambda={lam:.3f}: pred {pred:.3e} vs emp {var_emp[lam]:.3e} (rel {rel * 100:.1f}%)")
    ok &= within
    details.insert(1, f"split-vs-full variance ordering: {ordering}")
    _report(6, "split theory numerics", ok, "; ".join(details))


def test_criterion_7_tree_oracle_self_check():
    ok = True
    details = []
    for dim, target in TABLE1_TRUE.items():
        value = price_tree_1d(dim, 100.0, 100.0, BENCH_RATE, 0.2, 1.0, 5000)
        ok &= abs(value - target) <= 0.005
        details.append(f"d={dim}: {value:.4f} vs {target} (+-0.005)")
    ok &= tree_converged(1, 100.0, 100.0, BENCH_RATE, 0.2, 1.0, 5000)
    _report(7, "tree oracle self-check", ok, "; ".join(details) + "; doubling moves < 5e-3")


@pytest.mark.slow
def test_criterion_8_determinism_and_scaling():
    config = RunConfig(payoff="geometric_put", dim=5, n_steps=10, log2_paths=14,
                       replications=4, seed=SEED)
    rows = scaling_report(config, [1, 2, 4])  # raises on any bitwise mismatch
    prices = {r["degree"]: r["price"] for r in rows}
    identical = len(set(prices.values())) == 1
    speedup4 = next(r["speedup"] for r in rows if r["degree"] == 4)
    cores = os.cpu_count() or 1
    detail = (f"prices bitwise identical across degrees 1/2/4: {identical}; "
              f"speedup at degree 4: {speedup4:.2f} on a {cores}-core host")
    if cores >= 4:
        _report(8, "determinism and scaling", identical and speedup4 > 2.0,
                detail + " (require > 2)")
    else:
        _report(8, "determinism and scaling", identical,
                detail + " (speedup threshold needs a 4-core host; reported only)")
