import json
import multiprocessing
import os
import subprocess
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import mcmpricer

from mcmpricer import (
    DiagonalKernelParams,
    Payoff,
    TimeGrid,
    build_vol,
    conditioned_continuation,
    evaluate_payoff,
    kernel_h,
    path_weights,
    price_mcm,
    raw_continuation,
    simulate_paths,
    tree_american_put,
)
from mcmpricer import pricer, ratio
from mcmpricer.errors import DimensionMismatchError, NotDiagonalError, NotTriangularError
from mcmpricer.pricer import _backward_induction, _ls_continuation, _mcm_continuation
from mcmpricer.ratio import M2_EPS, M2_MAX_ITER, pooled_plan

from conftest import BENCH_RATE, cyclic_garbage


class TestPayoff:
    def test_geometric_put_atm_is_zero(self):
        p = Payoff("geometric_put", 2, 100.0)
        assert evaluate_payoff(p, np.array([100.0, 100.0])) == 0.0

    def test_min_put(self):
        p = Payoff("min_put", 2, 100.0)
        assert evaluate_payoff(p, np.array([90.0, 120.0])) == 10.0

    def test_max_call(self):
        p = Payoff("max_call", 2, 100.0)
        assert evaluate_payoff(p, np.array([90.0, 120.0])) == 20.0

    def test_geometric_put_d1_is_vanilla(self):
        p = Payoff("geometric_put", 1, 100.0)
        assert evaluate_payoff(p, np.array([80.0])) == pytest.approx(20.0, abs=1e-12)

    @pytest.mark.parametrize("strike", [0.0, -1.0, np.nan, np.inf])
    def test_strike_must_be_positive_and_finite(self, strike):
        with pytest.raises(ValueError, match="strike must be positive and finite"):
            Payoff("geometric_put", 1, strike)

    @pytest.mark.parametrize("dim", [True, 2.0, 2.5, "2"])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(TypeError, match="dim must be an integer"):
            Payoff("geometric_put", dim, 100.0)

    def test_numpy_integer_dim_is_accepted(self):
        assert Payoff("geometric_put", np.int64(2), 100.0).dim == 2

    def test_min_put_requires_two_assets(self):
        with pytest.raises(DimensionMismatchError):
            Payoff("min_put", 5, 100.0)

    def test_vector_shape_checked(self):
        p = Payoff("geometric_put", 3, 100.0)
        with pytest.raises(DimensionMismatchError):
            evaluate_payoff(p, np.ones((4, 2)))


class _ConstPayoff:
    """Duck-typed payoff paying a constant; exercises the discount identity."""

    dim = 1
    strike = 100.0

    def __init__(self, c):
        self.c = c

    def __call__(self, s):
        return np.full(np.asarray(s).shape[:-1], self.c)


def _mcm_induction(method, conditioning=True, calibration="M1"):
    """The backward induction with the MCM continuation, picklable for pool workers."""
    continuation = partial(_mcm_continuation, method=method, conditioning=conditioning,
                           calibration=calibration)
    return partial(_backward_induction, continuation=continuation)


_ls_induction = partial(_backward_induction, continuation=_ls_continuation)


def _fixed_continuation(value, calls):
    """A continuation of ``value`` and one fallback per in-the-money path; records (k, count) in ``calls``."""
    def continuation(paths, payoff, k, itm, cf):
        calls.append((k, len(itm)))
        return np.full(len(itm), value), len(itm)

    return continuation


class TestSweepIdentities:
    def test_constant_payoff_r0_prices_at_constant(self):
        vol = build_vol(1, 0.2)
        paths = simulate_paths(vol, TimeGrid(1.0, 5), 100.0, 0.0, 2048, seed=80)
        payoff = _ConstPayoff(3.25)
        price, fallbacks = _mcm_induction("P2eq")(paths, payoff)
        assert price == 3.25
        assert fallbacks == 0
        price, _ = _ls_induction(paths, payoff)
        assert price == 3.25

    def test_zero_payoff_prices_at_zero(self):
        # a strike this deep out of the money never pays
        vol = build_vol(1, 0.2)
        paths = simulate_paths(vol, TimeGrid(1.0, 5), 100.0, BENCH_RATE, 2048, seed=81)
        payoff = Payoff("geometric_put", 1, 1e-6)
        assert _mcm_induction("P2eq")(paths, payoff)[0] == 0.0
        assert _ls_induction(paths, payoff)[0] == 0.0

    @pytest.mark.parametrize("strike", [100.0, 1000.0])   # the European value wins, then payoff(s0)
    def test_infinite_continuation_never_exercises(self, strike):
        paths = simulate_paths(build_vol(2, 0.2), TimeGrid(1.0, 6), 100.0, BENCH_RATE, 2**10, seed=89)
        payoff = Payoff("geometric_put", 2, strike)
        price, _ = _backward_induction(paths, payoff, _fixed_continuation(np.inf, []))
        european = float(np.mean(np.exp(-paths.rate * paths.grid.maturity) * payoff(paths.s[:, -1, :])))
        assert price == max(float(payoff(paths.s0[None, :])[0]), european)

    def test_minus_infinite_continuation_exercises_at_the_first_itm_date(self):
        n_steps = 6
        paths = simulate_paths(build_vol(2, 0.2), TimeGrid(1.0, n_steps), 100.0, BENCH_RATE, 2**10,
                               seed=90)
        payoff = Payoff("geometric_put", 2, 100.0)
        calls = []
        price, fallbacks = _backward_induction(paths, payoff, _fixed_continuation(-np.inf, calls))
        # intrinsic[:, j] and disc[j] at date j + 1, for dates 1..n
        intrinsic = np.stack([payoff(paths.s[:, k, :]) for k in range(1, n_steps + 1)], axis=1)
        disc = np.array([np.exp(-BENCH_RATE * paths.grid.dates[k]) for k in range(1, n_steps + 1)])
        itm = intrinsic[:, :-1] > 0.0
        first = np.where(itm.any(axis=1), np.argmax(itm, axis=1), n_steps - 1)
        cf = disc[first] * intrinsic[np.arange(paths.n_paths), first]
        assert 0 < np.count_nonzero(itm.any(axis=1)) < paths.n_paths
        assert price == max(0.0, float(np.mean(cf)))
        # one call per date n-1..1, and the fallback counts add up across dates
        assert calls == [(k, np.count_nonzero(itm[:, k - 1])) for k in range(n_steps - 1, 0, -1)]
        assert fallbacks == np.count_nonzero(itm)


class TestEngine:
    def test_rows_and_quotients_match_single_query_references(self, tri_vol_2d, monkeypatch):
        # 2 x 1000 tiles: five queries and 2^12 samples cross both tile axes, ragged at the end
        monkeypatch.setattr(pricer, "QUERY_TILE", 2)
        monkeypatch.setattr(pricer, "SAMPLE_TILE", 1000)
        payoff = Payoff("geometric_put", 2, 100.0)
        diag = simulate_paths(build_vol(2, 0.2), TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**12, seed=85)
        tri = simulate_paths(tri_vol_2d, TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**12, seed=86)
        k = 2
        for paths, conditioning in ((diag, True), (diag, False), (tri, False)):
            n = paths.n_paths
            s_k = paths.s[:, k, :]
            # the five least in-the-money paths, where the raw denominator is healthy
            intrinsic = payoff(s_k)
            itm = np.flatnonzero(intrinsic > 0.0)
            x = s_k[itm[np.argsort(intrinsic[itm])[:5]]]
            g = payoff(paths.s[:, k + 1, :])
            if conditioning:
                kern = pricer._conditioned_kernel(paths, k, x, "P2eq", "M1")
                params = DiagonalKernelParams.from_model(paths.vol, 0.5, 0.75, BENCH_RATE, paths.s0)
                expected = np.array([kernel_h(params, xi, paths.w_at_date(k + 1)) for xi in x])
                rows = kern.build(kern.queries, kern.samples, np.empty((5, n)))
                np.testing.assert_allclose(rows, expected, rtol=1e-12)
            else:
                kern = pricer._raw_kernel(paths, k, x, "P2eq")
                ind = np.all(s_k[None, :, :] >= x[:, None, :], axis=-1)
                rows = kern.build(kern.queries, kern.samples, np.empty((5, n)))
                np.testing.assert_array_equal(rows * kern.weight, ind * path_weights(paths, k, k + 1))
            # a sub-range of queries and samples is the same slice of the rows
            np.testing.assert_allclose(kern.build(kern.queries[1:4], kern.samples[:, 1000:2500],
                                                  np.empty((3, 1500))),
                                       rows[1:4, 1000:2500], rtol=1e-14)
            num, den = pricer._kernel_sums(kern, g, n, n)
            for i, xi in enumerate(x):
                if conditioning:
                    ref_num, ref_den = conditioned_continuation(paths, k, k + 1, xi, g)
                else:
                    ref_num, ref_den = raw_continuation(paths, k, k + 1, xi, g)
                assert num[i] / den[i] == pytest.approx(ref_num / ref_den, rel=1e-12, abs=0.0)

    def test_pilot_matches_normalised_matrix_reference(self, tri_vol_2d, monkeypatch):
        # the copy-free pilot feeds pooled_plan the moments of the normalised pilot matrix
        monkeypatch.setattr(pricer, "QUERY_TILE", 100)
        monkeypatch.setattr(pricer, "SAMPLE_TILE", 1000)
        calls = []

        def recording_plan(*args, **kwargs):
            calls.append(args[:5])
            return pooled_plan(*args, **kwargs)

        monkeypatch.setattr(pricer, "pooled_plan", recording_plan)
        payoff = Payoff("geometric_put", 2, 100.0)
        diag = simulate_paths(build_vol(2, 0.2), TimeGrid(1.0, 4), 100.0, BENCH_RATE, 5000, seed=87)
        tri = simulate_paths(tri_vol_2d, TimeGrid(1.0, 4), 100.0, BENCH_RATE, 5000, seed=88)
        k = 2
        for paths, conditioning, calibration in ((diag, True, "closed"), (diag, True, "M1"),
                                                 (diag, True, "M2"), (tri, False, "M1"),
                                                 (tri, False, "M2")):
            s_k = paths.s[:, k, :]
            x = s_k[payoff(s_k) > 0.0]
            cf = payoff(paths.s[:, -1, :])
            if conditioning:
                kern = pricer._conditioned_kernel(paths, k, x, "P2opt", calibration)
            else:
                kern = pricer._raw_kernel(paths, k, x, "P2opt")
            calls.clear()
            plan, _ = pricer._date_plan(kern, cf, calibration)
            ref_calls, ref_plan = _normalised_matrix_pilot(kern, cf, calibration)
            assert (plan.regime, plan.n, plan.n_prime) == (ref_plan.regime, ref_plan.n, ref_plan.n_prime)
            # the reference runs every M2 round up to the cap; the pricer stops at its first repeated
            # state, so its calls are a prefix of the reference's and its plan the reference's last
            assert 1 <= len(calls) <= len(ref_calls)
            if calibration == "M2":
                assert len(calls) > 1
            else:
                assert len(calls) == len(ref_calls)
            for got, want in zip(calls, ref_calls):
                for g, w in zip(got, want):    # a, b, s1, s2, rho per query
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)

    def test_m2_carries_the_mean_the_next_round_keeps(self, tri_vol_2d, monkeypatch):
        # the state a round hands on is its plan and the one of (a, b) the next round does not
        # re-estimate, so a repeated state is a cycle and not an early stop
        plans, carried = [], []
        real_plan, real_fixed_point = pricer.pooled_plan, pricer.m2_fixed_point

        def recording_plan(*args, **kwargs):
            plans.append(args[:2])
            return real_plan(*args, **kwargs)

        def recording_fixed_point(plan, replan):
            def recorded(plan):
                new, key = replan(plan)
                carried.append(key)
                return new, key
            return real_fixed_point(plan, recorded)

        monkeypatch.setattr(pricer, "pooled_plan", recording_plan)
        monkeypatch.setattr(pricer, "m2_fixed_point", recording_fixed_point)
        payoff = Payoff("geometric_put", 2, 100.0)
        paths = simulate_paths(tri_vol_2d, TimeGrid(1.0, 4), 100.0, BENCH_RATE, 5000, seed=88)
        s_k = paths.s[:, 2, :]
        pricer._date_plan(pricer._raw_kernel(paths, 2, s_k[payoff(s_k) > 0.0], "P2opt"),
                          payoff(paths.s[:, -1, :]), "M2")
        assert len(carried) == len(plans) - 1 > 2
        # round i made plans[i + 1]; the round after it made plans[i + 2]
        for key, now, after in zip(carried, plans[1:], plans[2:]):
            kept = {m.tobytes() for m, m_after in zip(now, after) if np.array_equal(m, m_after)}
            assert key in kept

    def test_raw_m2_iterates_the_plan(self, tri_vol_2d, monkeypatch):
        # the raw estimator runs the M2 fixed point: more than one plan per date
        events = []
        real_plan, real_weights = pricer.pooled_plan, pricer.path_weights

        def plan(*args, **kwargs):
            events.append("plan")
            return real_plan(*args, **kwargs)

        def weights(paths, s_index, t_index):
            events.append("date")   # one call per raw date, before its plans
            return real_weights(paths, s_index, t_index)

        monkeypatch.setattr(pricer, "pooled_plan", plan)
        monkeypatch.setattr(pricer, "path_weights", weights)
        paths = simulate_paths(tri_vol_2d, TimeGrid(1.0, 4), 100.0, 0.0, 2**12, seed=84)
        payoff = Payoff("min_put", 2, 100.0)
        for calibration in ("M1", "M2"):
            events.clear()
            _mcm_induction("P2opt", conditioning=False, calibration=calibration)(paths, payoff)
            plans_per_date = []
            for e in events:
                if e == "plan":
                    plans_per_date[-1] += 1
                else:
                    plans_per_date.append(0)
            if calibration == "M1":
                assert plans_per_date == [1, 1, 1]
            else:
                assert len(plans_per_date) == 3 and max(plans_per_date) > 1

    def test_m2_plan_flags_the_iteration_cap(self, monkeypatch):
        # M2_EPS = 0 is never met, so the fixed point stops, flagged, at its first repeated state
        # or its cap; M2_EPS = 1 at the first round
        payoff = Payoff("geometric_put", 2, 100.0)
        paths = simulate_paths(build_vol(2, 0.2), TimeGrid(1.0, 4), 100.0, BENCH_RATE, 5000, seed=87)
        s_k = paths.s[:, 2, :]
        kern = pricer._conditioned_kernel(paths, 2, s_k[payoff(s_k) > 0.0], "P2opt", "M2")
        cf = payoff(paths.s[:, -1, :])
        monkeypatch.setattr(ratio, "M2_EPS", 0.0)
        assert not pricer._date_plan(kern, cf, "M2")[0].converged
        monkeypatch.setattr(ratio, "M2_EPS", 1.0)
        assert pricer._date_plan(kern, cf, "M2")[0].converged

    def test_layer_functions_are_looked_up_in_the_pricer(self, tri_vol_2d, monkeypatch):
        # an outside tracer swaps exactly these names in mcmpricer.pricer
        names = ("simulate_paths", "path_weights", "query_features", "sample_features",
                 "denominator_closed_form", "kernel_second_moment", "denominator_factors",
                 "pooled_plan")
        called = Counter()
        for name in names:
            real = getattr(pricer, name)

            def wrapper(*args, _name=name, _real=real, **kwargs):
                called[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(pricer, name, wrapper)
        payoff = Payoff("geometric_put", 2, 100.0)
        runs = (
            (0.2, "P2opt", True, {"simulate_paths", "query_features", "sample_features",
                                  "denominator_closed_form", "kernel_second_moment", "pooled_plan"}),
            (tri_vol_2d.mats[0], "P2opt", False, {"simulate_paths", "path_weights", "pooled_plan"}),
            (0.2, "P1", False, {"simulate_paths", "path_weights", "denominator_factors"}),
        )
        for vol_spec, method, conditioning, expected in runs:
            called.clear()
            price_mcm(payoff, vol_spec, 1.0, 4, 100.0, BENCH_RATE, 2**10, seed=3, method=method,
                      conditioning=conditioning, replications=1, n_workers=1)
            assert expected <= set(called), (method, conditioning, dict(called))


def _normalised_matrix_pilot(kern, cf, calibration):
    """Reference pilot: moments of a normalised copy of the weighted pilot matrix.

    Returns the (a, b, s1, s2, rho) of every pooled_plan call and the final plan.
    """
    n = len(cf)
    nq = min(pricer.PILOT_QUERIES, kern.n_queries)
    m = min(pricer.PILOT_SAMPLES, n)
    kmat = kern.build(kern.queries[:nq], kern.samples[:, :m], np.empty((nq, m))) * kern.weight[:m]
    closed = calibration == "closed" and kern.closed_s2 is not None
    scale = kern.closed_b[:nq] if closed else np.mean(np.abs(kmat), axis=1)
    good = scale > 0.0
    kn = np.where(good[:, None], kmat / np.where(good, scale, 1.0)[:, None], 0.0)
    rhs = np.stack([cf[:m], np.ones(m), cf[:m] ** 2], axis=1)
    a, b, _ = (kn @ rhs / m).T
    exy, ey2, ex2 = ((kn * kn) @ rhs / m).T
    s1 = np.sqrt(np.maximum(ex2 - a * a, 0.0))
    s2 = np.sqrt(np.maximum(ey2 - b * b, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = (exy - a * b) / (s1 * s2)
    if closed:
        b = np.where(good, 1.0, 0.0)
        s2 = np.where(good, kern.closed_s2[:nq] / np.where(good, scale, 1.0), 0.0)
        return [(a, b, s1, s2, rho)], pooled_plan(a, b, s1, s2, rho, n)
    calls = [(a, b, s1, s2, rho)]
    plan = pooled_plan(a, b, s1, s2, rho, n)
    if calibration != "M2":
        return calls, plan
    lam = plan.lam
    for _ in range(M2_MAX_ITER):
        msub = max(2, round(lam * m))
        if plan.regime == "case1":
            a = kn[:, :msub] @ cf[:msub] / msub
        else:
            b = kn[:, :msub].mean(axis=1)
        calls.append((a, b, s1, s2, rho))
        new = pooled_plan(a, b, s1, s2, rho, n)
        if abs(new.lam - lam) < M2_EPS:
            return calls, new
        lam = new.lam
        plan = new
    return calls, plan


def _full_range_tile_sums(kern, n_q, m, rhs, rhs_sq=None):
    """The tile loop over every sample 0..m-1, whatever its row of the right-hand side."""
    sums = np.zeros((n_q, rhs.shape[1]))
    sums_sq = None if rhs_sq is None else np.zeros((n_q, rhs_sq.shape[1]))
    buf = np.empty(min(pricer.QUERY_TILE, n_q) * min(pricer.SAMPLE_TILE, m))
    for lo in range(0, n_q, pricer.QUERY_TILE):
        hi = min(lo + pricer.QUERY_TILE, n_q)
        for s_lo in range(0, m, pricer.SAMPLE_TILE):
            s_hi = min(s_lo + pricer.SAMPLE_TILE, m)
            tile = buf[: (hi - lo) * (s_hi - s_lo)].reshape(hi - lo, s_hi - s_lo)
            kern.build(kern.queries[lo:hi], kern.samples[:, s_lo:s_hi], tile)
            sums[lo:hi] += tile @ rhs[s_lo:s_hi]
            if rhs_sq is not None:
                sums_sq[lo:hi] += np.square(tile, out=tile) @ rhs_sq[s_lo:s_hi]
    return sums, sums_sq


def _full_range_kernel_sums(kern, cf, n_num, n_den):
    """Numerator and denominator means from the full-range tile loop."""
    m = max(n_num, n_den)
    w = kern.weight
    rhs = np.zeros((m, 2))
    rhs[:n_num, 0] = (cf[:n_num] * w[:n_num]) / n_num
    rhs[:n_den, 1] = w[:n_den] / n_den
    sums, _ = _full_range_tile_sums(kern, kern.n_queries, m, rhs)
    return sums[:, 0], sums[:, 1]


def _counting(kern):
    """``kern`` with a row builder that records, per tile, its entry count, whether
    its samples are a view of kern's own sample array, and whether they have unit
    stride along the sample axis."""
    tiles = []

    def build(queries, samples, out):
        tiles.append((out.size, np.shares_memory(samples, kern.samples),
                      samples.strides[1] == samples.itemsize))
        return kern.build(queries, samples, out)

    return replace(kern, build=build), tiles


class TestKernelSupport:
    """The tile sums build K only on samples whose right-hand-side row is not all zero."""

    @pytest.fixture
    def kernels(self, tri_vol_2d, monkeypatch):
        # 2 x 1000 tiles: seven queries and 2^12 samples are ragged on both tile axes
        monkeypatch.setattr(pricer, "QUERY_TILE", 2)
        monkeypatch.setattr(pricer, "SAMPLE_TILE", 1000)
        diag = simulate_paths(build_vol(2, 0.2), TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**12, seed=85)
        tri = simulate_paths(tri_vol_2d, TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**12, seed=86)
        diag3 = simulate_paths(build_vol(3, 0.2), TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**12, seed=83)
        k = 2
        out = []
        for paths, conditioning in ((diag, True), (diag, False), (tri, False), (diag3, False)):
            payoff = Payoff("geometric_put", paths.vol.dim, 100.0)
            s_k = paths.s[:, k, :]
            intrinsic = payoff(s_k)
            itm = np.flatnonzero(intrinsic > 0.0)
            x = s_k[itm[np.argsort(intrinsic[itm])[:7]]]
            if conditioning:
                kern = pricer._conditioned_kernel(paths, k, x, "P2eq", "M1")
            else:
                kern = pricer._raw_kernel(paths, k, x, "P2eq")
            # a put never exercised pays nothing on the paths that end out of the money
            cf = payoff(paths.s[:, -1, :])
            assert 0 < np.count_nonzero(cf) < len(cf)
            out.append((kern, cf))
        return out

    @pytest.fixture
    def tile_kernels(self, kernels):
        # the kernels whose sums still build K: the conditioned one (d + 2 = 4 feature
        # rows) and the raw one at d = 3
        out = [(kern, cf) for kern, cf in kernels if kern.engine is pricer._tile_sums]
        assert [(kern.build, len(kern.samples)) for kern, _ in out] == [
            (pricer._exp_rows, 4), (pricer._indicator_rows, 3)]
        return out

    def test_sums_match_the_full_range_loop(self, kernels):
        for kern, cf in kernels:
            n, n_q = len(cf), kern.n_queries
            w = kern.weight
            # case-2 main sums: the numerator runs past the denominator's n over a zero-cf tail
            for n_num, n_den in ((n, 1500), (n, 1)):
                got = pricer._kernel_sums(kern, cf, n_num, n_den)
                want = _full_range_kernel_sums(kern, cf, n_num, n_den)
                for g, v in zip(got, want):
                    np.testing.assert_allclose(g, v, rtol=1e-12, atol=0.0)
            # a case-1 M2 round: the cf * w prefix alone
            msub = 2500
            rhs = (cf * w)[:msub, None] / msub
            got, _ = pricer._tile_sums(kern, n_q, msub, rhs)
            np.testing.assert_allclose(got, _full_range_tile_sums(kern, n_q, msub, rhs)[0],
                                       rtol=1e-12, atol=0.0)
            # an all-zero right-hand side builds nothing and sums to zero
            got, got_sq = pricer._tile_sums(kern, n_q, n, np.zeros((n, 2)), np.zeros((n, 3)))
            assert not got.any() and not got_sq.any()
            assert got.shape == (n_q, 2) and got_sq.shape == (n_q, 3)

    def test_entries_built_are_queries_times_support(self, tile_kernels):
        for kern, cf in tile_kernels:
            n, n_q = len(cf), kern.n_queries
            w = kern.weight
            rhs = np.zeros((n, 2))
            rhs[:, 0] = cf * w / n
            rhs[:1500, 1] = w[:1500] / 1500
            rhs_sq = np.zeros((n, 1))
            rhs_sq[-3:, 0] = 1.0     # a row that is zero in rhs but not in rhs_sq stays
            for args in ((rhs,), (rhs, rhs_sq), (np.zeros((n, 2)),)):
                support = np.any(np.concatenate(args, axis=1) != 0.0, axis=1)
                counting, tiles = _counting(kern)
                pricer._tile_sums(counting, n_q, n, *args)
                assert sum(size for size, _, _ in tiles) == n_q * np.count_nonzero(support)
                # row-major like the date's own samples, which the tile matmul reads fastest
                assert all(unit for _, _, unit in tiles)
            # a full support builds n_q * m entries on the date's own sample arrays, no copy
            for m, rhs in ((n, np.stack([cf * w, w], axis=1) / n), (2500, w[:2500, None])):
                counting, tiles = _counting(kern)
                pricer._tile_sums(counting, n_q, m, rhs)
                assert sum(size for size, _, _ in tiles) == n_q * m
                assert all(own and unit for _, own, unit in tiles)

    def test_full_support_is_bitwise_the_full_range_loop(self, tile_kernels):
        for kern, cf in tile_kernels:
            n, n_q = len(cf), kern.n_queries
            w = kern.weight
            cfw = cf * w
            # the pilot's moments, and the P1 / P2eq / case-1 main sums
            rhs = np.stack([cfw, w, np.abs(w)], axis=1) / n
            rhs_sq = np.stack([cfw * w, w * w, cfw * cfw], axis=1) / n
            for got, want in zip(pricer._tile_sums(kern, n_q, n, rhs, rhs_sq),
                                 _full_range_tile_sums(kern, n_q, n, rhs, rhs_sq)):
                assert np.array_equal(got, want)
            for n_num in (n, 1500):
                for got, want in zip(pricer._kernel_sums(kern, cf, n_num, n),
                                     _full_range_kernel_sums(kern, cf, n_num, n)):
                    assert np.array_equal(got, want)


def _reuse_date(dim, seed):
    """Paths, payoff, date, in-the-money queries and cash flows of one date at 2^12 paths."""
    paths = simulate_paths(build_vol(dim, 0.2), TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**12, seed=seed)
    payoff = Payoff("geometric_put", dim, 100.0)
    k = 2
    itm = np.flatnonzero(payoff(paths.s[:, k, :]) > 0.0)
    # a put never exercised pays nothing on the paths that end out of the money
    cf = np.exp(-BENCH_RATE) * payoff(paths.s[:, -1, :])
    assert 0 < np.count_nonzero(cf) < len(cf)
    return paths, payoff, k, itm, cf


def _forced_plan(n, n_prime):
    """A pooled_plan that returns fixed cuts: n for the denominator, n_prime for the numerator."""
    return lambda *args: ratio.QuotientPlan("case1" if n >= n_prime else "case2", 0.5, 0.0, n, n_prime)


class TestPilotReuse:
    """P2opt's main sums take the pilot's sums over the pilot samples for the pilot queries."""

    @pytest.fixture(autouse=True)
    def small_pilot(self, monkeypatch):
        # 3 x 700 tiles, a 42-query pilot (whole query tiles) over 1500 of the 4096 samples
        monkeypatch.setattr(pricer, "QUERY_TILE", 3)
        monkeypatch.setattr(pricer, "SAMPLE_TILE", 700)
        monkeypatch.setattr(pricer, "PILOT_QUERIES", 42)
        monkeypatch.setattr(pricer, "PILOT_SAMPLES", 1500)

    @pytest.mark.parametrize("dim,conditioning,calibrations", [
        (2, True, ("closed", "M1", "M2")),     # the exp kernel
        (3, False, ("M1", "M2")),              # the raw kernel on tiles: signed weights
    ])
    @pytest.mark.parametrize("cuts,pilot_queries,pilot_samples", [
        (None, 42, 1500),               # the pilot's own plan
        ((4096, 2500), 42, 1500),       # both cuts past the pilot samples
        ((4096, 1200), 42, 1500),       # case 1: the numerator cut below them
        ((900, 4096), 42, 1500),        # case 2: the denominator cut below them
        ((1400, 1000), 42, 1500),       # both below: nothing to reuse
        ((4096, 1500), 42, 1500),       # a cut at the pilot's edge
        ((4096, 3000), 10**6, 1500),    # every query is a pilot query
        ((3000, 4096), 42, 10**6),      # the pilot takes every sample
    ])
    def test_main_sums_match_the_dense_prefix_loop(self, dim, conditioning, calibrations, cuts,
                                                    pilot_queries, pilot_samples, monkeypatch):
        monkeypatch.setattr(pricer, "PILOT_QUERIES", pilot_queries)
        monkeypatch.setattr(pricer, "PILOT_SAMPLES", pilot_samples)
        if cuts is not None:
            monkeypatch.setattr(pricer, "pooled_plan", _forced_plan(*cuts))
        calls = []
        real = pricer._kernel_sums

        def recording(kern, cf, n_num, n_den, pilot=None):
            out = real(kern, cf, n_num, n_den, pilot)
            calls.append((kern, n_num, n_den, pilot, out))
            return out

        monkeypatch.setattr(pricer, "_kernel_sums", recording)
        paths, payoff, k, itm, cf = _reuse_date(dim, seed=93 + dim)
        assert len(itm) > 42
        for calibration in calibrations:
            calls.clear()
            _mcm_continuation(paths, payoff, k, itm, cf, method="P2opt", conditioning=conditioning,
                              calibration=calibration)
            (kern, n_num, n_den, pilot, (num, den)), = calls
            assert kern.engine is pricer._tile_sums and pilot is not None
            if cuts is not None:
                assert (n_den, n_num) == cuts
            want_num, want_den = _full_range_kernel_sums(kern, cf, n_num, n_den)
            np.testing.assert_allclose(num, want_num, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(den, want_den, rtol=1e-12, atol=0.0)
            # the queries past the pilot's take the call made without a pilot
            nq = len(pilot[1])
            for got, plain in zip((num, den), real(kern, cf, n_num, n_den)):
                assert np.array_equal(got[nq:], plain[nq:])
                if max(n_num, n_den) < pilot[0]:
                    assert np.array_equal(got, plain)

    @pytest.mark.parametrize("dim,conditioning,calibration", [
        (2, True, "closed"), (2, True, "M1"), (3, False, "M1")])
    def test_no_pilot_entry_is_built_twice(self, dim, conditioning, calibration, monkeypatch):
        # both cuts at or past the pilot's 1500 samples
        monkeypatch.setattr(pricer, "pooled_plan", _forced_plan(4096, 2500))
        counts = []
        make = "_conditioned_kernel" if conditioning else "_raw_kernel"
        real = getattr(pricer, make)

        def counted(*args):
            kern = real(*args)
            # every query row and sample column is distinct: look them up by value
            query_index = {row.tobytes(): i for i, row in enumerate(kern.queries)}
            sample_index = {col.tobytes(): p for p, col in enumerate(np.ascontiguousarray(kern.samples.T))}
            built = np.zeros((kern.n_queries, kern.samples.shape[1]), dtype=int)
            counts.append(built)

            def build(queries, samples, out):
                qi = [query_index[row.tobytes()] for row in queries]
                pi = [sample_index[col.tobytes()] for col in np.ascontiguousarray(samples.T)]
                built[np.ix_(qi, pi)] += 1
                return kern.build(queries, samples, out)

            return replace(kern, build=build)

        monkeypatch.setattr(pricer, make, counted)
        paths, payoff, k, itm, cf = _reuse_date(dim, seed=93 + dim)
        _mcm_continuation(paths, payoff, k, itm, cf, method="P2opt", conditioning=conditioning,
                          calibration=calibration)
        built, = counts
        # the pilot built each of its entries once, and the main sums none of them again
        assert np.all(built[:42, :1500] == 1)
        assert built.max() == 1
        # past the pilot: the denominator's 4096 samples for every query
        assert np.all(built[42:] == 1) and np.all(built[:42, 1500:] == 1)

    def test_dominance_sums_take_one_main_call(self, tri_vol_2d, monkeypatch):
        paths = simulate_paths(tri_vol_2d, TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**12, seed=86)
        payoff = Payoff("geometric_put", 2, 100.0)
        s_k = paths.s[:, 2, :]
        kern = pricer._raw_kernel(paths, 2, s_k[payoff(s_k) > 0.0], "P2opt")
        assert kern.engine is pricer._dominance_sums
        cf = payoff(paths.s[:, -1, :])
        _, pilot = pricer._date_plan(kern, cf, "M1")
        calls = []
        counting = replace(kern, engine=lambda *args: calls.append(args[1:3]) or pricer._dominance_sums(*args))
        for got, plain in zip(pricer._kernel_sums(counting, cf, 4096, 2500, pilot),
                              pricer._kernel_sums(kern, cf, 4096, 2500)):
            assert np.array_equal(got, plain)
        assert calls == [(kern.n_queries, 4096)]


def _assert_within_dominance_tolerance(kern, n_q, m, rhs, got, want):
    """|got - want| <= 1e-14 x the sum of |rhs| over each query's samples, entry by entry.

    The raw weights are signed and rows cancel, so no relative bound holds;
    a query that dominates no sample must sum to exactly zero.
    """
    bound = 1e-14 * _full_range_tile_sums(kern, n_q, m, np.abs(rhs))[0]
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound)


class TestDominanceSums:
    """The raw kernel at d <= 2 sums by dominance counting, without building K."""

    @pytest.fixture
    def raw_kernels(self, tri_vol_2d, monkeypatch):
        # 100-query strip steps: every in-the-money path queries, about 20 ragged steps
        monkeypatch.setattr(pricer, "DOMINANCE_QUERY_TILE", 100)
        k = 2
        out = []
        for vol, seed in ((build_vol(1, 0.2), 82), (build_vol(2, 0.2), 85), (tri_vol_2d, 86)):
            paths = simulate_paths(vol, TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**12, seed=seed)
            payoff = Payoff("geometric_put", vol.dim, 100.0)
            s_k = paths.s[:, k, :]
            # every query is a sample, so each one ties with itself
            kern = pricer._raw_kernel(paths, k, s_k[payoff(s_k) > 0.0], "P2opt")
            assert kern.engine is pricer._dominance_sums
            out.append((kern, payoff(paths.s[:, -1, :])))
        # duplicated coordinates: samples and queries on a grid of half units, at d = 1 and 2
        for kern, cf in (out[0], out[-1]):
            out.append((replace(kern, queries=np.round(2.0 * kern.queries) / 2.0,
                                samples=np.round(2.0 * kern.samples) / 2.0), cf))
            assert len(np.unique(out[-1][0].samples[0])) < 200
        return out

    def test_sums_match_the_full_range_loop(self, raw_kernels):
        for kern, cf in raw_kernels:
            n, n_q = len(cf), kern.n_queries
            w = kern.weight
            # signed, positive, and zero on the paths that end out of the money
            rhs = np.stack([cf * w, w, np.abs(w)], axis=1) / n
            for m in (1, 2, 3, 1500, n):
                for q in (1, n_q):
                    got, got_sq = kern.sums(q, m, rhs[:m])
                    assert got_sq is None
                    _assert_within_dominance_tolerance(kern, q, m, rhs[:m], got,
                                                       _full_range_tile_sums(kern, q, m, rhs[:m])[0])

    def test_pilot_pair_takes_the_same_sums(self, raw_kernels):
        # K * K = K for an indicator: rhs_sq is summed as extra columns
        for kern, cf in raw_kernels:
            m = min(pricer.PILOT_SAMPLES, len(cf))
            nq = min(pricer.PILOT_QUERIES, kern.n_queries)
            w = kern.weight[:m]
            cfw = cf[:m] * w
            rhs = np.stack([cfw, w, np.abs(w)], axis=1) / m
            rhs_sq = np.stack([cfw * w, w * w, cfw * cfw], axis=1) / m
            got = kern.sums(nq, m, rhs, rhs_sq)
            want = _full_range_tile_sums(kern, nq, m, rhs, rhs_sq)
            for r, g, v in zip((rhs, rhs_sq), got, want):
                _assert_within_dominance_tolerance(kern, nq, m, r, g, v)

    @pytest.mark.parametrize("seed", [82, 83, 84])
    def test_d1_rounding_stays_bounded_at_2_16_samples(self, seed):
        # about m / 2 grid cells at d = 1: a one-level cumsum over them reached 5.8-9.3e-15 here
        paths = simulate_paths(build_vol(1, 0.2), TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**16, seed=seed)
        payoff = Payoff("geometric_put", 1, 100.0)
        s_k = paths.s[:, 2, :]
        kern = pricer._raw_kernel(paths, 2, s_k[payoff(s_k) > 0.0], "P2opt")
        assert kern.engine is pricer._dominance_sums
        cf, w = payoff(paths.s[:, -1, :]), kern.weight
        n, n_q = len(cf), kern.n_queries
        rhs = np.stack([cf * w, w, np.abs(w)], axis=1) / n
        got, _ = kern.sums(n_q, n, rhs)
        dense = _full_range_tile_sums(kern, n_q, n, np.concatenate([rhs, np.abs(rhs)], axis=1))[0]
        want, scale = dense[:, :3], dense[:, 3:]
        assert np.all(np.abs(got - want) <= 5e-15 * scale)

    def test_all_zero_right_hand_side_sums_to_zero(self, raw_kernels):
        for kern, cf in raw_kernels:
            n, n_q = len(cf), kern.n_queries
            got, got_sq = kern.sums(n_q, n, np.zeros((n, 2)), np.zeros((n, 3)))
            assert not got.any() and not got_sq.any()
            assert got.shape == (n_q, 2) and got_sq.shape == (n_q, 3)

    @pytest.mark.parametrize("dim,correlated,kind,method,calibration", [
        (1, False, "geometric_put", "P2opt", "M2"),
        (1, False, "geometric_put", "P1", "closed"),
        (2, False, "min_put", "P1", "closed"),
        (2, False, "geometric_put", "P2opt", "M2"),
        (2, True, "geometric_put", "P2opt", "M1"),
        (2, True, "max_call", "P2eq", "M1"),
    ])
    def test_prices_match_the_tile_loop(self, dim, correlated, kind, method, calibration, tri_vol_2d,
                                        monkeypatch):
        calls = []
        real = pricer._dominance_sums

        def counting(*args):
            calls.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(pricer, "_dominance_sums", counting)
        price = partial(price_mcm, Payoff(kind, dim, 100.0), tri_vol_2d.mats[0] if correlated else 0.2,
                        1.0, 5, 100.0, BENCH_RATE, 2**10 + 77, seed=12, method=method,
                        conditioning=False, replications=2, calibration=calibration)
        fast = price()
        assert calls
        calls.clear()
        monkeypatch.setattr(pricer._DateKernel, "sums", pricer._tile_sums)
        dense = price()
        assert not calls
        assert fast.values == dense.values and fast.fallbacks == dense.fallbacks


class TestTooling:
    def test_import_leaves_scipy_out(self):
        # a light import keeps set-up and the start-up of every pool worker short;
        # only a call that starts a process pool loads the pool's modules
        env = dict(os.environ, PYTHONPATH=str(Path(mcmpricer.__file__).resolve().parents[1]))
        modules = ["scipy", "multiprocessing", "concurrent.futures.process", "mcmpricer.bench", "argparse",
                   "mcmpricer._forkserver_main", "numpy.ma"]
        code = f"import sys, mcmpricer; print([m for m in {modules!r} if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_worker_blas_threads_are_one_and_restore(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        # a caller run as a script has a main module with a file and no spec; pytest's has a spec
        script = types.ModuleType("__main__")
        script.__file__, script.__spec__ = "script.py", None
        cases = product((None, "", os.pathsep.join(["/a", "/b"])), (None, "/set/by/the/caller.py"),
                        (sys.modules["__main__"], script))
        for pythonpath, caller_value, main in cases:
            for name, value in (("PYTHONPATH", pythonpath), (pricer._MAIN_PATH_VAR, caller_value)):
                if value is None:
                    monkeypatch.delenv(name, raising=False)
                else:
                    monkeypatch.setenv(name, value)
            monkeypatch.setitem(sys.modules, "__main__", main)
            with pytest.raises(RuntimeError):
                with pricer._worker_environment():
                    assert [os.environ[v] for v in pricer.BLAS_THREAD_VARS] == ["1"] * 3
                    # the package root first, then the caller's entries
                    assert os.environ["PYTHONPATH"].split(os.pathsep) == (
                        [pricer.PACKAGE_ROOT] + (pythonpath.split(os.pathsep) if pythonpath else []))
                    # the main script's absolute path, or nothing: never the caller's value
                    assert os.environ.get(pricer._MAIN_PATH_VAR) == (
                        os.path.join(multiprocessing.process.ORIGINAL_DIR, "script.py") if main is script
                        else None)
                    raise RuntimeError
            assert os.environ["OMP_NUM_THREADS"] == "7"
            assert "OPENBLAS_NUM_THREADS" not in os.environ
            assert "MKL_NUM_THREADS" not in os.environ
            assert os.environ.get("PYTHONPATH") == pythonpath
            assert os.environ.get(pricer._MAIN_PATH_VAR) == caller_value
        assert Path(pricer.PACKAGE_ROOT, "mcmpricer", "__init__.py").is_file()


class TestPriceMcm:
    def test_desk_scale_benchmark_band(self):
        payoff = Payoff("geometric_put", 1, 100.0)
        est = price_mcm(payoff, 0.2, 1.0, 10, 100.0, BENCH_RATE, 2**10, seed=42, replications=16)
        assert est.price == pytest.approx(4.789, abs=0.5)
        assert 0.0 < est.std < 0.4
        assert len(est.values) == 16

    def test_immediate_exercise_floor(self):
        payoff = Payoff("geometric_put", 1, 1000.0)
        est = price_mcm(payoff, 0.2, 1.0, 5, 100.0, BENCH_RATE, 2**10, seed=1, replications=2)
        assert est.price >= 900.0

    def test_monotone_vs_european(self):
        # American >= exercise-at-maturity on the same paths, up to MC noise
        for kind, d in (("geometric_put", 1), ("geometric_put", 5), ("min_put", 2), ("max_call", 2)):
            payoff = Payoff(kind, d, 100.0)
            vol = build_vol(d, 0.2)
            diffs = []
            for rep in range(8):
                paths = simulate_paths(vol, TimeGrid(1.0, 10), 100.0, BENCH_RATE, 2**11, seed=900 + rep)
                am, _ = _mcm_induction("P2opt")(paths, payoff)
                european = np.mean(np.exp(-paths.rate * paths.grid.maturity) * payoff(paths.s[:, -1, :]))
                diffs.append(am - european)
            diffs = np.array(diffs)
            slack = 3.0 * diffs.std() / np.sqrt(len(diffs))
            assert diffs.mean() >= -slack, f"{kind} d={d}: {diffs.mean():.4f} < -{slack:.4f}"

    def test_replication_workers_bit_identical(self):
        payoff = Payoff("geometric_put", 2, 100.0)
        serial = price_mcm(payoff, 0.2, 1.0, 4, 100.0, BENCH_RATE, 2**9, seed=5, replications=4, n_workers=1)
        parallel = price_mcm(payoff, 0.2, 1.0, 4, 100.0, BENCH_RATE, 2**9, seed=5, replications=4, n_workers=2)
        assert serial.values == parallel.values
        assert serial.price == parallel.price

    def test_p1_requires_diagonal_vol(self, tri_vol_2d):
        # the closed-form P1 denominator exists only for constant diagonal vol
        payoff = Payoff("min_put", 2, 100.0)
        piecewise = {"breaks": [0.0, 0.5, 2.0], "matrices": [np.diag([0.2, 0.2]), np.diag([0.3, 0.2])]}
        for vol_spec, conditioning in product((tri_vol_2d.mats[0], piecewise), (True, False)):
            with pytest.raises(NotDiagonalError):
                price_mcm(payoff, vol_spec, 1.0, 3, 100.0, 0.0, 512, seed=82, method="P1",
                          conditioning=conditioning, replications=1)

    def test_triangular_vol_falls_back_to_raw(self, tri_vol_2d):
        # conditioning asked for on a correlated vol runs the raw estimator
        payoff = Payoff("min_put", 2, 100.0)
        args = (payoff, tri_vol_2d.mats[0], 1.0, 3, 100.0, 0.0, 2048, 83)
        est = price_mcm(*args, method="P2eq", conditioning=True, replications=2)
        assert np.isfinite(est.price) and est.price > 0.0
        assert est.values == price_mcm(*args, method="P2eq", conditioning=False, replications=2).values

    @pytest.mark.parametrize("method,vol_spec,asked,conditioning,calibration", [
        ("P2opt", 0.2, "closed", True, "closed"), ("P2opt", [[0.2, 0.0], [0.1, 0.2]], "closed", False, "M1"),
        ("LS", 0.2, "closed", None, None), ("LS", [[0.2, 0.0], [0.1, 0.2]], "M2", None, None),
        ("P1", 0.2, "M1", True, None), ("P2eq", 0.2, "M2", True, None),
        ("P2eq", [[0.2, 0.0], [0.1, 0.2]], "closed", False, None)])
    def test_estimate_names_the_estimator_that_ran(self, method, vol_spec, asked, conditioning, calibration):
        # asked for conditioning: a correlated vol runs the raw estimator, and P2opt's "closed" the M1
        # pilot; a setting that does not apply (both for LS, the calibration for P1 and P2eq) is None
        est = price_mcm(Payoff("geometric_put", 2, 100.0), vol_spec, 1.0, 2, 100.0, BENCH_RATE, 64, 17,
                        method=method, replications=1, calibration=asked)
        assert (est.conditioning, est.calibration) == (conditioning, calibration)

    @pytest.mark.parametrize("vol_spec,conditioning", [
        ([[0.2, 0.0], [0.1, 0.2]], True), ([[0.2, 0.0], [0.1, 0.2]], False), (0.2, False)])
    def test_raw_closed_calibration_is_m1(self, vol_spec, conditioning):
        # the raw kernel has no closed moments: "closed" calibrates with the M1 pilot
        args = (Payoff("geometric_put", 2, 100.0), vol_spec, 1.0, 4, 100.0, BENCH_RATE, 2**10, 17)
        closed, m1 = (price_mcm(*args, method="P2opt", conditioning=conditioning, replications=2,
                                calibration=c) for c in ("closed", "M1"))
        assert closed.values == m1.values and closed.fallbacks == m1.fallbacks

    @pytest.mark.parametrize("dim,vol,method", [
        (2, "correlated", "P2opt"),  # raw dominance sums; "closed" calibrates with M1
        (3, "correlated", "P2opt"),  # raw tile engine
        (5, "diagonal", "P2opt"),  # conditioned, closed calibration
        (2, "diagonal", "LS"),
    ])
    def test_a_priced_call_leaves_no_cyclic_garbage(self, dim, vol, method):
        # every per-date array is freed by reference counting when its date is done
        corr = np.full((dim, dim), 0.3) + 0.7 * np.eye(dim)
        vol_spec = 0.2 * np.linalg.cholesky(corr) if vol == "correlated" else 0.2
        call = partial(price_mcm, Payoff("geometric_put", dim, 100.0), vol_spec, 1.0, 4, 100.0, BENCH_RATE,
                       2**10, seed=7, method=method, replications=1)
        assert cyclic_garbage(call) == 0


# Sweeps for the pool tests, defined at module level so that pool workers
# unpickle them by reference.
def _pid_sweep(paths, payoff):
    """The value of a replication is the id of the process that priced it."""
    return float(os.getpid()), 0


def _caller_fails(caller, marks, paths, payoff):
    """Raises in the calling process; a worker leaves one file in ``marks`` per replication."""
    if os.getpid() == caller:
        raise ZeroDivisionError("replication failed")
    (Path(marks) / f"{os.getpid()}-{time.perf_counter_ns()}").touch()
    return 0.0, 0


def _worker_fails(caller, marks, paths, payoff):
    """Raises in a worker; a replication of the caller waits up to 60 s until one has."""
    flag = Path(marks) / "failed"
    if os.getpid() != caller:
        flag.touch()
        raise ZeroDivisionError("replication failed")
    deadline = time.monotonic() + 60.0
    while not flag.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return 0.0, 0


def _worker_report(caller, marks, i):
    """A worker records its parent and BLAS variables; the caller waits up to 60 s for a record."""
    if os.getpid() != caller:
        record = {"ppid": os.getppid(), "blas": [os.environ.get(v) for v in pricer.BLAS_THREAD_VARS]}
        (Path(marks) / f"{os.getpid()}-{i}.json").write_text(json.dumps(record))
        return 0.0, 0
    deadline = time.monotonic() + 60.0
    while not list(Path(marks).glob("*.json")) and time.monotonic() < deadline:
        time.sleep(0.01)
    return 0.0, 0


def _import_report(caller, marks, job, i):
    """A worker records the modules that pricing ``i`` imported; the caller waits up to 60 s for a record."""
    if os.getpid() != caller:
        before = set(sys.modules)
        result = job(i)
        (Path(marks) / f"{os.getpid()}-{i}.json").write_text(json.dumps(sorted(set(sys.modules) - before)))
        return result
    deadline = time.monotonic() + 60.0
    while not list(Path(marks).glob("*.json")) and time.monotonic() < deadline:
        time.sleep(0.01)
    return 0.0, 0


# A script that logs each import of itself next to itself, then prices two parallel calls and a
# serial one under its main guard and prints whether their values agree.  {check} runs before the log.
_MAIN_SCRIPT = """
import json, sys
from pathlib import Path
{check}
with open(Path(__file__).with_suffix(".log"), "a") as log:
    log.write(__name__ + "\\n")
from mcmpricer import Payoff, price_mcm

if __name__ == "__main__":
    args = (Payoff("geometric_put", 2, 100.0), 0.2, 1.0, 3, 100.0, 0.0, 256, 1)
    serial = price_mcm(*args, replications=4, n_workers=1).values
    print(json.dumps([price_mcm(*args, replications=4, n_workers=2).values == serial for _ in range(2)]))
"""


# One parallel call in a fresh interpreter that stops the resource tracker
# before it exits, as perfbench/run.py does, and prints the forkserver's pid.
_EXIT_SCRIPT = """
from multiprocessing import forkserver, resource_tracker
from mcmpricer import Payoff, price_mcm
price_mcm(Payoff("geometric_put", 2, 100.0), 0.2, 1.0, 3, 100.0, 0.0, 256, 1, replications=4, n_workers=2)
print(forkserver._forkserver._forkserver_pid)
resource_tracker._resource_tracker._stop()
"""


# Serial and parallel calls in an interpreter that finds the package by a
# sys.path entry alone: no PYTHONPATH, and a working directory outside the
# source tree.  It prints a JSON record of what the test checks.
_PRELOAD_SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import forkserver, resource_tracker
from mcmpricer import Payoff, pricer, price_mcm

names = ("PYTHONPATH", *pricer.BLAS_THREAD_VARS, pricer._MAIN_PATH_VAR)
before = [os.environ.get(name) for name in names]
args = (Payoff("geometric_put", 2, 100.0), 0.2, 1.0, 3, 100.0, 0.0, 256, 1)
serial = price_mcm(*args, replications=4, n_workers=1)
parallel = price_mcm(*args, replications=4, n_workers=2)
after = [os.environ.get(name) for name in names]
# a new worker of the same server runs builtins before any job: only the server's preloads import
# the package, numpy.random and numpy.ma there, and its environment is the server's
with ProcessPoolExecutor(1, mp_context=pricer._forkserver_context()) as pool:
    modules = ("mcmpricer.pricer", "numpy.random", "numpy.ma", "mcmpricer._forkserver_main")
    preloaded = pool.submit(eval, f"[m in __import__('sys').modules for m in {modules!r}]").result()
    server_main_path = pool.submit(os.getenv, pricer._MAIN_PATH_VAR).result()
print(json.dumps({"equal": serial.values == parallel.values, "before": before, "after": after,
                  "preload": forkserver._forkserver._preload_modules, "preloaded": preloaded,
                  "server_main_path": server_main_path}))
resource_tracker._resource_tracker._stop()
"""


class _CheckedCounter:
    """A claim counter that fails every access to ``value`` made outside its lock."""

    def __init__(self):
        self._value = 0
        self.held = False

    @contextmanager
    def get_lock(self):
        self.held = True
        try:
            yield
        finally:
            self.held = False

    @property
    def value(self):
        assert self.held, "counter read outside its lock"
        return self._value

    @value.setter
    def value(self, new):
        assert self.held, "counter written outside its lock"
        self._value = new


# a piecewise vol whose breaks end at t = 0.5, before a maturity of 1
SHORT_VOL = {"breaks": [0.0, 0.5], "matrices": [[[0.2, 0.0], [0.0, 0.2]]]}


def _small_replicate(sweep, replications, n_workers):
    payoff = Payoff("geometric_put", 2, 100.0)
    job = partial(pricer._one_replication, sweep, payoff, build_vol(2, 0.2), TimeGrid(1.0, 4), 100.0,
                  BENCH_RATE, 2**9, 5)
    return pricer._replicate(job, replications, n_workers)


class TestReplicationPool:
    @pytest.mark.parametrize("replications", [2, 3, 5])
    def test_values_bitwise_equal_for_any_worker_count(self, replications, monkeypatch):
        sweep = _mcm_induction("P2opt", calibration="closed")
        serial = _small_replicate(sweep, replications, 1)
        for platform in ("linux", "darwin"):   # forkserver workers, then spawn workers
            monkeypatch.setattr(sys, "platform", platform)
            for n_workers in (2, 3, replications + 2):
                assert _small_replicate(sweep, replications, n_workers).values == serial.values

    @pytest.mark.parametrize("method", ["P2opt", "LS"])
    @pytest.mark.parametrize("replications,n_workers,n_paths",
                             [(0, 1, 64), (-1, 2, 64), (4, 0, 64), (4, -3, 64), (2, 2, 0), (4, 1, -1)])
    def test_out_of_range_counts_raise_before_any_work(self, method, replications, n_workers, n_paths,
                                                       monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("a replication or a worker started")

        monkeypatch.setattr(pricer, "simulate_paths", started)
        monkeypatch.setattr(multiprocessing, "get_context", started)
        with pytest.raises(ValueError, match=r"(replications|n_workers|n_paths) must be >= 1, got -?\d+"):
            price_mcm(Payoff("geometric_put", 1, 100.0), 0.2, 1.0, 2, 100.0, 0.0, n_paths, 1,
                      method=method, replications=replications, n_workers=n_workers)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("vol_spec,kwargs,error,match", [
        (0.2, {"method": "P3"}, ValueError, "method must be one of"),
        (0.2, {"calibration": "fancy"}, ValueError, "calibration must be one of"),
        ([[0.2, 0.0], [0.1, 0.2]], {"method": "P1"}, NotDiagonalError, "P1 needs"),
        ([[0.2, 0.1], [0.0, 0.2]], {}, NotTriangularError, "must vanish"),
        ([0.2, 0.2, 0.2], {}, ValueError, "expected 2 diagonal entries"),
        (0.2, {"s0": -1.0}, ValueError, "s0 must be positive and finite"),
        (0.2, {"s0": [100.0] * 3}, ValueError, "could not be broadcast"),
        (SHORT_VOL, {}, ValueError, "vol spec covers up to t=0.5"),
        ([[0.2, 0.1], [0.0, 0.2]], {"method": "LS"}, NotTriangularError, "must vanish"),
        ([0.2, 0.2, 0.2], {"method": "LS"}, ValueError, "expected 2 diagonal entries"),
        (0.2, {"method": "LS", "s0": -1.0}, ValueError, "s0 must be positive and finite"),
        (SHORT_VOL, {"method": "LS"}, ValueError, "vol spec covers up to t=0.5"),
        (0.2, {"method": "LS", "calibration": "fancy"}, ValueError, "calibration must be one of"),
        (0.2, {"r": np.nan}, ValueError, "r must be finite"),
        (0.2, {"r": np.inf}, ValueError, "r must be finite"),
        (0.2, {"s0": np.inf}, ValueError, "s0 must be positive and finite"),
        (0.2, {"s0": np.nan}, ValueError, "s0 must be positive and finite"),
        (0.2, {"maturity": np.nan}, ValueError, "maturity must be positive"),
        (0.2, {"method": "LS", "r": np.nan}, ValueError, "r must be finite"),
        (0.2, {"n_steps": 2.5}, TypeError, r"n_steps must be an integer, got 2\.5"),
        (0.2, {"n_paths": 100.5}, TypeError, r"n_paths must be an integer, got 100\.5"),
        (0.2, {"replications": 2.0}, TypeError, r"replications must be an integer, got 2\.0"),
        (0.2, {"n_workers": 2.0}, TypeError, r"n_workers must be an integer, got 2\.0"),
        (0.2, {"n_steps": True}, TypeError, r"n_steps must be an integer, got True"),
        (0.2, {"n_workers": True}, TypeError, r"n_workers must be an integer, got True"),
        (0.2, {"method": "LS", "n_paths": 64.0}, TypeError, r"n_paths must be an integer, got 64\.0"),
        (0.2, {"seed": 1.9}, TypeError, r"seed must be an integer, got 1\.9"),
        (0.2, {"seed": True}, TypeError, r"seed must be an integer, got True"),
        (0.2, {"seed": "7"}, TypeError, r"seed must be an integer, got '7'"),
        (0.2, {"seed": np.nan}, TypeError, r"seed must be an integer, got nan"),
        (0.2, {"seed": None}, TypeError, r"seed must be an integer, got None"),
        (0.2, {"method": "LS", "seed": 1.0}, TypeError, r"seed must be an integer, got 1\.0"),
        (0.2, {"seed": -1}, ValueError, r"seed must be in \[0, 2\*\*64\), got -1"),
        (0.2, {"seed": 2**64}, ValueError, r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
        (0.2, {"seed": 2**64 + 5}, ValueError, r"seed must be in \[0, 2\*\*64\), got 18446744073709551621"),
        (0.2, {"method": "LS", "seed": -1}, ValueError, r"seed must be in \[0, 2\*\*64\)"),
    ])
    def test_bad_estimator_or_vol_raises_before_any_work(self, vol_spec, kwargs, error, match, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("a replication or a worker started")

        monkeypatch.setattr(pricer, "simulate_paths", started)
        monkeypatch.setattr(multiprocessing, "get_context", started)
        args = {"maturity": 1.0, "n_steps": 2, "s0": 100.0, "r": 0.0, "n_paths": 64, "seed": 1,
                "replications": 4, "n_workers": 2, **kwargs}
        with pytest.raises(error, match=match):
            price_mcm(Payoff("geometric_put", 2, 100.0), vol_spec, **args)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_seeds_at_the_64_bit_bounds_price(self, seed):
        # the two ends of the seeds that price, each with replications of its own
        args = (Payoff("geometric_put", 1, 100.0), 0.2, 1.0, 2, 100.0, 0.0, 64)
        est = price_mcm(*args, seed, replications=2)
        assert np.all(np.isfinite(est.values))
        assert est.values != price_mcm(*args, 1, replications=2).values

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forkserver workers are Linux only")
    def test_linux_workers_fork_from_the_server_with_one_blas_thread(self, tmp_path):
        pricer._replicate(partial(_worker_report, os.getpid(), str(tmp_path)), 3, 2)
        records = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
        assert records
        for record in records:
            assert record["ppid"] != os.getpid()
            assert record["blas"] == ["1"] * 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forkserver workers are Linux only")
    def test_forkserver_is_gone_when_the_caller_exits(self):
        env = dict(os.environ, PYTHONPATH=str(Path(mcmpricer.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", _EXIT_SCRIPT], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0 and out.stderr == ""
        server = int(out.stdout)
        # no sleep: a server that the caller's exit did not stop and wait for would still be running
        with pytest.raises(ProcessLookupError):
            os.kill(server, 0)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forkserver workers are Linux only")
    def test_workers_start_with_the_package_found_by_sys_path_alone(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", *pricer.BLAS_THREAD_VARS)}
        env["OMP_NUM_THREADS"] = "3"
        env[pricer._MAIN_PATH_VAR] = "/set/by/the/caller.py"
        root = str(Path(mcmpricer.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", _PRELOAD_SCRIPT, root], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        record = json.loads(out.stdout)
        assert record["equal"]
        assert {"mcmpricer", "numpy.random", "numpy.ma"} <= set(record["preload"])
        assert record["preload"][-1] == "mcmpricer._forkserver_main"
        assert record["preloaded"] == [True] * 4
        # PYTHONPATH unset, OMP_NUM_THREADS 3, the other BLAS variables unset and the caller's main
        # path variable kept, as before the call; the server got none, as `python -c` has no script
        assert record["before"] == record["after"] == [None, None, "3", None, "/set/by/the/caller.py"]
        assert record["server_main_path"] is None

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forkserver workers are Linux only")
    @pytest.mark.parametrize("vol,sweep", [
        (0.2, _mcm_induction("P2opt", calibration="closed")),
        ([[0.2, 0.0], [0.06, 0.2 * np.sqrt(0.91)]], _mcm_induction("P2opt", conditioning=False)),
        (0.2, _ls_induction),
    ], ids=["conditioned-P2opt", "raw-correlated", "LS"])
    def test_a_worker_imports_no_module_while_it_prices(self, vol, sweep, tmp_path):
        # the server's preloads hold every module pricing needs; a lazy import would cost every
        # worker of every call its own import
        job = partial(pricer._one_replication, sweep, Payoff("geometric_put", 2, 100.0), build_vol(2, vol),
                      TimeGrid(1.0, 4), 100.0, BENCH_RATE, 2**9, 5)
        pricer._replicate(partial(_import_report, os.getpid(), str(tmp_path), job), 2, 2)
        records = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
        assert records == [[]]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forkserver workers are Linux only")
    @pytest.mark.parametrize("check,log", [
        ("", ["__main__", "__mp_main__"]),
        # the server runs with its own sys.argv, so there the script exits at import: then each
        # worker of each call re-runs it
        ("if sys.argv[1:2] != ['go']:\n    sys.exit('needs go')", ["__main__"] + ["__mp_main__"] * 2),
    ], ids=["imported-by-the-server", "re-run-by-each-worker"])
    def test_the_main_script_runs_once_in_the_server(self, check, log, tmp_path):
        script = tmp_path / "script.py"
        script.write_text(_MAIN_SCRIPT.format(check=check))
        env = dict(os.environ, PYTHONPATH=str(Path(mcmpricer.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, str(script), "go"], env=env, cwd=tmp_path, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0 and out.stderr == ""
        assert json.loads(out.stdout) == [True, True]
        assert script.with_suffix(".log").read_text().split() == log

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forkserver workers are Linux only")
    def test_the_server_imports_a_script_that_imports_its_sibling(self, tmp_path):
        # run as a/s.py from a's parent, the script finds a/helper.py only through its own directory
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "helper.py").write_text("")
        script = tmp_path / "a" / "s.py"
        script.write_text(_MAIN_SCRIPT.format(check="import helper"))
        env = dict(os.environ, PYTHONPATH=str(Path(mcmpricer.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, os.path.join("a", "s.py"), "go"], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0 and out.stderr == ""
        assert json.loads(out.stdout) == [True, True]
        assert script.with_suffix(".log").read_text().split() == ["__main__", "__mp_main__"]

    def test_caller_prices_while_workers_start(self):
        est = _small_replicate(_pid_sweep, 4, 3)
        assert float(os.getpid()) in est.values

    def test_claims_are_made_under_the_lock_in_index_order(self):
        counter = _CheckedCounter()
        assert pricer._drain(lambda i: i * i, 4, counter) == [(0, 0), (1, 1), (2, 4), (3, 9)]
        assert counter._value == 4

    def test_a_failing_claim_exhausts_the_counter(self):
        def job(i):
            if i == 1:
                raise ZeroDivisionError
            return i

        counter = _CheckedCounter()
        with pytest.raises(ZeroDivisionError):
            pricer._drain(job, 5, counter)
        assert counter._value == 5

    @pytest.mark.parametrize("sweep", [_caller_fails, _worker_fails])
    def test_failing_replication_reaches_the_caller_and_ends_the_pool(self, sweep, tmp_path):
        replications = 5
        with pytest.raises(ZeroDivisionError):
            _small_replicate(partial(sweep, os.getpid(), str(tmp_path)), replications, 2)
        assert multiprocessing.active_children() == []
        # the failure stopped the claims: the worker did not price every replication left
        priced = [p for p in tmp_path.iterdir() if p.name != "failed"]
        assert len(priced) < replications - 1


class TestPriceLs:
    def test_figure_band_d1(self):
        payoff = Payoff("geometric_put", 1, 100.0)
        est = price_mcm(payoff, 0.2, 1.0, 10, 100.0, BENCH_RATE, 2**10, seed=42, method="LS", replications=16)
        assert 4.6 <= est.price <= 4.95
        assert est.std < 0.35

    def test_deep_itm_matches_tree(self):
        payoff = Payoff("geometric_put", 1, 1000.0)
        est = price_mcm(payoff, 0.2, 1.0, 10, 100.0, BENCH_RATE, 2**11, seed=7, method="LS", replications=4)
        tree = tree_american_put(100.0, 1000.0, BENCH_RATE, 0.0, 0.2, 1.0, 2000)
        assert abs(est.price - tree) / tree < 0.01

    @pytest.mark.slow
    def test_agrees_with_mcm_at_scale(self):
        payoff = Payoff("geometric_put", 1, 100.0)
        am = price_mcm(payoff, 0.2, 1.0, 10, 100.0, BENCH_RATE, 2**14, seed=9, replications=8)
        al = price_mcm(payoff, 0.2, 1.0, 10, 100.0, BENCH_RATE, 2**14, seed=9, method="LS", replications=8)
        assert abs(am.price - al.price) <= 3.0 * np.hypot(am.std, al.std)

    @pytest.mark.slow
    def test_mcm_more_stable_in_time_steps(self):
        payoff = Payoff("geometric_put", 1, 100.0)
        args = (payoff, 0.2, 1.0)
        pm10 = price_mcm(*args, 10, 100.0, BENCH_RATE, 2**12, seed=42, replications=16)
        pm30 = price_mcm(*args, 30, 100.0, BENCH_RATE, 2**12, seed=42, replications=16)
        pl10 = price_mcm(*args, 10, 100.0, BENCH_RATE, 2**12, seed=42, method="LS", replications=16)
        pl30 = price_mcm(*args, 30, 100.0, BENCH_RATE, 2**12, seed=42, method="LS", replications=16)
        assert abs(pm30.price - pm10.price) <= abs(pl30.price - pl10.price)

    @pytest.mark.parametrize("vol_spec", [0.2, [[0.2, 0.0], [0.1, 0.2]]])
    def test_conditioning_and_calibration_do_not_apply(self, vol_spec):
        args = (Payoff("geometric_put", 2, 100.0), vol_spec, 1.0, 4, 100.0, BENCH_RATE, 2**9, 13)
        default = price_mcm(*args, method="LS", replications=2)
        other = price_mcm(*args, method="LS", conditioning=False, calibration="M2", replications=2)
        assert other.values == default.values and other.fallbacks == default.fallbacks
