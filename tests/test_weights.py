import numpy as np
import pytest

from mcmpricer import (
    AssetPaths,
    TimeGrid,
    build_vol,
    compute_pi,
    compute_pi_covariance,
    gamma_bruteforce,
    gamma_recursive,
    lognormal_conditional_put,
    path_weights,
    raw_continuation,
    simulate_paths,
)
from mcmpricer.errors import DegenerateDenominatorError, DimensionTooLargeError, SIndexZeroError
from mcmpricer.weights import aggregate_gamma

from conftest import BENCH_RATE, cyclic_garbage


def _handmade_paths_1d(w_s, w_t):
    """Single 1D path with prescribed Brownian values at (0.5, 1.0)."""
    vol = build_vol(1, 0.2)
    grid = TimeGrid(1.0, 2)
    w = np.array([[[0.0], [w_s], [w_t]]])
    s = np.full((1, 3, 1), 100.0)
    return AssetPaths(
        vol=vol, grid=grid, s0=np.array([100.0]), rate=0.0,
        union=grid.dates, w=w, s=s,
    )


class TestPi:
    def test_direct_arithmetic(self):
        # w_s = w_t = 0.1: pi = 1 + 0.1/(0.2*0.5) - 0 = 2
        paths = _handmade_paths_1d(0.1, 0.1)
        assert compute_pi(paths, 1, 2)[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_s_zero_is_singular(self):
        paths = _handmade_paths_1d(0.1, 0.1)
        with pytest.raises(SIndexZeroError):
            compute_pi(paths, 0, 1)

    def test_mean_one(self, tri_vol_2d):
        paths = simulate_paths(tri_vol_2d, TimeGrid(1.0, 2), 100.0, 0.0, 2**16, seed=11)
        pi = compute_pi(paths, 1, 2)
        for k in range(2):
            stderr = pi[:, k].std() / np.sqrt(len(pi))
            assert abs(pi[:, k].mean() - 1.0) <= 4.0 * stderr

    def test_diagonal_matches_bridge_form(self):
        # pi^{k,k} = W-combination / (sigma_k s (t-s)) pathwise
        sig = np.array([0.2, 0.3, 0.15])
        vol = build_vol(3, sig)
        paths = simulate_paths(vol, TimeGrid(1.0, 2), 100.0, BENCH_RATE, 4096, seed=12)
        s, t = 0.5, 1.0
        ws = paths.w_at_date(1)
        wt = paths.w_at_date(2)
        w_st = (t - s) * (ws + sig * s) - s * (wt - ws)
        expected = w_st / (sig * s * (t - s))
        np.testing.assert_allclose(compute_pi(paths, 1, 2), expected, atol=1e-12)

    def test_piecewise_vol_pi_reads_one_difference_per_piece(self):
        # a break at 0.3 sits one ulp below t_3 = 0.30000000000000004, so the
        # sub-ulp union step [0.3, t_3] belongs to the near integral only
        spec = {"breaks": [0.0, 0.3, 1.0],
                "matrices": [[[0.2, 0.0], [0.1, 0.25]], [[0.3, 0.0], [-0.05, 0.15]]]}
        vol = build_vol(2, spec)
        paths = simulate_paths(vol, TimeGrid(1.0, 10), 100.0, 0.0, 512, seed=17)
        s, t = paths.grid.dates[3], paths.grid.dates[4]
        assert paths.union[3] == 0.3 < paths.union[4] == s and paths.union[5] == t
        w = paths.w
        near = w[:, 3] @ vol.invs[0] + (w[:, 4] - w[:, 3]) @ vol.invs[1]
        far = (w[:, 5] - w[:, 4]) @ vol.invs[1]
        expected = 1.0 + near / s - far / (t - s)
        np.testing.assert_allclose(compute_pi(paths, 3, 4), expected, rtol=0.0, atol=1e-12)


class TestPiCovariance:
    def test_diagonal_closed_form(self):
        vol = build_vol(2, [0.2, 0.4])
        c = compute_pi_covariance(vol, 0.5, 1.0)
        for k, sig in enumerate((0.2, 0.4)):
            assert c[k, k] == pytest.approx(1.0 / (sig**2 * 0.5) + 1.0 / (sig**2 * 0.5), rel=1e-12)
        assert c[0, 1] == 0.0

    def test_matches_mc_covariance(self, tri_vol_2d):
        paths = simulate_paths(tri_vol_2d, TimeGrid(1.0, 2), 100.0, 0.0, 2**17, seed=13)
        pi = compute_pi(paths, 1, 2)
        c = compute_pi_covariance(tri_vol_2d, 0.5, 1.0)
        np.testing.assert_allclose(c, [[125.0, -50.0], [-50.0, 100.0]], rtol=1e-12)
        centered = pi - 1.0
        for k in range(2):
            for l in range(2):
                prods = centered[:, k] * centered[:, l]
                stderr = prods.std() / np.sqrt(len(prods))
                assert abs(prods.mean() - c[k, l]) <= 4.0 * stderr

    def test_symmetric_psd(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            mat = np.tril(rng.normal(0.0, 0.2, (d, d)))
            mat[np.diag_indices(d)] = rng.uniform(0.15, 0.4, d)
            c = compute_pi_covariance(build_vol(d, mat), 0.3, 0.9)
            np.testing.assert_allclose(c, c.T, atol=1e-12)
            assert np.linalg.eigvalsh(c).min() >= -1e-10


class TestGamma:
    def test_d1_identity(self):
        pi = np.array([[3.7]])
        c = np.array([[9.9]])
        assert gamma_recursive(pi, c)[0] == 3.7
        assert gamma_bruteforce(pi, c)[0] == 3.7

    def test_d2_closed_form(self):
        pi = np.random.default_rng(2).normal(1.0, 2.0, (64, 2))
        c = np.array([[1.0, 0.7], [0.7, 1.0]])
        # the same two operations in the same order: bitwise equal
        assert np.array_equal(gamma_recursive(pi, c), pi[:, 0] * pi[:, 1] - c[0, 1])

    def test_d3_closed_form(self):
        pi = np.array([[1.5, -2.0, 0.5]])
        c = np.array([[1.0, 0.3, -0.4], [0.3, 1.0, 0.8], [-0.4, 0.8, 1.0]])
        expected = (1.5 * -2.0 * 0.5) - 0.3 * 0.5 - (-0.4) * (-2.0) - 0.8 * 1.5
        assert gamma_recursive(pi, c)[0] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_recursive_equals_bruteforce(self, d):
        rng = np.random.default_rng(100 + d)
        pi = rng.normal(1.0, 2.0, (200, d))
        c = rng.normal(0.0, 1.5, (d, d))
        c = 0.5 * (c + c.T)
        rec = gamma_recursive(pi, c)
        enum = gamma_bruteforce(pi, c)
        assert np.max(np.abs(rec - enum) / (1.0 + np.abs(enum))) <= 1e-10

    @pytest.mark.parametrize("d", range(1, 9))
    def test_leaves_no_cyclic_garbage(self, d):
        # the memo of per-path arrays is freed by reference counting when the call returns
        pi = np.random.default_rng(d).normal(1.0, 2.0, (64, d))
        c = np.eye(d) + 0.1
        assert cyclic_garbage(lambda: gamma_recursive(pi, c)) == 0

    def test_bruteforce_dimension_cap(self):
        with pytest.raises(DimensionTooLargeError):
            gamma_bruteforce(np.ones((1, 9)), np.eye(9))

    def test_diagonal_vol_factorisation(self):
        vol = build_vol(4, [0.2, 0.3, 0.25, 0.15])
        paths = simulate_paths(vol, TimeGrid(1.0, 2), 100.0, 0.0, 2048, seed=14)
        pi = compute_pi(paths, 1, 2)
        c = compute_pi_covariance(vol, 0.5, 1.0)
        np.testing.assert_allclose(gamma_recursive(pi, c), np.prod(pi, axis=-1), atol=1e-12)
        np.testing.assert_allclose(aggregate_gamma(pi, c), np.prod(pi, axis=-1), atol=0.0)


class TestRawContinuation:
    def test_identity_payoff_num_equals_den(self, paths_1d_two_dates):
        ones = np.ones(paths_1d_two_dates.n_paths)
        num, den = raw_continuation(paths_1d_two_dates, 1, 2, 100.0, ones)
        assert num == den

    def test_indicator_saturation_near_zero_query(self, paths_1d_two_dates):
        paths = paths_1d_two_dates
        g = np.maximum(100.0 - paths.s[:, -1, 0], 0.0)
        num, den = raw_continuation(paths, 1, 2, 1e-9, g)
        w = path_weights(paths, 1, 2)
        assert num == pytest.approx(np.mean(g * w), rel=1e-12)
        assert den == pytest.approx(np.mean(w), rel=1e-12)

    def test_degenerate_denominator(self, paths_1d_two_dates):
        g = np.ones(paths_1d_two_dates.n_paths)
        with pytest.raises(DegenerateDenominatorError):
            raw_continuation(paths_1d_two_dates, 1, 2, 1e9, g)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_rejects_a_query_that_is_not_finite_and_positive(self, paths_1d_two_dates, x):
        ones = np.ones(paths_1d_two_dates.n_paths)
        with pytest.raises(ValueError, match="x must be positive and finite"):
            raw_continuation(paths_1d_two_dates, 1, 2, x, ones)

    def test_weights_do_not_depend_on_query(self, paths_1d_two_dates):
        w1 = path_weights(paths_1d_two_dates, 1, 2)
        w2 = path_weights(paths_1d_two_dates, 1, 2)
        assert w1.tobytes() == w2.tobytes()

    def test_conditional_expectation_oracle_1d(self, paths_1d_two_dates):
        paths = paths_1d_two_dates
        g = np.maximum(100.0 - paths.s[:, -1, 0], 0.0)
        num, den = raw_continuation(paths, 1, 2, 100.0, g)
        oracle = lognormal_conditional_put(100.0, 100.0, BENCH_RATE, 0.2, 0.5)
        assert abs(num / den - oracle) / oracle < 0.01
