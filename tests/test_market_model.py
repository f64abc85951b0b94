import numpy as np
import pytest

from mcmpricer import TimeGrid, build_vol, market_model, simulate_paths
from mcmpricer.errors import NotEllipticError, NotTriangularError
from mcmpricer.rng import replication_seed, splitmix64, stream_normals

from conftest import BENCH_RATE


class TestTimeGrid:
    def test_regular_dates(self):
        grid = TimeGrid(1.0, 10)
        assert grid.dates[0] == 0.0
        assert grid.dates[-1] == 1.0
        assert np.all(np.diff(grid.dates) > 0)
        assert len(grid.dates) == 11

    @pytest.mark.parametrize("maturity,n", [(0.0, 5), (-1.0, 5), (1.0, 0)])
    def test_rejects_bad_args(self, maturity, n):
        with pytest.raises(ValueError):
            TimeGrid(maturity, n)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
    def test_rejects_non_integer_steps(self, n):
        with pytest.raises(TypeError, match="n_steps must be an integer"):
            TimeGrid(1.0, n)

    def test_numpy_integer_steps(self):
        assert len(TimeGrid(1.0, np.int64(4)).dates) == 5


class TestBuildVol:
    def test_scalar_inverse(self):
        vol = build_vol(1, 0.2)
        assert vol.invs[0][0, 0] == pytest.approx(5.0, abs=1e-14)

    def test_triangular_inverse_2x2(self, tri_vol_2d):
        expected = np.array([[5.0, 0.0], [-2.5, 5.0]])
        np.testing.assert_allclose(tri_vol_2d.invs[0], expected, atol=1e-12)

    @pytest.mark.parametrize("dim,error,match", [
        (0, ValueError, "dim must be >= 1, got 0"),
        (-1, ValueError, "dim must be >= 1, got -1"),
        (True, TypeError, "dim must be an integer, got True"),
        (2.5, TypeError, r"dim must be an integer, got 2\.5"),
    ])
    def test_rejects_a_dim_that_is_not_a_count(self, dim, error, match):
        with pytest.raises(error, match=match):
            build_vol(dim, 0.2)

    def test_zero_diagonal_not_elliptic(self):
        with pytest.raises(NotEllipticError):
            build_vol(2, [[0.2, 0.0], [0.1, 0.0]])

    def test_upper_entry_not_triangular(self):
        with pytest.raises(NotTriangularError):
            build_vol(2, [[0.2, 0.1], [0.0, 0.2]])

    @pytest.mark.parametrize("dim,spec,match,argument", [
        (1, float("nan"), "vol_spec must be finite", "vol_spec"),
        (2, [[0.2, 0.0], [float("nan"), 0.2]], "vol_spec must be finite", "vol_spec"),
        (2, [[0.2, 0.0], [float("inf"), 0.2]], "vol_spec must be finite", "vol_spec"),
        (1, {"breaks": [0.0, 0.5, 1.0], "matrices": [[[0.2]], [[float("nan")]]]}, "vol_spec must be finite",
         "vol_spec"),
        # a NaN last break would price as if its piece never ended
        (1, {"breaks": [0.0, 0.5, float("nan")], "matrices": [[[0.2]], [[0.3]]]}, "breaks must start at 0",
         None),
    ])
    def test_rejects_what_is_not_finite(self, dim, spec, match, argument):
        with pytest.raises(ValueError, match=match) as exc:
            build_vol(dim, spec)
        assert getattr(exc.value, "argument", None) == argument

    def test_last_break_may_be_infinite(self):
        vol = build_vol(1, {"breaks": [0.0, 0.5, float("inf")], "matrices": [[[0.2]], [[0.3]]]})
        assert vol.overlaps(0.25, 2.0) == [(0, 0.25, 0.5), (1, 0.5, 2.0)]

    def test_rho_sigma_identity_random(self):
        # computational content of the inverse-matrix requirement
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            mat = np.tril(rng.normal(0.0, 0.3, (d, d)))
            mat[np.diag_indices(d)] = rng.uniform(0.1, 0.5, d)
            vol = build_vol(d, mat)
            resid = np.abs(vol.invs[0] @ vol.mats[0] - np.eye(d)).max()
            assert resid <= 1e-12

    def test_piecewise_overlaps(self):
        spec = {"breaks": [0.0, 0.5, 1.0], "matrices": [[[0.2]], [[0.3]]]}
        vol = build_vol(1, spec)
        assert vol.overlaps(0.25, 0.75) == [(0, 0.25, 0.5), (1, 0.5, 0.75)]
        with pytest.raises(ValueError):
            vol.overlaps(0.0, 1.5)


class TestSimulation:
    def test_deterministic_drift_hook(self, monkeypatch):
        # all Brownian increments frozen at zero: pure drift
        monkeypatch.setattr(market_model, "stream_normals", lambda seed, m, block, shape: np.zeros(shape))
        vol = build_vol(1, 0.2)
        paths = simulate_paths(vol, TimeGrid(1.0, 4), 100.0, BENCH_RATE, 8, seed=1)
        expected = 100.0 * np.exp(BENCH_RATE - 0.02)
        np.testing.assert_allclose(paths.s[:, -1, 0], expected, rtol=1e-13)
        assert expected == pytest.approx(107.8219, abs=5e-4)

    def test_martingale_r0(self):
        vol = build_vol(2, [[0.2, 0.0], [0.1, 0.2]])
        paths = simulate_paths(vol, TimeGrid(1.0, 2), 100.0, 0.0, 2**16, seed=2)
        st = paths.s[:, -1, :]
        for i in range(2):
            stderr = st[:, i].std() / np.sqrt(st.shape[0])
            assert abs(st[:, i].mean() - 100.0) <= 4.0 * stderr

    def test_log_variance_matches_integral(self):
        spec = {"breaks": [0.0, 0.5, 1.0], "matrices": [[[0.2]], [[0.35]]]}
        vol = build_vol(1, spec)
        paths = simulate_paths(vol, TimeGrid(1.0, 2), 100.0, 0.05, 2**16, seed=3)
        logret = np.log(paths.s[:, -1, 0] / 100.0)
        target = 0.5 * 0.2**2 + 0.5 * 0.35**2
        var = logret.var()
        stderr = np.sqrt(2.0 / (len(logret) - 1)) * var  # var-of-variance, normal case
        assert abs(var - target) <= 3.0 * stderr

    def test_log_variance_per_asset_triangular(self, tri_vol_2d):
        # Var(log S^i_T) = integral of the i-th row sum of sigma^2
        paths = simulate_paths(tri_vol_2d, TimeGrid(1.0, 4), 100.0, 0.02, 2**16, seed=6)
        targets = np.sum(tri_vol_2d.mats[0] ** 2, axis=1)  # [0.04, 0.05]
        for i in range(2):
            logret = np.log(paths.s[:, -1, i] / 100.0)
            var = logret.var()
            stderr = np.sqrt(2.0 / (len(logret) - 1)) * var
            assert abs(var - targets[i]) <= 3.0 * stderr

    def test_pure_function_of_seed(self):
        vol = build_vol(1, 0.2)
        grid = TimeGrid(1.0, 3)
        a = simulate_paths(vol, grid, 100.0, 0.0, 4096, seed=9)
        b = simulate_paths(vol, grid, 100.0, 0.0, 4096, seed=9)
        c = simulate_paths(vol, grid, 100.0, 0.0, 4096, seed=10)
        assert a.s.tobytes() == b.s.tobytes()
        assert a.s.tobytes() != c.s.tobytes()

    def test_rejects_bad_s0(self):
        vol = build_vol(1, 0.2)
        with pytest.raises(ValueError):
            simulate_paths(vol, TimeGrid(1.0, 2), -5.0, 0.0, 16, seed=1)

    @pytest.mark.parametrize("kw,error,match", [
        # a truncated or reduced seed would alias another seed's paths
        ({"seed": 1.5}, TypeError, "seed must be an integer"),
        ({"seed": True}, TypeError, "seed must be an integer"),
        ({"seed": 2**64 + 3}, ValueError, "seed must be in"),
        ({"seed": 2**64}, ValueError, "seed must be in"),
        ({"seed": -1}, ValueError, "seed must be in"),
        ({"n_paths": True}, TypeError, "n_paths must be an integer"),
        ({"n_paths": 16.0}, TypeError, "n_paths must be an integer"),
        ({"r": float("nan")}, ValueError, "r must be finite"),
        ({"r": float("inf")}, ValueError, "r must be finite"),
    ], ids=["seed-float", "seed-bool", "seed-2**64+3", "seed-2**64", "seed-negative", "n_paths-bool",
            "n_paths-float", "r-nan", "r-inf"])
    def test_rejects_malformed_counts_seed_and_rate(self, kw, error, match):
        args = {"r": 0.0, "n_paths": 16, "seed": 1, **kw}
        with pytest.raises(error, match=match):
            simulate_paths(build_vol(1, 0.2), TimeGrid(1.0, 2), 100.0, **args)

    def test_numpy_integer_counts_and_seed_are_accepted(self):
        vol, grid = build_vol(1, 0.2), TimeGrid(1.0, 2)
        a = simulate_paths(vol, grid, 100.0, 0.0, np.int64(16), seed=np.uint64(2**64 - 1))
        b = simulate_paths(vol, grid, 100.0, 0.0, 16, seed=2**64 - 1)
        assert a.s.tobytes() == b.s.tobytes()

    def test_w_at_reads_stored_times_only(self):
        spec = {"breaks": [0.0, 0.3, 1.0], "matrices": [[[0.2]], [[0.3]]]}
        paths = simulate_paths(build_vol(1, spec), TimeGrid(1.0, 10), 100.0, 0.0, 8, seed=5)
        assert paths.w_at(0.3).tobytes() == paths.w[:, 3, :].tobytes()
        assert paths.w_at_date(3).tobytes() == paths.w[:, 4, :].tobytes()
        for t in (0.25, 0.3 + 1e-9, 1.5, -0.1):
            with pytest.raises(ValueError, match="no Brownian value stored"):
                paths.w_at(t)
        assert paths.y is None


class TestRngStreams:
    def test_splitmix_reference_values(self):
        # splitmix64(seed=0) first outputs, per the public-domain reference
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_stream_independent_of_call_order(self):
        a = stream_normals(1, 2, 3, (4,))
        _ = stream_normals(9, 9, 9, (100,))
        b = stream_normals(1, 2, 3, (4,))
        np.testing.assert_array_equal(a, b)

    def test_replication_seed_is_xor_splitmix(self):
        assert replication_seed(42, 7) == 42 ^ splitmix64(7)
        assert replication_seed(42, 0) != replication_seed(42, 1)
