"""The reference values: the geometric reduction, the binomial tree and the single-date check."""

import math

import numpy as np
import pytest

from mcmpricer import (
    conditional_expectation_check,
    geometric_equivalent_1d,
    lognormal_conditional_put,
    price_tree_1d,
    tree_american_put,
)
from mcmpricer.oracles import tree_converged

from conftest import BENCH_RATE


def _tree_pow_loop(s0, strike, r, q, sigma, maturity, n_tree_steps):
    """The CRR tree taking up^(i-j) and dn^j afresh at every backward step."""
    dt = maturity / n_tree_steps
    up = np.exp(sigma * np.sqrt(dt))
    dn = 1.0 / up
    p = (np.exp((r - q) * dt) - dn) / (up - dn)
    disc = np.exp(-r * dt)
    j = np.arange(n_tree_steps + 1)
    vals = np.maximum(strike - s0 * up ** (n_tree_steps - j) * dn**j, 0.0)
    for i in range(n_tree_steps - 1, -1, -1):
        st = s0 * up ** (i - np.arange(i + 1)) * dn ** np.arange(i + 1)
        vals = disc * (p * vals[:-1] + (1.0 - p) * vals[1:])
        np.maximum(vals, strike - st, out=vals)
    return float(vals[0])


class TestTreeOracle:
    @pytest.mark.parametrize("dim,n_tree_steps", [(d, n) for d in (1, 5, 10) for n in (5000, 10000)])
    def test_geometric_equivalents_bitwise_equal_to_pow_loop(self, dim, n_tree_steps):
        sig_g, q = geometric_equivalent_1d(dim, 0.2)
        args = (100.0, 100.0, BENCH_RATE, q, sig_g, 1.0, n_tree_steps)
        assert tree_american_put(*args) == _tree_pow_loop(*args)

    @pytest.mark.parametrize("strike,q,sigma,n_tree_steps", [
        (110.0, 0.03, 0.9, 2000),  # nonzero yield, high vol
        (1000.0, 0.0, 0.2, 2000),  # deep in the money: exercise at every node
        (100.0, 0.0, 0.2, 1),
        (100.0, 0.0, 0.2, 2),
        (105.0, 0.01, 0.3, 3),
    ])
    def test_edge_configs_bitwise_equal_to_pow_loop(self, strike, q, sigma, n_tree_steps):
        args = (100.0, strike, BENCH_RATE, q, sigma, 1.0, n_tree_steps)
        assert tree_american_put(*args) == _tree_pow_loop(*args)

    @pytest.mark.parametrize("q,sigma", [(0.0, 0.01), (1.0, 0.2)])  # p > 1, then p < 0
    def test_coarse_step_rejected(self, q, sigma):
        with pytest.raises(ValueError, match="outside"):
            tree_american_put(100.0, 100.0, BENCH_RATE, q, sigma, 1.0, 1)

    @pytest.mark.parametrize("dim,target", [(1, 4.918), (5, 1.583), (10, 0.890)])
    def test_reference_values(self, dim, target):
        value = price_tree_1d(dim, 100.0, 100.0, BENCH_RATE, 0.2, 1.0, 5000)
        assert value == pytest.approx(target, abs=0.005)

    def test_equivalent_yield(self):
        sig_g, q = geometric_equivalent_1d(4, 0.2)
        assert sig_g == pytest.approx(0.1)
        assert q == pytest.approx(0.5 * (0.04 - 0.01))

    def test_convergence_under_doubling(self):
        assert tree_converged(1, 100.0, 100.0, BENCH_RATE, 0.2, 1.0, n_tree_steps=2500)


class TestConditionalExpectationCheck:
    def test_atm_within_one_percent(self):
        mcm, oracle = conditional_expectation_check(100.0, n_paths=2**17)
        assert abs(mcm - oracle) / oracle < 0.01

    def test_identity_function_quotient_is_one(self, paths_1d_two_dates):
        from mcmpricer import conditioned_continuation

        ones = np.ones(paths_1d_two_dates.n_paths)
        num, den = conditioned_continuation(paths_1d_two_dates, 1, 2, 110.0, ones)
        assert num / den == 1.0


class TestGeometricReduction:
    @pytest.mark.parametrize("dim", range(1, 11))
    @pytest.mark.parametrize("spec", ["per_asset", "matrix"])
    def test_constant_specs_bitwise_equal_to_scalar(self, spec, dim):
        vol_spec = [0.2] * dim if spec == "per_asset" else 0.2 * np.eye(dim)
        assert geometric_equivalent_1d(dim, vol_spec) == geometric_equivalent_1d(dim, 0.2)

    def test_correlated_pair(self):
        """The raw-corr-d2 vol: 0.2 times the Cholesky factor of correlation 0.3."""
        vol = 0.2 * np.linalg.cholesky([[1.0, 0.3], [0.3, 1.0]])
        sig_g, q = geometric_equivalent_1d(2, vol)
        assert sig_g == pytest.approx(0.161245154965971, rel=1e-13)
        assert q == pytest.approx(0.007, rel=1e-12)
        assert price_tree_1d(2, 100.0, 100.0, BENCH_RATE, vol, 1.0) == pytest.approx(3.730, abs=5e-4)

    def test_piecewise_spec_rejected(self):
        spec = {"breaks": [0.0, 0.5, 2.0], "matrices": [0.2 * np.eye(2), 0.3 * np.eye(2)]}
        with pytest.raises(ValueError, match="piecewise"):
            geometric_equivalent_1d(2, spec)


# Valid arguments of each oracle, in call order; each case below changes one of them
_VALID = {
    tree_american_put: {"s0": 100.0, "strike": 100.0, "r": BENCH_RATE, "q": 0.0, "sigma": 0.2,
                        "maturity": 1.0, "n_tree_steps": 50},
    geometric_equivalent_1d: {"dim": 2, "vol_spec": 0.2},
    lognormal_conditional_put: {"x": 100.0, "strike": 100.0, "r": BENCH_RATE, "sigma": 0.2, "dt": 0.5},
    conditional_expectation_check: {"x": 100.0, "n_paths": 64, "seed": 3},
}


class TestInputChecks:
    @pytest.mark.parametrize("oracle,name,value,error", [
        (tree_american_put, "s0", -100.0, ValueError),
        (tree_american_put, "strike", math.nan, ValueError),
        (tree_american_put, "sigma", 0.0, ValueError),
        (tree_american_put, "maturity", 0.0, ValueError),
        (tree_american_put, "r", math.nan, ValueError),
        (tree_american_put, "q", math.inf, ValueError),
        (tree_american_put, "n_tree_steps", 0, ValueError),
        (tree_american_put, "n_tree_steps", 2.5, TypeError),
        (tree_american_put, "n_tree_steps", True, TypeError),
        (geometric_equivalent_1d, "dim", -1, ValueError),
        (geometric_equivalent_1d, "dim", 2.5, TypeError),
        (lognormal_conditional_put, "x", -1.0, ValueError),
        (lognormal_conditional_put, "dt", 0.0, ValueError),
        (lognormal_conditional_put, "sigma", math.inf, ValueError),
        (lognormal_conditional_put, "r", -math.inf, ValueError),
        (conditional_expectation_check, "x", -1.0, ValueError),
        (conditional_expectation_check, "n_paths", 64.0, TypeError),
        (conditional_expectation_check, "seed", -1, ValueError),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_rejected_before_any_work(self, oracle, name, value, error):
        args = {**_VALID[oracle], name: value}
        with pytest.raises(error, match=f"{name} must be"):
            oracle(*args.values())
