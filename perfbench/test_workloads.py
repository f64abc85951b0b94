"""Checks of the benchmark's tree oracle.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import pytest

from mcmpricer import price_tree_1d
from workloads import RATE, WORKLOADS, geometric_put_oracle, vol_matrix


@pytest.mark.parametrize("dim", [1, 2, 5, 10])
def test_diagonal_oracle_equals_tree_1d(dim):
    """At the benchmark's vol 0.2 the two reductions give the same bits."""
    oracle = geometric_put_oracle(vol_matrix(dim, 0.0))
    assert oracle == price_tree_1d(dim, 100.0, 100.0, RATE, 0.2, 1.0)


@pytest.mark.parametrize("dim,sigma", [(3, 0.3), (10, 0.3), (7, 0.45)])
def test_diagonal_oracle_matches_tree_1d_to_rounding(dim, sigma):
    oracle = geometric_put_oracle(vol_matrix(dim, 0.0, sigma))
    assert oracle == pytest.approx(price_tree_1d(dim, 100.0, 100.0, RATE, sigma, 1.0), rel=1e-12)


def test_correlated_oracle_value():
    wl = WORKLOADS["raw-corr-d2"]
    assert geometric_put_oracle(vol_matrix(wl.dim, wl.corr)) == pytest.approx(3.730, abs=5e-4)


def test_correlation_raises_basket_vol():
    """Positive correlation widens the geometric mean, so the put is worth more."""
    assert geometric_put_oracle(vol_matrix(2, 0.3)) > geometric_put_oracle(vol_matrix(2, 0.0))
