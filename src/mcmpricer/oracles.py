"""Reference values the pricer is checked against; ``price_mcm`` runs none of them.

Under constant vol the geometric mean of the assets is a 1D lognormal with a
continuous yield (``geometric_equivalent_1d``, the one reduction), so a CRR
binomial tree prices its American put.  In 1D, the exact conditional
expectation of a put over one date checks the conditioned estimator's
quotient.  Every function checks its inputs before any work: a count or
``dim`` that is not an integer (a bool is not one) raises TypeError; a
price, vol, time span or query point that is not finite and positive, a
rate or yield that is not finite, or a seed outside [0, 2**64) raises
ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import conditioned_continuation
from .market_model import TimeGrid, build_vol, simulate_paths
from .rng import SEED_LIMIT


def _require_integer(**counts) -> None:
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def _require_positive(**values) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# Binomial-tree oracle (1D equivalence of the geometric basket)
# ---------------------------------------------------------------------------

def geometric_equivalent_1d(dim: int, vol_spec) -> tuple[float, float]:
    """(vol, continuous yield) of the 1D lognormal carrying the geometric mean.

    ``vol_spec`` is any constant spec that ``build_vol`` takes: a scalar, d
    per-asset vols or a lower-triangular d x d matrix; a piecewise spec
    raises ValueError.  With rows sigma_i of the vol matrix, the log of the
    geometric mean of the d assets is normal with vol
    sigma_G = |vol^T 1| / d, and its drift falls short of the rate by
    q = sum_i |sigma_i|^2 / (2d) - sigma_G^2 / 2, absorbed as a
    dividend-like yield.  For d independent assets of equal vol sigma that
    is sigma_G = sigma / sqrt(d) and q = (sigma^2 - sigma_G^2) / 2.
    """
    _require_integer(dim=dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if isinstance(vol_spec, dict):
        raise ValueError("the geometric reduction needs a constant vol spec, got a piecewise one")
    vol = build_vol(dim, vol_spec).mats[0]
    sig_g = float(np.linalg.norm(vol.sum(axis=0))) / dim
    q = float(np.sum(vol * vol)) / (2.0 * dim) - 0.5 * sig_g**2
    return sig_g, q


def tree_american_put(
    s0: float, strike: float, r: float, q: float, sigma: float, maturity: float, n_tree_steps: int
) -> float:
    """CRR binomial value of an American put with a continuous yield.

    Node j of step i holds the asset (s0 up^(i-j)) dn^j.  The powers are
    taken once, so each backward step costs O(i) multiplies and no ``pow``;
    the values are bitwise those of taking the powers at every step.
    """
    _require_integer(n_tree_steps=n_tree_steps)
    if n_tree_steps < 1:
        raise ValueError(f"n_tree_steps must be >= 1, got {n_tree_steps}")
    _require_positive(s0=s0, strike=strike, sigma=sigma, maturity=maturity)
    _require_finite(r=r, q=q)
    dt = maturity / n_tree_steps
    up = np.exp(sigma * np.sqrt(dt))
    dn = 1.0 / up
    p = (np.exp((r - q) * dt) - dn) / (up - dn)
    if not 0.0 < p < 1.0:
        raise ValueError(f"tree step too coarse: risk-neutral p={p:.4f} outside (0,1)")
    disc = np.exp(-r * dt)
    k = np.arange(n_tree_steps + 1)
    s_up = s0 * up**k
    dn_pow = dn**k
    vals = np.maximum(strike - s_up[::-1] * dn_pow, 0.0)
    down = np.empty(n_tree_steps)
    exercise = np.empty(n_tree_steps)
    for i in range(n_tree_steps - 1, -1, -1):
        v, b, x = vals[: i + 1], down[: i + 1], exercise[: i + 1]
        # (1 - p) * vals[j + 1] before vals[j] is overwritten
        np.multiply(1.0 - p, vals[1 : i + 2], out=b)
        np.multiply(p, v, out=v)
        np.add(v, b, out=v)
        np.multiply(disc, v, out=v)
        np.multiply(s_up[i::-1], dn_pow[: i + 1], out=x)
        np.subtract(strike, x, out=x)
        np.maximum(v, x, out=v)
    return float(vals[0])


def price_tree_1d(
    dim: int, strike: float, s0: float, r: float, sigma, maturity: float, n_tree_steps: int = 5000
) -> float:
    """Tree value of the d-dimensional geometric-average American put.

    ``sigma`` is any constant vol spec of ``geometric_equivalent_1d``.
    """
    sig_g, q = geometric_equivalent_1d(dim, sigma)
    return tree_american_put(s0, strike, r, q, sig_g, maturity, n_tree_steps)


def tree_converged(dim: int, strike: float, s0: float, r: float, sigma, maturity: float,
                   n_tree_steps: int = 5000) -> bool:
    """True when doubling the tree steps moves the value by less than 5e-3."""
    a = price_tree_1d(dim, strike, s0, r, sigma, maturity, n_tree_steps)
    b = price_tree_1d(dim, strike, s0, r, sigma, maturity, 2 * n_tree_steps)
    return abs(a - b) < 5e-3


# ---------------------------------------------------------------------------
# Single-date conditional expectation check (1D oracle)
# ---------------------------------------------------------------------------

def lognormal_conditional_put(x: float, strike: float, r: float, sigma: float, dt: float) -> float:
    """Exact E[(K - S_t)_+ | S_s = x] for the 1D lognormal with drift r."""
    _require_positive(x=x, strike=strike, sigma=sigma, dt=dt)
    _require_finite(r=r)
    d1 = (np.log(x / strike) + (r + 0.5 * sigma**2) * dt) / (sigma * np.sqrt(dt))
    d2 = d1 - sigma * np.sqrt(dt)
    return float(strike * _norm_cdf(-d2) - x * np.exp(r * dt) * _norm_cdf(-d1))


def _norm_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def conditional_expectation_check(x: float, n_paths: int = 2**18, seed: int = 20260808) -> tuple[float, float]:
    """Single-date continuation quotient against the exact conditional law.

    Returns (mcm estimate, oracle value) for g = (K - S_t)_+ conditioned on
    S_s = x, with K = S0 = 100, sigma = 0.2, r = ln 1.1, s = 0.5 and t = 1:
    the conditioned estimator with shared numerator/denominator paths
    (equal counts) on a two-date grid.
    """
    _require_integer(n_paths=n_paths, seed=seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    strike, sigma, r = 100.0, 0.2, float(np.log(1.1))
    # the oracle first: it checks x before any path is drawn
    oracle = lognormal_conditional_put(x, strike, r, sigma, 0.5)
    paths = simulate_paths(build_vol(1, sigma), TimeGrid(1.0, 2), 100.0, r, n_paths, seed)
    g = np.maximum(strike - paths.s[:, -1, 0], 0.0)
    num, den = conditioned_continuation(paths, 1, 2, x, g)
    return num / den, oracle
