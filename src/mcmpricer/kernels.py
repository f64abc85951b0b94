"""Conditioning layer: closed-form kernels for diagonal vol.

For constant diagonal volatility the weighted indicator of the continuation
estimator can be replaced by its conditional expectation given the terminal
Brownian vector, which is available in closed form per asset:

    h_k(x, w) = E[ H(S_s^k - x_k) W_{s,t}^k / S_s^k | W_t^k = w ],
    W_{s,t}^k = (t-s)(W_s^k + sigma_k s) - s(W_t^k - W_s^k).

The indicator threshold is taken from the exact distribution of
S_s = S0 exp((r - sigma^2/2) s + sigma W_s), drift included; the closed forms
are validated against deterministic quadrature, nested Monte Carlo and the
tower property in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, NotDiagonalError, require_positive
from .market_model import AssetPaths, TriangularVol

# A kernel mean at or below this has underflowed: the pricer's engine and
# conditioned_continuation treat it as a degenerate denominator
KERNEL_DEN_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class DiagonalKernelParams:
    """Per-asset constants of the closed-form kernel for one date pair (s, t).

    Completing the square in w writes each asset's kernel as a Gaussian bump
    h_k(x, w) = exp(c_k(x) - (q w - y_k(x))^2 / 2) with centre y and log
    height c (``bump``).  Under W_t ~ N(0, t), q W_t ~ N(0, s / (t - s)), so
    every closed moment of h_k is one Gaussian integral (``moment``).
    """

    sigma: np.ndarray
    s: float
    t: float
    rate: float
    s0: np.ndarray
    v: float = field(init=False)           # bridge std scale sqrt(s(t-s)/t)
    m: np.ndarray = field(init=False)      # sigma_k * v
    q: float = field(init=False)           # s / (t v)

    def __post_init__(self):
        if not 0.0 < self.s < self.t:
            raise ValueError(f"need 0 < s < t, got ({self.s}, {self.t})")
        s, t = self.s, self.t
        v = np.sqrt(s * (t - s) / t)
        object.__setattr__(self, "v", float(v))
        object.__setattr__(self, "m", self.sigma * v)
        object.__setattr__(self, "q", float(s / (t * v)))

    @classmethod
    def from_model(cls, vol: TriangularVol, s: float, t: float, rate: float, s0) -> "DiagonalKernelParams":
        if not (vol.is_diagonal and vol.is_constant):
            raise NotDiagonalError("closed-form kernels need constant diagonal volatility")
        sigma = np.diagonal(vol.mats[0]).copy()
        s0 = np.broadcast_to(np.asarray(s0, dtype=float), (vol.dim,))
        return cls(sigma=sigma, s=float(s), t=float(t), rate=float(rate), s0=s0.copy())

    def bump(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Per-asset centre y(x) and log height c(x) of the bump in q w; ``x`` is (d,) or (..., d)."""
        x = np.asarray(x, dtype=float)
        s, t, sig = self.s, self.t, self.sigma
        # u: the indicator threshold in units of the bridge std, shifted by m
        u = (np.log(x / self.s0) - self.rate * s + 0.5 * sig**2 * s) / (sig * self.v) + self.m
        shift = sig * s / (t * self.q)
        log_c = (
            sig**2 * s * (1.0 - 0.5 * s / t)
            - self.rate * s
            - np.log(self.s0)
            + 0.5 * np.log(t * s * (t - s) / (2.0 * np.pi))
            - shift * u
            + 0.5 * shift**2
        )
        return u - shift, log_c

    def moment(self, x, p: float) -> np.ndarray:
        """Per-asset closed moment E[h_k(x, W_t^k)^p] under W_t ~ N(0, t I)."""
        y, c = self.bump(x)
        g = 1.0 + p * self.s / (self.t - self.s)
        return np.exp(p * c - p * y**2 / (2.0 * g)) / np.sqrt(g)


def denominator_closed_form(params: DiagonalKernelParams, x):
    """Exact E[ H(S_s^k - x_k) W_{s,t}^k / S_s^k ], multiplied over assets.

    By the tower property this is the kernel's mean E[prod_k h_k(x_k, W_t^k)].
    ``x`` may be a single point (d,) or a batch (..., d).
    """
    out = np.prod(denominator_factors(params, x), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def denominator_factors(params: DiagonalKernelParams, x) -> np.ndarray:
    """Per-asset factors of denominator_closed_form, shape of ``x``."""
    return params.moment(x, 1.0)


def kernel_h(params: DiagonalKernelParams, x, w: np.ndarray) -> np.ndarray:
    """Product over assets of the conditional kernels h_k(x_k, w^k).

    ``w`` holds terminal Brownian vectors with shape (..., d); the result
    drops the last axis.  Strictly positive for finite arguments.
    """
    y, c = params.bump(x)
    qw = params.q * np.asarray(w, dtype=float)
    return np.exp(np.sum(c - 0.5 * (qw - y) ** 2, axis=-1))


def kernel_second_moment(params: DiagonalKernelParams, x):
    """Closed-form E[ prod_k h_k(x_k, W_t^k)^2 ] under W_t ~ N(0, t I).

    Used by the closed calibration mode to get the denominator variance
    without simulation.  ``x`` may be a single point or a batch (..., d).
    """
    out = np.prod(params.moment(x, 2.0), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def query_features(params: DiagonalKernelParams, x: np.ndarray) -> np.ndarray:
    """Per-query feature rows U so that log K = U @ sample_features(...).T.

    ``x`` has shape (n_query, d); the result has shape (n_query, d + 2):
    [y, sum_k (c_k - y_k^2 / 2), 1].
    """
    y, c = params.bump(np.atleast_2d(x))
    const = np.sum(c - 0.5 * y**2, axis=-1)
    return np.concatenate([y, const[:, None], np.ones((len(y), 1))], axis=1)


def sample_features(params: DiagonalKernelParams, w_t: np.ndarray) -> np.ndarray:
    """Per-sample feature rows V paired with query_features: [q w, 1, -|q w|^2 / 2]."""
    qw = params.q * np.atleast_2d(np.asarray(w_t, dtype=float))
    return np.concatenate([qw, np.ones((len(qw), 1)), -0.5 * np.sum(qw**2, axis=-1)[:, None]], axis=1)


def conditioned_continuation(
    paths: AssetPaths, s_index: int, t_index: int, x, values: np.ndarray
) -> tuple[float, float]:
    """Conditioned continuation components at a single query point.

    Returns the MC means of g(S_t) prod_k h_k(x_k, W_t^k) and of the kernel
    product over all paths: the single-query reference for the pricer's
    engine.  Raises NotDiagonalError unless the volatility is constant
    diagonal, and ValueError unless ``x`` is componentwise finite and
    positive.
    """
    dates = paths.grid.dates
    s, t = float(dates[s_index]), float(dates[t_index])
    params = DiagonalKernelParams.from_model(paths.vol, s, t, paths.rate, paths.s0)
    x = np.broadcast_to(np.asarray(x, dtype=float), (paths.dim,))
    require_positive(x=x)
    h = kernel_h(params, x, paths.w_at_date(t_index))
    num = float(np.mean(np.asarray(values, dtype=float) * h))
    den = float(np.mean(h))
    if den <= KERNEL_DEN_FLOOR:
        raise DegenerateDenominatorError(f"kernel denominator underflowed at x={x}")
    return num, den
