"""Conditioning layer: closed-form kernels for diagonal vol.

For constant diagonal volatility the weighted indicator of the continuation
estimator can be replaced by its conditional expectation given the terminal
Brownian vector, which is available in closed form per asset:

    h_k(x, w) = E[ H(S_s^k - x_k) W_{s,t}^k / S_s^k | W_t^k = w ],
    W_{s,t}^k = (t-s)(W_s^k + sigma_k s) - s(W_t^k - W_s^k).

The indicator threshold is taken from the exact distribution of
S_s = S0 exp((r - sigma^2/2) s + sigma W_s), drift included; the closed forms
are validated against nested Monte Carlo and the tower property in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, NotDiagonalError
from .market_model import AssetPaths, TriangularVol
from .weights import raw_continuation

SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class DiagonalKernelParams:
    """Precomputed per-asset constants of the closed-form kernel for one (s, t)."""

    sigma: np.ndarray
    s: float
    t: float
    rate: float
    s0: np.ndarray
    v: float = field(init=False)           # bridge std scale sqrt(s(t-s)/t)
    m: np.ndarray = field(init=False)      # sigma_k * v
    q: float = field(init=False)           # s / (t v)
    alpha: np.ndarray = field(init=False)  # exp(sigma_k^2 s)
    log_c: np.ndarray = field(init=False)  # log of the kernel prefactor

    def __post_init__(self):
        if not 0.0 < self.s < self.t:
            raise ValueError(f"need 0 < s < t, got ({self.s}, {self.t})")
        s, t = self.s, self.t
        v = np.sqrt(s * (t - s) / t)
        object.__setattr__(self, "v", float(v))
        object.__setattr__(self, "m", self.sigma * v)
        object.__setattr__(self, "q", float(s / (t * v)))
        object.__setattr__(self, "alpha", np.exp(self.sigma**2 * s))
        log_c = (
            self.sigma**2 * s
            - self.rate * s
            - np.log(self.s0)
            + 0.5 * np.log(t * s * (t - s))
            - np.log(SQRT_2PI)
        )
        object.__setattr__(self, "log_c", log_c)

    @classmethod
    def from_model(cls, vol: TriangularVol, s: float, t: float, rate: float, s0) -> "DiagonalKernelParams":
        if not (vol.is_diagonal and vol.is_constant):
            raise NotDiagonalError("closed-form kernels need constant diagonal volatility")
        s0 = np.broadcast_to(np.asarray(s0, dtype=float), (vol.dim,))
        return cls(sigma=vol.diagonal_sigmas(), s=float(s), t=float(t), rate=float(rate), s0=s0.copy())

    def beta(self, x) -> np.ndarray:
        """Indicator threshold in units of the time-s Gaussian, per asset."""
        x = np.asarray(x, dtype=float)
        return (np.log(x / self.s0) - self.rate * self.s + 0.5 * self.sigma**2 * self.s) / self.sigma

    def d1(self, x) -> np.ndarray:
        return (self.beta(x) + self.sigma * self.s) / np.sqrt(self.s)


def denominator_closed_form(params: DiagonalKernelParams, x):
    """Exact E[ H(S_s^k - x_k) W_{s,t}^k / S_s^k ], multiplied over assets.

    Full unnormalised value including the alpha_k = exp(sigma_k^2 s), the
    sqrt(s / 2 pi) factor, the 1/S0_k scaling and the drift discount.
    ``x`` may be a single point (d,) or a batch (..., d).
    """
    out = np.prod(denominator_factors(params, x), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def denominator_factors(params: DiagonalKernelParams, x) -> np.ndarray:
    d1 = params.d1(x)
    s, t = params.s, params.t
    return (
        (t - s)
        * params.alpha
        * np.exp(-params.rate * s)
        * np.sqrt(s)
        / (SQRT_2PI * params.s0)
        * np.exp(-0.5 * d1**2)
    )


def kernel_h(params: DiagonalKernelParams, x, w: np.ndarray) -> np.ndarray:
    """Product over assets of the conditional kernels h_k(x_k, w^k).

    ``w`` holds terminal Brownian vectors with shape (..., d); the result
    drops the last axis.  Strictly positive for finite arguments.
    """
    w = np.asarray(w, dtype=float)
    s, t = params.s, params.t
    u = params.beta(x) / params.v + params.m
    expo = (
        params.log_c
        - (params.sigma * s / t) * (params.sigma * s / 2.0 + w)
        - 0.5 * (u - params.q * w) ** 2
    )
    return np.exp(np.sum(expo, axis=-1))


def kernel_second_moment(params: DiagonalKernelParams, x):
    """Closed-form E[ prod_k h_k(x_k, W_t^k)^2 ] under W_t ~ N(0, t I).

    Used by the closed calibration mode to get the denominator variance
    without simulation.  ``x`` may be a single point or a batch (..., d).
    """
    t = params.t
    a = params.sigma * params.s / t
    u = params.beta(x) / params.v + params.m
    # h_k(w) = C e^{-a w - (u - q w)^2 / 2}; square and integrate the Gaussian.
    log_c2 = 2.0 * (params.log_c - params.sigma * params.s / t * (params.sigma * params.s / 2.0))
    alpha2 = params.q**2
    beta2 = 2.0 * u * params.q - 2.0 * a
    denom = 1.0 + 2.0 * alpha2 * t
    log_term = log_c2 - u**2 - 0.5 * np.log(denom) + beta2**2 * t / (2.0 * denom)
    out = np.exp(np.sum(log_term, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def query_features(params: DiagonalKernelParams, x: np.ndarray) -> np.ndarray:
    """Per-query feature rows U so that log K = U @ sample_features(...).T.

    ``x`` has shape (n_query, d); the result has shape (n_query, d + 2).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = params.beta(x) / params.v + params.m
    s, t = params.s, params.t
    const = np.sum(params.log_c - params.sigma**2 * s**2 / (2.0 * t), axis=-1) - 0.5 * np.sum(u**2, axis=-1)
    return np.concatenate([u, const[:, None], np.ones((len(x), 1))], axis=1)


def sample_features(params: DiagonalKernelParams, w_t: np.ndarray) -> np.ndarray:
    """Per-sample feature rows V paired with query_features, shape (n, d + 2)."""
    w_t = np.atleast_2d(np.asarray(w_t, dtype=float))
    s, t = params.s, params.t
    qw = params.q * w_t
    bw = np.sum(-(params.sigma * s / t) * w_t - 0.5 * (params.q * w_t) ** 2, axis=-1)
    return np.concatenate([qw, np.ones((len(w_t), 1)), bw[:, None]], axis=1)


def conditioned_continuation(
    paths: AssetPaths,
    s_index: int,
    t_index: int,
    x,
    values: np.ndarray,
    n_num: int | None = None,
    n_den: int | None = None,
    procedure: str = "P2",
) -> tuple[float, float]:
    """Conditioned continuation components at a single query point.

    Numerator is the MC mean of g(S_t) prod_k h_k(x_k, W_t^k); the denominator
    is the closed form (procedure "P1") or the MC mean of the kernel product
    (procedure "P2").  Falls back to the unconditioned raw estimator when the
    volatility is not constant diagonal.
    """
    if not (paths.vol.is_diagonal and paths.vol.is_constant):
        return raw_continuation(paths, s_index, t_index, x, values, n_num=n_num, n_den=n_den)
    dates = paths.grid.dates
    s, t = float(dates[s_index]), float(dates[t_index])
    params = DiagonalKernelParams.from_model(paths.vol, s, t, paths.rate, paths.s0)
    x = np.broadcast_to(np.asarray(x, dtype=float), (paths.dim,))
    if np.any(x <= 0.0):
        raise ValueError("query point must be componentwise positive")
    h = kernel_h(params, x, paths.w_at_date(t_index))
    values = np.asarray(values, dtype=float)
    n_num = paths.n_paths if n_num is None else int(n_num)
    num = float(np.mean((values * h)[:n_num]))
    if procedure == "P1":
        den = denominator_closed_form(params, x)
    elif procedure == "P2":
        n_den = paths.n_paths if n_den is None else int(n_den)
        den = float(np.mean(h[:n_den]))
    else:
        raise ValueError(f"unknown procedure {procedure!r}")
    floor = 1e-300
    if den <= floor:
        raise DegenerateDenominatorError(f"kernel denominator underflowed at x={x}")
    return num, den

