"""Malliavin weights: pi vectors, their covariance, and the aggregate Gamma.

For a date pair 0 < s < t the per-path weights are

    pi^{k,d} = 1 + sum_{j>=k} int_0^t phi_jk(u) dW^j_u,
    phi_jk(u) = rho_jk(u)/s on (0,s)  -  rho_jk(u)/(t-s) on (s,t),

with rho = sigma^{-1}.  The aggregate Gamma is the signed involution sum over
the matrix with diagonal pi^{k,d}, strict upper part Cov(pi^k, pi^l) and strict
lower part 1; it satisfies the recursion

    Gamma(S) = pi_k Gamma(S \\ k) - sum_{l in S, l > k} C_kl Gamma(S \\ {k,l})

over index subsets S, memoised here on bitmasks.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import DegenerateDenominatorError, DimensionTooLargeError, SIndexZeroError
from .market_model import AssetPaths, TriangularVol

DEN_FLOOR_SCALE = 1e-12
BRUTE_FORCE_MAX_DIM = 8


def _date_pair(paths: AssetPaths, s_index: int, t_index: int) -> tuple[float, float]:
    dates = paths.grid.dates
    if not (0 <= s_index < t_index < len(dates)):
        raise ValueError(f"need 0 <= s_index < t_index <= n, got ({s_index}, {t_index})")
    s, t = float(dates[s_index]), float(dates[t_index])
    if s == 0.0:
        raise SIndexZeroError("pi weights are singular at s = 0")
    return s, t


def compute_pi(paths: AssetPaths, s_index: int, t_index: int) -> np.ndarray:
    """Per-path pi vector for the date pair (t_s, t_t), shape (n_paths, d).

    rho is constant on each vol piece, so each stochastic integral is exact:
    the W difference across a piece of (0, s) or (s, t) times that piece's
    rho, one term per piece.
    """
    s, t = _date_pair(paths, s_index, t_index)
    near, far = np.zeros((2, paths.n_paths, paths.dim))
    for acc, a, b in ((near, 0.0, s), (far, s, t)):
        for vidx, lo, hi in paths.vol.overlaps(a, b):
            acc += (paths.w_at(hi) - paths.w_at(lo)) @ paths.vol.invs[vidx]
    return 1.0 + near / s - far / (t - s)


def compute_pi_covariance(vol: TriangularVol, s: float, t: float) -> np.ndarray:
    """Deterministic covariance matrix C_kl = Cov(pi^k, pi^l), shape (d, d)."""
    if not 0.0 < s < t:
        raise ValueError(f"need 0 < s < t, got ({s}, {t})")
    return vol.gram_rho(0.0, s) / s**2 + vol.gram_rho(s, t) / (t - s) ** 2


def _gamma_subset(mask: int, pi: np.ndarray, cov: np.ndarray, memo: dict[int, np.ndarray]) -> np.ndarray:
    """Gamma over the index subset ``mask``, filling ``memo`` with the subsets it visits."""
    got = memo.get(mask)
    if got is not None:
        return got
    k = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << k)
    out = pi[..., k] * _gamma_subset(rest, pi, cov, memo)
    l_mask = rest
    while l_mask:
        l = (l_mask & -l_mask).bit_length() - 1
        l_mask &= l_mask - 1
        out = out - cov[k, l] * _gamma_subset(rest & ~(1 << l), pi, cov, memo)
    memo[mask] = out
    return out


def gamma_recursive(pi: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Aggregate weight Gamma via the subset recursion, memoised over bitmasks.

    ``pi`` has shape (..., d); the result drops the last axis.  The
    recursion visits F(d+2) index subsets (the Fibonacci number: 144 at
    d = 10, not 2^d), each at O(d) array operations per path, instead of
    enumerating all involutions.  The memo of per-path arrays lives for one
    call and no closure holds it, so reference counting frees it when the
    call returns.
    """
    pi = np.asarray(pi, dtype=float)
    d = pi.shape[-1]
    if cov.shape != (d, d):
        raise ValueError(f"cov must be {d}x{d}, got {cov.shape}")
    return _gamma_subset((1 << d) - 1, pi, cov, {0: np.ones(pi.shape[:-1])})


def _involutions(d: int):
    for p in permutations(range(d)):
        if all(p[p[i]] == i for i in range(d)):
            yield p


def _signature(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def gamma_bruteforce(pi: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Oracle for gamma_recursive: explicit sum over all involutions.

    Enumerates every permutation p with p o p = Id, multiplies signature by
    the product of entries of the matrix A (diagonal pi, upper cov, lower 1).
    Bounded at d <= 8.
    """
    pi = np.asarray(pi, dtype=float)
    d = pi.shape[-1]
    if d > BRUTE_FORCE_MAX_DIM:
        raise DimensionTooLargeError(f"brute force enumeration capped at d={BRUTE_FORCE_MAX_DIM}")
    total = np.zeros(pi.shape[:-1])
    for p in _involutions(d):
        term = np.full(pi.shape[:-1], float(_signature(p)))
        for i in range(d):
            if p[i] == i:
                term = term * pi[..., i]
            elif i < p[i]:
                term = term * cov[i, p[i]]
            # lower entries A_{i, p(i)} with i > p(i) equal 1
        total = total + term
    return total


def aggregate_gamma(pi: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Gamma with the diagonal-vol shortcut Gamma = prod_k pi^k when C is diagonal."""
    off = cov - np.diag(np.diagonal(cov))
    if not np.any(off):
        return np.prod(pi, axis=-1)
    return gamma_recursive(pi, cov)


def path_weights(paths: AssetPaths, s_index: int, t_index: int) -> np.ndarray:
    """Full per-path weight Gamma * prod_i 1/S^i_{t_s}, shape (n_paths,).

    This is the random factor multiplying the indicator in the unconditioned
    continuation estimator; it does not depend on the query point.
    """
    s, t = _date_pair(paths, s_index, t_index)
    pi = compute_pi(paths, s_index, t_index)
    cov = compute_pi_covariance(paths.vol, s, t)
    gam = aggregate_gamma(pi, cov)
    return gam / np.prod(paths.s[:, s_index, :], axis=-1)


def raw_continuation(
    paths: AssetPaths, s_index: int, t_index: int, x, values: np.ndarray
) -> tuple[float, float]:
    """Unconditioned continuation estimator components at a single query point.

    Returns (numerator mean, denominator mean) of g(S_t) 1_{S_s >= x} w and
    1_{S_s >= x} w with w = Gamma / prod S_s; their quotient estimates
    E[g(S_t) | S_s = x].  Raises DegenerateDenominatorError when the
    denominator falls at or below its floor, signalling the caller to fall
    back (never exercise on unsupported regions).
    """
    x = np.broadcast_to(np.asarray(x, dtype=float), (paths.dim,))
    if np.any(x <= 0.0):
        raise ValueError("query point must be componentwise positive")
    values = np.asarray(values, dtype=float)
    if values.shape != (paths.n_paths,):
        raise ValueError(f"values must have shape ({paths.n_paths},)")

    w = path_weights(paths, s_index, t_index)
    ind = np.all(paths.s[:, s_index, :] >= x, axis=-1)
    wind = w * ind
    num = float(np.mean(values * wind))
    den = float(np.mean(wind))
    floor = DEN_FLOOR_SCALE * float(np.mean(np.abs(w)))
    if den <= floor:
        raise DegenerateDenominatorError(f"denominator mean {den:.3e} at or below floor {floor:.3e}")
    return num, den
