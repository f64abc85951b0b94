"""American/Bermudan pricing by backward stopping-time dynamic programming.

One entry point, ``price_mcm``, and one backward induction serve every
method, the Malliavin (MCM) estimators P1, P2eq and P2opt and the
Longstaff-Schwartz regression baseline LS alike; they differ only in the
continuation value of each date.  Exercise is allowed at t_1..t_n; the
date-0 value is the maximum of the immediate payoff and the mean discounted
cashflow.

The MCM continuation value at each exercise date is a quotient of Monte Carlo
means over the same path population (square Monte Carlo): every in-the-money
path queries an estimator built from all paths.  Estimator variants:

  * conditioning on:  numerator averages cashflow * prod_k h_k(x_k, W_t^k)
    with the closed-form kernels; denominator is closed form (P1) or the
    kernel mean (P2).
  * conditioning off: weighted indicator cashflow * 1_{S_s >= x} * Gamma / prod S_s.
  * P2eq uses equal numerator/denominator counts; P2opt calibrates the
    optimal split per date (pooled over query points).

Both variants estimate the same quotient E[cashflow K_x] / E[K_x] and differ
only in the kernel K_x, so one engine serves both: a per-date kernel
(``_DateKernel``) feeds one pilot and one main sum through its sums engine.
The exp kernel, and the raw kernel at d >= 3, build K in cache-sized tiles;
the raw indicator kernel at d <= 2 takes exact dominance sums instead, one
rank-space routine for both dimensions, without building K.  The pilot's
sums of K @ [cashflow * weight, weight] over its samples are kept: on the
tile engine, the main sums of the pilot's queries take them for every
sample count that covers the pilot's samples, and build K only past them.
"""

from __future__ import annotations

import atexit
import math
import os
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .errors import DimensionMismatchError, NotDiagonalError, require_choice
from .errors import require_count, require_finite, require_integer, require_positive, require_seed
from .kernels import (
    KERNEL_DEN_FLOOR,
    DiagonalKernelParams,
    denominator_closed_form,
    denominator_factors,
    kernel_second_moment,
    query_features,
    sample_features,
)
from .market_model import AssetPaths, TimeGrid, build_vol, initial_assets, simulate_paths
from .ratio import QuotientPlan, m2_fixed_point, pooled_plan
from .rng import replication_seed
from .weights import DEN_FLOOR_SCALE, path_weights

METHODS = ("P1", "P2eq", "P2opt", "LS")
CALIBRATIONS = ("closed", "M1", "M2")
PAYOFF_KINDS = ("geometric_put", "min_put", "max_call")
PILOT_QUERIES = 512
PILOT_SAMPLES = 4096
# Kernel tiles of QUERY_TILE queries x SAMPLE_TILE samples: 1 MiB of float64
# stays in a core's L2 cache from its build to its product, and rows of 4096
# or more samples keep numpy's broadcast comparisons (raw kernel at d >= 3) fast
QUERY_TILE = 32
SAMPLE_TILE = 4096
# Queries per strip step of the dominance sums: its (queries x cell width)
# index arrays stay well under a MiB
DOMINANCE_QUERY_TILE = 512
# Thread counts that OpenBLAS, OpenMP and MKL read when they load
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Payoff:
    """Contract payoff: geometric-average put, put on minimum, call on maximum."""

    kind: str
    dim: int
    strike: float

    def __post_init__(self):
        require_integer(dim=self.dim)
        require_choice(PAYOFF_KINDS, kind=self.kind)
        if self.kind in ("min_put", "max_call") and self.dim != 2:
            raise DimensionMismatchError(f"{self.kind} requires dim=2, got {self.dim}")
        require_count(DimensionMismatchError, dim=self.dim)
        require_positive(strike=self.strike)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return evaluate_payoff(self, s)


def evaluate_payoff(payoff: Payoff, s: np.ndarray) -> np.ndarray:
    """Payoff value for asset vectors of shape (..., d)."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] != payoff.dim:
        raise DimensionMismatchError(f"expected {payoff.dim} assets, got {s.shape[-1]}")
    k = payoff.strike
    if payoff.kind == "geometric_put":
        geo = np.exp(np.mean(np.log(s), axis=-1))
        return np.maximum(k - geo, 0.0)
    if payoff.kind == "min_put":
        return np.maximum(k - np.min(s, axis=-1), 0.0)
    return np.maximum(np.max(s, axis=-1) - k, 0.0)


@dataclass(frozen=True)
class PriceEstimate:
    """Replicated price with its spread and diagnostics.

    ``price`` is the mean of the R replication ``values``.  ``std`` is their
    population standard deviation (ddof = 0): the spread of one replication,
    not the standard error of ``price``, which is std / sqrt(R - 1).
    ``conditioning`` and ``calibration`` name the estimator that ran, as
    ``price_mcm`` resolved it, which can differ from what was asked; each
    is None where it does not apply (both for LS, the calibration for P1
    and P2eq).
    """

    price: float
    std: float
    values: tuple[float, ...]
    fallbacks: int
    runtime_s: float
    conditioning: bool | None = None
    calibration: str | None = None


# ---------------------------------------------------------------------------
# Continuation engine over one date (vectorised over query paths)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _DateKernel:
    """The kernel K_x of one exercise date, for every in-the-money query x.

    ``build(queries[lo:hi], samples[:, s_lo:s_hi], out)`` writes K for
    queries lo..hi-1 against samples s_lo..s_hi-1 into ``out`` (shape
    (hi-lo, s_hi-s_lo)) and returns it: exp(U V^T) for the conditioned
    estimator (queries U, samples V^T), the indicator 1{S_s >= x} for the raw
    one (queries x, samples S_s^T).  ``engine`` is the function behind
    ``sums``: ``_tile_sums``, which builds K tile by tile, or
    ``_dominance_sums`` for the raw kernel at d <= 2.
    ``weight`` is the per-sample weight: Gamma / prod S_s for the raw kernel,
    ones for the conditioned one.  ``closed_b`` is the closed-form
    denominator (P1) and ``closed_s2`` the closed-form denominator std
    (closed calibration); a denominator at or below ``floor`` is degenerate.
    """

    queries: np.ndarray
    samples: np.ndarray
    build: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    engine: Callable[..., tuple[np.ndarray, np.ndarray | None]]
    weight: np.ndarray
    closed_b: np.ndarray | None
    closed_s2: np.ndarray | None
    floor: float

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def sums(
        self, n_q: int, m: int, rhs: np.ndarray, rhs_sq: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """K @ rhs, and (K * K) @ rhs_sq when given, for queries 0..n_q-1 over samples 0..m-1."""
        return self.engine(self, n_q, m, rhs, rhs_sq)


def _exp_rows(u: np.ndarray, vt: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.matmul(u, vt, out=out)
    return np.exp(out, out=out)


def _indicator_rows(x: np.ndarray, s_t: np.ndarray, out: np.ndarray) -> np.ndarray:
    # out[q, p] = 1.0 if S_s^p >= x_q componentwise
    acc = s_t[0] >= x[:, 0, None]
    for j in range(1, len(s_t)):
        acc &= s_t[j] >= x[:, j, None]
    np.copyto(out, acc)
    return out


def _kernel_params(paths: AssetPaths, k: int) -> DiagonalKernelParams:
    dates = paths.grid.dates
    return DiagonalKernelParams.from_model(
        paths.vol, float(dates[k]), float(dates[k + 1]), paths.rate, paths.s0
    )


def _conditioned_kernel(
    paths: AssetPaths, k: int, x_itm: np.ndarray, method: str, calibration: str
) -> _DateKernel:
    """Closed-form conditioned kernel exp(U V^T) at date k (diagonal constant vol)."""
    params = _kernel_params(paths, k)
    vt = np.ascontiguousarray(sample_features(params, paths.w_at_date(k + 1)).T)
    u = query_features(params, x_itm)
    # P1 reads the closed denominator; only P2opt under closed calibration reads both moments
    closed = method == "P2opt" and calibration == "closed"
    closed_b = denominator_closed_form(params, x_itm) if closed or method == "P1" else None
    closed_s2 = None
    if closed:
        closed_s2 = np.sqrt(np.maximum(kernel_second_moment(params, x_itm) - closed_b**2, 0.0))
    return _DateKernel(u, vt, _exp_rows, _tile_sums, np.ones(paths.n_paths), closed_b, closed_s2,
                       KERNEL_DEN_FLOOR)


def _raw_kernel(paths: AssetPaths, k: int, x_itm: np.ndarray, method: str) -> _DateKernel:
    """Raw weighted-indicator kernel at date k; the closed denominator needs diagonal vol.

    At d <= 2 its sums are exact dominance sums; at d >= 3 the tile loop builds K.
    """
    s_t = np.ascontiguousarray(paths.s[:, k, :].T)
    w = path_weights(paths, k, k + 1)
    closed_b = None
    if method == "P1":
        params = _kernel_params(paths, k)
        # the closed form of the raw denominator reads |sigma_kk|: the weights carry its sign
        scale = np.abs(params.sigma) * params.s * (params.t - params.s)
        closed_b = np.prod(denominator_factors(params, x_itm) / scale, axis=-1)
    floor = DEN_FLOOR_SCALE * float(np.mean(np.abs(w)))
    engine = _dominance_sums if len(s_t) <= 2 else _tile_sums
    return _DateKernel(x_itm, s_t, _indicator_rows, engine, w, closed_b, None, floor)


def _tile_sums(
    kern: _DateKernel, n_q: int, m: int, rhs: np.ndarray, rhs_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """K @ rhs, and (K * K) @ rhs_sq when given, for queries 0..n_q-1 over samples 0..m-1.

    The sums engine of the exp kernel and of the raw kernel at d >= 3.
    ``rhs`` and ``rhs_sq`` hold one row per sample.  K is built only on the
    support, the samples whose row of ``rhs`` or ``rhs_sq`` is not all zero:
    a zero row adds nothing to the sums.  When the support is smaller than
    m (a case-2 numerator past n, a cash flow that is zero on most paths),
    the loop runs over a copy of the support's sample columns; otherwise over
    the date's own sample array, unchanged.  K is built one QUERY_TILE x
    SAMPLE_TILE tile at a time in one reused buffer; each tile is multiplied
    by its rows of ``rhs``, then squared in place and multiplied by its rows
    of ``rhs_sq``, and the products are summed into per-query accumulators.
    """
    # column by column: np.any(axis=1) over two or three columns is 3-5x slower
    nonzero = np.zeros(m, dtype=bool)
    for r in (rhs,) if rhs_sq is None else (rhs, rhs_sq):
        for col in r.T:
            nonzero |= col != 0.0
    support = np.flatnonzero(nonzero)
    samples = kern.samples
    if len(support) < m:
        # take keeps the sample rows C-contiguous; samples[:, support] comes back
        # column-major, and the conditioned tile matmul then runs ~10x slower
        samples, m, rhs = np.take(samples, support, axis=1), len(support), rhs[support]
        rhs_sq = None if rhs_sq is None else rhs_sq[support]
    sums = np.zeros((n_q, rhs.shape[1]))
    sums_sq = None if rhs_sq is None else np.zeros((n_q, rhs_sq.shape[1]))
    buf = np.empty(min(QUERY_TILE, n_q) * min(SAMPLE_TILE, m))
    for lo in range(0, n_q, QUERY_TILE):
        hi = min(lo + QUERY_TILE, n_q)
        for s_lo in range(0, m, SAMPLE_TILE):
            s_hi = min(s_lo + SAMPLE_TILE, m)
            tile = buf[: (hi - lo) * (s_hi - s_lo)].reshape(hi - lo, s_hi - s_lo)
            kern.build(kern.queries[lo:hi], samples[:, s_lo:s_hi], tile)
            sums[lo:hi] += tile @ rhs[s_lo:s_hi]
            if rhs_sq is not None:
                sums_sq[lo:hi] += np.square(tile, out=tile) @ rhs_sq[s_lo:s_hi]
    return sums, sums_sq


def _dominance_sums(
    kern: _DateKernel, n_q: int, m: int, rhs: np.ndarray, rhs_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The sums of ``_tile_sums`` for the raw indicator kernel at d <= 2, without building K.

    Row q of K @ rhs is the dominance sum of rhs over the samples p with
    S_s^p >= x_q componentwise, and K * K = K, so ``rhs_sq`` takes the same
    sum as extra columns.  Each coordinate is ranked by a sort, and
    searchsorted(side="left") turns x_q into c_q, the first rank whose value
    is >= x_q: the samples of rank >= c_q are exactly those with S_s >= x_q,
    in whatever order ties are ranked, the query's own sample included.  The
    sum is a rank-space square-root decomposition: the samples at or past the
    next whole cell on every axis sum through cumsums over a grid of cells w
    ranks wide, and one strip of fewer than w ranks per axis, in front of
    that corner, is checked sample by sample.  The cost is
    O(m log m + n_q d w + (m / w)^d) per column, with w = (m^d / n_q)^(1/(d+1)).
    At d = 1, w is about 2 ranks, so the grid has about m / 2 cells; its
    cumsum runs in two levels (``_two_level_cumsum``) to bound the rounding.
    """
    cols = rhs if rhs_sq is None else np.concatenate([rhs, rhs_sq], axis=1)
    n_cols = cols.shape[1]
    samples = kern.samples[:, :m]
    d = len(samples)
    # order[j]: the samples by ascending coordinate j, rank[j] its inverse;
    # start[j][q]: the first rank of query q on axis j
    order = [np.argsort(s_j) for s_j in samples]
    start = [np.searchsorted(s_j[o], x_j, side="left")
             for s_j, o, x_j in zip(samples, order, kern.queries[:n_q].T)]
    rank = []
    for o in order:
        r = np.empty(m, dtype=np.intp)
        r[o] = np.arange(m)
        rank.append(r)
    width = max(1, round((m**d / max(n_q, 1)) ** (1.0 / (d + 1))))
    g = -(-m // width)
    shape = (g + 1,) * d
    # the cell of ranks [i_j w, (i_j+1) w) on each axis j sits at g - i_j on that axis
    # of a (g+1)^d grid whose index 0 on every axis stays zero, so the prefix cumsums
    # along every axis hold there the sum over ranks >= i_j w on every axis j
    cell = np.ravel_multi_index([g - r // width for r in rank], shape)
    grid = np.empty(((g + 1) ** d, n_cols))
    for c in range(n_cols):
        grid[:, c] = np.bincount(cell, weights=cols[:, c], minlength=len(grid))
    if d == 1:
        _two_level_cumsum(grid)
    else:
        cube = grid.reshape(*shape, n_cols)
        for axis in range(d):
            np.cumsum(cube, axis=axis, out=cube)
    # whole[j]: the first cell edge at or past start[j]
    whole = [-(-s // width) * width for s in start]
    sums = grid[np.ravel_multi_index([g - e // width for e in whole], shape)]
    # strip j: ranks start[j]..whole[j]-1 on axis j, with rank >= whole[i] on the
    # axes i < j and >= start[i] on the axes i > j
    strips = []
    for j in range(d):
        # the columns in the strip's rank order, one row each, and a zero at m for the
        # positions a query leaves out
        sorted_cols = np.zeros((n_cols, m + 1))
        sorted_cols[:, :m] = cols[order[j]].T
        bounds = [(rank[i][order[j]], whole[i] if i < j else start[i]) for i in range(d) if i != j]
        strips.append((start[j], np.minimum(whole[j], m), bounds, sorted_cols))
    offsets = np.arange(width)
    for lo in range(0, n_q, DOMINANCE_QUERY_TILE):
        hi = min(lo + DOMINANCE_QUERY_TILE, n_q)
        for first, end, bounds, sorted_cols in strips:
            pos = first[lo:hi, None] + offsets
            inside = pos < end[lo:hi, None]
            for other_rank, bound in bounds:
                inside &= np.take(other_rank, pos, mode="clip") >= bound[lo:hi, None]
            pos[~inside] = m
            for c in range(n_cols):
                sums[lo:hi, c] += np.take(sorted_cols[c], pos).sum(axis=1)
    if rhs_sq is None:
        return sums, None
    return sums[:, : rhs.shape[1]], sums[:, rhs.shape[1]:]


def _two_level_cumsum(a: np.ndarray) -> None:
    """``np.cumsum(a, axis=0, out=a)`` in blocks of about sqrt(len(a)) rows, then over the block totals.

    Each prefix then carries the rounding of about 2 sqrt(len(a)) sequential
    additions instead of len(a).
    """
    n = len(a)
    size = math.isqrt(n) or 1
    blocks = np.zeros((-(-n // size) * size, a.shape[1]))
    blocks[:n] = a
    cube = blocks.reshape(-1, size, a.shape[1])
    np.cumsum(cube, axis=1, out=cube)
    cube[1:] += np.cumsum(cube[:-1, -1], axis=0)[:, None]
    a[:] = blocks[:n]


def _date_plan(kern: _DateKernel, cf: np.ndarray, calibration: str) -> tuple[QuotientPlan, tuple]:
    """Pooled sample-split plan for one exercise date (P2opt only), and the pilot's sums.

    The pilot takes the first PILOT_QUERIES queries against the first
    PILOT_SAMPLES samples, with X = cf * w * K and Y = w * K (w the
    per-sample weight).  Its moments are normalised to unit denominator
    mean: the closed form under closed calibration, otherwise the simulated
    mean of |w K|, which stays positive under the raw estimator's signed
    weights.  The split plan is invariant under that joint rescaling of X
    and Y, and kernel products can sit at 1e-30 in high dimension, far below
    any absolute floor.  The rescaling acts on the per-query moments, so the
    pilot rows are never copied.

    Returns the plan and the pilot (m, sums): the pilot's sample count and
    its unscaled sums of K @ [cf * w, w] over samples 0..m-1, one row per
    pilot query, which ``_kernel_sums`` reuses for the main sums.
    """
    n = len(cf)
    nq = min(PILOT_QUERIES, kern.n_queries)
    m = min(PILOT_SAMPLES, n)
    w = kern.weight[:m]
    cfw = cf[:m] * w
    first, second = kern.sums(nq, m, np.stack([cfw, w, np.abs(w)], axis=1) / m,
                              np.stack([cfw * w, w * w, cfw * cfw], axis=1) / m)
    pilot = (m, first[:, :2] * m)
    closed = calibration == "closed"
    scale = kern.closed_b[:nq] if closed else first[:, 2]
    good = scale > 0.0
    safe = np.where(good, scale, 1.0)

    def unit(v):
        # per-query moment of K / scale; 0 for a query without scale
        return np.where(good, v / safe, 0.0)

    a, b = unit(first[:, 0]), unit(first[:, 1])
    exy, ey2, ex2 = (unit(unit(col)) for col in second.T)
    s1 = np.sqrt(np.maximum(ex2 - a * a, 0.0))
    s2 = np.sqrt(np.maximum(ey2 - b * b, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = (exy - a * b) / (s1 * s2)
    if closed:
        b = np.where(good, 1.0, 0.0)
        s2 = unit(kern.closed_s2[:nq])
    plan = pooled_plan(a, b, s1, s2, rho, n)
    if calibration != "M2":
        return plan, pilot

    def replan(plan):
        # re-estimate the split-dependent mean on the first lambda * m samples;
        # the next round carries the other one over
        nonlocal a, b
        msub = min(m, max(2, round(plan.lam * m)))
        col = cfw if plan.regime == "case1" else w
        mean = unit(kern.sums(nq, msub, col[:msub, None] / msub)[0][:, 0])
        if plan.regime == "case1":
            a = mean
        else:
            b = mean
        new = pooled_plan(a, b, s1, s2, rho, n)
        return new, (b if new.regime == "case1" else a).tobytes()

    return m2_fixed_point(plan, replan), pilot


def _kernel_sums(
    kern: _DateKernel, cf: np.ndarray, n_num: int, n_den: int, pilot: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator means of every query of one date.

    The numerator averages cf * weight * K over the first n_num samples, the
    denominator weight * K over the first n_den; n_den = 0 leaves the
    denominator zero and sums the numerator alone.  ``pilot`` is the (m, sums)
    of ``_date_plan``.  On the tile engine, the pilot's queries take each
    column whose cut (n_num, n_den) is at least m from the pilot's sums over
    samples 0..m-1, and K is built for them only on the samples the pilot
    did not cover: m..cut-1 for such a column, 0..cut-1 for the other.  The
    other queries, and the dominance engine, whose cost does not grow with
    the entries it skips, take one call over both cuts as without a pilot.
    """
    top = max(n_num, n_den)
    rhs = np.zeros((top, 2))
    rhs[:n_num, 0] = (cf[:n_num] * kern.weight[:n_num]) / n_num
    rhs[:n_den, 1] = kern.weight[:n_den] / n_den
    if pilot is None or kern.engine is not _tile_sums:
        sums, _ = kern.sums(kern.n_queries, top, rhs)
        return sums[:, 0], sums[:, 1]
    m, covered = pilot
    nq = len(covered)
    cuts = np.array([n_num, n_den])
    reuse = cuts >= m
    head = rhs.copy()
    head[:m, reuse] = 0.0
    sums = np.empty((kern.n_queries, 2))
    # the support rule drops the zeroed rows: the pilot samples of the reused columns
    sums[:nq] = kern.sums(nq, top, head)[0]
    sums[:nq, reuse] += covered[:, reuse] / cuts[reuse]
    if kern.n_queries > nq:
        rest = replace(kern, queries=kern.queries[nq:])
        sums[nq:] = rest.sums(kern.n_queries - nq, top, rhs)[0]
    return sums[:, 0], sums[:, 1]


def _backward_induction(paths: AssetPaths, payoff: Payoff, continuation) -> tuple[float, int]:
    """One backward stopping-time pass in date-0 money; returns (price, fallback count).

    This is the one place that evaluates the payoff and discounts.  ``cf``
    holds each path's cash flow discounted to date 0: its payoff at the date
    it exercises, else at maturity, times exp(-r t) of that date.  At each
    date k = n-1..1 the in-the-money paths ``itm`` exercise where their
    discounted intrinsic value beats their continuation value, which
    ``continuation(paths, k, itm, cf)`` estimates from ``cf``, also in date-0
    money; it returns (values, fallback count).
    """
    r = paths.rate
    dates = paths.grid.dates
    cf = np.exp(-r * dates[-1]) * payoff(paths.s[:, -1, :])
    fallbacks = 0
    for k in range(paths.grid.n_steps - 1, 0, -1):
        intrinsic = payoff(paths.s[:, k, :])
        itm = np.flatnonzero(intrinsic > 0.0)
        if itm.size == 0:
            continue
        cont, bad = continuation(paths, k, itm, cf)
        fallbacks += bad
        value = np.exp(-r * dates[k]) * intrinsic[itm]
        exercise = value > cont
        cf[itm[exercise]] = value[exercise]
    return max(float(payoff(paths.s0[None, :])[0]), float(np.mean(cf))), fallbacks


def _mcm_continuation(paths: AssetPaths, k: int, itm: np.ndarray, cf: np.ndarray, *,
                      method: str, conditioning: bool, calibration: str) -> tuple[np.ndarray, int]:
    """Kernel quotient at date k, as price_mcm resolved it; +inf (never exercise) if degenerate."""
    x_itm = paths.s[:, k, :][itm]
    if conditioning:
        kern = _conditioned_kernel(paths, k, x_itm, method, calibration)
    else:
        kern = _raw_kernel(paths, k, x_itm, method)
    n_num = n_den = paths.n_paths
    pilot = None
    if method == "P2opt":
        plan, pilot = _date_plan(kern, cf, calibration)
        n_num, n_den = plan.n_prime, plan.n
    # P1 divides by the closed denominator, so the engine sums the numerator only
    num, den = _kernel_sums(kern, cf, n_num, 0 if method == "P1" else n_den, pilot)
    if method == "P1":
        den = kern.closed_b
    bad = ~(den > kern.floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        cont = num / den
    cont[bad] = np.inf
    return cont, int(np.count_nonzero(bad))


# ---------------------------------------------------------------------------
# Longstaff-Schwartz baseline
# ---------------------------------------------------------------------------

def _ls_basis(s: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Regression basis in u = s / s0: 1, u, u^2, u^3 for d = 1; 1 and the d ratios otherwise.

    Dividing by the initial values keeps every column of order one; it
    spans the same functions as the unscaled monomials.
    """
    u = s / s0
    if s.shape[-1] == 1:
        z = u[:, 0]
        return np.stack([np.ones_like(z), z, z * z, z**3], axis=1)
    return np.concatenate([np.ones((len(u), 1)), u], axis=1)


def _ls_continuation(paths: AssetPaths, k: int, itm: np.ndarray, cf: np.ndarray) -> tuple[np.ndarray, int]:
    """Least-squares fit of the cash flows of ``itm`` on the basis at date k, in one ``lstsq`` call.

    With fewer in-the-money paths than basis functions the fit is the
    minimum-norm one, which interpolates their cash flows.
    """
    bmat = _ls_basis(paths.s[:, k, :][itm], paths.s0)
    return bmat @ np.linalg.lstsq(bmat, cf[itm])[0], 0


# ---------------------------------------------------------------------------
# Replicated entry point
# ---------------------------------------------------------------------------

def _one_replication(sweep, payoff, vol, grid, s0, r, n_paths, seed, rep):
    """Simulate replication ``rep`` and run ``sweep(paths, payoff)`` on it."""
    paths = simulate_paths(vol, grid, s0, r, n_paths, replication_seed(seed, rep))
    return sweep(paths, payoff)


def _resolve(payoff, vol_spec, maturity, n_steps, s0, r, n_paths, seed, method, conditioning,
             replications, n_workers, calibration) -> tuple[partial, bool | None, str | None]:
    """Check every argument of ``price_mcm`` and decide its estimator, once, before any work.

    Returns the job that ``_replicate`` runs, a partial of
    ``_one_replication``, and the ``conditioning`` and ``calibration`` it
    runs with, each None where it does not apply (both for LS, the
    calibration for P1 and P2eq).  Raises what ``price_mcm`` documents.
    """
    require_choice(METHODS, method=method)
    require_choice(CALIBRATIONS, calibration=calibration)
    require_finite(r=r)
    # every type check before any range check
    require_integer(n_steps=n_steps, seed=seed)
    require_count(n_paths=n_paths, replications=replications, n_workers=n_workers)
    require_seed(seed)
    vol = build_vol(payoff.dim, vol_spec)
    grid = TimeGrid(maturity, n_steps)
    initial_assets(s0, vol.dim)
    vol.overlaps(0.0, grid.maturity)
    closed_forms = vol.is_diagonal and vol.is_constant
    if method == "P1" and not closed_forms:
        raise NotDiagonalError("P1 needs the closed-form denominator (diagonal constant vol)")
    conditioning = conditioning and closed_forms
    calibration = "M1" if calibration == "closed" and not conditioning else calibration
    continuation = _ls_continuation if method == "LS" else partial(
        _mcm_continuation, method=method, conditioning=conditioning, calibration=calibration)
    sweep = partial(_backward_induction, continuation=continuation)
    job = partial(_one_replication, sweep, payoff, vol, grid, s0, r, n_paths, seed)
    # LS runs neither setting, and only P2opt splits its samples by calibration
    return job, None if method == "LS" else conditioning, calibration if method == "P2opt" else None


# The directory that holds the package: the forkserver imports the package from it
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The caller's main-script path, handed to the forkserver while it starts (see _forkserver_main)
_MAIN_PATH_VAR = "_MCMPRICER_MAIN_PATH"


@contextmanager
def _worker_environment():
    """Set the variables a forkserver or spawn worker starts with, then restore the caller's values.

    The BLAS thread variables are set to 1.  BLAS libraries read them when
    they load, so the workers started inside the block run one BLAS thread
    each, and this process keeps the threads it loaded with.  A forkserver
    reads them once, when the first pool starts it; one BLAS thread also
    leaves it single-threaded, so it forks without CPython's warning on
    forking a threaded process.  Two more variables make up for defects of
    CPython's forkserver (3.11 to 3.13), which filters the start data it
    hands the server by the keys ``sys_path`` and ``main_path``:
      * it does not apply ``sys_path`` before its preloads, so the server
        gets the caller's ``sys.path`` only through PYTHONPATH.  With
        PACKAGE_ROOT first it imports this package even when the caller
        found it by a ``sys.path`` entry alone;
      * ``spawn.get_preparation_data`` emits the main script as
        ``init_main_from_path``, never as ``main_path``, so the server never
        imports it and every worker re-runs it.  _MAIN_PATH_VAR holds that
        path as ``get_preparation_data`` computes it, and is removed when
        the caller has none (``python -c``, ``python -m``), so a value set
        outside never reaches the server; ``_forkserver_main`` imports it.
    """
    from multiprocessing import spawn

    names = (*BLAS_THREAD_VARS, "PYTHONPATH", _MAIN_PATH_VAR)
    saved = {name: os.environ.get(name) for name in names}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, saved["PYTHONPATH"])))
    main_path = spawn.get_preparation_data("ignore").get("init_main_from_path")
    if main_path is None:
        os.environ.pop(_MAIN_PATH_VAR, None)
    else:
        os.environ[_MAIN_PATH_VAR] = main_path
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@cache
def _forkserver_context():
    """The forkserver context with its workers' imports preloaded, made on the first parallel call.

    The first submit to the first pool starts the server inside
    ``_worker_environment``, and the server imports numpy, ``numpy.random``,
    ``numpy.ma``, the pool's worker module, this package and, last,
    ``_forkserver_main``, which imports the caller's main script as
    ``__mp_main__``.  Every worker of every later
    call is a fork of the server and starts with them imported: it finds
    ``__main__`` already set to the script and does not re-run it.  Should
    the script fail to import in the server, each worker re-runs it as
    before.  ``numpy.random`` is imported on first use
    (``rng.stream_normals``) and ``numpy.ma`` by ``np.unique``
    (``TriangularVol.union_times``), not with the package, so that set-up
    does not pay for them.  The exit hook registered here is the stdlib's
    own stop: it closes the server's "alive" pipe and waits for the server
    to exit, so the server does not outlive the caller.  Each worker holds
    that pipe too, so the server can exit only because every pool is shut
    down before its call returns.
    """
    from multiprocessing import forkserver, get_context

    forkserver.set_forkserver_preload(["numpy", "numpy.random", "numpy.ma", "concurrent.futures.process",
                                       __package__, f"{__package__}._forkserver_main"])
    atexit.register(forkserver._forkserver._stop)
    return get_context("forkserver")


# the claim counter of a pool worker, installed by _install_counter when it starts
_worker_counter = None


def _install_counter(counter) -> None:
    """Pool initializer: a synchronized value reaches a worker only with its start-up data."""
    global _worker_counter
    _worker_counter = counter


def _drain(job, replications: int, counter=None) -> list[tuple[int, object]]:
    """Claim replication indices from ``counter`` and run ``job`` on each until none is left.

    Returns the (index, result) pairs this process priced.  ``counter`` is
    the call's shared counter (``value`` read and incremented under
    ``get_lock()``); the caller passes it, and a pool worker passes none and
    uses the one its pool installed.  A failing job pushes the counter to
    ``replications``, so every other process stops after the replication it
    is pricing.
    """
    counter = _worker_counter if counter is None else counter
    out = []
    try:
        while True:
            with counter.get_lock():
                i = counter.value
                if i >= replications:
                    return out
                counter.value = i + 1
            out.append((i, job(i)))
    except BaseException:
        with counter.get_lock():
            counter.value = replications
        raise


def _replicate(job, replications: int, n_workers: int) -> PriceEstimate:
    """Run ``job(i)`` for every i < ``replications`` on ``n_workers`` processes, and aggregate.

    ``job(i)`` returns (value, fallbacks): a picklable partial of
    _one_replication.  The caller is one of the processes: the call starts
    min(n_workers, replications) - 1 workers, and the caller and the workers
    claim replication indices from one shared counter until none is left,
    so the caller prices while its workers start up.  On Linux the workers
    are forks of a forkserver that has already imported numpy,
    ``numpy.random``, ``numpy.ma``, the pool's worker module, this package
    and the caller's main script, so a worker neither re-runs the script nor
    imports a module while it prices (``_forkserver_context``); elsewhere
    they are spawned and each re-runs the script.  The pool is shut
    down before the call returns.  The values are a pure function of
    ``job``, independent of n_workers and of the start method.  The caller
    keeps BLAS threading as installed; each worker runs one BLAS thread.
    """
    t0 = time.perf_counter()
    n_pool = min(n_workers, replications) - 1
    if n_pool < 1:
        out = [(i, job(i)) for i in range(replications)]
    else:
        # imported here: serial calls, and an import of the package, never load them
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        # the start method CPython 3.14 defaults to: forkserver on Linux, spawn elsewhere
        ctx = _forkserver_context() if sys.platform.startswith("linux") else get_context("spawn")
        counter = ctx.Value("q", 0)
        with ProcessPoolExecutor(
            max_workers=n_pool, mp_context=ctx, initializer=_install_counter, initargs=(counter,)
        ) as pool:
            # each submit starts its worker, and the first one the forkserver: both read the
            # environment there, and the caller prices its own replications in its own
            with _worker_environment():
                futures = [pool.submit(_drain, job, replications) for _ in range(n_pool)]
            out = _drain(job, replications, counter)
            for future in futures:
                out += future.result()
        out.sort(key=lambda pair: pair[0])
        if [i for i, _ in out] != list(range(replications)):
            raise RuntimeError(f"replication indices came back as {[i for i, _ in out]}")
    values = tuple(v for _, (v, _) in out)
    fallbacks = sum(f for _, (_, f) in out)
    return PriceEstimate(float(np.mean(values)), float(np.std(values)), values, fallbacks,
                         time.perf_counter() - t0)


def price_mcm(
    payoff: Payoff,
    vol_spec,
    maturity: float,
    n_steps: int,
    s0,
    r: float,
    n_paths: int,
    seed: int,
    method: str = "P2opt",
    conditioning: bool = True,
    replications: int = 16,
    n_workers: int = 1,
    calibration: str = "closed",
) -> PriceEstimate:
    """Replicated American price by ``method``, one of ``METHODS``.

    Each replication simulates its own paths from a derived seed and runs the
    backward induction with the chosen continuation estimator.  ``n_workers``
    processes price the replications, the caller included (see
    ``_replicate``): the workers run one BLAS thread each, and the caller
    keeps its own.  Results are a pure function of (seed, parameters),
    independent of n_workers.

    "LS" is the Longstaff-Schwartz regression: at each date one
    least-squares fit of the in-the-money paths' discounted cash flows on
    cubic monomials in s / s0 for d = 1, linear in the assets otherwise.
    ``conditioning`` and ``calibration`` do not apply to it, and its
    estimate reports both as None.  For P1, P2eq and P2opt the estimator is decided once per call,
    before any work (``_resolve``), and the estimate names the
    ``conditioning`` and ``calibration`` that ran: the closed-form kernel
    and its moments exist only for constant diagonal vol, so elsewhere
    ``conditioning`` is off and the raw estimator runs.  ``calibration``
    sets how P2opt splits its samples, and does not apply to P1 or P2eq,
    whose estimates report it as None: "closed" uses the closed moments
    where the kernel has them, and becomes "M1", the pilot, otherwise; "M1"
    and "M2" run the pilots.
    An unknown ``method`` or ``calibration``, a malformed ``vol_spec`` or
    one that ends before ``maturity``, P1 on vol that is not constant diagonal
    (NotDiagonalError), an ``s0`` or ``maturity`` that is not finite and
    positive, a non-finite ``r``, an ``n_steps``, ``n_paths``,
    ``replications``, ``n_workers`` or ``seed`` that is not an integer (a
    bool is not), ``replications``, ``n_workers`` or ``n_paths`` below 1,
    and a ``seed`` outside [0, 2**64) raise before any path or worker
    starts; a rule's error names its argument (``errors``).
    """
    job, conditioning, calibration = _resolve(payoff, vol_spec, maturity, n_steps, s0, r, n_paths, seed,
                                              method, conditioning, replications, n_workers, calibration)
    return replace(_replicate(job, replications, n_workers), conditioning=conditioning,
                   calibration=calibration)
