"""American/Bermudan pricing by backward stopping-time dynamic programming.

The continuation value at each exercise date is a quotient of Monte Carlo
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
(``_DateKernel``) feeds one pilot, one block loop and one exercise update.

Exercise is allowed at t_1..t_n; the date-0 value is the maximum of the
immediate payoff and the mean discounted cashflow.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DimensionMismatchError, NotDiagonalError, RegressionSingularError
from .kernels import (
    KERNEL_DEN_FLOOR,
    DiagonalKernelParams,
    conditioned_continuation,
    denominator_closed_form,
    denominator_factors,
    kernel_second_moment,
    query_features,
    sample_features,
)
from .market_model import AssetPaths, TimeGrid, build_vol, simulate_paths
from .ratio import QuotientPlan, m2_fixed_point, pooled_plan
from .rng import replication_seed
from .weights import DEN_FLOOR_SCALE, path_weights

MCM_METHODS = ("P1", "P2eq", "P2opt")
PILOT_QUERIES = 512
PILOT_SAMPLES = 4096
# Kernel tiles of QUERY_TILE queries x SAMPLE_TILE samples: 1 MiB of float64
# stays in a core's L2 cache from its build to its product, and rows of 4096
# or more samples keep numpy's broadcast comparisons (raw kernel) fast
QUERY_TILE = 32
SAMPLE_TILE = 4096
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
        if self.kind not in ("geometric_put", "min_put", "max_call"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.kind in ("min_put", "max_call") and self.dim != 2:
            raise DimensionMismatchError(f"{self.kind} requires dim=2, got {self.dim}")
        if self.dim < 1:
            raise DimensionMismatchError(f"dim must be >= 1, got {self.dim}")
        if self.strike <= 0.0:
            raise ValueError("strike must be positive")

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
    """

    price: float
    std: float
    values: tuple[float, ...]
    fallbacks: int
    runtime_s: float


# ---------------------------------------------------------------------------
# Continuation engine over one date (vectorised over query paths)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _DateKernel:
    """The kernel K_x of one exercise date, for every in-the-money query x.

    ``rows(lo, hi, s_lo, s_hi, out)`` writes K for queries lo..hi-1 against
    samples s_lo..s_hi-1 into ``out`` (shape (hi-lo, s_hi-s_lo)) and returns
    it, by ``build(queries[lo:hi], samples[:, s_lo:s_hi], out)``: exp(U V^T)
    for the conditioned estimator (queries U, samples V^T), the indicator
    1{S_s >= x} for the raw one (queries x, samples S_s^T), whose per-sample
    weight Gamma / prod S_s is ``weight``.  ``closed_b`` is the closed-form
    denominator (P1) and ``closed_s2`` the closed-form denominator std
    (closed calibration); a denominator at or below ``floor`` is degenerate.
    """

    queries: np.ndarray
    samples: np.ndarray
    build: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    weight: np.ndarray | None
    closed_b: np.ndarray | None
    closed_s2: np.ndarray | None
    floor: float

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def rows(self, lo: int, hi: int, s_lo: int, s_hi: int, out: np.ndarray) -> np.ndarray:
        return self.build(self.queries[lo:hi], self.samples[:, s_lo:s_hi], out)

    def restrict(self, idx: np.ndarray) -> _DateKernel:
        """The same kernel over the samples ``idx`` only, renumbered 0..len(idx)-1."""
        weight = None if self.weight is None else self.weight[idx]
        # take keeps the sample rows C-contiguous; samples[:, idx] comes back
        # column-major, and the conditioned tile matmul then runs ~10x slower
        return replace(self, samples=np.take(self.samples, idx, axis=1), weight=weight)


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
    return _DateKernel(u, vt, _exp_rows, None, closed_b, closed_s2, KERNEL_DEN_FLOOR)


def _raw_kernel(paths: AssetPaths, k: int, x_itm: np.ndarray, method: str) -> _DateKernel:
    """Raw weighted-indicator kernel at date k; the closed denominator needs diagonal vol."""
    s_t = np.ascontiguousarray(paths.s[:, k, :].T)
    w = path_weights(paths, k, k + 1)
    closed_b = None
    if method == "P1":
        params = _kernel_params(paths, k)
        scale = params.sigma * params.s * (params.t - params.s)
        closed_b = np.prod(denominator_factors(params, x_itm) / scale, axis=-1)
    floor = DEN_FLOOR_SCALE * float(np.mean(np.abs(w)))
    return _DateKernel(x_itm, s_t, _indicator_rows, w, closed_b, None, floor)


def _tile_sums(
    kern: _DateKernel, n_q: int, m: int, rhs: np.ndarray, rhs_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """K @ rhs, and (K * K) @ rhs_sq when given, for queries 0..n_q-1 over samples 0..m-1.

    ``rhs`` and ``rhs_sq`` hold one row per sample.  K is built only on the
    support, the samples whose row of ``rhs`` or ``rhs_sq`` is not all zero:
    a zero row adds nothing to the sums.  When the support is smaller than
    m (a case-2 numerator past n, a cash flow that is zero on most paths),
    the loop runs over the kernel restricted to it; otherwise over the
    date's own sample arrays, unchanged.  K is built one QUERY_TILE x
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
    if len(support) < m:
        kern, m, rhs = kern.restrict(support), len(support), rhs[support]
        rhs_sq = None if rhs_sq is None else rhs_sq[support]
    sums = np.zeros((n_q, rhs.shape[1]))
    sums_sq = None if rhs_sq is None else np.zeros((n_q, rhs_sq.shape[1]))
    buf = np.empty(min(QUERY_TILE, n_q) * min(SAMPLE_TILE, m))
    for lo in range(0, n_q, QUERY_TILE):
        hi = min(lo + QUERY_TILE, n_q)
        for s_lo in range(0, m, SAMPLE_TILE):
            s_hi = min(s_lo + SAMPLE_TILE, m)
            tile = buf[: (hi - lo) * (s_hi - s_lo)].reshape(hi - lo, s_hi - s_lo)
            kern.rows(lo, hi, s_lo, s_hi, tile)
            sums[lo:hi] += tile @ rhs[s_lo:s_hi]
            if rhs_sq is not None:
                sums_sq[lo:hi] += np.square(tile, out=tile) @ rhs_sq[s_lo:s_hi]
    return sums, sums_sq


def _date_plan(kern: _DateKernel, cf: np.ndarray, calibration: str) -> QuotientPlan:
    """Pooled sample-split plan for one exercise date (P2opt only).

    The pilot takes the first PILOT_QUERIES queries against the first
    PILOT_SAMPLES samples, with X = cf * w * K and Y = w * K (w the
    per-sample weight, 1 when conditioned).  Its moments are normalised to
    unit denominator mean: the closed form under closed calibration,
    otherwise the simulated mean of |w K|, which stays positive under the raw
    estimator's signed weights.  The split plan is invariant under that joint
    rescaling of X and Y, and kernel products can sit at 1e-30 in high
    dimension, far below any absolute floor.  The rescaling acts on the
    per-query moments, so the pilot rows are never copied.
    """
    n = len(cf)
    nq = min(PILOT_QUERIES, kern.n_queries)
    m = min(PILOT_SAMPLES, n)
    w = np.ones(m) if kern.weight is None else kern.weight[:m]
    cfw = cf[:m] * w
    first, second = _tile_sums(kern, nq, m, np.stack([cfw, w, np.abs(w)], axis=1) / m,
                               np.stack([cfw * w, w * w, cfw * cfw], axis=1) / m)
    closed = kern.closed_s2 is not None
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
        return plan

    def replan(plan):
        # re-estimate the split-dependent mean on the first lambda * m samples
        nonlocal a, b
        msub = min(m, max(2, round(plan.lam * m)))
        col = cfw if plan.regime == "case1" else w
        mean = unit(_tile_sums(kern, nq, msub, col[:msub, None] / msub)[0][:, 0])
        if plan.regime == "case1":
            a = mean
        else:
            b = mean
        return pooled_plan(a, b, s1, s2, rho, n)

    return m2_fixed_point(plan, replan)


def _kernel_sums(
    kern: _DateKernel, cf: np.ndarray, n_num: int, n_den: int
) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator means of every query of one date.

    The numerator averages cf * weight * K over the first n_num samples, the
    denominator weight * K over the first n_den.
    """
    m = max(n_num, n_den)
    w = np.ones(m) if kern.weight is None else kern.weight
    rhs = np.zeros((m, 2))
    rhs[:n_num, 0] = (cf[:n_num] * w[:n_num]) / n_num
    rhs[:n_den, 1] = w[:n_den] / n_den
    sums, _ = _tile_sums(kern, kern.n_queries, m, rhs)
    return sums[:, 0], sums[:, 1]


def _mcm_sweep(
    paths: AssetPaths,
    payoff: Payoff,
    method: str,
    conditioning: bool,
    calibration: str = "M1",
) -> tuple[float, int]:
    """One backward induction pass; returns (price, degenerate-denominator count)."""
    if method not in MCM_METHODS:
        raise ValueError(f"method must be one of {MCM_METHODS}, got {method!r}")
    if conditioning or method == "P1":
        if not (paths.vol.is_diagonal and paths.vol.is_constant):
            if method == "P1":
                raise NotDiagonalError("P1 needs the closed-form denominator (diagonal constant vol)")
            conditioning = False
    n = paths.n_paths
    r = paths.rate
    dates = paths.grid.dates

    cf = np.exp(-r * dates[-1]) * payoff(paths.s[:, -1, :])
    fallbacks = 0

    for k in range(paths.grid.n_steps - 1, 0, -1):
        s_k = paths.s[:, k, :]
        intrinsic = payoff(s_k)
        itm = np.flatnonzero(intrinsic > 0.0)
        if itm.size == 0:
            continue
        if conditioning:
            kern = _conditioned_kernel(paths, k, s_k[itm], method, calibration)
        else:
            kern = _raw_kernel(paths, k, s_k[itm], method)
        n_num = n_den = n
        if method == "P2opt":
            plan = _date_plan(kern, cf, calibration)
            n_num, n_den = plan.n_prime, plan.n
        num, den = _kernel_sums(kern, cf, n_num, n_den)
        if method == "P1":
            den = kern.closed_b
        bad = ~(den > kern.floor)
        fallbacks += int(np.count_nonzero(bad))
        with np.errstate(divide="ignore", invalid="ignore"):
            cont = float(np.exp(r * dates[k])) * num / den
        cont[bad] = np.inf
        exercised = itm[intrinsic[itm] > cont]
        cf[exercised] = np.exp(-r * dates[k]) * intrinsic[exercised]

    return max(float(payoff(paths.s0[None, :])[0]), float(np.mean(cf))), fallbacks


# ---------------------------------------------------------------------------
# Longstaff-Schwartz baseline
# ---------------------------------------------------------------------------

def _ls_basis(s: np.ndarray, strike: float, basis: str) -> np.ndarray:
    u = s / strike
    if basis == "monomials3":
        if s.shape[-1] != 1:
            raise ValueError("monomials3 basis is for the one-dimensional contract")
        z = u[:, 0]
        return np.stack([np.ones_like(z), z, z * z, z**3], axis=1)
    if basis == "linear":
        return np.concatenate([np.ones((len(u), 1)), u], axis=1)
    raise ValueError(f"unknown basis {basis!r}")


def _ls_sweep(paths: AssetPaths, payoff: Payoff, basis: str) -> tuple[float, int]:
    """Regression-based backward induction on in-the-money paths."""
    r = paths.rate
    dates = paths.grid.dates
    cf = np.exp(-r * dates[-1]) * payoff(paths.s[:, -1, :])
    for k in range(paths.grid.n_steps - 1, 0, -1):
        s_k = paths.s[:, k, :]
        intrinsic = payoff(s_k)
        itm = np.flatnonzero(intrinsic > 0.0)
        if itm.size == 0:
            continue
        bmat = _ls_basis(s_k[itm], payoff.strike, basis)
        target = np.exp(r * dates[k]) * cf[itm]
        gram = bmat.T @ bmat
        try:
            coef = np.linalg.solve(gram, bmat.T @ target)
        except np.linalg.LinAlgError:
            # rank-deficient normal equations: ridge fallback
            try:
                coef = np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), bmat.T @ target)
            except np.linalg.LinAlgError as exc:
                raise RegressionSingularError(f"normal equations singular at date {k}") from exc
        cont = bmat @ coef
        exercised = itm[intrinsic[itm] > cont]
        cf[exercised] = np.exp(-r * dates[k]) * intrinsic[exercised]
    return max(float(payoff(paths.s0[None, :])[0]), float(np.mean(cf))), 0


# ---------------------------------------------------------------------------
# Replicated entry points
# ---------------------------------------------------------------------------

def _one_replication(sweep, payoff, vol_spec, maturity, n_steps, s0, r, n_paths, seed, rep):
    """Simulate replication ``rep`` and run ``sweep(paths, payoff)`` on it."""
    vol = build_vol(payoff.dim, vol_spec, rate=r)
    grid = TimeGrid(maturity, n_steps)
    paths = simulate_paths(vol, grid, s0, r, n_paths, replication_seed(seed, rep))
    return sweep(paths, payoff)


@contextmanager
def _worker_blas_threads(n_workers: int):
    """Set the BLAS thread variables to max(1, cores // n_workers), then restore them.

    BLAS libraries read these variables when they load, so processes started
    inside the block share the cores without oversubscribing them, while
    this process keeps the threads it loaded with.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, str(max(1, cores // n_workers))))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class _LocalCounter:
    """The claim counter of a call without workers: an int and a lock that never waits."""

    value = 0

    def get_lock(self):
        return nullcontext()


# the claim counter of a spawn worker, installed by _install_counter when it starts
_worker_counter = None


def _install_counter(counter) -> None:
    """Pool initializer: a synchronized value reaches a spawn child only at its start."""
    global _worker_counter
    _worker_counter = counter


def _drain(job, replications: int, counter=None) -> list[tuple[int, object]]:
    """Claim replication indices from ``counter`` and run ``job`` on each until none is left.

    Returns the (index, result) pairs this process priced.  ``counter`` is
    the call's shared counter (``value`` read and incremented under
    ``get_lock()``); a spawn worker passes none and uses the one its pool
    installed.  A failing job pushes the counter to ``replications``, so
    every other process stops after the replication it is pricing.
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


def _replicate(
    sweep, payoff, vol_spec, maturity, n_steps, s0, r, n_paths, seed, replications, n_workers
) -> PriceEstimate:
    """Run ``replications`` sweeps on ``n_workers`` processes, the caller included, and aggregate.

    ``sweep`` is a picklable partial of _mcm_sweep or _ls_sweep.  The call
    starts min(n_workers, replications) - 1 spawn workers; the caller and
    the workers claim replication indices from one shared counter until none
    is left, so the caller prices while its workers start up.  Replication
    i simulates from replication_seed(seed, i), so the values are a pure
    function of (seed, parameters), independent of n_workers.  The caller
    keeps BLAS threading as installed; each worker gets max(1, cores //
    n_workers) BLAS threads.
    """
    t0 = time.perf_counter()
    job = partial(_one_replication, sweep, payoff, vol_spec, maturity, n_steps, s0, r, n_paths, seed)
    n_spawn = min(n_workers, replications) - 1
    if n_spawn < 1:
        out = _drain(job, replications, _LocalCounter())
    else:
        # imported here: serial calls, and an import of the package, never load them
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        ctx = get_context("spawn")
        counter = ctx.Value("q", 0)
        with _worker_blas_threads(n_workers), ProcessPoolExecutor(
            max_workers=n_spawn, mp_context=ctx, initializer=_install_counter, initargs=(counter,)
        ) as pool:
            futures = [pool.submit(_drain, job, replications) for _ in range(n_spawn)]
            out = _drain(job, replications, counter)
            for future in futures:
                out += future.result()
        out.sort(key=lambda pair: pair[0])
        if [i for i, _ in out] != list(range(replications)):
            raise RuntimeError(f"replication indices came back as {[i for i, _ in out]}")
    values = tuple(v for _, (v, _) in out)
    fallbacks = sum(f for _, (_, f) in out)
    std = float(np.std(values)) if len(values) > 1 else 0.0
    return PriceEstimate(float(np.mean(values)), std, values, fallbacks, time.perf_counter() - t0)


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
    """Replicated Malliavin-weight Monte Carlo price.

    Each replication simulates its own paths from a derived seed and runs the
    backward induction with the chosen continuation estimator.  ``n_workers``
    processes price the replications, the caller included; spawn workers get
    max(1, cores // n_workers) BLAS threads and the caller keeps its own.
    Results are a pure function of (seed, parameters), independent of
    n_workers.

    ``calibration`` sets how P2opt splits its samples.  The raw estimator
    (conditioning off, or vol that is not constant diagonal) has no closed
    moments, so it calibrates with the M1 pilot when "closed" is asked for.
    """
    if method == "LS":
        raise ValueError("use price_ls for the regression baseline")
    sweep = partial(_mcm_sweep, method=method, conditioning=conditioning, calibration=calibration)
    return _replicate(sweep, payoff, vol_spec, maturity, n_steps, s0, r, n_paths, seed,
                      replications, n_workers)


def price_ls(
    payoff: Payoff,
    vol_spec,
    maturity: float,
    n_steps: int,
    s0,
    r: float,
    n_paths: int,
    seed: int,
    replications: int = 16,
    n_workers: int = 1,
) -> PriceEstimate:
    """Replicated Longstaff-Schwartz price.

    Basis: cubic monomials for d = 1, linear in the assets otherwise.
    ``n_workers`` counts the processes that price, the caller included, as
    in price_mcm.
    """
    basis = "monomials3" if payoff.dim == 1 else "linear"
    return _replicate(partial(_ls_sweep, basis=basis), payoff, vol_spec, maturity, n_steps, s0, r,
                      n_paths, seed, replications, n_workers)


def european_value(paths: AssetPaths, payoff: Payoff) -> float:
    """Exercise-at-maturity value on the same paths (monotonicity reference)."""
    return float(np.mean(np.exp(-paths.rate * paths.grid.maturity) * payoff(paths.s[:, -1, :])))


# ---------------------------------------------------------------------------
# Binomial-tree oracle (1D equivalence of the geometric basket)
# ---------------------------------------------------------------------------

def geometric_equivalent_1d(dim: int, sigma: float) -> tuple[float, float]:
    """(vol, continuous yield) of the 1D lognormal carrying the geometric mean.

    The geometric mean of d independent assets with equal vol sigma is
    lognormal with vol sigma/sqrt(d) and drift shortfall (sigma^2 - vol^2)/2,
    absorbed as a dividend-like yield.
    """
    sig_g = sigma / np.sqrt(dim)
    q = 0.5 * (sigma**2 - sig_g**2)
    return float(sig_g), float(q)


def tree_american_put(
    s0: float, strike: float, r: float, q: float, sigma: float, maturity: float, n_tree_steps: int
) -> float:
    """CRR binomial value of an American put with a continuous yield.

    Node j of step i holds the asset (s0 up^(i-j)) dn^j.  The powers are
    taken once, so each backward step costs O(i) multiplies and no ``pow``;
    the values are bitwise those of taking the powers at every step.
    """
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
    dim: int, strike: float, s0: float, r: float, sigma: float, maturity: float, n_tree_steps: int = 5000
) -> float:
    """Tree value of the d-dimensional geometric-average American put."""
    sig_g, q = geometric_equivalent_1d(dim, sigma)
    return tree_american_put(s0, strike, r, q, sig_g, maturity, n_tree_steps)


def tree_converged(dim: int, strike: float, s0: float, r: float, sigma: float, maturity: float,
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
    strike, sigma, r = 100.0, 0.2, float(np.log(1.1))
    paths = simulate_paths(build_vol(1, sigma, rate=r), TimeGrid(1.0, 2), 100.0, r, n_paths, seed)
    g = np.maximum(strike - paths.s[:, -1, 0], 0.0)
    num, den = conditioned_continuation(paths, 1, 2, x, g)
    return num / den, lognormal_conditional_put(x, strike, r, sigma, 0.5)
