"""Market model: time grids, triangular volatility, exact path simulation.

The asset model is a d-dimensional exponential diffusion
``dS_t^i / S_t^i = r dt + sum_j sigma_ij(t) dW_t^j`` with a deterministic,
piecewise-constant, lower-triangular volatility matrix.  Log-prices are
simulated exactly per constant interval, so there is no discretisation bias
for this model class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotEllipticError, NotTriangularError, SingularVolError
from .errors import require_count, require_finite, require_integer, require_positive, require_seed
from .rng import block_bounds, stream_normals

EPS_ELLIPTIC = 1e-8
_INV_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Regular exercise grid t_k = k T / n for k = 0..n."""

    maturity: float
    n_steps: int
    dates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        require_positive(maturity=self.maturity)
        require_count(n_steps=self.n_steps)
        dates = np.linspace(0.0, float(self.maturity), int(self.n_steps) + 1)
        object.__setattr__(self, "dates", dates)


@dataclass(frozen=True, eq=False)
class TriangularVol:
    """Piecewise-constant lower-triangular volatility with precomputed inverses.

    ``breaks`` has m+1 entries covering [0, inf) or [0, b_m]; ``mats[i]`` is the
    d x d matrix on [breaks[i], breaks[i+1]) and ``invs[i]`` its inverse.
    """

    dim: int
    breaks: np.ndarray
    mats: np.ndarray
    invs: np.ndarray
    rate: float = 0.0

    @property
    def is_diagonal(self) -> bool:
        off = self.mats - self.mats * np.eye(self.dim)[None, :, :]
        return bool(np.all(off == 0.0))

    @property
    def is_constant(self) -> bool:
        return self.mats.shape[0] == 1 or bool(np.all(self.mats == self.mats[0]))

    def overlaps(self, a: float, b: float) -> list[tuple[int, float, float]]:
        """(interval index, lo, hi) per constant vol piece [lo, hi] of [a, b], in time order."""
        if b < a:
            raise ValueError(f"empty interval [{a}, {b}]")
        if b > self.breaks[-1]:
            raise ValueError(f"vol spec covers up to t={self.breaks[-1]}, asked for {b}")
        out = []
        for i in range(len(self.breaks) - 1):
            lo = max(a, float(self.breaks[i]))
            hi = min(b, float(self.breaks[i + 1]))
            if hi > lo:
                out.append((i, lo, hi))
        return out

    def gram_rho(self, a: float, b: float) -> np.ndarray:
        """integral over [a,b] of rho(u)' rho(u) du, entrywise (k,l)."""
        g = np.zeros((self.dim, self.dim))
        for i, lo, hi in self.overlaps(a, b):
            g += (hi - lo) * (self.invs[i].T @ self.invs[i])
        return g

    def union_times(self, grid: TimeGrid) -> np.ndarray:
        """Exercise dates refined with the vol breakpoints inside (0, T)."""
        inner = self.breaks[(self.breaks > 0.0) & (self.breaks < grid.maturity)]
        return np.unique(np.concatenate([grid.dates, inner]))


def build_vol(dim: int, spec, rate: float = 0.0) -> TriangularVol:
    """Build a TriangularVol from a scalar, per-asset vector, matrix, or piecewise spec.

    Accepted specs:
      * float              -> constant diagonal, same sigma for every asset
      * sequence of d      -> constant diagonal, per-asset sigmas
      * d x d matrix       -> constant lower-triangular matrix
      * {"breaks": [...], "matrices": [...]} -> piecewise constant matrices

    A ``dim`` that is not an integer raises TypeError, one below 1 ValueError.
    Raises NotTriangularError / NotEllipticError / SingularVolError.
    """
    require_count(dim=dim)
    if isinstance(spec, dict):
        breaks = np.asarray(spec["breaks"], dtype=float)
        mats = np.asarray(spec["matrices"], dtype=float)
        if breaks.ndim != 1 or len(breaks) != len(mats) + 1:
            raise ValueError("piecewise spec needs len(breaks) == len(matrices) + 1")
        if breaks[0] != 0.0 or np.any(np.diff(breaks) <= 0.0):
            raise ValueError("breaks must start at 0 and strictly increase")
    else:
        arr = np.asarray(spec, dtype=float)
        if arr.ndim == 0:
            mat = np.eye(dim) * float(arr)
        elif arr.ndim == 1:
            if len(arr) != dim:
                raise ValueError(f"expected {dim} diagonal entries, got {len(arr)}")
            mat = np.diag(arr)
        elif arr.ndim == 2:
            if arr.shape != (dim, dim):
                raise ValueError(f"expected {dim}x{dim} matrix, got {arr.shape}")
            mat = arr
        else:
            raise ValueError(f"unsupported vol spec with ndim={arr.ndim}")
        breaks = np.array([0.0, np.inf])
        mats = mat[None, :, :]

    if mats.shape[1:] != (dim, dim):
        raise ValueError(f"matrices must be {dim}x{dim}, got {mats.shape[1:]}")
    upper = np.triu(mats, k=1)
    if np.any(upper != 0.0):
        raise NotTriangularError("sigma_ij must vanish for i < j")
    diag = np.diagonal(mats, axis1=1, axis2=2)
    if np.any(np.abs(diag) < EPS_ELLIPTIC):
        raise NotEllipticError(f"min |sigma_ii| = {np.abs(diag).min():.3e} < {EPS_ELLIPTIC:.1e}")

    invs = np.empty_like(mats)
    for i, m in enumerate(mats):
        try:
            invs[i] = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise SingularVolError(f"interval {i}: {exc}") from exc
        resid = np.abs(invs[i] @ m - np.eye(dim)).max()
        if not np.isfinite(resid) or resid > _INV_TOL:
            raise SingularVolError(f"interval {i}: rho sigma deviates from identity by {resid:.2e}")

    return TriangularVol(dim=dim, breaks=breaks, mats=mats, invs=invs, rate=float(rate))


@dataclass(frozen=True, eq=False)
class AssetPaths:
    """Simulated Brownian and asset values on an exercise grid.

    ``w`` holds the Brownian vector at every union time (exercise dates plus
    vol breakpoints); ``s`` holds asset values at exercise dates only.
    ``y`` is always None: the benchmark's outside-in tracer still reads it
    when it sizes the paths, so the field stays until that tracer reads the
    package's own trace.  Immutable after construction and safe to share
    across workers.
    """

    vol: TriangularVol
    grid: TimeGrid
    s0: np.ndarray
    rate: float
    union: np.ndarray
    w: np.ndarray
    s: np.ndarray
    y: None = None

    @property
    def n_paths(self) -> int:
        return self.w.shape[0]

    @property
    def dim(self) -> int:
        return self.w.shape[2]

    def w_at(self, t: float) -> np.ndarray:
        """Brownian vector at a stored union time t, shape (n_paths, d); ValueError otherwise."""
        m = int(np.searchsorted(self.union, t))
        if m == len(self.union) or self.union[m] != t:
            raise ValueError(f"no Brownian value stored at t={t}")
        return self.w[:, m, :]

    def w_at_date(self, k: int) -> np.ndarray:
        """Brownian vector at exercise date t_k, shape (n_paths, d)."""
        return self.w_at(self.grid.dates[k])


def initial_assets(s0, dim: int) -> np.ndarray:
    """``s0`` as a fresh vector of ``dim`` initial asset values, all finite and positive (else ValueError)."""
    s0 = np.broadcast_to(np.asarray(s0, dtype=float), (dim,)).copy()
    require_positive(s0=s0)
    return s0


def simulate_paths(
    vol: TriangularVol,
    grid: TimeGrid,
    s0,
    r: float,
    n_paths: int,
    seed: int,
) -> AssetPaths:
    """Simulate W and S with exact log-space increments over each union step.

    Parameters
    ----------
    vol, grid : model and exercise schedule; vol must cover [0, T].
    s0 : initial asset vector (componentwise finite and positive) or scalar.
    r : risk-neutral drift rate.
    n_paths, seed : sample size and master seed.  The output is a pure
        function of (seed, parameters).

    An ``n_paths`` or ``seed`` that is not an integer (a bool is not one)
    raises TypeError; ``n_paths`` below 1, a seed outside [0, 2**64) and a
    non-finite ``r`` raise ValueError.

    W is kept at every union time, so an integral of piecewise-constant rho
    against W is one W difference per vol piece (``AssetPaths.w_at``).
    """
    # every type check before any range check
    require_integer(seed=seed)
    require_count(n_paths=n_paths)
    require_seed(seed)
    require_finite(r=r)
    d = vol.dim
    s0 = initial_assets(s0, d)

    union = vol.union_times(grid)
    n_union = len(union) - 1
    w = np.empty((n_paths, n_union + 1, d))
    s = np.empty((n_paths, grid.n_steps + 1, d))

    # Per union interval: dt, vol matrix, and the log-drift vector.
    seg = []
    for m in range(n_union):
        (vidx, _, _), = vol.overlaps(float(union[m]), float(union[m + 1]))
        dt = float(union[m + 1] - union[m])
        sig = vol.mats[vidx]
        drift = (r - 0.5 * np.sum(sig * sig, axis=1)) * dt
        seg.append((dt, sig, drift))

    ex_pos = {int(idx): k for k, idx in enumerate(np.searchsorted(union, grid.dates))}
    log_s0 = np.log(s0)

    for block_id, (lo, hi) in enumerate(block_bounds(n_paths)):
        nb = hi - lo
        wb = np.zeros((nb, d))
        log_sb = np.tile(log_s0, (nb, 1))
        w[lo:hi, 0, :] = 0.0
        s[lo:hi, 0, :] = s0
        for m, (dt, sig, drift) in enumerate(seg):
            z = stream_normals(seed, m, block_id, (nb, d))
            dw = np.sqrt(dt) * z
            wb += dw
            log_sb += drift + dw @ sig.T
            w[lo:hi, m + 1, :] = wb
            k = ex_pos.get(m + 1)
            if k is not None:
                s[lo:hi, k, :] = np.exp(log_sb)

    return AssetPaths(vol=vol, grid=grid, s0=s0, rate=float(r), union=union, w=w, s=s)
