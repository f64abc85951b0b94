"""Counter-style random number streams for reproducible parallel simulation.

Draws are addressed by (master seed, path block, substream) and are produced
by independently keyed Philox generators, so the output does not depend on
the order in which blocks are filled.  Paths live in fixed-size blocks of
``BLOCK_PATHS``.
"""

from __future__ import annotations

import numpy as np

BLOCK_PATHS = 4096
# Seeds are 64-bit: 0 <= seed < SEED_LIMIT
SEED_LIMIT = 1 << 64

_MASK64 = SEED_LIMIT - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replication_seed(seed: int, replication: int) -> int:
    """Derived seed for replication i: seed XOR splitmix(i)."""
    return (int(seed) ^ splitmix64(int(replication))) & _MASK64


def stream_key(seed: int, substream: int, block: int) -> np.ndarray:
    """128-bit Philox key for one (seed, substream, block) address."""
    k0 = splitmix64((int(seed) & _MASK64) ^ splitmix64(int(substream) + 1))
    k1 = splitmix64((int(seed) & _MASK64) ^ splitmix64((int(block) << 20) + 2))
    return np.array([k0, k1], dtype=np.uint64)


def stream_normals(seed: int, substream: int, block: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals for one stream address, independent of call order."""
    gen = np.random.Generator(np.random.Philox(key=stream_key(seed, substream, block)))
    return gen.standard_normal(shape)


def block_bounds(n_paths: int) -> list[tuple[int, int]]:
    """Fixed [start, stop) path ranges of BLOCK_PATHS paths each."""
    return [(lo, min(lo + BLOCK_PATHS, n_paths)) for lo in range(0, n_paths, BLOCK_PATHS)]
