"""Host record written into every benchmark result.

Worker count and BLAS threading decide how the parallel workload behaves, so
each result says which core count, BLAS build and thread setting it ran on.
"""

from __future__ import annotations

import ctypes
import os
import platform


def _loaded_openblas() -> str | None:
    """Path of the OpenBLAS library mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        return None
    return None


def _openblas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def host_record() -> dict:
    """nproc, BLAS library/version/threads, threadpoolctl and interpreter versions."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
        "blas_runtime_config": None,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    try:
        import threadpoolctl  # noqa: F401
        record["threadpoolctl"] = True
    except ImportError:
        record["threadpoolctl"] = False
    path = _loaded_openblas()
    if path is not None:
        lib = ctypes.CDLL(path)
        suffixes = ("64_", "")
        record["blas_threads"] = _openblas_call(
            lib, [f"{p}openblas_get_num_threads{s}" for p in ("scipy_", "") for s in suffixes],
            ctypes.c_int,
        )
        config = _openblas_call(
            lib, [f"{p}openblas_get_config{s}" for p in ("scipy_", "") for s in suffixes],
            ctypes.c_char_p,
        )
        record["blas_runtime_config"] = config.decode() if config else None
    return record
