"""The machine block: what ran the numbers, BLAS threads included."""

from __future__ import annotations

import ctypes
import os
import platform

# set before numpy loads, so BLAS starts with one thread
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads",
)


def _loaded_blas_threads() -> dict:
    """Thread count each loaded BLAS library reports, read through its own API."""
    libraries = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if path.startswith("/") and ("openblas" in path.lower() or "mkl" in path.lower()):
                    libraries.add(path)
    except OSError:
        return {}
    threads = {}
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return threads


def machine_block() -> dict:
    """Versions, core count and BLAS settings of the current process (numpy loaded)."""
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _loaded_blas_threads(),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
    }
