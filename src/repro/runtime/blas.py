"""One OpenBLAS thread per process once gridding starts (DESIGN.md §14).

The executors get their parallelism by running work groups side by side,
one kernel per core (paper §V-B).  Each worker's bucket gemm
``(G, 576, T) @ (G, T, 4)`` is four columns wide, so the threads OpenBLAS
would add inside it only fight the workers for the same cores.
:func:`single_threaded_blas`, called first by every
:class:`~repro.runtime.program.WorkGroupProgram`, sets each OpenBLAS
loaded in the process to one thread.

It does so once per process and never restores the old count.  OpenBLAS
shuts its thread pool down before every ``fork()``, and any later call of
its setter, in the parent or in a forked child, builds a new pool whose
threads spin.  Set once, before the processes executor forks, a worker
inherits both the single thread and the done flag and never calls the
setter.  Libraries loaded after the first call are left alone.
"""

from __future__ import annotations

import ctypes
import logging
import threading
from typing import Callable

__all__ = ["single_threaded_blas"]

_log = logging.getLogger(__name__)

#: Thread-count getter/setter pairs, tried in this order in each library:
#: upstream OpenBLAS, then the ``scipy_openblas`` builds that NumPy
#: (64-bit integers) and SciPy (32-bit integers) wheels ship.
_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

_lock = threading.Lock()
#: True once this process has applied the policy; a forked child inherits it.
_done = False


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process; empty
    where ``/proc/self/maps`` does not exist (non-Linux hosts)."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})


def _thread_controls() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """``(path, get_num_threads, set_num_threads)`` of every loaded OpenBLAS
    that exports one of the :data:`_THREAD_SYMBOLS` pairs."""
    controls = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # mapped but no longer loadable (e.g. deleted)
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((path, getter, setter))
                break
    return controls


def single_threaded_blas() -> None:
    """Set every loaded OpenBLAS to one thread, on the first call in this
    process; later calls return at once.

    Kernel parallelism then comes only from the executors' workers; a
    serial run no longer gets OpenBLAS threads inside one gemm.  A no-op
    where no OpenBLAS is loaded (MKL, Accelerate, non-Linux hosts).
    """
    global _done
    if _done:
        return
    with _lock:
        if _done:
            return
        for path, get_num_threads, set_num_threads in _thread_controls():
            n_threads = get_num_threads()
            if n_threads > 1:
                set_num_threads(1)
                _log.debug("OpenBLAS %s: %d threads -> 1", path, n_threads)
        _done = True
