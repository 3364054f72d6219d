"""Scratch-buffer arenas: reusable workspace for the batched kernels.

The batched gridder/degridder (:func:`repro.core.gridder.gridder_bucket`
and :func:`repro.core.degridder.degridder_bucket`) work on stacked
``(G, N**2, M)`` phase/phasor tensors whose shapes repeat for every bucket
of identically-shaped work items.  Allocating those tensors per bucket
would put hundreds of megabytes per gridding pass through the allocator —
the Python-level analogue of the device-buffer churn the paper's
CUDA/OpenCL implementations avoid by reusing one set of device buffers
across kernel launches.  A :class:`ScratchArena` keeps one growable
buffer per *key* (a short string naming the buffer's role) and hands out
correctly-shaped views, so steady-state gridding performs zero large
allocations: a bucket either fits the existing buffer or grows it once,
and every later bucket of equal or smaller shape reuses it.

Buffers grow to the largest request ever seen, which is also a liability
over a long imaging run: one unusually large bucket (say, the first major
cycle before flagging) pins its peak footprint forever.  Arenas therefore
track a per-key *high-water mark* — the largest request since the last trim
— and :meth:`ScratchArena.trim` shrinks every backing buffer down to it
(dropping keys that went entirely unused).  The imaging major cycle calls
:func:`trim_thread_arenas` between cycles, so steady-state memory tracks the
current working set instead of the historical peak.

Arenas are **not** thread-safe and must never be shared between threads —
two gridder workers writing phase tensors into the same buffer would corrupt
each other's work items.  Kernels therefore obtain their arena through
:func:`thread_arena`, which keeps one arena per thread (each pool worker
of ``StreamingIDG``, and so of ``ParallelIDG``, sees its own), while the
backends themselves stay stateless as the backend contract
requires.  :func:`trim_thread_arenas` touches every thread's arena and must
only run at quiescent points (between imaging cycles, after executor pools
have retired their work), never concurrently with kernel execution.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArenaStats",
    "ScratchArena",
    "arena_stats",
    "clear_thread_arena",
    "thread_arena",
    "total_arena_nbytes",
    "trim_thread_arenas",
]


@dataclass(frozen=True)
class ArenaStats:
    """Observability snapshot of one arena (per-thread steady-state memory).

    Attributes
    ----------
    thread:
        Name of the thread that created the arena (arenas are
        single-thread by contract).
    nbytes:
        Bytes currently held across the arena's backing buffers.
    peak_nbytes:
        Largest ``nbytes`` the arena ever reached (across trims).
    n_keys:
        Registered buffer keys.
    n_trims:
        Lifetime :meth:`ScratchArena.trim` calls.
    trimmed_bytes:
        Total bytes released by those trims.
    """

    thread: str
    nbytes: int
    peak_nbytes: int
    n_keys: int
    n_trims: int
    trimmed_bytes: int


class ScratchArena:
    """Keyed, growable scratch buffers handing out shaped views.

    Each key owns one flat backing buffer that grows to the largest request
    seen; ``take`` returns a view of the first ``prod(shape)`` elements
    reshaped to ``shape``.  Views of the *same key* alias each other by
    design (a new ``take`` invalidates the previous one); views of different
    keys never alias.  Contents are unspecified on take — callers must fully
    overwrite (or use explicit ``out=`` stores) before reading.
    :meth:`trim` shrinks buffers back to the high-water mark of the current
    workload phase.
    """

    # Every live arena, so trim_thread_arenas can reach the per-thread
    # arenas of pool workers without keeping dead threads' arenas alive.
    _registry: "weakref.WeakSet[ScratchArena]" = weakref.WeakSet()
    _registry_lock = threading.Lock()

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._watermarks: dict[str, int] = {}
        self._thread = threading.current_thread().name
        self._peak_nbytes = 0
        self._n_trims = 0
        self._trimmed_bytes = 0
        with ScratchArena._registry_lock:
            ScratchArena._registry.add(self)

    def take(self, key: str, shape: tuple[int, ...], dtype: np.dtype | type) -> np.ndarray:
        """A ``shape``-shaped view of the buffer registered under ``key``.

        Grows (reallocates) the backing buffer when ``shape`` needs more
        elements than any previous request for this key, or when the dtype
        changed; otherwise reuses the existing allocation.
        """
        n = math.prod(shape)
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.dtype != dtype or buffer.size < n:
            buffer = np.empty(max(n, 1), dtype=dtype)
            self._buffers[key] = buffer
            total = self.nbytes
            if total > self._peak_nbytes:
                self._peak_nbytes = total
        if n > self._watermarks.get(key, 0):
            self._watermarks[key] = n
        return buffer[:n].reshape(shape)

    def zeros(self, key: str, shape: tuple[int, ...], dtype: np.dtype | type) -> np.ndarray:
        """Like :meth:`take` but with the view zero-filled."""
        view = self.take(key, shape, dtype)
        view.fill(0)
        return view

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all backing buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    @property
    def keys(self) -> tuple[str, ...]:
        """Registered buffer keys, sorted (introspection/tests)."""
        return tuple(sorted(self._buffers))

    def trim(self) -> int:
        """Shrink every buffer to its high-water mark since the last trim.

        Keys that saw no ``take`` since the last trim (or creation) are
        dropped entirely; oversized buffers are reallocated at exactly the
        high-water size.  Resets the marks, so repeated trims track each
        phase's working set.  Returns the number of bytes released.
        Invalidates outstanding views — call only between workload phases.
        """
        freed = 0
        for key in list(self._buffers):
            buffer = self._buffers[key]
            mark = self._watermarks.get(key, 0)
            if mark == 0:
                freed += buffer.nbytes
                del self._buffers[key]
            elif buffer.size > mark:
                freed += (buffer.size - mark) * buffer.itemsize
                self._buffers[key] = np.empty(mark, dtype=buffer.dtype)  # idglint: disable=IDG003  (bounded: one shrink per key per trim)
        self._watermarks.clear()
        self._n_trims += 1
        self._trimmed_bytes += freed
        return freed

    def release(self) -> int:
        """Drop every backing buffer and reset the high-water marks; returns
        the bytes released (memory is freed once outstanding views die)."""
        freed = self.nbytes
        self._buffers.clear()
        self._watermarks.clear()
        return freed

    def clear(self) -> None:
        """Drop every backing buffer (frees the memory once views die)."""
        self.release()

    def stats(self) -> ArenaStats:
        """Observability snapshot (see :class:`ArenaStats`).

        Reads the arena's own bookkeeping without synchronisation, matching
        the arena's single-thread contract; :func:`arena_stats` snapshots
        other threads' arenas and is therefore (like
        :func:`trim_thread_arenas`) only exact at quiescent points.
        """
        return ArenaStats(
            thread=self._thread,
            nbytes=self.nbytes,
            peak_nbytes=self._peak_nbytes,
            n_keys=len(self._buffers),
            n_trims=self._n_trims,
            trimmed_bytes=self._trimmed_bytes,
        )

    def __repr__(self) -> str:
        return (
            f"<ScratchArena keys={len(self._buffers)} "
            f"nbytes={self.nbytes}>"
        )


_thread_local = threading.local()


def thread_arena() -> ScratchArena:
    """The calling thread's private :class:`ScratchArena` (created on first
    use).  Concurrent executor workers each get their own arena, so batched
    kernels running in parallel never alias scratch memory."""
    arena = getattr(_thread_local, "arena", None)
    if arena is None:
        arena = ScratchArena()
        _thread_local.arena = arena
    return arena


def clear_thread_arena() -> None:
    """Release the calling thread's arena buffers (tests, memory pressure)."""
    arena = getattr(_thread_local, "arena", None)
    if arena is not None:
        arena.release()


def trim_thread_arenas() -> int:
    """Trim *every* live arena (all threads) to its current high-water mark;
    returns the total bytes released.

    Only safe at quiescent points — the imaging major cycle calls this
    between cycles, after the executors' pools have retired all work.
    """
    with ScratchArena._registry_lock:
        arenas = list(ScratchArena._registry)
    return sum(arena.trim() for arena in arenas)


def arena_stats() -> tuple[ArenaStats, ...]:
    """Snapshots of every live arena (all threads), sorted by thread name.

    This is the telemetry feed for the per-thread scratch high-water marks:
    the streaming runtime and the gridding service turn these into
    ``arena.*`` gauges.  Like :func:`trim_thread_arenas`, exact only at
    quiescent points (arenas are written lock-free by their owning thread).
    """
    with ScratchArena._registry_lock:
        arenas = list(ScratchArena._registry)
    return tuple(sorted((a.stats() for a in arenas), key=lambda s: s.thread))


def total_arena_nbytes() -> int:
    """Bytes currently held across every live arena (all threads)."""
    return sum(s.nbytes for s in arena_stats())
