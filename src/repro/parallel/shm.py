"""Shared-memory arena for the process-sharded executor.

A :class:`SharedArena` owns a set of named ``multiprocessing.shared_memory``
segments, each exposed as a NumPy array.  The parent process allocates every
segment up front (inputs, per-group result slabs, status/accounting tables),
ships a picklable :class:`ArenaSpec` to each worker process, and the workers
attach read/write views onto the *same* physical pages — no visibility or
subgrid ever crosses a pipe.

Lifecycle rules (the part that goes wrong in practice):

* The parent is the sole **owner**: it creates the segments and is the only
  process that ever unlinks them.  ``SharedArena`` is a context manager whose
  ``__exit__`` closes *and unlinks* every segment, so success, failure and
  ``KeyboardInterrupt`` all tear the arena down — no stale ``/dev/shm``
  entries survive the run (``tests/parallel/test_shm_lifecycle.py`` is the
  regression gate).
* Workers **attach**; their ``close`` drops the local mapping only.  Workers
  are always *children* of the owner, so they share its ``resource_tracker``
  process and the (set-based) registration stays balanced by the parent's
  single unlink — the bpo-38119 premature-unlink hazard does not apply, and
  no per-attach unregister is needed (or wanted: it would erase the owner's
  registration).
* Segment names carry a per-arena prefix (``idgshm-<pid>-<token>``), so a
  leak is attributable to its run and the tests can scan ``/dev/shm`` for
  exactly this executor's segments.
* ``close`` unmaps a segment at once unless a caller still holds its array
  or a view of it; that segment is unmapped when the last one dies, so a
  view that outlives ``close`` stays readable (``unlink`` still removes
  the name at once).

The class-level :meth:`live_segments` registry records every segment this
process has created and not yet unlinked — the leak regression tests assert
it drains to empty.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import ClassVar, Mapping

import numpy as np

__all__ = ["ArenaSpec", "SharedArena", "shm_dir_entries"]

#: Where the kernel materialises POSIX shared memory on Linux.
_SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable description of an arena's segments for worker attach.

    ``blocks`` maps each logical key to ``(segment_name, shape, dtype_str)``.
    """

    prefix: str
    blocks: tuple[tuple[str, str, tuple[int, ...], str], ...]


class SharedArena:
    """A named set of shared-memory-backed NumPy arrays (module docstring).

    Parent (owner) side::

        with SharedArena() as arena:
            vis = arena.allocate("vis", visibilities.shape, visibilities.dtype)
            np.copyto(vis, visibilities)
            spawn_workers(arena.spec())
            ...
        # segments closed AND unlinked here, even on exceptions

    Worker side::

        arena = SharedArena.attach(spec)
        try:
            vis = arena["vis"]
            ...
        finally:
            arena.close()  # local mapping only; the parent unlinks
    """

    #: Segment names created by this process and not yet unlinked.
    _live: ClassVar[set[str]] = set()
    _live_lock: ClassVar[threading.Lock] = threading.Lock()

    def __init__(self, prefix: str | None = None) -> None:
        if prefix is None:
            prefix = f"idgshm-{os.getpid()}-{secrets.token_hex(4)}"
        self.prefix = prefix
        self.owner = True
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._meta: dict[str, tuple[tuple[int, ...], str]] = {}
        self._arrays: dict[str, np.ndarray] = {}
        self._unlinked = False

    # -------------------------------------------------------------- owner API

    def allocate(
        self, key: str, shape: tuple[int, ...], dtype: np.dtype | type | str
    ) -> np.ndarray:
        """Create one zero-initialised segment and return its array view."""
        if not self.owner:
            raise RuntimeError("only the owning arena can allocate segments")
        if key in self._segments:
            raise ValueError(f"duplicate arena key {key!r}")
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
        name = f"{self.prefix}-{key}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        with SharedArena._live_lock:
            SharedArena._live.add(segment.name)
        self._segments[key] = segment
        self._meta[key] = (tuple(int(s) for s in shape), dt.str)
        array = np.ndarray(shape, dtype=dt, buffer=segment.buf)
        array.fill(0)
        self._arrays[key] = array
        return array

    def spec(self) -> ArenaSpec:
        """The picklable attach ticket for worker processes."""
        return ArenaSpec(
            prefix=self.prefix,
            blocks=tuple(
                (key, self._segments[key].name, shape, dtype_str)
                for key, (shape, dtype_str) in self._meta.items()
            ),
        )

    # ------------------------------------------------------------- worker API

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "SharedArena":
        """Map an existing arena (worker side; never unlinks)."""
        arena = cls.__new__(cls)
        arena.prefix = spec.prefix
        arena.owner = False
        arena._segments = {}
        arena._meta = {}
        arena._arrays = {}
        arena._unlinked = False
        for key, name, shape, dtype_str in spec.blocks:
            # SharedMemory(name=...) re-registers the segment with the
            # resource tracker.  Workers are *children* of the owning
            # process, so they share its tracker and the registration set is
            # idempotent — the parent's single unlink balances it.  (The
            # bpo-38119 premature-unlink hazard only bites attachers with a
            # tracker of their own; explicitly unregistering here would
            # instead erase the parent's registration out from under it.)
            segment = shared_memory.SharedMemory(name=name)
            arena._segments[key] = segment
            arena._meta[key] = (tuple(shape), dtype_str)
            arena._arrays[key] = np.ndarray(
                tuple(shape), dtype=np.dtype(dtype_str), buffer=segment.buf
            )
        return arena

    # ------------------------------------------------------------ shared API

    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def keys(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def close(self) -> None:
        """Drop this process's mappings (does not unlink).

        A segment whose array is still alive, held by a caller or by one of
        its views, is unmapped when that array dies instead.
        """
        arrays = {key: weakref.ref(array) for key, array in self._arrays.items()}
        self._arrays.clear()
        for key, ref in arrays.items():
            segment, array = self._segments[key], ref()
            if array is None:
                segment.close()
            else:
                # the array holds no buffer export of the segment (so
                # ``SharedMemory.close`` would not refuse): closing now
                # would unmap pages its views still read
                weakref.finalize(array, segment.close)

    def unlink(self) -> None:
        """Remove the segments from the system (owner only; idempotent)."""
        if not self.owner:
            raise RuntimeError("only the owning arena can unlink segments")
        if self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            with SharedArena._live_lock:
                SharedArena._live.discard(segment.name)

    def close_and_unlink(self) -> None:
        self.close()
        if self.owner:
            self.unlink()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close_and_unlink()

    # ---------------------------------------------------------- leak checks

    @classmethod
    def live_segments(cls) -> frozenset[str]:
        """Segments created by this process and not yet unlinked."""
        with cls._live_lock:
            return frozenset(cls._live)


def shm_dir_entries(prefix: str = "idgshm-") -> tuple[str, ...]:
    """``/dev/shm`` entries carrying an arena prefix (leak regression tests).

    Returns an empty tuple on hosts without a POSIX shm directory.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return ()
    return tuple(sorted(n for n in names if n.startswith(prefix)))
