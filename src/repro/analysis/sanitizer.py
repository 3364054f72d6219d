"""idgsan — opt-in lockset race detection and deadlock watchdog.

The static IDG1xx rules (:mod:`repro.analysis.rules`) catch lock-discipline
violations visible in the source; this module catches the ones that only
exist at runtime — a kernel writing shared state from a pool worker, an
arena view crossing threads through a closure, an AB/BA inversion between
locks the AST cannot connect.  It is the dynamic half of the same contract,
and like :mod:`repro.analysis.contracts` it is a **true no-op unless
enabled**: importing this module patches nothing; only :func:`install` (or
``IDG_SANITIZE=1`` + :func:`maybe_install_from_env`) monkeypatches the
runtime classes, and :func:`uninstall` restores them byte-for-byte.

What it does while installed:

* **Lockset race detection** (Eraser-style, write-write).  Attribute writes
  on tracked classes (:class:`~repro.runtime.telemetry.Telemetry`, plus
  anything registered with :func:`track_class`) are intercepted via
  ``__setattr__``.  A ``Telemetry`` built while installed also gets watched
  copies of its list and dict fields (spans, gauges, counters, stage
  order), whose in-place mutators — ``append``, item assignment and the
  like — count as writes of the field: the recorder fills them from the
  calling thread and from every pool worker, under its lock.  Each field
  starts *exclusive* to its constructing thread; the first write from a
  second thread makes it *shared* and seeds its candidate lockset with the
  locks held at that write; every later write intersects.  An empty
  intersection means no single lock protects the field — a data race is
  reported (once per field) with the writing thread and stage.  The stage
  is the one :meth:`~repro.runtime.program.WorkGroupProgram.run` is
  running on that thread, so reports from every executor's stage bodies
  name it.

* **Arena ownership**.  :class:`~repro.core.scratch.ScratchArena` views are
  single-thread by contract; ``take``/``zeros`` record the first toucher as
  the owner (``trim``/``release`` invalidate all views and reset ownership)
  and any other thread allocating from the same arena is reported.

* **Deadlock watchdog**.  A daemon thread snapshots the wait-for graph —
  which thread waits on which tracked lock, and who owns it — and on a
  cycle records a report with per-thread stack traces and *aborts* the run:
  tracked locks acquire in short slices and raise :class:`PipelineAborted`
  once the abort flag is set, so CI fails with a diagnosis instead of
  hanging.

Typical use::

    from repro.analysis.sanitizer import sanitized

    with sanitized() as san:
        engine.grid(plan, uvw_m, visibilities)
    san.raise_if_reports()

or, for a whole test session, ``IDG_SANITIZE=1 pytest`` (the suite's
``conftest.py`` installs the sanitizer and fails any test that produced a
report).
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "PipelineAborted",
    "Sanitizer",
    "SanitizerError",
    "SanitizerReport",
    "TrackedLock",
    "current",
    "enable_sanitizer",
    "install",
    "maybe_install_from_env",
    "sanitized",
    "sanitizer_enabled",
    "uninstall",
]

_ENV_VAR = "IDG_SANITIZE"
_TRUTHY = ("1", "true", "yes", "on")

#: Programmatic override; ``None`` defers to the environment variable.
_forced: bool | None = None

#: The installed sanitizer (None while uninstalled).
CURRENT: "Sanitizer | None" = None

#: Poll slice for abortable lock acquisition (seconds).
_WAIT_SLICE = 0.05

_tls = threading.local()


def enable_sanitizer(enabled: bool = True) -> None:
    """Force the ``IDG_SANITIZE`` gate on (or off) programmatically."""
    global _forced
    _forced = enabled


def sanitizer_enabled() -> bool:
    if _forced is not None:
        return _forced
    return os.environ.get(_ENV_VAR, "").strip().lower() in _TRUTHY


def current() -> "Sanitizer | None":
    """The installed sanitizer, or None."""
    return CURRENT


class SanitizerError(RuntimeError):
    """Raised by :meth:`Sanitizer.raise_if_reports` when violations exist."""


class PipelineAborted(RuntimeError):
    """Raised by a blocked :class:`TrackedLock` acquisition once the
    watchdog has aborted the run."""


@dataclass(frozen=True)
class SanitizerReport:
    """One detected violation."""

    kind: str  # "race" | "deadlock" | "arena"
    message: str
    thread: str
    stage: str | None = None
    details: str = ""

    def format_text(self) -> str:
        where = f" [stage {self.stage}]" if self.stage else ""
        text = f"idgsan {self.kind}: {self.message} (thread {self.thread}{where})"
        if self.details:
            text += "\n" + self.details
        return text


@dataclass
class _FieldState:
    """Eraser state of one tracked attribute."""

    owner: int  # ident of the thread in the exclusive phase
    shared: bool = False
    lockset: frozenset[int] = frozenset()
    reported: bool = False


def _held_locks() -> list[Any]:
    locks = getattr(_tls, "locks", None)
    if locks is None:
        locks = []
        _tls.locks = locks
    return locks


def _stage_label() -> str | None:
    return getattr(_tls, "stage", None)


class Sanitizer:
    """Collected state of one sanitizer session (reports, wait-for graph).

    Parameters
    ----------
    watchdog_interval:
        Seconds between watchdog sweeps.
    """

    def __init__(self, watchdog_interval: float = 0.25) -> None:
        self.watchdog_interval = watchdog_interval
        self.reports: list[SanitizerReport] = []
        self._reports_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._abort = threading.Event()
        #: thread ident -> tracked lock it is currently blocked acquiring.
        self._lock_waiting: dict[int, Any] = {}
        self._deadlock_reported = False

    # -------------------------------------------------------------- reports

    def report(
        self, kind: str, message: str, details: str = ""
    ) -> None:
        entry = SanitizerReport(
            kind=kind,
            message=message,
            thread=threading.current_thread().name,
            stage=_stage_label(),
            details=details,
        )
        with self._reports_lock:
            self.reports.append(entry)

    def raise_if_reports(self) -> None:
        """Raise :class:`SanitizerError` listing every report, if any."""
        with self._reports_lock:
            if not self.reports:
                return
            text = "\n".join(r.format_text() for r in self.reports)
            count = len(self.reports)
        raise SanitizerError(f"{count} sanitizer report(s):\n{text}")

    def clear(self) -> None:
        with self._reports_lock:
            self.reports.clear()

    # ------------------------------------------------------------- locksets

    def _push(self, lock: Any) -> None:
        _held_locks().append(lock)

    def _pop(self, lock: Any) -> None:
        held = _held_locks()
        if lock in held:
            held.remove(lock)

    def check_abort(self) -> None:
        """Raise :class:`PipelineAborted` when the watchdog aborted the run."""
        if self._abort.is_set():
            raise PipelineAborted(
                "idgsan: deadlock watchdog aborted the run (see reports)"
            )

    def record_write(self, obj: Any, attr: str) -> None:
        """Eraser write-write lockset check for ``obj.attr``."""
        if attr.startswith("_idgsan"):
            return
        ident = threading.get_ident()
        held = frozenset(id(lock) for lock in _held_locks())
        with self._state_lock:
            fields = obj.__dict__.get("_idgsan_fields")
            if fields is None:
                fields = {}
                object.__setattr__(obj, "_idgsan_fields", fields)
            state = fields.get(attr)
            if state is None:
                fields[attr] = _FieldState(owner=ident)
                return
            if not state.shared:
                if state.owner == ident:
                    return  # still exclusive to the constructing thread
                # first write from a second thread: the candidate lockset is
                # what *it* holds (the exclusive phase is initialisation and
                # carries no constraint — classic Eraser)
                state.shared = True
                state.lockset = held
            else:
                state.lockset &= held
            if not state.lockset and not state.reported:
                state.reported = True
                self.report(
                    "race",
                    f"unsynchronised write to {type(obj).__name__}.{attr}: "
                    "no common lock protects this field across its writer "
                    "threads",
                )

    # --------------------------------------------------------------- arenas

    def note_arena_alloc(self, arena: Any) -> None:
        ident = threading.get_ident()
        owner = getattr(arena, "_idgsan_owner", None)
        if owner is None:
            object.__setattr__(arena, "_idgsan_owner", ident)
        elif owner != ident:
            self.report(
                "arena",
                "ScratchArena used from two threads: arenas are "
                "single-thread by contract (obtain one via thread_arena(), "
                "or release() before handing it off)",
            )

    def note_arena_reset(self, arena: Any) -> None:
        object.__setattr__(arena, "_idgsan_owner", None)

    # ------------------------------------------------------------- watchdog

    def _thread_names(self) -> dict[int, str]:
        return {t.ident: t.name for t in threading.enumerate() if t.ident}

    def _format_stacks(self, idents: set[int]) -> str:
        names = self._thread_names()
        frames = sys._current_frames()
        parts = []
        for ident in sorted(idents):
            frame = frames.get(ident)
            if frame is None:
                continue
            stack = "".join(traceback.format_stack(frame))
            parts.append(f"--- thread {names.get(ident, ident)} ---\n{stack}")
        return "".join(parts)

    def _find_lock_cycle(self) -> list[tuple[int, Any, int]] | None:
        """A cycle in the thread->lock->owner wait-for graph, if any."""
        edges: dict[int, tuple[Any, int]] = {}
        for ident, lock in list(self._lock_waiting.items()):
            owner = getattr(lock, "owner", None)
            if owner is not None and owner != ident:
                edges[ident] = (lock, owner)
        for start in edges:
            chain: list[tuple[int, Any, int]] = []
            position: dict[int, int] = {}
            node = start
            while node in edges and node not in position:
                position[node] = len(chain)
                lock, nxt = edges[node]
                chain.append((node, lock, nxt))
                node = nxt
            if node in position:
                return chain[position[node]:]
        return None

    def _watchdog_sweep(self) -> None:
        if self._deadlock_reported:
            return
        cycle = self._find_lock_cycle()
        if cycle is None:
            return
        names = self._thread_names()
        desc = " -> ".join(
            f"{names.get(ident, ident)} waits {lock.label} "
            f"(held by {names.get(owner, owner)})"
            for ident, lock, owner in cycle
        )
        self._deadlock_reported = True
        self.report(
            "deadlock",
            f"lock-order deadlock: {desc}",
            details=self._format_stacks({i for i, _, _ in cycle}),
        )
        self._abort.set()


class _Watchdog(threading.Thread):
    def __init__(self, sanitizer: Sanitizer) -> None:
        super().__init__(name="idgsan-watchdog", daemon=True)
        self._sanitizer = sanitizer
        self._halt = threading.Event()  # Thread reserves the name _stop

    def run(self) -> None:
        while not self._halt.wait(self._sanitizer.watchdog_interval):
            self._sanitizer._watchdog_sweep()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


# ---------------------------------------------------------------- primitives


class TrackedLock:
    """A ``threading.Lock`` wrapper that maintains the per-thread lockset,
    exposes its owner to the watchdog, and aborts instead of hanging."""

    def __init__(self, sanitizer: Sanitizer, label: str) -> None:
        self._lock = threading.Lock()
        self._sanitizer = sanitizer
        self.label = label
        self.owner: int | None = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        sanitizer = self._sanitizer
        ident = threading.get_ident()
        if not blocking or timeout != -1:
            acquired = self._lock.acquire(blocking, timeout)
        else:
            sanitizer._lock_waiting[ident] = self
            try:
                while not self._lock.acquire(timeout=_WAIT_SLICE):
                    sanitizer.check_abort()
            finally:
                sanitizer._lock_waiting.pop(ident, None)
            acquired = True
        if acquired:
            self.owner = ident
            sanitizer._push(self)
        return acquired

    def release(self) -> None:
        self._sanitizer._pop(self)
        self.owner = None
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


# ------------------------------------------------------------- installation

#: (cls, attr) -> original callable, for uninstall.  Necessarily mutable
#: module state: it is the undo log of the monkeypatches.
_patched: dict[tuple[type, str], Any] = {}  # idglint: disable=IDG004
_watchdog: _Watchdog | None = None


def _patch(cls: type, attr: str, wrapper: Any) -> None:
    key = (cls, attr)
    if key not in _patched:
        _patched[key] = cls.__dict__.get(attr)
        setattr(cls, attr, wrapper)


def _reporting(mutator: Callable[..., Any]) -> Callable[..., Any]:
    """``mutator`` of a watched container, reporting a write of the field
    that holds the container before it runs."""

    def method(self: Any, *args: Any, **kwargs: Any) -> Any:
        sanitizer = CURRENT
        if sanitizer is not None:
            sanitizer.record_write(self.owner, self.field)
        return mutator(self, *args, **kwargs)

    return method


class _WatchedList(list):
    """A list field whose in-place writes reach the lockset check."""

    __slots__ = ("owner", "field")
    append = _reporting(list.append)
    extend = _reporting(list.extend)
    insert = _reporting(list.insert)
    pop = _reporting(list.pop)
    remove = _reporting(list.remove)
    clear = _reporting(list.clear)
    __setitem__ = _reporting(list.__setitem__)
    __delitem__ = _reporting(list.__delitem__)
    __iadd__ = _reporting(list.__iadd__)


class _WatchedDict(dict):
    """A dict field whose in-place writes reach the lockset check."""

    __slots__ = ("owner", "field")
    __setitem__ = _reporting(dict.__setitem__)
    __delitem__ = _reporting(dict.__delitem__)
    pop = _reporting(dict.pop)
    popitem = _reporting(dict.popitem)
    clear = _reporting(dict.clear)
    update = _reporting(dict.update)
    setdefault = _reporting(dict.setdefault)


def _watch_containers(obj: Any) -> None:
    """Swap every list and dict field of ``obj`` for a watched copy, so
    mutating one in place is a write of that field."""
    for field, value in list(vars(obj).items()):
        if type(value) in (list, dict):
            watched = (_WatchedList if type(value) is list else _WatchedDict)(value)
            watched.owner, watched.field = obj, field
            setattr(obj, field, watched)


def _tracking_setattr(cls: type) -> Callable[[Any, str, Any], None]:
    original = cls.__setattr__

    def __setattr__(self: Any, name: str, value: Any) -> None:
        sanitizer = CURRENT
        if sanitizer is not None:
            sanitizer.record_write(self, name)
        original(self, name, value)

    return __setattr__


def install(sanitizer: Sanitizer | None = None) -> Sanitizer:
    """Patch the runtime classes and start the watchdog.

    Idempotent on the patches; the active :class:`Sanitizer` is replaced by
    ``sanitizer`` (or a fresh one).  Objects constructed while installed are
    tracked; pre-existing objects are not.
    """
    global CURRENT, _watchdog
    from repro.core.scratch import ScratchArena
    from repro.runtime.program import WorkGroupProgram
    from repro.runtime.telemetry import Telemetry

    sanitizer = sanitizer if sanitizer is not None else Sanitizer()
    CURRENT = sanitizer

    telemetry_init = Telemetry.__init__

    def patched_telemetry_init(self: Any, *args: Any, **kwargs: Any) -> None:
        telemetry_init(self, *args, **kwargs)
        active = CURRENT
        if active is not None:
            self._lock = TrackedLock(active, "Telemetry._lock")
            # The recorder fills its span, gauge, counter and stage
            # containers in place, which __setattr__ never sees.
            _watch_containers(self)

    program_run = WorkGroupProgram.run

    def patched_run(
        self: Any, stage: str, group: int, fn: Callable[[], Any]
    ) -> Any:
        # Label this thread with the stage while its body runs, so a report
        # raised inside names it; every executor's stage bodies pass here.
        def labelled() -> Any:
            previous = _stage_label()
            _tls.stage = stage
            try:
                return fn()
            finally:
                _tls.stage = previous

        return program_run(self, stage, group, labelled)

    arena_take = ScratchArena.take

    def patched_take(self: Any, *args: Any, **kwargs: Any) -> Any:
        active = CURRENT
        if active is not None:
            active.note_arena_alloc(self)
        return arena_take(self, *args, **kwargs)

    arena_trim = ScratchArena.trim

    def patched_trim(self: Any) -> int:
        active = CURRENT
        if active is not None:
            active.note_arena_reset(self)
        return arena_trim(self)

    arena_release = ScratchArena.release

    def patched_release(self: Any) -> int:
        active = CURRENT
        if active is not None:
            active.note_arena_reset(self)
        return arena_release(self)

    _patch(Telemetry, "__init__", patched_telemetry_init)
    _patch(Telemetry, "__setattr__", _tracking_setattr(Telemetry))
    _patch(WorkGroupProgram, "run", patched_run)
    _patch(ScratchArena, "take", patched_take)
    _patch(ScratchArena, "trim", patched_trim)
    _patch(ScratchArena, "release", patched_release)
    # ``zeros`` calls the (patched) ``take``, so it needs no wrapper of its
    # own; a second one would double-check ownership per allocation.

    if _watchdog is None:
        _watchdog = _Watchdog(sanitizer)
        _watchdog.start()
    else:
        _watchdog._sanitizer = sanitizer
    return sanitizer


def uninstall() -> None:
    """Restore every patched method and stop the watchdog."""
    global CURRENT, _watchdog
    if _watchdog is not None:
        _watchdog.stop()
        _watchdog = None
    for (cls, attr), original in _patched.items():
        if original is None:
            # the attribute was inherited (e.g. object.__setattr__): remove
            # the override to re-expose it
            if attr in cls.__dict__:
                delattr(cls, attr)
        else:
            setattr(cls, attr, original)
    _patched.clear()
    CURRENT = None


def track_class(cls: type) -> None:
    """Add Eraser write tracking to an arbitrary class (tests, user code)."""
    _patch(cls, "__setattr__", _tracking_setattr(cls))


def maybe_install_from_env() -> Sanitizer | None:
    """Install iff ``IDG_SANITIZE`` is truthy; returns the sanitizer."""
    if sanitizer_enabled() and CURRENT is None:
        return install()
    return CURRENT


@contextmanager
def sanitized(watchdog_interval: float = 0.25) -> Iterator[Sanitizer]:
    """Context manager: install a fresh sanitizer, restore the previous
    state on exit (the previous sanitizer is reinstated if one was active)."""
    global CURRENT
    previous = CURRENT
    sanitizer = install(Sanitizer(watchdog_interval=watchdog_interval))
    try:
        yield sanitizer
    finally:
        if previous is None:
            uninstall()
        else:
            CURRENT = previous
            if _watchdog is not None:
                _watchdog._sanitizer = previous
