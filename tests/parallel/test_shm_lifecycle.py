"""SharedArena lifecycle: no /dev/shm segment survives any exit path.

POSIX shared memory is not reclaimed on process exit — a leaked segment
holds RAM until reboot — so the arena's contract is absolute: the owning
process unlinks every segment on success, on failure and on
``KeyboardInterrupt``, and the class-level :meth:`SharedArena.live_segments`
registry (plus a literal ``/dev/shm`` scan) must drain to empty.  Worker
SIGKILL paths are exercised by the fault matrix; this module pins the
owner-side paths and the attach protocol.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.parallel.executor import WorkGroupError
from repro.parallel.process import ProcessConfig, ProcessShardedIDG
from repro.parallel.shm import SharedArena, shm_dir_entries


def _assert_no_leaks(prefix: str | None = None) -> None:
    assert SharedArena.live_segments() == frozenset()
    if prefix is not None:
        assert shm_dir_entries(prefix) == ()


# ----------------------------------------------------------------- unit level


def test_allocate_attach_roundtrip():
    with SharedArena() as arena:
        block = arena.allocate("vis", (4, 3), np.complex64)
        assert not block.any()  # zero-initialised
        block[:] = np.arange(12, dtype=np.complex64).reshape(4, 3)
        attached = SharedArena.attach(arena.spec())
        try:
            assert np.array_equal(attached["vis"], block)
            attached["vis"][0, 0] = 99.0  # same physical pages
            assert block[0, 0] == 99.0
        finally:
            attached.close()
        assert arena.keys() == ("vis",)
    _assert_no_leaks(arena.prefix)


def test_duplicate_key_and_attacher_restrictions():
    with SharedArena() as arena:
        arena.allocate("a", (2,), np.float64)
        with pytest.raises(ValueError, match="duplicate"):
            arena.allocate("a", (2,), np.float64)
        attached = SharedArena.attach(arena.spec())
        try:
            with pytest.raises(RuntimeError, match="owning"):
                attached.allocate("b", (2,), np.float64)
            with pytest.raises(RuntimeError, match="owning"):
                attached.unlink()
        finally:
            attached.close()
    _assert_no_leaks(arena.prefix)


def test_unlink_on_failure_and_keyboard_interrupt():
    for exc_type in (RuntimeError, KeyboardInterrupt):
        prefix = None
        with pytest.raises(exc_type):
            with SharedArena() as arena:
                prefix = arena.prefix
                arena.allocate("grid", (8, 8), np.complex128)
                assert shm_dir_entries(prefix) != ()
                raise exc_type("mid-run abort")
        _assert_no_leaks(prefix)


def test_unlink_is_idempotent():
    arena = SharedArena()
    arena.allocate("x", (1,), np.uint8)
    arena.close_and_unlink()
    arena.close_and_unlink()  # second teardown is a no-op
    _assert_no_leaks(arena.prefix)


_VIEW_OUTLIVES_CLOSE = textwrap.dedent(
    """
    import os
    import numpy as np
    from repro.parallel.shm import SharedArena, shm_dir_entries

    def mapped(prefix):
        if not os.path.exists("/proc/self/maps"):
            return False
        with open("/proc/self/maps") as maps:
            return prefix in maps.read()

    arena = SharedArena()
    view = arena.allocate("x", (1024, 1024), "complex64")[10:20]
    view[:] = 3.0 + 4.0j
    arena.close_and_unlink()
    assert shm_dir_entries(arena.prefix) == ()  # the name is gone at once
    assert SharedArena.live_segments() == frozenset()
    assert abs(view).sum() == 5.0 * view.size
    del view  # the last view: the pages are unmapped now
    assert not mapped(arena.prefix)
    """
)


def test_a_view_outliving_close_stays_readable():
    """A view read after ``close_and_unlink`` used to read unmapped pages
    and kill the process with SIGSEGV; run it in a child so a regression
    fails this test instead of the suite."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _VIEW_OUTLIVES_CLOSE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""  # no "Exception ignored" from a failed close


# ------------------------------------------------------------- executor level


def test_executor_success_leaves_no_segments(conformance):
    case = next(c for c in conformance.cases if c.name == "baseline")
    w = conformance.workload(case)
    engine = ProcessShardedIDG(
        w["idg"], ProcessConfig(n_procs=2, start_method="fork")
    )
    engine.grid(w["plan"], w["obs"].uvw_m, w["vis"])
    engine.degrid(w["plan"], w["obs"].uvw_m, w["model"])
    _assert_no_leaks()
    assert shm_dir_entries() == ()  # any idgshm- prefix, not just ours


def test_executor_failure_leaves_no_segments(conformance, monkeypatch):
    """A fail-fast worker error aborts the run through the arena's context
    manager: the error propagates AND the segments are gone."""
    case = next(c for c in conformance.cases if c.name == "baseline")
    w = conformance.workload(case)
    backend_cls = type(w["idg"].backend)

    def failing(self, plan, start, stop, *args, **kwargs):
        raise RuntimeError("poisoned kernel")

    monkeypatch.setattr(backend_cls, "grid_work_group", failing)
    engine = ProcessShardedIDG(
        w["idg"], ProcessConfig(n_procs=2, start_method="fork")
    )
    with pytest.raises(WorkGroupError):
        engine.grid(w["plan"], w["obs"].uvw_m, w["vis"])
    _assert_no_leaks()
    assert shm_dir_entries() == ()
