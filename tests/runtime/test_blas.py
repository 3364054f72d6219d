"""The BLAS thread policy (``repro.runtime.blas``): from the first grid or
degrid call on, OpenBLAS runs one thread in the process; the policy is set
once, never restored, and a forked worker never touches the thread pool."""

import logging
import os
import signal
import time

import numpy as np
import pytest

from repro.imaging.pipeline import make_engine
from repro.runtime import blas

EXECUTORS = ("serial", "threads", "streaming", "processes")

requires_openblas = pytest.mark.skipif(
    not blas._thread_controls(),
    reason="no OpenBLAS with a thread-count API is loaded",
)


@pytest.fixture
def fresh_process(monkeypatch):
    """The policy's done flag as before this process's first grid call
    (monkeypatch restores it afterwards)."""
    monkeypatch.setattr(blas, "_done", False)


@pytest.fixture
def two_blas_threads(fresh_process):
    """Every loaded OpenBLAS set to 2 threads; the counts found are
    restored afterwards.  Yields the ``(path, get, set)`` controls."""
    controls = blas._thread_controls()
    found = [get_num_threads() for _, get_num_threads, _ in controls]
    for _, _, set_num_threads in controls:
        set_num_threads(2)
    yield controls
    for (_, _, set_num_threads), n_threads in zip(controls, found):
        set_num_threads(n_threads)


class FakeOpenBLAS:
    """A thread-count getter/setter pair that records every setter call."""

    def __init__(self, n_threads: int) -> None:
        self.n_threads = n_threads
        self.set_calls: list[int] = []

    def get(self) -> int:
        return self.n_threads

    def set(self, n_threads: int) -> None:
        self.set_calls.append(n_threads)
        self.n_threads = n_threads


def fake_openblas(monkeypatch, n_threads: int = 2) -> FakeOpenBLAS:
    """Make the fake the only OpenBLAS the policy finds."""
    fake = FakeOpenBLAS(n_threads)
    monkeypatch.setattr(
        blas, "_thread_controls", lambda: [("libfake_openblas.so", fake.get, fake.set)]
    )
    return fake


@requires_openblas
@pytest.mark.parametrize("executor", EXECUTORS)
def test_first_grid_call_leaves_one_blas_thread(
    executor, two_blas_threads, small_idg, small_plan, small_obs, single_source_vis
):
    engine = make_engine(small_idg, executor, n_workers=2)
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert [get() for _, get, _ in two_blas_threads] == [1] * len(two_blas_threads)


@pytest.mark.parametrize("n_threads, set_calls", [(2, [1]), (1, [])])
def test_the_setter_runs_once_per_process(
    n_threads, set_calls, fresh_process, monkeypatch, caplog,
    small_idg, small_plan, small_obs, single_source_vis,
):
    """Two grid calls and a degrid call set the thread count at most once,
    only when the getter reads more than 1, with one DEBUG record."""
    fake = fake_openblas(monkeypatch, n_threads)
    with caplog.at_level(logging.DEBUG, logger=blas.__name__):
        small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
        grid = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
        small_idg.degrid(small_plan, small_obs.uvw_m, grid)
    assert fake.set_calls == set_calls
    assert len(caplog.records) == len(set_calls)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_never_calls_the_setter(fresh_process, monkeypatch):
    """OpenBLAS shuts its pool down before fork() and any later setter call
    re-creates it: a child must inherit the policy, not apply it again."""
    fake = fake_openblas(monkeypatch)
    blas.single_threaded_blas()
    assert fake.set_calls == [1]
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        status = 1
        try:
            blas.single_threaded_blas()
            status = 0 if fake.set_calls == [1] else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 30.0
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not exit within 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(waited[1]) == 0


def test_without_openblas_the_policy_is_a_no_op(
    two_blas_threads, monkeypatch, small_idg, small_plan, small_obs, single_source_vis
):
    """No ``/proc/self/maps`` (non-Linux), so no OpenBLAS found: the thread
    counts stay as they were and gridding still runs."""

    def no_proc_maps(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(blas, "open", no_proc_maps, raising=False)
    grid = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert np.abs(grid).max() > 0
    assert [get() for _, get, _ in two_blas_threads] == [2] * len(two_blas_threads)
