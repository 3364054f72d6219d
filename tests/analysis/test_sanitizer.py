"""idgsan runtime sanitizer: seeded-bug corpus and clean-run guarantees.

Every test runs under its own ``sanitized()`` context with a private
:class:`Sanitizer`, so seeded races and deadlocks never pollute the session
sanitizer that ``IDG_SANITIZE=1`` runs install via conftest.  The corpus is
paired: each buggy toy has a correctly-synchronised twin that must produce
zero reports — the false-positive budget of the dynamic half is zero.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import (
    PipelineAborted,
    Sanitizer,
    SanitizerError,
    TrackedLock,
    sanitized,
    track_class,
)


class Toy:
    """An intentionally unsynchronised shared object (Eraser target)."""

    def __init__(self) -> None:
        self.counter = 0


def _in_thread(fn, name: str = "seeded") -> list[BaseException]:
    """Run ``fn`` on a fresh thread to completion; return raised exceptions."""
    errors: list[BaseException] = []

    def body() -> None:
        try:
            fn()
        except BaseException as exc:  # noqa: B036 — tests inspect the error
            errors.append(exc)

    t = threading.Thread(target=body, name=name, daemon=True)
    t.start()
    t.join(timeout=30.0)
    assert not t.is_alive(), f"thread {name} failed to finish"
    return errors


# ------------------------------------------------------------ Eraser lockset


def test_unlocked_cross_thread_write_is_a_race() -> None:
    with sanitized() as san:
        track_class(Toy)
        toy = Toy()  # exclusive phase: main thread owns every field
        toy.counter = 1
        _in_thread(lambda: setattr(toy, "counter", 2))
        races = [r for r in san.reports if r.kind == "race"]
        assert len(races) == 1
        assert "Toy.counter" in races[0].message
        with pytest.raises(SanitizerError):
            san.raise_if_reports()


def test_race_reported_once_per_field() -> None:
    with sanitized() as san:
        track_class(Toy)
        toy = Toy()
        for i in range(5):
            _in_thread(lambda i=i: setattr(toy, "counter", i))
        assert len([r for r in san.reports if r.kind == "race"]) == 1


def test_common_lock_discipline_is_clean() -> None:
    with sanitized() as san:
        track_class(Toy)
        toy = Toy()
        lock = TrackedLock(san, "toy_lock")

        def locked_bump() -> None:
            with lock:
                toy.counter += 1

        locked_bump()
        _in_thread(locked_bump)
        _in_thread(locked_bump, name="seeded-2")
        assert san.reports == []
        san.raise_if_reports()  # must not raise


def test_single_thread_writes_never_race() -> None:
    with sanitized() as san:
        track_class(Toy)
        toy = Toy()
        for i in range(100):
            toy.counter = i
        assert san.reports == []


# -------------------------------------------------------- deadlock watchdog


def test_ab_ba_deadlock_is_reported_and_aborted() -> None:
    with sanitized(watchdog_interval=0.05) as san:
        a = TrackedLock(san, "lock_a")
        b = TrackedLock(san, "lock_b")
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def one(first: TrackedLock, second: TrackedLock) -> None:
            try:
                with first:
                    barrier.wait()
                    with second:
                        pass
            except PipelineAborted as exc:
                errors.append(exc)

        t1 = threading.Thread(target=one, args=(a, b), name="ab", daemon=True)
        t2 = threading.Thread(target=one, args=(b, a), name="ba", daemon=True)
        t1.start()
        t2.start()
        t1.join(timeout=30.0)
        t2.join(timeout=30.0)
        assert not t1.is_alive() and not t2.is_alive(), "watchdog failed to abort"
        deadlocks = [r for r in san.reports if r.kind == "deadlock"]
        assert len(deadlocks) == 1
        # the cycle report names both locks and carries stack traces
        assert "lock_a" in deadlocks[0].message
        assert "lock_b" in deadlocks[0].message
        assert "--- thread" in deadlocks[0].details
        # at least one of the two threads was unblocked by force
        assert errors


# ------------------------------------------------------------- arena policy


def test_arena_cross_thread_use_is_reported() -> None:
    from repro.core.scratch import ScratchArena

    with sanitized() as san:
        arena = ScratchArena()
        arena.take("k", (4,), float)
        _in_thread(lambda: arena.take("k", (4,), float))
        assert [r.kind for r in san.reports] == ["arena"]


def test_arena_release_resets_ownership() -> None:
    from repro.core.scratch import ScratchArena

    with sanitized() as san:
        arena = ScratchArena()
        arena.take("k", (4,), float)
        arena.release()  # explicit hand-off point
        _in_thread(lambda: arena.take("k", (4,), float))
        assert san.reports == []


def test_thread_arena_is_clean_by_construction() -> None:
    from repro.core.scratch import thread_arena

    with sanitized() as san:
        thread_arena().zeros("k", (8,), complex)
        _in_thread(lambda: thread_arena().zeros("k", (8,), complex))
        assert san.reports == []


# ------------------------------------------------------ stage attribution


def test_stage_label_attached_to_reports(small_idg, small_plan, small_obs,
                                         single_source_vis) -> None:
    """A backend whose ``grid_work_group`` writes a tracked object without a
    lock races on the pool workers of both thread executors; the one report
    names the ``gridder`` stage, which ``WorkGroupProgram.run`` labels."""
    from repro.backends.vectorized import VectorizedBackend
    from repro.parallel.executor import ParallelIDG
    from repro.runtime import RuntimeConfig, StreamingIDG

    class RacyBackend(VectorizedBackend):
        def __init__(self, toy: Toy) -> None:
            self.toy = toy

        def grid_work_group(self, plan, start, stop, *args, **kwargs):
            self.toy.counter = start  # unlocked, from a pool worker
            return super().grid_work_group(plan, start, stop, *args, **kwargs)

    idg = small_idg.with_config(work_group_size=16)
    engines = {
        "threads": lambda: ParallelIDG(idg, n_workers=2),
        "streaming": lambda: StreamingIDG(idg, RuntimeConfig(workers=2)),
    }
    for name, make_engine in engines.items():
        with sanitized() as san:
            track_class(Toy)
            toy = Toy()
            toy.counter = 1  # main thread takes ownership
            idg.backend = RacyBackend(toy)
            make_engine().grid(small_plan, small_obs.uvw_m, single_source_vis)
            assert [(r.kind, r.stage) for r in san.reports] == [
                ("race", "gridder")
            ], name


# ------------------------------------------------------------ telemetry


@pytest.mark.parametrize("executor", ["threads", "streaming"])
def test_thread_executor_telemetry_is_shared_under_its_lock(
    executor, small_idg, small_plan, small_obs, single_source_vis
) -> None:
    """The caller and the pool workers both append spans; every append holds
    the telemetry's lock, so ``_spans`` turns shared with that lock in its
    lockset and no race is reported."""
    from repro.imaging.pipeline import make_engine

    engine = make_engine(
        small_idg.with_config(work_group_size=16), executor, n_workers=2
    )
    with sanitized() as san:
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
        telemetry = engine.last_telemetry
        spans = telemetry._idgsan_fields["_spans"]
        assert spans.shared
        assert id(telemetry._lock) in spans.lockset
        assert san.reports == []


def test_unlocked_telemetry_appends_are_a_race() -> None:
    """Appending to a sanitized telemetry's spans from two threads without
    its lock is one race on ``_spans``."""
    from repro.runtime.telemetry import Span, Telemetry

    with sanitized() as san:
        telemetry = Telemetry()
        span = Span("gridder", 0, "worker", 0.0, 1.0)
        _in_thread(lambda: telemetry._spans.append(span), name="first")
        _in_thread(lambda: telemetry._spans.append(span), name="second")
        races = [r for r in san.reports if r.kind == "race"]
        assert len(races) == 1
        assert "Telemetry._spans" in races[0].message


# --------------------------------------------------------------- lifecycle


def test_install_patches_and_uninstall_restores() -> None:
    from repro.runtime.program import WorkGroupProgram
    from repro.runtime.telemetry import Telemetry

    before = (Telemetry.__init__, WorkGroupProgram.run)
    had_session = sanitizer.current() is not None
    with sanitized():
        patched = (Telemetry.__init__, WorkGroupProgram.run)
        if had_session:
            # patches are idempotent: a nested install must not double-wrap
            assert patched == before
        else:
            assert all(p is not b for p, b in zip(patched, before))
        assert type(Telemetry()._lock).__name__ == "TrackedLock"
    if had_session:
        # the session sanitizer (IDG_SANITIZE=1) keeps the patches installed
        assert sanitizer.current() is not None
    else:
        assert (Telemetry.__init__, WorkGroupProgram.run) == before
        assert sanitizer.current() is None


def test_sanitized_restores_previous_sanitizer() -> None:
    previous = sanitizer.current()
    with sanitized() as outer:
        assert sanitizer.current() is outer
        with sanitized() as inner:
            assert sanitizer.current() is inner
        assert sanitizer.current() is outer
    assert sanitizer.current() is previous


def test_disabled_mode_installs_nothing() -> None:
    if sanitizer.current() is not None:
        pytest.skip("suite is running with IDG_SANITIZE=1")
    assert not sanitizer._patched
    assert sanitizer.maybe_install_from_env() is None


def test_enable_sanitizer_overrides_environment() -> None:
    forced_before = sanitizer._forced
    try:
        sanitizer.enable_sanitizer(True)
        assert sanitizer.sanitizer_enabled()
        sanitizer.enable_sanitizer(False)
        assert not sanitizer.sanitizer_enabled()
    finally:
        sanitizer._forced = forced_before


def test_report_formatting_is_self_contained() -> None:
    report = sanitizer.SanitizerReport(
        kind="race", message="msg", thread="t0", stage="grid", details="d"
    )
    text = report.format_text()
    assert "idgsan race" in text and "t0" in text and "grid" in text

    empty = Sanitizer()
    empty.raise_if_reports()  # no reports -> no raise
