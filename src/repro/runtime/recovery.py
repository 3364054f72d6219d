"""Retry, dead-letter quarantine and fault reporting for work groups.

The failure contract shared by every executor (serial :class:`~repro.core.IDG`,
:class:`~repro.runtime.StreamingIDG` and its ``threads`` configuration
:class:`~repro.parallel.executor.ParallelIDG`,
:class:`~repro.parallel.process.ProcessShardedIDG`): each per-work-group
stage call of a :class:`~repro.runtime.program.WorkGroupProgram` runs
through its :class:`WorkGroupRunner`, which is always built.

* **Fail-fast** (``max_retries == 0`` and no fault plan, the default): the
  stage runs directly and its first exception raises
  :class:`WorkGroupError` naming the stage, the work group and its plan-item
  range, with the original exception chained as ``__cause__``.
* **Tolerant** (``IDGConfig.max_retries > 0`` / ``--max-retries``, or an
  injected :class:`~repro.runtime.faults.FaultPlan`): failed attempts are
  retried with exponential backoff under a bounded attempt budget
  (:class:`RetryPolicy`); a work group that exhausts its budget is
  quarantined into a :class:`DeadLetter` (plan indices, final exception,
  attempt count) instead of aborting the run — the stage call returns a
  :class:`Quarantined` sentinel that later stages pass on, and the executor
  excludes that group's visibilities, with the loss recorded for
  flag/weight accounting.  Retry/dead-letter counters and retry-backoff
  spans feed the run's :class:`~repro.runtime.telemetry.Telemetry`.

``benchmarks/bench_fault_recovery.py`` gates the tolerant path's clean-run
cost against the fail-fast path.

What is *not* exactly-once: gridder/FFT/splitter stages are pure functions
of their inputs, so a retry re-runs them safely.  The adder mutates the
master grid; injected adder faults strike at stage entry (before any
mutation) and retry cleanly, but a genuine exception part-way through an
accumulation can leave a partial contribution behind.  Such a torn add is
never retried or quarantined: the program's retirement
(:meth:`repro.runtime.program.WorkGroupProgram.retire`) raises
:class:`WorkGroupError` naming the ``adder`` stage, in tolerant mode too, so
no executor returns a grid holding part of a group.  See DESIGN.md §11 for
the full failure model.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.runtime.faults import FaultPlan
from repro.runtime.telemetry import Telemetry, monotonic

__all__ = [
    "DeadLetter",
    "FaultReport",
    "Quarantined",
    "RetryPolicy",
    "WorkGroupError",
    "WorkGroupRunner",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-attempt retry with exponential backoff.

    Attributes
    ----------
    max_retries:
        Retry attempts per stage call beyond the first try (0, with no
        fault plan, is fail-fast: the first failure raises
        :class:`WorkGroupError`).
    backoff_s:
        Backoff before the first retry; retry ``k`` waits
        ``backoff_s * backoff_factor**(k-1)`` seconds, capped.
    backoff_factor:
        Exponential growth factor between consecutive retries.
    max_backoff_s:
        Upper bound on a single backoff sleep.
    """

    max_retries: int = 0
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.max_retries > 0

    def backoff(self, retry: int) -> float:
        """Backoff seconds before retry number ``retry`` (1-based)."""
        if retry <= 0:
            raise ValueError("retry is 1-based")
        return min(
            self.backoff_s * self.backoff_factor ** (retry - 1),
            self.max_backoff_s,
        )


class WorkGroupError(RuntimeError):
    """A fail-fast work-group failure: the stage, the work group and its
    plan-item range (plus the shard, for a worker-process failure).

    The original exception is chained as ``__cause__`` when it lives in this
    process; ``error`` is its ``repr``.
    """

    def __init__(
        self,
        stage: str,
        group: int,
        start: int,
        stop: int,
        error: str,
        shard: int | None = None,
    ) -> None:
        super().__init__(stage, group, start, stop, error, shard)
        self.stage = stage
        self.group = group
        self.start = start
        self.stop = stop
        self.error = error
        self.shard = shard

    def __str__(self) -> str:
        where = "" if self.shard is None else f" in shard {self.shard}"
        return (
            f"{self.stage} stage of work group {self.group} (plan items "
            f"[{self.start}, {self.stop})) failed{where}: {self.error}"
        )


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined work group: what failed, where, and what it cost."""

    stage: str
    group: int  # work-group sequence index in plan order
    start: int  # first plan item of the group
    stop: int  # one past the last plan item
    attempts: int
    error: str  # repr of the final exception
    n_visibilities: int  # covered visibilities excluded from the output


@dataclass(frozen=True)
class Quarantined:
    """Sentinel stage result standing in for a dead-lettered work group.

    Flows through downstream stages (keeping sequence ordering and the
    in-flight count intact) instead of the group's real payload.
    """

    group: int
    start: int
    stop: int


@dataclass
class FaultReport:
    """Outcome of one fault-tolerant grid/degrid run.

    Thread-safe for the recording side; executors expose the report on
    ``last_fault_report`` after every tolerant run (``ok`` is True when
    nothing was quarantined).
    """

    dead_letters: list[DeadLetter] = field(default_factory=list)
    n_retries: int = 0
    n_groups: int = 0
    n_groups_completed: int = 0
    n_checkpoints: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def ok(self) -> bool:
        return not self.dead_letters

    @property
    def n_dead_letters(self) -> int:
        return len(self.dead_letters)

    @property
    def n_visibilities_lost(self) -> int:
        """Visibilities excluded from the output by quarantined groups."""
        return sum(d.n_visibilities for d in self.dead_letters)

    def excluded_items(self) -> tuple[tuple[int, int], ...]:
        """Plan-item ranges of every quarantined work group (deduplicated:
        a group dead-lettered at one stage appears once)."""
        return tuple(sorted({(d.start, d.stop) for d in self.dead_letters}))

    def adjusted_weight_sum(self, weight_sum: float) -> float:
        """Flag accounting: ``weight_sum`` minus the quarantined
        visibilities, floored at zero (natural-weighting count semantics)."""
        return max(weight_sum - float(self.n_visibilities_lost), 0.0)

    def record_dead_letter(self, letter: DeadLetter) -> None:
        with self._lock:
            self.dead_letters.append(letter)

    def record_retry(self, n: int = 1) -> None:
        with self._lock:
            self.n_retries += n

    def summary(self) -> str:
        """One-paragraph human-readable digest of the run's faults."""
        lines = [
            f"fault report: {self.n_groups_completed}/{self.n_groups} work "
            f"groups completed, {self.n_retries} retries, "
            f"{self.n_dead_letters} dead-lettered "
            f"({self.n_visibilities_lost} visibilities excluded)"
        ]
        for d in self.dead_letters:
            lines.append(
                f"  dead letter: stage {d.stage} group {d.group} "
                f"items [{d.start}, {d.stop}) after {d.attempts} "
                f"attempt(s): {d.error}"
            )
        return "\n".join(lines)


class WorkGroupRunner:
    """Runs per-work-group stage calls under the failure contract.

    One runner is shared by all stages (and all worker threads) of a single
    grid/degrid call; its :class:`FaultReport` accumulates the outcome.

    Parameters
    ----------
    policy:
        The retry budget/backoff.  With ``max_retries=0`` and no ``faults``
        the runner is fail-fast (module docstring); otherwise
        ``max_retries=0`` quarantines on the first failure.
    telemetry:
        The call's recorder, for ``retries``/``dead_letters`` counters and
        per-retry backoff spans.
    faults:
        Optional deterministic injection plan (tests, benchmarks).
    """

    def __init__(
        self,
        policy: RetryPolicy,
        telemetry: Telemetry,
        faults: FaultPlan | None = None,
    ) -> None:
        self.policy = policy
        self.telemetry = telemetry
        self.faults = faults
        self.report = FaultReport()
        #: No retry budget and no fault plan: stage calls run directly and
        #: the first failure raises :class:`WorkGroupError`.
        self.fail_fast = not policy.enabled and faults is None

    def run(
        self,
        stage: str,
        group: int,
        fn: Callable[[], Any],
        *,
        start: int,
        stop: int,
        n_visibilities: int,
    ) -> Any:
        """Execute ``fn`` under the failure contract.

        Fail-fast: returns ``fn()`` or raises :class:`WorkGroupError` from
        its exception.  Tolerant: retries, and returns a
        :class:`Quarantined` sentinel after ``1 + max_retries`` failed
        attempts.  Only ``Exception`` subclasses are handled —
        ``KeyboardInterrupt`` and :class:`~repro.runtime.faults.InjectedCrash`
        always propagate.
        """
        if self.fail_fast:
            try:
                return fn()
            except Exception as exc:
                raise WorkGroupError(stage, group, start, stop, repr(exc)) from exc
        budget = 1 + self.policy.max_retries
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.faults is not None:
                    self.faults.fire(stage, group)
                result = fn()
                if self.faults is not None:
                    result = self.faults.screen(stage, group, result)
                return result
            except Exception as exc:  # noqa: BLE001 — bounded-budget retry
                if attempt >= budget:
                    return self._quarantine(
                        stage, group, start, stop, n_visibilities, attempt, exc
                    )
                self._retry(stage, group, attempt)

    def fail_external(
        self,
        stage: str,
        group: int,
        *,
        start: int,
        stop: int,
        n_visibilities: int,
        attempts: int,
        error: BaseException,
    ) -> Quarantined | None:
        """Account a failed attempt observed from *outside* the stage call.

        The process-sharded executor uses this for worker-process deaths: the
        exception (a SIGKILL, an OOM kill, a segfault) never crosses the
        process boundary, so there is nothing for :meth:`run` to catch — the
        parent observes the exit code and charges the active work group one
        attempt.  Fail-fast, that raises :class:`WorkGroupError`.  Within
        budget the failure is recorded as a retry (the respawn latency *is*
        the backoff, so none is slept here) and ``None`` is returned — the
        caller respawns the shard.  Once ``attempts`` exhausts
        ``1 + max_retries`` the group is quarantined exactly like an
        in-process failure and the :class:`Quarantined` sentinel is returned.
        """
        if self.fail_fast:
            raise WorkGroupError(stage, group, start, stop, repr(error)) from error
        if attempts >= 1 + self.policy.max_retries:
            return self._quarantine(
                stage, group, start, stop, n_visibilities, attempts, error
            )
        self.absorb(1)
        return None

    def absorb(self, retries: int, letter: DeadLetter | None = None) -> None:
        """Record ``retries`` retries and an optional dead letter in the
        report and telemetry: this runner's own, or those a process-sharded
        worker's runner published through shared memory."""
        if retries:
            self.report.record_retry(retries)
            self.telemetry.add_counter("retries", retries)
        if letter is not None:
            self.report.record_dead_letter(letter)
            self.telemetry.add_counter("dead_letters", 1)

    # ------------------------------------------------------------- internal

    def _retry(self, stage: str, group: int, attempt: int) -> None:
        self.absorb(1)
        pause = self.policy.backoff(attempt)
        t0 = monotonic()
        if pause > 0:
            time.sleep(pause)
        self.telemetry.record_span(
            f"{stage}:retry", group, t0, monotonic(), worker=f"{stage}:retry",
        )

    def _quarantine(
        self,
        stage: str,
        group: int,
        start: int,
        stop: int,
        n_visibilities: int,
        attempts: int,
        exc: BaseException,
    ) -> Quarantined:
        self.absorb(0, DeadLetter(
            stage=stage, group=group, start=start, stop=stop,
            attempts=attempts, error=repr(exc),
            n_visibilities=n_visibilities,
        ))
        return Quarantined(group=group, start=start, stop=stop)
