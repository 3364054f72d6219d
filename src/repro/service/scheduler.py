"""Multi-tenant gridding service: admission -> coalesce -> execute -> fan-out.

:class:`GriddingService` turns the library-direct :class:`~repro.core.IDG`
facade into a shared, bounded resource:

* **Admission control** — one bounded queue for all tenants
  (``max_queue_depth``), an optional per-tenant backlog bound, and a hard
  per-tenant *running* quota (``tenant_quota``) enforced by the dispatch
  loop.  A full queue sheds the request with a typed
  :class:`~repro.service.jobs.Overloaded` instead of queueing without
  bound; quotas keep one chatty tenant from starving the rest.

* **Request coalescing** — jobs are keyed by
  :func:`~repro.service.coalesce.execution_key`.  A submit whose key
  matches a queued *or running* job attaches to it instead of enqueueing
  (single-flight): one execution fans its read-only result out to every
  waiter.  Plans and A-term fields are additionally shared through
  content-hash :class:`~repro.cache.ArtifactCache` instances keyed by
  :func:`~repro.service.coalesce.plan_key`, so even jobs with *different*
  payloads on the same layout share the planning work.

* **Fault isolation** — execution reuses the PR 5 fault-tolerance layer
  (``IDGConfig.max_retries`` / per-job fault plans): a poisoned request is
  retried, then quarantined to dead letters, and surfaces as a
  ``DEAD_LETTERED`` result with its
  :class:`~repro.runtime.recovery.FaultReport`; an injected crash fails
  only its own job (the worker thread survives).  Concurrent tenants'
  results are bit-identical to library-direct execution.

Locking: one condition variable guards all scheduler state; cache lookups,
job execution and result fan-out all happen outside it.  Lock order is
strictly ``GriddingService._cond`` -> (``Telemetry._lock`` |
``ArtifactCache._lock``) and never the reverse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cache import ArtifactCache
from repro.core.pipeline import IDG, IDGConfig
from repro.hashing import content_hash
from repro.runtime.faults import InjectedCrash
from repro.runtime.telemetry import Telemetry, monotonic
from repro.service.coalesce import aterm_signature, execution_key, plan_key
from repro.service.jobs import JobKind, JobResult, JobSpec, JobStatus, Overloaded
from repro.service.metrics import ServiceMetrics

__all__ = [
    "GriddingService",
    "JobHandle",
    "ServiceConfig",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable parameters of one :class:`GriddingService`.

    Attributes
    ----------
    n_workers:
        Worker threads executing jobs (each runs whole jobs; within a job
        the configured backend's own batching applies).
    max_queue_depth:
        Global bound on *queued* (not yet running) jobs; a submit beyond it
        sheds with ``Overloaded("queue_full")``.
    tenant_quota:
        Maximum concurrently *running* jobs per tenant — the dispatch loop
        skips tenants at quota, so a backlogged tenant cannot occupy every
        worker.
    tenant_backlog:
        Optional bound on *queued* jobs per tenant; beyond it the submit
        sheds with ``Overloaded("tenant_backlog")`` even while the global
        queue has room.  ``None`` disables the per-tenant bound.
    coalesce:
        Enable submit-time request coalescing (disabled for A/B
        benchmarking; caches still apply).
    autostart:
        Start the worker pool in the constructor.  Tests and the load
        generator use ``False`` to submit a deterministic batch before any
        execution begins.
    plan_cache_bytes / aterm_cache_bytes:
        Byte budgets of the service's plan and A-term field caches.
    idg:
        The :class:`~repro.core.IDGConfig` every execution runs with
        (fault tolerance comes from its ``max_retries`` /
        ``retry_backoff_s``).  Part of the execution key: services with
        different configs never share results.

    Each job runs on its own :class:`~repro.core.IDG` (the serial
    executor) on the worker thread that claimed it; the service's
    parallelism is its ``n_workers`` concurrent jobs.
    """

    n_workers: int = 2
    max_queue_depth: int = 64
    tenant_quota: int = 2
    tenant_backlog: int | None = None
    coalesce: bool = True
    autostart: bool = True
    plan_cache_bytes: int = 256 * 1024 * 1024
    aterm_cache_bytes: int = 128 * 1024 * 1024
    idg: IDGConfig = field(default_factory=IDGConfig)

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.max_queue_depth <= 0 or self.tenant_quota <= 0:
            raise ValueError("max_queue_depth and tenant_quota must be positive")
        if self.tenant_backlog is not None and self.tenant_backlog <= 0:
            raise ValueError("tenant_backlog must be positive (or None)")


class JobHandle:
    """A waiter's ticket for one submitted job.

    ``result`` blocks until the job retires and returns the
    :class:`~repro.service.jobs.JobResult`; coalesced handles of one
    execution all receive the same shared read-only value array.  The
    handle is written once by the scheduler (event-published), so reading
    it from any thread after ``result``/``done`` is safe.
    """

    __slots__ = ("_event", "_result", "tenant", "submitted_at", "coalesced")

    def __init__(self, tenant: str, submitted_at: float) -> None:
        self._event = threading.Event()
        self._result: JobResult | None = None
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.coalesced = False

    def done(self) -> bool:
        """True once the job has retired (result available)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job retires; raises ``TimeoutError`` on expiry."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job for tenant {self.tenant!r} not finished within {timeout}s"
            )
        result = self._result
        assert result is not None
        return result

    def _finish(self, result: JobResult) -> None:
        self._result = result
        self._event.set()


class _Job:
    """Scheduler bookkeeping for one *execution* (possibly many waiters)."""

    __slots__ = (
        "spec", "plan_key", "exec_key", "handles", "seq", "started_at",
    )

    def __init__(
        self, spec: JobSpec, plan_key_: str, exec_key: str | None, seq: int
    ) -> None:
        self.spec = spec
        self.plan_key = plan_key_
        self.exec_key = exec_key
        self.handles: list[JobHandle] = []
        self.seq = seq
        self.started_at = 0.0


def _plan_nbytes(plan: Any) -> int:
    """Byte cost of a cached plan (its big arrays)."""
    return int(
        plan.items.nbytes + plan.flagged.nbytes + plan.frequencies_hz.nbytes
    )


class GriddingService:
    """Shared multi-tenant front end over the IDG library (module docstring
    has the architecture; DESIGN.md §13 the full keying rules)."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = ServiceMetrics(telemetry)
        self._cond = threading.Condition()
        # All attributes below are mutated only under ``self._cond``.
        self._pending: list[_Job] = []
        self._by_key: dict[str, _Job] = {}
        self._queued_per_tenant: dict[str, int] = {}
        self._running_per_tenant: dict[str, int] = {}
        self._queued_count = 0
        self._seq = 0
        self._shutdown = False
        self._accepting = True
        self._started = False
        # Mutated only by ``start`` (single transition, outside the lock).
        self._workers: list[threading.Thread] = []
        self._plans = ArtifactCache(
            self.config.plan_cache_bytes, name="service.plans"
        )
        self._aterm_fields = ArtifactCache(
            self.config.aterm_cache_bytes, name="service.aterm_fields"
        )
        if self.config.autostart:
            self.start()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the worker pool (idempotent; no-op after ``close``)."""
        with self._cond:
            if self._started or self._shutdown:
                return
            self._started = True
            n_workers = self.config.n_workers
        for k in range(n_workers):
            thread = threading.Thread(  # idglint: disable=IDG105  (bounded startup loop)
                target=self._worker_loop,
                name=f"svc-worker-{k}",
                daemon=True,
            )
            self._workers.append(thread)
            thread.start()

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting jobs and shut the worker pool down.

        ``drain=True`` (default) lets queued jobs finish first;
        ``drain=False`` fails them immediately with ``FAILED`` results.  A
        service whose workers never started cannot drain — its queued jobs
        are failed either way.
        """
        with self._cond:
            self._accepting = False
            abandoned: tuple[_Job, ...] = ()
            if not (drain and self._started):
                abandoned = tuple(self._pending)
                self._pending.clear()
                for job in abandoned:
                    tenant = job.spec.tenant
                    self._queued_count -= 1
                    self._queued_per_tenant[tenant] -= 1
                    if job.exec_key is not None:
                        self._by_key.pop(job.exec_key, None)
            self._shutdown = True
            self._cond.notify_all()
        for job in abandoned:
            self._fan_out(
                job,
                JobStatus.FAILED,
                value=None,
                error="service closed before execution",
                report=None,
                exec_start=monotonic(),
                exec_end=monotonic(),
                executed=False,
            )
        for thread in self._workers:
            thread.join(timeout)

    def __enter__(self) -> "GriddingService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------ admission

    def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job; returns immediately with a :class:`JobHandle`.

        Order of decisions: coalesce onto an existing queued/running job
        with the same execution key; else shed if the global queue (or the
        tenant's backlog bound) is full; else enqueue.  Sheds raise
        :class:`~repro.service.jobs.Overloaded` and occupy no queue space.
        """
        pkey = plan_key(spec, self.config.idg)
        ekey = execution_key(spec, pkey, self.config.idg)
        handle = JobHandle(spec.tenant, monotonic())
        shed_reason: str | None = None
        coalesced = False
        with self._cond:
            if not self._accepting:
                raise RuntimeError("service is closed")
            existing = (
                self._by_key.get(ekey)
                if self.config.coalesce and ekey is not None
                else None
            )
            if existing is not None:
                handle.coalesced = True
                existing.handles.append(handle)
                coalesced = True
            elif self._queued_count >= self.config.max_queue_depth:
                shed_reason = "queue_full"
            elif (
                self.config.tenant_backlog is not None
                and self._queued_per_tenant.get(spec.tenant, 0)
                >= self.config.tenant_backlog
            ):
                shed_reason = "tenant_backlog"
            else:
                job = _Job(spec, pkey, ekey, self._seq)
                self._seq += 1
                job.handles.append(handle)
                self._pending.append(job)
                if ekey is not None:
                    self._by_key[ekey] = job
                self._queued_count += 1
                self._queued_per_tenant[spec.tenant] = (
                    self._queued_per_tenant.get(spec.tenant, 0) + 1
                )
                self._cond.notify()
        self.metrics.count("submitted", spec.tenant)
        if shed_reason is not None:
            self.metrics.count("shed", spec.tenant)
            raise Overloaded(shed_reason, spec.tenant)
        if coalesced:
            self.metrics.count("coalesced", spec.tenant)
        return handle

    # ------------------------------------------------------------- dispatch

    def _claim_next(self) -> _Job | None:  # idglint: requires-lock(_cond)
        """Highest-priority pending job whose tenant is under quota (FIFO
        within a priority level), claimed as running; ``None`` when every
        pending job's tenant is at quota (or nothing is pending)."""
        best: _Job | None = None
        for job in self._pending:
            tenant = job.spec.tenant
            if (
                self._running_per_tenant.get(tenant, 0)
                >= self.config.tenant_quota
            ):
                continue
            if best is None or job.spec.priority > best.spec.priority:
                best = job
        if best is None:
            return None
        self._pending.remove(best)
        tenant = best.spec.tenant
        self._queued_count -= 1
        self._queued_per_tenant[tenant] -= 1
        self._running_per_tenant[tenant] = (
            self._running_per_tenant.get(tenant, 0) + 1
        )
        best.started_at = monotonic()
        return best

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = self._claim_next()
                while job is None:
                    if self._shutdown and not self._pending:
                        return
                    self._cond.wait()
                    job = self._claim_next()
            self._execute(job)

    # ------------------------------------------------------------ execution

    def _execute(self, job: _Job) -> None:
        """Run one job on the calling worker thread and fan the result out.

        Exception policy: an :class:`~repro.runtime.faults.InjectedCrash`
        (which derives from ``BaseException`` so the retry layer never
        swallows it) and any ``Exception`` fail *this job only* — the
        worker thread survives for the next job.
        """
        start = monotonic()
        value: np.ndarray | None = None
        report: Any = None
        error: str | None = None
        metadata: dict[str, Any] = {}
        status = JobStatus.DONE
        try:
            value, report, metadata = self._run_job(job)
            if report is not None and not report.ok:
                status = JobStatus.DEAD_LETTERED
        except InjectedCrash as exc:
            status = JobStatus.FAILED
            error = f"injected crash: {exc}"
        except Exception as exc:
            status = JobStatus.FAILED
            error = f"{type(exc).__name__}: {exc}"
        end = monotonic()
        self._fan_out(job, status, value, error, report, start, end, metadata=metadata)

    def _run_job(self, job: _Job) -> tuple[np.ndarray, Any, dict[str, Any]]:
        """Execute through the IDG facade, sharing plan and A-term-field
        artifacts through the content-hash caches."""
        spec = job.spec
        if spec.kind is JobKind.SELFCAL:
            return self._run_selfcal(job)
        idg = IDG(spec.gridspec, self.config.idg)
        plan = self._plans.get_or_create(
            job.plan_key,
            lambda: idg.make_plan(
                spec.uvw_m,
                spec.frequencies_hz,
                spec.baselines,
                aterm_schedule=spec.aterm_schedule,
                w_offset=spec.w_offset,
            ),
            nbytes=_plan_nbytes,
        )
        fields = self._fields_for(job, idg, plan)
        if spec.kind is JobKind.IMAGE:
            value = idg.grid(
                plan,
                spec.uvw_m,
                spec.visibilities,
                flags=spec.flags,
                aterm_fields=fields,
                faults=spec.faults,
            )
        else:
            value = idg.degrid(
                plan,
                spec.uvw_m,
                spec.model_grid,
                aterm_fields=fields,
                faults=spec.faults,
            )
        return value, idg.last_fault_report, {}

    def _run_selfcal(self, job: _Job) -> tuple[np.ndarray, Any, dict[str, Any]]:
        """Run a full self-calibration loop for one SELFCAL job.

        The job's ``value`` is the ``(n_intervals, n_stations)`` gain
        solution; the model/residual images and per-cycle telemetry travel
        in ``JobResult.metadata``.  The loop builds its own per-plane/facet
        plans, so the service plan cache is not involved.
        """
        from repro.calibration.selfcal import self_calibrate
        from repro.imaging.pipeline import ImagingContext

        spec = job.spec
        context = ImagingContext(
            idg=IDG(spec.gridspec, self.config.idg),
            uvw_m=spec.uvw_m,
            frequencies_hz=spec.frequencies_hz,
            baselines=spec.baselines,
        )
        result = self_calibrate(
            context,
            spec.visibilities,
            spec.n_stations,
            config=spec.selfcal,
            kind=spec.ft_kind,
            **(spec.ft_options or {}),
        )
        last = result.history[-1]
        metadata = {
            "n_cycles": result.n_cycles,
            "converged": result.converged,
            "residual_rms": last.residual_rms,
            "dynamic_range": last.dynamic_range,
            "model_image": result.model_image,
            "residual_image": result.residual_image,
            "history": result.history,
        }
        return result.gains, None, metadata

    def _fields_for(
        self, job: _Job, idg: IDG, plan: Any
    ) -> dict[tuple[int, int], np.ndarray] | None:
        """Cached A-term Jones fields for this job (``None`` = identity)."""
        spec = job.spec
        if spec.aterms is None or spec.aterms.is_identity:
            return None
        signature = aterm_signature(spec)
        if signature is None:  # unhashable generator: evaluate privately
            return idg.aterm_fields(plan, spec.aterms)
        key = content_hash("aterm-fields", job.plan_key, signature)
        return self._aterm_fields.get_or_create(
            key, lambda: idg.aterm_fields(plan, spec.aterms)
        )

    def _fan_out(
        self,
        job: _Job,
        status: JobStatus,
        value: np.ndarray | None,
        error: str | None,
        report: Any,
        exec_start: float,
        exec_end: float,
        executed: bool = True,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        """Retire one execution: release its quota slot and publish the
        (shared, read-only) result to every attached handle.
        ``executed=False`` retires a job that never ran (abandoned at
        close): no quota slot to release, no execution span."""
        if value is not None:
            value.setflags(write=False)
        with self._cond:
            tenant = job.spec.tenant
            if executed:
                self._running_per_tenant[tenant] -= 1
            # Unpublish *before* reading handles: no follower can attach
            # after this point, so the tuple below is complete.
            if job.exec_key is not None:
                self._by_key.pop(job.exec_key, None)
            handles = tuple(job.handles)
            self._cond.notify_all()
        if executed:
            self.metrics.record_execution(
                job.seq, exec_start, exec_end, threading.current_thread().name
            )
            self.metrics.count("executed", job.spec.tenant)
        retries = int(getattr(report, "n_retries", 0)) if report is not None else 0
        for handle in handles:
            result = JobResult(
                status=status,
                tenant=handle.tenant,
                value=value,
                error=error,
                fault_report=report,
                coalesced=handle.coalesced,
                queue_wait_s=max(0.0, exec_start - handle.submitted_at),
                execution_s=exec_end - exec_start,
                retries=retries,
                metadata=dict(metadata) if metadata else {},
            )
            handle._finish(result)
            self.metrics.record_outcome(result)

    # ---------------------------------------------------------- observation

    def stats(self) -> dict[str, Any]:
        """Point-in-time scheduler state plus cache snapshots."""
        with self._cond:
            snapshot = {
                "queued": self._queued_count,
                "queued_per_tenant": dict(self._queued_per_tenant),
                "running_per_tenant": dict(self._running_per_tenant),
                "coalescable_keys": len(self._by_key),
                "started": self._started,
                "accepting": self._accepting,
            }
        snapshot["plan_cache"] = self._plans.stats()
        snapshot["aterm_cache"] = self._aterm_fields.stats()
        return snapshot

    def summary(self) -> str:
        """Human-readable run summary (snapshots caches and arenas first)."""
        self.metrics.record_caches()
        self.metrics.record_arenas()
        return self.metrics.summary()
