"""Streaming IDG: the paper's per-work-group stage chains (Fig 4) under the
triple-buffered window of Fig 7.

``StreamingIDG`` is a drop-in equivalent of :class:`repro.core.IDG`'s
``grid``/``degrid`` that executes the paper's schedule for real instead of
simulating it (:mod:`repro.perfmodel.streams`):

* gridding:    ``reader`` (out-of-core) -> ``htod`` -> ``gridder`` ->
  ``subgrid_fft`` -> ``dtoh``, then the adder,
* degridding:  ``subgrid_split`` -> ``htod`` -> ``subgrid_ifft`` ->
  ``degridder`` -> ``dtoh``,

with ``htod``/``dtoh`` present only when the device link is emulated.  The
calling thread admits up to ``n_buffers`` work groups (the ``splitter``
stage) and retires them in plan order (:func:`retire_in_order`, whose loop
is the window's one bound; the ``in_flight`` gauge records its occupancy);
each admitted group runs its whole chain back to back on one pool worker,
and a semaphore of ``workers`` permits bounds the groups inside their
compute stages (``gridder`` + ``subgrid_fft``, ``subgrid_ifft`` +
``degridder``), so the emulated link time of the other groups in flight
overlaps compute.  ``n_buffers=1`` degenerates to the serial schedule,
``n_buffers=3`` is the paper's triple buffering, and
``n_buffers = 2 * workers`` is the ``threads`` executor
(:class:`~repro.parallel.executor.ParallelIDG`, the paper's CPU gridder:
one group running and one queued per worker).  Each stage runs the matching
stage of the call's :class:`~repro.runtime.program.WorkGroupProgram` — the
*same* stage bodies the serial pipeline runs — so results are bit-identical
to ``IDG``: the calling thread hands each grid group to the serial adder
(:meth:`~repro.runtime.program.WorkGroupProgram.retire`) in plan order, and
degridding work items write disjoint visibility blocks.

Fault tolerance (DESIGN.md §11) is the program's: fail-fast by default (the
first failing group in plan order raises
:class:`~repro.runtime.recovery.WorkGroupError` on the calling thread, which
stops admitting and cancels the queued groups), and with
``IDGConfig.max_retries > 0`` (or a :class:`~repro.runtime.faults.FaultPlan`)
transient failures are retried and a work group that exhausts its budget is
quarantined: a :class:`~repro.runtime.recovery.Quarantined` sentinel flows
down the remaining stages so sequencing and the in-flight count stay
exact, and the :class:`~repro.runtime.recovery.FaultReport` on
``last_fault_report`` records what was lost.  ``retire`` also keeps the
call's checkpoints (:mod:`repro.runtime.checkpoint`), so a streaming
``grid`` checkpoints and resumes like every other executor's.

Every run publishes its program's
:class:`~repro.runtime.telemetry.Telemetry` on ``last_telemetry`` (DESIGN.md
§8): the program records one span per (stage, work group), the counters and
the memory gauges; the schedule adds its own ``splitter``, ``htod`` and
``dtoh`` spans and the ``in_flight`` gauge.  It exports as a Chrome trace;
see ``benchmarks/bench_runtime_overlap.py`` and
``benchmarks/bench_fault_recovery.py``.  The pool lives for one call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG
from repro.core.plan import Plan
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.program import WorkGroupProgram
from repro.runtime.recovery import FaultReport, Quarantined
from repro.runtime.telemetry import Telemetry, monotonic


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable parameters of the streaming runtime.

    Attributes
    ----------
    n_buffers:
        Work groups allowed in flight, admitted and not yet retired (1 =
        serial schedule, 3 = the paper's triple buffering).
    workers:
        Work groups allowed in their compute stages at once (the BLAS
        products and FFTs inside release the GIL).
    emulate_pcie_gbs:
        When set, insert ``htod``/``dtoh`` transfer stages that occupy the
        link for ``bytes / bandwidth`` seconds of real wall time without
        holding the CPU (``time.sleep``) — the host-side stand-in for the
        PCIe copies the paper's three-stream schedule hides (Fig 7), on a
        machine with no accelerator.  ``None`` (default) adds no transfer
        stages.
    """

    n_buffers: int = 3
    workers: int = 1
    emulate_pcie_gbs: float | None = None

    def __post_init__(self) -> None:
        for name in ("n_buffers", "workers"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.emulate_pcie_gbs is not None and self.emulate_pcie_gbs <= 0:
            raise ValueError("emulate_pcie_gbs must be positive")


def chunk_transfer_bytes(
    plan: Plan, start: int, stop: int, n_correlations: int = 4
) -> tuple[float, float]:
    """(bytes in, bytes out) of one gridding work group over the emulated
    device link: the work items' visibilities and uvw in, their uv-domain
    subgrids out (degridding is the mirror image), at ``n_correlations``
    complex values per visibility and subgrid pixel."""
    rows = plan.items[start:stop]
    n_timesteps = int((rows["time_end"] - rows["time_start"]).sum())
    itemsize = np.dtype(COMPLEX_DTYPE).itemsize * n_correlations
    bytes_in = float(n_timesteps) * (plan.n_channels * itemsize + 3 * 8)
    bytes_out = float(stop - start) * plan.subgrid_size**2 * itemsize
    return bytes_in, bytes_out


def retire_in_order(
    groups: Sequence[int],
    compute: Callable[[int], Any],
    retire: Callable[[int, Any], None],
    *,
    threads: int,
    window: int,
    admit: Callable[[int], None],
    name: str = "",
) -> None:
    """``compute(group)`` for every group of ``groups`` on a pool of
    ``threads`` threads, and ``retire(group, result)`` on this thread in the
    order of ``groups`` — the retirement loop of the thread executors.

    At most ``window`` groups are admitted and not yet retired: this thread
    admits the next group (``admit(group)``, then submits it) only after
    retiring the oldest one.

    The first failure in the order of ``groups`` is re-raised here.  A
    failing ``compute`` sets an abort flag, so groups not started yet skip
    their work and are never retired; once the flag is set this thread
    admits nothing more — a group admitted then would be skipped and never
    retired, so whatever ``admit`` counted for it would never be given back
    — and drains the groups in flight to the failure.  The pool is shut
    down, every thread joined, before this returns or raises, so no thread
    outlives the call.
    """
    abort = threading.Event()
    skipped = object()

    def task(group: int) -> Any:
        if abort.is_set():
            return skipped  # the run is doomed; don't touch the backend
        try:
            return compute(group)
        except BaseException:
            abort.set()
            raise

    in_flight: deque[tuple[int, Future[Any]]] = deque()

    def retire_oldest() -> None:
        group, future = in_flight.popleft()
        result = future.result()
        if result is not skipped:
            retire(group, result)

    with ThreadPoolExecutor(max_workers=threads, thread_name_prefix=name) as pool:
        try:
            for group in groups:
                if len(in_flight) >= window:
                    retire_oldest()
                if abort.is_set():
                    break  # a group in flight failed: drain to it
                admit(group)
                in_flight.append((group, pool.submit(task, group)))
            while in_flight:
                retire_oldest()
        except BaseException:  # noqa: B036 — incl. KeyboardInterrupt
            abort.set()
            for _, future in in_flight:
                future.cancel()
            raise


class _Schedule:
    """One call's admission window, compute permits and link spans.

    The pool has one thread per admitted group when a chain has stages that
    wait without computing (an emulated link, or ``reads`` from an
    out-of-core source), so those waits overlap the other groups' compute;
    otherwise every stage computes and the pool has ``workers`` threads (a
    thread parked on the compute permits only adds hand-offs).
    """

    def __init__(
        self, config: RuntimeConfig, program: WorkGroupProgram, reads: bool = False
    ) -> None:
        self.config = config
        self.program = program
        self.telemetry: Telemetry = program.telemetry
        #: Work groups admitted and not yet retired (the ``in_flight``
        #: gauge).  Admission and retirement both run on the calling
        #: thread, so the count needs no lock.
        self.in_flight = 0
        #: Held across a group's compute stages only.
        self.compute = threading.Semaphore(config.workers)
        waits = reads or config.emulate_pcie_gbs is not None
        self.threads = config.n_buffers if waits else min(config.workers, config.n_buffers)

    def timed(self, stage: str, group: int, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` recorded as one ``stage`` span of ``group`` (the
        schedule's own stages; the program records its stages itself)."""
        t0 = monotonic()
        result = fn(*args)
        self.telemetry.record_span(
            stage, group, t0, monotonic(), threading.current_thread().name
        )
        return result

    def admit(self, group: int) -> None:
        """The ``splitter`` stage: count ``group`` in flight."""
        self.timed("splitter", group, self.count, 1)

    def count(self, delta: int) -> None:
        """Move the in-flight count by ``delta`` (+1 admitted, -1 retired)
        and record the ``in_flight`` gauge."""
        self.in_flight += delta
        self.telemetry.record_gauge("in_flight", self.in_flight)

    def retire(self, group: int, outcome: Any) -> None:
        """Retire ``group`` through the program and count it out of
        flight."""
        self.program.retire(group, outcome)
        self.count(-1)

    def transfer(self, stage: str, group: int, data: Any, nbytes: Callable[[], float]) -> None:
        """An emulated device-link stage: occupies the link for ``nbytes()``
        bytes of wall time without holding the CPU (the DMA analogue); a
        quarantined group moves nothing.  No-op without link emulation."""
        gbs = self.config.emulate_pcie_gbs
        if gbs is not None:
            seconds = 0.0 if isinstance(data, Quarantined) else nbytes() / (gbs * 1e9)
            self.timed(stage, group, time.sleep, seconds)

    def run(self, groups: Sequence[int], chain: Callable[[int], Any], name: str) -> None:
        """Admit ``groups`` through the window, run each one's ``chain`` on
        a pool worker and retire them in order on this thread."""
        retire_in_order(
            groups, chain, self.retire, threads=self.threads,
            window=self.config.n_buffers, admit=self.admit, name=name,
        )


class StreamingIDG:
    """Pipelined gridding/degridding: an admission window of work groups,
    each running its stage chain on one pool worker.

    Parameters
    ----------
    idg:
        The configured serial pipeline supplying kernels, taper, plan
        geometry and the retry policy (``IDGConfig.max_retries`` /
        ``retry_backoff_s``).
    config:
        Runtime parameters (buffer count, compute workers, emulated device
        link).

    The telemetry of the most recent run is kept on ``last_telemetry``; the
    fault report of the most recent *tolerant* run on ``last_fault_report``
    (``None`` when fail-fast).
    """

    def __init__(self, idg: IDG, config: RuntimeConfig | None = None) -> None:
        self.idg = idg
        self.config = config or RuntimeConfig()
        self.last_telemetry: Telemetry | None = None
        self.last_fault_report: FaultReport | None = None

    # ------------------------------------------------------------- gridding

    def grid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        *,
        aterms: ATermGenerator | None = None,
        grid: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        checkpoint: CheckpointConfig | None = None,
        faults: FaultPlan | None = None,
    ) -> np.ndarray:
        """Pipelined equivalent of :meth:`repro.core.IDG.grid`: the same
        arguments and a bit-identical result.  With fault tolerance
        active, quarantined work groups are excluded and reported on
        ``last_fault_report`` instead of raising.
        """
        program = WorkGroupProgram.for_grid(
            self.idg, plan, uvw_m, visibilities, aterms=aterms, grid=grid,
            flags=flags, aterm_fields=aterm_fields, checkpoint=checkpoint,
            faults=faults,
        )
        self.last_telemetry = program.telemetry
        self.last_fault_report = program.fault_report
        source = program.source
        schedule = _Schedule(self.config, program, reads=source is not None)
        planes = program.grid.shape[0]

        def chain(group: int) -> Any:
            start, stop = program.groups[group]
            vis_in = None
            if source is not None:
                # Out-of-core: materialise exactly the visibility blocks this
                # group needs (masked, copied off the memory map); with at
                # most `n_buffers` groups admitted, at most that many
                # prefetched groups are resident — the out-of-core RSS bound.
                vis_in = program.run(
                    "reader", group, lambda: source.prefetch_group(plan, start, stop)
                )
            schedule.transfer(
                "htod", group, vis_in,
                lambda: chunk_transfer_bytes(plan, start, stop, planes)[0],
            )
            with schedule.compute:
                fourier = program.subgrid_fft(group, program.gridder(group, vis_in))
            schedule.transfer("dtoh", group, fourier, lambda: fourier.nbytes)
            return fourier

        # The serial adder in plan order: the grid accumulates exactly as the
        # serial executor's does.  A group dead-lettered upstream adds
        # nothing, but still leaves the window.
        with program.retiring() as pending:
            schedule.run(pending, chain, name="streaming-grid")
        return program.finish()

    # ----------------------------------------------------------- degridding

    def degrid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        *,
        aterms: ATermGenerator | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        out: np.ndarray | None = None,
        faults: FaultPlan | None = None,
    ) -> np.ndarray:
        """Pipelined equivalent of :meth:`repro.core.IDG.degrid`.

        With fault tolerance active, a quarantined work group leaves its
        visibility block zero (the same convention the plan uses for
        unplaceable samples) and is reported on ``last_fault_report``.
        ``out`` (zero-initialised, e.g. a writable dataset-store map)
        receives the prediction in place and ``aterm_fields`` overrides
        ``aterms``, as on the serial executor.
        """
        program = WorkGroupProgram.for_degrid(
            self.idg, plan, uvw_m, grid, aterms=aterms,
            aterm_fields=aterm_fields, out=out, faults=faults,
        )
        self.last_telemetry = program.telemetry
        self.last_fault_report = program.fault_report
        schedule = _Schedule(self.config, program)

        def chain(group: int) -> Any:
            start, stop = program.groups[group]
            patches = program.subgrid_split(group)
            schedule.transfer("htod", group, patches, lambda: patches.nbytes)
            with schedule.compute:
                result = program.degridder(group, program.subgrid_ifft(group, patches))
            schedule.transfer(
                "dtoh", group, result,
                lambda: chunk_transfer_bytes(plan, start, stop, grid.shape[0])[0],
            )
            return result

        schedule.run(range(program.n_groups), chain, name="streaming-degrid")
        return program.finish()


def modeled_schedule_jobs(
    telemetry: Telemetry, stages: tuple[Any, Any, Any]
) -> list[Any]:
    """Per-work-group durations of three streams from a measured run, in the
    job format :func:`repro.perfmodel.streams.schedule_buffers` takes — the
    bridge between a measured trace and the Fig 7 simulation.

    Each of the three entries is a stage name or a tuple of stage names
    whose per-item durations are summed (e.g. ``("htod", ("gridder",
    "subgrid_fft"), "dtoh")`` folds the compute stages into one stream).
    """
    streams: list[list[float]] = []
    for entry in stages:
        names = (entry,) if isinstance(entry, str) else tuple(entry)
        per_stage = [telemetry.stage_durations(name) for name in names]
        n = min((len(d) for d in per_stage), default=0)
        streams.append([sum(d[k] for d in per_stage) for k in range(n)])
    n_jobs = min(len(s) for s in streams)
    return [tuple(s[k] for s in streams) for k in range(n_jobs)]
