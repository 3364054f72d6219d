"""Streaming IDG: the pipeline of Fig 4 run as an executable stage graph.

``StreamingIDG`` is a drop-in equivalent of :class:`repro.core.IDG`'s
``grid``/``degrid`` that executes the paper's schedule for real instead of
simulating it (:mod:`repro.perfmodel.streams`):

* gridding:    plan splitter -> gridder worker(s) -> subgrid FFT -> adder,
* degridding:  plan splitter -> subgrid splitter -> subgrid iFFT ->
  degridder worker(s),

with every hop a bounded channel and a global credit gate holding at most
``n_buffers`` work groups in flight — ``n_buffers=1`` degenerates to the
serial schedule, ``n_buffers=3`` is the paper's triple buffering (Fig 7).
The stage bodies are the *same kernels* the serial pipeline uses (the
backend's ``grid_work_group``/``degrid_work_group`` — for the default
backend the shape-bucketed drivers of :mod:`repro.parallel.bucketing` — the
batched subgrid FFTs and the row-parallel adder), so results are
bit-identical to ``IDG``: the adder
stage applies batches in plan order (a reorder buffer absorbs out-of-order
completion when ``gridder_workers > 1``), and degridding work items write
disjoint visibility blocks.

Fault tolerance (DESIGN.md §11): when ``IDGConfig.max_retries > 0`` (or a
:class:`~repro.runtime.faults.FaultPlan` is installed) every stage call runs
through a :class:`~repro.runtime.recovery.WorkGroupRunner` — transient
failures are retried with exponential backoff, and a work group that
exhausts its budget is quarantined to a dead letter instead of aborting the
run: a :class:`~repro.runtime.recovery.Quarantined` sentinel flows through
the remaining stages so sequencing and credit accounting stay exact, and the
:class:`~repro.runtime.recovery.FaultReport` on ``last_fault_report``
records what was lost.  Gridding can additionally checkpoint the master grid
plus the retired-group set to disk (atomic write-then-rename) and later
resume bit-exactly, skipping completed groups
(:mod:`repro.runtime.checkpoint`).

Every run produces a :class:`~repro.runtime.telemetry.Telemetry` (span
timings, queue occupancy, retry/dead-letter/checkpoint counters,
visibilities/sec) exportable as a Chrome trace — see
``benchmarks/bench_runtime_overlap.py`` and
``benchmarks/bench_fault_recovery.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG, prepare_visibilities
from repro.core.plan import Plan
from repro.data.store import ChunkedVisibilitySource
from repro.runtime.checkpoint import load_checkpoint, plan_signature, save_checkpoint
from repro.runtime.faults import FaultPlan
from repro.runtime.graph import StageGraph
from repro.runtime.memory import record_memory_gauges
from repro.runtime.queues import CreditGate
from repro.runtime.recovery import (
    FaultReport,
    Quarantined,
    RetryPolicy,
    WorkGroupRunner,
    group_visibility_count,
)
from repro.runtime.telemetry import Telemetry


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable parameters of the streaming runtime.

    Attributes
    ----------
    n_buffers:
        Work groups allowed in flight end to end, and the capacity of every
        inter-stage channel (1 = serial schedule, 3 = the paper's triple
        buffering).
    gridder_workers:
        Threads in the gridder stage (its BLAS products release the GIL).
    fft_workers:
        Threads in the subgrid FFT/iFFT stage.
    adder_row_workers:
        Row bands of the lock-free adder (`1` uses the serial fast path,
        which is bit-identical to :func:`repro.core.adder.add_subgrids`).
    degridder_workers:
        Threads in the degridder stage (work items write disjoint blocks,
        so no synchronisation is needed).
    emulate_pcie_gbs:
        When set, insert ``htod``/``dtoh`` transfer stages that occupy the
        link for ``bytes / bandwidth`` seconds of real wall time without
        holding the CPU (``time.sleep``) — the host-side stand-in for the
        PCIe copies the paper's three-stream schedule hides (Fig 7), on a
        machine with no accelerator.  ``None`` (default) adds no transfer
        stages.
    checkpoint_path:
        When set, ``grid`` snapshots the master grid plus the retired
        work-group set to this ``.npz`` path (atomically) every
        ``checkpoint_interval`` retired groups, and once more when the run
        completes.  Ignored by ``degrid`` (its output has no accumulated
        state worth snapshotting — a restarted degrid simply re-runs).
    checkpoint_interval:
        Retired work groups between snapshots.
    resume_from:
        Path of a checkpoint written by a previous ``grid`` run over the
        *same* plan and work-group size (validated by signature); completed
        groups are skipped and the result is bit-identical to an
        uninterrupted run.  The checkpoint grid replaces the contents of
        any caller-supplied ``grid=``.
    """

    n_buffers: int = 3
    gridder_workers: int = 1
    fft_workers: int = 1
    adder_row_workers: int = 1
    degridder_workers: int = 1
    emulate_pcie_gbs: float | None = None
    checkpoint_path: str | None = None
    checkpoint_interval: int = 4
    resume_from: str | None = None

    def __post_init__(self) -> None:
        for name in (
            "n_buffers", "gridder_workers", "fft_workers",
            "adder_row_workers", "degridder_workers", "checkpoint_interval",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.emulate_pcie_gbs is not None and self.emulate_pcie_gbs <= 0:
            raise ValueError("emulate_pcie_gbs must be positive")


def chunk_transfer_bytes(plan: Plan, start: int, stop: int) -> tuple[float, float]:
    """(bytes in, bytes out) of one gridding work group over the emulated
    device link: the work items' visibilities and uvw in, their uv-domain
    subgrids out (degridding is the mirror image)."""
    rows = plan.items[start:stop]
    n_timesteps = int((rows["time_end"] - rows["time_start"]).sum())
    itemsize = np.dtype(COMPLEX_DTYPE).itemsize
    bytes_in = float(n_timesteps) * (plan.n_channels * 4 * itemsize + 3 * 8)
    bytes_out = float(stop - start) * plan.subgrid_size**2 * 4 * itemsize
    return bytes_in, bytes_out


class StreamingIDG:
    """Pipelined gridding/degridding over a bounded stage graph.

    Parameters
    ----------
    idg:
        The configured serial pipeline supplying kernels, taper, plan
        geometry and the retry policy (``IDGConfig.max_retries`` /
        ``retry_backoff_s``).
    config:
        Runtime parameters (buffer count, per-stage worker counts,
        checkpointing).
    faults:
        Optional deterministic fault-injection plan (tests, benchmarks).

    The telemetry of the most recent run is kept on ``last_telemetry``; the
    fault report of the most recent *tolerant* run on ``last_fault_report``
    (``None`` when the fault-tolerance layer was inactive).
    """

    def __init__(
        self,
        idg: IDG,
        config: RuntimeConfig | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.idg = idg
        self.config = config or RuntimeConfig()
        self.faults = faults
        self.last_telemetry: Telemetry | None = None
        self.last_fault_report: FaultReport | None = None

    # ------------------------------------------------------------- internal

    def _runner(self, telemetry: Telemetry) -> WorkGroupRunner | None:
        """A work-group runner when fault tolerance is active, else None
        (the legacy fail-fast path, with zero added overhead)."""
        policy = RetryPolicy(
            max_retries=self.idg.config.max_retries,
            backoff_s=self.idg.config.retry_backoff_s,
        )
        if not policy.enabled and self.faults is None:
            return None
        return WorkGroupRunner(policy, faults=self.faults, telemetry=telemetry)

    def _gated_chunks(
        self,
        chunks: list[tuple[int, tuple[int, int]]],
        gate: CreditGate,
    ) -> Iterator[tuple[int, tuple[int, int]]]:
        """Plan-chunk splitter: one credit per emitted work group.  Each
        item is ``(group, (start, stop))`` with ``group`` the work group's
        plan-order index (stable across resume filtering)."""
        for group, chunk in chunks:
            gate.acquire()
            yield (group, chunk)

    def _transfer(self, nbytes: float) -> None:
        """Occupy the emulated device link for ``nbytes`` without holding
        the CPU (the DMA analogue; no-op when emulation is off)."""
        gbs = self.config.emulate_pcie_gbs
        if gbs is not None:
            time.sleep(nbytes / (gbs * 1e9))

    # ------------------------------------------------------------- gridding

    def grid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None = None,
        grid: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        telemetry: Telemetry | None = None,
    ) -> np.ndarray:
        """Pipelined equivalent of :meth:`repro.core.IDG.grid`.

        Identical signature and bit-identical result; accepts an optional
        ``telemetry`` recorder (also stored on ``last_telemetry``).  With
        fault tolerance active, quarantined work groups are excluded and
        reported on ``last_fault_report`` instead of raising; with
        ``config.checkpoint_path`` set, progress snapshots are written for
        a later bit-exact ``config.resume_from`` run.
        """
        idg = self.idg
        backend = idg.backend
        idg._check_shapes(plan, uvw_m, visibilities)
        visibilities = prepare_visibilities(visibilities, flags)
        source = (
            visibilities
            if isinstance(visibilities, ChunkedVisibilitySource) else None
        )
        if grid is None:
            grid = idg.gridspec.allocate_grid(dtype=COMPLEX_DTYPE)
        fields = idg.aterm_fields(plan, aterms)
        out_grid = grid

        tm = telemetry if telemetry is not None else Telemetry()
        runner = self._runner(tm)
        self.last_fault_report = runner.report if runner is not None else None

        chunks = list(enumerate(plan.work_groups(idg.config.work_group_size)))
        ckpt_path = self.config.checkpoint_path
        signature = None
        if ckpt_path is not None or self.config.resume_from is not None:
            signature = plan_signature(plan, idg.config.work_group_size)
        completed: set[int] = set()
        if self.config.resume_from is not None:
            ckpt = load_checkpoint(self.config.resume_from, signature=signature)
            completed = set(ckpt.completed_set)
            # The snapshot holds the prefix sum of exactly `completed`;
            # resuming continues from those bits (replacing any caller grid).
            out_grid[...] = np.asarray(ckpt.grid).reshape(out_grid.shape)
        pending = [(g, c) for g, c in chunks if g not in completed]

        gate = CreditGate(self.config.n_buffers, telemetry=tm, name="in_flight")
        reorder: dict[int, Any] = {}
        next_seq = 0
        n_retired = 0

        def write_checkpoint() -> None:
            # Runs inside the single-worker adder stage: the grid is quiescent
            # (the adder is its only mutator), so the snapshot is consistent.
            save_checkpoint(
                ckpt_path, out_grid, completed, signature,
                n_retired=n_retired,
            )
            tm.add_counter("checkpoints", 1)
            if runner is not None:
                runner.report.n_checkpoints += 1

        def do_read(
            seq: int, payload: tuple[int, tuple[int, int]]
        ) -> Any:
            # Out-of-core reader stage: materialise exactly the visibility
            # blocks this work group needs (masked, copied off the memory
            # map).  Downstream stages never touch the map, and the credit
            # gate bounds the prefetched groups resident to `n_buffers`.
            group, (start, stop) = payload
            def body():
                return source.prefetch_group(plan, start, stop)
            if runner is None:
                return (group, (start, stop), body())
            result = runner.run(
                "reader", group, body, start=start, stop=stop,
                n_visibilities=group_visibility_count(plan, start, stop),
            )
            if isinstance(result, Quarantined):
                return result
            return (group, (start, stop), result)

        def grid_group(group: int, start: int, stop: int, vis_in: Any) -> Any:
            def body() -> np.ndarray:
                return backend.grid_work_group(
                    plan, start, stop, uvw_m, vis_in, idg.taper,
                    lmn=idg.lmn, aterm_fields=fields,
                )
            if runner is None:
                return body()
            return runner.run(
                "gridder", group, body, start=start, stop=stop,
                n_visibilities=group_visibility_count(plan, start, stop),
            )

        def do_grid(seq: int, payload: Any) -> Any:
            if isinstance(payload, Quarantined):
                # A reader-stage dead letter: pass the sentinel through so
                # sequencing and credit accounting stay exact.
                return payload
            group, (start, stop) = payload[0], payload[1]
            vis_in = payload[2] if len(payload) == 3 else visibilities
            result = grid_group(group, start, stop, vis_in)
            if isinstance(result, Quarantined):
                return result
            return (group, start, result)

        def do_fft(seq: int, payload: Any) -> Any:
            if isinstance(payload, Quarantined):
                return payload
            group, start, subgrids = payload
            if runner is None:
                return (group, start, backend.subgrids_to_fourier(subgrids))
            result = runner.run(
                "subgrid_fft", group,
                lambda: backend.subgrids_to_fourier(subgrids),
                start=start, stop=start + len(subgrids),
                n_visibilities=group_visibility_count(
                    plan, start, start + len(subgrids)
                ),
            )
            if isinstance(result, Quarantined):
                return result
            return (group, start, result)

        def add_group(group: int, start: int, fourier: np.ndarray) -> Any:
            def body() -> None:
                backend.add_subgrids(
                    out_grid, plan, fourier, start=start,
                    n_workers=self.config.adder_row_workers,
                )
            if runner is None:
                body()
                return None
            stop = start + len(fourier)
            return runner.run(
                "adder", group, body, start=start, stop=stop,
                n_visibilities=group_visibility_count(plan, start, stop),
            )

        def do_add(seq: int, payload: Any) -> None:
            # Apply batches in plan order so the floating-point accumulation
            # order — and hence the result — is bit-identical to the serial
            # adder, even when gridder workers complete out of order.
            nonlocal next_seq, n_retired
            reorder[seq] = payload
            while next_seq in reorder:
                item = reorder.pop(next_seq)
                if isinstance(item, Quarantined):
                    # Dead-lettered upstream: nothing to add, but the group
                    # still releases its credit and advances the sequence.
                    pass
                else:
                    group, start, fourier = item
                    result = add_group(group, start, fourier)
                    if not isinstance(result, Quarantined):
                        completed.add(group)
                gate.release()
                next_seq += 1
                n_retired += 1
                if source is not None and n_retired % 8 == 0:
                    # Retired groups' file pages are dead weight: evict them
                    # and snapshot the memory gauges so the trace shows RSS
                    # staying flat as data streams through.  Every 8th group
                    # is often enough — each madvise sweep walks the whole
                    # mapping's page tables, and the un-evicted residue is
                    # bounded by 8 groups' worth of file pages.
                    source.drop_caches()
                    record_memory_gauges(tm)
                if ckpt_path is not None and (
                    n_retired % self.config.checkpoint_interval == 0
                ):
                    write_checkpoint()

        def do_htod(seq: int, payload: Any) -> Any:
            if not isinstance(payload, Quarantined):
                self._transfer(chunk_transfer_bytes(plan, *payload[1])[0])
            return payload

        def do_dtoh(seq: int, payload: Any) -> Any:
            if not isinstance(payload, Quarantined):
                self._transfer(payload[2].nbytes)
            return payload

        graph = StageGraph("grid", n_buffers=self.config.n_buffers, telemetry=tm)
        graph.add_abortable(gate)
        graph.add_source("splitter", self._gated_chunks(pending, gate))
        if source is not None:
            # Disk-read stage ahead of the (emulated) device upload: with
            # the credit gate upstream, at most `n_buffers` prefetched
            # groups exist at once — the RSS bound of the out-of-core path.
            graph.add_stage("reader", do_read)
        if self.config.emulate_pcie_gbs is not None:
            graph.add_stage("htod", do_htod)
        graph.add_stage("gridder", do_grid, workers=self.config.gridder_workers)
        graph.add_stage("subgrid_fft", do_fft, workers=self.config.fft_workers)
        if self.config.emulate_pcie_gbs is not None:
            graph.add_stage("dtoh", do_dtoh)
        graph.add_sink("adder", do_add)
        tm.add_counter("visibilities", plan.statistics.n_visibilities_gridded)
        tm.add_counter("work_groups", plan.n_subgrids)
        graph.run()
        if runner is not None:
            runner.report.n_groups = len(chunks)
            runner.report.n_groups_completed = len(completed)
        if ckpt_path is not None:
            write_checkpoint()
        record_memory_gauges(tm)
        self.last_telemetry = tm
        return out_grid

    # ----------------------------------------------------------- degridding

    def degrid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        aterms: ATermGenerator | None = None,
        telemetry: Telemetry | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Pipelined equivalent of :meth:`repro.core.IDG.degrid`.

        With fault tolerance active, a quarantined work group leaves its
        visibility block zero (the same convention the plan uses for
        unplaceable samples) and is reported on ``last_fault_report``.
        ``out`` (zero-initialised, e.g. a writable dataset-store map)
        receives the prediction in place as on the serial executor.
        """
        idg = self.idg
        backend = idg.backend
        fields = idg.aterm_fields(plan, aterms)
        n_bl, n_times, _ = uvw_m.shape
        expected = (n_bl, n_times, plan.n_channels, 2, 2)
        if out is None:
            out = np.zeros(expected, dtype=COMPLEX_DTYPE)
        elif out.shape != expected:
            raise ValueError(f"out shape {out.shape} != {expected}")

        tm = telemetry if telemetry is not None else Telemetry()
        runner = self._runner(tm)
        self.last_fault_report = runner.report if runner is not None else None
        gate = CreditGate(self.config.n_buffers, telemetry=tm, name="in_flight")
        chunks = list(enumerate(plan.work_groups(idg.config.work_group_size)))
        n_completed = 0
        completed_lock = threading.Lock()

        def run_stage(
            stage: str, group: int, chunk: tuple[int, int], body: Any
        ) -> Any:
            if runner is None:
                return body()
            start, stop = chunk
            return runner.run(
                stage, group, body, start=start, stop=stop,
                n_visibilities=group_visibility_count(plan, start, stop),
            )

        def do_split(
            seq: int, payload: tuple[int, tuple[int, int]]
        ) -> Any:
            group, chunk = payload
            result = run_stage(
                "subgrid_split", group, chunk,
                lambda: backend.split_subgrids(grid, plan, *chunk),
            )
            if isinstance(result, Quarantined):
                return result
            return (group, chunk, result)

        def do_ifft(seq: int, payload: Any) -> Any:
            if isinstance(payload, Quarantined):
                return payload
            group, chunk, patches = payload
            result = run_stage(
                "subgrid_ifft", group, chunk,
                lambda: backend.subgrids_to_image(patches),
            )
            if isinstance(result, Quarantined):
                return result
            return (group, chunk, result)

        emulate = self.config.emulate_pcie_gbs is not None

        def do_degrid(seq: int, payload: Any) -> Any:
            nonlocal n_completed
            if isinstance(payload, Quarantined):
                if not emulate:
                    gate.release()
                return payload
            group, chunk, images = payload

            def body() -> None:
                # Work items cover disjoint (baseline, time, channel) blocks,
                # so concurrent workers write `out` without synchronisation.
                start, stop = chunk
                backend.degrid_work_group(
                    plan, start, stop, images, uvw_m, out, idg.taper,
                    lmn=idg.lmn, aterm_fields=fields,
                )

            result = run_stage("degridder", group, chunk, body)
            if not isinstance(result, Quarantined):
                with completed_lock:
                    n_completed += 1
            if not emulate:
                gate.release()
            return (group, chunk)

        def do_htod(seq: int, payload: Any) -> Any:
            if not isinstance(payload, Quarantined):
                self._transfer(payload[2].nbytes)
            return payload

        def do_dtoh(seq: int, payload: Any) -> None:
            if not isinstance(payload, Quarantined):
                self._transfer(chunk_transfer_bytes(plan, *payload[1])[0])
            gate.release()

        graph = StageGraph("degrid", n_buffers=self.config.n_buffers, telemetry=tm)
        graph.add_abortable(gate)
        graph.add_source("splitter", self._gated_chunks(chunks, gate))
        graph.add_stage("subgrid_split", do_split)
        if emulate:
            graph.add_stage("htod", do_htod)
        graph.add_stage("subgrid_ifft", do_ifft, workers=self.config.fft_workers)
        if emulate:
            graph.add_stage("degridder", do_degrid,
                            workers=self.config.degridder_workers)
            graph.add_sink("dtoh", do_dtoh)
        else:
            graph.add_sink("degridder", do_degrid, workers=self.config.degridder_workers)
        tm.add_counter("visibilities", plan.statistics.n_visibilities_gridded)
        tm.add_counter("work_groups", plan.n_subgrids)
        graph.run()
        if runner is not None:
            runner.report.n_groups = len(chunks)
            runner.report.n_groups_completed = n_completed
        record_memory_gauges(tm)
        self.last_telemetry = tm
        return out


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
