"""Process-sharded IDG executor (DESIGN.md §14).

``ProcessShardedIDG`` breaks the GIL ceiling of the thread executor: the
plan's work groups are partitioned over *worker processes* (greedy LPT on
visibility weights, :func:`repro.parallel.partition.partition_work_groups`),
each worker grids its shard into slabs backed by
``multiprocessing.shared_memory`` (:mod:`repro.parallel.shm`), and the parent
reduces the results into the master grid.

Reduction modes
---------------
``exact`` (default)
    Workers only produce per-group Fourier subgrid slabs; the **parent**
    applies them to the master grid with the serial adder in ascending
    work-group order.  Floating-point addition order is therefore identical
    to the serial executor's fold, so the result is **bit-identical** to
    :meth:`repro.core.IDG.grid` — the property the cross-executor conformance
    suite pins.  Because groups retire in plan order, checkpoints are
    prefix-closed and resume is bit-exact (PR 5 semantics).
``tree``
    Each shard additionally folds its groups into a private partial grid in
    shared memory, and the parent combines the shard grids with the pinned
    pairwise reduction of :func:`repro.core.adder.tree_reduce_grids`.
    Deterministic run-to-run (the pairing is a pure function of the shard
    count) but *not* bit-identical to serial — addition is reassociated.
    Checkpoint/resume is refused in this mode.

Worker/parent protocol
----------------------
Everything crosses the process boundary through the shared arena — there is
no result queue to lose messages when a worker is SIGKILLed.  Per work group
the arena holds a status byte (pending/done/dead/failed), attempt and retry
counters, fixed-width error and stage text rows, and a compute duration; the
worker publishes the group's payload *before* flipping the status byte, and
the parent polls status bytes in ascending group order.

A worker process that dies (kill, OOM, segfault) is detected via its exit
code.  The death charges one attempt to the shard's first still-pending
group and flows into the ordinary fault-tolerance machinery via
:meth:`repro.runtime.recovery.WorkGroupRunner.fail_external` — within budget
the parent respawns a replacement worker for the shard's remaining groups
(re-seeding injected-crash counters so deterministic kill tests converge),
on exhaustion the group is quarantined as a ``stage="worker"`` dead letter
and the respawn continues without it.  In fail-fast mode (no retries, no
fault plan) a death raises :class:`~repro.runtime.recovery.WorkGroupError`.

Both sides run the call's :class:`~repro.runtime.program.WorkGroupProgram`:
each worker rebuilds the program over the arena views and runs its shard's
groups through the same stage bodies and failure contract as every other
executor, and the parent's program supplies the input checks, the exact-mode
adder, and the fault report into which worker outcomes are folded.

Not exactly-once: in ``tree`` mode a worker killed mid-add can leave a
partial contribution in its shard grid which a re-run then duplicates — the
same caveat the serial adder documents for genuine mid-add failures.  In
``exact`` mode re-runs are safe: workers only write their slab, and the
parent adds each group once.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.adder import add_grid, tree_reduce_grids
from repro.core.pipeline import IDG, IDGConfig
from repro.core.plan import Plan
from repro.data.store import open_store
from repro.parallel.partition import (
    ShardAssignment,
    partition_work_groups,
    plan_group_weights,
)
from repro.parallel.shm import ArenaSpec, SharedArena
from repro.runtime.checkpoint import load_checkpoint, plan_signature, save_checkpoint
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.runtime.program import WorkGroupProgram
from repro.runtime.recovery import (
    DeadLetter,
    FaultReport,
    Quarantined,
    WorkGroupError,
    group_visibility_count,
)
from repro.runtime.telemetry import Telemetry, monotonic

__all__ = ["ProcessConfig", "ProcessShardedIDG", "WorkerDeath"]

# Per-group status bytes in the shared arena.  The worker flips a group's
# byte away from _PENDING only after every other write for that group has
# landed.
_PENDING, _DONE, _DEAD, _FAILED = 0, 1, 2, 3

#: Fixed-width UTF-8 row sizes for error and stage text in the arena.
_ERROR_BYTES = 240
_STAGE_BYTES = 16

_REDUCTIONS = ("exact", "tree")
_START_METHODS = ("spawn", "fork", "forkserver")


class WorkerDeath(RuntimeError):
    """A worker process exited without completing its in-flight work group."""


@dataclass(frozen=True)
class ProcessConfig:
    """Tunables of the process-sharded executor.

    Attributes
    ----------
    n_procs:
        Worker processes (shards).
    reduction:
        ``"exact"`` (bit-identical to serial, module docstring) or
        ``"tree"`` (pinned pairwise shard-grid reduction).
    start_method:
        ``multiprocessing`` start method.  ``"spawn"`` is the portable
        default; ``"fork"`` starts workers orders of magnitude faster on
        Linux (no interpreter + NumPy re-import) and is what the scaling
        benchmark uses.
    poll_interval_s:
        Parent sleep between status polls while a group is pending.
    checkpoint_path / checkpoint_interval / resume_from:
        PR 5 checkpoint semantics for gridding (exact reduction only): a
        snapshot every ``checkpoint_interval`` retired groups, a final one on
        completion *and* on abort, and bit-exact resume that skips the
        checkpoint's completed groups.
    emulate_compute_s:
        Sleep this many seconds per work group inside the worker — a stand-in
        for device compute when benchmarking scaling on hosts with fewer
        cores than shards (mirrors ``RuntimeConfig.emulate_pcie_gbs``).
    """

    n_procs: int = 2
    reduction: str = "exact"
    start_method: str = "spawn"
    poll_interval_s: float = 0.002
    checkpoint_path: str | None = None
    checkpoint_interval: int = 4
    resume_from: str | None = None
    emulate_compute_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        if self.reduction not in _REDUCTIONS:
            raise ValueError(
                f"reduction must be one of {_REDUCTIONS}, got {self.reduction!r}"
            )
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {self.start_method!r}"
            )
        if self.poll_interval_s < 0:
            raise ValueError("poll_interval_s must be non-negative")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.emulate_compute_s < 0:
            raise ValueError("emulate_compute_s must be non-negative")
        if self.reduction != "exact" and (
            self.checkpoint_path is not None or self.resume_from is not None
        ):
            raise ValueError(
                "checkpoint/resume requires exact reduction: tree-reduced "
                "shard grids are not a plan-order prefix sum"
            )


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker process needs, picklable for any start method.

    Bulk data (uvw, visibilities, grid) is *not* here — workers map it from
    the shared arena named by ``arena``.
    """

    shard: int
    kind: str  # "grid" | "degrid"
    plan: Plan
    idg_config: IDGConfig
    arena: ArenaSpec
    groups: tuple[int, ...]  # ascending work-group indices owned by the shard
    fault_specs: tuple[FaultSpec, ...] | None
    seeded_attempts: tuple[tuple[str, int, int], ...]
    emulate_compute_s: float
    reduction: str
    aterm_fields: dict[tuple[int, int], np.ndarray] | None
    #: Chunked-store directory to read visibilities from (out-of-core
    #: gridding).  When set there is no "vis" slab in the arena: each worker
    #: re-opens the store and maps the visibility file read-only itself —
    #: no payload pickling, no shared-memory copy, page cache shared by all.
    store_path: str | None = None


def _write_text(row: np.ndarray, text: str) -> None:
    """Store ``text`` (UTF-8, truncated) into a fixed-width uint8 row."""
    data = text.encode("utf-8", "replace")[: row.size]
    row[:] = 0
    if data:
        row[: len(data)] = np.frombuffer(data, dtype=np.uint8)


def _read_text(row: np.ndarray) -> str:
    return bytes(row.tobytes()).rstrip(b"\x00").decode("utf-8", "replace")


# --------------------------------------------------------------- worker side


def _worker_main(task: _ShardTask) -> None:
    """Worker-process entry point: run one shard, publish through the arena.

    :class:`InjectedCrash` escaping a stage is converted into a *real*
    ``SIGKILL`` of this process — the deterministic stand-in the kill-matrix
    tests use for OOM-killer/segfault deaths.
    """
    arena = SharedArena.attach(task.arena)
    try:
        faults = None
        if task.fault_specs is not None:
            faults = FaultPlan(task.fault_specs)
            faults.seed_attempts(
                {(stage, group): count
                 for stage, group, count in task.seeded_attempts}
            )
        _run_shard(task, _shard_program(task, arena, faults), arena)
    except InjectedCrash:
        os.kill(os.getpid(), signal.SIGKILL)
    finally:
        arena.close()


def _shard_program(
    task: _ShardTask, arena: SharedArena, faults: FaultPlan | None
) -> WorkGroupProgram:
    """The call's program rebuilt over this worker's arena views."""
    idg = IDG(task.plan.gridspec, task.idg_config)
    if task.kind == "degrid":
        return WorkGroupProgram(
            idg, task.plan, arena["uvw"], grid=arena["grid"],
            out=arena["visout"], aterm_fields=task.aterm_fields, faults=faults,
        )
    if task.store_path is not None:
        # Out-of-core shard: attach the chunked store read-only in this
        # process; the kernels stream masked blocks straight off the map.
        vis = open_store(task.store_path).source()
    else:
        vis = arena["vis"]
    shard_grid = (
        arena["shardgrids"][task.shard] if task.reduction == "tree" else None
    )
    return WorkGroupProgram(
        idg, task.plan, arena["uvw"], visibilities=vis, grid=shard_grid,
        aterm_fields=task.aterm_fields, faults=faults,
    )


def _run_group(
    task: _ShardTask, program: WorkGroupProgram, arena: SharedArena, group: int
) -> object:
    """One work group's worker-side stages; its last stage's outcome."""
    if task.kind == "degrid":
        return program.degridder(
            group, program.subgrid_ifft(group, program.subgrid_split(group))
        )
    fourier = program.subgrid_fft(group, program.gridder(group))
    if isinstance(fourier, Quarantined):
        return fourier
    start, stop = program.groups[group]
    arena["fourier"][start:stop] = fourier
    if task.reduction == "tree":
        return program.adder(group, fourier)
    return fourier


def _run_shard(
    task: _ShardTask, program: WorkGroupProgram, arena: SharedArena
) -> None:
    """Run the shard's groups in ascending order; publish each outcome
    through its accounting rows, status byte last."""
    status = arena["status"]
    report = program.report
    for group in task.groups:
        t0 = time.perf_counter()
        if task.emulate_compute_s > 0:
            time.sleep(task.emulate_compute_s)
        retries_before = report.n_retries
        try:
            outcome = _run_group(task, program, arena, group)
        except WorkGroupError as exc:
            # Fail-fast: the parent re-raises this with the shard named.
            _write_text(arena["errors"][group], exc.error)
            _write_text(arena["stages"][group], exc.stage)
            status[group] = _FAILED
            return
        arena["retries"][group] = report.n_retries - retries_before
        arena["durations"][group] = time.perf_counter() - t0
        if isinstance(outcome, Quarantined):
            letter = report.dead_letters[-1]
            _write_text(arena["errors"][group], letter.error)
            _write_text(arena["stages"][group], letter.stage)
            arena["attempts"][group] = letter.attempts
            status[group] = _DEAD
        else:
            status[group] = _DONE
        program.drop_caches()  # retired group's file pages -> OS


# --------------------------------------------------------------- parent side


class _ShardSupervisor:
    """Parent-side shard lifecycle: spawn, status polling, death handling.

    Shared by the grid and degrid paths; holds the worker-process table, the
    per-group death counts, and the set of groups the *parent* quarantined
    because their worker died past the retry budget (``parent_dead`` — their
    dead letters are already in the program's report when set).
    """

    def __init__(
        self,
        *,
        kind: str,
        program: WorkGroupProgram,
        config: ProcessConfig,
        assignment: ShardAssignment,
        arena: SharedArena,
        telemetry: Telemetry,
        faults: FaultPlan | None,
        skip: frozenset[int] = frozenset(),
        store_path: str | None = None,
    ) -> None:
        self.kind = kind
        self.program = program
        self.config = config
        self.assignment = assignment
        self.arena = arena
        self.telemetry = telemetry
        self.fault_specs = faults.specs if faults is not None else None
        self.skip = skip
        self.store_path = store_path
        self.status = arena["status"]
        self.procs: dict[int, mp.process.BaseProcess] = {}
        self.death_counts: dict[int, int] = {}
        self.parent_dead: set[int] = set()
        self._ctx = mp.get_context(config.start_method)

    def start(self) -> None:
        for shard in range(self.assignment.n_shards):
            pending = tuple(
                g for g in self.assignment.groups_for(shard)
                if g not in self.skip
            )
            if pending:
                self._spawn(shard, pending)

    def collect(self, group: int) -> Quarantined | None:
        """Wait for ``group`` and read its arena rows: the worker's retries
        and dead letter are folded into the program's report, a lost group
        returns its :class:`Quarantined` sentinel, and a fail-fast worker
        failure raises :class:`WorkGroupError` naming the shard."""
        code = self.await_group(group)
        start, stop = self.program.groups[group]
        lost = Quarantined(group=group, start=start, stop=stop)
        if group in self.parent_dead:
            return lost
        arena = self.arena
        if code == _FAILED:
            raise WorkGroupError(
                _read_text(arena["stages"][group]), group, start, stop,
                _read_text(arena["errors"][group]),
                shard=self.assignment.shard_of[group],
            )
        letter = None
        if code == _DEAD:
            letter = DeadLetter(
                stage=_read_text(arena["stages"][group]),
                group=group,
                start=start,
                stop=stop,
                attempts=int(arena["attempts"][group]),
                error=_read_text(arena["errors"][group]),
                n_visibilities=group_visibility_count(self.program.plan, start, stop),
            )
        self.program.runner.absorb(int(arena["retries"][group]), letter)
        return lost if letter is not None else None

    def await_group(self, group: int) -> int:
        """Block until ``group`` leaves pending; returns its status byte.

        Detects the owning worker's death while waiting and routes it
        through the retry/quarantine/respawn machinery.
        """
        shard = self.assignment.shard_of[group]
        while (
            int(self.status[group]) == _PENDING
            and group not in self.parent_dead
        ):
            proc = self.procs.get(shard)
            if proc is None:
                start, stop = self.program.groups[group]
                raise WorkGroupError(
                    "worker", group, start, stop,
                    "no worker process owns this pending group", shard=shard,
                )
            if proc.exitcode is not None:
                # Re-check status after observing the exit: the worker may
                # have published this group and exited cleanly in between.
                if int(self.status[group]) == _PENDING:
                    self._on_death(shard)
                continue
            time.sleep(self.config.poll_interval_s)
        return int(self.status[group])

    def shutdown(self) -> None:
        """Terminate and reap every remaining worker (abort or success)."""
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        self.procs.clear()

    # ------------------------------------------------------------- internal

    def _spawn(self, shard: int, shard_groups: tuple[int, ...]) -> None:
        # A respawned worker rebuilds its FaultPlan from specs; seed the
        # crash counters with the deaths already charged so transient kill
        # schedules (times=1) clear instead of striking forever.
        seeded = tuple(
            (spec.stage, spec.group, self.death_counts[spec.group])
            for spec in (self.fault_specs or ())
            if spec.kind == "crash" and self.death_counts.get(spec.group, 0) > 0
        )
        program = self.program
        task = _ShardTask(
            shard=shard,
            kind=self.kind,
            plan=program.plan,
            idg_config=program.idg.config,
            arena=self.arena.spec(),
            groups=shard_groups,
            fault_specs=self.fault_specs,
            seeded_attempts=seeded,
            emulate_compute_s=self.config.emulate_compute_s,
            reduction=self.config.reduction,
            aterm_fields=program.aterm_fields,
            store_path=self.store_path,
        )
        proc = self._ctx.Process(target=_worker_main, args=(task,), daemon=True)
        proc.start()
        self.procs[shard] = proc

    def _on_death(self, shard: int) -> None:
        proc = self.procs.pop(shard)
        code = proc.exitcode
        pending = [
            g for g in self.assignment.groups_for(shard)
            if g not in self.skip
            and g not in self.parent_dead
            and int(self.status[g]) == _PENDING
        ]
        if not pending:
            return  # died after finishing its shard; nothing was lost
        active = pending[0]  # workers run their groups in ascending order
        self.death_counts[active] = self.death_counts.get(active, 0) + 1
        start, stop = self.program.groups[active]
        death = WorkerDeath(
            f"worker process for shard {shard} died with exit code {code} "
            f"while work group {active} was in flight"
        )
        quarantined = self.program.runner.fail_external(
            "worker", active, start=start, stop=stop,
            n_visibilities=group_visibility_count(self.program.plan, start, stop),
            attempts=self.death_counts[active], error=death,
        )
        if quarantined is not None:
            self.parent_dead.add(active)
            pending = pending[1:]
        if pending:
            self._spawn(shard, tuple(pending))
            self.telemetry.add_counter("worker_respawns", 1)


class ProcessShardedIDG:
    """Process-parallel gridding/degridding over shared-memory shards.

    Parameters
    ----------
    idg:
        The configured pipeline to parallelise (work-group size, retry
        policy and backend come from its ``IDGConfig``; workers rebuild the
        same pipeline from it).
    config:
        :class:`ProcessConfig`; defaults to two workers, exact reduction,
        ``spawn`` start method.
    faults:
        Optional deterministic fault-injection plan.  Worker-side stages
        (``gridder``/``subgrid_fft``/``subgrid_split``/``subgrid_ifft``/
        ``degridder``, plus ``adder`` in tree mode) fire inside the worker
        processes; ``adder`` faults fire in the parent in exact mode;
        ``crash`` faults kill the worker process for real (SIGKILL).
    n_procs:
        Shorthand overriding ``config.n_procs``.

    After each run ``last_fault_report`` (``None`` when fail-fast),
    ``last_telemetry`` (per-shard spans and counters) and
    ``last_assignment`` (the LPT shard map) describe what happened.
    """

    def __init__(
        self,
        idg: IDG,
        config: ProcessConfig | None = None,
        faults: FaultPlan | None = None,
        n_procs: int | None = None,
    ) -> None:
        if config is None:
            config = ProcessConfig()
        if n_procs is not None:
            config = replace(config, n_procs=n_procs)
        self.idg = idg
        self.config = config
        self.faults = faults
        self.last_fault_report: FaultReport | None = None
        self.last_telemetry: Telemetry | None = None
        self.last_assignment: ShardAssignment | None = None

    # ------------------------------------------------------------- internal

    def _start(self, program: WorkGroupProgram, telemetry: Telemetry) -> ShardAssignment:
        """Publish the run's records and return its LPT shard map."""
        self.last_telemetry = telemetry
        self.last_fault_report = program.fault_report
        self.last_assignment = partition_work_groups(
            plan_group_weights(program.plan, self.idg.config.work_group_size),
            self.config.n_procs,
        )
        return self.last_assignment

    @staticmethod
    def _arena_inputs(
        arena: SharedArena, uvw_m: np.ndarray, n_groups: int
    ) -> None:
        """The uvw slab and the per-group accounting rows."""
        np.copyto(arena.allocate("uvw", uvw_m.shape, uvw_m.dtype), uvw_m)
        arena.allocate("status", (n_groups,), np.uint8)
        arena.allocate("attempts", (n_groups,), np.int32)
        arena.allocate("retries", (n_groups,), np.int32)
        arena.allocate("errors", (n_groups, _ERROR_BYTES), np.uint8)
        arena.allocate("stages", (n_groups, _STAGE_BYTES), np.uint8)
        arena.allocate("durations", (n_groups,), np.float64)

    def _record_group_spans(
        self,
        telemetry: Telemetry,
        arena: SharedArena,
        assignment: ShardAssignment,
        group: int,
        now: float,
    ) -> None:
        shard = assignment.shard_of[group]
        duration = float(arena["durations"][group])
        if duration > 0:
            # Placed just-before-merge on the parent clock; the length is
            # the worker's measured compute (including emulated sleep).
            telemetry.record_span(
                "shard_compute", group, now - duration, now,
                worker=f"shard{shard}",
            )
        telemetry.add_counter(f"shard{shard}.groups", 1)

    # ------------------------------------------------------------- gridding

    def grid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None = None,
        flags: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Process-parallel equivalent of :meth:`repro.core.IDG.grid`.

        In exact reduction mode the result is bit-identical to the serial
        executor (module docstring); quarantined work groups are excluded
        and reported on ``last_fault_report`` exactly like the other
        executors.  A store-backed
        :class:`~repro.data.store.ChunkedVisibilitySource` is passed to the
        workers *by path*: no "vis" slab is allocated, each worker maps the
        store's visibility file read-only itself (sharing the page cache),
        so out-of-core datasets never cross the process boundary.
        """
        cfg = self.config
        telemetry = Telemetry()
        program = WorkGroupProgram.for_grid(
            self.idg, plan, uvw_m, visibilities, aterms=aterms, flags=flags,
            aterm_fields=aterm_fields, faults=self.faults, telemetry=telemetry,
        )
        assignment = self._start(program, telemetry)
        visibilities, store_path = program.visibilities, None
        if program.source is not None:
            store_path = program.source.store_path
            if store_path is None:
                # A source without a backing store (or carrying extra flags
                # the store does not record) cannot be re-opened inside the
                # workers; fall back to the shared-memory slab.
                visibilities = program.source.materialize()
        master = program.grid

        signature = None
        completed: set[int] = set()
        if cfg.checkpoint_path is not None or cfg.resume_from is not None:
            signature = plan_signature(plan, self.idg.config.work_group_size)
        if cfg.resume_from is not None:
            ckpt = load_checkpoint(cfg.resume_from, signature=signature)
            completed = set(ckpt.completed_set)
            np.copyto(master, ckpt.grid)
        n_retired = len(completed)
        retired_since_save = 0

        def save_snapshot() -> None:
            save_checkpoint(
                cfg.checkpoint_path, master, completed, signature,
                n_retired=n_retired,
            )
            program.report.n_checkpoints += 1

        with SharedArena() as arena:
            self._arena_inputs(arena, uvw_m, program.n_groups)
            if store_path is None:
                np.copyto(
                    arena.allocate(
                        "vis", visibilities.shape, visibilities.dtype
                    ),
                    visibilities,
                )
            n = plan.subgrid_size
            fourier = arena.allocate(
                "fourier", (plan.n_subgrids, n, n, 2, 2), COMPLEX_DTYPE
            )
            if cfg.reduction == "tree":
                g = self.idg.gridspec.grid_size
                shardgrids = arena.allocate(
                    "shardgrids", (cfg.n_procs, 4, g, g), COMPLEX_DTYPE
                )
            supervisor = _ShardSupervisor(
                kind="grid", program=program, config=cfg,
                assignment=assignment, arena=arena, telemetry=telemetry,
                faults=self.faults, skip=frozenset(completed),
                store_path=store_path,
            )
            try:
                supervisor.start()
                for group, (start, stop) in enumerate(program.groups):
                    if group in completed:
                        continue  # resumed from checkpoint
                    outcome = supervisor.collect(group)
                    if not isinstance(outcome, Quarantined):
                        t0 = monotonic()
                        if cfg.reduction == "exact":
                            outcome = program.adder(group, fourier[start:stop])
                            telemetry.record_span(
                                "adder", group, t0, monotonic(),
                                worker="parent",
                            )
                        self._record_group_spans(
                            telemetry, arena, assignment, group, t0
                        )
                        if not isinstance(outcome, Quarantined):
                            telemetry.add_counter(
                                "visibilities",
                                group_visibility_count(plan, start, stop),
                            )
                            completed.add(group)
                    n_retired += 1
                    retired_since_save += 1
                    if (
                        cfg.checkpoint_path is not None
                        and retired_since_save >= cfg.checkpoint_interval
                    ):
                        save_snapshot()
                        retired_since_save = 0
                if cfg.reduction == "tree":
                    partials = [
                        shardgrids[shard].copy()
                        for shard in range(cfg.n_procs)
                    ]
                    add_grid(master, tree_reduce_grids(partials))
            finally:
                supervisor.shutdown()
                if cfg.checkpoint_path is not None:
                    # Final snapshot on success *and* on abort, so a killed
                    # run resumes bit-exactly from the last retired prefix.
                    save_snapshot()
        return program.finish()

    # ----------------------------------------------------------- degridding

    def degrid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        aterms: ATermGenerator | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Process-parallel equivalent of :meth:`repro.core.IDG.degrid`.

        Work groups cover disjoint visibility blocks, so shards write the
        shared output slab without synchronisation; a quarantined group
        leaves its block zero (the shared convention).  ``out``
        (zero-initialised, e.g. a writable dataset-store map) receives the
        prediction instead of a fresh copy — note the shared-memory
        ``visout`` slab itself remains O(dataset); streaming degrid output
        without the slab is the StreamingIDG path's job.
        """
        telemetry = Telemetry()
        program = WorkGroupProgram.for_degrid(
            self.idg, plan, uvw_m, grid, aterms=aterms,
            aterm_fields=aterm_fields, out=out, faults=self.faults,
            telemetry=telemetry,
        )
        assignment = self._start(program, telemetry)
        with SharedArena() as arena:
            self._arena_inputs(arena, uvw_m, program.n_groups)
            np.copyto(arena.allocate("grid", grid.shape, grid.dtype), grid)
            visout = arena.allocate("visout", program.out.shape, COMPLEX_DTYPE)
            supervisor = _ShardSupervisor(
                kind="degrid", program=program, config=self.config,
                assignment=assignment, arena=arena, telemetry=telemetry,
                faults=self.faults,
            )
            try:
                supervisor.start()
                for group, (start, stop) in enumerate(program.groups):
                    if supervisor.collect(group) is None:
                        self._record_group_spans(
                            telemetry, arena, assignment, group, monotonic()
                        )
                        telemetry.add_counter(
                            "visibilities", group_visibility_count(plan, start, stop)
                        )
                np.copyto(program.out, visout)
            finally:
                supervisor.shutdown()
        return program.finish()
