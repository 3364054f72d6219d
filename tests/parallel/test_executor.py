"""The threads executor (ParallelIDG): configuration, failure semantics and
telemetry, plus the call surface every executor shares.

Serial-equivalence (now bit-exact, not allclose) is pinned for every
executor by ``test_executor_conformance.py``; this module keeps the
thread-executor-specific behaviours — its window, early cancellation,
fault-report plumbing, telemetry, and the contract the benchmark tracer
relies on — plus the fail-fast error attribution, ``out=`` validation and
keyword-only arguments every executor shares.
"""

import pytest

from repro.parallel.executor import ParallelIDG

EXECUTORS = ["serial", "threads", "streaming", "processes"]


def test_n_workers_validation(small_idg):
    with pytest.raises(ValueError):
        ParallelIDG(small_idg, n_workers=0)


def test_n_workers_defaults_to_cpu_count(small_idg):
    import os

    usable = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    assert ParallelIDG(small_idg).config.workers == usable


def test_n_workers_default_follows_the_affinity_mask(small_idg, monkeypatch):
    """A process pinned to one core (cpuset, taskset) gets one worker, not
    one per core the host has."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ParallelIDG(small_idg).config.workers == 1


@pytest.mark.parametrize("n_workers", [1, 3])
def test_threads_is_streaming_with_two_groups_per_worker(n_workers, small_idg):
    """The threads executor is the streaming executor with a window of two
    work groups per worker, and defines no grid/degrid of its own."""
    from repro.imaging.pipeline import make_engine
    from repro.runtime import RuntimeConfig

    engine = make_engine(small_idg, "threads", n_workers=n_workers)
    assert isinstance(engine, ParallelIDG)
    assert engine.config == RuntimeConfig(n_buffers=2 * n_workers, workers=n_workers)


@pytest.mark.parametrize("kind", ["grid", "degrid"])
def test_threads_executor_records_telemetry(kind, small_idg, small_plan,
                                            small_obs, single_source_vis):
    """A threads run records one span per (stage, work group) and an
    ``in_flight`` gauge that never exceeds ``2 * n_workers``."""
    idg = small_idg.with_config(work_group_size=5)
    engine = ParallelIDG(idg, n_workers=2)
    if kind == "grid":
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
        stages = ("splitter", "gridder", "subgrid_fft", "adder")
    else:
        grid = idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
        engine.degrid(small_plan, small_obs.uvw_m, grid)
        stages = ("splitter", "subgrid_split", "subgrid_ifft", "degridder")
    telemetry = engine.last_telemetry
    groups = list(range(len(list(small_plan.work_groups(5)))))
    assert telemetry.stages == stages
    for stage in stages:
        assert sorted(s.item for s in telemetry.spans(stage)) == groups, stage
    samples = [
        event["args"]["value"]
        for event in telemetry.chrome_trace()["traceEvents"]
        if event["ph"] == "C" and event["name"] == "in_flight"
    ]
    assert len(samples) == 2 * len(groups)
    assert max(samples) == 4 and samples[-1] == 0
    assert (
        telemetry.counters["visibilities"]
        == small_plan.statistics.n_visibilities_gridded
    )


def test_worker_exceptions_surface(small_idg, small_plan, small_obs,
                                   single_source_vis):
    """A failing work group raises out of grid/degrid, not silently hangs."""
    bad_vis = single_source_vis[:, :, :1]  # wrong channel count
    par = ParallelIDG(small_idg.with_config(work_group_size=5), n_workers=2)
    with pytest.raises(Exception):
        par.grid(small_plan, small_obs.uvw_m, bad_vis)


@pytest.mark.parametrize("executor", ["serial", "threads", "streaming"])
def test_worker_error_names_the_work_group(executor, small_idg, small_plan,
                                           small_obs, single_source_vis,
                                           monkeypatch):
    """Fail-fast contract of every in-process executor: a failing work group
    must be identifiable from the exception message (group index + plan
    item range), with the original error chained."""
    from repro.imaging.pipeline import make_engine
    from repro.parallel.executor import WorkGroupError

    idg = small_idg.with_config(work_group_size=5)
    backend_cls = type(idg.backend)
    original = backend_cls.grid_work_group

    def failing(self, plan, start, stop, *args, **kwargs):
        if start == 10:
            raise ValueError("synthetic kernel failure")
        return original(self, plan, start, stop, *args, **kwargs)

    monkeypatch.setattr(backend_cls, "grid_work_group", failing)
    engine = make_engine(idg, executor, n_workers=2)
    with pytest.raises(WorkGroupError, match=r"work group 2 \(plan items \[10, 15\)\)") as info:
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert isinstance(info.value.__cause__, ValueError)


def test_first_failure_cancels_remaining_work(small_idg, small_plan,
                                              small_obs, single_source_vis,
                                              monkeypatch):
    """After the first work-group failure the executor must stop launching
    the remaining (doomed) work groups instead of grinding through them."""
    import threading
    import time as _time

    from repro.parallel.executor import WorkGroupError

    idg = small_idg.with_config(work_group_size=2)
    n_groups = len(list(small_plan.work_groups(2)))
    assert n_groups >= 8
    backend_cls = type(idg.backend)
    original = backend_cls.grid_work_group
    calls = []
    lock = threading.Lock()

    def instrumented(self, plan, start, stop, *args, **kwargs):
        with lock:
            calls.append(start)
        if start == 0:
            raise ValueError("first group fails immediately")
        _time.sleep(0.05)  # give the failure time to surface
        return original(self, plan, start, stop, *args, **kwargs)

    monkeypatch.setattr(backend_cls, "grid_work_group", instrumented)
    par = ParallelIDG(idg, n_workers=2)
    with pytest.raises(WorkGroupError):
        par.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert len(calls) < n_groups, (
        f"all {n_groups} work groups ran despite an early failure"
    )


def test_tolerant_mode_reports_on_last_fault_report(small_idg, small_plan,
                                                    small_obs,
                                                    single_source_vis):
    from repro.runtime import FaultPlan

    idg = small_idg.with_config(work_group_size=5, max_retries=1,
                                retry_backoff_s=0.0)
    par = ParallelIDG(idg, n_workers=2)
    par.grid(small_plan, small_obs.uvw_m, single_source_vis,
             faults=FaultPlan.single("gridder", 0, times=-1))
    report = par.last_fault_report
    assert report is not None and report.n_dead_letters == 1
    assert report.dead_letters[0].group == 0
    # without tolerance the report stays None
    par_plain = ParallelIDG(small_idg, n_workers=2)
    par_plain.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert par_plain.last_fault_report is None


@pytest.mark.parametrize("executor", EXECUTORS)
def test_degrid_rejects_a_wrong_shaped_out(executor, small_idg, small_plan,
                                           small_obs):
    """Every executor validates ``out=`` against the plan's visibility
    layout before it degrids anything."""
    import numpy as np

    from repro.constants import COMPLEX_DTYPE
    from repro.imaging.pipeline import make_engine

    g = small_idg.gridspec.grid_size
    model = np.zeros((4, g, g), dtype=COMPLEX_DTYPE)
    n_bl, n_times, _ = small_obs.uvw_m.shape
    out = np.zeros(
        (n_bl, n_times, small_plan.n_channels + 1, 2, 2), dtype=COMPLEX_DTYPE
    )
    engine = make_engine(small_idg, executor, n_workers=2)
    with pytest.raises(ValueError, match="out shape"):
        engine.degrid(small_plan, small_obs.uvw_m, model, out=out)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_arguments_after_the_data_are_keyword_only(executor, small_idg,
                                                   small_plan, small_obs,
                                                   single_source_vis):
    """Every executor takes ``(plan, uvw_m, visibilities)`` and
    ``(plan, uvw_m, grid)`` by position and nothing more, and the same
    keyword-only arguments after them — fault plans and checkpoints
    included — so a caller never branches on the executor."""
    import inspect

    import numpy as np

    from repro.imaging.pipeline import make_engine

    engine = make_engine(small_idg, executor, n_workers=2)
    flags = np.zeros(single_source_vis.shape[:3], dtype=bool)
    with pytest.raises(TypeError):
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis, flags)
    grid = small_idg.gridspec.allocate_grid(4)
    with pytest.raises(TypeError):
        engine.degrid(small_plan, small_obs.uvw_m, grid, None)

    def keyword_only(method):
        return tuple(
            name for name, p in inspect.signature(method).parameters.items()
            if p.kind is p.KEYWORD_ONLY
        )

    assert keyword_only(engine.grid) == (
        "aterms", "grid", "flags", "aterm_fields", "checkpoint", "faults"
    )
    assert keyword_only(engine.degrid) == ("aterms", "aterm_fields", "out", "faults")


@pytest.mark.parametrize("executor", EXECUTORS)
def test_grid_accumulates_into_the_given_grid(executor, small_idg, small_plan,
                                              small_obs, single_source_vis):
    """``grid=`` is accumulated into and returned on every executor, with
    the serial executor's result."""
    import numpy as np

    from repro.imaging.pipeline import make_engine

    idg = small_idg.with_config(work_group_size=5)
    first = idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    expected = idg.grid(
        small_plan, small_obs.uvw_m, single_source_vis, grid=first.copy()
    )
    target = first.copy()
    engine = make_engine(idg, executor, n_workers=2)
    result = engine.grid(small_plan, small_obs.uvw_m, single_source_vis, grid=target)
    assert result is target
    assert np.array_equal(result, expected)


def test_benchmark_tracer_wraps_threads_grid_once(small_idg, small_plan,
                                                  small_obs, single_source_vis,
                                                  benchmark_tracing):
    """The benchmark suite's tracer wraps ``grid``/``degrid`` on ``IDG``,
    ``ParallelIDG``, ``StreamingIDG`` and ``ProcessShardedIDG``.  Because
    ``ParallelIDG`` inherits them from ``StreamingIDG`` instead of defining
    its own, a traced threads grid records exactly one ``executor`` span."""
    assert "grid" not in vars(ParallelIDG)
    assert "degrid" not in vars(ParallelIDG)
    engine = ParallelIDG(small_idg, n_workers=2)
    with benchmark_tracing.instrument(benchmark_tracing.Tracer()) as tracer:
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert [s.name for s in tracer.spans].count("executor") == 1
