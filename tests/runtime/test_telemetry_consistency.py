"""Telemetry self-consistency: the numbers a run reports must add up.

The streaming engine's telemetry drives the performance-model comparison
(paper Fig 9/10), so its invariants are load-bearing: per-stage busy time
can never exceed the run's wall clock, the in-flight gauge must stay within
the admission window and return to zero, and the visibility counter must
match the plan's own statistics.
"""

import pytest

from repro.runtime import RuntimeConfig, StreamingIDG

GROUP = 5


@pytest.fixture(scope="module")
def grid_run(small_idg, small_plan, small_obs, single_source_vis):
    """One streaming grid run (single worker per stage) plus its telemetry."""
    engine = StreamingIDG(small_idg.with_config(work_group_size=GROUP))
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    return engine.last_telemetry


@pytest.fixture(scope="module")
def degrid_run(small_idg, small_plan, small_obs, single_source_vis):
    engine = StreamingIDG(
        small_idg.with_config(work_group_size=GROUP), RuntimeConfig(n_buffers=2)
    )
    grid = small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    engine.degrid(small_plan, small_obs.uvw_m, grid)
    return engine.last_telemetry


@pytest.mark.parametrize("run", ["grid_run", "degrid_run"])
def test_stage_busy_time_fits_in_makespan(run, request):
    """With one worker per stage, a stage's span total cannot exceed the
    wall clock (spans of one stage never overlap themselves)."""
    telemetry = request.getfixturevalue(run)
    makespan = telemetry.makespan()
    assert makespan > 0
    for stage in telemetry.stages:
        busy = telemetry.stage_busy_seconds(stage)
        assert 0 < busy <= makespan * (1 + 1e-9), (
            f"{stage}: busy {busy}s exceeds makespan {makespan}s"
        )
        assert busy == pytest.approx(
            sum(telemetry.stage_durations(stage))
        )


@pytest.mark.parametrize("run", ["grid_run", "degrid_run"])
def test_spans_lie_within_the_run(run, request):
    telemetry = request.getfixturevalue(run)
    spans = telemetry.spans()
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    assert telemetry.makespan() == pytest.approx(t1 - t0)
    for span in spans:
        assert span.end >= span.start


@pytest.mark.parametrize("run", ["grid_run", "degrid_run"])
def test_every_stage_saw_every_work_group(run, request, small_plan):
    telemetry = request.getfixturevalue(run)
    n_groups = len(list(small_plan.work_groups(GROUP)))
    for stage in telemetry.stages:
        assert len(telemetry.spans(stage)) == n_groups, stage


@pytest.mark.parametrize("run", ["grid_run", "degrid_run"])
def test_in_flight_gauge_stays_within_the_window(run, request, small_plan):
    """Every work group is admitted and retired exactly once: the gauge
    records one sample per admission and per retirement, never leaves
    ``[0, n_buffers]`` and ends at zero.  There are no inter-stage channels,
    so no queue statistics."""
    telemetry = request.getfixturevalue(run)
    n_groups = len(list(small_plan.work_groups(GROUP)))
    n_buffers = {"grid_run": 3, "degrid_run": 2}[run]
    samples = [
        event["args"]["value"]
        for event in telemetry.chrome_trace()["traceEvents"]
        if event["ph"] == "C" and event["name"] == "in_flight"
    ]
    assert len(samples) == 2 * n_groups
    assert all(0 <= value <= n_buffers for value in samples)
    assert samples[-1] == 0


def test_visibility_counter_matches_plan(grid_run, small_plan):
    assert (
        grid_run.counters["visibilities"]
        == small_plan.statistics.n_visibilities_gridded
    )


@pytest.mark.parametrize("executor", ["threads", "streaming", "processes"])
def test_resumed_grid_counts_only_the_groups_it_grids(
    executor, small_idg, small_plan, small_obs, single_source_vis, tmp_path
):
    """A grid resumed from a snapshot of the first groups counts the
    visibilities of the groups it grids, not the whole plan's, so its
    throughput is that of the work it did."""
    from repro.imaging.pipeline import make_engine
    from repro.runtime import (
        CheckpointConfig,
        group_visibility_count,
        plan_signature,
        save_checkpoint,
    )

    idg = small_idg.with_config(work_group_size=GROUP)
    groups = list(small_plan.work_groups(GROUP))
    resumed = 3
    snapshot = save_checkpoint(
        tmp_path / "prefix.npz", idg.gridspec.allocate_grid(), range(resumed),
        plan_signature(small_plan, GROUP),
    )
    engine = make_engine(idg, executor, n_workers=2)
    engine.grid(
        small_plan, small_obs.uvw_m, single_source_vis,
        checkpoint=CheckpointConfig(resume_from=str(snapshot)),
    )
    assert engine.last_telemetry.counters["visibilities"] == sum(
        group_visibility_count(small_plan, start, stop)
        for start, stop in groups[resumed:]
    )


def test_throughput_consistent_with_counter_and_makespan(grid_run):
    assert grid_run.throughput() == pytest.approx(
        grid_run.counters["visibilities"] / grid_run.makespan()
    )
