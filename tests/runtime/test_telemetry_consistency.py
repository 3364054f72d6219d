"""Telemetry self-consistency: the numbers a run reports must add up.

Every executor publishes the telemetry its ``WorkGroupProgram`` records, and
it drives the performance-model comparison (paper Fig 9/10), so its
invariants are load-bearing: per-stage busy time can never exceed the run's
wall clock, every stage records one span per work group, the in-flight gauge
must stay within the admission window and return to zero, and the visibility
counter must match the plan's own statistics.  The streaming runs use one
worker; the serial runs check that the inline loop records the same.
"""

import pytest

from repro.runtime import RuntimeConfig, StreamingIDG

GROUP = 5
RUNS = ["grid_run", "degrid_run", "serial_grid_run", "serial_degrid_run"]


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


@pytest.fixture(scope="module")
def serial_grid_run(small_idg, small_plan, small_obs, single_source_vis):
    """One serial grid run: the inline loop publishes its program's
    telemetry too."""
    idg = small_idg.with_config(work_group_size=GROUP)
    idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    return idg.last_telemetry


@pytest.fixture(scope="module")
def serial_degrid_run(small_idg, small_plan, small_obs, single_source_vis):
    idg = small_idg.with_config(work_group_size=GROUP)
    grid = idg.grid(small_plan, small_obs.uvw_m, single_source_vis)
    idg.degrid(small_plan, small_obs.uvw_m, grid)
    return idg.last_telemetry


@pytest.mark.parametrize("run", RUNS)
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


@pytest.mark.parametrize("run", RUNS)
def test_spans_lie_within_the_run(run, request):
    telemetry = request.getfixturevalue(run)
    spans = telemetry.spans()
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    assert telemetry.makespan() == pytest.approx(t1 - t0)
    for span in spans:
        assert span.end >= span.start


@pytest.mark.parametrize("run", RUNS)
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


@pytest.mark.parametrize(
    ("run", "stages"),
    [
        ("serial_grid_run", ("gridder", "subgrid_fft", "adder")),
        ("serial_degrid_run", ("subgrid_split", "subgrid_ifft", "degridder")),
    ],
)
def test_serial_records_one_span_per_stage_and_group(run, stages, request,
                                                     small_plan):
    """The serial executor records the program's stages, one span per
    (stage, work group) on the calling thread, and counts every
    visibility the plan places — no admission spans, no in-flight gauge."""
    telemetry = request.getfixturevalue(run)
    groups = list(range(len(list(small_plan.work_groups(GROUP)))))
    assert telemetry.stages == stages
    for stage in stages:
        assert sorted(s.item for s in telemetry.spans(stage)) == groups, stage
    assert {s.worker for s in telemetry.spans()} == {"MainThread"}
    assert (
        telemetry.counters["visibilities"]
        == small_plan.statistics.n_visibilities_gridded
    )
    gauges = {
        event["name"]
        for event in telemetry.chrome_trace()["traceEvents"]
        if event["ph"] == "C"
    }
    assert "in_flight" not in gauges and "rss_bytes" in gauges


def test_group_visibilities_are_the_per_item_sums(
    small_idg, small_plan, small_obs, covered_visibilities
):
    """The program's per-group counts (one cumulative sum over the plan)
    equal the item-by-item sum over each group's plan range."""
    from repro.runtime.program import WorkGroupProgram

    program = WorkGroupProgram(
        small_idg.with_config(work_group_size=GROUP), small_plan,
        small_obs.uvw_m, grid=small_idg.gridspec.allocate_grid(1),
    )
    assert program.group_visibilities == [
        covered_visibilities(small_plan, start, stop)
        for start, stop in small_plan.work_groups(GROUP)
    ]


@pytest.mark.parametrize("executor", ["serial", "threads", "streaming", "processes"])
def test_resumed_grid_counts_only_the_groups_it_grids(
    executor, small_idg, small_plan, small_obs, single_source_vis, tmp_path,
    covered_visibilities,
):
    """A grid resumed from a snapshot of the first groups counts the
    visibilities of the groups it grids, not the whole plan's, so its
    throughput is that of the work it did."""
    from repro.imaging.pipeline import make_engine
    from repro.runtime import CheckpointConfig, plan_signature, save_checkpoint

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
        covered_visibilities(small_plan, start, stop)
        for start, stop in groups[resumed:]
    )


def test_throughput_consistent_with_counter_and_makespan(grid_run):
    assert grid_run.throughput() == pytest.approx(
        grid_run.counters["visibilities"] / grid_run.makespan()
    )
