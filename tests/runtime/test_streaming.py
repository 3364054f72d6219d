"""StreamingIDG: the schedule's invariants, error propagation without
deadlock, and telemetry output.

Bit-exact serial equivalence (with A-terms, flags, w-offsets, wideband, and
multi-worker reordering) is pinned by the cross-executor conformance suite
in ``tests/parallel/test_executor_conformance.py``, and across buffer and
worker counts by ``tests/parallel/test_streaming_schedule.py``."""

import json
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.aterms.generators import GaussianBeamATerm
from repro.runtime import RuntimeConfig, StreamingIDG, modeled_schedule_jobs
from repro.runtime import streaming as streaming_module
from repro.runtime.streaming import retire_in_order

GRID_STAGES = ("splitter", "gridder", "subgrid_fft", "adder")
DEGRID_STAGES = ("splitter", "subgrid_split", "subgrid_ifft", "degridder")


def in_flight_samples(telemetry):
    """The ``in_flight`` gauge's recorded values, in order."""
    return [
        event["args"]["value"]
        for event in telemetry.chrome_trace()["traceEvents"]
        if event["ph"] == "C" and event["name"] == "in_flight"
    ]


@pytest.fixture(scope="module")
def beam(small_gridspec):
    return GaussianBeamATerm(fwhm=1.5 * small_gridspec.image_size)


@pytest.fixture(scope="module")
def serial_grid(small_idg, small_plan, small_obs, single_source_vis, beam):
    return small_idg.grid(small_plan, small_obs.uvw_m, single_source_vis, aterms=beam)


def test_config_validation(small_idg):
    with pytest.raises(ValueError):
        RuntimeConfig(n_buffers=0)
    with pytest.raises(ValueError):
        RuntimeConfig(workers=-1)
    assert StreamingIDG(small_idg).config.n_buffers == 3


def test_emulated_transfers_bit_exact_with_extra_stages(
    small_idg, small_plan, small_obs, single_source_vis, beam, serial_grid
):
    """PCIe emulation inserts htod/dtoh stages without changing results."""
    engine = StreamingIDG(
        small_idg.with_config(work_group_size=5),
        RuntimeConfig(n_buffers=3, emulate_pcie_gbs=1000.0),
    )
    streamed = engine.grid(
        small_plan, small_obs.uvw_m, single_source_vis, aterms=beam
    )
    assert np.array_equal(streamed, serial_grid)
    assert engine.last_telemetry.stages == (
        "splitter", "htod", "gridder", "subgrid_fft", "dtoh", "adder"
    )
    degridded = engine.degrid(small_plan, small_obs.uvw_m, serial_grid, aterms=beam)
    assert np.array_equal(
        degridded, small_idg.degrid(small_plan, small_obs.uvw_m, serial_grid,
                                    aterms=beam)
    )
    assert engine.last_telemetry.stages == (
        "splitter", "subgrid_split", "htod", "subgrid_ifft", "degridder", "dtoh"
    )


def test_emulated_bandwidth_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(emulate_pcie_gbs=0.0)


def test_chunk_transfer_bytes_positive(small_plan):
    from repro.runtime.streaming import chunk_transfer_bytes

    bytes_in, bytes_out = chunk_transfer_bytes(small_plan, 0, 5)
    assert bytes_in > 0 and bytes_out > 0
    n = small_plan.subgrid_size
    assert bytes_out == 5 * n * n * 4 * 8  # five complex64 subgrid quads


def test_grid_accepts_flags_and_existing_grid(small_idg, small_plan, small_obs,
                                              single_source_vis):
    flags = np.zeros(single_source_vis.shape[:3], dtype=bool)
    flags[0, :, :] = True
    serial = small_idg.grid(
        small_plan, small_obs.uvw_m, single_source_vis, flags=flags
    )
    engine = StreamingIDG(small_idg.with_config(work_group_size=5))
    out = small_idg.gridspec.allocate_grid(dtype=serial.dtype)
    returned = engine.grid(
        small_plan, small_obs.uvw_m, single_source_vis, grid=out, flags=flags
    )
    assert returned is out
    assert np.array_equal(out, serial)


def test_failing_work_group_propagates_without_deadlock(
    small_idg, small_plan, small_obs, single_source_vis, monkeypatch
):
    """Satellite: inject a failing work group; the run must re-raise promptly
    with every queue drained (no hung threads)."""
    backend_cls = type(small_idg.backend)
    real = backend_cls.grid_work_group

    def failing(self, plan, start, stop, *args, **kwargs):
        if start >= 10:
            raise RuntimeError(f"injected failure at work group {start}")
        return real(self, plan, start, stop, *args, **kwargs)

    monkeypatch.setattr(backend_cls, "grid_work_group", failing)
    engine = StreamingIDG(
        small_idg.with_config(work_group_size=5), RuntimeConfig(n_buffers=2)
    )
    result = {}

    def target():
        try:
            engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
        except BaseException as exc:  # noqa: B036 — test captures everything
            result["error"] = exc

    before = threading.active_count()
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(60.0)
    assert not thread.is_alive(), "streaming grid deadlocked after stage failure"
    assert isinstance(result.get("error"), RuntimeError)
    assert "injected failure" in str(result["error"])
    assert threading.active_count() <= before + 1  # no orphaned stage threads


def test_grid_shape_validation(small_idg, small_plan, small_obs, single_source_vis):
    engine = StreamingIDG(small_idg)
    with pytest.raises(ValueError):
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis[:, :, :1])


def test_telemetry_spans_and_trace(small_idg, small_plan, small_obs,
                                   single_source_vis):
    engine = StreamingIDG(small_idg.with_config(work_group_size=5))
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    telemetry = engine.last_telemetry
    assert telemetry.stages == GRID_STAGES
    n_groups = len(list(small_plan.work_groups(5)))
    for stage in GRID_STAGES:
        assert len(telemetry.spans(stage)) == n_groups
    assert telemetry.counters["visibilities"] > 0
    assert telemetry.throughput() > 0
    # the in-flight gauge stays within the admission window
    assert 0 < max(in_flight_samples(telemetry)) <= engine.config.n_buffers
    trace = json.loads(json.dumps(telemetry.chrome_trace()))
    span_names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert set(GRID_STAGES) <= span_names
    gauge_names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
    assert "in_flight" in gauge_names


def test_degrid_telemetry_stages(small_idg, small_plan, small_obs, serial_grid):
    engine = StreamingIDG(small_idg.with_config(work_group_size=5))
    engine.degrid(small_plan, small_obs.uvw_m, serial_grid)
    assert engine.last_telemetry.stages == DEGRID_STAGES


def test_modeled_schedule_jobs_bridge(small_idg, small_plan, small_obs,
                                      single_source_vis):
    from repro.perfmodel.streams import schedule_buffers

    engine = StreamingIDG(
        small_idg.with_config(work_group_size=5), RuntimeConfig(n_buffers=1)
    )
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    jobs = modeled_schedule_jobs(
        engine.last_telemetry, ("gridder", "subgrid_fft", "adder")
    )
    assert len(jobs) == len(list(small_plan.work_groups(5)))
    assert all(h >= 0 and c >= 0 and d >= 0 for h, c, d in jobs)
    schedule = schedule_buffers(jobs, n_buffers=3)
    assert schedule.makespan > 0


# ------------------------------------------------------ schedule invariants


@pytest.mark.parametrize("n_buffers", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["grid", "degrid"])
def test_in_flight_gauge_never_exceeds_n_buffers(
    kind, n_buffers, small_idg, small_plan, small_obs, single_source_vis,
    serial_grid,
):
    """The calling thread admits at most ``n_buffers`` work groups before
    retiring one; every admission and retirement moves the gauge by one and
    it returns to zero."""
    engine = StreamingIDG(
        small_idg.with_config(work_group_size=5),
        RuntimeConfig(n_buffers=n_buffers, workers=2),
    )
    if kind == "grid":
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    else:
        engine.degrid(small_plan, small_obs.uvw_m, serial_grid)
    samples = in_flight_samples(engine.last_telemetry)
    n_groups = len(list(small_plan.work_groups(5)))
    assert len(samples) == 2 * n_groups
    assert max(samples) == min(n_buffers, n_groups)
    assert all(0 <= value <= n_buffers for value in samples)
    assert all(abs(b - a) == 1 for a, b in zip([0, *samples], samples))
    assert samples[-1] == 0


@pytest.mark.parametrize("kind", ["grid", "degrid"])
def test_one_span_per_stage_and_group(
    kind, small_idg, small_plan, small_obs, single_source_vis, serial_grid
):
    """Every stage of the chain, the transfer stages included, records
    exactly one span for each work group."""
    engine = StreamingIDG(
        small_idg.with_config(work_group_size=5),
        RuntimeConfig(n_buffers=3, workers=2, emulate_pcie_gbs=1000.0),
    )
    if kind == "grid":
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    else:
        engine.degrid(small_plan, small_obs.uvw_m, serial_grid)
    telemetry = engine.last_telemetry
    groups = list(range(len(list(small_plan.work_groups(5)))))
    assert len(telemetry.stages) == 6
    for stage in telemetry.stages:
        assert sorted(s.item for s in telemetry.spans(stage)) == groups, stage


@pytest.mark.parametrize("kind", ["grid", "degrid"])
@pytest.mark.parametrize("fail", [False, True], ids=["success", "failure"])
def test_no_thread_outlives_a_call(
    kind, fail, small_idg, small_plan, small_obs, single_source_vis,
    serial_grid, monkeypatch,
):
    """The pool lives for one call: its threads are joined before the call
    returns or raises."""
    if fail:
        backend_cls = type(small_idg.backend)
        name = f"{kind}_work_group"
        real = getattr(backend_cls, name)

        def failing(self, plan, start, stop, *args, **kwargs):
            if start >= 10:
                raise RuntimeError("injected failure")
            return real(self, plan, start, stop, *args, **kwargs)

        monkeypatch.setattr(backend_cls, name, failing)
    engine = StreamingIDG(
        small_idg.with_config(work_group_size=5),
        RuntimeConfig(n_buffers=3, workers=2, emulate_pcie_gbs=1000.0),
    )
    before = set(threading.enumerate())
    try:
        if kind == "grid":
            engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
        else:
            engine.degrid(small_plan, small_obs.uvw_m, serial_grid)
    except RuntimeError as exc:
        assert fail and "injected failure" in str(exc)
    else:
        assert not fail
    assert set(threading.enumerate()) <= before


def test_skipped_oldest_group_stops_admission(monkeypatch):
    """A group whose task finds the abort flag already set is skipped and
    never retired, so what its ``admit`` took never comes back: the loop
    must stop admitting and raise the failure instead of waiting in
    ``admit``.  The oldest group's worker is held at its abort check until
    group 1 has failed (the preemption that opens the race)."""
    caller = threading.current_thread()
    oldest_checking = threading.Event()

    class HeldEvent(threading.Event):
        """The first abort check on a pool thread waits for the flag."""

        held = False

        def is_set(self):
            if threading.current_thread() is caller or self.held:
                return super().is_set()
            self.held = True
            oldest_checking.set()
            return self.wait(timeout=10)

    monkeypatch.setattr(streaming_module, "threading", SimpleNamespace(Event=HeldEvent))
    credits = threading.Semaphore(2)  # taken by admit, given back by retire
    admitted, retired = [], []

    def admit(group):
        if group == 1:
            assert oldest_checking.wait(timeout=10)
        assert credits.acquire(timeout=5), f"admit({group}) waited for a credit"
        admitted.append(group)

    def compute(group):
        if group == 1:
            raise RuntimeError("injected failure")
        return group

    def retire(group, result):
        retired.append(group)
        credits.release()

    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="injected failure"):
        retire_in_order(
            range(6), compute, retire, threads=2, window=2, admit=admit, name="held"
        )
    assert admitted == [0, 1]
    assert retired == []
    assert set(threading.enumerate()) <= before
