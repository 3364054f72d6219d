"""StreamingIDG across its schedule space: bit-identical to serial.

Every admission window (``n_buffers`` 1-4) and compute width (``workers``
1-3) must reproduce the serial executor's grid and prediction exactly
(``np.array_equal``), with the emulated device link's transfer stages in
the chain and with a chunked store as the gridding source (the ``reader``
stage).  Groups finish out of order whenever ``workers > 1``; the calling
thread's in-order retirement is what keeps the adder's accumulation order,
and so every bit, the serial one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.store import DatasetWriter
from repro.runtime import RuntimeConfig, StreamingIDG

SCHEDULES = [(n, w) for n in (1, 2, 3, 4) for w in (1, 2, 3)]

#: Slabs straddle the work items' time ranges (as in the out-of-core
#: conformance suite).
TIME_CHUNK = 2


def _case(conformance, name):
    return next(c for c in conformance.cases if c.name == name)


@pytest.fixture(scope="module")
def flagged_store(conformance, tmp_path_factory):
    """The ``flagged`` corpus case written to a chunked store."""
    case = _case(conformance, "flagged")
    w = conformance.workload(case)
    obs = w["obs"]
    with DatasetWriter(
        tmp_path_factory.mktemp("schedule-store") / "flagged.store",
        n_baselines=obs.array.n_baselines,
        n_times=case.n_times,
        n_channels=case.n_channels,
    ) as writer:
        writer.set_frequencies(obs.frequencies_hz)
        writer.set_baselines(obs.array.baselines())
        for t0 in range(0, case.n_times, TIME_CHUNK):
            t1 = min(t0 + TIME_CHUNK, case.n_times)
            writer.write_times(
                t0, obs.uvw_m[:, t0:t1], w["vis"][:, t0:t1],
                flags=w["flags"][:, t0:t1],
            )
        return writer.finalize()


@pytest.mark.parametrize(("n_buffers", "workers"), SCHEDULES)
def test_emulated_link_schedule_bit_identical(conformance, n_buffers, workers):
    case = _case(conformance, "aterms")
    w = conformance.workload(case)
    reference = conformance.reference(case)
    engine = StreamingIDG(
        w["idg"],
        RuntimeConfig(n_buffers=n_buffers, workers=workers, emulate_pcie_gbs=1000.0),
    )
    grid = engine.grid(w["plan"], w["obs"].uvw_m, w["vis"], **w["aterm_kwargs"])
    assert np.array_equal(grid, reference["grid"])
    assert "htod" in engine.last_telemetry.stages
    predicted = engine.degrid(
        w["plan"], w["obs"].uvw_m, w["model"], **w["aterm_kwargs"]
    )
    assert np.array_equal(predicted, reference["degrid"])


@pytest.mark.parametrize(("n_buffers", "workers"), SCHEDULES)
def test_store_source_schedule_bit_identical(
    conformance, flagged_store, n_buffers, workers
):
    case = _case(conformance, "flagged")
    w = conformance.workload(case)
    engine = StreamingIDG(w["idg"], RuntimeConfig(n_buffers=n_buffers, workers=workers))
    grid = engine.grid(w["plan"], w["obs"].uvw_m, flagged_store.source())
    assert np.array_equal(grid, conformance.reference(case)["grid"])
    assert engine.last_telemetry.stages[:2] == ("splitter", "reader")
