"""Out-of-core conformance: chunked-store inputs are bit-identical to the
in-memory corpus runs on every executor.

The corpus cases (plain, w-offset, A-terms, wideband, flagged) are written
to schema-v2 chunked stores in small time slabs; each executor then grids
from ``store.source()`` — blocks streamed from the memory map, flags masked
lazily per block — and must reproduce the in-memory serial reference
**bit-identically** (``np.array_equal``, no tolerance).  Degrid writes its
prediction straight into a zeroed store map through ``out=`` and must match
the same way.  The streaming path additionally survives a mid-run crash and
resumes from its checkpoint without changing a single bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.store import DatasetWriter, write_store
from repro.imaging.pipeline import make_engine
from repro.runtime import (
    CheckpointConfig,
    FaultPlan,
    InjectedCrash,
    RuntimeConfig,
    StreamingIDG,
    load_checkpoint,
)

EXECUTORS = ("serial", "threads", "streaming", "processes")

#: Small on purpose: slabs must straddle work-item time ranges so the
#: store's chunking cannot accidentally align with the plan's.
TIME_CHUNK = 2


@pytest.fixture(scope="session")
def store_for(conformance, tmp_path_factory):
    """Builds (and caches) the chunked store of a corpus case."""
    root = tmp_path_factory.mktemp("conformance-stores")
    stores = {}

    def build(case):
        if case.name not in stores:
            w = conformance.workload(case)
            obs, vis = w["obs"], w["vis"]
            with DatasetWriter(
                root / f"{case.name}.store",
                n_baselines=obs.array.n_baselines,
                n_times=case.n_times,
                n_channels=case.n_channels,
            ) as writer:
                writer.set_frequencies(obs.frequencies_hz)
                writer.set_baselines(obs.array.baselines())
                for t0 in range(0, case.n_times, TIME_CHUNK):
                    t1 = min(t0 + TIME_CHUNK, case.n_times)
                    writer.write_times(
                        t0, obs.uvw_m[:, t0:t1], vis[:, t0:t1],
                        flags=None if w["flags"] is None
                        else w["flags"][:, t0:t1],
                    )
                stores[case.name] = writer.finalize()
        return stores[case.name]

    return build


def _engine(executor, idg):
    return make_engine(idg, executor, n_workers=2, n_buffers=3, start_method="fork")


@pytest.mark.parametrize("executor", EXECUTORS)
def test_grid_from_store_bit_identical(conformance, conformance_case,
                                       store_for, executor):
    w = conformance.workload(conformance_case)
    store = store_for(conformance_case)
    reference = conformance.reference(conformance_case)["grid"]
    engine = _engine(executor, w["idg"])
    # No eager flags argument: the store carries the case's flags and the
    # source masks them lazily per block.
    result = engine.grid(
        w["plan"], w["obs"].uvw_m, store.source(), aterms=w["aterms"]
    )
    assert result.dtype == reference.dtype
    assert np.array_equal(result, reference)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_degrid_into_store_bit_identical(conformance, conformance_case,
                                         store_for, executor, tmp_path):
    w = conformance.workload(conformance_case)
    obs = w["obs"]
    reference = conformance.reference(conformance_case)["degrid"]
    engine = _engine(executor, w["idg"])
    with DatasetWriter(
        tmp_path / f"pred-{executor}.store",
        n_baselines=obs.array.n_baselines,
        n_times=conformance_case.n_times,
        n_channels=conformance_case.n_channels,
    ) as writer:
        writer.set_frequencies(obs.frequencies_hz)
        writer.set_baselines(obs.array.baselines())
        writer.uvw_m[:] = obs.uvw_m
        writer.mark_written(0, conformance_case.n_times)
        result = engine.degrid(
            w["plan"], obs.uvw_m, w["model"], aterms=w["aterms"],
            out=writer.visibilities,
        )
        assert result is writer.visibilities
        store = writer.finalize()
    assert np.array_equal(store.visibilities[:], reference)


def test_streaming_kill_and_resume_from_store(conformance, store_for,
                                              tmp_path):
    """Crash the streaming reader pipeline mid-run while gridding from the
    store, resume from the surviving checkpoint: bit-identical final grid."""
    case = next(c for c in conformance.cases if c.name == "baseline")
    w = conformance.workload(case)
    store = store_for(case)
    reference = conformance.reference(case)["grid"]
    n_groups = len(list(w["plan"].work_groups(w["idg"].config.work_group_size)))
    assert n_groups >= 3, "corpus case too small for a mid-run crash"

    ckpt = tmp_path / "oc-crash.npz"
    crash = FaultPlan.single("gridder", n_groups - 1, kind="crash")
    engine = StreamingIDG(w["idg"], RuntimeConfig(n_buffers=2))
    with pytest.raises(InjectedCrash):
        engine.grid(w["plan"], w["obs"].uvw_m, store.source(),
                    checkpoint=CheckpointConfig(path=str(ckpt), interval=1),
                    faults=crash)

    snap = load_checkpoint(ckpt)
    assert 0 < len(snap.completed_set) < n_groups

    resume = StreamingIDG(w["idg"], RuntimeConfig(n_buffers=2))
    resumed = resume.grid(w["plan"], w["obs"].uvw_m, store.source(),
                          checkpoint=CheckpointConfig(resume_from=str(ckpt)))
    assert np.array_equal(resumed, reference)
    # only the remaining groups were re-read and re-gridded on resume
    assert len(resume.last_telemetry.spans("reader")) == (
        n_groups - len(snap.completed_set)
    )


def test_store_equals_npz_dataset_roundtrip(conformance, store_for, tmp_path):
    """The store holds byte-identical columns to the in-memory workload (the
    v1 archive's contract carried over to v2)."""
    case = next(c for c in conformance.cases if c.name == "flagged")
    w = conformance.workload(case)
    store = store_for(case)
    np.testing.assert_array_equal(store.visibilities[:], w["vis"])
    np.testing.assert_array_equal(store.flags[:], w["flags"])
    np.testing.assert_array_equal(store.uvw_m[:], w["obs"].uvw_m)
    # and survives a v2 -> v2 copy through the writer API
    copy = write_store(store.as_dataset(), tmp_path / "copy.store",
                       time_chunk=3)
    np.testing.assert_array_equal(copy.visibilities[:], w["vis"])
    assert copy.manifest.content_hash == store.manifest.content_hash
