"""ProcessShardedIDG: config validation, shard map, telemetry, failures.

Cross-executor bit-exactness is pinned by ``test_executor_conformance.py``
and checkpoint/resume by ``tests/runtime/test_checkpoint.py`` (its
``[processes]`` cells); this module covers the process executor's own
contract — the LPT shard map, per-shard telemetry, the fail-fast error text
and spawn-method support.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.parallel.executor import WorkGroupError
from repro.parallel.process import ProcessConfig, ProcessShardedIDG


@pytest.fixture(scope="module")
def baseline(conformance):
    """The conformance corpus's baseline workload plus serial references."""
    case = next(c for c in conformance.cases if c.name == "baseline")
    w = conformance.workload(case)
    ref = conformance.reference(case)
    return {**w, "ref_grid": ref["grid"], "ref_degrid": ref["degrid"]}


def _engine(baseline, **kwargs):
    kwargs.setdefault("n_procs", 2)
    kwargs.setdefault("start_method", "fork")
    return ProcessShardedIDG(baseline["idg"], ProcessConfig(**kwargs))


# ------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError):
        ProcessConfig(n_procs=0)
    with pytest.raises(ValueError):
        ProcessConfig(start_method="bogus")
    with pytest.raises(ValueError):
        ProcessConfig(poll_interval_s=-0.1)
    with pytest.raises(ValueError):
        ProcessConfig(emulate_compute_s=-1.0)


# -------------------------------------------------------------- bit-exactness


def test_three_shards_bit_exact(baseline):
    """More shards than the conformance default; grid and degrid both."""
    engine = _engine(baseline, n_procs=3)
    obs = baseline["obs"]
    grid = engine.grid(baseline["plan"], obs.uvw_m, baseline["vis"])
    assert np.array_equal(grid, baseline["ref_grid"])
    degridded = engine.degrid(baseline["plan"], obs.uvw_m, baseline["model"])
    assert np.array_equal(degridded, baseline["ref_degrid"])


def test_spawn_start_method_bit_exact(baseline):
    """The portable default start method round-trips the shard task through
    pickle (fresh interpreters, nothing inherited by fork)."""
    engine = _engine(baseline, start_method="spawn")
    obs = baseline["obs"]
    grid = engine.grid(baseline["plan"], obs.uvw_m, baseline["vis"])
    assert np.array_equal(grid, baseline["ref_grid"])


# ------------------------------------------------- assignment and telemetry


def test_assignment_covers_every_group_once(baseline):
    engine = _engine(baseline, n_procs=3)
    obs = baseline["obs"]
    engine.grid(baseline["plan"], obs.uvw_m, baseline["vis"])
    assignment = engine.last_assignment
    assert assignment is not None and assignment.n_shards == 3
    n_groups = len(list(baseline["plan"].work_groups(8)))
    assert assignment.n_groups == n_groups
    all_groups = [g for s in range(3) for g in assignment.groups_for(s)]
    assert sorted(all_groups) == list(range(n_groups))
    assert max(assignment.loads()) <= assignment.balance_bound()


def test_per_shard_telemetry(baseline):
    engine = _engine(baseline, n_procs=2)
    obs = baseline["obs"]
    engine.grid(baseline["plan"], obs.uvw_m, baseline["vis"])
    telemetry = engine.last_telemetry
    assert telemetry is not None
    n_groups = len(list(baseline["plan"].work_groups(8)))
    # every work group produced one worker-side compute span...
    assert len(telemetry.spans("shard_compute")) == n_groups
    # ...attributed to a shard whose group counter adds up
    shard_groups = sum(
        int(telemetry.counters.get(f"shard{k}.groups", 0)) for k in range(2)
    )
    assert shard_groups == n_groups
    # and the parent retired every group through the adder, in plan order
    assert len(telemetry.spans("adder")) == n_groups
    assert telemetry.counters["visibilities"] > 0


# ------------------------------------------------------------------ failures


def test_failfast_error_names_group_and_shard(baseline, monkeypatch):
    """Without a fault-tolerance layer, a worker-side failure aborts the run
    with the plan range and shard in the message (fork inherits the patch)."""
    backend_cls = type(baseline["idg"].backend)
    real = backend_cls.grid_work_group

    def failing(self, plan, start, stop, *args, **kwargs):
        if start >= 8:
            raise RuntimeError("injected kernel failure")
        return real(self, plan, start, stop, *args, **kwargs)

    monkeypatch.setattr(backend_cls, "grid_work_group", failing)
    engine = _engine(baseline)
    obs = baseline["obs"]
    with pytest.raises(WorkGroupError) as err:
        engine.grid(baseline["plan"], obs.uvw_m, baseline["vis"])
    assert re.search(
        r"work group \d+ \(plan items \[\d+, \d+\)\) failed in shard \d",
        str(err.value),
    )
    assert "injected kernel failure" in str(err.value)
