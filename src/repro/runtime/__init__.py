"""Streaming pipeline runtime (executable Fig 7).

An executable runtime for the IDG pipeline: an admission window of
``n_buffers`` work groups, each group's stage chain on one pool worker,
in-order retirement on the calling thread, built-in telemetry with a
Chrome-trace exporter, and graceful error propagation.

* :class:`StreamingIDG` / :class:`RuntimeConfig` — the drop-in pipelined
  ``grid``/``degrid``;
* :class:`Telemetry` — spans, gauges, counters, ``chrome://tracing`` export.

Fault tolerance (DESIGN.md §11):

* :class:`RetryPolicy` / :class:`WorkGroupRunner` — the failure contract
  around per-work-group stage calls: fail-fast :class:`WorkGroupError` by
  default, bounded-budget retry with exponential backoff when armed;
* :class:`DeadLetter` / :class:`FaultReport` / :class:`Quarantined` —
  quarantine accounting when a group exhausts its budget;
* :class:`FaultSpec` / :class:`FaultPlan` — deterministic fault injection
  for tests and ``benchmarks/bench_fault_recovery.py``;
* :class:`CheckpointConfig` — the per-call ``checkpoint=`` setting of every
  executor's ``grid``; :func:`save_checkpoint` / :func:`load_checkpoint` /
  :func:`plan_signature` — atomic grid snapshots for bit-exact resume.
"""

from repro.runtime.checkpoint import (
    CheckpointConfig,
    GridCheckpoint,
    load_checkpoint,
    plan_signature,
    save_checkpoint,
)
from repro.runtime.faults import (
    CorruptDataError,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
)
from repro.runtime.memory import peak_rss_bytes, record_memory_gauges, rss_bytes
from repro.runtime.recovery import (
    DeadLetter,
    FaultReport,
    Quarantined,
    RetryPolicy,
    WorkGroupError,
    WorkGroupRunner,
)
from repro.runtime.streaming import RuntimeConfig, StreamingIDG, modeled_schedule_jobs
from repro.runtime.telemetry import GaugeSample, Span, Telemetry

__all__ = [
    "CheckpointConfig",
    "CorruptDataError",
    "DeadLetter",
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "GaugeSample",
    "GridCheckpoint",
    "InjectedCrash",
    "InjectedFault",
    "Quarantined",
    "RetryPolicy",
    "RuntimeConfig",
    "Span",
    "StreamingIDG",
    "Telemetry",
    "WorkGroupError",
    "WorkGroupRunner",
    "load_checkpoint",
    "modeled_schedule_jobs",
    "peak_rss_bytes",
    "plan_signature",
    "record_memory_gauges",
    "rss_bytes",
    "save_checkpoint",
]
