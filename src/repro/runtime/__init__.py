"""Streaming pipeline runtime (executable Fig 7).

An executable stage-graph runtime for the IDG pipeline: producer/consumer
stages connected by bounded channels with real backpressure, a credit gate
bounding the work groups in flight (``n_buffers``), built-in telemetry with a
Chrome-trace exporter, and graceful error propagation.

* :class:`StreamingIDG` / :class:`RuntimeConfig` — the drop-in pipelined
  ``grid``/``degrid``;
* :class:`StageGraph` — the generic pipeline executor;
* :class:`Channel` / :class:`CreditGate` — the bounded-buffer primitives;
* :class:`Telemetry` — spans, gauges, counters, ``chrome://tracing`` export.

Fault tolerance (DESIGN.md §11):

* :class:`RetryPolicy` / :class:`WorkGroupRunner` — the failure contract
  around per-work-group stage calls: fail-fast :class:`WorkGroupError` by
  default, bounded-budget retry with exponential backoff when armed;
* :class:`DeadLetter` / :class:`FaultReport` / :class:`Quarantined` —
  quarantine accounting when a group exhausts its budget;
* :class:`FaultSpec` / :class:`FaultPlan` — deterministic fault injection
  for tests and ``benchmarks/bench_fault_recovery.py``;
* :func:`save_checkpoint` / :func:`load_checkpoint` /
  :func:`plan_signature` — atomic grid snapshots for bit-exact resume.
"""

from repro.runtime.checkpoint import (
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
from repro.runtime.graph import StageGraph
from repro.runtime.memory import peak_rss_bytes, record_memory_gauges, rss_bytes
from repro.runtime.queues import Channel, ChannelClosed, CreditGate, PipelineAborted
from repro.runtime.recovery import (
    DeadLetter,
    FaultReport,
    Quarantined,
    RetryPolicy,
    WorkGroupError,
    WorkGroupRunner,
    group_visibility_count,
)
from repro.runtime.streaming import RuntimeConfig, StreamingIDG, modeled_schedule_jobs
from repro.runtime.telemetry import GaugeSample, QueueStats, Span, Telemetry

__all__ = [
    "Channel",
    "ChannelClosed",
    "CorruptDataError",
    "CreditGate",
    "DeadLetter",
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "GaugeSample",
    "GridCheckpoint",
    "InjectedCrash",
    "InjectedFault",
    "PipelineAborted",
    "QueueStats",
    "Quarantined",
    "RetryPolicy",
    "RuntimeConfig",
    "Span",
    "StageGraph",
    "StreamingIDG",
    "Telemetry",
    "WorkGroupError",
    "WorkGroupRunner",
    "group_visibility_count",
    "load_checkpoint",
    "modeled_schedule_jobs",
    "peak_rss_bytes",
    "plan_signature",
    "record_memory_gauges",
    "rss_bytes",
    "save_checkpoint",
]
