"""Built-in telemetry for every executor (spans, gauges, counters).

Each grid or degrid call's :class:`~repro.runtime.program.WorkGroupProgram`
owns one :class:`Telemetry`: the thread that runs a stage records a
:class:`Span` per work group, and the program records the memory gauges and
the throughput counter (visibilities retired).  The streaming executor adds
its ``in_flight`` gauge (work groups admitted and not yet retired).  The
collected events export to the Chrome trace-event JSON format, so a
measured run opens directly in ``chrome://tracing`` / Perfetto next to the
*predicted* schedule from
:mod:`repro.perfmodel.streams` — the Fig 7 comparison, but with real time on
the x axis.

The recorder is thread-safe and append-only; nothing here is on a kernel hot
path (one span per work *group*, not per visibility).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Any


def monotonic() -> float:
    """The runtime's clock: monotonic seconds (``time.perf_counter``)."""
    return time.perf_counter()


@dataclass(frozen=True)
class Span:
    """One stage execution of one work item on one worker thread."""

    stage: str
    item: int
    worker: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class GaugeSample:
    """An instantaneous value of a named gauge (in-flight, RSS)."""

    name: str
    time: float
    value: float


class Telemetry:
    """Thread-safe recorder for one pipeline run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._gauges: list[GaugeSample] = []
        self._counters: dict[str, float] = {}
        self._stage_order: list[str] = []
        self.t0 = monotonic()

    # ------------------------------------------------------------ recording

    def record_span(
        self, stage: str, item: int, start: float, end: float, worker: str = ""
    ) -> None:
        with self._lock:
            if stage not in self._stage_order:
                self._stage_order.append(stage)
            self._spans.append(Span(stage, item, worker or stage, start, end))

    def record_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges.append(GaugeSample(name, monotonic(), value))

    def add_counter(self, name: str, delta: float) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + delta

    # ------------------------------------------------------------- querying

    @property
    def stages(self) -> tuple[str, ...]:
        """Stage names in first-execution order."""
        with self._lock:
            return tuple(self._stage_order)

    @property
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def spans(self, stage: str | None = None) -> tuple[Span, ...]:
        with self._lock:
            spans = tuple(self._spans)
        if stage is None:
            return spans
        return tuple(s for s in spans if s.stage == stage)

    def stage_durations(self, stage: str) -> list[float]:
        """Per-item busy seconds of one stage, ordered by item index."""
        return [s.duration for s in sorted(self.spans(stage), key=lambda s: s.item)]

    def stage_busy_seconds(self, stage: str) -> float:
        return sum(s.duration for s in self.spans(stage))

    def makespan(self) -> float:
        """Wall-clock seconds from the first span start to the last span end."""
        spans = self.spans()
        if not spans:
            return 0.0
        return max(s.end for s in spans) - min(s.start for s in spans)

    def throughput(self, counter: str = "visibilities") -> float:
        """Counter units per second over the makespan (0 if unmeasured)."""
        span = self.makespan()
        if span <= 0.0:
            return 0.0
        return self.counters.get(counter, 0.0) / span

    # ------------------------------------------------------------ exporting

    def chrome_trace(self) -> dict[str, Any]:
        """The run as a Chrome trace-event document (``chrome://tracing``).

        Stage spans become complete (``"ph": "X"``) events, one trace *tid*
        per worker thread; gauges become counter (``"ph": "C"``) events.
        Timestamps are microseconds relative to the telemetry epoch.
        """
        with self._lock:
            spans = list(self._spans)
            gauges = list(self._gauges)
            counters = dict(self._counters)
        workers = sorted({s.worker for s in spans})
        tids = {worker: tid for tid, worker in enumerate(workers)}
        events: list[dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": worker},
            }
            for worker, tid in tids.items()
        ]
        for s in spans:
            events.append(
                {
                    "name": s.stage,
                    "cat": "stage",
                    "ph": "X",
                    "pid": 1,
                    "tid": tids[s.worker],
                    "ts": (s.start - self.t0) * 1e6,
                    "dur": s.duration * 1e6,
                    "args": {"item": s.item},
                }
            )
        for g in gauges:
            events.append(
                {
                    "name": g.name,
                    "cat": "gauge",
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "ts": (g.time - self.t0) * 1e6,
                    "args": {"value": g.value},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"counters": counters},
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` as JSON (open in ``chrome://tracing``)."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)

    def summary(self) -> str:
        """Human-readable per-stage digest of the run."""
        lines = [f"makespan {self.makespan() * 1e3:9.2f} ms"]
        rate = self.throughput()
        if rate > 0.0:
            lines[0] += f"   {rate / 1e6:.3f} MVis/s"
        makespan = self.makespan() or 1.0
        for stage in self.stages:
            spans = self.spans(stage)
            busy = self.stage_busy_seconds(stage)
            lines.append(
                f"  {stage:<14} {len(spans):4d} items  busy {busy * 1e3:9.2f} ms"
                f"  ({100.0 * busy / makespan:5.1f}% of makespan)"
            )
        return "\n".join(lines)
