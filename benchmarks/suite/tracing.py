"""Per-layer tracing from outside the program.

A traced run replaces the public entry points of each layer with timing
wrappers for the duration of :func:`instrument` and restores them on exit;
no file of the program changes.  The kernel backend of every
:class:`~repro.core.IDG` built while instrumented is wrapped in
:class:`TracedBackend`, so the six kernel entry points are timed whichever
executor calls them.  The processes executor runs its kernels in worker
processes, whose spans never reach this process: after each of its calls the
per-shard compute spans are read from its ``last_telemetry`` instead.

Spans carry name, start, end, parent, thread and run id, stay in memory, and
are written as a Chrome trace when the run ends.  A span opened on a pool
thread with nothing open on that thread is parented to the innermost span of
the thread that created the tracer (the executor call that queued the
work), so a layer's *self time* — its duration minus the union of its
children — is also defined across threads.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.perfmodel.opcount import adder_counts, degridder_counts, gridder_counts

#: Kernel backend entry point -> layer name.
KERNEL_LAYERS = {
    "grid_work_group": "gridder",
    "degrid_work_group": "degridder",
    "subgrids_to_fourier": "subgrid_fft",
    "subgrids_to_image": "subgrid_ifft",
    "add_subgrids": "adder",
    "split_subgrids": "splitter",
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 = root
    thread: str
    run: str
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Append-only span recorder; ``run`` labels the phase being traced."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self.run = "setup"
        self._ids = itertools.count(1)
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields ``(span id, args dict)``."""
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        args: dict[str, Any] = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id, args
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, name, start, end, parent,
                threading.current_thread().name, self.run, args,
            ))

    def add(self, name: str, start: float, end: float, parent: int, thread: str) -> None:
        """Record a span measured elsewhere (another process's telemetry)."""
        self.spans.append(Span(next(self._ids), name, start, end, parent, thread, self.run))

    def chrome_trace(self) -> dict[str, Any]:
        spans = list(self.spans)
        t0 = min((s.start for s in spans), default=0.0)
        tids = {name: tid for tid, name in enumerate(sorted({s.thread for s in spans}))}
        events: list[dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}
            for name, tid in tids.items()
        ]
        events += [
            {
                "name": s.name, "cat": s.run, "ph": "X", "pid": 1, "tid": tids[s.thread],
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "args": {"id": s.id, "parent": s.parent, "run": s.run, **s.args},
            }
            for s in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, default=float)


# ------------------------------------------------------------- wrapping


Annotate = Callable[[int, dict, Any, tuple, dict], None]


def traced(tracer: Tracer, layer: str, fn: Callable, annotate: Annotate | None = None) -> Callable:
    """``fn`` wrapped in a ``layer`` span while the tracer is enabled.

    ``annotate(span_id, args, result, call_args, call_kwargs)`` may attach
    counts to the span after the call returns.
    """

    @functools.wraps(fn)
    def wrapper(*call_args, **call_kwargs):
        if not tracer.enabled:
            return fn(*call_args, **call_kwargs)
        with tracer.span(layer) as (span_id, args):
            result = fn(*call_args, **call_kwargs)
            if annotate is not None:
                annotate(span_id, args, result, call_args, call_kwargs)
        return result

    return wrapper


class TracedBackend:
    """A kernel backend whose six entry points record layer spans."""

    def __init__(self, backend, tracer: Tracer) -> None:
        self._backend = backend
        for method, layer in KERNEL_LAYERS.items():
            # the (de)gridder draws its scratch from the calling thread's arena
            annotate = _arena_peak if layer in ("gridder", "degridder") else None
            setattr(self, method, traced(tracer, layer, getattr(backend, method), annotate))

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._backend, name)


def _with_aterms(call_args: tuple, call_kwargs: dict) -> bool:
    aterms = call_kwargs.get("aterms", call_args[4] if len(call_args) > 4 else None)
    fields = call_kwargs.get("aterm_fields")
    return fields is not None or (aterms is not None and not aterms.is_identity)


def _executor_annotator(tracer: Tracer, op: str, sharded: bool) -> Annotate:
    """Counts for one executor ``grid``/``degrid`` call: visibilities and
    operations from :mod:`repro.perfmodel.opcount`, computed adder and store
    bytes, and — for the processes executor — its per-shard compute spans."""
    from repro.data.store import ChunkedVisibilitySource

    def annotate(span_id, args, result, call_args, call_kwargs):
        engine, plan = call_args[0], call_args[1]
        with_aterms = _with_aterms(call_args, call_kwargs)
        counts = (gridder_counts if op == "grid" else degridder_counts)(plan, with_aterms)
        args[f"{op}_vis"] = counts.visibilities
        args[f"{op}_ops"] = counts.ops
        if op == "grid":
            args["adder_bytes"] = adder_counts(plan).bytes_device
            vis_in = call_args[3] if len(call_args) > 3 else call_kwargs.get("visibilities")
            if isinstance(vis_in, ChunkedVisibilitySource):
                args["store_bytes_read"] = vis_in.nbytes
        if sharded:
            args["n_shards"] = engine.config.n_procs
            for s in engine.last_telemetry.spans("shard_compute"):
                tracer.add("shard", s.start, s.end, span_id, s.worker)

    return annotate


def _arena_peak(span_id, args, result, call_args, call_kwargs) -> None:
    from repro.core.scratch import thread_arena

    args["arena_peak_bytes"] = thread_arena().stats().peak_nbytes


def _count(key: str, measure: Callable[[Any], float]) -> Annotate:
    def annotate(span_id, args, result, call_args, call_kwargs):
        args[key] = measure(result)

    return annotate


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from repro.calibration import selfcal
    from repro.core.pipeline import IDG
    from repro.data import store
    from repro.imaging import cycle, pipeline
    from repro.parallel.executor import ParallelIDG
    from repro.parallel.process import ProcessShardedIDG
    from repro.runtime.streaming import StreamingIDG

    undo: list[Callable[[], None]] = []

    def patch(owner, attr: str, replacement) -> None:
        own = isinstance(owner, type) and attr in vars(owner)
        original = getattr(owner, attr)
        if isinstance(owner, type) and not own:
            undo.append(lambda: delattr(owner, attr))
        else:
            undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(owner, attr: str, layer: str, annotate: Annotate | None = None) -> None:
        patch(owner, attr, traced(tracer, layer, getattr(owner, attr), annotate))

    idg_init = IDG.__init__

    def init(self, *args, **kwargs):
        idg_init(self, *args, **kwargs)
        self.backend = TracedBackend(self.backend, tracer)

    try:
        patch(IDG, "__init__", init)
        wrap(IDG, "make_plan", "plan", lambda sid, a, plan, ca, ck: a.update(
            n_subgrids=plan.n_subgrids, vis=plan.statistics.n_visibilities_gridded))
        wrap(IDG, "aterm_fields", "aterms", _count("n_fields", lambda r: len(r) if r else 0))
        for executor in (IDG, ParallelIDG, StreamingIDG, ProcessShardedIDG):
            sharded = executor is ProcessShardedIDG
            for op in ("grid", "degrid"):
                wrap(executor, op, "executor", _executor_annotator(tracer, op, sharded))
        for module in (cycle, pipeline):
            wrap(module, "dirty_image_from_grid", "grid_fft")
            wrap(module, "model_image_to_grid", "grid_fft")
        # the w-stacked processors transform their w-layer grids directly
        wrap(pipeline, "centered_fft2", "grid_fft")
        wrap(pipeline, "centered_ifft2", "grid_fft")
        for module in (cycle, selfcal):
            wrap(module, "hogbom_clean", "clean", _count("components", lambda r: len(r.components)))
        wrap(selfcal, "stefcal", "stefcal",
             _count("iterations", lambda r: int(np.sum(r.n_iterations))))
        for processor in (pipeline.TwoDimFTProcessor, pipeline.WStackFTProcessor):
            wrap(processor, "invert", "ftproc")
            wrap(processor, "predict", "ftproc")
        wrap(store, "open_store", "store.open")
        wrap(store.DatasetWriter, "finalize", "store.finalize",
             _count("store_bytes_written", lambda r: r.visibility_nbytes))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


# ------------------------------------------------------------- analysis


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _union(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


#: Span counts that describe a call rather than add up across calls.
_NOT_ADDITIVE = frozenset({"arena_peak_bytes", "n_shards"})


@dataclass
class LayerTotals:
    busy_s: float = 0.0  # outermost spans of the layer (nested calls counted once)
    self_s: float = 0.0
    calls: float = 0.0
    args: dict[str, float] = field(default_factory=dict)


def layer_totals(spans: list[Span], runs: set[str]) -> dict[str, LayerTotals]:
    """Per-layer busy and self time, calls and summed span counts over the
    spans of the given runs."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    table: dict[str, LayerTotals] = {}
    for s in spans:
        if s.run not in runs:
            continue
        t = table.setdefault(s.name, LayerTotals())
        t.self_s += selfs[s.id]
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == s.name:
            continue
        t.busy_s += s.duration
        t.calls += 1
        for key, value in s.args.items():
            if key not in _NOT_ADDITIVE:
                t.args[key] = t.args.get(key, 0.0) + float(value)
    return table


def per_unit(spans: list[Span], setup_runs: set[str], iter_runs: set[str]) -> dict[str, LayerTotals]:
    """Layer totals per set-up plus per timed iteration: what one set-up and
    one iteration cost in each layer."""
    out: dict[str, LayerTotals] = {}
    for runs in (setup_runs, iter_runs):
        if not runs:
            continue
        scale = 1.0 / len(runs)
        for name, t in layer_totals(spans, runs).items():
            u = out.setdefault(name, LayerTotals())
            u.busy_s += t.busy_s * scale
            u.self_s += t.self_s * scale
            u.calls += t.calls * scale
            for key, value in t.args.items():
                u.args[key] = u.args.get(key, 0.0) + value * scale
    return out


def shard_imbalance(spans: list[Span], runs: set[str]) -> float:
    """Busiest shard's compute over the mean shard's (0 without shards);
    a shard that received no work counts with zero."""
    busy: dict[str, float] = {}
    n_shards = 0
    for s in spans:
        if s.run not in runs:
            continue
        if s.name == "shard":
            busy[s.thread] = busy.get(s.thread, 0.0) + s.duration
        n_shards = max(n_shards, s.args.get("n_shards", 0))
    if not busy:
        return 0.0
    return max(busy.values()) * max(n_shards, len(busy)) / sum(busy.values())


def coverage(spans: list[Span], iter_runs: set[str]) -> float:
    """Share of timed-iteration wall time covered by layer spans."""
    selfs = self_times(spans)
    total = covered = 0.0
    for s in spans:
        if s.name == "iteration" and s.run in iter_runs:
            total += s.duration
            covered += s.duration - selfs[s.id]
    return covered / total if total else 0.0
