"""Memory gauges: rss/peak-rss/arena sampling and their export as Chrome
trace counter events."""

import mmap

import numpy as np

from repro.runtime import peak_rss_bytes, record_memory_gauges, rss_bytes
from repro.runtime.telemetry import Telemetry


def test_rss_probes_report_plausible_values():
    rss = rss_bytes()
    peak = peak_rss_bytes()
    # A running CPython interpreter holds at least a few MB and the peak
    # high-water mark can never undercut current residency (modulo the
    # probes reading /proc and getrusage at slightly different instants).
    assert rss > 1 << 20
    assert peak > 1 << 20
    assert peak >= rss // 2


def test_rss_tracks_a_large_allocation():
    # A fresh anonymous mapping with every page written: a heap allocation
    # can be served from pages an earlier test left resident, and then RSS
    # does not grow at all.
    before = rss_bytes()
    ballast = mmap.mmap(-1, 32 << 20)  # 32 MB
    np.frombuffer(ballast, dtype=np.uint8)[:] = 1
    grown = rss_bytes()
    assert grown - before > 16 << 20
    ballast.close()


def test_record_memory_gauges_exports_counter_events():
    tm = Telemetry()
    record_memory_gauges(tm)
    record_memory_gauges(tm)  # gauges are time series, not single samples
    trace = tm.chrome_trace()
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    by_name = {}
    for event in counters:
        by_name.setdefault(event["name"], []).append(event)
    for name in ("rss_bytes", "peak_rss_bytes", "arena_bytes"):
        assert len(by_name[name]) == 2, f"gauge {name} missing from trace"
        for event in by_name[name]:
            (value,) = event["args"].values()
            assert value >= 0


def test_record_memory_gauges_tolerates_no_telemetry():
    record_memory_gauges(None)  # must be a no-op, not an AttributeError
