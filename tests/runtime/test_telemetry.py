"""Telemetry recorder: spans, counters, summaries, Chrome trace export."""

import json

from repro.runtime.telemetry import Telemetry


def _stocked() -> Telemetry:
    tm = Telemetry()
    t0 = tm.t0
    tm.record_span("gridder", 0, t0 + 0.00, t0 + 0.10, "gridder-0")
    tm.record_span("gridder", 1, t0 + 0.10, t0 + 0.25, "gridder-0")
    tm.record_span("fft", 0, t0 + 0.10, t0 + 0.12, "fft-0")
    tm.record_gauge("in_flight", 1)
    tm.add_counter("visibilities", 1000)
    return tm


def test_span_queries():
    tm = _stocked()
    assert tm.stages == ("gridder", "fft")
    assert len(tm.spans()) == 3
    assert len(tm.spans("gridder")) == 2
    assert tm.stage_durations("gridder") == [
        tm.spans("gridder")[0].duration, tm.spans("gridder")[1].duration
    ]
    assert abs(tm.stage_busy_seconds("gridder") - 0.25) < 1e-9
    assert abs(tm.makespan() - 0.25) < 1e-9


def test_throughput_counter():
    tm = _stocked()
    assert abs(tm.throughput() - 1000 / 0.25) < 1e-6
    assert Telemetry().throughput() == 0.0


def test_chrome_trace_round_trips():
    tm = _stocked()
    doc = json.loads(json.dumps(tm.chrome_trace()))
    assert doc["displayTimeUnit"] == "ms"
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"gridder", "fft"}
    # timestamps are microseconds relative to the epoch, durations positive
    assert all(e["dur"] > 0 for e in spans)
    first = min(spans, key=lambda e: e["ts"])
    assert abs(first["ts"]) < 1.0
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters and counters[0]["name"] == "in_flight"
    metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {e["args"]["name"] for e in metadata} == {"gridder-0", "fft-0"}
    assert doc["otherData"] == {"counters": {"visibilities": 1000}}


def test_write_chrome_trace(tmp_path):
    tm = _stocked()
    path = tmp_path / "trace.json"
    tm.write_chrome_trace(str(path))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]


def test_summary_mentions_stages():
    text = _stocked().summary()
    assert "gridder" in text
    assert "fft" in text
    assert "MVis/s" in text


def test_empty_telemetry():
    tm = Telemetry()
    assert tm.makespan() == 0.0
    assert tm.stages == ()
    assert tm.chrome_trace()["traceEvents"] == []
    assert "makespan" in tm.summary()
