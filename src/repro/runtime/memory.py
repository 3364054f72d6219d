"""Process-memory measurement for flat-RSS telemetry.

Out-of-core runs claim bounded memory; these helpers make the claim
measurable instead of asserted.  :func:`rss_bytes` reads the *current*
resident set (``/proc/self/statm``), :func:`peak_rss_bytes` the kernel's
high-water mark (``getrusage(RUSAGE_SELF).ru_maxrss`` — note this never
decreases, so benchmarks comparing paths must isolate each in its own
process), and :func:`record_memory_gauges` snapshots both plus the scratch
arena footprint into a :class:`repro.runtime.telemetry.Telemetry` as
gauges, which the Chrome-trace export renders as counter tracks alongside
the stage spans.
"""

from __future__ import annotations

import os

from repro.core.scratch import total_arena_nbytes

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Current resident set size of this process in bytes (0 if unknown)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return 0


def peak_rss_bytes() -> int:
    """Peak (high-water) resident set size in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux; the value only ever grows over a
    process's lifetime, so a "peak under budget" check is only meaningful
    when the measured workload runs in its own process.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss_kb) * 1024


def record_memory_gauges(telemetry) -> None:
    """Record rss / peak-rss / arena gauges into ``telemetry``."""
    telemetry.record_gauge("rss_bytes", float(rss_bytes()))
    telemetry.record_gauge("peak_rss_bytes", float(peak_rss_bytes()))
    telemetry.record_gauge("arena_bytes", float(total_arena_nbytes()))
