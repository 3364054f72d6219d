#!/usr/bin/env python3
"""Compare two result files of ``run.py --out`` against the benchmark's bounds.

Usage (from the repository root)::

    python3 benchmarks/suite/compare.py BASE.json NEW.json

For every workload present in both files, prints one row with a verdict for
each end-to-end metric of ``BENCHMARK.json``:

* ``improved``   — NEW wins at least nine tenths of the runs paired by seed
  (ties count for neither) and its median beats BASE's by more than BASE's
  own quartile spread; or every NEW run beats every BASE run;
* ``worse``      — NEW's median is worse than BASE's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, either side) is wider than the bound, or a side has fewer than
  two runs, so "unchanged" cannot be told from noise;
* ``unchanged``  — otherwise.

Each cell also gives the signed change of the median.  Exits 1 when any
metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def win_share(base: dict[int, float], new: dict[int, float], sign: float) -> float:
    """Share of seed-paired runs in which NEW is better (all cross pairs
    when the two files ran different seeds)."""
    common = sorted(set(base) & set(new))
    pairs = (
        [(base[s], new[s]) for s in common]
        if common
        else [(b, n) for b in base.values() for n in new.values()]
    )
    return sum(sign * (n - b) < 0 for b, n in pairs) / len(pairs)


def verdict(base: dict[int, float], new: dict[int, float], bound: float, lower_is_better: bool) -> tuple[str, float]:
    """``(verdict, change)`` for one metric; values keyed by seed and the
    change signed so that positive is worse."""
    sign = 1.0 if lower_is_better else -1.0
    b, n = list(base.values()), list(new.values())
    mb, mn = statistics.median(b), statistics.median(n)
    change = sign * (mn - mb) / abs(mb)
    if len(b) < 2 or len(n) < 2:
        return "unresolved", change
    spread = max(quartile_spread(b), quartile_spread(n)) / abs(mb)
    every_run_better = all(sign * (y - x) < 0 for x in b for y in n)
    clear_gain = change < 0 and abs(mn - mb) > quartile_spread(b) and win_share(base, new, sign) >= 0.9
    if every_run_better or (clear_gain and spread <= bound):
        return "improved", change
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    return "unchanged", change


def load(path: str) -> dict[str, dict[str, dict[int, float]]]:
    """``workload -> metric -> seed -> value`` over the untraced runs."""
    out: dict[str, dict[str, dict[int, float]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            out.setdefault(run["workload"], {}).setdefault(name, {})[run["seed"]] = metric["value"]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(argv[0]), load(argv[1])
    metrics = spec["end_to_end"]
    print("workload".ljust(18) + "".join(m["name"].ljust(26) for m in metrics))
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"] if w["name"] in base and w["name"] in new]:
        cells = []
        for m in metrics:
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if not b or not n:
                cells.append("missing")
                continue
            result, change = verdict(b, n, m["bound"], m["better"] == "lower")
            any_worse |= result == "worse"
            cells.append(f"{result} ({100 * change:+.1f}%)")
        print(workload.ljust(18) + "".join(c.ljust(26) for c in cells))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
