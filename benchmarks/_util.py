"""Shared ASCII rendering for the figure benchmarks.

Output goes both to stdout (visible with ``pytest -s``) and, because pytest
captures stdout by default, to ``benchmarks/results/<slug>.txt`` so every
figure's series survives a normal ``pytest benchmarks/ --benchmark-only``
run.
"""

from __future__ import annotations

import pathlib
import re
from typing import Any, Callable

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def print_series(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Uniform ASCII rendering for all figure benchmarks (no matplotlib in
    this environment; EXPERIMENTS.md captures the same numbers)."""
    lines = [f"=== {title} ==="]
    widths = [max(len(h), 12) for h in headers]
    lines.append("  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        cells = []
        for value, w in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:.4g}".rjust(w))
            else:
                cells.append(str(value).rjust(w))
        lines.append("  " + "  ".join(cells))
    text = "\n".join(lines)
    print("\n" + text)
    if title:
        slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")[:60]
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(RESULTS_DIR / f"{slug}.txt", "w") as fh:
            fh.write(text + "\n")


def interleaved_rounds(
    measures: dict[str, Callable[[], Any]], rounds: int
) -> dict[str, list[Any]]:
    """Run every ``measures[name]()`` once per round for ``rounds`` rounds,
    in dict order on even rounds and reversed on odd ones, so a drift of the
    host within a round falls on each mode from both sides.  Returns
    ``{name: [result of round 0, round 1, ...]}``."""
    names = list(measures)
    results: dict[str, list[Any]] = {name: [] for name in names}
    for k in range(rounds):
        for name in names if k % 2 == 0 else names[::-1]:
            results[name].append(measures[name]())
    return results


def round_ratios(samples: dict[str, list[float]], base: str) -> dict[str, list[float]]:
    """Per-round ratio of every mode's sample to ``base``'s in the same
    round."""
    return {
        name: [x / b for x, b in zip(values, samples[base])]
        for name, values in samples.items()
    }
