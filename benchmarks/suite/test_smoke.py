"""Smoke test of the benchmark suite: every workload at a tiny size.

Not part of tier-1; run with ``PYTHONPATH=src python -m pytest benchmarks/suite``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(SUITE))
from compare import verdict  # noqa: E402


def run_suite(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"),
         "--size", "smoke", "--seconds", "0.5", *args],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_prints_every_metric_and_passes_its_checks(trace, kind):
    proc = run_suite("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 4 * (7 if trace == "1" else 4)
    for workload in SPEC["workloads"]:
        tag = f"[{workload['name']} seed=0{' trace' if trace == '1' else ''}]"
        assert any(line.startswith(f"{tag} check ") for line in lines)
        assert not any(line.startswith(tag) and line.endswith(" FAIL") for line in lines)
        for metric in SPEC[kind]:
            printed = f"{tag} {metric['name']} = "
            assert any(
                line.startswith(printed) and line.endswith(f" {metric['unit']}")
                for line in lines
            ), printed
            key = f"{workload['name']}/0/{metric['name']}"
            assert summary["metrics"][key]["unit"] == metric["unit"]


def test_single_workload_line_has_exactly_the_end_to_end_metrics():
    proc = run_suite("--workload", SPEC["workloads"][0]["name"], "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = run_suite("--workload", SPEC["workloads"][0]["name"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = {seed: 1.0 + 0.01 * seed for seed in range(5)}
    assert verdict(base, base, 0.1, True)[0] == "unchanged"
    assert verdict(base, {s: 1.5 * v for s, v in base.items()}, 0.1, True)[0] == "worse"
    assert verdict(base, {s: 0.5 * v for s, v in base.items()}, 0.1, True)[0] == "improved"
    assert verdict(base, {s: 0.5 * v for s, v in base.items()}, 0.1, False)[0] == "worse"
    noisy = {seed: 1.0 + 0.5 * (seed % 2) for seed in range(5)}
    assert verdict(base, noisy, 0.1, True)[0] == "unresolved"
    assert verdict({0: 1.0}, {0: 1.0}, 0.1, True)[0] == "unresolved"
