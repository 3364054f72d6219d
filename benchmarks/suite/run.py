#!/usr/bin/env python3
"""End-to-end IDG benchmark: four workloads, one command.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --seed 0                      # every workload
    python3 benchmarks/suite/run.py --workload cycle-1024 --seed 0 --seconds 20
    python3 benchmarks/suite/run.py --workload selfcal-wstack --seed 0 --trace
    python3 benchmarks/suite/run.py --seed 0 1 2 --out results.json

Each (workload, seed) runs in its own subprocess, so peak memory belongs to
that workload alone.  The subprocess makes the inputs from the seed, sets up
a few times, runs one untimed warm-up iteration, then timed iterations for
``--seconds`` (at least three, each followed by more set-ups), and checks
the outputs: identical across iterations and within the degrid error budget
of the direct-sum measurement equation.

``--trace`` measures per-layer metrics instead of end-to-end ones: it
alternates traced and untraced iterations (``trace.overhead`` compares them)
and writes a Chrome trace to ``benchmarks/suite/out/``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The command exits 1 when a check failed.  The program under
test is imported from ``src/`` of the checkout this file sits in; without it
the command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
OUT = SUITE / "out"
WORK = SUITE / ".work"

#: Workload names, metric names and units come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

DEFAULT_SECONDS = SPEC["run_seconds"]
MIN_TIMED = 3  # timed iterations per kind (traced / untraced)
# Set-ups before the warm-up (the first is cold: lazy imports, kernel caches)
# and after every timed iteration.  Single-threaded code on this class of
# shared host runs in two speed modes about 1.5x apart that switch every few
# seconds, so set-ups are spread over the whole run and ``setup_s`` is the
# mean of the warm ones: the median of a run flips between the modes.
SETUPS_BEFORE = 3
SETUPS_BETWEEN = 2
CHILD_TIMEOUT_S = 170  # one run must end within 180 s


# ================================================================= child


def host_info() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        # recorded, never set: the threads executor competes with BLAS threads
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest waited-for child's (the
    processes executor's workers); Linux reports kilobytes."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def same_outputs(a, b) -> bool:
    import numpy as np

    return a.arrays.keys() == b.arrays.keys() and all(
        np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One (workload, seed) run in this process; returns the result record."""
    import shutil

    from tracing import Tracer, instrument
    from workloads import WORKLOADS

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](size=size, workdir=str(workdir))
        inputs = workload.make_inputs(seed)
        # the peak so far belongs to the benchmark's input generation
        inputs_rss = peak_rss_mb()
        tracer = Tracer() if trace else None
        with instrument(tracer) if tracer else contextlib.nullcontext():
            record = _measure(workload, inputs, seconds, tracer)
        record["inputs_peak_rss_mb"] = inputs_rss
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"trace-{name}-seed{seed}.json"
            tracer.write_chrome_trace(str(path))
            record["trace_file"] = str(path.relative_to(ROOT))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, inputs, seconds: float, tracer) -> dict:
    """Set up, warm up, time iterations and check outputs."""
    setup_times: list[float] = []

    def set_up():
        if tracer is not None:
            tracer.enabled, tracer.run = True, f"setup-{len(setup_times)}"
        t0 = time.perf_counter()
        state = workload.setup(inputs)
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        return state

    state = set_up()
    for _ in range(SETUPS_BEFORE - 1):
        workload.teardown(state)
        state = set_up()

    def attempt(label: str, traced: bool):
        if tracer is not None:
            tracer.enabled, tracer.run = traced, label
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("iteration"):
                    outcome = workload.iterate(state, inputs)
            else:
                outcome = workload.iterate(state, inputs)
        except Exception:
            traceback.print_exc()
            return None, 0.0
        finally:
            if tracer is not None:
                tracer.enabled = False
        elapsed = time.perf_counter() - t0
        workload.between(state)
        return outcome, elapsed

    try:
        reference, _ = attempt("warmup", tracer is not None)
        attempted, failed = 1, int(reference is None)
        timed: list[dict] = []
        began = time.perf_counter()
        while True:
            traced = tracer is not None and attempted % 2 == 1
            label = f"iter-{attempted - 1}"
            outcome, elapsed = attempt(label, traced)
            attempted += 1
            if outcome is None or (reference is not None and not same_outputs(outcome, reference)):
                failed += 1
            else:
                if reference is None:
                    reference = outcome
                timed.append({
                    "run": label, "traced": traced, "seconds": elapsed,
                    "visibilities": outcome.visibilities, "extras": outcome.extras,
                })
            for _ in range(SETUPS_BETWEEN):
                workload.teardown(set_up())
            n_traced = sum(t["traced"] for t in timed)
            enough = n_traced >= (MIN_TIMED if tracer else 0) and (
                len(timed) - n_traced >= MIN_TIMED
            )
            spent = time.perf_counter() - began
            # the second test ends a run whose iterations keep failing or
            # crawl, well inside CHILD_TIMEOUT_S
            if (spent >= seconds and enough) or spent >= max(4 * seconds, 30):
                break
        # before the checks, whose extra predictions are not the workload's
        peak_rss = peak_rss_mb()
        checks = {}
        if reference is not None:
            try:
                checks = {
                    k: {"value": float(v), "passed": bool(ok)}
                    for k, (v, ok) in workload.checks(state, inputs, reference).items()
                }
            except Exception:
                traceback.print_exc()
                checks = {"checks_ran": {"value": 0.0, "passed": False}}
        if reference is None or not all(c["passed"] for c in checks.values()):
            failed = attempted  # every iteration produced the same wrong output
    finally:
        workload.teardown(state)

    record = {
        "workload": workload.name,
        "executor": workload.executor,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "setup_seconds": setup_times,
        "iterations": timed,
        "checks": checks,
        "peak_rss_mb": peak_rss,
    }
    untraced = [t for t in timed if not t["traced"]]
    if not untraced:
        raise RuntimeError(f"{workload.name}: no iteration succeeded")
    if tracer is None:
        record["metrics"] = end_to_end_metrics(record, untraced)
    else:
        record["metrics"] = layer_metrics(tracer, record, untraced, [t for t in timed if t["traced"]])
    return record


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def end_to_end_metrics(record: dict, timed: list[dict]) -> dict:
    seconds = [t["seconds"] for t in timed]
    return with_units({
        "setup_s": statistics.fmean(record["setup_seconds"][1:]),
        "iter_s": statistics.median(seconds),
        "mvis_per_s": statistics.median(t["visibilities"] / t["seconds"] for t in timed) / 1e6,
        "peak_rss_mb": record["peak_rss_mb"],
        "degrid_rel_err": record["checks"].get("degrid_rel_err", {}).get("value", float("nan")),
    }, END_TO_END_UNITS)


def layer_metrics(tracer, record: dict, untraced: list[dict], traced: list[dict]) -> dict:
    from repro.cache import all_cache_stats
    from tracing import LayerTotals, coverage, per_unit, shard_imbalance

    setup_runs = {f"setup-{k}" for k in range(len(record["setup_seconds"]))}
    iter_runs = {t["run"] for t in traced}
    layers = per_unit(tracer.spans, setup_runs, iter_runs)
    record["layers"] = {
        name: {"busy_s": t.busy_s, "self_s": t.self_s, "calls": t.calls, **t.args}
        for name, t in sorted(layers.items())
    }

    def layer(name: str) -> LayerTotals:
        return layers.get(name, LayerTotals())

    def busy(name: str) -> float:
        return layer(name).busy_s

    def arg(name: str, key: str) -> float:
        return layer(name).args.get(key, 0.0)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    def extra(key: str) -> float:
        values = [t["extras"][key] for t in traced if key in t["extras"]]
        return statistics.median(values) if values else 0.0

    values = {
        "plan.busy_s": busy("plan"),
        "plan.n_subgrids": arg("plan", "n_subgrids"),
        "plan.vis_per_subgrid": rate(arg("plan", "vis"), arg("plan", "n_subgrids")),
        "aterms.busy_s": busy("aterms"),
        "aterms.n_fields": arg("aterms", "n_fields"),
        "subgrid_fft.busy_s": busy("subgrid_fft"),
        "subgrid_ifft.busy_s": busy("subgrid_ifft"),
        "adder.busy_s": busy("adder"),
        "adder.gb_per_s": rate(arg("executor", "adder_bytes"), busy("adder")) / 1e9,
        "splitter.busy_s": busy("splitter"),
        "grid_fft.busy_s": busy("grid_fft"),
        "grid_fft.calls": layer("grid_fft").calls,
        "clean.busy_s": busy("clean"),
        "clean.components": arg("clean", "components"),
        "ftproc.self_s": layer("ftproc").self_s,
        "stefcal.busy_s": busy("stefcal"),
        "stefcal.iterations": arg("stefcal", "iterations"),
        "selfcal.cycles": extra("cycles"),
        "selfcal.gain_amp_err": extra("gain_amp_err"),
        "selfcal.dynamic_range": extra("dynamic_range"),
        "executor.self_s": layer("executor").self_s,
        "executor.idle_frac": rate(layer("executor").self_s, busy("executor")),
        "shard.busy_s": busy("shard"),
        "shard.imbalance": shard_imbalance(tracer.spans, iter_runs),
        "store.open_s": busy("store.open"),
        "store.finalize_s": busy("store.finalize"),
        "store.bytes_read": arg("executor", "store_bytes_read"),
        "store.bytes_written": arg("store.finalize", "store_bytes_written"),
        "trace.coverage": coverage(tracer.spans, iter_runs),
        "trace.overhead": statistics.median(t["seconds"] for t in traced)
        / statistics.median(t["seconds"] for t in untraced) - 1.0,
    }
    for kernel, op in (("gridder", "grid"), ("degridder", "degrid")):
        ops = arg("executor", f"{op}_ops")
        values.update({
            f"{kernel}.busy_s": busy(kernel),
            f"{kernel}.calls": layer(kernel).calls,
            f"{kernel}.mvis_per_s": rate(arg("executor", f"{op}_vis"), busy(kernel)) / 1e6,
            f"{kernel}.gops_per_s": rate(ops, busy(kernel)) / 1e9,
            f"{kernel}.ops": ops / 1e9,
        })
    stats = all_cache_stats()
    lookups = sum(s.lookups for s in stats)
    values["cache.hit_ratio"] = rate(sum(s.hits for s in stats), lookups)
    values["arena.peak_mb"] = max(
        (s.args.get("arena_peak_bytes", 0) for s in tracer.spans if s.run in iter_runs),
        default=0,
    ) / 2**20
    return with_units(values, PER_LAYER_UNITS)


def child_main(args) -> int:
    record = run_workload(args.workload, args.seed[0], args.seconds, bool(args.trace), args.size)
    record.update(seed=args.seed[0], trace=bool(args.trace), size=args.size, host=host_info())
    print(json.dumps(record))
    return 0


# ================================================================ parent


def spawn(workload: str, seed: int, args) -> dict | None:
    """Run one (workload, seed) in a fresh interpreter; ``None`` on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)), "--size", args.size,
    ]
    # own session, so a timeout can stop the workload's worker processes too
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: {workload} seed {seed} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: {workload} seed {seed} exited with {proc.returncode}", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def report(record: dict) -> None:
    tag = f"[{record['workload']} seed={record['seed']}{' trace' if record['trace'] else ''}]"
    for name, metric in record["metrics"].items():
        print(f"{tag} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, check in record["checks"].items():
        print(f"{tag} check {name} = {check['value']:.6g} {'pass' if check['passed'] else 'FAIL'}")
    times = [t["seconds"] for t in record["iterations"] if not t["traced"]]
    print(f"{tag} iterations: {len(times)} timed, max {max(times):.4g} s; "
          f"attempted {record['attempted']}, failed {record['failed']}")
    if "trace_file" in record:
        print(f"{tag} chrome trace: {record['trace_file']}")


def summary_line(records: list[dict]) -> dict:
    """The final JSON line: one run's record, or every run's metrics keyed
    ``<workload>/<seed>/<metric>`` when several ran."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{r['seed']}/{name}": m
            for r in records for name, m in r["metrics"].items()
        }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, nargs="+", default=[0],
                        help="input seed(s); every workload runs once per seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed-loop length per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer traced run instead of end-to-end metrics")
    parser.add_argument("--out", help="also write every run's full record to this JSON file")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every workload for the smoke test")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    records = []
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        for seed in args.seed:
            record = spawn(workload, seed, args)
            if record is None:
                return 1
            report(record)
            records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    summary = summary_line(records)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
