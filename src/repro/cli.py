"""Command-line interface: ``python -m repro <command>``.

The commands cover the full simulate → flag → calibrate → image →
deconvolve → predict loop plus the performance model, all operating on
``.npz`` artefacts:

* ``simulate``  — synthesise a dataset (layout, uvw, sky, optional noise);
* ``info``      — summarise a dataset;
* ``image``     — dirty image (IDG gridding + FFT + grid correction);
* ``clean``     — CLEAN major cycle; writes model + residual images;
* ``predict``   — degrid a model image back to visibilities;
* ``flag``      — sigma-clip RFI flagging;
* ``calibrate`` — StEFCal gain calibration against a point-source model;
* ``selfcal``   — self-calibration major cycles (CLEAN + StEFCal closed
  loop, gain solutions applied as A-terms in the gridder);
* ``perfmodel`` — print the hardware-model predictions for a dataset's plan;
* ``report``    — render the paper's full Section VI evaluation for a
  dataset (all figures, formatted text).

Out-of-core datasets: every command that reads a dataset accepts either a
``.npz`` archive or a schema-v2 chunked store directory
(:mod:`repro.data.store`) — the format is auto-detected.  ``makedata``
synthesises arbitrarily large datasets chunk-at-a-time with bounded memory,
and ``convert-dataset`` converts between the two formats.
"""

from __future__ import annotations

import argparse
import sys
from typing import Final

import numpy as np


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    """Executor selection shared by the gridding/degridding commands."""
    parser.add_argument(
        "--executor", choices=["serial", "threads", "streaming", "processes"],
        default="serial",
        help="serial IDG, threads (StreamingIDG with two work groups in "
        "flight per worker), streaming (StreamingIDG with --n-buffers work "
        "groups in flight), or shared-memory worker processes "
        "(ProcessShardedIDG)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="kernel backend (vectorized, reference, or any registered "
        "name; default: vectorized)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker threads / processes (threads, streaming and processes "
        "executors; default: the cores this process may run on for threads "
        "and streaming, 2 for processes)",
    )
    parser.add_argument(
        "--n-buffers", type=int, default=3,
        help="streaming executor: work groups in flight "
        "(1 = serial schedule, 3 = triple buffering)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a chrome://tracing JSON of the run (any executor)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0,
        help="fault tolerance: retries per work-group stage call before the "
        "group is dead-lettered (0 = fail fast, the default)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="backoff before the first retry (doubles per retry, capped)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Image-Domain Gridding (IDG) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesise a visibility dataset")
    sim.add_argument("output", help="output dataset (.npz)")
    sim.add_argument("--stations", type=int, default=16)
    sim.add_argument("--times", type=int, default=64)
    sim.add_argument("--channels", type=int, default=8)
    sim.add_argument("--integration", type=float, default=120.0,
                     help="integration time per step [s]")
    sim.add_argument("--radius", type=float, default=3000.0,
                     help="array radius [m]")
    sim.add_argument("--sources", type=int, default=4)
    sim.add_argument("--grid-size", type=int, default=512,
                     help="grid used to size the field of view")
    sim.add_argument("--noise-sefd", type=float, default=0.0,
                     help="SEFD [Jy]; 0 disables thermal noise")
    sim.add_argument("--seed", type=int, default=0)

    make = sub.add_parser(
        "makedata",
        help="synthesise a large noise dataset chunk-at-a-time "
        "(bounded memory; for out-of-core benchmarks)",
    )
    make.add_argument("output",
                      help="output store directory (or .npz with --format npz)")
    make.add_argument("--stations", type=int, default=16)
    make.add_argument("--times", type=int, default=1024)
    make.add_argument("--channels", type=int, default=8)
    make.add_argument("--integration", type=float, default=120.0,
                      help="integration time per step [s]")
    make.add_argument("--radius", type=float, default=3000.0,
                      help="array radius [m]")
    make.add_argument("--seed", type=int, default=0)
    make.add_argument("--format", choices=["chunked", "npz"],
                      default="chunked",
                      help="chunked mmap store directory (default) or a "
                      "v1 .npz archive (materialises in memory)")
    make.add_argument("--time-chunk", type=int, default=256,
                      help="timesteps generated and written per slab")

    conv = sub.add_parser(
        "convert-dataset",
        help="convert between .npz (v1) and chunked store (v2) formats; "
        "direction is inferred from the input",
    )
    conv.add_argument("input", help="dataset (.npz or store directory)")
    conv.add_argument("output", help="converted dataset")
    conv.add_argument("--time-chunk", type=int, default=256,
                      help="timesteps copied per slab when writing a store")

    info = sub.add_parser("info", help="summarise a dataset")
    info.add_argument("dataset", help="dataset (.npz or chunked store)")

    img = sub.add_parser("image", help="make a dirty image")
    img.add_argument("dataset", help="dataset (.npz or chunked store)")
    img.add_argument("output", help="output image (.npz)")
    img.add_argument("--grid-size", type=int, default=512)
    img.add_argument("--subgrid-size", type=int, default=24)
    img.add_argument("--weighting", choices=["natural", "uniform"],
                     default="natural")
    _add_executor_args(img)
    img.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot the grid + completed work groups to this .npz "
        "(atomic) while gridding, on any executor",
    )
    img.add_argument(
        "--checkpoint-interval", type=int, default=4, metavar="N",
        help="work groups retired between checkpoint snapshots",
    )
    img.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume gridding from a checkpoint written by a previous run "
        "over the same dataset/plan (bit-exact)",
    )

    clean = sub.add_parser("clean", help="run the CLEAN major cycle")
    clean.add_argument("dataset")
    clean.add_argument("output", help="output images (.npz: model, residual, psf)")
    clean.add_argument("--grid-size", type=int, default=512)
    clean.add_argument("--subgrid-size", type=int, default=24)
    clean.add_argument("--major-cycles", type=int, default=3)
    clean.add_argument("--minor-iterations", type=int, default=200)
    clean.add_argument("--gain", type=float, default=0.1)

    pred = sub.add_parser("predict", help="degrid a model image to visibilities")
    pred.add_argument("dataset",
                      help="dataset supplying uvw/frequencies "
                      "(.npz or chunked store)")
    pred.add_argument("model", help="model image (.npz with 'model' of shape (G, G))")
    pred.add_argument("output", help="output dataset")
    pred.add_argument("--subgrid-size", type=int, default=24)
    pred.add_argument("--format", choices=["npz", "chunked"], default="npz",
                      help="output format; 'chunked' degrids straight into "
                      "a store's mmap (no in-memory copy of the result)")
    _add_executor_args(pred)

    flag = sub.add_parser("flag", help="sigma-clip RFI flagging")
    flag.add_argument("dataset")
    flag.add_argument("output", help="flagged dataset (.npz)")
    flag.add_argument("--threshold", type=float, default=5.0)

    cal = sub.add_parser("calibrate",
                         help="StEFCal gains against a point-source model")
    cal.add_argument("dataset")
    cal.add_argument("output", help="calibrated dataset (.npz)")
    cal.add_argument("--model-l", type=float, required=True,
                     help="calibrator direction cosine l")
    cal.add_argument("--model-m", type=float, required=True)
    cal.add_argument("--model-flux", type=float, required=True)
    cal.add_argument("--solution-interval", type=int, default=0)

    scal = sub.add_parser(
        "selfcal",
        help="self-calibration major cycles: CLEAN model building and "
        "StEFCal gain solving closed-loop, gains applied as A-terms",
    )
    scal.add_argument("dataset", help="dataset (.npz or chunked store)")
    scal.add_argument("output",
                      help="output (.npz: gains, model, residual, psf)")
    scal.add_argument("--grid-size", type=int, default=512)
    scal.add_argument("--subgrid-size", type=int, default=24)
    scal.add_argument("--cycles", type=int, default=20,
                      help="maximum self-cal major cycles")
    scal.add_argument("--solution-interval", type=int, default=0,
                      help="timesteps per gain solution (0 = whole obs)")
    scal.add_argument("--kind",
                      choices=["2d", "wstack", "facets", "wstack_facets"],
                      default="2d",
                      help="FT processor used for the imaging side")
    scal.add_argument("--w-planes", type=int, default=4,
                      help="w layers (wstack kinds)")
    scal.add_argument("--facets", type=int, default=2,
                      help="facets per axis (facet kinds)")
    scal.add_argument("--threshold-factor", type=float, default=3.0,
                      help="CLEAN auto-threshold: factor x residual rms")
    scal.add_argument("--executor",
                      choices=["serial", "threads", "streaming", "processes"],
                      default="serial")
    scal.add_argument("--workers", type=int, default=2,
                      help="executor workers (ignored by serial)")

    perf = sub.add_parser("perfmodel", help="hardware-model predictions")
    perf.add_argument("dataset")
    perf.add_argument("--grid-size", type=int, default=2048)
    perf.add_argument("--subgrid-size", type=int, default=24)

    rep = sub.add_parser("report", help="full Section VI evaluation report")
    rep.add_argument("dataset")
    rep.add_argument("--grid-size", type=int, default=2048)
    rep.add_argument("--subgrid-size", type=int, default=24)
    rep.add_argument("--output", default=None,
                     help="also write the report to this file")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant gridding service over a synthetic "
        "many-client load and print per-tenant telemetry",
    )
    _add_service_args(serve)

    bench_svc = sub.add_parser(
        "bench-service",
        help="A/B benchmark the service: coalesced vs uncoalesced "
        "throughput and latency on the same duplicate-heavy load",
    )
    _add_service_args(bench_svc)
    bench_svc.add_argument(
        "--output", default=None, metavar="JSON",
        help="write the benchmark payload (requests/s, p95, speedup, "
        "reconciliation) to this JSON file",
    )

    return parser


def _add_service_args(parser) -> None:
    parser.add_argument("dataset", help="dataset (.npz) supplying the layout")
    parser.add_argument("--grid-size", type=int, default=512)
    parser.add_argument("--subgrid-size", type=int, default=24)
    parser.add_argument("--workers", type=int, default=2,
                        help="service worker threads")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--requests", type=int, default=6,
                        help="requests per tenant")
    parser.add_argument("--distinct", type=int, default=3,
                        help="distinct payloads spread over all requests "
                        "(duplicates coalesce)")
    parser.add_argument("--tenant-quota", type=int, default=2,
                        help="max concurrently running jobs per tenant")
    parser.add_argument("--queue-depth", type=int, default=256,
                        help="global admission-queue bound (sheds beyond it)")
    parser.add_argument("--tenant-backlog", type=int, default=None,
                        help="per-tenant queued-job bound (default: none)")
    parser.add_argument("--no-coalesce", action="store_true",
                        help="disable request coalescing (caches still apply)")
    parser.add_argument("--backend", default=None,
                        help="kernel backend name (default: vectorized)")


# --------------------------------------------------------------- commands


def _cmd_simulate(args) -> int:
    from repro.data.dataset import VisibilityDataset
    from repro.data.io import save_dataset
    from repro.data.noise import add_thermal_noise
    from repro.sky.sources import random_sky
    from repro.telescope.observation import ska1_low_observation

    obs = ska1_low_observation(
        n_stations=args.stations, n_times=args.times, n_channels=args.channels,
        integration_time_s=args.integration, max_radius_m=args.radius,
        seed=args.seed,
    )
    gridspec = obs.fitting_gridspec(args.grid_size)
    sky = random_sky(args.sources, gridspec.image_size, seed=args.seed)
    dataset = VisibilityDataset.simulate(obs, sky)
    if args.noise_sefd > 0:
        channel_width = float(np.diff(obs.frequencies_hz).mean()) if obs.n_channels > 1 else 200e3
        dataset = add_thermal_noise(
            dataset, args.noise_sefd, channel_width, args.integration,
            seed=args.seed,
        )
    save_dataset(dataset, args.output)
    print(f"wrote {dataset.n_visibilities:,} visibilities "
          f"({dataset.n_baselines} baselines x {dataset.n_times} x "
          f"{dataset.n_channels}) to {args.output}")
    print(f"sky: {sky.n_sources} sources, {sky.total_flux_xx():.2f} Jy total; "
          f"field of view {np.degrees(gridspec.image_size):.2f} deg")
    return 0


def _open_input(path):
    """``(dataset, store-or-None)`` for any dataset argument.

    Auto-detects the format: a v1 ``.npz`` archive loads in memory
    (``store`` is ``None``); a schema-v2 chunked store directory is opened
    read-only as memory maps — the returned dataset's columns then page
    lazily, and ``store`` carries the handle the gridding commands use to
    stream visibilities (``store.source()``) instead of materialising them.
    """
    from repro.data import open_dataset
    from repro.data.store import ChunkedStore

    opened = open_dataset(path)
    if isinstance(opened, ChunkedStore):
        return opened.as_dataset(), opened
    return opened, None


def _cmd_makedata(args) -> int:
    from repro.data.store import DatasetWriter
    from repro.telescope.observation import ska1_low_observation
    from repro.telescope.uvw import enu_to_equatorial, synthesize_uvw

    obs = ska1_low_observation(
        n_stations=args.stations, n_times=args.times, n_channels=args.channels,
        integration_time_s=args.integration, max_radius_m=args.radius,
        seed=args.seed,
    )
    bvec = enu_to_equatorial(
        obs.array.baseline_vectors_enu(), obs.array.latitude_rad
    )
    hour_angles = obs.hour_angles_rad
    rng = np.random.default_rng(args.seed)
    chunk = max(1, args.time_chunk)

    def noise_vis(n: int):
        """One ``(n_baselines, n, C, 2, 2)`` slab of unit complex noise."""
        shape = (obs.n_baselines, n, obs.n_channels, 2, 2)
        real = rng.standard_normal(shape, dtype=np.float32)
        imag = rng.standard_normal(shape, dtype=np.float32)
        return real + 1j * imag

    if args.format == "npz":
        from repro.data.dataset import VisibilityDataset
        from repro.data.io import save_dataset

        dataset = VisibilityDataset(
            uvw_m=obs.uvw_m,
            visibilities=noise_vis(obs.n_times),
            frequencies_hz=obs.frequencies_hz,
            baselines=obs.array.baselines(),
        )
        save_dataset(dataset, args.output)
        n_vis = dataset.n_visibilities
        vis_bytes = dataset.visibilities.nbytes
    else:
        with DatasetWriter(
            args.output, n_baselines=obs.n_baselines, n_times=obs.n_times,
            n_channels=obs.n_channels,
        ) as writer:
            writer.set_frequencies(obs.frequencies_hz)
            writer.set_baselines(obs.array.baselines())
            for t0 in range(0, obs.n_times, chunk):
                n = min(chunk, obs.n_times - t0)
                uvw = synthesize_uvw(
                    bvec, hour_angles[t0:t0 + n], obs.declination_rad
                )
                writer.write_times(t0, uvw, noise_vis(n))
            store = writer.finalize()
        n_vis = store.n_visibilities
        vis_bytes = store.visibility_nbytes
    print(f"wrote {n_vis:,} visibilities "
          f"({obs.n_baselines} baselines x {obs.n_times} x "
          f"{obs.n_channels}; {vis_bytes / 1e6:.1f} MB of visibilities) "
          f"to {args.output} [{args.format}]")
    return 0


def _cmd_convert_dataset(args) -> int:
    from repro.data.io import save_dataset
    from repro.data.store import is_store, write_store

    ds, store = _open_input(args.input)
    if store is not None:
        if is_store(args.output):
            raise SystemExit(f"error: {args.output} is already a store")
        save_dataset(ds, args.output)
        direction = "store -> npz"
    else:
        write_store(ds, args.output, time_chunk=max(1, args.time_chunk))
        direction = "npz -> store"
    print(f"converted {args.input} -> {args.output} ({direction}, "
          f"{ds.n_visibilities:,} visibilities)")
    return 0


def _cmd_info(args) -> int:
    ds, store = _open_input(args.dataset)
    uv_max = float(np.linalg.norm(ds.uvw_m[:, :, :2], axis=2).max())
    kind = "chunked store (schema v2)" if store is not None else ".npz (v1)"
    print(f"dataset: {args.dataset}  [{kind}]")
    print(f"  baselines: {ds.n_baselines}  times: {ds.n_times}  "
          f"channels: {ds.n_channels}")
    print(f"  visibilities: {ds.n_visibilities:,}  "
          f"flagged: {100 * ds.flag_fraction():.2f}%")
    print(f"  frequencies: {ds.frequencies_hz.min() / 1e6:.2f} - "
          f"{ds.frequencies_hz.max() / 1e6:.2f} MHz")
    print(f"  max |uv|: {uv_max:.1f} m   max |w|: "
          f"{np.abs(ds.uvw_m[:, :, 2]).max():.1f} m")
    if store is not None:
        # Chunk-wise |V| so a dataset far larger than memory still
        # summarises with bounded RSS.
        total = 0.0
        for t0 in range(0, ds.n_times, 256):
            total += float(
                np.abs(store.visibilities[:, t0:t0 + 256]).sum()
            )
            store.drop_caches()
        mean_v = total / max(1, ds.n_visibilities * 4)
    else:
        mean_v = float(np.abs(ds.visibilities).mean())
    print(f"  mean |V|: {mean_v:.4f}")
    return 0


def _make_idg(dataset, grid_size, subgrid_size, backend=None,
              max_retries=0, retry_backoff=0.05):
    from repro.constants import SPEED_OF_LIGHT
    from repro.core.pipeline import IDG, IDGConfig
    from repro.gridspec import GridSpec

    max_uv_m = float(np.linalg.norm(dataset.uvw_m[:, :, :2], axis=2).max())
    max_uv = max_uv_m * dataset.frequencies_hz.max() / SPEED_OF_LIGHT
    image_size = min(0.9 * grid_size / (2.0 * max_uv), 1.0)
    gridspec = GridSpec(grid_size=grid_size, image_size=image_size)
    try:
        idg = IDG(
            gridspec,
            IDGConfig(subgrid_size=subgrid_size, backend=backend,
                      max_retries=max_retries, retry_backoff_s=retry_backoff),
        )
    except KeyError as exc:  # unknown --backend name
        raise SystemExit(f"error: {exc.args[0]}") from exc
    return idg, gridspec


def _make_executor(idg, args):
    """The gridding/degridding engine selected by ``--executor``."""
    from repro.imaging.pipeline import make_engine
    from repro.parallel.executor import usable_cores

    workers = args.workers
    if workers is None:
        workers = 2 if args.executor == "processes" else usable_cores()
    return make_engine(
        idg, args.executor, n_workers=workers, n_buffers=args.n_buffers,
        start_method="spawn",
    )


def _report_run(engine, args) -> None:
    """After a run on any executor: print the fault report (tolerant runs)
    and the telemetry digest, export the trace."""
    report = engine.last_fault_report
    if report is not None and (report.n_retries or not report.ok):
        print(report.summary())
    telemetry = engine.last_telemetry
    print(telemetry.summary())
    if args.trace:
        telemetry.write_chrome_trace(args.trace)
        print(f"chrome trace written to {args.trace} "
              "(open in chrome://tracing or ui.perfetto.dev)")


def _cmd_image(args) -> int:
    from repro.imaging.image import dirty_image_from_grid
    from repro.imaging.weighting import apply_weights, uniform_weights

    ds, store = _open_input(args.dataset)
    idg, gridspec = _make_idg(
        ds, args.grid_size, args.subgrid_size, backend=args.backend,
        max_retries=args.max_retries, retry_backoff=args.retry_backoff,
    )
    plan = idg.make_plan(ds.uvw_m, ds.frequencies_hz, ds.baselines)

    # Chunked stores stream blocks straight from the mmap (flagged samples
    # masked lazily per block); .npz datasets grid the in-memory array.
    vis = store.source() if store is not None else ds.visibilities
    weight_sum = float(plan.statistics.n_visibilities_gridded)
    if args.weighting == "uniform":
        if store is not None:
            raise SystemExit(
                "error: --weighting uniform materialises a reweighted copy "
                "of the visibilities and is not supported on chunked "
                "stores; convert to .npz first (repro convert-dataset) or "
                "use natural weighting"
            )
        weights = uniform_weights(ds.uvw_m, ds.frequencies_hz, gridspec)
        weights[plan.flagged] = 0.0
        vis = apply_weights(vis, weights)
        weight_sum = float(weights.sum())

    checkpoint = None
    if args.checkpoint is not None or args.resume is not None:
        from repro.runtime import CheckpointConfig

        checkpoint = CheckpointConfig(
            path=args.checkpoint, interval=args.checkpoint_interval,
            resume_from=args.resume,
        )
    engine = _make_executor(idg, args)
    grid = engine.grid(plan, ds.uvw_m, vis, checkpoint=checkpoint)
    _report_run(engine, args)
    report = engine.last_fault_report
    if report is not None and not report.ok and args.weighting == "natural":
        # Dead-lettered work groups never reached the grid; keep the image
        # normalisation consistent with what was actually accumulated.
        weight_sum = report.adjusted_weight_sum(weight_sum)
    # one real transform of the Stokes-I plane 0.5 (XX + YY)
    image = dirty_image_from_grid(
        0.5 * (grid[0] + grid[3]), gridspec, weight_sum=weight_sum
    )
    np.savez_compressed(args.output, image=image, image_size=gridspec.image_size)
    peak = float(np.abs(image).max())
    print(f"wrote {args.grid_size}x{args.grid_size} dirty image to "
          f"{args.output} (peak {peak:.4f}, rms {image.std():.5f})")
    return 0


def _cmd_clean(args) -> int:
    from repro.imaging.cycle import ImagingCycle

    ds, _ = _open_input(args.dataset)
    idg, gridspec = _make_idg(ds, args.grid_size, args.subgrid_size)
    cycle = ImagingCycle(idg, ds.uvw_m, ds.frequencies_hz, ds.baselines)
    result = cycle.run(
        ds.visibilities, n_major=args.major_cycles,
        minor_iterations=args.minor_iterations, gain=args.gain,
    )
    np.savez_compressed(
        args.output,
        model=result.model_image, residual=result.residual_image,
        psf=result.psf, image_size=gridspec.image_size,
    )
    print(f"{result.n_major_cycles} major cycles; CLEANed flux "
          f"{result.total_clean_flux():.3f}; residual rms "
          + " -> ".join(f"{r:.5f}" for r in result.residual_rms_history))
    print(f"wrote model/residual/psf to {args.output}")
    return 0


def _cmd_predict(args) -> int:
    from repro.constants import COMPLEX_DTYPE
    from repro.data.io import save_dataset
    from repro.data.store import DatasetWriter
    from repro.imaging.image import model_image_to_grid

    ds, _ = _open_input(args.dataset)
    with np.load(args.model) as archive:
        model = archive["model"]
    g = model.shape[-1]
    idg, gridspec = _make_idg(
        ds, g, args.subgrid_size, backend=args.backend,
        max_retries=args.max_retries, retry_backoff=args.retry_backoff,
    )
    plan = idg.make_plan(ds.uvw_m, ds.frequencies_hz, ds.baselines)
    # the model transformed once, into the XX and YY planes (XX = YY = I)
    grid = np.zeros((4, g, g), dtype=COMPLEX_DTYPE)
    grid[0] = grid[3] = model_image_to_grid(model, gridspec)
    engine = _make_executor(idg, args)
    if args.format == "chunked":
        # Degrid straight into the output store's visibility map: the
        # prediction streams to disk (fresh w+ maps are zero-filled, the
        # contract degrid's ``out=`` requires) instead of materialising.
        with DatasetWriter(
            args.output, n_baselines=ds.n_baselines, n_times=ds.n_times,
            n_channels=ds.n_channels,
        ) as writer:
            writer.set_frequencies(ds.frequencies_hz)
            writer.set_baselines(ds.baselines)
            writer.uvw_m[:] = ds.uvw_m
            writer.mark_written(0, ds.n_times)
            engine.degrid(plan, ds.uvw_m, grid, out=writer.visibilities)
            writer.finalize()
        _report_run(engine, args)
    else:
        predicted = engine.degrid(plan, ds.uvw_m, grid)
        _report_run(engine, args)
        save_dataset(ds.with_visibilities(predicted), args.output)
    print(f"wrote predicted visibilities to {args.output} [{args.format}]")
    return 0


def _cmd_perfmodel(args) -> int:
    from repro.perfmodel import (
        ALL_ARCHITECTURES,
        attainable_ops,
        energy_efficiency_gflops_per_watt,
        gridder_counts,
        imaging_cycle_runtime,
        throughput_mvis,
    )

    ds, _ = _open_input(args.dataset)
    idg, _ = _make_idg(ds, args.grid_size, args.subgrid_size)
    plan = idg.make_plan(ds.uvw_m, ds.frequencies_hz, ds.baselines)
    counts = gridder_counts(plan)
    print(f"plan: {plan.n_subgrids} subgrids, "
          f"{counts.ops / 1e9:.2f} GOps gridding, rho = {counts.rho:.1f}")
    print(f"{'arch':<8} {'gridder':>20} {'MVis/s':>8} {'cycle s':>9} "
          f"{'GFlops/W':>9}")
    for arch in ALL_ARCHITECTURES:
        perf, bound = attainable_ops(arch, counts)
        cycle = imaging_cycle_runtime(arch, plan)
        print(f"{arch.name:<8} "
              f"{perf / 1e12:6.2f} TOps ({bound:<6}) "
              f"{throughput_mvis(arch, counts):8.1f} "
              f"{cycle.total_seconds:9.4f} "
              f"{energy_efficiency_gflops_per_watt(arch, counts):9.1f}")
    return 0


def _cmd_flag(args) -> int:
    from repro.data.io import save_dataset
    from repro.data.rfi import flag_rfi

    ds, _ = _open_input(args.dataset)
    before = ds.flags.sum()
    flagged = flag_rfi(ds, threshold=args.threshold)
    save_dataset(flagged, args.output)
    new = int(flagged.flags.sum() - before)
    print(f"flagged {new} new samples "
          f"({100 * flagged.flag_fraction():.2f}% total); wrote {args.output}")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.calibration import apply_gains, stefcal
    from repro.data.io import save_dataset
    from repro.sky.model import SkyModel
    from repro.sky.simulate import predict_visibilities

    ds, _ = _open_input(args.dataset)
    n_stations = int(ds.baselines.max()) + 1
    sky = SkyModel.single(args.model_l, args.model_m, flux=args.model_flux)
    model_vis = predict_visibilities(
        ds.uvw_m, ds.frequencies_hz, sky, baselines=ds.baselines
    )
    solution = stefcal(
        ds.visibilities, model_vis, ds.baselines, n_stations=n_stations,
        solution_interval=args.solution_interval,
    )
    if not solution.converged.all():
        print("warning: StEFCal did not converge in every interval")
    # apply the per-interval solutions
    calibrated = ds.visibilities.copy()
    interval = args.solution_interval or ds.n_times
    for k in range(solution.n_intervals):
        t0, t1 = k * interval, min((k + 1) * interval, ds.n_times)
        calibrated[:, t0:t1] = apply_gains(
            calibrated[:, t0:t1], solution.gains[k], ds.baselines
        )
    save_dataset(ds.with_visibilities(calibrated), args.output)
    amp = np.abs(solution.gains)
    print(f"solved {solution.n_intervals} interval(s) for {n_stations} stations; "
          f"gain amplitudes {amp.min():.3f} - {amp.max():.3f}; wrote {args.output}")
    return 0


def _cmd_selfcal(args) -> int:
    from repro.calibration.selfcal import SelfCalConfig, self_calibrate
    from repro.imaging.pipeline import ImagingContext

    ds, _ = _open_input(args.dataset)
    idg, gridspec = _make_idg(ds, args.grid_size, args.subgrid_size)
    n_stations = int(ds.baselines.max()) + 1
    context = ImagingContext(
        idg=idg, uvw_m=ds.uvw_m, frequencies_hz=ds.frequencies_hz,
        baselines=ds.baselines, executor=args.executor,
        executor_workers=args.workers,
    )
    config = SelfCalConfig(
        n_cycles=args.cycles,
        solution_interval=args.solution_interval,
        threshold_factor=args.threshold_factor,
    )
    options = {}
    if args.kind in ("wstack", "wstack_facets"):
        options["n_w_planes"] = args.w_planes
    if args.kind in ("facets", "wstack_facets"):
        options["n_facets"] = args.facets
    result = self_calibrate(
        context, ds.visibilities, n_stations,
        config=config, kind=args.kind, **options,
    )
    np.savez_compressed(
        args.output,
        gains=result.gains, model=result.model_image,
        residual=result.residual_image, psf=result.psf,
        image_size=gridspec.image_size,
    )
    for h in result.history:
        print(f"cycle {h.cycle}: residual rms {h.residual_rms:.5f}  "
              f"dynamic range {h.dynamic_range:.1f}  "
              f"CLEANed flux {h.clean_flux:.3f}  "
              f"gain change {h.gain_change:.5f}")
    amp = np.abs(result.gains)
    state = "converged" if result.converged else "cycle budget exhausted"
    print(f"{result.n_cycles} cycle(s), {state}; {n_stations} stations, "
          f"gain amplitudes {amp.min():.3f} - {amp.max():.3f} "
          f"(reference station amplitude pinned to 1)")
    print(f"wrote gains/model/residual/psf to {args.output}")
    return 0


def _cmd_report(args) -> int:
    from repro.perfmodel.report import evaluation_report

    ds, _ = _open_input(args.dataset)
    idg, _ = _make_idg(ds, args.grid_size, args.subgrid_size)
    plan = idg.make_plan(ds.uvw_m, ds.frequencies_hz, ds.baselines)
    report = evaluation_report(plan)
    print(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"report written to {args.output}")
    return 0


def _service_setup(args, coalesce: bool):
    """(ServiceConfig, job specs) for the serve/bench-service commands."""
    from repro.service import LoadSpec, ServiceConfig, build_specs

    ds, _ = _open_input(args.dataset)
    idg, gridspec = _make_idg(
        ds, args.grid_size, args.subgrid_size, backend=args.backend
    )
    config = ServiceConfig(
        n_workers=args.workers,
        max_queue_depth=args.queue_depth,
        tenant_quota=args.tenant_quota,
        tenant_backlog=args.tenant_backlog,
        coalesce=coalesce,
        idg=idg.config,
    )
    load = LoadSpec(
        n_tenants=args.tenants,
        requests_per_tenant=args.requests,
        n_distinct=args.distinct,
    )
    specs = build_specs(
        load, ds.uvw_m, ds.frequencies_hz, ds.baselines, gridspec,
        ds.visibilities,
    )
    return config, specs


def _print_load_report(title: str, report) -> None:
    print(f"{title}: {report.n_requests} requests "
          f"({report.n_shed} shed), statuses {report.statuses}")
    print(f"  throughput {report.requests_per_s:.2f} req/s   "
          f"p95 latency {report.p95_latency_s * 1e3:.1f} ms   "
          f"makespan {report.makespan_s:.3f} s")
    for name, stats in sorted(report.caches.items()):
        print(f"  cache {name}: {stats.hits} hits / {stats.misses} misses "
              f"({stats.current_bytes:,} bytes)")


def _cmd_serve(args) -> int:
    from repro.service import run_load

    config, specs = _service_setup(args, coalesce=not args.no_coalesce)
    report = run_load(config, specs)
    _print_load_report("service run", report)
    tenants = sorted({spec.tenant for spec in specs})
    for tenant in tenants:
        counters = {
            key.rsplit(".", 1)[1]: int(value)
            for key, value in sorted(report.counters.items())
            if key.startswith(f"tenant.{tenant}.")
            and not key.endswith("queue_wait_s")
        }
        print(f"  {tenant}: {counters}")
    bad = [name for name, ok in report.reconciliation().items() if not ok]
    if bad:
        print(f"counter reconciliation FAILED: {bad}")
        return 1
    print("counter reconciliation: exact")
    return 0


def _cmd_bench_service(args) -> int:
    import json

    from repro.service import run_load

    config_on, specs = _service_setup(args, coalesce=not args.no_coalesce)
    config_off, _ = _service_setup(args, coalesce=False)
    coalesced = run_load(config_on, specs)
    uncoalesced = run_load(config_off, specs)
    _print_load_report("coalesced", coalesced)
    _print_load_report("uncoalesced", uncoalesced)
    speedup = (
        coalesced.requests_per_s / uncoalesced.requests_per_s
        if uncoalesced.requests_per_s > 0 else float("inf")
    )
    print(f"coalescing speedup: {speedup:.2f}x")
    if args.output:
        payload = {
            "coalesced": {
                "requests_per_s": coalesced.requests_per_s,
                "p95_latency_s": coalesced.p95_latency_s,
                "reconciliation": coalesced.reconciliation(),
            },
            "uncoalesced": {
                "requests_per_s": uncoalesced.requests_per_s,
                "p95_latency_s": uncoalesced.p95_latency_s,
                "reconciliation": uncoalesced.reconciliation(),
            },
            "speedup": speedup,
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"benchmark written to {args.output}")
    return 0


_COMMANDS: Final = {
    "simulate": _cmd_simulate,
    "makedata": _cmd_makedata,
    "convert-dataset": _cmd_convert_dataset,
    "report": _cmd_report,
    "flag": _cmd_flag,
    "calibrate": _cmd_calibrate,
    "selfcal": _cmd_selfcal,
    "info": _cmd_info,
    "image": _cmd_image,
    "clean": _cmd_clean,
    "predict": _cmd_predict,
    "perfmodel": _cmd_perfmodel,
    "serve": _cmd_serve,
    "bench-service": _cmd_bench_service,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    # Same opt-in pattern as IDGLINT_SHAPE_CHECKS: IDG_SANITIZE=1 runs the
    # command under the concurrency sanitizer (no-op otherwise).
    from repro.analysis import sanitizer

    sanitizer.maybe_install_from_env()
    args = _build_parser().parse_args(argv)
    code = _COMMANDS[args.command](args)
    active = sanitizer.current()
    if active is not None:
        active.raise_if_reports()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
