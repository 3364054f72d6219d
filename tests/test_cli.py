"""End-to-end tests for the command-line interface.

Drives the full simulate -> info -> image -> clean -> predict loop through
``repro.cli.main`` on small workloads in a temp directory.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.data.io import load_dataset

SIM_ARGS = [
    "--stations", "10", "--times", "24", "--channels", "4",
    "--integration", "240", "--radius", "2000", "--sources", "2",
    "--grid-size", "256", "--seed", "3",
]


@pytest.fixture(scope="module")
def sim_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sim.npz"
    assert main(["simulate", str(path)] + SIM_ARGS) == 0
    return path


def test_simulate_writes_dataset(sim_dataset):
    ds = load_dataset(sim_dataset)
    assert ds.n_baselines == 45
    assert ds.n_times == 24
    assert ds.n_channels == 4
    assert np.abs(ds.visibilities).max() > 0


def test_simulate_with_noise(tmp_path):
    clean_path = tmp_path / "clean.npz"
    noisy_path = tmp_path / "noisy.npz"
    assert main(["simulate", str(clean_path)] + SIM_ARGS) == 0
    assert main(["simulate", str(noisy_path)] + SIM_ARGS + ["--noise-sefd", "500"]) == 0
    a = load_dataset(clean_path).visibilities
    b = load_dataset(noisy_path).visibilities
    assert np.abs(a - b).max() > 0


def test_info(sim_dataset, capsys):
    assert main(["info", str(sim_dataset)]) == 0
    out = capsys.readouterr().out
    assert "baselines: 45" in out
    assert "channels: 4" in out


def test_image_command(sim_dataset, tmp_path, capsys):
    out_path = tmp_path / "dirty.npz"
    assert main(["image", str(sim_dataset), str(out_path),
                 "--grid-size", "256"]) == 0
    with np.load(out_path) as archive:
        image = archive["image"]
    assert image.shape == (256, 256)
    assert np.abs(image).max() > 0.1  # sources visible


def test_image_uniform_weighting(sim_dataset, tmp_path):
    nat_path = tmp_path / "nat.npz"
    uni_path = tmp_path / "uni.npz"
    assert main(["image", str(sim_dataset), str(nat_path), "--grid-size", "256"]) == 0
    assert main(["image", str(sim_dataset), str(uni_path), "--grid-size", "256",
                 "--weighting", "uniform"]) == 0
    with np.load(nat_path) as a, np.load(uni_path) as b:
        assert np.abs(a["image"] - b["image"]).max() > 1e-6


def test_clean_command(sim_dataset, tmp_path, capsys):
    out_path = tmp_path / "clean.npz"
    assert main(["clean", str(sim_dataset), str(out_path),
                 "--grid-size", "256", "--major-cycles", "2",
                 "--minor-iterations", "60"]) == 0
    with np.load(out_path) as archive:
        model, residual, psf = archive["model"], archive["residual"], archive["psf"]
    assert model.shape == residual.shape == psf.shape == (256, 256)
    assert model.sum() > 0  # flux was extracted
    assert psf[128, 128] == pytest.approx(1.0)


@pytest.mark.parametrize(
    ("executor", "sizing"),
    [
        ("streaming", ["--n-buffers", "3"]),
        ("threads", ["--workers", "3"]),
        ("serial", []),
    ],
    ids=["streaming", "threads", "serial"],
)
def test_image_streaming_matches_serial(executor, sizing, sim_dataset, tmp_path,
                                        capsys):
    """--executor streaming and threads produce the identical image (in-order
    retirement makes both bit-exact), and every executor, serial included,
    writes a valid chrome trace with spans for every pipeline stage (the
    admission ``splitter`` span is the windowed executors' own)."""
    import json

    serial_path = tmp_path / "serial.npz"
    stream_path = tmp_path / "stream.npz"
    trace_path = tmp_path / "trace.json"
    assert main(["image", str(sim_dataset), str(serial_path),
                 "--grid-size", "256"]) == 0
    assert main(["image", str(sim_dataset), str(stream_path),
                 "--grid-size", "256", "--executor", executor, *sizing,
                 "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "makespan" in out and "chrome trace written" in out
    with np.load(serial_path) as a, np.load(stream_path) as b:
        np.testing.assert_array_equal(a["image"], b["image"])
    with open(trace_path) as fh:
        trace = json.load(fh)
    span_names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"gridder", "subgrid_fft", "adder"} <= span_names
    assert ("splitter" in span_names) == (executor != "serial")


def test_image_streaming_honours_workers(sim_dataset, tmp_path, monkeypatch):
    """--workers sizes the streaming executor's compute workers, and without
    it streaming uses every core the process may run on, as threads does."""
    import argparse

    from repro import cli
    from repro.parallel.executor import usable_cores

    engines = []
    make_executor = cli._make_executor

    def recording(idg, args):
        engines.append(make_executor(idg, args))
        return engines[-1]

    monkeypatch.setattr(cli, "_make_executor", recording)
    assert main(["image", str(sim_dataset), str(tmp_path / "w2.npz"),
                 "--grid-size", "256", "--executor", "streaming",
                 "--workers", "2"]) == 0
    assert engines[0].config.workers == 2
    defaults = argparse.Namespace(executor="streaming", workers=None, n_buffers=3)
    assert make_executor(engines[0].idg, defaults).config.workers == usable_cores()


def test_image_backend_flag(sim_dataset, tmp_path):
    """--backend selects the kernel backend; unknown names exit with the
    registry's helpful message instead of a traceback."""
    default_path = tmp_path / "default.npz"
    named_path = tmp_path / "named.npz"
    assert main(["image", str(sim_dataset), str(default_path),
                 "--grid-size", "256"]) == 0
    assert main(["image", str(sim_dataset), str(named_path),
                 "--grid-size", "256", "--backend", "vectorized"]) == 0
    with np.load(default_path) as a, np.load(named_path) as b:
        np.testing.assert_array_equal(b["image"], a["image"])
    with pytest.raises(SystemExit, match="unknown kernel backend"):
        main(["image", str(sim_dataset), str(tmp_path / "x.npz"),
              "--grid-size", "256", "--backend", "cuda"])


def test_image_processes_executor(sim_dataset, tmp_path):
    """--executor processes (spawn default: full pickle round trip) is
    bit-identical to serial from the CLI too."""
    serial_path = tmp_path / "serial.npz"
    procs_path = tmp_path / "procs.npz"
    assert main(["image", str(sim_dataset), str(serial_path),
                 "--grid-size", "256"]) == 0
    assert main(["image", str(sim_dataset), str(procs_path),
                 "--grid-size", "256", "--executor", "processes",
                 "--workers", "2"]) == 0
    with np.load(serial_path) as a, np.load(procs_path) as b:
        np.testing.assert_array_equal(a["image"], b["image"])


def test_image_checkpoint_and_resume_serial(sim_dataset, tmp_path):
    """image --checkpoint, then image --resume from that snapshot, on the
    serial executor: both write the plain run's image bit-exactly."""
    from repro.runtime import load_checkpoint

    plain_path = tmp_path / "plain.npz"
    ckpt_image = tmp_path / "ckpt-image.npz"
    resumed_image = tmp_path / "resumed.npz"
    snapshot = tmp_path / "grid.ckpt.npz"
    common = ["--grid-size", "256"]
    assert main(["image", str(sim_dataset), str(plain_path)] + common) == 0
    assert main(["image", str(sim_dataset), str(ckpt_image)] + common + [
        "--checkpoint", str(snapshot), "--checkpoint-interval", "1"]) == 0
    assert load_checkpoint(snapshot).completed.size > 0
    assert main(["image", str(sim_dataset), str(resumed_image)] + common + [
        "--resume", str(snapshot)]) == 0
    with np.load(plain_path) as a, np.load(ckpt_image) as b, \
            np.load(resumed_image) as c:
        assert np.array_equal(b["image"], a["image"])
        assert np.array_equal(c["image"], a["image"])
    # only image grids under a checkpoint; predict rejects the flag
    with pytest.raises(SystemExit):
        main(["predict", str(sim_dataset), str(plain_path),
              str(tmp_path / "pred.npz"), "--checkpoint", str(snapshot)])


def test_predict_roundtrip(sim_dataset, tmp_path):
    """clean -> predict: predicted model visibilities correlate strongly
    with the simulated data."""
    clean_path = tmp_path / "clean.npz"
    pred_path = tmp_path / "pred.npz"
    assert main(["clean", str(sim_dataset), str(clean_path),
                 "--grid-size", "256", "--major-cycles", "3",
                 "--minor-iterations", "150"]) == 0
    assert main(["predict", str(sim_dataset), str(clean_path),
                 str(pred_path)]) == 0
    truth = load_dataset(sim_dataset).visibilities
    pred = load_dataset(pred_path).visibilities
    x = truth[..., 0, 0].ravel()
    y = pred[..., 0, 0].ravel()
    corr = np.abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))
    assert corr > 0.9
    # the streaming executor degrids to the identical prediction
    stream_path = tmp_path / "pred_stream.npz"
    assert main(["predict", str(sim_dataset), str(clean_path),
                 str(stream_path), "--executor", "streaming"]) == 0
    np.testing.assert_array_equal(
        load_dataset(stream_path).visibilities, pred
    )


def test_perfmodel_command(sim_dataset, capsys):
    assert main(["perfmodel", str(sim_dataset), "--grid-size", "512"]) == 0
    out = capsys.readouterr().out
    assert "HASWELL" in out and "PASCAL" in out and "FIJI" in out
    assert "rho = 17" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_flag_command(sim_dataset, tmp_path, capsys):
    from repro.data.rfi import inject_rfi

    ds = load_dataset(sim_dataset)
    corrupted, _ = inject_rfi(ds, fraction=0.01, amplitude_factor=100.0, seed=5)
    from repro.data.io import save_dataset

    rfi_path = tmp_path / "rfi.npz"
    save_dataset(corrupted, rfi_path)
    out_path = tmp_path / "flagged.npz"
    assert main(["flag", str(rfi_path), str(out_path), "--threshold", "6"]) == 0
    flagged = load_dataset(out_path)
    assert flagged.flags.sum() > 0
    assert "flagged" in capsys.readouterr().out


def test_calibrate_command(tmp_path, capsys):
    """simulate a single calibrator, corrupt gains on disk, calibrate back."""
    import repro
    from repro.calibration import corrupt_with_gains, random_gains
    from repro.data.dataset import VisibilityDataset
    from repro.data.io import save_dataset
    from repro.sky.model import SkyModel

    obs = repro.ska1_low_observation(
        n_stations=8, n_times=16, n_channels=4,
        integration_time_s=240.0, max_radius_m=2000.0, seed=4,
    )
    gridspec = obs.fitting_gridspec(256)
    dl = gridspec.pixel_scale
    l0 = round(0.1 * gridspec.image_size / dl) * dl
    m0 = round(0.05 * gridspec.image_size / dl) * dl
    sky = SkyModel.single(l0, m0, flux=3.0)
    ds = VisibilityDataset.simulate(obs, sky)
    truth = random_gains(8, seed=6)
    corrupted = ds.with_visibilities(
        corrupt_with_gains(ds.visibilities, truth, ds.baselines)
    )
    in_path = tmp_path / "corrupted.npz"
    out_path = tmp_path / "calibrated.npz"
    save_dataset(corrupted, in_path)

    assert main(["calibrate", str(in_path), str(out_path),
                 "--model-l", str(l0), "--model-m", str(m0),
                 "--model-flux", "3.0"]) == 0
    calibrated = load_dataset(out_path)
    err = np.abs(calibrated.visibilities - ds.visibilities)
    assert err.max() / np.abs(ds.visibilities).max() < 1e-3


def test_report_command(sim_dataset, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["report", str(sim_dataset), "--grid-size", "512",
                 "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "Fig 16" in out
    assert out_path.exists()


def test_serve_command(sim_dataset, capsys):
    assert main(["serve", str(sim_dataset), "--grid-size", "256",
                 "--subgrid-size", "16", "--tenants", "2", "--requests", "3",
                 "--distinct", "2"]) == 0
    out = capsys.readouterr().out
    assert "req/s" in out
    assert "tenant-0" in out and "tenant-1" in out
    assert "counter reconciliation: exact" in out


def test_bench_service_command(sim_dataset, tmp_path, capsys):
    out_path = tmp_path / "service.json"
    assert main(["bench-service", str(sim_dataset), "--grid-size", "256",
                 "--subgrid-size", "16", "--tenants", "2", "--requests", "3",
                 "--distinct", "2", "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "coalesced" in out and "uncoalesced" in out
    import json

    payload = json.loads(out_path.read_text())
    assert payload["speedup"] > 0
    for mode in ("coalesced", "uncoalesced"):
        assert payload[mode]["requests_per_s"] > 0
        assert all(payload[mode]["reconciliation"].values())
