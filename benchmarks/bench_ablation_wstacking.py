"""Ablation: W-stacking planes vs subgrid size (paper Section IV).

"Larger subgrids (e.g. up to 64 x 64) can be used in connection with
W-stacking to dramatically limit the number of required W-planes."  On a
wide-field workload where w-terms genuinely alias, this bench sweeps the
(subgrid size, w planes) grid and reports degridding accuracy plus the
W-stacking memory cost — the two axes of the paper's trade.
"""

import numpy as np
import pytest
from _util import print_series

from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG, IDGConfig
from repro.imaging.pipeline import (
    ImagingContext,
    TwoDimFTProcessor,
    WStackFTProcessor,
    plan_coverage,
)
from repro.kernels.wkernel import required_w_planes
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation


@pytest.fixture(scope="module")
def wide_field():
    obs = ska1_low_observation(
        n_stations=12, n_times=32, n_channels=4,
        integration_time_s=300.0, max_radius_m=600.0, seed=3,
    )
    gs = obs.fitting_gridspec(512)
    dl = gs.pixel_scale
    l0 = round(0.25 * gs.image_size / dl) * dl
    m0 = round(0.20 * gs.image_size / dl) * dl
    sky = SkyModel.single(l0, m0, flux=1.0)
    bl = obs.array.baselines()
    vis = predict_visibilities(obs.uvw_m, obs.frequencies_hz, sky, baselines=bl)
    g = gs.grid_size
    model = np.zeros((4, g, g), dtype=np.complex128)
    model[0, round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = 1.0
    model[3, round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = 1.0
    return obs, gs, bl, vis, model


def _rms(obs, gs, bl, vis, model, subgrid, planes):
    idg = IDG(gs, IDGConfig(subgrid_size=subgrid,
                            kernel_support=max(2, subgrid // 4), time_max=8))
    ctx = ImagingContext(idg, obs.uvw_m, obs.frequencies_hz, bl)
    processor = (
        TwoDimFTProcessor(ctx) if planes == 1
        else WStackFTProcessor(ctx, n_w_planes=planes)
    )
    pred = processor.predict(model)
    sel = plan_coverage(processor.plan)[..., None, None] & np.ones_like(vis, bool)
    scale = np.sqrt((np.abs(vis[sel]) ** 2).mean())
    return np.sqrt((np.abs(pred[sel] - vis[sel]) ** 2).mean()) / scale


def _grid_copy_mb(gs, planes):
    """Memory of one master-grid copy per w plane — what a pipeline that
    holds every layer at once (a GPU) pays for the planes."""
    return planes * 4 * gs.grid_size**2 * np.dtype(COMPLEX_DTYPE).itemsize / 1e6


def test_ablation_wstacking(benchmark, wide_field):
    obs, gs, bl, vis, model = wide_field
    combos = [(16, 1), (16, 4), (16, 16), (48, 1), (48, 2)]

    results = benchmark(
        lambda: {
            (n, p): _rms(obs, gs, bl, vis, model, n, p) for (n, p) in combos
        }
    )
    # one plane is plain 2-D IDG (no w shift), not a single mean-w layer
    rows = [
        (n, "1 (2-D)" if p == 1 else p, rms, _grid_copy_mb(gs, p))
        for (n, p), rms in results.items()
    ]
    print_series(
        "Ablation: W-stacking planes x subgrid size (wide field)",
        ["subgrid N", "w planes", "degrid rel rms", "grid-copy MB"],
        rows,
    )

    rms = results
    # more planes rescue a small subgrid
    assert rms[(16, 16)] < rms[(16, 1)] / 5
    # a large subgrid needs far fewer planes for comparable accuracy
    assert rms[(48, 2)] < 3 * rms[(16, 16)]
    # analytic plane-count estimate agrees in direction: larger support
    # budget -> fewer required planes
    w_max = obs.max_w_wavelengths()
    assert required_w_planes(w_max, gs.image_size, max_support=12) <= \
        required_w_planes(w_max, gs.image_size, max_support=4)
