#!/usr/bin/env python
"""Wide-field imaging: when w-terms bite and W-stacking rescues them.

Paper Section IV: IDG handles the w-term exactly per visibility, but the
image-domain w screen widens the effective kernel with |w - w_offset|; once
it outgrows the subgrid's anti-aliasing headroom, accuracy degrades.  The
remedies are larger subgrids or W-stacking — "larger subgrids (e.g. up to
64 x 64) can be used in connection with W-stacking to dramatically limit
the number of required W-planes".

This example builds a compact, *wide-field* observation (a 0.6 km array
imaged over ~8 degrees, where the w kernel support reaches ~6 uv cells),
then sweeps both remedies and prints the accuracy/cost matrix.

Run:  python examples/widefield_wstacking.py
"""

import time

import numpy as np

import repro
from repro.imaging.pipeline import (
    ImagingContext,
    TwoDimFTProcessor,
    WStackFTProcessor,
    plan_coverage,
)
from repro.kernels.wkernel import required_w_planes, w_kernel_support


def main() -> None:
    obs = repro.ska1_low_observation(
        n_stations=14, n_times=48, n_channels=4,
        integration_time_s=300.0, max_radius_m=600.0, seed=3,
    )
    gridspec = obs.fitting_gridspec(512)
    w_max = obs.max_w_wavelengths()
    print(f"field of view {np.degrees(gridspec.image_size):.1f} deg, "
          f"max |w| = {w_max:.0f} wavelengths")
    print(f"w kernel support at w_max: {w_kernel_support(w_max, gridspec.image_size)} "
          f"uv cells; analytic plane count to cap support at 4 cells: "
          f"{required_w_planes(w_max, gridspec.image_size, max_support=4)}")

    dl = gridspec.pixel_scale
    l0 = round(0.25 * gridspec.image_size / dl) * dl
    m0 = round(0.20 * gridspec.image_size / dl) * dl
    sky = repro.SkyModel.single(l0, m0, flux=1.0)
    baselines = obs.array.baselines()
    vis = repro.predict_visibilities(obs.uvw_m, obs.frequencies_hz, sky,
                                     baselines=baselines)
    g = gridspec.grid_size
    model = np.zeros((4, g, g), dtype=np.complex128)
    model[0, round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = 1.0
    model[3, round(m0 / dl) + g // 2, round(l0 / dl) + g // 2] = 1.0

    print(f"\n{'subgrid':>8} {'w planes':>9} {'degrid rel rms':>15} "
          f"{'predict [s]':>12}")
    for subgrid, planes in ((16, 1), (16, 4), (16, 16), (48, 1), (48, 2)):
        idg = repro.IDG(gridspec, repro.IDGConfig(
            subgrid_size=subgrid, kernel_support=max(2, subgrid // 4), time_max=8,
        ))
        ctx = ImagingContext(idg, obs.uvw_m, obs.frequencies_hz, baselines)
        processor = (
            TwoDimFTProcessor(ctx) if planes == 1
            else WStackFTProcessor(ctx, n_w_planes=planes)
        )
        t0 = time.perf_counter()
        predicted = processor.predict(model)
        elapsed = time.perf_counter() - t0
        covered = plan_coverage(processor.plan)
        sel = covered[..., None, None] & np.ones_like(vis, bool)
        scale = np.sqrt((np.abs(vis[sel]) ** 2).mean())
        rms = np.sqrt((np.abs(predicted[sel] - vis[sel]) ** 2).mean()) / scale
        print(f"{subgrid:>8} {planes:>9} {rms:>15.5f} {elapsed:>12.2f}")

    print("\nBoth remedies work: 16 planes rescue the 16-pixel subgrid, and a "
          "48-pixel subgrid needs only 2 planes\n— the Section IV trade between "
          "subgrid arithmetic and grid-copy memory.")


if __name__ == "__main__":
    main()
