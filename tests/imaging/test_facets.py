"""Facet geometry: tiling, phase rotation and the uvw shift."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridspec import GridSpec
from repro.imaging.facets import (
    Facet,
    embed_tile,
    extract_tile,
    facet_rotation_phasor,
    facet_shifted_uvw,
    plan_facets,
)
from repro.kernels.wkernel import n_term


@pytest.fixture(scope="module")
def master():
    return GridSpec(grid_size=128, image_size=0.1)


def test_plan_facets_tiles_cover_master(master):
    scheme = plan_facets(master, 2)
    assert len(scheme.facets) == 4
    assert scheme.tile_size == 64
    covered = np.zeros((128, 128), dtype=int)
    for facet in scheme.facets:
        covered[
            facet.row0 : facet.row0 + scheme.tile_size,
            facet.col0 : facet.col0 + scheme.tile_size,
        ] += 1
    assert (covered == 1).all()


def test_plan_facets_centres_on_pixel_grid(master):
    scheme = plan_facets(master, 2)
    dl = master.pixel_scale
    for facet in scheme.facets:
        # centres are exact multiples of the pixel scale, offset from centre
        assert abs(facet.l0 / dl - round(facet.l0 / dl)) < 1e-9
        assert abs(facet.m0 / dl - round(facet.m0 / dl)) < 1e-9
    # facets are distinct directions
    centres = {(f.l0, f.m0) for f in scheme.facets}
    assert len(centres) == 4


def test_plan_facets_validates(master):
    with pytest.raises(ValueError):
        plan_facets(master, 0)
    with pytest.raises(ValueError):
        plan_facets(master, 3)  # 128 not divisible by 3
    with pytest.raises(ValueError):
        plan_facets(master, 2, padding=0.5)


def test_facet_grid_shares_pixel_scale(master):
    scheme = plan_facets(master, 2, padding=1.5)
    assert scheme.gridspec.pixel_scale == pytest.approx(master.pixel_scale)
    assert scheme.gridspec.grid_size >= scheme.tile_size


def test_extract_embed_round_trip(master):
    scheme = plan_facets(master, 2)
    rng = np.random.default_rng(5)
    model = rng.standard_normal((128, 128))
    for facet in scheme.facets:
        lifted = embed_tile(model, scheme, facet)
        assert lifted.shape == (
            scheme.gridspec.grid_size,
            scheme.gridspec.grid_size,
        )
        back = extract_tile(lifted, scheme, facet)
        t = scheme.tile_size
        np.testing.assert_array_equal(
            back,
            model[facet.row0 : facet.row0 + t, facet.col0 : facet.col0 + t],
        )


def test_rotation_phasor_matches_package_convention():
    """The phasor is the exact conjugate of the measurement-equation phase
    at the facet centre: rotating a point source at (l0, m0) makes its
    visibilities flat (the source lands at the rotated phase centre)."""
    from repro.sky.model import SkyModel
    from repro.sky.simulate import predict_visibilities
    from repro.telescope.observation import ska1_low_observation

    obs = ska1_low_observation(
        n_stations=5, n_times=4, n_channels=2, integration_time_s=120.0,
        max_radius_m=1500.0, seed=2,
    )
    baselines = obs.array.baselines()
    l0, m0 = 0.02, -0.015
    vis = predict_visibilities(
        obs.uvw_m, obs.frequencies_hz, SkyModel.single(l0, m0, flux=1.0),
        baselines=baselines,
    )
    phasor = facet_rotation_phasor(
        obs.uvw_m, obs.frequencies_hz, l0, m0, sign=+1.0
    )
    rotated = vis[..., 0, 0] * phasor
    # flat visibilities: every sample equals the source flux
    np.testing.assert_allclose(rotated, 1.0, atol=1e-6)


def test_rotation_phasor_signs_are_inverse():
    uvw = np.random.default_rng(0).standard_normal((3, 4, 3)) * 100.0
    freqs = np.array([150e6, 160e6])
    fwd = facet_rotation_phasor(uvw, freqs, 0.01, 0.02, sign=+1.0)
    back = facet_rotation_phasor(uvw, freqs, 0.01, 0.02, sign=-1.0)
    np.testing.assert_allclose(fwd * back, 1.0, atol=1e-12)


def test_shifted_uvw_identity_at_field_centre():
    uvw = np.random.default_rng(1).standard_normal((3, 4, 3))
    centre = Facet(index=(0, 0), l0=0.0, m0=0.0, row0=0, col0=0)
    assert facet_shifted_uvw(uvw, centre) is uvw


def test_shifted_uvw_applies_tangent_slope():
    uvw = np.zeros((1, 1, 3))
    uvw[0, 0] = (10.0, 20.0, 40.0)
    l0, m0 = 0.03, -0.04
    facet = Facet(index=(0, 0), l0=l0, m0=m0, row0=0, col0=0)
    out = facet_shifted_uvw(uvw, facet)
    s0 = np.sqrt(1.0 - l0 * l0 - m0 * m0)
    assert out[0, 0, 0] == pytest.approx(10.0 + 40.0 * l0 / s0)
    assert out[0, 0, 1] == pytest.approx(20.0 + 40.0 * m0 / s0)
    assert out[0, 0, 2] == 40.0
    # input untouched
    assert uvw[0, 0, 0] == 10.0
    # slope is d n_term / dl at the facet centre
    eps = 1e-7
    slope = (n_term(l0 + eps, m0) - n_term(l0 - eps, m0)) / (2 * eps)
    assert l0 / s0 == pytest.approx(float(slope), rel=1e-5)


# ------------------------------------------------- rotation memory footprint

#: Peak traced bytes of the former rotation, ``(visibilities *
#: phasor).astype(complex64)``, on the set below: a complex128 phasor, a
#: complex128 product and the complex64 result.
COMPLEX128_ROTATION_PEAK = 62.3 * 2**20


@pytest.fixture(scope="module")
def rotation_set():
    """190 baselines x 96 times x 32 channels x 2 x 2 complex64 (17.8 MiB)."""
    rng = np.random.default_rng(3)
    uvw = rng.uniform(-2000.0, 2000.0, (190, 96, 3))
    freqs = 1.2e8 + 2e5 * np.arange(32)
    shape = (190, 96, 32, 2, 2)
    vis = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )
    facet = Facet(index=(0, 1), l0=0.02, m0=-0.03, row0=0, col0=64)
    return uvw, freqs, vis, facet


def _traced_peak(fn):
    """``(fn(), peak bytes allocated while it ran)`` under tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_rotation_rounds_as_it_writes(rotation_set):
    """Four correlations rotate bit-identically to the complex128 product,
    without ever holding that product."""
    from repro.imaging.pipeline import _rotate_visibilities

    uvw, freqs, vis, facet = rotation_set
    rotated, peak = _traced_peak(
        lambda: _rotate_visibilities(vis, uvw, freqs, facet, +1.0)
    )
    phasor = facet_rotation_phasor(uvw, freqs, facet.l0, facet.m0, +1.0)
    expected = (vis * phasor[..., np.newaxis, np.newaxis]).astype(np.complex64)
    assert np.array_equal(rotated, expected)
    assert peak < COMPLEX128_ROTATION_PEAK / 2


def test_stokes_i_rotation_peak_under_a_third(rotation_set):
    """A facet that grids one correlation reduces to ``0.5 (XX + YY)``
    before rotating: its peak stays under a third of the complex128 path's,
    and it agrees with reducing the rotated correlations to float32
    rounding."""
    from repro.imaging.pipeline import _rotate_visibilities, _stokes_i_visibilities

    uvw, freqs, vis, facet = rotation_set
    rotated, peak = _traced_peak(
        lambda: _rotate_visibilities(
            _stokes_i_visibilities(vis), uvw, freqs, facet, +1.0
        )
    )
    assert peak < COMPLEX128_ROTATION_PEAK / 3
    reference = _stokes_i_visibilities(
        _rotate_visibilities(vis, uvw, freqs, facet, +1.0)
    )
    scale = np.abs(reference).max()
    assert np.abs(rotated - reference).max() <= 1e-6 * scale
