"""The single-precision bucket kernels against the float64 oracle.

The production kernels (:mod:`repro.core.gridder`, :mod:`repro.core.degridder`)
form each factor-row phase in float64, round it once to float32, and run the
phasors, the channel recurrence and the products in complex64: the paper's
single precision (Section VI-A).  The literal loop kernels of
:mod:`repro.core.reference` run in float64 throughout.

Each case grids and degrids one bucket at one of the benchmark's ``(T, C)``
bucket shapes, with and without A-terms, plus a ``C = 512`` bucket eight
renormalisation intervals deep (without A-terms, which act on pixels, not on
channels), through both layouts of the one kernel pair: a row per timestep
with the channel recurrence, and a row per sample with one channel (the
direct sum the drivers run on an uneven channel ladder).  Every
output must be within ``1e-5`` of the oracle's peak: the differential
harness's budget.  ``T`` is shrunk where the oracle's Python loops would
take seconds; the errors are per visibility and do not grow with it.  The geometry is a plan's: coordinates relative to the subgrid
centre stay inside the subgrid, so ``|l a_u|`` stays below ``N/4`` cycles.
"""

import numpy as np
import pytest

from repro.aterms.jones import apply_adjoint_sandwich, apply_sandwich
from repro.constants import COMPLEX_DTYPE, SPEED_OF_LIGHT
from repro.core.degridder import degridder_bucket
from repro.core.gridder import PHASOR_RENORM_INTERVAL, gridder_bucket, subgrid_lmn
from repro.core.reference import (
    reference_degridder,
    reference_gridder,
    relative_uvw_wavelengths,
)
from repro.kernels.spheroidal import spheroidal_taper

N = 24
IMAGE_SIZE = 0.1  # 10-wavelength uv cells: the subgrid spans +-120 wavelengths
BUDGET = 1e-5

#: The C = 512 bucket, eight renormalisation intervals deep.
DEEP = (1, 8 * PHASOR_RENORM_INTERVAL)

#: ``(benchmark T, C) -> (T run here, items G, channel width in Hz)``.
CASES = {
    (32, 16): (4, 2, 200e3),  # cycle-1024
    (96, 32): (2, 2, 200e3),  # wideband-threads
    (8, 4): (8, 2, 200e3),  # selfcal-wstack
    (16, 16): (4, 2, 200e3),  # store-roundtrip
    DEEP: (1, 1, 10e3),
}

#: ``(shape, with_aterms)`` per test case.
BUCKETS = [
    pytest.param(shape, with_aterms, id=f"T{shape[0]}-C{shape[1]}-{label}")
    for shape in CASES
    for with_aterms, label in ((False, "no-aterms"), (True, "aterms"))
    if not (with_aterms and shape == DEEP)
]


def _bucket(benchmark_shape, with_aterms):
    """Inputs of one bucket: each item's per-timestep start and step
    coordinates, and its ``(T*C, 3)`` relative uvw."""
    n_times, g_total, channel_width = CASES[benchmark_shape]
    n_channels = benchmark_shape[1]
    rng = np.random.default_rng(sum(benchmark_shape))
    freqs = 150e6 + channel_width * np.arange(n_channels)
    scales = freqs / SPEED_OF_LIGHT
    centre = rng.uniform(-2000.0, 2000.0, (g_total, 3)) * np.array([1.0, 1.0, 0.05])
    drift = rng.uniform(-40.0, 40.0, (g_total, n_times, 3))
    uvw_m = (centre[:, np.newaxis] + drift) / scales.mean()
    offsets = centre * np.array([1.0, 1.0, 0.5])  # w offset: a w-stack plane
    rel = np.stack([
        relative_uvw_wavelengths(uvw_m[g], freqs, *offsets[g]) for g in range(g_total)
    ])
    assert np.abs(rel[..., :2]).max() < N / 2 / IMAGE_SIZE
    vis = rng.standard_normal((g_total, n_times, n_channels, 4, 2)) @ [1.0, 1j]
    sub = rng.standard_normal((g_total, N, N, 2, 2, 2)) @ [1.0, 1j]
    aterms = {}
    if with_aterms:
        for key in ("aterm_p", "aterm_q"):
            noise = rng.standard_normal((g_total, N, N, 2, 2, 2)) @ [1.0, 1j]
            aterms[key] = np.eye(2) + 0.3 * noise
    return dict(
        vis=vis.astype(COMPLEX_DTYPE),
        sub=sub.astype(COMPLEX_DTYPE),
        start=uvw_m * scales[0] - offsets[:, np.newaxis],
        step=uvw_m * (scales[1] - scales[0]) if n_channels > 1 else None,
        rel=rel,
        aterms=aterms,
    )


def _item_aterms(aterms, g):
    return {key: field[g] for key, field in aterms.items()}


def _assert_within_budget(kernel, oracle, label):
    peak = float(np.abs(oracle).max())
    error = float(np.abs(kernel - oracle).max())
    assert error <= BUDGET * peak, f"{label}: max |error| {error / peak:.2e} of peak"


@pytest.fixture(scope="module")
def raster():
    return subgrid_lmn(N, IMAGE_SIZE), spheroidal_taper(N)


@pytest.mark.parametrize("shape, with_aterms", BUCKETS)
def test_gridders_match_the_float64_oracle(raster, shape, with_aterms):
    lmn, taper = raster
    b = _bucket(shape, with_aterms)
    g_total, n_times, n_channels = b["vis"].shape[:3]
    oracle = np.stack([
        reference_gridder(
            b["vis"][g].reshape(-1, 2, 2), b["rel"][g], N, IMAGE_SIZE, taper,
            **_item_aterms(b["aterms"], g),
        )
        for g in range(g_total)
    ])
    fast = gridder_bucket(
        b["vis"], b["start"], b["step"], lmn, taper, **b["aterms"]
    ).copy()
    _assert_within_budget(fast, oracle, "recurrence gridder")
    direct = gridder_bucket(
        b["vis"].reshape(g_total, n_times * n_channels, 1, 4), b["rel"], None,
        lmn, taper, **b["aterms"],
    )
    _assert_within_budget(direct, oracle, "one-channel gridder")


@pytest.mark.parametrize("shape, with_aterms", BUCKETS)
def test_degridders_match_the_float64_oracle(raster, shape, with_aterms):
    lmn, taper = raster
    b = _bucket(shape, with_aterms)
    g_total, n_times, n_channels = b["vis"].shape[:3]
    oracle = np.stack([
        reference_degridder(
            b["sub"][g], b["rel"][g], IMAGE_SIZE, taper, **_item_aterms(b["aterms"], g)
        )
        for g in range(g_total)
    ]).reshape(g_total, n_times, n_channels, 4)
    fast = degridder_bucket(
        b["sub"], b["start"], b["step"], n_channels, lmn, taper, **b["aterms"]
    )
    assert fast.dtype == COMPLEX_DTYPE
    _assert_within_budget(fast, oracle, "recurrence degridder")
    direct = degridder_bucket(b["sub"], b["rel"], None, 1, lmn, taper, **b["aterms"])
    assert direct.dtype == COMPLEX_DTYPE
    _assert_within_budget(
        direct.reshape(g_total, n_times, n_channels, 4), oracle, "one-channel degridder"
    )


# ------------------------------------------------- entry-wise Jones sandwiches


def _field(rng, shape):
    return rng.standard_normal(shape + (2, 2, 2)) @ [1.0, 1j]


@pytest.mark.parametrize(
    "shapes",
    [
        ((3, N, N), (3, N, N), (3, N, N)),  # a bucket of per-item fields
        ((), (5, 4), ()),  # one Jones matrix per station over many sources
        ((5, 1), (5, 4), (4,)),  # mixed broadcasting
    ],
    ids=["bucket", "scalar-jones", "broadcast"],
)
def test_sandwiches_match_their_einsum_definition(shapes):
    """The entry-wise sandwiches equal the einsum contractions they replace,
    ``A_p B A_q^H`` and ``A_p^H S A_q``, to float64 rounding."""
    rng = np.random.default_rng(23)
    a_p, b, a_q = (_field(rng, shape) for shape in shapes)
    forward = np.einsum("...ij,...jk,...lk->...il", a_p, b, a_q.conj())
    adjoint = np.einsum("...ji,...jk,...kl->...il", a_p.conj(), b, a_q)
    for got, want in ((apply_sandwich(a_p, b, a_q), forward),
                      (apply_adjoint_sandwich(a_p, b, a_q), adjoint)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
