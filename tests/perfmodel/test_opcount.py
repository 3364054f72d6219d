"""Unit tests for operation/byte counting."""

import numpy as np
import pytest

from repro.perfmodel.opcount import (
    FMAS_PER_PIXEL_VIS,
    adder_counts,
    degridder_counts,
    gridder_counts,
    splitter_counts,
    subgrid_fft_counts,
    wprojection_counts,
)


def _total_pixel_vis(plan):
    n2 = plan.subgrid_size**2
    return n2 * sum(item.n_visibilities for item in plan)


def test_gridder_sincos_count_is_pixel_vis_products(paper_like_plan):
    counts = gridder_counts(paper_like_plan)
    assert counts.sincos_evals == _total_pixel_vis(paper_like_plan)


def test_gridder_rho_is_seventeen(paper_like_plan):
    """The Algorithm 1 caption: 17 FMAs per sincos (plus small corrections)."""
    counts = gridder_counts(paper_like_plan)
    assert counts.rho == pytest.approx(FMAS_PER_PIXEL_VIS, rel=0.01)


def test_gridder_degridder_symmetric_core(paper_like_plan):
    g = gridder_counts(paper_like_plan)
    d = degridder_counts(paper_like_plan)
    assert g.sincos_evals == d.sincos_evals
    assert g.fmas == d.fmas
    assert g.visibilities == d.visibilities


def test_ops_metric_definition(paper_like_plan):
    counts = gridder_counts(paper_like_plan)
    assert counts.ops == 2 * counts.fmas + 2 * counts.sincos_evals
    assert counts.flops == 2 * counts.fmas


def test_gridder_compute_bound(paper_like_plan):
    """Section VI-B: both kernels are compute bound — OI in the hundreds."""
    assert gridder_counts(paper_like_plan).operational_intensity > 50
    assert degridder_counts(paper_like_plan).operational_intensity > 50


def test_shared_intensity_order_unity(paper_like_plan):
    """Fig 13: shared-memory OI is O(1) ops/byte, far below the device OI."""
    g = gridder_counts(paper_like_plan)
    assert 0.1 < g.shared_intensity < 5
    assert g.shared_intensity < g.operational_intensity


def test_aterms_add_work_and_bytes(paper_like_plan):
    plain = gridder_counts(paper_like_plan, with_aterms=False)
    with_a = gridder_counts(paper_like_plan, with_aterms=True)
    assert with_a.fmas > plain.fmas
    assert with_a.bytes_device > plain.bytes_device
    # and the relative increase is small — the paper's "negligible cost"
    assert with_a.ops / plain.ops < 1.05


def test_fft_counts_scale(paper_like_plan):
    counts = subgrid_fft_counts(paper_like_plan)
    n = paper_like_plan.subgrid_size
    k = paper_like_plan.n_subgrids
    assert counts.flops == pytest.approx(k * 4 * 10 * n * n * np.log2(n))
    assert counts.sincos_evals == 0


def test_adder_splitter_memory_dominated(paper_like_plan):
    a = adder_counts(paper_like_plan)
    s = splitter_counts(paper_like_plan)
    assert a.operational_intensity < 1.0
    assert s.ops == 0
    assert a.bytes_device == pytest.approx(1.5 * s.bytes_device)  # r/w vs copy


def test_visibility_totals_match_plan(paper_like_plan):
    st = paper_like_plan.statistics
    assert gridder_counts(paper_like_plan).visibilities == st.n_visibilities_gridded


def test_one_correlation_counts(paper_like_plan):
    """Stokes I alone: 5 FMAs per (pixel, visibility) — the phase plus one
    complex multiply-add — instead of 17, the same sincos count, a quarter
    of the visibility and subgrid bytes, one subgrid FFT per subgrid and one
    grid plane in the adder."""
    pixel_vis = _total_pixel_vis(paper_like_plan)
    for counts in (gridder_counts, degridder_counts):
        four, one = counts(paper_like_plan), counts(paper_like_plan, correlations=1)
        assert one.sincos_evals == four.sincos_evals == pixel_vis
        assert one.rho == pytest.approx(5, rel=0.01)
        assert one.fmas < four.fmas / 3
        assert one.bytes_device < four.bytes_device / 3
        assert one.visibilities == four.visibilities
        with_a = counts(paper_like_plan, with_aterms=True, correlations=1)
        assert one.fmas < with_a.fmas < four.fmas
    four_fft = subgrid_fft_counts(paper_like_plan)
    one_fft = subgrid_fft_counts(paper_like_plan, correlations=1)
    assert one_fft.flops == pytest.approx(four_fft.flops / 4)
    assert one_fft.bytes_device == pytest.approx(four_fft.bytes_device / 4)
    four_add = adder_counts(paper_like_plan)
    one_add = adder_counts(paper_like_plan, correlations=1)
    assert one_add.fmas == pytest.approx(four_add.fmas / 4)
    assert one_add.bytes_device == pytest.approx(four_add.bytes_device / 4)


@pytest.mark.parametrize(
    "counts", [gridder_counts, degridder_counts, subgrid_fft_counts, adder_counts]
)
def test_correlations_must_be_one_or_four(paper_like_plan, counts):
    with pytest.raises(ValueError, match="correlations"):
        counts(paper_like_plan, correlations=2)


def test_wprojection_counts_quadratic_in_support():
    small = wprojection_counts(1000, support=8)
    large = wprojection_counts(1000, support=16)
    assert large.fmas == 4 * small.fmas
    assert large.bytes_device == 4 * small.bytes_device
    assert small.sincos_evals == 0
    assert small.rho == float("inf")


def test_wprojection_validation():
    with pytest.raises(ValueError):
        wprojection_counts(10, support=0)
