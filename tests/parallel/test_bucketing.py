"""Unit tests for the shape-bucketing pass and its gather/scatter plumbing."""

import numpy as np
import pytest

from repro.aterms.jones import identity_jones_field
from repro.core.scratch import ScratchArena
from repro.parallel.bucketing import (
    DEFAULT_BATCH_BYTES,
    aterm_table,
    bucket_work_items,
    call_tables,
    degrid_work_group,
    gather_aterm_table,
    gather_coordinates,
    gather_uvw,
    gather_visibilities,
    grid_work_group,
    iter_bucket_chunks,
    max_bucket_items,
    scatter_visibilities,
    uniform_channel_step,
)
from repro.constants import SPEED_OF_LIGHT
from repro.telescope.observation import ska1_low_observation


# --------------------------------------------------------------- bucketing


def test_every_item_lands_in_exactly_one_bucket(small_plan):
    start, stop = 0, small_plan.n_subgrids
    buckets = bucket_work_items(small_plan, start, stop)
    gathered = np.concatenate([b.indices for b in buckets])
    assert len(gathered) == stop - start
    assert sorted(gathered.tolist()) == list(range(start, stop))


def test_bucket_shapes_match_their_items(small_plan):
    buckets = bucket_work_items(small_plan, 0, small_plan.n_subgrids)
    items = small_plan.items
    for bucket in buckets:
        rows = items[bucket.indices]
        np.testing.assert_array_equal(
            rows["time_end"] - rows["time_start"], bucket.n_times
        )
        np.testing.assert_array_equal(
            rows["channel_end"] - rows["channel_start"], bucket.n_channels
        )
        assert bucket.n_visibilities == (
            bucket.n_items * bucket.n_times * bucket.n_channels
        )


def test_bucket_indices_ascend_and_subranges_cover(small_plan):
    """Bucketing a sub-range only sees that range, in ascending plan order."""
    start, stop = 3, min(17, small_plan.n_subgrids)
    buckets = bucket_work_items(small_plan, start, stop)
    for bucket in buckets:
        assert (np.diff(bucket.indices) > 0).all()
        assert bucket.indices.min() >= start
        assert bucket.indices.max() < stop
    gathered = sorted(np.concatenate([b.indices for b in buckets]).tolist())
    assert gathered == list(range(start, stop))


def test_iter_bucket_chunks_partitions_in_order(small_plan):
    (bucket, *_rest) = bucket_work_items(small_plan, 0, small_plan.n_subgrids)
    chunks = list(iter_bucket_chunks(bucket, 3))
    assert all(len(c) <= 3 for c in chunks)
    np.testing.assert_array_equal(np.concatenate(chunks), bucket.indices)
    with pytest.raises(ValueError):
        list(iter_bucket_chunks(bucket, 0))


def test_max_bucket_items_respects_budget():
    # per item, T rows of C = 4 channels: a complex64 phasor and a step,
    # 2 x 576 x T x 8 B, plus four (576, 4) complex128 pixel buffers,
    # 4 x 576 x 4 x 16 B = 147456 B; T = 16: 147456 + 147456 = 294912 B
    assert max_bucket_items(576, 16, 4, budget_bytes=2**20) == 3
    assert max_bucket_items(576, 16, 4, budget_bytes=1) == 1  # floor of 1
    assert max_bucket_items(0, 0, 1, budget_bytes=2**20) >= 1
    # the default 2 MiB budget at the benchmark's bucket shapes (N = 24)
    assert DEFAULT_BATCH_BYTES == 2**21
    for n_times, items in ((96, 2), (32, 4), (16, 7), (8, 9)):
        assert max_bucket_items(576, n_times, 4) == items


def test_max_bucket_items_counts_the_correlation_columns():
    # one correlation: the four (576, K) complex128 buffers shrink from
    # 147456 B to 36864 B per item, so more items fit the same 2 MiB
    for n_times, items in ((96, 2), (32, 6), (16, 11), (8, 18)):
        assert max_bucket_items(576, n_times, 4, n_correlations=1) == items
        assert max_bucket_items(576, n_times, 4, n_correlations=4) == max_bucket_items(
            576, n_times, 4
        )


@pytest.mark.parametrize(("n_correlations", "stepped", "one_channel"), [(4, 4, 7), (1, 6, 11)])
def test_max_bucket_items_counts_the_step_only_for_rows_of_several_channels(
    n_correlations, stepped, one_channel
):
    """Both kernels build the channel step only for rows of more than one
    channel.  32 one-channel rows per item (T * C = 32 on an uneven ladder)
    cost a 576 x 32 x 8 B = 147456 B phasor and no step, so at N = 24 the
    2 MiB budget fits 7 items with four correlations (147456 + 147456 B
    each) and 11 with one (147456 + 36864 B), where 32 rows of several
    channels fit 4 and 6."""
    assert max_bucket_items(576, 32, 2, n_correlations=n_correlations) == stepped
    assert max_bucket_items(576, 32, 1, n_correlations=n_correlations) == one_channel


def test_gather_aterm_fields_rejects_a_field_of_other_correlations(small_plan):
    """A 1x1 field must not broadcast into the 2x2 views of a
    four-correlation call (nor a 2x2 one into 1x1 views)."""
    n = small_plan.subgrid_size
    row = small_plan.items[0]
    key = (int(row["station_p"]), int(row["aterm_interval"]))
    indices = np.arange(3)
    for field_a, call_a in ((1, 2), (2, 1)):
        fields = {key: identity_jones_field(n, a=field_a)}
        with pytest.raises(ValueError, match="A-term field"):
            aterm_table(small_plan, fields, identity_jones_field(n, a=call_a))
    table = aterm_table(
        small_plan, {key: identity_jones_field(n, a=1)}, identity_jones_field(n, a=1)
    )
    a_p, a_q = gather_aterm_table(small_plan, indices, table, ScratchArena())
    assert a_p.shape == a_q.shape == (3, n, n, 1, 1)


def test_uniform_channel_step():
    uniform = np.array([1.0e8, 1.1e8, 1.2e8, 1.3e8])
    step = uniform_channel_step(uniform)
    assert step == pytest.approx(0.1e8 / SPEED_OF_LIGHT)
    assert uniform_channel_step(np.array([1.0e8])) == 0.0
    ragged = np.array([1.0e8, 1.1e8, 1.25e8])
    assert uniform_channel_step(ragged) is None
    # a 1 kHz ladder with one channel 2.5 Hz off is not uniform (numpy's
    # default atol of 1e-8, in units of 1/m, would accept it)
    khz = 1.5e8 + 1e3 * np.arange(16)
    assert uniform_channel_step(khz) == pytest.approx(1e3 / SPEED_OF_LIGHT)
    khz[9] += 2.5
    assert uniform_channel_step(khz) is None
    # the simulated 200 kHz subband and a linspace ladder stay uniform
    freqs = ska1_low_observation(n_stations=4, n_times=2, n_channels=64).frequencies_hz
    assert uniform_channel_step(freqs) == pytest.approx(200e3 / SPEED_OF_LIGHT)
    spaced = np.linspace(1.2e8, 1.9e8, 97)
    assert uniform_channel_step(spaced) == pytest.approx(
        (spaced[1] - spaced[0]) / SPEED_OF_LIGHT
    )


# ----------------------------------------------------------- gather/scatter


def test_gather_uvw_and_first_channel_match_plan_slices(small_plan, small_obs):
    arena = ScratchArena()
    buckets = bucket_work_items(small_plan, 0, small_plan.n_subgrids)
    bucket = max(buckets, key=lambda b: b.n_items)
    stacked = gather_uvw(small_plan, bucket.indices, small_obs.uvw_m, arena)
    first = gather_coordinates(small_plan, bucket.indices, stacked, 1, arena)
    assert stacked.shape == first.shape == (bucket.n_items, bucket.n_times, 3)
    for g, idx in enumerate(bucket.indices):
        row = small_plan.items[idx]
        block = small_obs.uvw_m[row["baseline"], row["time_start"]:row["time_end"]]
        np.testing.assert_array_equal(stacked[g], block)
        scale0 = small_plan.frequencies_hz[row["channel_start"]] / SPEED_OF_LIGHT
        centre = (*small_plan.subgrid_centre_uv(int(idx)), small_plan.w_offset)
        np.testing.assert_array_equal(first[g], block * scale0 - np.array(centre))


def test_gather_scatter_visibilities_round_trip(small_plan, single_source_vis):
    arena = ScratchArena()
    restored = np.zeros_like(single_source_vis)
    for bucket in bucket_work_items(small_plan, 0, small_plan.n_subgrids):
        block = gather_visibilities(
            small_plan, bucket.indices, single_source_vis, arena
        )
        assert block.shape == (bucket.n_items, bucket.n_times, bucket.n_channels, 4)
        scatter_visibilities(small_plan, bucket.indices, block.copy(), restored)
    # every unflagged visibility the plan covers survives the round trip
    covered = np.zeros(single_source_vis.shape[:3], dtype=bool)
    for row in small_plan.items:
        covered[
            row["baseline"],
            row["time_start"]:row["time_end"],
            row["channel_start"]:row["channel_end"],
        ] = True
    np.testing.assert_array_equal(
        restored[covered], single_source_vis.reshape(*covered.shape, 2, 2)[covered]
    )
    assert not restored[~covered].any()


def test_gather_visibilities_rejects_malformed_input(small_plan, single_source_vis):
    arena = ScratchArena()
    bucket = bucket_work_items(small_plan, 0, small_plan.n_subgrids)[0]
    bad = single_source_vis[:, :, :1]  # wrong channel count vs the plan
    with pytest.raises(ValueError, match="does not match"):
        gather_visibilities(small_plan, bucket.indices, bad, arena)


def test_gather_coordinates_match_per_item(small_plan, small_obs):
    from repro.core.reference import relative_uvw_wavelengths

    arena = ScratchArena()
    bucket = bucket_work_items(small_plan, 0, small_plan.n_subgrids)[0]
    uvw = gather_uvw(small_plan, bucket.indices, small_obs.uvw_m, arena)
    stacked = gather_coordinates(
        small_plan, bucket.indices, uvw, bucket.n_channels, arena
    )
    for g, idx in enumerate(bucket.indices):
        row = small_plan.items[idx]
        u_mid, v_mid = small_plan.subgrid_centre_uv(int(idx))
        expected = relative_uvw_wavelengths(
            small_obs.uvw_m[row["baseline"], row["time_start"]:row["time_end"]],
            small_plan.frequencies_hz[row["channel_start"]:row["channel_end"]],
            u_mid, v_mid, small_plan.w_offset,
        )
        np.testing.assert_allclose(stacked[g], expected, rtol=1e-12)


# ------------------------------------------- batched == per-item reference


@pytest.fixture(params=["direct", "recurrence"])
def kernel_plan(request, small_idg, small_plan, small_obs, small_baselines):
    """The small plan as is (evenly spaced channels: a row per timestep,
    the recurrence) or rebuilt on a channel ladder nudged off its
    arithmetic progression (a row per sample, the direct sum)."""
    if request.param == "recurrence":
        return small_plan
    freqs = small_obs.frequencies_hz + np.array([0.0, 3e3, -2e3, 1e3])
    assert uniform_channel_step(freqs) is None
    return small_idg.make_plan(small_obs.uvw_m, freqs, small_baselines)


def test_grid_batched_matches_per_item_driver(small_idg, kernel_plan, small_obs,
                                              single_source_vis):
    from repro.backends import get_backend

    stop = min(4, kernel_plan.n_subgrids)
    per_item = get_backend("reference").grid_work_group(
        kernel_plan, 0, stop, small_obs.uvw_m, single_source_vis,
        small_idg.taper, None,
    )
    batched = grid_work_group(
        kernel_plan, 0, stop, small_obs.uvw_m, single_source_vis,
        small_idg.taper, call_tables(kernel_plan, small_idg.lmn, None, 4),
    )
    scale = float(np.abs(per_item).max())
    np.testing.assert_allclose(
        batched, per_item, rtol=1e-5, atol=1e-5 * scale
    )


def test_degrid_batched_matches_per_item_driver(small_idg, small_plan,
                                                small_obs, single_source_vis):
    from repro.backends import get_backend

    stop = min(4, small_plan.n_subgrids)
    rng = np.random.default_rng(7)
    n = small_plan.subgrid_size
    shape = (stop, n, n, 2, 2)
    images = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(np.complex64)

    per_item = np.zeros_like(single_source_vis)
    get_backend("reference").degrid_work_group(
        small_plan, 0, stop, images, small_obs.uvw_m, per_item,
        small_idg.taper, None,
    )
    batched = np.zeros_like(single_source_vis)
    degrid_work_group(
        small_plan, 0, stop, images, small_obs.uvw_m, batched,
        small_idg.taper, call_tables(small_plan, small_idg.lmn, None, 4),
    )
    scale = float(np.abs(per_item).max())
    np.testing.assert_allclose(
        batched, per_item, rtol=1e-5, atol=1e-5 * scale
    )


def test_tiny_batch_budget_still_matches(small_idg, small_plan, small_obs,
                                         single_source_vis):
    """Forcing one-item chunks exercises the chunk loop without changing
    results."""
    stop = min(12, small_plan.n_subgrids)
    tables = call_tables(small_plan, small_idg.lmn, None, 4)
    roomy = grid_work_group(
        small_plan, 0, stop, small_obs.uvw_m, single_source_vis,
        small_idg.taper, tables,
    )
    chunked = grid_work_group(
        small_plan, 0, stop, small_obs.uvw_m, single_source_vis,
        small_idg.taper, tables, batch_bytes=1,
    )
    np.testing.assert_allclose(chunked, roomy, rtol=1e-12)
