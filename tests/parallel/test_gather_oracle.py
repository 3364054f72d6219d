"""The index-array gathers against their original per-item loops.

The bucket drivers gather uvw, subgrid offsets, visibilities and A-term
fields, scatter predictions and split subgrids off the grid with one
indexing operation each, at linear indices built from the chunk's
``plan.items`` columns.  The loops they replaced walked the items one at a
time.  This module keeps those loops as the oracle, together with the loop
forming each item's relative uvw (the kernel coordinates of all its
channels and, sliced to the first channel, of each timestep), and the
property test asserts identical tensors on random work-item tables (any
block shapes, channel splits, corners and A-term intervals), random A-term
dicts (scalar and 2x2) and random flags.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aterms.jones import identity_jones_field
from repro.constants import COMPLEX_DTYPE, SPEED_OF_LIGHT
from repro.core.adder import split_subgrids
from repro.core.pipeline import prepare_visibilities
from repro.core.plan import WORK_ITEM_DTYPE, Plan
from repro.core.scratch import ScratchArena
from repro.gridspec import GridSpec
from repro.parallel.bucketing import (
    aterm_table,
    bucket_work_items,
    gather_aterm_table,
    gather_coordinates,
    gather_offsets,
    gather_uvw,
    gather_visibilities,
    iter_bucket_chunks,
    scatter_visibilities,
)

# ------------------------------------------------------------------ oracle


def oracle_buckets(plan, start, stop):
    rows = plan.items[start:stop]
    n_times = rows["time_end"] - rows["time_start"]
    n_channels = rows["channel_end"] - rows["channel_start"]
    grouped: dict[tuple[int, int], list[int]] = {}
    for k in range(len(rows)):
        grouped.setdefault((int(n_times[k]), int(n_channels[k])), []).append(start + k)
    return [(t, c, np.asarray(indices, dtype=np.int64)) for (t, c), indices in grouped.items()]


def oracle_uvw(plan, indices, uvw_m):
    rows = plan.items[indices]
    n_times = int(rows["time_end"][0] - rows["time_start"][0])
    out = np.empty((len(rows), n_times, 3), np.float64)
    for g in range(len(rows)):
        row = rows[g]
        out[g] = uvw_m[int(row["baseline"]), int(row["time_start"]) : int(row["time_end"])]
    return out


def oracle_offsets(plan, indices):
    out = np.empty((int(indices.size), 3), np.float64)
    for g in range(indices.size):
        u_mid, v_mid = plan.subgrid_centre_uv(int(indices[g]))
        out[g] = (u_mid, v_mid, plan.w_offset)
    return out


def oracle_rel_uvw(plan, indices, uvw_m):
    rows = plan.items[indices]
    n_times = int(rows["time_end"][0] - rows["time_start"][0])
    n_channels = int(rows["channel_end"][0] - rows["channel_start"][0])
    out = np.empty((len(rows), n_times * n_channels, 3), np.float64)
    by_channel = out.reshape(len(rows), n_times, n_channels, 3)
    for g in range(len(rows)):
        row = rows[g]
        scale = (
            plan.frequencies_hz[int(row["channel_start"]) : int(row["channel_end"])]
            / SPEED_OF_LIGHT
        )
        block = uvw_m[int(row["baseline"]), int(row["time_start"]) : int(row["time_end"])]
        np.multiply(
            block[:, np.newaxis, :], scale[np.newaxis, :, np.newaxis], out=by_channel[g]
        )
        u_mid, v_mid = plan.subgrid_centre_uv(int(indices[g]))
        by_channel[g, :, :, 0] -= u_mid
        by_channel[g, :, :, 1] -= v_mid
        by_channel[g, :, :, 2] -= plan.w_offset
    return out


def oracle_visibilities(plan, indices, visibilities):
    rows = plan.items[indices]
    n_times = int(rows["time_end"][0] - rows["time_start"][0])
    n_channels = int(rows["channel_end"][0] - rows["channel_start"][0])
    k = visibilities.shape[3] * visibilities.shape[4]
    out = np.empty((len(rows), n_times, n_channels, k), COMPLEX_DTYPE)
    flat = visibilities.reshape(*visibilities.shape[:3], k)
    for g in range(len(rows)):
        row = rows[g]
        block = flat[
            int(row["baseline"]),
            int(row["time_start"]) : int(row["time_end"]),
            int(row["channel_start"]) : int(row["channel_end"]),
        ]
        if block.shape != out.shape[1:]:
            raise ValueError(
                f"visibility block {block.shape} does not match the plan's "
                f"work-item shape {out.shape[1:]}"
            )
        out[g] = block
    return out


def oracle_aterm_fields(plan, indices, aterm_fields, identity):
    if aterm_fields is None:
        return None, None
    rows = plan.items[indices]
    if not any(
        (int(row["station_p"]), int(row["aterm_interval"])) in aterm_fields
        or (int(row["station_q"]), int(row["aterm_interval"])) in aterm_fields
        for row in rows
    ):
        return None, None
    a_p = np.empty((len(rows), *identity.shape), identity.dtype)
    a_q = np.empty((len(rows), *identity.shape), identity.dtype)
    for g in range(len(rows)):
        row = rows[g]
        interval = int(row["aterm_interval"])
        for out, station in ((a_p, row["station_p"]), (a_q, row["station_q"])):
            out[g] = aterm_fields.get((int(station), interval), identity)
    return a_p, a_q


def oracle_scatter(plan, indices, block, visibilities_out):
    rows = plan.items[indices]
    out = visibilities_out.reshape(*visibilities_out.shape[:3], -1)
    flat = block.reshape(*block.shape[:3], -1)
    for g in range(len(rows)):
        row = rows[g]
        target = out[
            int(row["baseline"]),
            int(row["time_start"]) : int(row["time_end"]),
            int(row["channel_start"]) : int(row["channel_end"]),
        ]
        if target.shape != flat.shape[1:]:
            raise ValueError(
                f"output block {target.shape} does not match the predicted "
                f"block shape {flat.shape[1:]}"
            )
        target[...] = flat[g]


def oracle_split(grid, plan, start, stop):
    n = plan.subgrid_size
    out_pol = np.empty((stop - start, grid.shape[0], n, n), dtype=grid.dtype)
    for k, index in enumerate(range(start, stop)):
        row = plan.items[index]
        cu, cv = int(row["corner_u"]), int(row["corner_v"])
        out_pol[k] = grid[:, cv : cv + n, cu : cu + n]
    k, planes = out_pol.shape[:2]
    a = int(round(planes**0.5))
    return out_pol.transpose(0, 2, 3, 1).reshape(k, n, n, a, a)


# ------------------------------------------------------------ random plans


def random_plan(rng, n_bl, n_times, n_channels, n_items, n_stations, n_intervals):
    """A plan whose work-item table draws every column at random: blocks
    of any shape inside the observation (channel splits included), corners
    anywhere on the grid, any station pair and A-term interval."""
    subgrid, grid_size = 8, 64
    items = np.zeros(n_items, dtype=WORK_ITEM_DTYPE)
    # a few shapes, so buckets hold several items
    shapes = [
        (int(rng.integers(1, n_times + 1)), int(rng.integers(1, n_channels + 1)))
        for _ in range(3)
    ]
    for k in range(n_items):
        t, c = shapes[int(rng.integers(len(shapes)))]
        t0 = int(rng.integers(0, n_times - t + 1))
        c0 = int(rng.integers(0, n_channels - c + 1))
        items[k] = (
            int(rng.integers(n_bl)), int(rng.integers(n_stations)),
            int(rng.integers(n_stations)), t0, t0 + t, c0, c0 + c,
            int(rng.integers(0, grid_size - subgrid + 1)),
            int(rng.integers(0, grid_size - subgrid + 1)),
            int(rng.integers(n_intervals)),
        )
    frequencies = 1.2e8 + 1.7e5 * np.arange(n_channels) + rng.uniform(0, 1e3, n_channels)
    return Plan(
        GridSpec(grid_size=grid_size, image_size=0.05), subgrid, items,
        np.zeros((n_bl, n_times, n_channels), dtype=bool), frequencies,
        kernel_support=2, w_offset=float(rng.uniform(-20.0, 20.0)),
    )


def random_fields(rng, n, a, n_stations, n_intervals, share):
    """A dict of random ``(n, n, a, a)`` fields over a random share of the
    (station, interval) keys; ``a = 1`` is the scalar case."""
    fields = {}
    for station in range(n_stations):
        for interval in range(n_intervals):
            if rng.random() < share:
                shape = (n, n, a, a)
                fields[station, interval] = (
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                )
    return fields


# ------------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_bl=st.integers(1, 6),
    n_times=st.integers(1, 9),
    n_channels=st.integers(1, 7),
    n_items=st.integers(1, 40),
    a=st.sampled_from([1, 2]),
    field_share=st.sampled_from([0.0, 0.3, 1.0]),
    flag_share=st.sampled_from([0.0, 0.4]),
    cap=st.integers(1, 9),
)
def test_gathers_match_the_per_item_oracle(
    seed, n_bl, n_times, n_channels, n_items, a, field_share, flag_share, cap
):
    rng = np.random.default_rng(seed)
    n_stations, n_intervals = 5, 3
    plan = random_plan(rng, n_bl, n_times, n_channels, n_items, n_stations, n_intervals)
    n = plan.subgrid_size
    uvw = rng.uniform(-500.0, 500.0, (n_bl, n_times, 3))
    shape = (n_bl, n_times, n_channels, a, a)
    vis = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        COMPLEX_DTYPE
    )
    flags = rng.random(shape[:3]) < flag_share
    vis = prepare_visibilities(vis, flags)
    fields = random_fields(rng, n, a, n_stations, n_intervals, field_share)
    identity = identity_jones_field(n, a=a)
    arena = ScratchArena()

    start = int(rng.integers(0, n_items))
    stop = int(rng.integers(start + 1, n_items + 1))
    buckets = bucket_work_items(plan, start, stop)
    assert [(b.n_times, b.n_channels) for b in buckets] == [
        (t, c) for t, c, _ in oracle_buckets(plan, start, stop)
    ]
    for bucket, (_, _, indices) in zip(buckets, oracle_buckets(plan, start, stop)):
        assert np.array_equal(bucket.indices, indices)

    predicted = np.zeros(shape, dtype=COMPLEX_DTYPE)
    expected = np.zeros(shape, dtype=COMPLEX_DTYPE)
    for bucket in buckets:
        for indices in iter_bucket_chunks(bucket, cap):
            block = gather_uvw(plan, indices, uvw, arena)
            assert np.array_equal(block, oracle_uvw(plan, indices, uvw))
            offsets = gather_offsets(plan, indices, arena)
            assert np.array_equal(offsets, oracle_offsets(plan, indices))
            rel = oracle_rel_uvw(plan, indices, uvw)
            assert np.array_equal(
                gather_coordinates(plan, indices, block, bucket.n_channels, arena), rel
            )
            first = rel.reshape(len(indices), bucket.n_times, bucket.n_channels, 3)[:, :, 0]
            assert np.array_equal(gather_coordinates(plan, indices, block, 1, arena), first)
            assert np.array_equal(
                gather_visibilities(plan, indices, vis, arena),
                oracle_visibilities(plan, indices, vis),
            )
            got = gather_aterm_table(
                plan, indices, aterm_table(plan, fields, identity), arena
            )
            want = oracle_aterm_fields(plan, indices, fields, identity)
            for field, oracle in zip(got, want):
                assert (field is None) == (oracle is None)
                if field is not None:
                    assert field.dtype == oracle.dtype
                    assert np.array_equal(field, oracle)
            block = rng.standard_normal(
                (len(indices), bucket.n_times, bucket.n_channels, a * a)
            ).astype(COMPLEX_DTYPE)
            scatter_visibilities(plan, indices, block, predicted)
            oracle_scatter(plan, indices, block, expected)
            assert np.array_equal(predicted, expected)

    grid = rng.standard_normal((a * a, 64, 64)).astype(COMPLEX_DTYPE)
    split = split_subgrids(grid, plan, start, stop)
    assert np.array_equal(split, oracle_split(grid, plan, start, stop))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(1, 30))
def test_offsets_bit_equal_subgrid_centre_uv(seed, n_items):
    rng = np.random.default_rng(seed)
    plan = random_plan(rng, 3, 5, 4, n_items, 4, 2)
    offsets = gather_offsets(plan, np.arange(n_items), ScratchArena())
    for index in range(n_items):
        u_mid, v_mid = plan.subgrid_centre_uv(index)
        assert offsets[index, 0] == u_mid and offsets[index, 1] == v_mid
        assert offsets[index, 2] == plan.w_offset


@pytest.mark.parametrize("short_axis", ["times", "channels"])
def test_short_blocks_raise_the_oracles_error(short_axis):
    """An input shorter than the plan's observation raises the per-item
    loop's ``ValueError``, naming the first short block's shape."""
    rng = np.random.default_rng(5)
    plan = random_plan(rng, 3, 6, 5, 24, 4, 2)
    shape = (3, 6, 5, 2, 2)
    vis = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        COMPLEX_DTYPE
    )
    short = vis[:, :3] if short_axis == "times" else vis[:, :, :2]
    short = np.ascontiguousarray(short)
    for bucket in bucket_work_items(plan, 0, plan.n_subgrids):
        try:
            oracle_visibilities(plan, bucket.indices, short)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                gather_visibilities(plan, bucket.indices, short, ScratchArena())
            assert str(raised.value) == str(exc)
            block = np.zeros(
                (bucket.n_items, bucket.n_times, bucket.n_channels, 4), COMPLEX_DTYPE
            )
            with pytest.raises(ValueError) as oracle_raised:
                oracle_scatter(plan, bucket.indices, block, short.copy())
            with pytest.raises(ValueError) as scatter_raised:
                scatter_visibilities(plan, bucket.indices, block, short.copy())
            assert str(scatter_raised.value) == str(oracle_raised.value)
            return
    pytest.fail("no bucket reached past the short input")
