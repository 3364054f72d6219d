"""Shape-bucketed batching of plan work items.

The greedy planner (Section V-A) emits work items whose visibility blocks
share a handful of distinct ``(n_times, n_channels)`` shapes: interior
stretches of a baseline's track cut at ``time_max`` produce full-size blocks,
and only track ends, A-term boundaries and channel splits produce the odd
sizes.  Grouping a work group's items by block shape therefore yields a few
*buckets* of many identically-shaped items each — exactly the batch-of-
subgrids execution model van der Tol, Veenboer & Offringa (2018) use on GPUs:
instead of launching one small kernel per subgrid, the batched kernels
evaluate a whole bucket with a handful of large array operations.

This module owns the bucketing pass and the gather/scatter between the
observation-shaped arrays (``(n_baselines, n_times, n_channels, ...)``) and
the stacked bucket tensors (``(G, T, 3)`` uvw, ``(G, M, 3)`` kernel
coordinates, ``(G, T, C, K)`` visibilities, ``(G, 3)`` subgrid offsets,
``(G, N, N, a, a)`` A-term fields).  Each array gather is one ``np.take``
of a C-contiguous array at linear indices built from the chunk's
``plan.items`` columns (and each scatter one indexed store), written into
:class:`~repro.core.scratch.ScratchArena` views so the steady state
allocates nothing; the batched kernels in
:mod:`repro.core.gridder` / :mod:`repro.core.degridder` consume the stacked
tensors directly.  What every chunk of a call shares — the channel step, the
raster factors and the stacked A-term table — is derived once per call
(:func:`call_tables`) and handed to the drivers.

The correlation count comes from the data: ``(n_bl, T, C, a, a)``
visibilities, or ``(k, N, N, a, a)`` subgrids for the degridder, give
``K = a**2`` columns per sample, with ``a = 2`` (four correlations) or
``a = 1`` (the Stokes-I sample alone).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Final

import numpy as np

from repro.aterms.jones import identity_jones_field
from repro.constants import ACCUM_DTYPE, COMPLEX_DTYPE, SPEED_OF_LIGHT
from repro.core.degridder import degridder_bucket
from repro.core.gridder import (
    RasterFactors,
    gridder_bucket,
    raster_factors,
    subgrid_lmn,
)
from repro.core.plan import Plan
from repro.core.scratch import ScratchArena, thread_arena

__all__ = [
    "ATermTable",
    "Bucket",
    "CallTables",
    "aterm_table",
    "call_tables",
    "bucket_work_items",
    "iter_bucket_chunks",
    "max_bucket_items",
    "gather_uvw",
    "gather_offsets",
    "gather_coordinates",
    "gather_visibilities",
    "gather_aterm_table",
    "scatter_visibilities",
    "grid_work_group",
    "degrid_work_group",
    "uniform_channel_step",
    "DEFAULT_BATCH_BYTES",
]

#: Ceiling on one batched kernel call's scratch working set, as counted by
#: :func:`max_bucket_items`.  Buckets larger than this are processed in
#: chunks.  The channel-recurrence loop re-streams the phasor and step once
#: per channel, so a chunk's working set must stay cache-resident or every
#: channel step pays DRAM bandwidth: 2 MiB is one core's L2 on the reference
#: host (2-vCPU KVM guest, Intel Xeon).  At N = 24 it gives G = 2, 4, 7 and
#: 9 items at T = 96, 32, 16 and 8 with four correlations, and G = 2, 6, 11
#: and 18 with one (its K-column buffers are a quarter the size).  Rows of
#: one channel build no channel step, so 32 of them fit G = 7 and 11 items
#: where 32 rows of several channels fit 4 and 6.  Measured
#: on that host in three runs each, with four correlations: a 1 MiB budget
#: counting the phasor alone (G = 2, 7, 14, 28) raised the streaming
#: ``selfcal-wstack`` benchmark's peak RSS from 156 to 189 MB, since every
#: stage thread grows its own arena, and G = 1, 3, 7, 14 cost the threaded
#: ``wideband-threads`` benchmark a fifth of its throughput.
DEFAULT_BATCH_BYTES: Final = 2**21

#: Absolute floor of :func:`uniform_channel_step`'s step comparison, in
#: float64 ulps of the largest ``|f/c|``.  Evenly spaced ladders built with
#: ``np.linspace`` or ``f0 + df * arange`` measure at most 1 ulp.
_STEP_ULPS: Final = 4


@dataclass(frozen=True, eq=False)
class Bucket:
    """Work items of one plan range sharing a ``(n_times, n_channels)`` shape.

    ``indices`` are absolute plan work-item indices in ascending (plan)
    order; every item in ``plan.items[start:stop]`` lands in exactly one
    bucket of :func:`bucket_work_items`.
    """

    n_times: int
    n_channels: int
    indices: np.ndarray

    @property
    def n_items(self) -> int:
        return int(self.indices.size)

    @property
    def n_visibilities(self) -> int:
        return self.n_items * self.n_times * self.n_channels


def bucket_work_items(plan: Plan, start: int, stop: int) -> tuple[Bucket, ...]:
    """Group work items ``start .. stop-1`` by visibility-block shape.

    Buckets are ordered by first occurrence in the plan and their indices
    stay in ascending plan order, so concatenating all buckets' indices and
    sorting round-trips to ``range(start, stop)``.
    """
    rows = plan.items[start:stop]
    shapes = zip(
        (rows["time_end"] - rows["time_start"]).tolist(),
        (rows["channel_end"] - rows["channel_start"]).tolist(),
    )
    grouped: dict[tuple[int, int], list[int]] = {}
    for index, shape in enumerate(shapes, start):
        grouped.setdefault(shape, []).append(index)
    return tuple(
        Bucket(t, c, np.array(indices, dtype=np.int64))
        for (t, c), indices in grouped.items()
    )


def max_bucket_items(
    n_pixels2: int,
    n_rows: int,
    row_channels: int,
    budget_bytes: int = DEFAULT_BATCH_BYTES,
    n_correlations: int = 4,
) -> int:
    """Items per batched kernel call so their scratch working set stays
    under ``budget_bytes`` (always >= 1).

    An item's working set is its ``(n_pixels2, n_rows)`` phasor at
    ``COMPLEX_DTYPE``, a channel step of the same size when its rows hold
    more than one channel (``row_channels > 1``; both kernels build the
    step only then), plus four ``(n_pixels2, K)`` ``ACCUM_DTYPE`` buffers
    of ``K = n_correlations`` columns: the gridder's accumulator, the
    degridder's corrected pixels and the two stations' A-term fields.
    ``n_rows`` and ``row_channels`` are the kernels' rows per item and
    channels per row: ``n_times`` rows of ``n_channels`` on an evenly
    spaced channel ladder, ``n_times * n_channels`` rows of one on any
    other.
    """
    n_phasors = 2 if row_channels > 1 else 1
    phasors = n_phasors * n_pixels2 * n_rows * np.dtype(COMPLEX_DTYPE).itemsize
    pixels = 4 * n_pixels2 * n_correlations * np.dtype(ACCUM_DTYPE).itemsize
    return max(int(budget_bytes // max(phasors + pixels, 1)), 1)


def iter_bucket_chunks(bucket: Bucket, max_items: int) -> Iterator[np.ndarray]:
    """Split a bucket's indices into consecutive chunks of ``<= max_items``."""
    if max_items <= 0:
        raise ValueError("max_items must be positive")
    for lo in range(0, bucket.n_items, max_items):
        yield bucket.indices[lo : lo + max_items]


# ------------------------------------------------------------------ gathers


def _chunk(plan: Plan, indices: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The chunk's ``plan.items`` rows and their ``(n_times, n_channels)``
    block shape, which every item must share (one bucket chunk)."""
    rows = plan.items[indices]
    if not len(rows):
        return rows, 0, 0
    n_times = rows["time_end"] - rows["time_start"]
    n_channels = rows["channel_end"] - rows["channel_start"]
    t, c = int(n_times[0]), int(n_channels[0])
    if (n_times != t).any() or (n_channels != c).any():
        raise ValueError("a bucket chunk's items must share one block shape")
    return rows, t, c


def _first_short_block(rows: np.ndarray, shape: tuple[int, ...]) -> int | None:
    """Position of the first item whose ``[baseline, t0:t1, c0:c1]`` slice
    of an array of leading shape ``shape`` would come out short (or whose
    baseline is out of range), else ``None``."""
    bad = (rows["baseline"] >= shape[0]) | (rows["time_end"] > shape[1])
    if len(shape) > 2:
        bad |= rows["channel_end"] > shape[2]
    return int(np.argmax(bad)) if bad.any() else None


def _time_index(rows: np.ndarray, t: int, n_times: int) -> np.ndarray:
    """``(G, t)`` linear indices of the items' ``(baseline, time)`` rows in
    a C-ordered ``(n_bl, n_times)`` array."""
    first = rows["baseline"].astype(np.intp) * n_times + rows["time_start"]
    return first[:, np.newaxis] + np.arange(t)


def _block_index(
    rows: np.ndarray, t: int, c: int, n_times: int, n_channels: int
) -> np.ndarray:
    """``(G, t, c)`` linear indices of the items' ``(t, c)`` blocks' samples
    in a C-ordered ``(n_bl, n_times, n_channels)`` array."""
    times = _time_index(rows, t, n_times) * n_channels
    channels = rows["channel_start"][:, np.newaxis] + np.arange(c)
    return times[:, :, np.newaxis] + channels[:, np.newaxis, :]


def _check_uvw(rows: np.ndarray, uvw_m: np.ndarray) -> None:
    short = _first_short_block(rows, uvw_m.shape[:2])
    if short is not None:
        row = rows[short]
        block = uvw_m[int(row["baseline"]), int(row["time_start"]) : int(row["time_end"])]
        raise ValueError(
            f"uvw block {block.shape} does not match the plan's work-item "
            f"shape {(int(row['time_end'] - row['time_start']), 3)}"
        )


def gather_uvw(
    plan: Plan,
    indices: np.ndarray,
    uvw_m: np.ndarray,
    arena: ScratchArena,
    key: str = "gather.uvw",
) -> np.ndarray:
    """Stack the items' uvw blocks into a ``(G, T, 3)`` float64 arena view."""
    rows, t, _ = _chunk(plan, indices)
    out = arena.take(key, (len(rows), t, 3), np.float64)
    _check_uvw(rows, uvw_m)
    uvw = np.ascontiguousarray(uvw_m).reshape(-1, 3)
    np.take(uvw, _time_index(rows, t, uvw_m.shape[1]), axis=0, out=out, mode="clip")
    return out


def gather_offsets(
    plan: Plan,
    indices: np.ndarray,
    arena: ScratchArena,
    key: str = "gather.offsets",
) -> np.ndarray:
    """``(G, 3)`` per-item ``(u_mid, v_mid, w_offset)`` in wavelengths, bit
    for bit :meth:`~repro.core.plan.Plan.subgrid_centre_uv` and
    ``plan.w_offset``."""
    rows = plan.items[indices]
    out = arena.take(key, (len(rows), 3), np.float64)
    shift = plan.subgrid_size // 2 - plan.gridspec.grid_size // 2
    du = plan.gridspec.cell_size
    np.multiply(rows["corner_u"].astype(np.int64) + shift, du, out=out[:, 0])
    np.multiply(rows["corner_v"].astype(np.int64) + shift, du, out=out[:, 1])
    out[:, 2] = plan.w_offset
    return out


def gather_coordinates(
    plan: Plan,
    indices: np.ndarray,
    uvw: np.ndarray,
    n_channels: int,
    arena: ScratchArena,
    key: str = "gather.coords",
) -> np.ndarray:
    """The coordinates ``uvw * f/c - offset`` (wavelengths) of each item's
    first ``n_channels`` channels, stacked into ``(G, T * n_channels, 3)``:
    time-major, channel fastest.

    ``uvw`` is the items' ``(G, T, 3)`` block (:func:`gather_uvw`) and the
    offsets are :func:`gather_offsets`.  With all of an item's channels
    this is the batched analogue of
    :func:`repro.core.reference.relative_uvw_wavelengths`; with one it is
    the coordinates of each timestep's first channel.
    """
    g_total, n_times = uvw.shape[:2]
    out = arena.take(key, (g_total, n_times * n_channels, 3), np.float64)
    by_channel = out.reshape(g_total, n_times, n_channels, 3)
    channels = plan.items["channel_start"][indices][:, np.newaxis] + np.arange(n_channels)
    scale = plan.frequencies_hz[channels] / SPEED_OF_LIGHT
    np.multiply(
        uvw[:, :, np.newaxis, :], scale[:, np.newaxis, :, np.newaxis], out=by_channel
    )
    by_channel -= gather_offsets(plan, indices, arena)[:, np.newaxis, np.newaxis, :]
    return out


def gather_visibilities(
    plan: Plan,
    indices: np.ndarray,
    visibilities: np.ndarray,
    arena: ScratchArena,
    key: str = "gather.vis",
) -> np.ndarray:
    """Stack the items' ``(n_bl, T, C, a, a)`` visibility blocks into a
    ``(G, T, C, a**2)`` ``COMPLEX_DTYPE`` arena view, the operand dtype of
    the kernels' single-precision products.

    A C-contiguous array is read with one ``np.take``; an out-of-core
    source, a prefetched group or a strided array serves each item's block
    on its own.

    Raises
    ------
    ValueError
        When an item's block runs past the array's times or channels (an
        input shorter than the plan's observation).
    """
    rows, n_times, n_channels = _chunk(plan, indices)
    k = visibilities.shape[3] * visibilities.shape[4]
    out = arena.take(key, (len(rows), n_times, n_channels, k), COMPLEX_DTYPE)
    flat = visibilities.reshape(*visibilities.shape[:3], k)
    if not (isinstance(flat, np.ndarray) and flat.flags.c_contiguous):
        for g in range(len(rows)):
            out[g] = _item_block(flat, rows[g], out.shape[1:], "visibility block")
        return out
    short = _first_short_block(rows, flat.shape)
    if short is not None:
        _item_block(flat, rows[short], out.shape[1:], "visibility block")
    index = _block_index(rows, n_times, n_channels, *flat.shape[1:3])
    np.take(flat.reshape(-1, k), index, axis=0, out=out, mode="clip")
    return out


def _item_block(
    flat: np.ndarray, row: np.ndarray, shape: tuple[int, ...], what: str
) -> np.ndarray:
    """``flat[baseline, t0:t1, c0:c1]`` of one item, checked against the
    chunk's block ``shape`` (a plain assignment would broadcast a short
    block silently)."""
    block = flat[
        int(row["baseline"]),
        int(row["time_start"]) : int(row["time_end"]),
        int(row["channel_start"]) : int(row["channel_end"]),
    ]
    if block.shape != shape:
        raise ValueError(
            f"{what} {block.shape} does not match the plan's work-item "
            f"shape {shape}"
        )
    return block


@dataclass(frozen=True, eq=False)
class ATermTable:
    """A call's station Jones fields stacked into one read-only table.

    ``fields`` is ``(n_fields + 1, N, N, a, a)`` with the identity in row 0;
    ``rows[station, interval]`` is the row of that station's field in that
    A-term interval, 0 where the call has none.
    """

    fields: np.ndarray
    rows: np.ndarray


def aterm_table(
    plan: Plan,
    aterm_fields: dict[tuple[int, int], np.ndarray] | None,
    identity: np.ndarray | None,
) -> ATermTable | None:
    """The :class:`ATermTable` of ``aterm_fields`` over ``plan``'s stations
    and intervals, in ``identity``'s dtype; ``None`` when there are no
    fields.

    Raises
    ------
    ValueError
        When a field's shape differs from ``identity``'s (a 1x1 field
        would otherwise broadcast into a 2x2 view silently).
    """
    if not aterm_fields:
        return None
    if identity is None:
        raise ValueError("identity field required when any item has an A-term")
    items = plan.items
    stations = max(
        max(int(station) for station, _ in aterm_fields),
        int(items["station_p"].max(initial=0)), int(items["station_q"].max(initial=0)),
    )
    intervals = max(
        max(int(interval) for _, interval in aterm_fields),
        int(items["aterm_interval"].max(initial=0)),
    )
    fields = np.empty((len(aterm_fields) + 1, *identity.shape), dtype=identity.dtype)
    fields[0] = identity
    rows = np.zeros((stations + 1, intervals + 1), dtype=np.intp)
    for row, (key, field) in enumerate(aterm_fields.items(), start=1):
        if field.shape != identity.shape:
            raise ValueError(
                f"A-term field {field.shape} does not match the "
                f"{identity.shape} fields of this call's correlations"
            )
        fields[row] = field
        rows[key] = row
    fields.setflags(write=False)
    rows.setflags(write=False)
    return ATermTable(fields, rows)


def gather_aterm_table(
    plan: Plan,
    indices: np.ndarray,
    table: ATermTable | None,
    arena: ScratchArena,
    key_p: str = "gather.aterm_p",
    key_q: str = "gather.aterm_q",
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Stack per-item station Jones fields from ``table`` into ``(G, N, N,
    a, a)`` views, one ``np.take`` per station of the pair.

    Returns ``(None, None)`` when there is no table or no item in the chunk
    has a field (all-identity buckets skip the sandwich entirely).
    """
    if table is None:
        return None, None
    rows = plan.items[indices]
    row_p = table.rows[rows["station_p"], rows["aterm_interval"]]
    row_q = table.rows[rows["station_q"], rows["aterm_interval"]]
    if not (row_p.any() or row_q.any()):
        return None, None
    shape = (len(rows), *table.fields.shape[1:])
    a_p = arena.take(key_p, shape, table.fields.dtype)
    a_q = arena.take(key_q, shape, table.fields.dtype)
    np.take(table.fields, row_p, axis=0, out=a_p, mode="clip")
    np.take(table.fields, row_q, axis=0, out=a_q, mode="clip")
    return a_p, a_q


# ------------------------------------------------------------------ scatter


def scatter_visibilities(
    plan: Plan,
    indices: np.ndarray,
    block: np.ndarray,
    visibilities_out: np.ndarray,
) -> None:
    """Write a ``(G, T, C, ...)`` predicted block back into the items'
    ``(baseline, time, channel)`` slices of ``visibilities_out``, with one
    indexed store into a C-contiguous output (item by item into a strided
    one).

    Raises
    ------
    ValueError
        When an item's slice of ``visibilities_out`` is short of the
        predicted block (a plain assignment would broadcast into it).
    """
    rows, t, c = _chunk(plan, indices)
    out = visibilities_out.reshape(*visibilities_out.shape[:3], -1)
    flat = block.reshape(*block.shape[:3], -1)
    short = _first_short_block(rows, out.shape)
    if short is not None:
        target = out[
            int(rows[short]["baseline"]),
            int(rows[short]["time_start"]) : int(rows[short]["time_end"]),
            int(rows[short]["channel_start"]) : int(rows[short]["channel_end"]),
        ]
        raise ValueError(
            f"output block {target.shape} does not match the predicted "
            f"block shape {flat.shape[1:]}"
        )
    if not out.flags.c_contiguous:
        for g in range(len(rows)):
            _item_block(out, rows[g], flat.shape[1:], "output block")[...] = flat[g]
        return
    out.reshape(-1, out.shape[-1])[_block_index(rows, t, c, *out.shape[1:3])] = flat


# ------------------------------------------------------ work-group drivers


def uniform_channel_step(frequencies_hz: np.ndarray) -> float | None:
    """The uniform ``ds`` of the full ``f/c`` ladder, or ``None``.

    The recurrence shares one ``ds`` across a whole bucket whose items may
    start at different channels, so it needs the *global* ladder to be an
    arithmetic progression (every subband this package simulates is);
    on ``None`` the drivers give the kernels one channel per row instead.

    Steps must agree to ``1e-9`` relative, with an absolute floor of
    :data:`_STEP_ULPS` float64 ulps of the largest ``|f/c|`` for the
    rounding of the division and the differences (numpy's default
    ``atol = 1e-8`` would exceed ``1e-9 * ds`` for any channel narrower
    than 3 GHz and accept a kHz ladder with a channel Hz off).
    """
    scales = np.asarray(frequencies_hz, dtype=np.float64) / SPEED_OF_LIGHT
    if scales.size < 2:
        return 0.0
    steps = np.diff(scales)
    atol = _STEP_ULPS * float(np.spacing(np.max(np.abs(scales))))
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=atol):
        return None
    return float(steps[0])


@dataclass(frozen=True, eq=False)
class CallTables:
    """What every work group of one grid or degrid call shares, derived
    once per call (:func:`call_tables`) and read by every bucket chunk.

    Attributes
    ----------
    lmn:
        The ``(N**2, 3)`` raster (:func:`~repro.core.gridder.subgrid_lmn`).
    factors:
        Its :func:`~repro.core.gridder.raster_factors`.
    channel_step:
        :func:`uniform_channel_step` of the plan's channels: the
        recurrence's ``ds``, or ``None`` for one channel per row.
    aterms:
        The call's :class:`ATermTable`, ``None`` without A-terms.
    """

    lmn: np.ndarray
    factors: RasterFactors
    channel_step: float | None
    aterms: ATermTable | None


def call_tables(
    plan: Plan,
    lmn: np.ndarray | None,
    aterm_fields: dict[tuple[int, int], np.ndarray] | None,
    n_correlations: int,
) -> CallTables:
    """The :class:`CallTables` of a call on ``plan`` gridding or degridding
    ``n_correlations`` correlations (1 or 4); ``lmn`` defaults to the plan's
    raster.  ``aterm_fields`` maps ``(station, interval)`` to an ``(N, N,
    a, a)`` Jones field; ``None`` or missing keys mean identity."""
    n = plan.subgrid_size
    if lmn is None:
        lmn = subgrid_lmn(n, plan.gridspec.image_size)
    a = 1 if n_correlations == 1 else 2
    identity = identity_jones_field(n, a=a) if aterm_fields else None
    return CallTables(
        lmn=lmn,
        factors=raster_factors(lmn),
        channel_step=uniform_channel_step(plan.frequencies_hz),
        aterms=aterm_table(plan, aterm_fields, identity),
    )


def _coordinates(
    plan: Plan,
    indices: np.ndarray,
    uvw_m: np.ndarray,
    n_channels: int,
    ds: float | None,
    arena: ScratchArena,
) -> tuple[np.ndarray, np.ndarray | None]:
    """A chunk's per-row start and step coordinates for the bucket
    kernels: a row per timestep stepping by ``uvw * ds`` when the ladder
    is evenly spaced (``ds`` set), else a row per (timestep, channel)
    sample of the chunk's ``n_channels`` channels, with no step."""
    uvw = gather_uvw(plan, indices, uvw_m, arena)
    if ds is None:
        return gather_coordinates(plan, indices, uvw, n_channels, arena), None
    step = arena.take("gather.step", uvw.shape, np.float64)
    np.multiply(uvw, ds, out=step)
    return gather_coordinates(plan, indices, uvw, 1, arena), step


def grid_work_group(
    plan: Plan,
    start: int,
    stop: int,
    uvw_m: np.ndarray,
    visibilities: np.ndarray,
    taper: np.ndarray,
    tables: CallTables,
    batch_bytes: int = DEFAULT_BATCH_BYTES,
    arena: ScratchArena | None = None,
) -> np.ndarray:
    """Run the gridder over work items ``start .. stop-1``.

    Buckets the work items by block shape, gathers each bucket into stacked
    tensors and grids it with one :func:`gridder_bucket` call (chunked so
    the scratch working set stays under ``batch_bytes``, see
    :func:`max_bucket_items`).  The channel ladder chooses the kernel's
    rows: a row per timestep holding all the item's channels when
    :func:`uniform_channel_step` finds them evenly spaced, a row per
    (timestep, channel) sample otherwise.  The visibilities' trailing
    ``(a, a)`` shape sets the correlation count.

    Parameters
    ----------
    plan:
        The execution plan.
    uvw_m:
        ``(n_baselines, n_times, 3)`` uvw in metres (full observation).
    visibilities:
        ``(n_baselines, n_times, n_channels, a, a)`` complex visibilities.
    taper:
        ``(N, N)`` taper.
    tables:
        The call's :func:`call_tables`: the raster, its factors, the
        channel step and the A-term table.

    Returns
    -------
    ``(stop - start, N, N, a, a)`` complex64 image-domain subgrids.
    """
    n = plan.subgrid_size
    a = visibilities.shape[-1]
    lmn, factors, ds = tables.lmn, tables.factors, tables.channel_step
    if arena is None:
        arena = thread_arena()
    out = np.empty((stop - start, n, n, a, a), dtype=COMPLEX_DTYPE)
    for bucket in bucket_work_items(plan, start, stop):
        row_channels = bucket.n_channels if ds is not None else 1
        n_rows = bucket.n_times * bucket.n_channels // row_channels
        cap = max_bucket_items(lmn.shape[0], n_rows, row_channels, batch_bytes, a * a)
        for indices in iter_bucket_chunks(bucket, cap):
            vis = gather_visibilities(plan, indices, visibilities, arena)
            first, step = _coordinates(plan, indices, uvw_m, bucket.n_channels, ds, arena)
            a_p, a_q = gather_aterm_table(plan, indices, tables.aterms, arena)
            out[indices - start] = gridder_bucket(
                vis.reshape(len(indices), n_rows, row_channels, a * a), first, step,
                lmn, taper, aterm_p=a_p, aterm_q=a_q, arena=arena, factors=factors,
            )
    return out


def degrid_work_group(
    plan: Plan,
    start: int,
    stop: int,
    subgrid_images: np.ndarray,
    uvw_m: np.ndarray,
    visibilities_out: np.ndarray,
    taper: np.ndarray,
    tables: CallTables,
    batch_bytes: int = DEFAULT_BATCH_BYTES,
    arena: ScratchArena | None = None,
) -> None:
    """Run the degridder over work items ``start .. stop-1``, writing into
    ``visibilities_out`` (shape ``(n_baselines, n_times, n_channels, a, a)``)
    in place, one :func:`degridder_bucket` call per bucket chunk.

    ``subgrid_images`` holds the ``(stop-start, N, N, a, a)`` image-domain
    subgrids produced by the splitter + inverse subgrid FFT, whose trailing
    shape sets the correlation count; the other arguments and the kernel's
    rows are as in :func:`grid_work_group`.
    """
    n = plan.subgrid_size
    a = subgrid_images.shape[-1]
    lmn, factors, ds = tables.lmn, tables.factors, tables.channel_step
    if arena is None:
        arena = thread_arena()
    for bucket in bucket_work_items(plan, start, stop):
        row_channels = bucket.n_channels if ds is not None else 1
        n_rows = bucket.n_times * bucket.n_channels // row_channels
        cap = max_bucket_items(lmn.shape[0], n_rows, row_channels, batch_bytes, a * a)
        for indices in iter_bucket_chunks(bucket, cap):
            images = arena.take(
                "gather.subgrids", (len(indices), n, n, a, a), subgrid_images.dtype
            )
            np.take(subgrid_images, indices - start, axis=0, out=images, mode="clip")
            first, step = _coordinates(plan, indices, uvw_m, bucket.n_channels, ds, arena)
            a_p, a_q = gather_aterm_table(plan, indices, tables.aterms, arena)
            block = degridder_bucket(
                images, first, step, row_channels,
                lmn, taper, aterm_p=a_p, aterm_q=a_q, arena=arena, factors=factors,
            )
            scatter_visibilities(
                plan, indices,
                block.reshape(len(indices), bucket.n_times, bucket.n_channels, a * a),
                visibilities_out,
            )
