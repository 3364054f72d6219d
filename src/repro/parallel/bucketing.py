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
the stacked bucket tensors (``(G, T, 3)`` uvw, ``(G, T, C, K)``
visibilities, ``(G, 3)`` subgrid offsets, ``(G, N, N, a, a)`` A-term
fields).  Gathers write into :class:`~repro.core.scratch.ScratchArena`
views so the steady state allocates nothing; the batched kernels in
:mod:`repro.core.gridder` / :mod:`repro.core.degridder` consume the stacked
tensors directly.

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
from repro.core.degridder import degridder_bucket, degridder_bucket_fast
from repro.core.gridder import (
    gridder_bucket,
    gridder_bucket_fast,
    raster_factors,
    subgrid_lmn,
)
from repro.core.plan import Plan
from repro.core.scratch import ScratchArena, thread_arena

__all__ = [
    "Bucket",
    "bucket_work_items",
    "iter_bucket_chunks",
    "max_bucket_items",
    "gather_uvw",
    "gather_offsets",
    "gather_scale0",
    "gather_rel_uvw",
    "gather_visibilities",
    "gather_aterm_fields",
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
#: and 18 with one (its K-column buffers are a quarter the size).  Measured
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
    n_times = rows["time_end"] - rows["time_start"]
    n_channels = rows["channel_end"] - rows["channel_start"]
    grouped: dict[tuple[int, int], list[int]] = {}
    for k in range(len(rows)):
        grouped.setdefault((int(n_times[k]), int(n_channels[k])), []).append(start + k)
    return tuple(
        Bucket(t, c, np.asarray(indices, dtype=np.int64))
        for (t, c), indices in grouped.items()
    )


def max_bucket_items(
    n_pixels2: int,
    n_phase: int,
    budget_bytes: int = DEFAULT_BATCH_BYTES,
    n_correlations: int = 4,
) -> int:
    """Items per batched kernel call so their scratch working set stays
    under ``budget_bytes`` (always >= 1).

    An item's working set is its ``(n_pixels2, n_phase)`` phasor and step
    at ``COMPLEX_DTYPE``, plus four ``(n_pixels2, K)`` ``ACCUM_DTYPE``
    buffers of ``K = n_correlations`` columns: the gridder's accumulator,
    the degridder's corrected pixels and the two stations' A-term fields.
    ``n_phase`` is the phasor's trailing extent: ``n_times`` for the
    channel-recurrence kernels, ``n_times * n_channels`` for the direct sum.
    """
    phasors = 2 * n_pixels2 * n_phase * np.dtype(COMPLEX_DTYPE).itemsize
    pixels = 4 * n_pixels2 * n_correlations * np.dtype(ACCUM_DTYPE).itemsize
    return max(int(budget_bytes // max(phasors + pixels, 1)), 1)


def iter_bucket_chunks(bucket: Bucket, max_items: int) -> Iterator[np.ndarray]:
    """Split a bucket's indices into consecutive chunks of ``<= max_items``."""
    if max_items <= 0:
        raise ValueError("max_items must be positive")
    for lo in range(0, bucket.n_items, max_items):
        yield bucket.indices[lo : lo + max_items]


# ------------------------------------------------------------------ gathers


def gather_uvw(
    plan: Plan,
    indices: np.ndarray,
    uvw_m: np.ndarray,
    arena: ScratchArena,
    key: str = "gather.uvw",
) -> np.ndarray:
    """Stack the items' uvw blocks into a ``(G, T, 3)`` float64 arena view."""
    rows = plan.items[indices]
    n_times = int(rows["time_end"][0] - rows["time_start"][0])
    out = arena.take(key, (len(rows), n_times, 3), np.float64)
    for g in range(len(rows)):
        row = rows[g]
        out[g] = uvw_m[int(row["baseline"]), int(row["time_start"]) : int(row["time_end"])]
    return out


def gather_offsets(
    plan: Plan,
    indices: np.ndarray,
    arena: ScratchArena,
    key: str = "gather.offsets",
) -> np.ndarray:
    """``(G, 3)`` per-item ``(u_mid, v_mid, w_offset)`` in wavelengths."""
    out = arena.take(key, (int(indices.size), 3), np.float64)
    for g in range(indices.size):
        u_mid, v_mid = plan.subgrid_centre_uv(int(indices[g]))
        out[g, 0] = u_mid
        out[g, 1] = v_mid
        out[g, 2] = plan.w_offset
    return out


def gather_scale0(plan: Plan, indices: np.ndarray) -> np.ndarray:
    """``(G,)`` first-channel ``f/c`` of every item (items may start at
    different channel offsets within one shape bucket — wideband splits)."""
    first_channel = plan.items["channel_start"][indices]
    return plan.frequencies_hz[first_channel] / SPEED_OF_LIGHT


def gather_rel_uvw(
    plan: Plan,
    indices: np.ndarray,
    uvw_m: np.ndarray,
    arena: ScratchArena,
    key: str = "gather.rel_uvw",
) -> np.ndarray:
    """Stack the items' relative uvw (wavelengths) into ``(G, T*C, 3)``.

    The batched analogue of
    :func:`repro.core.reference.relative_uvw_wavelengths`: time-major,
    channel fastest, ``(u - u_mid, v - v_mid, w - w_offset)`` per visibility.
    """
    rows = plan.items[indices]
    n_times = int(rows["time_end"][0] - rows["time_start"][0])
    n_channels = int(rows["channel_end"][0] - rows["channel_start"][0])
    out = arena.take(key, (len(rows), n_times * n_channels, 3), np.float64)
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


def gather_visibilities(
    plan: Plan,
    indices: np.ndarray,
    visibilities: np.ndarray,
    arena: ScratchArena,
    key: str = "gather.vis",
) -> np.ndarray:
    """Stack the items' ``(n_bl, T, C, a, a)`` visibility blocks into a
    ``(G, T, C, a**2)`` ``COMPLEX_DTYPE`` arena view, the operand dtype of
    the kernels' single-precision products."""
    rows = plan.items[indices]
    n_times = int(rows["time_end"][0] - rows["time_start"][0])
    n_channels = int(rows["channel_end"][0] - rows["channel_start"][0])
    k = visibilities.shape[3] * visibilities.shape[4]
    out = arena.take(key, (len(rows), n_times, n_channels, k), COMPLEX_DTYPE)
    flat = visibilities.reshape(*visibilities.shape[:3], k)
    for g in range(len(rows)):
        row = rows[g]
        block = flat[
            int(row["baseline"]),
            int(row["time_start"]) : int(row["time_end"]),
            int(row["channel_start"]) : int(row["channel_end"]),
        ]
        if block.shape != out.shape[1:]:
            # plain assignment would broadcast a short block silently
            raise ValueError(
                f"visibility block {block.shape} does not match the plan's "
                f"work-item shape {out.shape[1:]}"
            )
        out[g] = block
    return out


def gather_aterm_fields(
    plan: Plan,
    indices: np.ndarray,
    aterm_fields: dict[tuple[int, int], np.ndarray] | None,
    identity: np.ndarray | None,
    arena: ScratchArena,
    key_p: str = "gather.aterm_p",
    key_q: str = "gather.aterm_q",
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Stack per-item station Jones fields into ``(G, N, N, a, a)`` views.

    Returns ``(None, None)`` when ``aterm_fields`` is ``None`` or no item in
    the chunk has a field (all-identity buckets skip the sandwich entirely);
    missing fields are filled with ``identity``, whose ``(N, N, a, a)``
    shape sizes the views.

    Raises
    ------
    ValueError
        When a field's shape differs from ``identity``'s (a 1x1 field
        would otherwise broadcast into a 2x2 view silently).
    """
    if aterm_fields is None:
        return None, None
    rows = plan.items[indices]
    any_field = False
    for g in range(len(rows)):
        row = rows[g]
        interval = int(row["aterm_interval"])
        if (int(row["station_p"]), interval) in aterm_fields or (
            int(row["station_q"]),
            interval,
        ) in aterm_fields:
            any_field = True
            break
    if not any_field:
        return None, None
    if identity is None:
        raise ValueError("identity field required when any item has an A-term")
    a_p = arena.take(key_p, (len(rows), *identity.shape), identity.dtype)
    a_q = arena.take(key_q, (len(rows), *identity.shape), identity.dtype)
    for g in range(len(rows)):
        row = rows[g]
        interval = int(row["aterm_interval"])
        for out, station in ((a_p, row["station_p"]), (a_q, row["station_q"])):
            field = aterm_fields.get((int(station), interval), identity)
            if field.shape != identity.shape:
                raise ValueError(
                    f"A-term field {field.shape} does not match the "
                    f"{identity.shape} fields of this call's correlations"
                )
            out[g] = field
    return a_p, a_q


# ------------------------------------------------------------------ scatter


def scatter_visibilities(
    plan: Plan,
    indices: np.ndarray,
    block: np.ndarray,
    visibilities_out: np.ndarray,
) -> None:
    """Write a ``(G, T, C, ...)`` predicted block back into the items'
    ``(baseline, time, channel)`` slices of ``visibilities_out``."""
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
            # plain assignment would broadcast into a short slice silently
            raise ValueError(
                f"output block {target.shape} does not match the predicted "
                f"block shape {flat.shape[1:]}"
            )
        target[...] = flat[g]


# ------------------------------------------------------ work-group drivers


def uniform_channel_step(frequencies_hz: np.ndarray) -> float | None:
    """The uniform ``ds`` of the full ``f/c`` ladder, or ``None``.

    The recurrence shares one ``ds`` across a whole bucket whose items may
    start at different channels, so it needs the *global* ladder to be an
    arithmetic progression (every subband this package simulates is);
    ``None`` sends the drivers down the direct-sum kernels instead.

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


def grid_work_group(
    plan: Plan,
    start: int,
    stop: int,
    uvw_m: np.ndarray,
    visibilities: np.ndarray,
    taper: np.ndarray,
    lmn: np.ndarray | None = None,
    aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
    batch_bytes: int = DEFAULT_BATCH_BYTES,
    arena: ScratchArena | None = None,
) -> np.ndarray:
    """Run the gridder over work items ``start .. stop-1``.

    Buckets the work items by block shape, gathers each bucket into stacked
    tensors and grids it with one batched kernel call (chunked so the
    scratch working set stays under ``batch_bytes``, see
    :func:`max_bucket_items`): :func:`gridder_bucket_fast` when
    :func:`uniform_channel_step` finds evenly spaced channels,
    :func:`gridder_bucket` otherwise.  The visibilities' trailing
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
    lmn:
        Optional precomputed :func:`~repro.core.gridder.subgrid_lmn`
        (computed if omitted).  Its
        :func:`~repro.core.gridder.raster_factors` are looked up once per
        call and shared by every bucket chunk.
    aterm_fields:
        Maps ``(station, interval)`` to an ``(N, N, a, a)`` Jones field;
        ``None`` or missing keys mean identity.

    Returns
    -------
    ``(stop - start, N, N, a, a)`` complex64 image-domain subgrids.
    """
    n = plan.subgrid_size
    if lmn is None:
        lmn = subgrid_lmn(n, plan.gridspec.image_size)
    factors = raster_factors(lmn)
    if arena is None:
        arena = thread_arena()
    a = visibilities.shape[-1]
    identity = identity_jones_field(n, a=a) if aterm_fields else None
    ds = uniform_channel_step(plan.frequencies_hz)
    out = np.empty((stop - start, n, n, a, a), dtype=COMPLEX_DTYPE)
    for bucket in bucket_work_items(plan, start, stop):
        n_phase = bucket.n_times if ds is not None else bucket.n_times * bucket.n_channels
        cap = max_bucket_items(lmn.shape[0], n_phase, batch_bytes, a * a)
        for indices in iter_bucket_chunks(bucket, cap):
            vis = gather_visibilities(plan, indices, visibilities, arena)
            a_p, a_q = gather_aterm_fields(plan, indices, aterm_fields, identity, arena)
            if ds is not None:
                subgrids = gridder_bucket_fast(
                    vis,
                    gather_uvw(plan, indices, uvw_m, arena),
                    gather_scale0(plan, indices),
                    ds,
                    gather_offsets(plan, indices, arena),
                    lmn, taper, aterm_p=a_p, aterm_q=a_q, arena=arena, factors=factors,
                )
            else:
                subgrids = gridder_bucket(
                    vis.reshape(len(indices), -1, a * a),
                    gather_rel_uvw(plan, indices, uvw_m, arena),
                    lmn, taper, aterm_p=a_p, aterm_q=a_q, arena=arena, factors=factors,
                )
            out[indices - start] = subgrids
    return out


def degrid_work_group(
    plan: Plan,
    start: int,
    stop: int,
    subgrid_images: np.ndarray,
    uvw_m: np.ndarray,
    visibilities_out: np.ndarray,
    taper: np.ndarray,
    lmn: np.ndarray | None = None,
    aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
    batch_bytes: int = DEFAULT_BATCH_BYTES,
    arena: ScratchArena | None = None,
) -> None:
    """Run the degridder over work items ``start .. stop-1``, writing into
    ``visibilities_out`` (shape ``(n_baselines, n_times, n_channels, a, a)``)
    in place, one batched kernel call per bucket chunk.

    ``subgrid_images`` holds the ``(stop-start, N, N, a, a)`` image-domain
    subgrids produced by the splitter + inverse subgrid FFT, whose trailing
    shape sets the correlation count; the other arguments and the kernel
    choice are as in :func:`grid_work_group`.
    """
    n = plan.subgrid_size
    if lmn is None:
        lmn = subgrid_lmn(n, plan.gridspec.image_size)
    factors = raster_factors(lmn)
    if arena is None:
        arena = thread_arena()
    a = subgrid_images.shape[-1]
    identity = identity_jones_field(n, a=a) if aterm_fields else None
    ds = uniform_channel_step(plan.frequencies_hz)
    for bucket in bucket_work_items(plan, start, stop):
        n_phase = bucket.n_times if ds is not None else bucket.n_times * bucket.n_channels
        cap = max_bucket_items(lmn.shape[0], n_phase, batch_bytes, a * a)
        for indices in iter_bucket_chunks(bucket, cap):
            images = arena.take(
                "gather.subgrids", (len(indices), n, n, a, a), subgrid_images.dtype
            )
            np.take(subgrid_images, indices - start, axis=0, out=images)
            a_p, a_q = gather_aterm_fields(plan, indices, aterm_fields, identity, arena)
            if ds is not None:
                block = degridder_bucket_fast(
                    images,
                    gather_uvw(plan, indices, uvw_m, arena),
                    gather_scale0(plan, indices),
                    ds,
                    bucket.n_channels,
                    gather_offsets(plan, indices, arena),
                    lmn, taper, aterm_p=a_p, aterm_q=a_q, arena=arena, factors=factors,
                )
            else:
                block = degridder_bucket(
                    images,
                    gather_rel_uvw(plan, indices, uvw_m, arena),
                    lmn, taper, aterm_p=a_p, aterm_q=a_q, arena=arena, factors=factors,
                ).reshape(len(indices), bucket.n_times, bucket.n_channels, a * a)
            scatter_visibilities(plan, indices, block, visibilities_out)
