"""The execution plan (paper Section V-A).

Before any kernel runs, the visibilities of every baseline are partitioned
into *work items*: a subgrid position on the master grid plus the contiguous
(time x channel) block of visibilities it covers.  The partitioning is the
paper's greedy algorithm: starting at the first timestep, include as many
timesteps (each with the current channel block) as the subgrid can cover —
where "cover" includes the half-support of the anti-aliasing/A/w kernels
(Fig 5) — then start a new subgrid.  Additional cut conditions:

* ``time_max`` (the paper's T̃_max) bounds the timesteps per subgrid so work
  items stay comparable in cost;
* an A-term update boundary always starts a new subgrid (the correction is
  applied once per subgrid);
* a channel block whose uv spread alone exceeds the subgrid is split in half
  recursively (the paper: "we create a new subgrid ... to cover the
  remaining channels").

Visibilities whose kernel footprint cannot be placed on the master grid at
all are *flagged* and skipped by every kernel (this mirrors production
imagers dropping out-of-range samples).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.aterms.schedule import ATermSchedule
from repro.atomicio import atomic_savez_compressed
from repro.constants import SPEED_OF_LIGHT
from repro.gridspec import GridSpec

#: dtype of the packed work-item metadata table.
WORK_ITEM_DTYPE = np.dtype(
    [
        ("baseline", np.int32),
        ("station_p", np.int32),
        ("station_q", np.int32),
        ("time_start", np.int32),
        ("time_end", np.int32),  # exclusive
        ("channel_start", np.int32),
        ("channel_end", np.int32),  # exclusive
        ("corner_u", np.int32),
        ("corner_v", np.int32),
        ("aterm_interval", np.int32),
    ]
)


@dataclass(frozen=True)
class WorkItem:
    """One subgrid plus the visibility block it covers (paper Fig 6, level 3)."""

    baseline: int
    station_p: int
    station_q: int
    time_start: int
    time_end: int
    channel_start: int
    channel_end: int
    corner_u: int
    corner_v: int
    aterm_interval: int

    @property
    def n_times(self) -> int:
        return self.time_end - self.time_start

    @property
    def n_channels(self) -> int:
        return self.channel_end - self.channel_start

    @property
    def n_visibilities(self) -> int:
        return self.n_times * self.n_channels


@dataclass(frozen=True)
class PlanStatistics:
    """Aggregate plan metrics feeding the performance model (Section VI)."""

    n_subgrids: int
    n_visibilities_total: int
    n_visibilities_gridded: int
    n_visibilities_flagged: int
    mean_visibilities_per_subgrid: float
    max_timesteps_per_subgrid: int
    subgrid_size: int
    grid_size: int

    @property
    def occupancy(self) -> float:
        """Mean covered visibilities per subgrid / (time_max * channels) — a
        proxy for how much phasor work each subgrid amortises."""
        return self.mean_visibilities_per_subgrid


class Plan:
    """Execution plan: work items, work groups, and coverage bookkeeping.

    Build with :meth:`Plan.create`; the constructor takes pre-computed parts
    (used by tests and by the w-stacking driver, which plans each w layer
    separately).
    """

    def __init__(
        self,
        gridspec: GridSpec,
        subgrid_size: int,
        items: np.ndarray,
        flagged: np.ndarray,
        frequencies_hz: np.ndarray,
        kernel_support: int,
        w_offset: float = 0.0,
    ):
        if items.dtype != WORK_ITEM_DTYPE:
            raise ValueError("items must use WORK_ITEM_DTYPE")
        self.gridspec = gridspec
        self.subgrid_size = int(subgrid_size)
        self.items = items
        self.flagged = flagged
        self.frequencies_hz = np.asarray(frequencies_hz, dtype=np.float64)
        self.kernel_support = int(kernel_support)
        self.w_offset = float(w_offset)

    # ------------------------------------------------------------------ API

    @property
    def n_subgrids(self) -> int:
        return len(self.items)

    @property
    def n_channels(self) -> int:
        return self.frequencies_hz.size

    def work_item(self, index: int) -> WorkItem:
        """Materialise one row of the metadata table as a :class:`WorkItem`."""
        row = self.items[index]
        return WorkItem(*(int(row[name]) for name in WORK_ITEM_DTYPE.names))

    def __iter__(self):
        for i in range(self.n_subgrids):
            yield self.work_item(i)

    def work_groups(self, group_size: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(start, stop)`` index ranges — the paper's work groups
        (Fig 6, level 2).  The last group may be smaller."""
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        for start in range(0, self.n_subgrids, group_size):
            yield (start, min(start + group_size, self.n_subgrids))

    def subgrid_centre_uv(self, index: int) -> tuple[float, float]:
        """(u_mid, v_mid) in wavelengths of subgrid ``index``'s centre cell."""
        row = self.items[index]
        du = self.gridspec.cell_size
        half = self.subgrid_size // 2
        g_half = self.gridspec.grid_size // 2
        return (
            (int(row["corner_u"]) + half - g_half) * du,
            (int(row["corner_v"]) + half - g_half) * du,
        )

    @cached_property
    def statistics(self) -> PlanStatistics:
        covered = int(
            sum(
                (int(r["time_end"]) - int(r["time_start"]))
                * (int(r["channel_end"]) - int(r["channel_start"]))
                for r in self.items
            )
        )
        n_total = int(self.flagged.size)
        n_flagged = int(self.flagged.sum())
        max_t = max(
            (int(r["time_end"]) - int(r["time_start"]) for r in self.items), default=0
        )
        return PlanStatistics(
            n_subgrids=self.n_subgrids,
            n_visibilities_total=n_total,
            n_visibilities_gridded=covered,
            n_visibilities_flagged=n_flagged,
            mean_visibilities_per_subgrid=covered / self.n_subgrids if self.n_subgrids else 0.0,
            max_timesteps_per_subgrid=max_t,
            subgrid_size=self.subgrid_size,
            grid_size=self.gridspec.grid_size,
        )

    # -------------------------------------------------------- serialisation

    def save(self, path) -> None:
        """Write the plan to a compressed ``.npz`` (atomically: temp file +
        rename, so a crash mid-save never leaves a truncated plan).

        Plans for large observations take minutes to build (the greedy sweep
        visits every visibility); pipelines reuse one plan across many
        imaging cycles, so persisting it is worthwhile.
        """
        atomic_savez_compressed(
            path,
            plan_version=np.int64(1),
            grid_size=np.int64(self.gridspec.grid_size),
            image_size=np.float64(self.gridspec.image_size),
            subgrid_size=np.int64(self.subgrid_size),
            kernel_support=np.int64(self.kernel_support),
            w_offset=np.float64(self.w_offset),
            items=self.items,
            flagged=self.flagged,
            frequencies_hz=self.frequencies_hz,
        )

    @classmethod
    def load(cls, path) -> "Plan":
        """Read a plan written by :meth:`save`."""
        with np.load(path) as archive:
            version = int(archive["plan_version"])
            if version != 1:
                raise ValueError(f"unsupported plan version {version}")
            gridspec = GridSpec(
                grid_size=int(archive["grid_size"]),
                image_size=float(archive["image_size"]),
            )
            return cls(
                gridspec=gridspec,
                subgrid_size=int(archive["subgrid_size"]),
                items=archive["items"],
                flagged=archive["flagged"],
                frequencies_hz=archive["frequencies_hz"],
                kernel_support=int(archive["kernel_support"]),
                w_offset=float(archive["w_offset"]),
            )

    # ------------------------------------------------------------ creation

    @classmethod
    def create(
        cls,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        baselines: np.ndarray,
        gridspec: GridSpec,
        subgrid_size: int = 24,
        kernel_support: int = 8,
        time_max: int = 128,
        aterm_schedule: ATermSchedule | None = None,
        w_offset: float = 0.0,
    ) -> "Plan":
        """Run the greedy partitioner over every baseline.

        Parameters
        ----------
        uvw_m:
            ``(n_baselines, n_times, 3)`` uvw in metres.
        frequencies_hz:
            ``(n_channels,)`` channel frequencies of the subband.
        baselines:
            ``(n_baselines, 2)`` station pairs.
        gridspec:
            Master grid geometry.
        subgrid_size:
            Subgrid pixels per axis (paper benchmark: 24).
        kernel_support:
            Full width, in uv cells, of the taper/A/w kernel footprint that
            must fit around every visibility inside the subgrid (Fig 5's blue
            circles).
        time_max:
            The paper's T̃_max — upper bound on timesteps per subgrid.
        aterm_schedule:
            A-term update cadence; boundaries force subgrid cuts.
        w_offset:
            w-plane centre (wavelengths) when used inside W-stacking; the
            gridder subtracts it from every visibility's w.
        """
        uvw_m = np.asarray(uvw_m, dtype=np.float64)
        if uvw_m.ndim != 3 or uvw_m.shape[2] != 3:
            raise ValueError(f"uvw_m must be (n_baselines, n_times, 3), got {uvw_m.shape}")
        frequencies_hz = np.atleast_1d(np.asarray(frequencies_hz, dtype=np.float64))
        baselines = np.asarray(baselines)
        n_bl, n_times, _ = uvw_m.shape
        n_chan = frequencies_hz.size
        if baselines.shape != (n_bl, 2):
            raise ValueError(f"baselines must be ({n_bl}, 2), got {baselines.shape}")
        if subgrid_size <= 0 or subgrid_size % 2:
            raise ValueError("subgrid_size must be positive and even")
        if not (0 <= kernel_support < subgrid_size):
            raise ValueError("kernel_support must be in [0, subgrid_size)")
        if time_max <= 0:
            raise ValueError("time_max must be positive")
        if subgrid_size > gridspec.grid_size:
            raise ValueError("subgrid larger than the master grid")
        schedule = aterm_schedule or ATermSchedule(0)

        # Pixel-coordinate scale: u_pix = u_m * (f/c) * image_size + G/2.
        # The (T, C) coordinate arrays are computed per baseline inside the
        # loop, not as one (n_bl, T, C) block up front, so planning memory
        # stays O(T * C) — ``uvw_m`` may be a chunked-store memmap backing a
        # dataset far larger than RAM, and the out-of-core RSS bound covers
        # plan construction too.  Per-element arithmetic is identical either
        # way, so the resulting plan is bit-for-bit unchanged.
        scale = frequencies_hz / SPEED_OF_LIGHT  # (C,)
        half_grid = gridspec.grid_size // 2

        half_support = kernel_support / 2.0
        # Span bound: bbox + kernel support must fit the subgrid *after* the
        # subgrid corner is rounded to an integer cell — rounding can shift
        # the coverage window by up to half a cell each way, hence the -2.
        usable = subgrid_size - 2
        grid_size = gridspec.grid_size
        intervals = np.broadcast_to(
            schedule.interval_of(np.arange(n_times)), (n_times,)
        ).tolist()

        rows: list[tuple] = []
        flagged = np.zeros((n_bl, n_times, n_chan), dtype=bool)

        for b in range(n_bl):
            p_station, q_station = int(baselines[b, 0]), int(baselines[b, 1])
            # (T, C) pixel coordinates of this baseline's visibilities.
            bu = uvw_m[b, :, 0, np.newaxis] * scale * gridspec.image_size + half_grid
            bv = uvw_m[b, :, 1, np.newaxis] * scale * gridspec.image_size + half_grid
            # per-timestep (u_min, u_max, v_min, v_max) lists of each channel
            # range, reduced once: the greedy walk below runs on floats
            extremes: dict[tuple[int, int], tuple[list[float], ...]] = {}

            # work queue of (t_start, c0, c1) segments, LIFO order is fine
            segments = [(0, 0, n_chan)]
            while segments:
                t0, c0, c1 = segments.pop()
                if t0 >= n_times:
                    continue
                interval = intervals[t0]
                if (c0, c1) not in extremes:
                    u, v = bu[:, c0:c1], bv[:, c0:c1]
                    extremes[c0, c1] = (
                        u.min(axis=1).tolist(), u.max(axis=1).tolist(),
                        v.min(axis=1).tolist(), v.max(axis=1).tolist(),
                    )
                u_lo, u_hi, v_lo, v_hi = extremes[c0, c1]
                umin, umax, vmin, vmax = u_lo[t0], u_hi[t0], v_lo[t0], v_hi[t0]

                if not (
                    umax - umin + kernel_support <= usable
                    and vmax - vmin + kernel_support <= usable
                ):
                    if c1 - c0 == 1:
                        # A single visibility's footprint exceeds the subgrid
                        # (can only happen with tiny subgrids): flag it.
                        flagged[b, t0, c0] = True
                        segments.append((t0 + 1, c0, c1))
                    else:
                        mid = (c0 + c1) // 2
                        segments.append((t0, mid, c1))
                        segments.append((t0, c0, mid))
                    continue

                # Greedily extend in time.
                t1 = t0 + 1
                t_end = min(n_times, t0 + time_max)
                while t1 < t_end and intervals[t1] == interval:
                    numin = min(umin, u_lo[t1])
                    numax = max(umax, u_hi[t1])
                    nvmin = min(vmin, v_lo[t1])
                    nvmax = max(vmax, v_hi[t1])
                    if not (
                        numax - numin + kernel_support <= usable
                        and nvmax - nvmin + kernel_support <= usable
                    ):
                        break
                    umin, umax, vmin, vmax = numin, numax, nvmin, nvmax
                    t1 += 1

                # Place the subgrid: centre the *coverage window* (cells
                # corner + support/2 .. corner + N-1 - support/2, whose
                # midpoint is corner + (N-1)/2) on the bbox centre, then
                # clamp to the grid.  With the -2 slack in the span test this
                # placement provably covers the bbox for interior subgrids.
                cu = int(np.rint((umin + umax) / 2.0 - (subgrid_size - 1) / 2.0))
                cv = int(np.rint((vmin + vmax) / 2.0 - (subgrid_size - 1) / 2.0))
                cu = min(max(cu, 0), grid_size - subgrid_size)
                cv = min(max(cv, 0), grid_size - subgrid_size)

                # Verify the clamped subgrid still covers every footprint;
                # otherwise the visibilities fall off the master grid: flag.
                lo_u = cu + half_support
                hi_u = cu + subgrid_size - 1 - half_support
                lo_v = cv + half_support
                hi_v = cv + subgrid_size - 1 - half_support
                if umin < lo_u or umax > hi_u or vmin < lo_v or vmax > hi_v:
                    flagged[b, t0:t1, c0:c1] = True
                else:
                    rows.append(
                        (b, p_station, q_station, t0, t1, c0, c1, cu, cv, interval)
                    )
                segments.append((t1, c0, c1))

        items = np.array(rows, dtype=WORK_ITEM_DTYPE) if rows else np.empty(
            0, dtype=WORK_ITEM_DTYPE
        )
        return cls(
            gridspec=gridspec,
            subgrid_size=subgrid_size,
            items=items,
            flagged=flagged,
            frequencies_hz=frequencies_hz,
            kernel_support=kernel_support,
            w_offset=w_offset,
        )
