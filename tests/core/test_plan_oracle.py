"""The planner against its original per-timestep loop.

``Plan.create`` reduces each baseline's per-timestep u/v extremes once per
channel range and walks the greedy partition on Python floats.  The loop it
replaced reduced a channel slice at every (baseline, timestep) step and asked
the schedule for every timestep's interval.  :func:`_oracle_plan` keeps that
loop, and the property test below asserts both build identical plans (items
and flags) on random tracks, A-term cadences and channel splits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aterms.schedule import ATermSchedule
from repro.constants import SPEED_OF_LIGHT
from repro.core.plan import WORK_ITEM_DTYPE, Plan
from repro.gridspec import GridSpec


def _oracle_plan(
    uvw_m, frequencies_hz, baselines, gridspec, subgrid_size, kernel_support,
    time_max, schedule,
):
    """``(items, flagged)`` of the original greedy loop."""
    n_bl, n_times, _ = uvw_m.shape
    n_chan = frequencies_hz.size
    scale = frequencies_hz / SPEED_OF_LIGHT
    half_grid = gridspec.grid_size // 2
    half_support = kernel_support / 2.0
    usable = subgrid_size - 2
    grid_size = gridspec.grid_size
    rows = []
    flagged = np.zeros((n_bl, n_times, n_chan), dtype=bool)

    def span_ok(umin, umax, vmin, vmax):
        return (
            umax - umin + kernel_support <= usable
            and vmax - vmin + kernel_support <= usable
        )

    for b in range(n_bl):
        p_station, q_station = int(baselines[b, 0]), int(baselines[b, 1])
        bu = uvw_m[b, :, 0, np.newaxis] * scale * gridspec.image_size + half_grid
        bv = uvw_m[b, :, 1, np.newaxis] * scale * gridspec.image_size + half_grid
        segments = [(0, 0, n_chan)]
        while segments:
            t0, c0, c1 = segments.pop()
            if t0 >= n_times:
                continue
            interval = int(schedule.interval_of(t0))
            u_slice = bu[t0, c0:c1]
            v_slice = bv[t0, c0:c1]
            umin, umax = float(u_slice.min()), float(u_slice.max())
            vmin, vmax = float(v_slice.min()), float(v_slice.max())
            if not span_ok(umin, umax, vmin, vmax):
                if c1 - c0 == 1:
                    flagged[b, t0, c0] = True
                    segments.append((t0 + 1, c0, c1))
                else:
                    mid = (c0 + c1) // 2
                    segments.append((t0, mid, c1))
                    segments.append((t0, c0, mid))
                continue
            t1 = t0 + 1
            while (
                t1 < n_times
                and (t1 - t0) < time_max
                and int(schedule.interval_of(t1)) == interval
            ):
                u_next = bu[t1, c0:c1]
                v_next = bv[t1, c0:c1]
                numin = min(umin, float(u_next.min()))
                numax = max(umax, float(u_next.max()))
                nvmin = min(vmin, float(v_next.min()))
                nvmax = max(vmax, float(v_next.max()))
                if not span_ok(numin, numax, nvmin, nvmax):
                    break
                umin, umax, vmin, vmax = numin, numax, nvmin, nvmax
                t1 += 1
            cu = int(np.rint((umin + umax) / 2.0 - (subgrid_size - 1) / 2.0))
            cv = int(np.rint((vmin + vmax) / 2.0 - (subgrid_size - 1) / 2.0))
            cu = min(max(cu, 0), grid_size - subgrid_size)
            cv = min(max(cv, 0), grid_size - subgrid_size)
            lo_u = cu + half_support
            hi_u = cu + subgrid_size - 1 - half_support
            lo_v = cv + half_support
            hi_v = cv + subgrid_size - 1 - half_support
            if umin < lo_u or umax > hi_u or vmin < lo_v or vmax > hi_v:
                flagged[b, t0:t1, c0:c1] = True
            else:
                rows.append((b, p_station, q_station, t0, t1, c0, c1, cu, cv, interval))
            segments.append((t1, c0, c1))
    items = np.array(rows, dtype=WORK_ITEM_DTYPE) if rows else np.empty(0, WORK_ITEM_DTYPE)
    return items, flagged


@st.composite
def _observations(draw):
    """Random-walk uv tracks, some long enough to leave the grid; a band
    wide enough (up to 2x) that single timesteps split their channels."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_bl = draw(st.integers(1, 4))
    n_times = draw(st.integers(1, 24))
    n_chan = draw(st.integers(1, 12))
    grid_size = draw(st.sampled_from([64, 128, 256]))
    subgrid_size = draw(st.sampled_from([8, 12, 16, 24]))
    kernel_support = draw(st.integers(0, subgrid_size - 4))
    time_max = draw(st.integers(1, 30))
    update_interval = draw(st.integers(0, 8))
    bandwidth = draw(st.floats(0.0, 1.0))
    reach = draw(st.floats(0.1, 0.7))  # track radius, fraction of the grid
    step = draw(st.floats(0.0, 0.05))  # per-timestep drift, fraction of the grid

    rng = np.random.default_rng(seed)
    gridspec = GridSpec(grid_size=grid_size, image_size=0.05)
    frequencies_hz = 150e6 * (1.0 + bandwidth * np.sort(rng.random(n_chan)))
    # metres per pixel at the lowest frequency
    metre = SPEED_OF_LIGHT / (frequencies_hz[0] * gridspec.image_size)
    start = rng.uniform(-1.0, 1.0, (n_bl, 1, 3)) * reach * grid_size / 2
    drift = rng.normal(0.0, step * grid_size, (n_bl, n_times, 3))
    drift[:, 0] = 0.0
    uvw_m = (start + np.cumsum(drift, axis=1)) * metre
    baselines = np.stack([np.arange(n_bl), np.arange(n_bl) + 1], axis=1)
    return dict(
        uvw_m=uvw_m, frequencies_hz=frequencies_hz, baselines=baselines,
        gridspec=gridspec, subgrid_size=subgrid_size,
        kernel_support=kernel_support, time_max=time_max,
        schedule=ATermSchedule(update_interval),
    )


@settings(max_examples=60, deadline=None)
@given(_observations())
def test_plan_matches_the_per_timestep_loop(obs):
    plan = Plan.create(
        obs["uvw_m"], obs["frequencies_hz"], obs["baselines"], obs["gridspec"],
        subgrid_size=obs["subgrid_size"], kernel_support=obs["kernel_support"],
        time_max=obs["time_max"], aterm_schedule=obs["schedule"],
    )
    items, flagged = _oracle_plan(**obs)
    assert np.array_equal(plan.items, items)
    assert np.array_equal(plan.flagged, flagged)


def test_the_random_observations_reach_every_branch():
    """One drifting track splits channels, flags samples and cuts at A-term
    boundaries: the branches the random draws above are meant to reach."""
    obs = dict(
        uvw_m=None, frequencies_hz=150e6 * np.linspace(1.0, 2.0, 8),
        baselines=np.array([[0, 1]]), gridspec=GridSpec(64, 0.05),
        subgrid_size=16, kernel_support=4, time_max=30,
        schedule=ATermSchedule(3),
    )
    metre = SPEED_OF_LIGHT / (150e6 * 0.05)
    # drifts outwards: the 2x band splits the channels of the later
    # timesteps, and the top channels leave the grid
    track = np.linspace(2.0, 24.0, 12)[:, np.newaxis] * np.array([1.0, 0.3, 0.0])
    obs["uvw_m"] = track[np.newaxis] * metre
    items, flagged = _oracle_plan(**obs)
    assert flagged.any()
    assert any(row["channel_end"] - row["channel_start"] < 8 for row in items)
    assert len({int(row["aterm_interval"]) for row in items}) > 1
    plan = Plan.create(
        obs["uvw_m"], obs["frequencies_hz"], obs["baselines"], obs["gridspec"],
        subgrid_size=16, kernel_support=4, time_max=30,
        aterm_schedule=obs["schedule"],
    )
    assert np.array_equal(plan.items, items)
    assert np.array_equal(plan.flagged, flagged)
