"""Property-based tests: performance-model and scheduler invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.spheroidal import evaluate_prolate_spheroidal
from repro.kernels.wkernel import n_term
from repro.perfmodel.architectures import ALL_ARCHITECTURES
from repro.perfmodel.sincos import mixed_throughput_ops
from repro.perfmodel.streams import schedule_buffers, serial_makespan

durations = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
job_lists = st.lists(st.tuples(durations, durations, durations), min_size=0, max_size=20)


@given(job_lists, st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_schedule_bounded_by_serial_and_busiest_stream(jobs, n_buffers):
    sched = schedule_buffers(jobs, n_buffers=n_buffers)
    serial = serial_makespan(jobs)
    assert sched.makespan <= serial + 1e-9
    for stage in ("htod", "compute", "dtoh"):
        assert sched.makespan >= sched.busy_time(stage) - 1e-9


@given(job_lists)
@settings(max_examples=50, deadline=None)
def test_more_buffers_never_slower(jobs):
    previous = float("inf")
    for buffers in (1, 2, 3, 4):
        makespan = schedule_buffers(jobs, n_buffers=buffers).makespan
        assert makespan <= previous + 1e-9
        previous = makespan


@given(job_lists, st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_streams_serialised(jobs, n_buffers):
    sched = schedule_buffers(jobs, n_buffers=n_buffers)
    for stage in ("htod", "compute", "dtoh"):
        events = sorted(sched.stream(stage), key=lambda e: e.start)
        for a, b in zip(events, events[1:]):
            assert a.end <= b.start + 1e-9


@given(
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=500.0),
)
@settings(max_examples=50, deadline=None)
def test_sincos_throughput_monotone(rho_a, rho_b):
    lo, hi = sorted((rho_a, rho_b))
    for arch in ALL_ARCHITECTURES:
        # relative tolerance: the min() against peak_ops introduces sub-ulp
        # wobble between algebraically equal expressions
        assert mixed_throughput_ops(arch, lo) <= mixed_throughput_ops(arch, hi) * (1 + 1e-9)


@given(st.floats(min_value=-0.7, max_value=0.7), st.floats(min_value=-0.7, max_value=0.7))
@settings(max_examples=50, deadline=None)
def test_n_term_bounds_and_symmetry(l, m):
    n = n_term(l, m)
    assert 0.0 <= n <= 1.0
    np.testing.assert_allclose(n_term(-l, -m), n)
    np.testing.assert_allclose(n_term(m, l), n)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_spheroidal_range(nu):
    val = evaluate_prolate_spheroidal(np.array([nu]))[0]
    assert -1e-12 <= val <= 1.0 + 1e-9
