"""Cross-executor conformance: every executor, one corpus, bit-identical.

The contract (DESIGN.md §14): all four executors run the same kernels on the
same work groups and accumulate work groups onto the master grid in
ascending plan order, so their grids — and degridded visibilities — are
**bit-identical**, not merely close.  ``np.array_equal`` with no tolerance
is the whole assertion; any reassociation of the floating-point sums is a
regression.
"""

from __future__ import annotations

import numpy as np
import pytest

PARALLEL_EXECUTORS = ("threads", "streaming", "processes")


@pytest.mark.parametrize("executor", PARALLEL_EXECUTORS)
def test_grid_bit_identical_to_serial(conformance, conformance_case, executor):
    reference = conformance.reference(conformance_case)["grid"]
    result = conformance.run(executor, conformance_case, "grid")
    assert result.dtype == reference.dtype
    assert np.array_equal(result, reference)


@pytest.mark.parametrize("executor", PARALLEL_EXECUTORS)
def test_degrid_bit_identical_to_serial(conformance, conformance_case, executor):
    reference = conformance.reference(conformance_case)["degrid"]
    result = conformance.run(executor, conformance_case, "degrid")
    assert result.dtype == reference.dtype
    assert np.array_equal(result, reference)


def test_corpus_is_structurally_varied(conformance):
    """The corpus actually exercises w-offsets, A-terms, wideband and flags
    (guards against a future edit silently neutering a case)."""
    by_name = {c.name: c for c in conformance.cases}
    assert by_name["w-offset"].w_offset != 0.0
    assert by_name["aterms"].aterm_interval is not None
    assert by_name["wideband"].n_channels == 512
    assert by_name["flagged"].flag_fraction > 0.0
    flagged = conformance.workload(by_name["flagged"])
    assert flagged["flags"] is not None and flagged["flags"].any()
    # Flags must change the answer, or the flagged case proves nothing.
    w = flagged
    unflagged = w["idg"].grid(w["plan"], w["obs"].uvw_m, w["vis"])
    assert not np.array_equal(
        unflagged, conformance.reference(by_name["flagged"])["grid"]
    )


@pytest.mark.parametrize("executor", PARALLEL_EXECUTORS)
@pytest.mark.parametrize("kind", ["grid", "degrid"])
def test_one_correlation_bit_identical_to_serial(
    conformance, stokes_i_case, executor, kind
):
    """The Stokes-I corpus — (..., 1, 1) visibilities, (1, G, G) grids,
    1x1 scalar A-term fields — is bit-identical across executors too."""
    reference = conformance.reference(stokes_i_case)[kind]
    result = conformance.run(executor, stokes_i_case, kind)
    assert result.dtype == reference.dtype
    assert np.array_equal(result, reference)


def test_one_correlation_cases_grid_one_plane(conformance):
    """The Stokes-I cases really run one correlation: a (1, G, G) grid, a
    (..., 1, 1) prediction, and 1x1 A-term fields in the A-term case."""
    by_name = {c.name: c for c in conformance.stokes_i_cases}
    for case in by_name.values():
        reference = conformance.reference(case)
        assert reference["grid"].shape[0] == 1
        assert reference["degrid"].shape[-2:] == (1, 1)
    fields = conformance.workload(by_name["stokes-i-aterms"])["aterm_kwargs"]["aterm_fields"]
    assert fields and all(f.shape[-2:] == (1, 1) for f in fields.values())
