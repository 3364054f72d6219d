"""The cross-backend differential harness.

Every registered backend runs the shared corpus (see ``conftest.py``) and is
held to two contracts:

* **pairwise equivalence** — master grids and degridded visibilities agree
  between every pair of backends to ``rtol = 1e-5`` (absolute floor scaled
  to the array's peak magnitude, since both outputs span many orders of
  magnitude);
* **adjointness** — each backend's gridder and degridder form an adjoint
  pair, ``<grid(V), S> == <V, degrid(S)>``, including taper and A-terms.
"""

import itertools

import numpy as np
import pytest

from repro.backends import available_backends

BACKENDS = available_backends()
PAIRS = list(itertools.combinations(BACKENDS, 2))
RTOL = 1e-5


def _assert_equivalent(a, b, label):
    scale = float(np.abs(a).max())
    assert scale > 0, f"{label}: degenerate all-zero output"
    np.testing.assert_allclose(
        b, a, rtol=RTOL, atol=RTOL * scale, err_msg=label
    )


def test_every_backend_registered_and_covered():
    """The corpus really runs every registered backend."""
    assert {"reference", "vectorized"} <= set(BACKENDS)
    covered = {name for pair in PAIRS for name in pair}
    assert covered == set(BACKENDS)


@pytest.mark.parametrize("pair", PAIRS, ids="-vs-".join)
def test_grids_agree_pairwise(case, corpus, pair):
    a, b = (corpus.results(case, name) for name in pair)
    _assert_equivalent(
        a["grid"], b["grid"], f"{case.name}: grid {pair[0]} vs {pair[1]}"
    )


@pytest.mark.parametrize("pair", PAIRS, ids="-vs-".join)
def test_degridded_visibilities_agree_pairwise(case, corpus, pair):
    a, b = (corpus.results(case, name) for name in pair)
    _assert_equivalent(
        a["degridded"],
        b["degridded"],
        f"{case.name}: degrid {pair[0]} vs {pair[1]}",
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_gridder_degridder_adjoint(case, corpus, backend_name):
    """``<grid(V), S> == <V, degrid(S)>`` per backend, on real work groups.

    ``grid_work_group`` reads only the visibility slices its work items
    cover and ``degrid_work_group`` writes only those same slices, so the
    full-array inner products reduce to the covered entries on both sides.
    """
    r = corpus.results(case, backend_name)
    w = corpus.workload(case)
    idg, plan, fields = r["idg"], r["plan"], r["fields"]
    backend = idg.backend
    obs, vis = w["obs"], w["vis"]
    stop = min(8, plan.n_subgrids)
    tables = backend.call_tables(plan, idg.lmn, fields, case.n_correlations)

    subgrids = backend.grid_work_group(
        plan, 0, stop, obs.uvw_m, vis, idg.taper, tables
    )
    rng = np.random.default_rng(99)
    shape = subgrids.shape
    probe = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(np.complex64)
    predicted = np.zeros_like(vis)
    backend.degrid_work_group(
        plan, 0, stop, probe, obs.uvw_m, predicted, idg.taper, tables
    )
    lhs = np.vdot(subgrids.astype(np.complex128), probe)
    rhs = np.vdot(vis, predicted.astype(np.complex128))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 2e-3, (
        f"{case.name}/{backend_name}: <grid(V), S>={lhs} != <V, degrid(S)>={rhs}"
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_flagged_entries_stay_zero(case, corpus, backend_name):
    """Degridded output is zero exactly where the plan flagged samples."""
    r = corpus.results(case, backend_name)
    flagged = r["plan"].flagged
    if not flagged.any():
        pytest.skip("plan flags nothing for this case")
    assert not r["degridded"][flagged].any()
