"""Pluggable kernel backends (the paper's architecture-specific kernels).

One IDG algorithm, several interchangeable kernel implementations — the
software analogue of the paper running the same pipeline on HASWELL, FIJI
and PASCAL.  Two backends register at import time:

* ``vectorized`` — the production path (default): shape-bucketed batches of
  subgrids, with the channel-phasor recurrence when channels are evenly
  spaced and the direct sum otherwise;
* ``reference``  — the loop-level Algorithm 1/2 oracle (slow, authoritative).

Select a backend with ``IDGConfig(backend="reference")`` or the CLI
``--backend`` flag.  All
registered backends are held to pairwise ``rtol = 1e-5`` agreement and
per-backend gridder/degridder adjointness by the differential harness in
``tests/backends/``.
"""

from repro.backends.base import KernelBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.registry import (
    DEFAULT_BACKEND,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.vectorized import VectorizedBackend

register_backend(ReferenceBackend())
register_backend(VectorizedBackend())

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
