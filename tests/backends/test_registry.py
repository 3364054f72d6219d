"""Backend registry: lookup and resolution order."""

import pytest

from repro.backends import (
    DEFAULT_BACKEND,
    KernelBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.core.pipeline import IDG, IDGConfig
from repro.gridspec import GridSpec


def test_builtin_backends_registered():
    assert available_backends() == ("reference", "vectorized")


def test_get_backend_unknown_name_lists_available():
    with pytest.raises(KeyError, match="vectorized"):
        get_backend("no-such-backend")


def test_register_rejects_abstract_name():
    with pytest.raises(ValueError):
        register_backend(KernelBackend())


def test_register_and_replace():
    from repro.backends import registry

    class Double(VectorizedBackend):
        name = "test-double"

    first = register_backend(Double())
    try:
        assert get_backend("test-double") is first
        second = register_backend(Double())
        assert get_backend("test-double") is second  # replacement is deliberate
    finally:
        del registry._REGISTRY["test-double"]


def test_resolve_backend_precedence():
    assert resolve_backend(None).name == DEFAULT_BACKEND
    assert resolve_backend("reference").name == "reference"
    # an instance passes through unregistered
    mine = VectorizedBackend()
    assert resolve_backend(mine) is mine
    # IDGConfig.backend is the one setting: unset means the default
    gridspec = GridSpec(grid_size=64, image_size=0.1)
    assert IDG(gridspec, IDGConfig(subgrid_size=8, kernel_support=2)).backend.name == DEFAULT_BACKEND
    named = IDG(gridspec, IDGConfig(subgrid_size=8, kernel_support=2, backend="reference"))
    assert named.backend.name == "reference"


def test_unknown_backend_raises_helpfully():
    gridspec = GridSpec(grid_size=64, image_size=0.1)
    with pytest.raises(KeyError, match="available"):
        IDG(gridspec, IDGConfig(subgrid_size=8, kernel_support=2, backend="cuda"))

