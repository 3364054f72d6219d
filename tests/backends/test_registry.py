"""Backend registry: lookup and resolution order."""

import pytest

from repro.backends import (
    DEFAULT_BACKEND,
    IDG_BACKEND_ENV,
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


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv(IDG_BACKEND_ENV, raising=False)
    assert resolve_backend(None).name == DEFAULT_BACKEND
    monkeypatch.setenv(IDG_BACKEND_ENV, "reference")
    assert resolve_backend(None).name == "reference"
    # an explicit name beats the environment
    assert resolve_backend("vectorized").name == "vectorized"
    # an instance passes through unregistered
    mine = VectorizedBackend()
    assert resolve_backend(mine) is mine


def test_idg_config_consults_environment(monkeypatch):
    gridspec = GridSpec(grid_size=64, image_size=0.1)
    monkeypatch.setenv(IDG_BACKEND_ENV, "reference")
    assert IDG(gridspec, IDGConfig(subgrid_size=8, kernel_support=2)).backend.name == "reference"
    monkeypatch.delenv(IDG_BACKEND_ENV)
    assert IDG(gridspec, IDGConfig(subgrid_size=8, kernel_support=2)).backend.name == DEFAULT_BACKEND
    named = IDG(gridspec, IDGConfig(subgrid_size=8, kernel_support=2, backend="reference"))
    assert named.backend.name == "reference"


def test_unknown_backend_raises_helpfully():
    gridspec = GridSpec(grid_size=64, image_size=0.1)
    with pytest.raises(KeyError, match="available"):
        IDG(gridspec, IDGConfig(subgrid_size=8, kernel_support=2, backend="cuda"))

