"""Crash-safe file writes shared by dataset, plan and checkpoint I/O.

A process dying mid-``np.savez`` or mid-``np.savez_compressed`` leaves a
truncated archive that ``np.load`` cannot open — fatal for anything meant to
survive a crash (datasets, execution plans, checkpoints).  The helpers here write
to a temporary file *in the destination directory* (so the final rename
never crosses a filesystem) and publish it with ``os.replace``, which is
atomic on POSIX and Windows: readers see either the old complete file or
the new complete file, never a partial one.  Missing parent directories are
created instead of failing with a bare ``FileNotFoundError``.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import Any, Callable

import numpy as np

__all__ = ["atomic_savez", "atomic_savez_compressed"]


def _atomic_write(
    path: str | pathlib.Path, write: Callable[[Any], None]
) -> pathlib.Path:
    """Run ``write(fh)`` into a temporary file next to ``path`` and publish
    it with ``os.replace``; returns the path written (``.npz`` appended when
    missing, as numpy does)."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp.npz"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_savez_compressed(
    path: str | pathlib.Path, **arrays: Any
) -> pathlib.Path:
    """``np.savez_compressed`` with write-to-temp-then-rename semantics.

    Mirrors numpy's name handling (a ``.npz`` suffix is appended when
    missing) and returns the path actually written.
    """
    return _atomic_write(path, lambda fh: np.savez_compressed(fh, **arrays))


def atomic_savez(path: str | pathlib.Path, **arrays: Any) -> pathlib.Path:
    """``np.savez`` (uncompressed) with the same write-to-temp-then-rename
    semantics as :func:`atomic_savez_compressed`."""
    return _atomic_write(path, lambda fh: np.savez(fh, **arrays))
