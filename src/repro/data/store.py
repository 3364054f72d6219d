"""Schema-v2 chunked dataset store: out-of-core visibilities (DESIGN.md §15).

A *store* is a directory of raw ``.npy`` arrays — one file per dataset
column — plus a JSON manifest recording shapes, dtypes and a content hash::

    mydata.vis/
        manifest.json        <- written last: its presence commits the store
        uvw_m.npy            (n_baselines, n_times, 3)        float64
        visibilities.npy     (n_baselines, n_times, C, 2, 2)  complex64
        frequencies_hz.npy   (C,)                             float64
        baselines.npy        (n_baselines, 2)                 int
        flags.npy            (n_baselines, n_times, C)        bool

Unlike the schema-v1 ``.npz`` archive (:mod:`repro.data.io`), nothing here
is ever materialised whole: :class:`DatasetWriter` creates the arrays as
disk-backed memmaps and fills them *chunk-at-a-time* along the time axis,
and :func:`open_store` maps them back read-only (``mmap_mode="r"``), so both
generating and consuming a dataset far larger than RAM needs only one
chunk's worth of pages resident.  Crash safety comes from ordering, not
locking: the manifest is written last (atomically, temp-file + rename), so
a writer dying mid-stream leaves a directory without a manifest that
:func:`open_store` refuses — never a half-readable dataset.

:class:`ChunkedVisibilitySource` is the reader the executors stream from.
It wraps the visibility memmap (plus the stored flags) behind exactly the
indexing grammar the kernels use — ``vis[baseline, t0:t1, c0:c1]`` block
slices and the single trailing-axis ``reshape`` of the batched gather — so
it drops into :meth:`repro.core.IDG.grid` and every parallel executor in
place of the in-memory array.  Each block is copied out of the map and
masked on the fly (bit-identical to the eager
:func:`repro.core.pipeline.mask_flagged`), and :meth:`drop_caches` returns
resident file pages to the OS (``madvise(MADV_DONTNEED)``) so a streaming
run's RSS stays flat no matter how many bytes flow through.
"""

from __future__ import annotations

import json
import mmap
import pathlib
from dataclasses import dataclass
from typing import Final

import numpy as np

from repro.constants import COMPLEX_DTYPE
from repro.data.dataset import VisibilityDataset
from repro.hashing import ContentHasher

__all__ = [
    "STORE_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "StoreError",
    "StoreManifest",
    "DatasetWriter",
    "ChunkedStore",
    "ChunkedVisibilitySource",
    "is_store",
    "open_store",
    "write_store",
]

#: On-disk schema version of the chunked store (v1 is the ``.npz`` archive).
STORE_SCHEMA_VERSION = 2

#: The commit marker: a directory is a store iff this file parses.
MANIFEST_NAME = "manifest.json"

#: Column name -> file name; the fixed layout of every store directory.
ARRAY_FILES: Final = {
    "uvw_m": "uvw_m.npy",
    "visibilities": "visibilities.npy",
    "frequencies_hz": "frequencies_hz.npy",
    "baselines": "baselines.npy",
    "flags": "flags.npy",
}

#: Bytes hashed per read while computing the streaming content hash.
_HASH_BLOCK_BYTES = 16 * 1024 * 1024


class StoreError(ValueError):
    """A malformed, incomplete or incompatible chunked dataset store."""


def _drop_pages(array: np.ndarray) -> None:
    """Advise the kernel to evict ``array``'s resident file pages.

    No-op for non-memmap arrays and on platforms without ``madvise``; the
    data stays readable (pages fault back in on demand) — only the
    *resident* footprint is returned to the OS.
    """
    mm = getattr(array, "_mmap", None)
    if mm is None:
        return
    try:
        mm.madvise(mmap.MADV_DONTNEED)
    except (AttributeError, ValueError, OSError):  # pragma: no cover
        pass


@dataclass(frozen=True)
class StoreManifest:
    """The parsed ``manifest.json`` of one store directory."""

    schema_version: int
    arrays: dict[str, dict]  # name -> {"shape": [...], "dtype": "<c8", ...}
    n_baselines: int
    n_times: int
    n_channels: int
    any_flags: bool
    content_hash: str

    def to_json(self) -> str:
        """Serialise, keys sorted, trailing newline (stable diffs)."""
        payload = {
            "schema_version": self.schema_version,
            "arrays": self.arrays,
            "n_baselines": self.n_baselines,
            "n_times": self.n_times,
            "n_channels": self.n_channels,
            "any_flags": self.any_flags,
            "content_hash": self.content_hash,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StoreManifest":
        try:
            payload = json.loads(text)
            return cls(
                schema_version=int(payload["schema_version"]),
                arrays=dict(payload["arrays"]),
                n_baselines=int(payload["n_baselines"]),
                n_times=int(payload["n_times"]),
                n_channels=int(payload["n_channels"]),
                any_flags=bool(payload["any_flags"]),
                content_hash=str(payload["content_hash"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed store manifest: {exc!r}") from exc


def _streaming_content_hash(root: pathlib.Path) -> str:
    """sha256 over every array file's bytes in fixed blocks (bounded RSS).

    Each file is framed by its column name so moving bytes between files
    cannot collide; files are visited in sorted column order.
    """
    hasher = ContentHasher()
    for name in sorted(ARRAY_FILES):
        hasher.update_bytes(name.encode("ascii") + b"\x00")
        with open(root / ARRAY_FILES[name], "rb") as fh:
            while True:
                block = fh.read(_HASH_BLOCK_BYTES)
                if not block:
                    break
                hasher.update_bytes(block)
    return hasher.hexdigest()


# ------------------------------------------------------------------ writing


class DatasetWriter:
    """Chunk-at-a-time store writer: fill time ranges, then ``finalize``.

    Creates the five column files as writable memmaps
    (``np.lib.format.open_memmap(mode="w+")``) and exposes
    :meth:`write_times` to land ``[t0, t0 + n)`` time slabs of uvw,
    visibilities and flags — the producer never holds more than one slab in
    memory, and written pages are dropped back to the OS after each call so
    generation RSS stays flat.  ``frequencies_hz`` and ``baselines`` are
    small and set whole.  :meth:`finalize` verifies every timestep was
    written exactly once, computes the streaming content hash, and commits
    the store by writing the manifest (atomically) *last*.

    Use as a context manager or call :meth:`close` — an abandoned writer
    (crash before ``finalize``) leaves no manifest, so the partial directory
    is never readable as a store.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        n_baselines: int,
        n_times: int,
        n_channels: int,
        vis_dtype: np.dtype | type = COMPLEX_DTYPE,
        baselines_dtype: np.dtype | type = np.int64,
    ) -> None:
        if min(n_baselines, n_times, n_channels) <= 0:
            raise ValueError("n_baselines, n_times, n_channels must be positive")
        self.path = pathlib.Path(path)
        if (self.path / MANIFEST_NAME).exists():
            raise StoreError(
                f"refusing to overwrite existing store at {self.path}"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        self.n_baselines = int(n_baselines)
        self.n_times = int(n_times)
        self.n_channels = int(n_channels)
        open_memmap = np.lib.format.open_memmap
        self.uvw_m = open_memmap(
            self.path / ARRAY_FILES["uvw_m"], mode="w+",
            dtype=np.float64, shape=(n_baselines, n_times, 3),
        )
        self.visibilities = open_memmap(
            self.path / ARRAY_FILES["visibilities"], mode="w+",
            dtype=np.dtype(vis_dtype), shape=(n_baselines, n_times, n_channels, 2, 2),
        )
        self.flags = open_memmap(
            self.path / ARRAY_FILES["flags"], mode="w+",
            dtype=bool, shape=(n_baselines, n_times, n_channels),
        )
        self._frequencies: np.ndarray | None = None
        self._baselines: np.ndarray | None = None
        self._baselines_dtype = np.dtype(baselines_dtype)
        self._written = np.zeros(n_times, dtype=bool)
        self._any_flags = False
        self._finalized = False

    # -- metadata columns

    def set_frequencies(self, frequencies_hz: np.ndarray) -> None:
        """Set the ``(n_channels,)`` channel frequencies [Hz]."""
        freqs = np.atleast_1d(np.asarray(frequencies_hz, dtype=np.float64))
        if freqs.shape != (self.n_channels,):
            raise ValueError(
                f"frequencies_hz shape {freqs.shape} != ({self.n_channels},)"
            )
        self._frequencies = freqs

    def set_baselines(self, baselines: np.ndarray) -> None:
        """Set the ``(n_baselines, 2)`` station-index pairs."""
        bl = np.asarray(baselines)
        if bl.shape != (self.n_baselines, 2):
            raise ValueError(
                f"baselines shape {bl.shape} != ({self.n_baselines}, 2)"
            )
        self._baselines = bl

    # -- bulk columns, one time slab at a time

    def write_times(
        self,
        t0: int,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        flags: np.ndarray | None = None,
    ) -> None:
        """Write the ``[t0, t0 + n)`` time slab of every bulk column.

        ``uvw_m`` is ``(n_baselines, n, 3)``, ``visibilities``
        ``(n_baselines, n, n_channels, 2, 2)`` and ``flags`` (optional —
        omitted means unflagged) ``(n_baselines, n, n_channels)``.  Slabs
        may arrive in any order but each timestep exactly once.
        """
        if self._finalized:
            raise StoreError("writer already finalized")
        uvw_m = np.asarray(uvw_m)
        visibilities = np.asarray(visibilities)
        n = uvw_m.shape[1] if uvw_m.ndim == 3 else -1
        if uvw_m.shape != (self.n_baselines, n, 3) or n <= 0:
            raise ValueError(
                f"uvw_m slab shape {uvw_m.shape} != "
                f"({self.n_baselines}, n, 3)"
            )
        if not (0 <= t0 and t0 + n <= self.n_times):
            raise ValueError(
                f"time slab [{t0}, {t0 + n}) outside [0, {self.n_times})"
            )
        if self._written[t0:t0 + n].any():
            raise StoreError(
                f"time slab [{t0}, {t0 + n}) overlaps already-written steps"
            )
        expected_vis = (self.n_baselines, n, self.n_channels, 2, 2)
        if visibilities.shape != expected_vis:
            raise ValueError(
                f"visibilities slab shape {visibilities.shape} != {expected_vis}"
            )
        self.uvw_m[:, t0:t0 + n] = uvw_m
        self.visibilities[:, t0:t0 + n] = visibilities
        if flags is not None:
            flags = np.asarray(flags, dtype=bool)
            if flags.shape != expected_vis[:3]:
                raise ValueError(
                    f"flags slab shape {flags.shape} != {expected_vis[:3]}"
                )
            self.flags[:, t0:t0 + n] = flags
            self._any_flags = self._any_flags or bool(flags.any())
        self._written[t0:t0 + n] = True
        # Return the slab's dirty pages to the OS so writer RSS stays flat.
        for column in (self.uvw_m, self.visibilities, self.flags):
            column.flush()
            _drop_pages(column)

    def mark_written(self, t0: int, n_times: int) -> None:
        """Declare ``[t0, t0 + n_times)`` filled directly through the maps.

        For producers that write into the exposed ``uvw_m`` /
        ``visibilities`` / ``flags`` memmaps themselves — e.g. a degrid
        streaming its prediction into ``writer.visibilities`` via ``out=`` —
        instead of going through :meth:`write_times`.  The coverage check in
        :meth:`finalize` treats these steps as written.
        """
        if self._finalized:
            raise StoreError("writer already finalized")
        if n_times <= 0 or not (0 <= t0 and t0 + n_times <= self.n_times):
            raise ValueError(
                f"time range [{t0}, {t0 + n_times}) outside "
                f"[0, {self.n_times})"
            )
        self._written[t0:t0 + n_times] = True

    # -- commit / abandon

    def finalize(self) -> "ChunkedStore":
        """Commit the store: verify coverage, hash, write the manifest last."""
        if self._finalized:
            raise StoreError("writer already finalized")
        if self._frequencies is None or self._baselines is None:
            raise StoreError(
                "set_frequencies() and set_baselines() must be called "
                "before finalize()"
            )
        if not self._written.all():
            missing = int((~self._written).sum())
            raise StoreError(
                f"{missing} of {self.n_times} timesteps were never written"
            )
        # Flush the maps before hashing so the manifest (written last) never
        # names data that could still be lost to a crash.
        for column in (self.uvw_m, self.visibilities, self.flags):
            column.flush()
        np.save(self.path / ARRAY_FILES["frequencies_hz"], self._frequencies)
        np.save(
            self.path / ARRAY_FILES["baselines"],
            np.ascontiguousarray(self._baselines, dtype=self._baselines_dtype),
        )
        arrays = {
            "uvw_m": self.uvw_m, "visibilities": self.visibilities,
            "flags": self.flags, "frequencies_hz": self._frequencies,
            "baselines": np.asarray(self._baselines, dtype=self._baselines_dtype),
        }
        manifest = StoreManifest(
            schema_version=STORE_SCHEMA_VERSION,
            arrays={
                name: {
                    "shape": list(arr.shape),
                    "dtype": np.dtype(arr.dtype).str,
                }
                for name, arr in sorted(arrays.items())
            },
            n_baselines=self.n_baselines,
            n_times=self.n_times,
            n_channels=self.n_channels,
            any_flags=self._any_flags,
            content_hash=_streaming_content_hash(self.path),
        )
        _atomic_write_text(self.path / MANIFEST_NAME, manifest.to_json())
        self.close()
        return open_store(self.path)

    def close(self) -> None:
        """Release the writable maps (without committing, if not finalized)."""
        self._finalized = True
        for name in ("uvw_m", "visibilities", "flags"):
            column = getattr(self, name, None)
            if column is not None:
                column.flush()
                _drop_pages(column)
                setattr(self, name, None)

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write-to-temp + rename, same contract as :mod:`repro.atomicio`."""
    import os
    import tempfile

    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_store(
    dataset: VisibilityDataset,
    path: str | pathlib.Path,
    time_chunk: int = 256,
) -> "ChunkedStore":
    """Write an (in-memory) dataset as a chunked store, slab by slab.

    The convenience inverse of :meth:`ChunkedStore.as_dataset` — used by
    ``repro convert-dataset`` and the test fixtures.  ``time_chunk`` bounds
    the slab size (and therefore the writer's transient memory).
    """
    with DatasetWriter(
        path, dataset.n_baselines, dataset.n_times, dataset.n_channels,
        vis_dtype=dataset.visibilities.dtype,
        baselines_dtype=dataset.baselines.dtype,
    ) as writer:
        writer.set_frequencies(dataset.frequencies_hz)
        writer.set_baselines(dataset.baselines)
        for t0 in range(0, dataset.n_times, max(1, int(time_chunk))):
            t1 = min(t0 + max(1, int(time_chunk)), dataset.n_times)
            writer.write_times(
                t0,
                dataset.uvw_m[:, t0:t1],
                dataset.visibilities[:, t0:t1],
                flags=None if dataset.flags is None else dataset.flags[:, t0:t1],
            )
        return writer.finalize()


# ------------------------------------------------------------------ reading


def is_store(path: str | pathlib.Path) -> bool:
    """True when ``path`` is a chunked-store directory (manifest present)."""
    path = pathlib.Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def open_store(
    path: str | pathlib.Path, verify: bool = False
) -> "ChunkedStore":
    """Open a chunked store read-only (arrays stay memory-mapped).

    Validates the manifest against the files on disk (shape and dtype of
    every column); ``verify=True`` additionally re-computes the streaming
    content hash — an O(dataset-bytes) read, so off by default.
    """
    path = pathlib.Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StoreError(
            f"{path} is not a chunked dataset store (no {MANIFEST_NAME}; "
            "an interrupted writer leaves the directory uncommitted)"
        )
    manifest = StoreManifest.from_json(manifest_path.read_text())
    if manifest.schema_version != STORE_SCHEMA_VERSION:
        raise StoreError(
            f"unsupported store schema version {manifest.schema_version} "
            f"(this build reads {STORE_SCHEMA_VERSION})"
        )
    missing = sorted(set(ARRAY_FILES) - set(manifest.arrays))
    extra = sorted(set(manifest.arrays) - set(ARRAY_FILES))
    if missing or extra:
        raise StoreError(
            f"store manifest columns do not match the schema: "
            f"missing {missing}, unexpected {extra}"
        )
    arrays: dict[str, np.ndarray] = {}
    for name, filename in ARRAY_FILES.items():
        file_path = path / filename
        if not file_path.is_file():
            raise StoreError(f"store is missing array file {filename}")
        arr = np.load(file_path, mmap_mode="r")
        spec = manifest.arrays[name]
        if list(arr.shape) != list(spec["shape"]) or (
            np.dtype(arr.dtype) != np.dtype(spec["dtype"])
        ):
            raise StoreError(
                f"array {name} on disk ({arr.shape}, {arr.dtype}) does not "
                f"match the manifest ({tuple(spec['shape'])}, {spec['dtype']})"
            )
        arrays[name] = arr
    if verify:
        digest = _streaming_content_hash(path)
        if digest != manifest.content_hash:
            raise StoreError(
                f"store content hash mismatch: manifest {manifest.content_hash}"
                f" != computed {digest}"
            )
    return ChunkedStore(path, manifest, arrays)


class ChunkedStore:
    """A committed store directory, every array memory-mapped read-only."""

    def __init__(
        self,
        path: pathlib.Path,
        manifest: StoreManifest,
        arrays: dict[str, np.ndarray],
    ) -> None:
        self.path = path
        self.manifest = manifest
        #: ``(n_baselines, n_times, 3)`` uvw memmap [m].
        self.uvw_m = arrays["uvw_m"]
        #: ``(n_baselines, n_times, C, 2, 2)`` raw (unmasked) visibility memmap.
        self.visibilities = arrays["visibilities"]
        #: ``(n_baselines, n_times, C)`` boolean flag memmap.
        self.flags = arrays["flags"]
        # The small columns are loaded eagerly (a few KB).
        self.frequencies_hz = np.array(arrays["frequencies_hz"])
        self.baselines = np.array(arrays["baselines"])

    @property
    def n_baselines(self) -> int:
        return self.manifest.n_baselines

    @property
    def n_times(self) -> int:
        return self.manifest.n_times

    @property
    def n_channels(self) -> int:
        return self.manifest.n_channels

    @property
    def n_visibilities(self) -> int:
        return self.n_baselines * self.n_times * self.n_channels

    @property
    def visibility_nbytes(self) -> int:
        """On-disk bytes of the visibility column alone."""
        return int(self.visibilities.nbytes)

    def source(self) -> "ChunkedVisibilitySource":
        """The streaming, lazily-masked reader the executors consume.

        Flags recorded in the store are applied per block; when the
        manifest says nothing was flagged the raw memmap is handed through
        (zero-copy fast path).
        """
        return ChunkedVisibilitySource(
            self.visibilities,
            flags=self.flags if self.manifest.any_flags else None,
            store_path=str(self.path),
        )

    def as_dataset(self) -> VisibilityDataset:
        """A :class:`VisibilityDataset` over the maps (no bulk copy).

        ``np.asarray`` in the dataset's ``__post_init__`` keeps memmaps of
        matching dtype as-is, so selections and kernels see lazily paged
        arrays.  Whole-array reductions on it will still fault in the full
        file — use :meth:`source` for bounded-memory gridding.
        """
        return VisibilityDataset(
            uvw_m=self.uvw_m,
            visibilities=self.visibilities,
            frequencies_hz=self.frequencies_hz,
            baselines=self.baselines,
            flags=self.flags,
        )

    def drop_caches(self) -> None:
        """Evict resident pages of every bulk column (``MADV_DONTNEED``)."""
        for column in (self.uvw_m, self.visibilities, self.flags):
            _drop_pages(column)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedStore({self.path}, {self.n_baselines} baselines x "
            f"{self.n_times} times x {self.n_channels} channels, "
            f"{self.visibility_nbytes / 1e6:.1f} MB visibilities)"
        )


# ---------------------------------------------------------------- streaming


class ChunkedVisibilitySource:
    """Work-group-aligned, lazily-masked visibility reader.

    Wraps a ``(n_baselines, n_times, n_channels, 2, 2)`` array (normally a
    read-only memmap) plus an optional flag mask, and implements the exact
    indexing grammar every kernel and gather routine uses on the in-memory
    array:

    * ``src[baseline, t0:t1, c0:c1]`` — a masked *copy* of one work item's
      block (flagged samples zeroed, bit-identical to the eager
      :func:`repro.core.pipeline.mask_flagged`);
    * ``src.reshape(n_bl, n_t, n_ch, 4)`` — the trailing-axis flat view the
      batched gather takes (returns a reshaped source, blocks come back
      ``(t, c, 4)``);
    * ``.shape`` / ``.dtype`` / ``.ndim`` / ``.nbytes``.

    Anything outside that grammar raises ``TypeError`` — a source is a
    streaming reader, not an ndarray.

    ``store_path`` (set by :meth:`ChunkedStore.source`) lets the process
    executor re-open the same store inside each worker instead of pickling
    or copying payload bytes.
    """

    def __init__(
        self,
        visibilities: np.ndarray,
        flags: np.ndarray | None = None,
        store_path: str | None = None,
    ) -> None:
        visibilities = (
            visibilities if isinstance(visibilities, np.ndarray)
            else np.asarray(visibilities)
        )
        if visibilities.ndim != 5 or visibilities.shape[3:] != (2, 2):
            raise ValueError(
                f"visibilities must be (n_bl, n_times, n_channels, 2, 2), "
                f"got {visibilities.shape}"
            )
        if flags is not None and flags.shape != visibilities.shape[:3]:
            raise ValueError(
                f"flags shape {flags.shape} != {visibilities.shape[:3]}"
            )
        self._vis = visibilities
        self._flags = flags
        self.store_path = store_path

    # -- array-protocol surface the kernels touch

    @property
    def shape(self) -> tuple[int, ...]:
        return self._vis.shape

    @property
    def dtype(self) -> np.dtype:
        return self._vis.dtype

    @property
    def ndim(self) -> int:
        return self._vis.ndim

    @property
    def nbytes(self) -> int:
        return int(self._vis.nbytes)

    @property
    def flags_array(self) -> np.ndarray | None:
        """The mask applied per block (``None`` = nothing flagged)."""
        return self._flags

    def reshape(self, *shape: int) -> "_FlatVisibilitySource":
        """Only the batched gather's ``(n_bl, n_t, n_ch, 4)`` flattening."""
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        expected = (*self._vis.shape[:3], 4)
        if tuple(int(s) for s in shape) != expected:
            raise TypeError(
                f"ChunkedVisibilitySource only supports reshape{expected} "
                f"(the batched gather's flat view), got reshape{shape}"
            )
        return _FlatVisibilitySource(self)

    def __getitem__(self, key: tuple) -> np.ndarray:
        bl, t_slice, c_slice = self._block_key(key)
        return self._block(bl, t_slice, c_slice)

    def __len__(self) -> int:
        return self._vis.shape[0]

    # -- block reading

    @staticmethod
    def _block_key(key: tuple) -> tuple[int, slice, slice]:
        if (
            isinstance(key, tuple)
            and len(key) == 3
            and isinstance(key[0], (int, np.integer))
            and isinstance(key[1], slice)
            and isinstance(key[2], slice)
        ):
            return int(key[0]), key[1], key[2]
        raise TypeError(
            "ChunkedVisibilitySource supports only work-item block access "
            f"src[baseline, t0:t1, c0:c1]; got {key!r}"
        )

    def _block(self, bl: int, t_slice: slice, c_slice: slice) -> np.ndarray:
        """One masked ``(t, c, 2, 2)`` block, copied out of the map."""
        block = np.array(self._vis[bl, t_slice, c_slice])
        if self._flags is not None:
            mask = np.asarray(self._flags[bl, t_slice, c_slice])
            if mask.any():
                block[mask] = 0
        return block

    # -- masking / composition

    def with_flags(self, flags: np.ndarray | None) -> "ChunkedVisibilitySource":
        """This source with ``flags`` OR-ed onto the stored mask.

        ``None`` returns ``self`` unchanged.  The combined mask keeps
        ``store_path`` only when no *extra* flags were added (a worker
        re-opening the store would otherwise lose them).
        """
        if flags is None:
            return self
        flags = np.asarray(flags, dtype=bool)
        if flags.shape != self._vis.shape[:3]:
            raise ValueError(
                f"flags shape {flags.shape} != {self._vis.shape[:3]}"
            )
        combined = (
            flags if self._flags is None
            else np.logical_or(self._flags, flags)
        )
        return ChunkedVisibilitySource(self._vis, flags=combined)

    def materialize(self) -> np.ndarray:
        """The full masked array in memory (O(dataset) — small inputs only)."""
        out = np.array(self._vis)
        if self._flags is not None:
            out[np.asarray(self._flags)] = 0
        return out

    # -- work-group-aligned streaming

    def group_blocks(self, plan, start: int, stop: int):
        """Yield ``(index, block)`` for plan items ``[start, stop)``.

        ``block`` is the masked ``(time_end - time_start,
        channel_end - channel_start, 2, 2)`` visibility block of work item
        ``index`` — exactly the bytes
        the gridder's work-group driver reads for that item.
        """
        rows = plan.items[start:stop]
        for k, row in enumerate(rows):
            yield (
                start + k,
                self._block(
                    int(row["baseline"]),
                    slice(int(row["time_start"]), int(row["time_end"])),
                    slice(int(row["channel_start"]), int(row["channel_end"])),
                ),
            )

    def prefetch_group(self, plan, start: int, stop: int) -> "PrefetchedGroup":
        """Materialise one work group's blocks (the reader-stage payload).

        The returned :class:`PrefetchedGroup` serves the same indexing
        grammar from memory, so the gridder stage never touches the map —
        with the streaming executor's window bounding groups in flight, at
        most ``n_buffers`` groups' blocks are ever resident.
        """
        blocks: dict[tuple[int, int, int, int, int], np.ndarray] = {}
        rows = plan.items[start:stop]
        keys = [
            (
                int(row["baseline"]),
                int(row["time_start"]), int(row["time_end"]),
                int(row["channel_start"]), int(row["channel_end"]),
            )
            for row in rows
        ]

        # Plan items are sorted, so a group is mostly runs of one baseline
        # with back-to-back time windows over the same channel range.  Read
        # each run as ONE slab and carve per-item views out of it — the
        # per-item map-touch/mask/copy overhead is what separates chunked
        # from in-memory throughput, and coalescing amortises it ~64x.
        def read_run(run: list[tuple[int, int, int, int, int]]) -> None:
            bl, t_lo, c0, c1 = run[0][0], run[0][1], run[0][3], run[0][4]
            slab = self._block(bl, slice(t_lo, run[-1][2]), slice(c0, c1))
            for key in run:
                blocks[key] = slab[key[1] - t_lo:key[2] - t_lo]

        run: list[tuple[int, int, int, int, int]] = []
        for key in keys:
            if key in blocks:
                continue
            if run and not (
                key[0] == run[-1][0]          # same baseline
                and key[1] == run[-1][2]      # times continue where run ended
                and key[3:] == run[-1][3:]    # same channel range
            ):
                read_run(run)
                run = []
            run.append(key)
        if run:
            read_run(run)
        return PrefetchedGroup(self._vis.shape, self._vis.dtype, blocks)

    def drop_caches(self) -> None:
        """Return resident visibility/flag file pages to the OS."""
        _drop_pages(self._vis)
        if self._flags is not None:
            _drop_pages(self._flags)


class _FlatVisibilitySource:
    """The ``(n_bl, n_t, n_ch, 4)`` flat view of a source (gather grammar)."""

    def __init__(self, source: ChunkedVisibilitySource) -> None:
        self._source = source
        self.shape = (*source.shape[:3], 4)
        self.dtype = source.dtype
        self.ndim = 4

    def __getitem__(self, key: tuple) -> np.ndarray:
        bl, t_slice, c_slice = ChunkedVisibilitySource._block_key(key)
        block = self._source._block(bl, t_slice, c_slice)
        return block.reshape(*block.shape[:2], 4)


class PrefetchedGroup:
    """One work group's masked blocks, resident in memory.

    Serves the block-access grammar (``[baseline, t0:t1, c0:c1]`` plus the
    trailing-axis reshape) from a dict keyed by the work items' exact
    ranges; any other access raises ``KeyError``/``TypeError`` — a
    prefetched group holds precisely the bytes its work group needs.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        blocks: dict[tuple[int, int, int, int, int], np.ndarray],
        flat: bool = False,
    ) -> None:
        self._full_shape = tuple(shape)
        self.dtype = dtype
        self._blocks = blocks
        self._flat = flat

    @property
    def shape(self) -> tuple[int, ...]:
        if self._flat:
            return (*self._full_shape[:3], 4)
        return self._full_shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the prefetched blocks (not the full dataset)."""
        return sum(b.nbytes for b in self._blocks.values())

    def reshape(self, *shape: int) -> "PrefetchedGroup":
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        expected = (*self._full_shape[:3], 4)
        if tuple(int(s) for s in shape) != expected:
            raise TypeError(
                f"PrefetchedGroup only supports reshape{expected}, "
                f"got reshape{shape}"
            )
        return PrefetchedGroup(
            self._full_shape, self.dtype, self._blocks, flat=True
        )

    def __getitem__(self, key: tuple) -> np.ndarray:
        bl, t_slice, c_slice = ChunkedVisibilitySource._block_key(key)
        block = self._blocks[
            (bl, t_slice.start, t_slice.stop, c_slice.start, c_slice.stop)
        ]
        if self._flat:
            return block.reshape(*block.shape[:2], 4)
        return block
