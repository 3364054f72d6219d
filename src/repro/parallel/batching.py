"""Index-range helpers for splitting work across workers."""

from __future__ import annotations


def chunk_ranges(total: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into up to ``n_chunks`` contiguous ranges whose
    sizes differ by at most one.  Empty ranges are omitted.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if n_chunks <= 0:
        raise ValueError("n_chunks must be positive")
    base, extra = divmod(total, n_chunks)
    out = []
    start = 0
    for k in range(n_chunks):
        size = base + (1 if k < extra else 0)
        if size == 0:
            continue
        out.append((start, start + size))
        start += size
    return out

