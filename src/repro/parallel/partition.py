"""Work partitioning: work groups over the shards of the process executor.

:func:`partition_work_groups` is the shard partitioner of the
process-sharded executor (DESIGN.md §14): work groups are distributed over
worker processes by greedy longest-processing-time (LPT) assignment on their
visibility weights.  The assignment is a pure function of the weights
(groups are canonically ordered before placement), so it is stable under
permutation of the input order, every group lands on exactly one shard, and
the heaviest shard carries at most ``total/n_shards`` plus one group's
weight — the classic LPT balance bound, pinned by the hypothesis suite in
``tests/parallel/test_partition_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.plan import Plan


@dataclass(frozen=True)
class ShardAssignment:
    """A disjoint assignment of work groups to shards (worker processes).

    Attributes
    ----------
    n_shards:
        Shard count the groups were distributed over.
    weights:
        Per-group weights the assignment balanced (visibility counts).
    shard_of:
        ``shard_of[group]`` is the shard owning that work group.
    """

    n_shards: int
    weights: tuple[int, ...]
    shard_of: tuple[int, ...]

    @property
    def n_groups(self) -> int:
        return len(self.shard_of)

    def groups_for(self, shard: int) -> tuple[int, ...]:
        """The work groups of one shard, in ascending (plan) order."""
        if not (0 <= shard < self.n_shards):
            raise ValueError(f"shard {shard} out of range [0, {self.n_shards})")
        return tuple(
            g for g, owner in enumerate(self.shard_of) if owner == shard
        )

    def loads(self) -> tuple[int, ...]:
        """Total assigned weight per shard."""
        totals = [0] * self.n_shards
        for group, shard in enumerate(self.shard_of):
            totals[shard] += self.weights[group]
        return tuple(totals)

    def balance_bound(self) -> float:
        """The LPT guarantee: no shard load may exceed this value."""
        if not self.weights:
            return 0.0
        return sum(self.weights) / self.n_shards + max(self.weights)


def partition_work_groups(
    weights: Sequence[int], n_shards: int
) -> ShardAssignment:
    """Distribute weighted work groups over shards (greedy LPT).

    Groups are placed heaviest-first (ties broken by group index) onto the
    currently lightest shard (ties broken by shard index), making the result
    deterministic, independent of input *order* beyond the group indices
    themselves, and bounded by :meth:`ShardAssignment.balance_bound`.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    weights = tuple(int(w) for w in weights)
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    order = sorted(range(len(weights)), key=lambda g: (-weights[g], g))
    loads = [0] * n_shards
    shard_of = [0] * len(weights)
    for group in order:
        shard = min(range(n_shards), key=lambda s: (loads[s], s))
        shard_of[group] = shard
        loads[shard] += weights[group]
    return ShardAssignment(
        n_shards=n_shards, weights=weights, shard_of=tuple(shard_of)
    )


def plan_group_weights(plan: Plan, group_size: int) -> tuple[int, ...]:
    """Per-work-group visibility counts — the shard-balance weights.

    Every group weighs at least 1 so empty groups still get assigned (and
    the LPT bound stays meaningful for degenerate plans).
    """
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    rows = plan.items
    covered = (rows["time_end"] - rows["time_start"]) * (
        rows["channel_end"] - rows["channel_start"]
    )
    weights = []
    for start in range(0, plan.n_subgrids, group_size):
        stop = min(start + group_size, plan.n_subgrids)
        weights.append(max(1, int(covered[start:stop].sum())))
    return tuple(weights)
