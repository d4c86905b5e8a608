"""Extent coalescing for global request aggregation.

PPFS's aggregation policy combines many small writes into disjoint
locations of a shared file into few large, disk-efficient transfers
(§5.2, §8).  :class:`ExtentSet` is the underlying structure: a set of
byte intervals that merges adjacent/overlapping insertions and can be
drained as maximal contiguous runs.

The merge invariants (disjoint, sorted, maximally coalesced, byte-count
conservation for non-overlapping inserts) are property-tested.
"""

from __future__ import annotations

import bisect

__all__ = ["ExtentSet"]


class ExtentSet:
    """Sorted, coalesced set of half-open byte intervals [start, end)."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._max_run = 0
        self._total = 0

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    @property
    def total_bytes(self) -> int:
        """Bytes covered by all extents, maintained incrementally (the
        telemetry sampler reads the write-behind backlog every tick)."""
        return self._total

    @property
    def max_run_bytes(self) -> int:
        """Length of the largest extent, maintained incrementally.

        Lets the write-behind flusher decide in O(1) whether anything can
        drain (``max_run_bytes >= aggregate_min_bytes``) instead of
        scanning every pending fragment on each submitted write.
        """
        return self._max_run

    def extents(self) -> list[tuple[int, int]]:
        """All extents as (start, end) pairs, ascending."""
        return list(zip(self._starts, self._ends))

    def add(self, offset: int, nbytes: int) -> None:
        """Insert [offset, offset+nbytes), merging with neighbours."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if nbytes < 0:
            raise ValueError(f"negative length {nbytes}")
        if nbytes == 0:
            return
        start, end = offset, offset + nbytes
        # Find all extents overlapping or touching [start, end).
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        # The absorbed extents' bytes are re-counted in the union.
        absorbed = sum(self._ends[lo:hi]) - sum(self._starts[lo:hi])
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        self._total += end - start - absorbed
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]
        if end - start > self._max_run:
            self._max_run = end - start

    def covers(self, offset: int, nbytes: int) -> bool:
        """True when [offset, offset+nbytes) lies inside one extent."""
        if nbytes == 0:
            return True
        i = bisect.bisect_right(self._starts, offset) - 1
        return i >= 0 and self._ends[i] >= offset + nbytes

    def pop_all(self) -> list[tuple[int, int]]:
        """Remove and return every extent (the flush operation)."""
        out = self.extents()
        self._starts.clear()
        self._ends.clear()
        self._max_run = 0
        self._total = 0
        return out

    def pop_file_runs(self, min_bytes: int = 0) -> list[tuple[int, int]]:
        """Remove and return extents of at least ``min_bytes`` (others stay).

        Lets a flusher drain only aggregation-worthy runs while small
        fragments keep accumulating.
        """
        keep_s: list[int] = []
        keep_e: list[int] = []
        out: list[tuple[int, int]] = []
        kept_max = kept_total = 0
        for s, e in zip(self._starts, self._ends):
            if e - s >= min_bytes:
                out.append((s, e))
            else:
                keep_s.append(s)
                keep_e.append(e)
                kept_total += e - s
                if e - s > kept_max:
                    kept_max = e - s
        self._starts, self._ends = keep_s, keep_e
        self._max_run = kept_max
        self._total = kept_total
        return out
