"""Client-side block cache with pluggable replacement.

PPFS "provides user control of file cache sizes and policies" (§9); this
is the per-compute-node block cache behind PPFS reads and prefetches.
LRU suits sequential-with-reuse streams; MRU protects a scanning workload
from flushing its own working set (the classic cyclic-access result).

The data path touches the cache once per *chunk*, not once per block:
:meth:`BlockCache.lookup_range`, :meth:`BlockCache.missing_in_range`,
:meth:`BlockCache.insert_range` and :meth:`BlockCache.invalidate_range`
walk a block run in one call while performing exactly the per-block
`OrderedDict` operations (stats, prefetch accounting, recency touches,
per-block eviction) of the single-block methods, in the same order.  A
per-file block index keeps :meth:`BlockCache.invalidate_file` and
:meth:`BlockCache.resident` O(blocks-of-the-file) instead of an
O(cache-size) scan.

The caches of one level (every client cache, or every I/O-node cache)
share one :class:`CacheStats`, so a level-wide roll-up, resident blocks
included, is one object read instead of a walk over every cache.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["BlockCache", "CacheStats"]


class CacheStats:
    """Hit/miss/eviction counters, plus ``blocks``: the blocks currently
    resident in the caches these counters serve (a level, not a history,
    so :meth:`as_dict` leaves it out)."""

    __slots__ = ("hits", "misses", "evictions", "prefetch_hits", "blocks")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetch_hits = 0
        self.blocks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        """The counters as a plain dict — the one snapshot form shared by
        telemetry exporters and the campaign metrics manifest."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "prefetch_hits": self.prefetch_hits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        stats = cls()
        stats.hits = data.get("hits", 0)
        stats.misses = data.get("misses", 0)
        stats.evictions = data.get("evictions", 0)
        stats.prefetch_hits = data.get("prefetch_hits", 0)
        return stats


class BlockCache:
    """Fixed-capacity cache of (file_id, block_index) keys.

    Parameters
    ----------
    capacity_blocks:
        Number of blocks held.
    policy:
        'lru' (evict least recent) or 'mru' (evict most recent).
    stats:
        Counters to update, shared with the other caches of the same
        level; a cache given none owns a fresh :class:`CacheStats`.
    """

    def __init__(
        self,
        capacity_blocks: int,
        policy: str = "lru",
        stats: CacheStats | None = None,
    ):
        if capacity_blocks < 1:
            raise ValueError(f"capacity_blocks must be >= 1, got {capacity_blocks}")
        if policy not in ("lru", "mru"):
            raise ValueError(f"policy must be lru/mru, got {policy!r}")
        self.capacity = capacity_blocks
        self.policy = policy
        self.stats = CacheStats() if stats is None else stats
        # key -> prefetched flag; order = recency (oldest first).
        self._entries: OrderedDict[tuple[int, int], bool] = OrderedDict()
        # file_id -> resident block indices (the per-file invalidation index).
        self._by_file: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._entries

    # -- single-block operations -----------------------------------------------
    def lookup(self, file_id: int, block: int) -> bool:
        """Check (and touch) a block; updates hit/miss statistics."""
        key = (file_id, block)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if entry:  # first demand hit on a prefetched block
            self.stats.prefetch_hits += 1
            self._entries[key] = False
        self._entries.move_to_end(key)
        return True

    def insert(self, file_id: int, block: int, prefetched: bool = False) -> None:
        """Add a block, evicting per policy when full."""
        key = (file_id, block)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            self._evict_one()
        self._entries[key] = prefetched
        self.stats.blocks += 1
        blocks = self._by_file.get(file_id)
        if blocks is None:
            blocks = self._by_file[file_id] = set()
        blocks.add(block)

    def _evict_one(self) -> None:
        # lru: evict oldest; mru: evict newest (last inserted).
        (victim_file, victim_block), _ = self._entries.popitem(
            last=self.policy == "mru"
        )
        stats = self.stats
        stats.evictions += 1
        stats.blocks -= 1
        blocks = self._by_file[victim_file]
        blocks.discard(victim_block)
        if not blocks:
            del self._by_file[victim_file]

    def clear(self) -> int:
        """Drop every entry (I/O-node restart invalidation); returns the
        drop count.  Statistics survive — the run's hit/miss history is
        still real even though the contents are gone."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_file.clear()
        self.stats.blocks -= dropped
        return dropped

    def invalidate(self, file_id: int, block: int | None = None) -> int:
        """Drop one block, or every block of a file; returns drop count."""
        if block is None:
            return self.invalidate_file(file_id)
        if self._entries.pop((file_id, block), None) is None:
            return 0
        self.stats.blocks -= 1
        blocks = self._by_file[file_id]
        blocks.discard(block)
        if not blocks:
            del self._by_file[file_id]
        return 1

    def invalidate_file(self, file_id: int) -> int:
        """Drop every resident block of a file; returns the drop count.

        O(blocks-of-the-file) via the per-file index — not a scan of the
        whole cache.
        """
        blocks = self._by_file.pop(file_id, None)
        if not blocks:
            return 0
        entries = self._entries
        for b in blocks:
            del entries[(file_id, b)]
        self.stats.blocks -= len(blocks)
        return len(blocks)

    def resident(self, file_id: int) -> list[int]:
        """Block indices of a file currently cached (ascending)."""
        return sorted(self._by_file.get(file_id, ()))

    # -- range operations (one call per chunk) -----------------------------------
    def lookup_range(self, file_id: int, first: int, last: int) -> bool:
        """Check-and-touch blocks ``first..last``; True iff all resident.

        Equivalent to ``all(lookup(file_id, b) for b in range(first,
        last + 1))`` including the short-circuit: blocks before the first
        miss are touched and counted as hits, the missing block counts
        one miss, and later blocks are not examined.
        """
        entries = self._entries
        stats = self.stats
        for b in range(first, last + 1):
            key = (file_id, b)
            entry = entries.get(key)
            if entry is None:
                stats.misses += 1
                return False
            stats.hits += 1
            if entry:
                stats.prefetch_hits += 1
                entries[key] = False
            entries.move_to_end(key)
        return True

    def missing_in_range(self, file_id: int, first: int, last: int) -> list[int]:
        """Look up every block in ``first..last``; return the misses
        (ascending).  Unlike :meth:`lookup_range` this touches the whole
        run — the read path wants each resident block's recency refreshed
        and each absence counted, exactly as a per-block lookup loop did.
        """
        entries = self._entries
        stats = self.stats
        missing: list[int] = []
        for b in range(first, last + 1):
            key = (file_id, b)
            entry = entries.get(key)
            if entry is None:
                stats.misses += 1
                missing.append(b)
                continue
            stats.hits += 1
            if entry:
                stats.prefetch_hits += 1
                entries[key] = False
            entries.move_to_end(key)
        return missing

    def insert_range(
        self, file_id: int, first: int, last: int, prefetched: bool = False
    ) -> None:
        """Insert blocks ``first..last`` in ascending order.

        Per-block semantics match :meth:`insert` exactly: a resident
        block is only touched (its prefetched flag survives), and each
        insertion of a new block may evict per policy — so under MRU an
        earlier block of this very range can be the victim, just as in a
        per-block insert loop.
        """
        entries = self._entries
        by_file = self._by_file
        capacity = self.capacity
        added = 0
        for b in range(first, last + 1):
            key = (file_id, b)
            if key in entries:
                entries.move_to_end(key)
                continue
            if len(entries) >= capacity:
                self._evict_one()
            entries[key] = prefetched
            added += 1
            blocks = by_file.get(file_id)
            if blocks is None:
                blocks = by_file[file_id] = set()
            blocks.add(b)
        self.stats.blocks += added

    def invalidate_range(self, file_id: int, first: int, last: int) -> int:
        """Drop blocks ``first..last`` where resident; returns drop count."""
        blocks = self._by_file.get(file_id)
        if not blocks:
            return 0
        entries = self._entries
        dropped = 0
        for b in range(first, last + 1):
            if entries.pop((file_id, b), None) is not None:
                blocks.discard(b)
                dropped += 1
        if not blocks:
            del self._by_file[file_id]
        self.stats.blocks -= dropped
        return dropped
