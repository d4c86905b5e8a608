"""PPFS component tests: extent sets, cache, prefetchers, predictor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PatternKind
from repro.ppfs import (
    BlockCache,
    ExtentSet,
    MarkovPredictor,
    NoPrefetcher,
    PPFSPolicies,
    SequentialPrefetcher,
)


class TestExtentSet:
    def test_empty(self):
        es = ExtentSet()
        assert not es and es.total_bytes == 0

    def test_single_extent(self):
        es = ExtentSet()
        es.add(100, 50)
        assert es.extents() == [(100, 150)]

    def test_adjacent_extents_merge(self):
        es = ExtentSet()
        es.add(0, 100)
        es.add(100, 100)
        assert es.extents() == [(0, 200)]

    def test_overlapping_extents_merge(self):
        es = ExtentSet()
        es.add(0, 100)
        es.add(50, 100)
        assert es.extents() == [(0, 150)]

    def test_disjoint_extents_stay_separate(self):
        es = ExtentSet()
        es.add(0, 10)
        es.add(100, 10)
        assert es.extents() == [(0, 10), (100, 10 + 100)]

    def test_bridge_merges_three(self):
        es = ExtentSet()
        es.add(0, 10)
        es.add(20, 10)
        es.add(10, 10)  # bridges the gap
        assert es.extents() == [(0, 30)]

    def test_covers(self):
        es = ExtentSet()
        es.add(100, 100)
        assert es.covers(120, 50)
        assert not es.covers(90, 20)
        assert es.covers(0, 0)

    def test_pop_all_empties(self):
        es = ExtentSet()
        es.add(0, 10)
        assert es.pop_all() == [(0, 10)]
        assert not es

    def test_pop_file_runs_respects_min_bytes(self):
        es = ExtentSet()
        es.add(0, 1000)
        es.add(5000, 10)
        big = es.pop_file_runs(min_bytes=100)
        assert big == [(0, 1000)]
        assert es.extents() == [(5000, 5010)]

    def test_zero_length_ignored(self):
        es = ExtentSet()
        es.add(50, 0)
        assert not es

    def test_invalid_inputs(self):
        es = ExtentSet()
        with pytest.raises(ValueError):
            es.add(-1, 10)
        with pytest.raises(ValueError):
            es.add(0, -10)

    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 60)), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_byte_set(self, inserts):
        es = ExtentSet()
        model: set[int] = set()
        for offset, nbytes in inserts:
            es.add(offset, nbytes)
            model.update(range(offset, offset + nbytes))
        # Same coverage...
        covered = set()
        for s, e in es.extents():
            covered.update(range(s, e))
        assert covered == model
        assert es.total_bytes == len(model)
        # ...and maximally coalesced: gaps between consecutive extents.
        ext = es.extents()
        for (s1, e1), (s2, e2) in zip(ext, ext[1:]):
            assert e1 < s2


class TestBlockCache:
    def test_miss_then_hit(self):
        cache = BlockCache(4)
        assert not cache.lookup(1, 0)
        cache.insert(1, 0)
        assert cache.lookup(1, 0)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_evicts_oldest(self):
        cache = BlockCache(2, policy="lru")
        cache.insert(1, 0)
        cache.insert(1, 1)
        cache.lookup(1, 0)  # touch 0: now 1 is oldest
        cache.insert(1, 2)
        assert (1, 1) not in cache
        assert (1, 0) in cache

    def test_mru_evicts_newest(self):
        cache = BlockCache(2, policy="mru")
        cache.insert(1, 0)
        cache.insert(1, 1)
        cache.insert(1, 2)  # evicts 1 (the most recent resident)
        assert (1, 0) in cache
        assert (1, 1) not in cache
        assert (1, 2) in cache

    def test_capacity_never_exceeded(self):
        cache = BlockCache(3)
        for b in range(10):
            cache.insert(1, b)
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_prefetch_hit_accounting(self):
        cache = BlockCache(4)
        cache.insert(1, 5, prefetched=True)
        cache.lookup(1, 5)
        cache.lookup(1, 5)
        assert cache.stats.prefetch_hits == 1  # only the first demand hit

    def test_invalidate_single_and_whole_file(self):
        cache = BlockCache(8)
        for b in range(3):
            cache.insert(1, b)
        cache.insert(2, 0)
        assert cache.invalidate(1, 1) == 1
        assert cache.invalidate(1) == 2
        assert (2, 0) in cache

    def test_resident_listing(self):
        cache = BlockCache(8)
        for b in (3, 1, 2):
            cache.insert(7, b)
        assert cache.resident(7) == [1, 2, 3]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BlockCache(0)
        with pytest.raises(ValueError):
            BlockCache(4, policy="fifo")

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 20), st.booleans()),
            max_size=100,
        ),
        st.integers(1, 8),
        st.sampled_from(["lru", "mru"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_size_invariant_under_any_sequence(self, ops, capacity, policy):
        cache = BlockCache(capacity, policy=policy)
        for fid, block, is_insert in ops:
            if is_insert:
                cache.insert(fid, block)
            else:
                cache.lookup(fid, block)
            assert len(cache) <= capacity


class TestBlockCacheRangeOps:
    """Range operations replicate per-block semantics exactly."""

    def test_lookup_range_all_resident(self):
        cache = BlockCache(8)
        for b in range(4):
            cache.insert(1, b)
        assert cache.lookup_range(1, 0, 3)
        assert cache.stats.hits == 4 and cache.stats.misses == 0

    def test_lookup_range_short_circuits_on_first_miss(self):
        cache = BlockCache(8)
        cache.insert(1, 0)
        cache.insert(1, 2)
        assert not cache.lookup_range(1, 0, 2)
        # Block 0 hit, block 1 missed, block 2 never examined.
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lookup_range_refreshes_recency(self):
        cache = BlockCache(2, policy="lru")
        cache.insert(1, 0)
        cache.insert(1, 1)
        assert cache.lookup_range(1, 0, 0)  # touch 0: now 1 is oldest
        cache.insert(1, 2)
        assert (1, 0) in cache and (1, 1) not in cache

    def test_missing_in_range_touches_every_block(self):
        cache = BlockCache(8)
        cache.insert(1, 1)
        cache.insert(1, 3)
        assert cache.missing_in_range(1, 0, 4) == [0, 2, 4]
        # Unlike lookup_range, residents past the first miss still count.
        assert cache.stats.hits == 2 and cache.stats.misses == 3

    def test_missing_in_range_counts_prefetch_hits(self):
        cache = BlockCache(8)
        cache.insert(1, 0, prefetched=True)
        cache.missing_in_range(1, 0, 1)
        cache.missing_in_range(1, 0, 1)
        assert cache.stats.prefetch_hits == 1  # only the first demand hit

    def test_insert_range_lru(self):
        cache = BlockCache(3, policy="lru")
        cache.insert_range(1, 0, 2)
        cache.insert_range(1, 3, 4)  # evicts 0, then 1
        assert cache.resident(1) == [2, 3, 4]

    def test_insert_range_mru_can_evict_own_blocks(self):
        # Per-block MRU eviction: once full, each later block of the
        # range evicts the one inserted just before it.
        cache = BlockCache(2, policy="mru")
        cache.insert_range(1, 0, 3)
        assert cache.resident(1) == [0, 3]

    def test_insert_range_touches_residents(self):
        cache = BlockCache(4, policy="lru")
        cache.insert(1, 1, prefetched=True)
        cache.insert_range(1, 0, 2)
        # Resident block only touched: its prefetched flag survives.
        cache.lookup(1, 1)
        assert cache.stats.prefetch_hits == 1

    def test_invalidate_range(self):
        cache = BlockCache(8)
        for b in range(5):
            cache.insert(1, b)
        assert cache.invalidate_range(1, 1, 3) == 3
        assert cache.resident(1) == [0, 4]
        assert cache.invalidate_range(1, 1, 3) == 0

    def test_per_file_index_tracks_evictions(self):
        cache = BlockCache(2, policy="lru")
        cache.insert(1, 0)
        cache.insert(2, 0)
        cache.insert(2, 1)  # evicts (1, 0)
        assert cache.resident(1) == []
        assert cache.invalidate(1) == 0
        assert sorted(cache.resident(2)) == [0, 1]

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 8), st.integers(0, 3)),
            max_size=60,
        ),
        st.integers(1, 8),
        st.sampled_from(["lru", "mru"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_ops_match_per_block_reference(self, ops, capacity, policy):
        """Each range op leaves cache state + stats exactly as the
        equivalent per-block loop does."""
        fast = BlockCache(capacity, policy=policy)
        ref = BlockCache(capacity, policy=policy)
        for op, fid, first, span in ops:
            last = first + span
            if op == 0:
                assert fast.lookup_range(fid, first, last) == all(
                    ref.lookup(fid, b) for b in range(first, last + 1)
                )
            elif op == 1:
                missing_ref = [
                    b for b in range(first, last + 1) if not ref.lookup(fid, b)
                ]
                assert fast.missing_in_range(fid, first, last) == missing_ref
            elif op == 2:
                fast.insert_range(fid, first, last)
                for b in range(first, last + 1):
                    ref.insert(fid, b)
            elif op == 3:
                dropped_ref = sum(
                    ref.invalidate(fid, b) for b in range(first, last + 1)
                )
                assert fast.invalidate_range(fid, first, last) == dropped_ref
            assert list(fast._entries.items()) == list(ref._entries.items())
            assert (fast.stats.hits, fast.stats.misses, fast.stats.evictions,
                    fast.stats.prefetch_hits) == (
                ref.stats.hits, ref.stats.misses, ref.stats.evictions,
                ref.stats.prefetch_hits)


class TestRunningTotals:
    """The running totals the telemetry sampler reads each tick equal a
    brute-force rescan after any operation sequence."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 500), st.integers(0, 60)),
            max_size=80,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_extent_total_matches_rescan(self, ops):
        es = ExtentSet()
        for op, offset, n in ops:
            if op <= 3:
                es.add(offset, n)
            elif op == 4:
                es.pop_file_runs(n)
            else:
                es.pop_all()
            assert es.total_bytes == sum(e - s for s, e in es.extents())

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 2), st.integers(0, 2),
                st.integers(0, 8), st.integers(0, 3),
            ),
            max_size=80,
        ),
        st.lists(st.integers(1, 6), min_size=3, max_size=3),
        st.sampled_from(["lru", "mru"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_shared_stats_match_the_caches(self, ops, capacities, policy):
        """Caches sharing one CacheStats: ``blocks`` is the sum of their
        sizes, and every counter equals the sum over identical caches
        that each own their stats."""
        from repro.ppfs import CacheStats

        shared = CacheStats()
        caches = [BlockCache(c, policy, shared) for c in capacities]
        alone = [BlockCache(c, policy) for c in capacities]
        for op, idx, fid, first, span in ops:
            last = first + span
            for cache in (caches[idx], alone[idx]):
                if op == 0:
                    cache.insert(fid, first, prefetched=bool(span % 2))
                elif op == 1:
                    cache.insert_range(fid, first, last, prefetched=bool(span % 2))
                elif op == 2:
                    cache.lookup_range(fid, first, last)
                elif op == 3:
                    cache.missing_in_range(fid, first, last)
                elif op == 4:
                    cache.invalidate(fid, first)
                elif op == 5:
                    cache.invalidate(fid)
                elif op == 6:
                    cache.invalidate_range(fid, first, last)
                else:
                    cache.clear()
            assert shared.blocks == sum(len(c) for c in caches)
        for name, value in shared.as_dict().items():
            assert value == sum(getattr(c.stats, name) for c in alone), name


class TestExtentSetMaxRun:
    def test_tracks_largest_extent(self):
        es = ExtentSet()
        assert es.max_run_bytes == 0
        es.add(0, 10)
        es.add(100, 30)
        assert es.max_run_bytes == 30
        es.add(10, 90)  # merges 0..10 with 100..130 -> 0..130
        assert es.max_run_bytes == 130

    def test_resets_on_pop_all(self):
        es = ExtentSet()
        es.add(0, 64)
        es.pop_all()
        assert es.max_run_bytes == 0

    def test_recomputed_over_kept_extents(self):
        es = ExtentSet()
        es.add(0, 100)
        es.add(200, 40)
        es.add(300, 60)
        assert es.pop_file_runs(100) == [(0, 100)]
        assert es.max_run_bytes == 60  # largest *kept* fragment

    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 50)), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_matches_scan_under_any_insertions(self, inserts):
        es = ExtentSet()
        for off, n in inserts:
            es.add(off, n)
            assert es.max_run_bytes == max(
                (e - s for s, e in es.extents()), default=0
            )


class TestPrefetchers:
    def test_no_prefetcher_never_predicts(self):
        p = NoPrefetcher()
        for b in range(10):
            assert p.observe((0, 1), b) == []

    def test_sequential_prefetcher_kicks_in_after_run(self):
        p = SequentialPrefetcher(depth=3)
        assert p.observe((0, 1), 0) == []
        assert p.observe((0, 1), 1) == [2, 3, 4]
        assert p.observe((0, 1), 2) == [3, 4, 5]

    def test_sequential_prefetcher_resets_on_jump(self):
        p = SequentialPrefetcher(depth=2)
        p.observe((0, 1), 0)
        p.observe((0, 1), 1)
        assert p.observe((0, 1), 50) == []

    def test_streams_independent(self):
        p = SequentialPrefetcher(depth=2)
        p.observe((0, 1), 0)
        p.observe((0, 1), 1)
        assert p.observe((0, 2), 7) == []

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            SequentialPrefetcher(depth=0)


class TestMarkovPredictor:
    def test_learns_sequential(self):
        p = MarkovPredictor(depth=2, warmup=3)
        preds = [p.observe((0, 1), b) for b in range(6)]
        assert preds[-1] == [6, 7]
        assert p.classify((0, 1)) is PatternKind.SEQUENTIAL

    def test_learns_stride(self):
        p = MarkovPredictor(depth=2, warmup=3)
        preds = [p.observe((0, 1), b) for b in range(0, 40, 4)]
        assert preds[-1] == [40, 44]
        assert p.classify((0, 1)) is PatternKind.STRIDED

    def test_refuses_random(self):
        p = MarkovPredictor(depth=2, warmup=3)
        blocks = [0, 17, 3, 99, 5, 42, 8, 61]
        preds = [p.observe((0, 1), b) for b in blocks]
        assert preds[-1] == []
        assert p.classify((0, 1)) is PatternKind.IRREGULAR

    def test_warmup_suppresses_early_predictions(self):
        p = MarkovPredictor(warmup=5)
        assert p.observe((0, 1), 0) == []
        assert p.observe((0, 1), 1) == []
        assert p.observe((0, 1), 2) == []
        assert p.observe((0, 1), 3) == []

    def test_backward_deltas_not_prefetched(self):
        p = MarkovPredictor(warmup=3)
        preds = [p.observe((0, 1), b) for b in range(20, 0, -2)]
        assert preds[-1] == []  # negative stride: no forward prefetch

    def test_adapts_after_pattern_change(self):
        p = MarkovPredictor(depth=1, confidence=0.6, warmup=3)
        for b in range(8):
            p.observe((0, 1), b)
        # Switch to stride 10 for long enough to retrain.
        last = []
        for b in range(10, 250, 10):
            last = p.observe((0, 1), b)
        assert last == [250]

    def test_unseen_stream_classified_single(self):
        assert MarkovPredictor().classify((9, 9)) is PatternKind.SINGLE

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MarkovPredictor(depth=0)
        with pytest.raises(ValueError):
            MarkovPredictor(confidence=0.0)
        with pytest.raises(ValueError):
            MarkovPredictor(warmup=1)


class TestPolicies:
    def test_presets(self):
        assert PPFSPolicies.passthrough().cache_blocks == 0
        tuned = PPFSPolicies.escat_tuned()
        assert tuned.write_behind and tuned.aggregation
        assert PPFSPolicies.sequential_reader().prefetch == "sequential"
        assert PPFSPolicies.adaptive().prefetch == "adaptive"

    def test_validation(self):
        with pytest.raises(ValueError):
            PPFSPolicies(cache_policy="arc")
        with pytest.raises(ValueError):
            PPFSPolicies(prefetch="psychic")
        with pytest.raises(ValueError):
            PPFSPolicies(flush_interval_s=0)
