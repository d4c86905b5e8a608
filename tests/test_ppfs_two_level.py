"""Two-level buffering tests: the shared I/O-node cache (§8)."""

import pytest

from repro.ppfs import PPFS, PPFSPolicies
from tests.conftest import drive, make_machine


def make(policies):
    machine = make_machine()
    return machine, PPFS(machine, policies=policies, track_content=True)


class TestServerCache:
    def test_disabled_by_default(self):
        machine, fs = make(PPFSPolicies())
        fs.ensure("/a", size=1_000_000)

        def go():
            fd = yield from fs.open(0, "/a")
            yield from fs.read(0, fd, 100_000)

        drive(machine, go())
        assert fs.server_cache_stats().accesses == 0

    def test_cross_client_sharing(self):
        """The point of the second level: node 0's miss is node 1's hit
        (client caches are per-node, the I/O-node cache is shared)."""
        machine, fs = make(
            PPFSPolicies(cache_blocks=0, server_cache_blocks=64)
        )
        fs.ensure("/shared", size=1_000_000)
        times = {}

        def reader(node, delay):
            yield machine.env.timeout(delay)
            fd = yield from fs.open(node, "/shared")
            t0 = machine.env.now
            yield from fs.read(node, fd, 256 * 1024)
            times[node] = machine.env.now - t0

        drive(machine, reader(0, 0.0), reader(1, 10.0))
        # The second client skips the disk; the remaining cost is mostly
        # the irreducible client copy (256 KB at ~10 MB/s = ~26 ms).
        assert times[1] < times[0] / 2
        assert fs.server_cache_stats().hits > 0

    def test_disk_not_touched_on_hit(self):
        machine, fs = make(PPFSPolicies(cache_blocks=0, server_cache_blocks=64))
        fs.ensure("/a", size=500_000)

        def go():
            fd = yield from fs.open(0, "/a")
            yield from fs.read(0, fd, 128 * 1024)
            served_before = sum(i.requests_served for i in machine.ionodes)
            yield from fs.seek(0, fd, 0)
            yield from fs.read(0, fd, 128 * 1024)  # fully cached
            served_after = sum(i.requests_served for i in machine.ionodes)
            return served_before, served_after

        ((before, after),) = drive(machine, go())
        assert after == before  # no additional disk requests

    def test_writes_populate_cache(self):
        machine, fs = make(PPFSPolicies(cache_blocks=0, server_cache_blocks=64))

        def go():
            fd = yield from fs.open(0, "/a", create=True)
            yield from fs.write(0, fd, 128 * 1024)
            yield from fs.seek(0, fd, 0)
            t0 = machine.env.now
            yield from fs.read(0, fd, 128 * 1024)
            return machine.env.now - t0

        (read_time,) = drive(machine, go())
        # Read-after-write hits the server cache: far below disk service.
        assert read_time < 0.06
        assert fs.server_cache_stats().hits > 0

    def test_content_correct_through_both_levels(self):
        machine, fs = make(PPFSPolicies(server_cache_blocks=64))
        payload = bytes(range(256)) * 1024  # 256 KB

        def go():
            fd = yield from fs.open(0, "/a", create=True)
            yield from fs.write(0, fd, len(payload), data=payload)
            yield from fs.seek(0, fd, 0)
            _, first = yield from fs.read(0, fd, len(payload), data_out=True)
            yield from fs.seek(0, fd, 0)
            _, second = yield from fs.read(0, fd, len(payload), data_out=True)
            return first, second

        ((first, second),) = drive(machine, go())
        assert first == payload and second == payload

    def test_preset(self):
        policies = PPFSPolicies.two_level()
        assert policies.server_cache_blocks > 0

    def test_stats_aggregate_every_counter(self):
        """server_cache_stats() must not drop counters across the
        per-I/O-node caches (prefetch_hits was once silently lost)."""
        _, fs = make(PPFSPolicies(server_cache_blocks=2))
        a, b = fs.server_cache(0), fs.server_cache(1)
        a.insert(1, 0, prefetched=True)
        a.lookup(1, 0)  # hit + prefetch_hit
        b.lookup(1, 5)  # miss
        b.insert_range(1, 5, 7)  # three blocks into two slots: one eviction
        total = fs.server_cache_stats()
        assert total.as_dict() == {
            "hits": 1, "misses": 1, "evictions": 1, "prefetch_hits": 1,
        }
        assert total.blocks == len(a) + len(b) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PPFSPolicies(server_cache_blocks=-1)
        with pytest.raises(ValueError):
            PPFSPolicies(server_cache_hit_s=-0.1)
