"""2-D mesh interconnect model for the Paragon XP/S.

The Paragon's nodes sit on a 2-D mesh with wormhole routing; with that
routing, message latency is nearly distance-insensitive, so the dominant
terms are the per-message software overhead (~50 us under OSF/1 NX) and
the bytes/bandwidth term (~70 MB/s sustained node-to-node).  We keep a
small per-hop term so topology still matters measurably.

Collective operations (broadcast, gather) are modelled as binomial trees —
the standard software implementation of the era — giving the
``ceil(log2 N)`` stage count that makes single-reader-plus-broadcast
competitive with parallel reads, exactly the trade-off the ESCAT and
RENDER developers describe (§5.2, §6.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.core import Environment
from ..util.validation import check_nonneg, check_positive

__all__ = ["MeshParams", "Mesh"]


@dataclass(frozen=True)
class MeshParams:
    """Interconnect timing/geometry parameters."""

    width: int = 16
    height: int = 32
    #: Per-message software overhead (send + receive sides), seconds.
    latency_s: float = 50e-6
    #: Per-hop router delay, seconds.
    per_hop_s: float = 0.04e-6
    #: Sustained point-to-point bandwidth, bytes/second.
    bandwidth_bps: float = 70_000_000.0

    def __post_init__(self) -> None:
        check_positive(self.width, "width")
        check_positive(self.height, "height")
        check_nonneg(self.latency_s, "latency_s")
        check_nonneg(self.per_hop_s, "per_hop_s")
        check_positive(self.bandwidth_bps, "bandwidth_bps")

    @property
    def size(self) -> int:
        return self.width * self.height


class Mesh:
    """Message-timing oracle plus blocking transfer helper.

    ``transfer`` is a generator usable from simulation processes; the
    pure-function ``message_time``/``broadcast_time``/``gather_time``
    methods let the file system compute composite costs analytically.
    """

    def __init__(self, env: Environment, params: MeshParams | None = None):
        self.env = env
        self.params = params or MeshParams()
        # Manhattan distances never change for a fixed mesh; the data
        # path asks for the same (client, I/O node) pairs millions of
        # times per run.  Message times get a bounded memo of their own —
        # (src, dst, nbytes) triples repeat constantly under striped I/O.
        self._hops: dict[tuple[int, int], int] = {}
        self._msg_memo: dict[tuple[int, int, int], float] = {}
        #: Point-to-point messages priced and their payload bytes (every
        #: call counts: a memo hit is still one message on the wire).
        self.messages = 0
        self.message_bytes = 0

    # -- geometry --------------------------------------------------------
    def coords(self, node: int) -> tuple[int, int]:
        """(x, y) position of ``node`` in row-major order."""
        p = self.params
        if not 0 <= node < p.size:
            raise ValueError(f"node {node} outside mesh of {p.size}")
        return node % p.width, node // p.width

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes (dimension-order routing)."""
        key = (src, dst)
        h = self._hops.get(key)
        if h is None:
            sx, sy = self.coords(src)
            dx, dy = self.coords(dst)
            h = self._hops[key] = abs(sx - dx) + abs(sy - dy)
        return h

    # -- timing ----------------------------------------------------------
    def message_time(self, src: int, dst: int, nbytes: int) -> float:
        """One point-to-point message of ``nbytes`` from src to dst."""
        memo = self._msg_memo
        key = (src, dst, nbytes)
        t = memo.get(key)
        if t is None:
            if nbytes < 0:  # inline check_nonneg: per-message hot path
                raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
            p = self.params
            if src == dst:
                t = 0.0
            else:
                t = (
                    p.latency_s
                    + self.hops(src, dst) * p.per_hop_s
                    + nbytes / p.bandwidth_bps
                )
            # The bound must hold every (client, I/O node, chunk size)
            # triple at production scale (2048 x 64 x a handful of sizes
            # ~ 500k); a 64k cap thrashed there, turning ~90% of calls
            # into recomputes.
            if len(memo) >= 1048576:
                memo.clear()
            memo[key] = t
        self.messages += 1
        self.message_bytes += nbytes
        return t

    def broadcast_time(self, root: int, n_nodes: int, nbytes: int) -> float:
        """Binomial-tree broadcast of ``nbytes`` from root to n_nodes-1 others.

        ceil(log2 N) stages, each forwarding the full payload.
        """
        check_nonneg(nbytes, "nbytes")
        if n_nodes <= 1:
            return 0.0
        stages = math.ceil(math.log2(n_nodes))
        p = self.params
        # Use the mesh diameter/2 as a representative hop count per stage.
        rep_hops = (p.width + p.height) // 4 or 1
        per_stage = p.latency_s + rep_hops * p.per_hop_s + nbytes / p.bandwidth_bps
        return stages * per_stage

    def gather_time(self, root: int, n_nodes: int, nbytes_each: int) -> float:
        """Binomial-tree gather of ``nbytes_each`` from each node to root.

        Stage ``k`` moves 2^k-node aggregates, so total payload into the
        root link is (N-1) * nbytes_each — that term dominates.
        """
        check_nonneg(nbytes_each, "nbytes_each")
        if n_nodes <= 1:
            return 0.0
        stages = math.ceil(math.log2(n_nodes))
        p = self.params
        rep_hops = (p.width + p.height) // 4 or 1
        total_bytes = (n_nodes - 1) * nbytes_each
        return stages * (p.latency_s + rep_hops * p.per_hop_s) + total_bytes / p.bandwidth_bps

    # -- blocking helpers --------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int):
        """Process helper: occupy the sender for the message time."""
        yield self.env.timeout(self.message_time(src, dst, nbytes))

    def broadcast(self, root: int, n_nodes: int, nbytes: int):
        """Process helper: occupy the root for the broadcast time."""
        yield self.env.timeout(self.broadcast_time(root, n_nodes, nbytes))

    def gather(self, root: int, n_nodes: int, nbytes_each: int):
        """Process helper: occupy the root for the gather time."""
        yield self.env.timeout(self.gather_time(root, n_nodes, nbytes_each))
