"""Single-disk service-time model.

Models a circa-1994 1.2 GB commodity SCSI drive of the kind used in the
Paragon XP/S RAID-3 arrays: a seek whose duration grows with arm travel
distance, rotational latency, and media transfer time.  The head position
is tracked so that interleaved access streams (many files sharing one
array) organically pay more seek time than a single sequential stream —
the effect that makes HTF's self-consistent-field phase expensive.

The model is deliberately analytic (no per-sector simulation): the paper's
observables are request service times, and an analytic seek curve plus
rotation and transfer reproduces those at the fidelity the study needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..util.validation import check_nonneg, check_positive

__all__ = ["DiskParams", "Disk"]


@dataclass(frozen=True)
class DiskParams:
    """Physical parameters of one disk.

    Defaults approximate a 1.2 GB 4500 RPM drive (Seagate ST-1480-class):
    ~4 ms single-track seek, ~16 ms full stroke, 6.7 ms mean rotational
    latency, ~2.2 MB/s media rate.
    """

    capacity_bytes: int = 1_200_000_000
    min_seek_s: float = 0.004
    max_seek_s: float = 0.016
    rpm: float = 4500.0
    transfer_rate_bps: float = 2_200_000.0
    #: Fixed per-request controller/command overhead.
    overhead_s: float = 0.0008

    def __post_init__(self) -> None:
        check_positive(self.capacity_bytes, "capacity_bytes")
        check_nonneg(self.min_seek_s, "min_seek_s")
        check_positive(self.rpm, "rpm")
        check_positive(self.transfer_rate_bps, "transfer_rate_bps")
        if self.max_seek_s < self.min_seek_s:
            raise ValueError("max_seek_s must be >= min_seek_s")

    @property
    def full_rotation_s(self) -> float:
        """Seconds for one platter revolution."""
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency_s(self) -> float:
        """Mean rotational delay (half a revolution)."""
        return self.full_rotation_s / 2.0


class Disk:
    """Stateful service-time calculator for one disk.

    Not a process: the owning RAID array/I/O node serializes requests and
    asks this object how long each takes.  The square-root seek curve is
    the standard analytic model (arm acceleration dominates short seeks).
    """

    def __init__(self, params: DiskParams | None = None):
        self.params = params or DiskParams()
        self.head_pos = 0  # byte address under the head
        #: Cumulative head travel in bytes — a component statistic like
        #: :attr:`IONode.busy_time`; telemetry samples it, nothing resets it.
        self.seek_bytes = 0

    def seek_time(self, target: int) -> float:
        """Seek duration from the current head position to ``target``."""
        if target < 0:  # inline check_nonneg: per-request hot path
            raise ValueError(f"target must be >= 0, got {target!r}")
        distance = abs(target - self.head_pos)
        if distance == 0:
            return 0.0
        p = self.params
        frac = min(1.0, distance / p.capacity_bytes)
        return p.min_seek_s + (p.max_seek_s - p.min_seek_s) * math.sqrt(frac)

    def service_time(self, offset: int, nbytes: int) -> float:
        """Full service time for a request; advances the head.

        seek + mean rotational latency + transfer + controller overhead.
        A zero-byte request still pays seek/overhead (a positioning op).
        """
        if offset < 0:  # inline check_nonneg: per-request hot path
            raise ValueError(f"offset must be >= 0, got {offset!r}")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        self.seek_bytes += abs(offset - self.head_pos)
        p = self.params
        t = self.seek_time(offset) + p.overhead_s
        if nbytes > 0:
            t += p.avg_rotational_latency_s + nbytes / p.transfer_rate_bps
        self.head_pos = offset + nbytes
        return t
