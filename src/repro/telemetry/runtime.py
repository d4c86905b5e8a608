"""The telemetry runtime: attach/sample/finalize lifecycle.

Telemetry is *pull-only*: it installs nothing into the simulator.  Two
sources feed it:

* the Pablo traces — every ``pfs.*`` counter and series column is
  derived from them at :meth:`Telemetry.finalize`, one ``searchsorted``
  per column over the sample instants (:data:`PFS_COUNTING_RULES` is the
  whole rule for when an op counts);
* component statistics the simulator keeps unconditionally
  (``IONode.busy_time`` and ``size_buckets``, ``Mesh.messages``,
  ``CacheStats``, ``PPFS.prefetch_inflight`` …), read by the sampler at
  each tick and folded into the registry at finalize.

The sampler consumes no RNG draws and never reorders application
events, so traces stay byte-identical with telemetry on or off.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

import numpy as np

from ..machine.raid import STATE_CODES
from ..pablo.events import EVENT_DTYPE, Op
from ..util.validation import check_positive
from .profiler import RunProfiler
from .registry import MetricsRegistry
from .sampler import Sampler
from .series import TimeSeries

__all__ = ["Telemetry", "DEFAULT_CADENCE_S", "PFS_COUNTING_RULES"]

#: Default sampling cadence in simulated seconds.  Paper-scale runs span
#: thousands of simulated seconds, so this yields several hundred samples
#: while keeping measured ESCAT overhead below the 5% acceptance budget
#: (see benchmarks/bench_telemetry_overhead.py and docs/OBSERVABILITY.md).
DEFAULT_CADENCE_S = 10.0

#: When each ``pfs.*`` metric counts a trace row: ``(op, instant,
#: weight)`` per contributing op.  ``"start"`` is the row timestamp,
#: ``"end"`` timestamp + duration; ``"rows"`` adds one per row,
#: ``"nbytes"`` the row's byte count.  Reads and opens count when the
#: call returns; writes, seeks and async-read issues when it is made;
#: retries at the re-issue.
PFS_COUNTING_RULES: dict = {
    "pfs.reads": ((Op.READ, "end", "rows"),),
    "pfs.writes": ((Op.WRITE, "start", "rows"),),
    "pfs.seeks": ((Op.SEEK, "start", "rows"),),
    "pfs.opens": ((Op.OPEN, "end", "rows"),),
    "pfs.areads": ((Op.AREAD, "start", "rows"),),
    "pfs.read_bytes": ((Op.READ, "end", "nbytes"), (Op.AREAD, "start", "nbytes")),
    "pfs.write_bytes": ((Op.WRITE, "start", "nbytes"),),
    "pfs.retries": ((Op.RETRY, "start", "rows"),),
}

#: The series' ``pfs.*`` columns, in column order (async-read issues are
#: a registry counter only).
_PFS_COLUMNS = tuple(name for name in PFS_COUNTING_RULES if name != "pfs.areads")
_PFS_PLACEHOLDER = (0,) * len(_PFS_COLUMNS)


def _pfs_totals(traces: Iterable[Any]) -> dict:
    """For each ``pfs.*`` metric: its sorted counting instants and the
    cumulative total at each.

    The fault recorder appends the same FAULT/RETRY/DEGRADED rows to
    every program's trace, so they are taken from the first trace only.
    """
    parts = [trace.events for trace in traces]
    parts[1:] = [ev[ev["op"] < int(Op.FAULT)] for ev in parts[1:]]
    ev = np.concatenate(parts) if parts else np.empty(0, EVENT_DTYPE)
    op, nbytes = ev["op"], ev["nbytes"]
    start = ev["timestamp"]
    instant_cols = {"start": start, "end": start + ev["duration"]}
    out = {}
    for name, rules in PFS_COUNTING_RULES.items():
        times, weights = [], []
        for code, instant, weight in rules:
            rows = op == int(code)
            times.append(instant_cols[instant][rows])
            weights.append(
                nbytes[rows] if weight == "nbytes" else np.ones(rows.sum(), np.int64)
            )
        instants = np.concatenate(times)
        order = np.argsort(instants, kind="stable")
        out[name] = (instants[order], np.cumsum(np.concatenate(weights)[order]))
    return out


class Telemetry:
    """One run's worth of live observability.

    Lifecycle: construct → :meth:`attach` (machine + filesystem) →
    :meth:`start` → simulation runs → :meth:`finalize` → export/report.
    The :class:`~repro.core.experiment.Experiment` harness drives all of
    it when its ``telemetry`` field is set.
    """

    def __init__(self, cadence_s: float = DEFAULT_CADENCE_S):
        check_positive(cadence_s, "cadence_s")
        self.cadence_s = float(cadence_s)
        self.registry = MetricsRegistry()
        self.profiler = RunProfiler()
        self.series: Optional[TimeSeries] = None
        self.sampler: Optional[Sampler] = None
        self.meta: dict = {}
        self._machine = None
        self._ppfs = None
        self._bb = None
        self._finalized = False

    # -- lifecycle -----------------------------------------------------------
    def attach(self, machine, fs) -> "Telemetry":
        """Record the component handles and build the sampling column
        layout; nothing is installed into the simulator."""
        with self.profiler.section("telemetry.attach"):
            # InstrumentedPFS wraps the raw file system as ``.fs``.
            inner = getattr(fs, "fs", fs)
            self._machine = machine
            # Policy-layer sections only exist on PPFS.
            self._ppfs = inner if hasattr(inner, "_server_caches") else None
            # Burst-buffer columns only exist on machines with the tier.
            self._bb = getattr(machine, "burstbuffer", None)
            self.series = TimeSeries(self._columns())
            self.sampler = Sampler(machine.env, self.cadence_s, self._sample)
            self.meta.setdefault("cadence_s", self.cadence_s)
            self.meta.setdefault("ionodes", len(machine.ionodes))
            self.meta.setdefault(
                "filesystem", "ppfs" if self._ppfs is not None else "pfs"
            )
        return self

    def start(self) -> None:
        if self.sampler is None:
            raise RuntimeError("attach() must run before start()")
        self.sampler.start()

    # -- sampling ------------------------------------------------------------
    def _columns(self) -> List[str]:
        cols = [
            "time_s",
            *_PFS_COLUMNS,
            "mesh.messages",
            "mesh.bytes",
            "disk.requests",
            "disk.seek_bytes",
        ]
        for i in range(len(self._machine.ionodes)):
            cols += [
                f"ionode{i}.queue",
                f"ionode{i}.busy",
                f"ionode{i}.busy_s",
                f"ionode{i}.bytes",
                f"raid{i}.state",
            ]
        if self._ppfs is not None:
            cols += [
                "cache.blocks",
                "cache.hit_rate",
                "server_cache.blocks",
                "server_cache.hit_rate",
                "writebehind.backlog_bytes",
                "writebehind.inflight",
                "prefetch.inflight",
            ]
        if self._bb is not None:
            cols += [
                "bb.occupancy_bytes",
                "bb.absorbed_bytes",
                "bb.drained_bytes",
                "bb.stalls",
                "bb.stall_s",
                "bb.drain_lag_s",
            ]
        return cols

    def _sample(self, now: float) -> None:
        machine = self._machine
        mesh = machine.mesh
        state_codes = STATE_CODES
        disk_requests = 0
        disk_seek_bytes = 0
        tail: list = []
        push = tail.append
        for ionode in machine.ionodes:
            array = ionode.array
            disk_requests += ionode.requests_served
            disk_seek_bytes += array._arm.seek_bytes
            push(ionode.queue_length)
            push(1.0 if ionode.busy else 0.0)
            push(ionode.busy_time)
            push(ionode.bytes_served)
            push(state_codes[array.state])
        # The pfs.* columns are placeholders until finalize derives them
        # from the traces.
        row = [
            now,
            *_PFS_PLACEHOLDER,
            mesh.messages,
            mesh.message_bytes,
            disk_requests,
            disk_seek_bytes,
        ]
        row += tail
        push = row.append
        ppfs = self._ppfs
        if ppfs is not None:
            for stats in (ppfs.cache_stats(), ppfs.server_cache_stats()):
                row += [stats.blocks, stats.hit_rate]
            wb = ppfs.writeback
            if wb is not None:
                row += [wb.backlog_bytes(), wb.inflight_batches]
            else:
                row += [0, 0]
            push(ppfs.prefetch_inflight)
        bb = self._bb
        if bb is not None:
            row += [
                bb.occupancy_bytes,
                bb.bytes_absorbed,
                bb.bytes_drained,
                bb.stalls,
                bb.stall_s,
                bb.oldest_age_s(),
            ]
        self.series.append(row)

    # -- finalization ----------------------------------------------------------
    def finalize(self, traces: Iterable[Any] = ()) -> "Telemetry":
        """Derive the ``pfs.*`` counters and series columns from the run's
        program traces and fold component state into the registry
        (idempotent)."""
        if self._finalized:
            return self
        self._finalized = True
        with self.profiler.section("telemetry.finalize"):
            reg = self.registry
            series = self.series
            times = series.column("time_s") if series is not None else None
            for name, (instants, totals) in _pfs_totals(traces).items():
                reg.counter(name).value = int(totals[-1]) if len(totals) else 0
                if times is not None and name in series.columns:
                    # Samples before the first counted op read zero.
                    at = np.searchsorted(instants, times, side="right")
                    series.column(name)[:] = np.concatenate(([0], totals))[at]
            machine = self._machine
            if machine is not None:
                mesh = machine.mesh
                reg.counter("mesh.messages").value = mesh.messages
                reg.counter("mesh.bytes").value = mesh.message_bytes
                hist = reg.histogram("ionode.request_bytes")
                for ionode in machine.ionodes:
                    for i, n in enumerate(ionode.size_buckets):
                        hist.counts[i] += n
                    hist.sum += ionode.bytes_served
                reg.counter("disk.requests").value = sum(
                    ionode.requests_served for ionode in machine.ionodes
                )
                reg.counter("disk.seek_bytes").value = sum(
                    ionode.array._arm.seek_bytes for ionode in machine.ionodes
                )
                for ionode in machine.ionodes:
                    node = str(ionode.index)
                    reg.counter("ionode.requests_served", node=node).value = (
                        ionode.requests_served
                    )
                    reg.counter("ionode.bytes_served", node=node).value = (
                        ionode.bytes_served
                    )
                    reg.gauge("ionode.busy_s", node=node).set(ionode.busy_time)
                    if machine.env.now > 0:
                        reg.gauge("ionode.utilization", node=node).set(
                            ionode.busy_time / machine.env.now
                        )
            ppfs = self._ppfs
            if ppfs is not None:
                for level, stats in (
                    ("client", ppfs.cache_stats()),
                    ("server", ppfs.server_cache_stats()),
                ):
                    for name, value in stats.as_dict().items():
                        reg.counter(f"cache.{name}", level=level).value = value
                wb = ppfs.writeback
                if wb is not None:
                    reg.counter("writebehind.writes_submitted").value = (
                        wb.writes_submitted
                    )
                    reg.counter("writebehind.bytes_submitted").value = (
                        wb.bytes_submitted
                    )
                    reg.counter("writebehind.transfers_issued").value = (
                        wb.transfers_issued
                    )
                    reg.counter("writebehind.bytes_flushed").value = wb.bytes_flushed
                counts_fn = getattr(ppfs.prefetcher, "classification_counts", None)
                if counts_fn is not None:
                    for kind, n in sorted(counts_fn().items()):
                        reg.counter("prefetch.streams", pattern=kind).value = n
            bb = self._bb
            if bb is not None:
                reg.counter("bb.appends").value = bb.appends
                reg.counter("bb.bytes_absorbed").value = bb.bytes_absorbed
                reg.counter("bb.bytes_drained").value = bb.bytes_drained
                reg.counter("bb.stalls").value = bb.stalls
                reg.counter("bb.fallback_writes").value = bb.fallback_writes
                reg.counter("bb.drain_failures").value = bb.drain_failures
                reg.gauge("bb.stall_s").set(bb.stall_s)
                reg.gauge("bb.max_occupancy_bytes").set(bb.max_occupancy_bytes)
                reg.gauge("bb.drain_lag_s").set(bb.max_drain_lag_s)
            sampler = self.sampler
            if sampler is not None:
                # The overhead accrued while the simulation ran, so file
                # it under the harness's simulate section, not finalize.
                self.profiler.add(
                    "simulate/telemetry.sample",
                    sampler.overhead_s,
                    max(sampler.samples, 1),
                )
                self.meta["samples"] = sampler.samples
        return self

    # -- summaries -------------------------------------------------------------
    def summary(self) -> dict:
        """Compact per-run summary (flows into campaign manifests)."""
        self.finalize()
        out = {
            "cadence_s": self.cadence_s,
            "samples": self.sampler.samples if self.sampler is not None else 0,
            "sampling_overhead_s": round(
                self.sampler.overhead_s if self.sampler is not None else 0.0, 6
            ),
            "counters": {
                metric.name: metric.value
                for metric in self.registry
                if metric.kind == "counter" and not metric.labels
            },
        }
        series = self.series
        if series is not None and len(series):
            queue_cols = [c for c in series.columns if c.endswith(".queue")]
            if queue_cols:
                out["max_queue"] = int(
                    max(float(series.column(c).max()) for c in queue_cols)
                )
            busy_cols = [c for c in series.columns if c.endswith(".busy")]
            if busy_cols:
                out["mean_busy_fraction"] = round(
                    sum(float(series.column(c).mean()) for c in busy_cols)
                    / len(busy_cols),
                    6,
                )
        return out

    def as_dict(self) -> dict:
        """Full export form (see :mod:`repro.telemetry.export`)."""
        self.finalize()
        return {
            "meta": dict(self.meta),
            "registry": self.registry.as_dict(),
            "profile": self.profiler.as_dict(),
            "series": self.series.as_dict() if self.series is not None else None,
        }
