"""Write-behind buffering with global aggregation.

The §5.2 experiment: ESCAT's synchronized 2 KB writes complete into
client/server buffers immediately, and a background flusher drains them
as large coalesced transfers — "this combination of policies effectively
eliminated the behavior seen in Figure 4".

The manager keeps one :class:`~repro.ppfs.aggregation.ExtentSet` per
file.  Runs reaching ``aggregate_min_bytes`` are drained eagerly; small
fragments drain on an interval timer.  Flush transfers bypass the PFS
shared-file token (PPFS owns consistency at the servers) and go straight
to the I/O-node queues, off every application thread's critical path.
All buffered data is durable by the time :meth:`drain_file` (called from
close) returns — write caching here increases achieved bandwidth, it
does not reduce the volume reaching disk (§8).

The flusher is allocation-lean: each drainable run is decomposed once
with :meth:`~repro.pfs.striping.StripeLayout.decompose`, each I/O node
receives its share of the batch as one
:meth:`~repro.machine.ionode.IONode.submit_batch` cohort, and a single
shared countdown completes the batch — no per-run flush Process, no
per-chunk serve generator.  ``ExtentSet.max_run_bytes`` lets
:meth:`submit` skip the drain scan entirely when no pending run can
qualify yet, which is the common case under aggregation.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from ..pfs.file import PFSFile
from ..pfs.retry import issue_with_retry
from ..sim.core import Event
from .aggregation import ExtentSet

if TYPE_CHECKING:  # pragma: no cover
    from .server import PPFS

__all__ = ["WriteBehindManager"]


class WriteBehindManager:
    """Per-file pending-write buffers plus the background flusher."""

    def __init__(self, fs: "PPFS"):
        self.fs = fs
        self.env = fs.env
        self.pending: dict[int, ExtentSet] = {}  # file_id -> extents
        self._files: dict[int, PFSFile] = {}
        self._timer_armed = False
        self._inflight: set[object] = set()
        self._idle_event: Event | None = None
        # Under fault injection (fs.retry_domain set) flushed chunks retry
        # like foreground transfers; a fatal flush failure is parked here
        # and raised at the next drain (write-behind has no caller to fail
        # synchronously).
        self._fatal: BaseException | None = None
        #: Span recorder handle (planted by SpanRecorder.attach).
        self.spans = None
        # Statistics for the ablation bench.
        self.writes_submitted = 0
        self.bytes_submitted = 0
        self.transfers_issued = 0
        self.bytes_flushed = 0

    def backlog_bytes(self) -> int:
        """Bytes buffered but not yet handed to the flusher (the quantity
        the telemetry sampler tracks as ``writebehind.backlog_bytes``)."""
        return sum(extents.total_bytes for extents in self.pending.values())

    @property
    def inflight_batches(self) -> int:
        """Flush batches issued but not yet durable."""
        return len(self._inflight)

    @property
    def idle(self) -> bool:
        """No buffered or in-flight data anywhere (fluid-mode precondition:
        a non-idle write-behind pipeline could reorder against closed-form
        phases, so the servicer declines while anything is pending)."""
        return not self._inflight and not self.backlog_bytes()

    @property
    def aggregation_factor(self) -> float:
        """Application writes per physical transfer (>1 = aggregation won)."""
        return (
            self.writes_submitted / self.transfers_issued
            if self.transfers_issued
            else 0.0
        )

    # -- submission ------------------------------------------------------------
    def submit(self, f: PFSFile, offset: int, nbytes: int) -> None:
        """Buffer one application write (returns immediately)."""
        self.writes_submitted += 1
        self.bytes_submitted += nbytes
        self._files[f.file_id] = f
        extents = self.pending.get(f.file_id)
        if extents is None:
            extents = self.pending[f.file_id] = ExtentSet()
        extents.add(offset, nbytes)
        pol = self.fs.policies
        if pol.aggregation:
            # O(1) early-out: nothing can drain until some run has grown
            # to the aggregation threshold.
            if extents.max_run_bytes >= pol.aggregate_min_bytes:
                self._start_runs(f, extents.pop_file_runs(pol.aggregate_min_bytes))
        else:
            # Without aggregation, drain each write as its own transfer.
            self._start_runs(f, extents.pop_all())
        if extents and not self._timer_armed:
            self._timer_armed = True
            self.env.process(self._interval_flush(), name="ppfs.flusher")

    # -- flushing ---------------------------------------------------------------
    def _start_runs(self, f: PFSFile, runs: list[tuple[int, int]]) -> None:
        """Launch one file's drainable runs as background transfers.

        Every chunk of every run arrives at this same instant, so each
        I/O node's share is one FIFO cohort: group the runs' chunks by
        node (keeping per-node arrival order) and hand each node's
        group, in ascending node order, to
        :meth:`~repro.machine.ionode.IONode.submit_batch`, which prices
        it in one pass or falls back to per-request submits when the
        node is not eager.  Each run still counts as one logical
        transfer for the aggregation statistics.

        Under fault injection each chunk instead runs through
        :func:`~repro.pfs.retry.issue_with_retry`; a spent budget or
        fatal error is parked in ``_fatal`` while the chunk still counts
        down, so :meth:`drain_all` never hangs and surfaces the failure
        instead of losing data silently.
        """
        if not runs:
            return
        ionodes = self.fs.machine.ionodes
        specs = self._chunk_specs(f, runs)
        fsid = self._flush_span(runs)
        domain = self.fs.retry_domain
        if domain is not None:
            batch_done = self._batch_done(len(specs), fsid)

            def settle(exc) -> None:
                if exc is not None and self._fatal is None:
                    self._fatal = exc
                batch_done()

            for node, offset, nbytes, extra in specs:
                ion = ionodes[node]
                issue_with_retry(
                    domain, partial(_submit_write, ion, offset, nbytes, extra, fsid),
                    ion, node, f.file_id, offset, nbytes, fsid, settle,
                )
            return
        groups: dict[int, list[tuple[int, int, int, float]]] = {}
        for spec in specs:
            groups.setdefault(spec[0], []).append(spec)
        node_done = self._batch_done(len(groups), fsid)
        for node in sorted(groups):
            _, offsets, sizes, extras = zip(*groups[node])
            ionodes[node].submit_batch(
                offsets, sizes, True, extras, fsid
            ).callbacks.append(node_done)

    def _chunk_specs(
        self, f: PFSFile, runs: list[tuple[int, int]]
    ) -> list[tuple[int, int, int, float]]:
        """Decompose runs into ``(ionode, disk_offset, nbytes, extra_s)``
        chunk specs, run-major, and count them as issued transfers."""
        fs = self.fs
        decompose = f.layout.decompose
        specs = []
        self.transfers_issued += len(runs)
        for start, end in runs:
            nbytes = end - start
            self.bytes_flushed += nbytes
            for chunk in decompose(start, nbytes):
                specs.append((
                    chunk.ionode, chunk.disk_offset, chunk.nbytes,
                    fs._chunk_extra(chunk.nbytes, is_write=True),
                ))
        return specs

    def _flush_span(self, runs: list[tuple[int, int]]) -> int:
        """Open the batch's root ``wb.flush`` span (-1 with spans off):
        the flush runs off every application thread's critical path, so
        it cannot nest under any op span."""
        spans = self.spans
        if spans is None:
            return -1
        return spans.store.begin(
            "wb.flush", -1, self.env.now,
            nbytes=sum(end - start for start, end in runs),
            aux=float(len(runs)),
        )

    def _batch_done(self, n: int, fsid: int):
        """Register one in-flight flush batch; the returned callback
        completes it (closing its span and waking idle waiters) on its
        ``n``-th call."""
        token = object()
        self._inflight.add(token)
        remaining = n

        def done(_ev=None) -> None:
            nonlocal remaining
            remaining -= 1
            if not remaining:
                if fsid >= 0:
                    self.spans.store.finish(fsid, self.env.now)
                self._inflight.discard(token)
                if not self._inflight and self._idle_event is not None:
                    self._idle_event.succeed()
                    self._idle_event = None

        return done

    def _interval_flush(self):
        """Periodic flush.

        Without aggregation everything pending drains.  With aggregation,
        only runs that reached ``aggregate_min_bytes`` drain — smaller
        fragments keep accumulating (they coalesce with later writes into
        disk-efficient transfers) and are forced out at close/drain time.
        """
        yield self.env.timeout(self.fs.policies.flush_interval_s)
        self._timer_armed = False
        pol = self.fs.policies
        for file_id, extents in list(self.pending.items()):
            if not extents:
                continue
            if pol.aggregation:
                if extents.max_run_bytes < pol.aggregate_min_bytes:
                    continue
                runs = extents.pop_file_runs(pol.aggregate_min_bytes)
            else:
                runs = extents.pop_all()
            self._start_runs(self._files[file_id], runs)
        # Remaining fragments wait for more writes (which re-arm the
        # timer) or for the forced drain at close — never re-arm here, or
        # an idle simulation would spin on timer events forever.

    # -- draining ----------------------------------------------------------------
    def flush_file(self, f: PFSFile) -> None:
        """Push a file's pending extents to the flusher immediately."""
        extents = self.pending.get(f.file_id)
        if extents:
            self._start_runs(f, extents.pop_all())

    def drain_file(self, f: PFSFile):
        """Process generator: flush + wait until the file's data is durable.

        Waits for *all* in-flight transfers (coarse but safe), so a close
        never returns with the closed file's bytes still in memory.
        """
        self.flush_file(f)
        yield from self.drain_all()

    def drain_all(self):
        """Process generator: flush everything and wait for quiescence."""
        for file_id, extents in list(self.pending.items()):
            if extents:
                self._start_runs(self._files[file_id], extents.pop_all())
        while self._inflight:
            if self._idle_event is None:
                self._idle_event = Event(self.env)
            yield self._idle_event
        if self._fatal is not None:
            exc, self._fatal = self._fatal, None
            raise exc


def _submit_write(ion, offset: int, nbytes: int, extra: float, parent: int, on_done) -> None:
    """One flush attempt: the chunk goes straight to its I/O node's queue."""
    ion.submit(offset, nbytes, True, extra, parent).callbacks.append(on_done)
