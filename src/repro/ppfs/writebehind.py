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

from typing import TYPE_CHECKING

from ..pfs.errors import IONodeUnavailable, RetryBudgetExceeded, TransientIOError
from ..pfs.file import PFSFile
from ..pfs.retry import backoff_delay
from ..sim.core import Event, Timeout
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
        # Fault support: install_retry sets retry_domain; flushed chunks
        # then retry like foreground transfers, and a fatal flush failure
        # is parked here and raised at the next drain (write-behind has no
        # caller to fail synchronously).
        self.retry_domain = None
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
        """
        if not runs:
            return
        if self.retry_domain is not None:
            self._start_runs_retrying(f, runs)
            return
        ionodes = self.fs.machine.ionodes
        groups: dict[int, list[tuple[int, int, int, float]]] = {}
        for spec in self._chunk_specs(f, runs):
            groups.setdefault(spec[0], []).append(spec)
        fsid = self._flush_span(runs)
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

    def _start_runs_retrying(self, f: PFSFile, runs: list[tuple[int, int]]) -> None:
        """Fault-path variant of :meth:`_start_runs`.

        Same submission shape (flush chunks bypass the mesh and go
        straight to the I/O-node queues), but each chunk's completion is
        inspected: transient failures re-issue after a jittered backoff —
        racing the node's restart when it is down — and a spent budget or
        fatal error parks the exception in ``_fatal`` while still
        counting the chunk down, so :meth:`drain_all` never hangs and
        surfaces the failure instead of losing data silently.
        """
        fs = self.fs
        env = self.env
        ionodes = fs.machine.ionodes
        domain = self.retry_domain
        policy = domain.policy
        rng = domain.backoff_rng
        recorder = domain.recorder
        file_id = f.file_id
        specs = self._chunk_specs(f, runs)
        fsid = self._flush_span(runs)
        spans = self.spans
        settle = self._batch_done(len(specs), fsid)

        def _launch(spec, attempt: int, prev_delay: float) -> None:
            ion = ionodes[spec[0]]
            ion.submit(spec[1], spec[2], True, spec[3], fsid).callbacks.append(
                lambda ev: _finish(ev, spec, ion, attempt, prev_delay)
            )

        def _finish(ev, spec, ion, attempt: int, prev_delay: float) -> None:
            if ev._ok:
                settle()
                return
            exc = ev._value
            if not isinstance(exc, TransientIOError):
                if self._fatal is None:
                    self._fatal = exc
                settle()
                return
            if attempt >= policy.max_attempts:
                if self._fatal is None:
                    self._fatal = RetryBudgetExceeded(
                        f"flush chunk (ionode {spec[0]}, offset {spec[1]}, "
                        f"{spec[2]} B) failed {attempt} attempts; last: {exc}"
                    )
                settle()
                return
            delay = backoff_delay(policy, attempt, prev_delay, rng)
            failed_at = env.now
            fired = [False]

            def _resubmit(_ev) -> None:
                if fired[0]:
                    return
                fired[0] = True
                if recorder is not None:
                    recorder.retry(
                        env.now, ion.index, file_id, spec[1], spec[2],
                        env.now - failed_at,
                    )
                if fsid >= 0:
                    spans.add(
                        "retry.backoff", ion.index, failed_at, env.now,
                        fsid, spec[2], float(attempt),
                    )
                _launch(spec, attempt + 1, delay)

            Timeout(env, delay).callbacks.append(_resubmit)
            if isinstance(exc, IONodeUnavailable) and not ion.up:
                ion.restart_wait().callbacks.append(_resubmit)

        for spec in specs:
            _launch(spec, 1, 0.0)

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
