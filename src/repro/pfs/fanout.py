"""Shared countdown-completion machinery for striped chunk fan-outs.

Every fault-free striped request ends the same way: *n* per-chunk
completions fold into one ``done`` event.  :meth:`PFS._fanout
<repro.pfs.filesystem.PFS._fanout>` (the one chunk path, which PPFS,
the burst-buffer drainer and ``aread`` share) and
:meth:`IONode.submit_batch <repro.machine.ionode.IONode.submit_batch>`'s
per-request fallback fold through it here; under fault injection,
:func:`repro.pfs.retry.settle_all` takes its place so a chunk can settle
with an error.

The helper is allocation-lean by design: one :class:`Event` plus one
closure for the multi-chunk case, and for the (dominant) single-chunk
case no counter at all — the chunk's completion callback succeeds
``done`` directly.
"""

from __future__ import annotations

from typing import Callable

from ..sim.core import Environment, Event

__all__ = ["countdown"]


def countdown(env: Environment, n: int) -> tuple[Event, Callable[[Event], None]]:
    """A ``(done, chunk_done)`` pair: ``done`` fires on the ``n``-th call
    of ``chunk_done``.

    ``chunk_done`` has callback shape (it ignores the event it receives),
    so call sites append it directly to per-chunk completion events.  For
    ``n == 1`` the counter collapses to a bare ``done.succeed`` hop —
    byte-identical scheduling, one closure fewer.
    """
    done = Event(env)
    if n == 1:
        return done, lambda _ev: done.succeed()
    remaining = n

    def chunk_done(_ev: Event) -> None:
        nonlocal remaining
        remaining -= 1
        if not remaining:
            done.succeed()

    return done, chunk_done
