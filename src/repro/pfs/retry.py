"""Client-side retry/failover for the striped data path.

When fault injection (:mod:`repro.faults`) is active, chunk requests to
I/O nodes can fail with :class:`~repro.pfs.errors.TransientIOError`
subclasses: dropped in flight (:class:`IOTimeout`), node down
(:class:`IONodeUnavailable`), or rejected during array reconfiguration
(:class:`DegradedService`).  This module gives the PFS client the
standard distributed-systems answer:

* **capped exponential backoff with jitter** — delays grow by
  ``backoff_multiplier`` per attempt up to ``max_backoff_s``; jitter
  decorrelates the retry herds of 128 clients but draws from a *named
  deterministic stream*, so an identical seed + fault plan reproduces a
  byte-identical trace.  The realized delay sequence is monotone
  nondecreasing per chunk (a retry never waits less than its
  predecessor).
* **failover on outage** — while the serving node is down, blind backoff
  would just burn attempts; the re-issue instead races the next backoff
  expiry against the node's :meth:`~repro.machine.ionode.IONode.restart_wait`
  event and fires on whichever comes first.
* **a finite budget** — past ``max_attempts`` the chunk fails the whole
  request with :class:`~repro.pfs.errors.RetryBudgetExceeded`, a typed
  *fatal* error.  Nothing hangs and nothing silently succeeds.

:func:`install_retry` swaps a retrying fan-out into a live file system
as an *instance* attribute, shadowing both :meth:`PFS._fanout` and the
PPFS server-cache variant; fault-free runs never pay for any of this
because the injector only installs it when the plan is non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from ..sim.core import Event, Timeout
from .errors import IONodeUnavailable, RetryBudgetExceeded, TransientIOError

__all__ = [
    "RetryPolicy",
    "backoff_delay",
    "backoff_schedule",
    "retrying_fanout",
    "install_retry",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + backoff shape for transient I/O failures.

    The defaults give a cumulative worst-case wait of ~3 simulated
    seconds before a chunk is declared dead — long enough to ride out
    the sub-second outage windows fault plans typically inject, short
    enough that a permanent outage surfaces promptly as
    :class:`~repro.pfs.errors.RetryBudgetExceeded`.
    """

    #: Total issue attempts per chunk (first try included).
    max_attempts: int = 12
    #: Delay before the first re-issue.
    base_backoff_s: float = 0.005
    #: Growth factor per subsequent re-issue.
    backoff_multiplier: float = 2.0
    #: Ceiling on the un-jittered delay.
    max_backoff_s: float = 0.5
    #: Jitter amplitude: each delay is scaled by ``1 + jitter_frac * u``
    #: with ``u`` uniform in [0, 1) from a deterministic stream.
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0:
            raise ValueError(f"base_backoff_s must be >= 0, got {self.base_backoff_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError(
                f"max_backoff_s ({self.max_backoff_s}) must be >= "
                f"base_backoff_s ({self.base_backoff_s})"
            )
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError(f"jitter_frac must be in [0, 1], got {self.jitter_frac}")

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_backoff_s": self.base_backoff_s,
            "backoff_multiplier": self.backoff_multiplier,
            "max_backoff_s": self.max_backoff_s,
            "jitter_frac": self.jitter_frac,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)


def backoff_delay(policy: RetryPolicy, attempt: int, prev_delay: float, rng) -> float:
    """Delay before re-issuing after failed attempt number ``attempt``.

    ``prev_delay`` is the delay used before ``attempt`` (0.0 when this is
    the first re-issue); the result never shrinks below it, so the
    realized per-chunk delay sequence is monotone nondecreasing, and it
    never exceeds ``max_backoff_s * (1 + jitter_frac)``.  ``rng`` needs
    only a ``random()`` method; one uniform draw is consumed per call.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    raw = min(
        policy.base_backoff_s * policy.backoff_multiplier ** (attempt - 1),
        policy.max_backoff_s,
    )
    jittered = raw * (1.0 + policy.jitter_frac * float(rng.random()))
    ceiling = policy.max_backoff_s * (1.0 + policy.jitter_frac)
    return min(max(prev_delay, jittered), ceiling)


def backoff_schedule(policy: RetryPolicy, n: int, rng) -> list[float]:
    """The first ``n`` realized re-issue delays for one chunk.

    Chains :func:`backoff_delay` through its own recurrence — the exact
    sequence the retrying fan-out would wait, given the same stream.
    """
    delays: list[float] = []
    prev = 0.0
    for attempt in range(1, n + 1):
        prev = backoff_delay(policy, attempt, prev, rng)
        delays.append(prev)
    return delays


def retrying_fanout(fs, domain, node: int, f, offset: int, nbytes: int, is_write: bool) -> Event:
    """Striped chunk fan-out with per-chunk retry, failover, and a budget.

    Mirrors :meth:`repro.pfs.filesystem.PFS._fanout` (and the PPFS
    server-cache variant, duck-typed via ``fs.server_cache``): one mesh
    :class:`Timeout` per chunk whose arrival callback submits to the I/O
    node.  The difference is that each chunk's completion callback
    inspects the service event: transient failures re-issue after a
    jittered backoff (racing the node's restart when it is down), fatal
    failures — or a spent budget — fail the returned event with the
    first fatal error once every chunk has settled.

    ``domain`` supplies ``policy`` (a :class:`RetryPolicy`),
    ``backoff_rng`` (a deterministic stream), and ``recorder`` (a
    :class:`repro.faults.FaultRecorder` or None) for RETRY trace rows.
    """
    env = fs.env
    mesh = fs.machine.mesh
    ionodes = fs.machine.ionodes
    io_pos = fs._io_mesh_pos
    policy = domain.policy
    recorder = domain.recorder
    rng = domain.backoff_rng
    file_id = f.file_id
    chunks = f.layout.decompose(offset, nbytes)
    done = Event(env)
    if not chunks:
        return done.succeed()
    state: dict[str, Any] = {"remaining": len(chunks), "failure": None}

    pol = getattr(fs, "policies", None)
    server_blocks = getattr(pol, "server_cache_blocks", 0) if pol is not None else 0
    use_cache = server_blocks > 0
    cache_block = pol.server_cache_block_bytes if use_cache else 1
    hit_s = pol.server_cache_hit_s if use_cache else 0.0
    spans = getattr(fs, "spans", None)
    if spans is not None:
        root = spans.fanout_parent
        if root >= 0:
            spans.fanout_parent = -1
        else:
            root = -2 - node
    else:
        root = -1

    def settle() -> None:
        state["remaining"] -= 1
        if not state["remaining"]:
            failure = state["failure"]
            if failure is None:
                done.succeed()
            else:
                done.fail(failure)

    def launch(chunk, attempt: int, prev_delay: float) -> None:
        delay = mesh.message_time(node, io_pos[chunk.ionode], chunk.nbytes)
        if spans is not None:
            spans.mesh_raw.append((root, node, env.now, env.now + delay, chunk.nbytes))
        msg = Timeout(env, delay)
        msg.callbacks.append(
            lambda _ev: issue(chunk, ionodes[chunk.ionode], attempt, prev_delay)
        )

    def issue(chunk, ion, attempt: int, prev_delay: float) -> None:
        insert = None
        if use_cache:
            cache = fs.server_cache(chunk.ionode)
            first = chunk.disk_offset // cache_block
            last = (chunk.disk_offset + chunk.nbytes - 1) // cache_block
            if not is_write and cache.lookup_range(file_id, first, last):
                if spans is not None:
                    spans.add(
                        "scache.hit", chunk.ionode, env.now, env.now, root, chunk.nbytes
                    )
                ion.submit_control(hit_s, root).callbacks.append(
                    lambda ev: finish(ev, chunk, ion, attempt, prev_delay, None)
                )
                return
            insert = (cache, first, last)
        extra = fs._chunk_extra(chunk.nbytes, is_write)
        ion.submit(
            chunk.disk_offset, chunk.nbytes, is_write, extra, root
        ).callbacks.append(
            lambda ev, insert=insert: finish(ev, chunk, ion, attempt, prev_delay, insert)
        )

    def finish(ev: Event, chunk, ion, attempt: int, prev_delay: float, insert) -> None:
        if ev._ok:
            if insert is not None:
                cache, first, last = insert
                cache.insert_range(file_id, first, last)
            settle()
            return
        exc = ev._value
        if not isinstance(exc, TransientIOError):
            if state["failure"] is None:
                state["failure"] = exc
            settle()
            return
        if attempt >= policy.max_attempts:
            if state["failure"] is None:
                state["failure"] = RetryBudgetExceeded(
                    f"chunk (ionode {chunk.ionode}, offset {chunk.disk_offset}, "
                    f"{chunk.nbytes} B) failed {attempt} attempts; last: {exc}"
                )
            settle()
            return
        delay = backoff_delay(policy, attempt, prev_delay, rng)
        failed_at = env.now
        fired = [False]

        def _resubmit(_ev: Event) -> None:
            # Backoff expiry races the node restart; first wins, the
            # other finds the flag set and does nothing.
            if fired[0]:
                return
            fired[0] = True
            if recorder is not None:
                recorder.retry(
                    env.now, node, file_id, chunk.disk_offset, chunk.nbytes,
                    env.now - failed_at,
                )
            if spans is not None:
                spans.add(
                    "retry.backoff", node, failed_at, env.now,
                    root, chunk.nbytes, float(attempt),
                )
            launch(chunk, attempt + 1, delay)

        Timeout(env, delay).callbacks.append(_resubmit)
        if isinstance(exc, IONodeUnavailable) and not ion.up:
            ion.restart_wait().callbacks.append(_resubmit)

    for chunk in chunks:
        launch(chunk, 1, 0.0)
    return done


def install_retry(fs, domain):
    """Thread retry/failover through a live file system.

    Installs :func:`retrying_fanout` as an *instance* attribute (shadowing
    the class fan-out, including PPFS's cached variant and the
    ``server_cache_blocks == 0`` instance shortcut), and hands the domain
    to the write-behind manager when one exists so flushed chunks retry
    too.  Returns ``fs``.
    """
    fs._fanout = partial(retrying_fanout, fs, domain)
    writeback = getattr(fs, "writeback", None)
    if writeback is not None:
        writeback.retry_domain = domain
    return fs
