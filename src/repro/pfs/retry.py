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

:func:`issue_with_retry` is the one retry loop: the striped fan-out
(:meth:`repro.pfs.filesystem.PFS._fanout`, which PPFS and the burst
buffer share), the write-behind flusher and the ``flush`` visit all run
through it once the fault injector has handed the file system its retry
domain (``fs.retry_domain``).  Fault-free runs never pay for any of
this: the injector hands the domain over only when the plan is
non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.core import Event, Timeout
from .errors import IONodeUnavailable, RetryBudgetExceeded, TransientIOError

__all__ = [
    "RetryPolicy",
    "backoff_delay",
    "backoff_schedule",
    "settle_all",
    "issue_with_retry",
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
    sequence :func:`issue_with_retry` would wait, given the same stream.
    """
    delays: list[float] = []
    prev = 0.0
    for attempt in range(1, n + 1):
        prev = backoff_delay(policy, attempt, prev, rng)
        delays.append(prev)
    return delays


def settle_all(env, n: int) -> tuple[Event, Callable[[Optional[BaseException]], None]]:
    """A ``(done, settle)`` pair for ``n`` retried chunks.

    Each chunk calls ``settle(exc)`` once: ``None`` on success, else its
    fatal error.  ``done`` fires on the ``n``-th call, failing with the
    first fatal error, if any, so a request fails only after every chunk
    has come to rest.
    """
    done = Event(env)
    remaining = n
    failure: Optional[BaseException] = None

    def settle(exc: Optional[BaseException]) -> None:
        nonlocal remaining, failure
        if exc is not None and failure is None:
            failure = exc
        remaining -= 1
        if not remaining:
            if failure is None:
                done.succeed()
            else:
                done.fail(failure)

    return done, settle


def issue_with_retry(
    domain,
    send: Callable[[Callable[[Event], None]], None],
    ion,
    node: int,
    file_id: int,
    offset: int,
    nbytes: int,
    span_parent: float,
    settle: Callable[[Optional[BaseException]], None],
) -> None:
    """Issue one chunk until it succeeds, fails fatally or spends its budget.

    ``send(on_done)`` starts one attempt and chains ``on_done`` onto the
    attempt's service-done event at ``ion``.  A transient failure
    re-issues after a jittered backoff, racing ``ion``'s restart when it
    is down; each re-issue records a RETRY row for ``node`` (and, with
    spans on, a ``retry.backoff`` span under ``span_parent``).
    ``settle`` is called exactly once: with ``None`` on success, else
    with the fatal error or
    :class:`~repro.pfs.errors.RetryBudgetExceeded`.

    ``domain`` supplies ``policy`` (a :class:`RetryPolicy`),
    ``backoff_rng`` (a deterministic stream) and ``recorder`` (a
    :class:`repro.faults.FaultRecorder`).
    """
    env = ion.env
    policy = domain.policy

    def attempt(n: int, prev_delay: float) -> None:
        send(lambda ev: finish(ev, n, prev_delay))

    def finish(ev: Event, n: int, prev_delay: float) -> None:
        if ev._ok:
            settle(None)
            return
        exc = ev._value
        if not isinstance(exc, TransientIOError):
            settle(exc)
            return
        if n >= policy.max_attempts:
            settle(RetryBudgetExceeded(
                f"chunk (ionode {ion.index}, offset {offset}, {nbytes} B) "
                f"failed {n} attempts; last: {exc}"
            ))
            return
        delay = backoff_delay(policy, n, prev_delay, domain.backoff_rng)
        failed_at = env.now
        fired = False

        def resubmit(_ev: Event) -> None:
            # Backoff expiry races the node restart; first wins, the
            # other finds the flag set and does nothing.
            nonlocal fired
            if fired:
                return
            fired = True
            domain.recorder.retry(
                env.now, node, file_id, offset, nbytes, failed_at, span_parent, n
            )
            attempt(n + 1, delay)

        Timeout(env, delay).callbacks.append(resubmit)
        if isinstance(exc, IONodeUnavailable) and not ion.up:
            ion.restart_wait().callbacks.append(resubmit)

    attempt(1, 0.0)
