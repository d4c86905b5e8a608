"""Trace-driven replay: re-run a captured request stream on another
file system configuration.

§8 argues that "the impact of file system changes on real applications
... depends on much more complex application structure" than synthetic
kernels capture.  Replay is the tool that follows: take a Pablo trace
captured on one configuration, regenerate each node's request stream,
and drive it against a different machine/file-system/policy combination
— preserving (optionally) the original inter-request think times, so the
application's temporal structure survives while the I/O substrate
changes underneath it.

:func:`replay_trace` runs the ``trace`` application
(:mod:`repro.apps.trace`, which documents the replay semantics) through
:class:`~repro.core.experiment.Experiment`, so a replay is assembled
exactly like every other run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..apps.trace import TraceReplayConfig
from ..apps.workloads import paper_machine
from ..machine.paragon import Paragon
from ..pablo.trace import Trace
from ..pfs.filesystem import PFS
from ..ppfs.policies import PPFSPolicies
from .experiment import Experiment

__all__ = ["ReplayResult", "replay_trace"]


@dataclass
class ReplayResult:
    """Outcome of one replay."""

    machine: Paragon
    fs: PFS
    trace: Trace  # the re-captured trace on the new configuration
    original: Trace

    @property
    def io_time_ratio(self) -> float:
        """New total I/O node-time over the original's."""
        orig = float(self.original.events["duration"].sum())
        new = float(self.trace.events["duration"].sum())
        return new / orig if orig else 0.0

    @property
    def makespan_ratio(self) -> float:
        """New span over original span."""
        return self.trace.duration / self.original.duration if self.original.duration else 0.0


def replay_trace(
    trace: Trace,
    machine_factory: Callable[[], Paragon] = paper_machine,
    filesystem: str = "pfs",
    policies: Optional[PPFSPolicies] = None,
    think_time: str = "preserve",
) -> ReplayResult:
    """Replay ``trace`` on a fresh machine/file system.

    Parameters
    ----------
    trace:
        The captured request stream.
    machine_factory:
        Builds the replay machine (defaults to the paper partition).
    filesystem / policies:
        As in :class:`~repro.core.experiment.Experiment`: 'pfs' (the
        default) or 'ppfs', with optional PPFS policies for what-if runs.
    think_time:
        'preserve' reinserts original inter-op gaps; 'none' replays
        back-to-back; 'anchor' starts each call at its original absolute
        time (timed replay).
    """
    result = Experiment(
        app="trace",
        config=TraceReplayConfig(trace=trace, think_time=think_time),
        machine_factory=machine_factory,
        filesystem=filesystem,
        policies=policies,
    ).run()
    replayed = result.trace
    replayed.application = f"{trace.application}-replay"
    return ReplayResult(result.machine, result.fs, replayed, trace)
