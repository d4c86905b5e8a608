"""Experiment harness: application x machine x file system -> trace(s).

One declarative record (:class:`Experiment`) names everything a run
needs; ``run()`` assembles the machine, file system (PFS or PPFS with
policies), Pablo instrumentation and application skeleton, executes the
simulation and returns the trace(s) plus handles for deeper inspection.

This module is the one place a run is assembled.  The CLI and campaigns
reach it through :class:`repro.campaign.spec.RunSpec`, trace replay
through :func:`repro.core.replay.replay_trace`, and the vfs
:class:`~repro.vfs.SimMachine` through the same helpers ``run()`` uses
(:func:`build_machine`, :func:`build_filesystem`, :class:`RunAttachments`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..apps.checkpoint import Checkpoint, CheckpointConfig
from ..apps.escat import Escat, EscatConfig
from ..apps.htf import PROGRAMS as HTF_PROGRAMS
from ..apps.htf import HTFConfig
from ..apps.render import Render, RenderConfig
from ..apps.trace import TraceReplay, TraceReplayConfig
from ..apps.workloads import paper_machine
from ..machine.paragon import Paragon
from ..pablo.capture import InstrumentedPFS
from ..pablo.trace import Trace
from ..pfs.costs import CostModel
from ..pfs.filesystem import PFS
from ..ppfs.policies import PPFSPolicies
from ..ppfs.server import PPFS

__all__ = [
    "Experiment",
    "ExperimentResult",
    "RunAttachments",
    "build_filesystem",
    "build_machine",
    "check_filesystem",
    "normalize_telemetry",
    "normalize_burst_buffer",
    "normalize_spans",
]


def normalize_telemetry(spec: Any) -> Any:
    """Normalize a telemetry field (None/bool/cadence/Telemetry) into a
    :class:`repro.telemetry.Telemetry` or None.  Shared by the experiment
    harness and the vfs program harness."""
    if spec is None or spec is False:
        return None
    # Imported here so telemetry-free builds never touch the subsystem.
    from ..telemetry import Telemetry

    if isinstance(spec, Telemetry):
        return spec
    if spec is True:
        return Telemetry()
    return Telemetry(cadence_s=float(spec))


def normalize_spans(spec: Any) -> Any:
    """Normalize a spans field (None/bool/SpanRecorder) into a
    :class:`repro.spans.SpanRecorder` or None."""
    if spec is None or spec is False:
        return None
    # Imported here so spans-free builds never touch the subsystem.
    from ..spans import SpanRecorder

    if isinstance(spec, SpanRecorder):
        return spec
    return SpanRecorder()


def normalize_burst_buffer(spec: Any) -> Any:
    """Normalize a burst-buffer field (None/bool/bytes/params/dict) into
    :class:`repro.machine.BurstBufferParams` or None."""
    if spec is None or spec is False:
        return None
    from ..machine.burstbuffer import BurstBufferParams

    if isinstance(spec, BurstBufferParams):
        return spec
    if spec is True:
        return BurstBufferParams()
    if isinstance(spec, dict):
        return BurstBufferParams(**spec)
    return BurstBufferParams(capacity_bytes=int(spec))


#: app -> (workload config type, programs as (trace key, skeleton) pairs).
#: The programs run in order on one machine, each under its own Pablo
#: capture; a default-constructed config is the paper's run.
_PROGRAMS: dict[str, tuple[type, tuple[tuple[str, type], ...]]] = {
    "escat": (EscatConfig, (("escat", Escat),)),
    "render": (RenderConfig, (("render", Render),)),
    "htf": (HTFConfig, HTF_PROGRAMS),
    "checkpoint": (CheckpointConfig, (("checkpoint", Checkpoint),)),
    "trace": (TraceReplayConfig, (("trace", TraceReplay),)),
}


def check_filesystem(filesystem: str, policies: Optional[PPFSPolicies]) -> None:
    """Reject a file-system choice that cannot be built."""
    if filesystem not in ("pfs", "ppfs"):
        raise ValueError(f"filesystem must be pfs/ppfs, got {filesystem!r}")
    if policies is not None and filesystem != "ppfs":
        raise ValueError("policies require filesystem='ppfs'")


def build_machine(machine_factory: Callable[[], Paragon], burst_buffer: Any = None) -> Paragon:
    """A fresh machine, with the burst-buffer tier when one is asked for."""
    machine = machine_factory()
    params = normalize_burst_buffer(burst_buffer)
    if params is not None and machine.burstbuffer is None:
        # Attach the tier before the file system is built (the fs picks
        # up machine.burstbuffer in its constructor).
        from ..machine.burstbuffer import BurstBuffer

        machine.burstbuffer = BurstBuffer(machine.env, params)
    return machine


def build_filesystem(
    machine: Paragon,
    filesystem: str = "pfs",
    policies: Optional[PPFSPolicies] = None,
    costs: Optional[CostModel] = None,
    track_content: bool = False,
) -> PFS:
    """The (uninstrumented) PFS or PPFS on ``machine``."""
    if filesystem == "ppfs":
        return PPFS(machine, policies=policies, costs=costs, track_content=track_content)
    return PFS(machine, costs=costs, track_content=track_content)


class RunAttachments:
    """The optional machinery one run attaches to its machine and file
    system: span recorder, fault injector, fluid servicer and telemetry.

    Constructing it attaches and starts them, in the order they depend on
    each other; :meth:`finish` closes them over the run's traces.  Every
    subsystem is imported only when its field is set, so a run without
    them never loads it.
    """

    def __init__(
        self,
        machine: Paragon,
        fs: PFS,
        faults: Any = None,
        telemetry: Any = None,
        spans: Any = None,
        fidelity: str = "event",
    ):
        self.spans = normalize_spans(spans)
        if self.spans is not None:
            # Attach before the injector starts so its FaultRecorder
            # picks up the span handle from machine.spans.
            self.spans.attach(machine, fs)
        self.injector = None
        if faults is not None and not faults.empty:
            from ..faults.inject import FaultInjector

            self.injector = FaultInjector(machine, faults, fs=fs).start()
        if fidelity == "fluid" and self.injector is None:
            # An active injector forces event fidelity: the closed form
            # cannot price a machine whose health changes.
            from ..sim.fluid import FluidServicer

            fs.fluid = FluidServicer(fs)
        self.telemetry = normalize_telemetry(telemetry)
        if self.telemetry is not None:
            self.telemetry.attach(machine, fs)
            self.telemetry.start()
            self.telemetry.profiler.start("simulate")

    def finish(self, traces: dict[str, Trace]) -> None:
        """Close the run: append the fault recorder's FAULT / RETRY /
        DEGRADED rows to every trace (so each saved trace is
        self-describing about the faults it ran under), then finalize
        telemetry and seal the spans."""
        if self.injector is not None:
            self.injector.finalize()
            rows = self.injector.recorder.rows
            if rows:
                for trace in traces.values():
                    trace.extend(rows)
        if self.telemetry is not None:
            self.telemetry.profiler.stop("simulate")
            self.telemetry.finalize(traces.values())
        if self.spans is not None:
            self.spans.seal(traces)


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    machine: Paragon
    fs: PFS
    traces: dict[str, Trace]
    #: The application skeleton (None for the multi-program htf pipeline).
    app: Any = None
    #: The FaultInjector when the run injected faults (None otherwise).
    injector: Any = None
    #: The finalized Telemetry runtime when the run sampled metrics
    #: (None otherwise).
    telemetry: Any = None
    #: The finalized SpanRecorder when the run recorded causal spans
    #: (None otherwise).
    spans: Any = None

    @property
    def trace(self) -> Trace:
        """The single trace (single-program experiments)."""
        if len(self.traces) != 1:
            raise ValueError(f"experiment produced {len(self.traces)} traces; pick one")
        return next(iter(self.traces.values()))


@dataclass
class Experiment:
    """Declarative description of one run.

    Parameters
    ----------
    app:
        'escat', 'render', 'htf', 'checkpoint' or 'trace' (replay an
        ingested trace, see :mod:`repro.apps.trace`).
    config:
        Application workload config; None = the paper's run.
    machine_factory:
        Builds the machine; defaults to the paper's 128-node partition.
    filesystem:
        'pfs' (Intel PFS model) or 'ppfs' (policy engine).
    policies:
        PPFS policies (filesystem='ppfs' only).
    costs:
        Cost-model override (None = calibrated defaults).
    faults:
        Optional :class:`repro.faults.FaultPlan`; a None or empty plan
        injects nothing and leaves the run byte-identical to a fault-free
        build.
    telemetry:
        Optional live observability: ``True`` (default cadence), a
        cadence in simulated seconds, or a prepared
        :class:`repro.telemetry.Telemetry`.  ``None`` (the default)
        installs nothing, and the hot paths pay one attribute check.
        Sampling is read-only, so traces are byte-identical either way.
    burst_buffer:
        Optional host-side burst-buffer tier: ``True`` (default
        parameters), a capacity in bytes, a
        :class:`repro.machine.BurstBufferParams`, or a dict of its
        fields.  ``None`` (the default) attaches nothing — the data path
        then pays one attribute check, and traces stay golden.
    fidelity:
        ``'event'`` (the default: every request is a discrete event,
        byte-identical traces) or ``'fluid'`` (regular phases priced in
        closed form by :class:`repro.sim.fluid.FluidServicer`, falling
        back to discrete wherever policies interact — approximate by
        contract, see ``docs/PERFORMANCE.md``).  Fault plans force
        event fidelity: no servicer is attached when an injector runs.
    spans:
        Optional causal request tracing: ``True`` or a prepared
        :class:`repro.spans.SpanRecorder`.  ``None`` (the default)
        installs nothing — every hook site then pays one attribute
        check.  Recording is read-only, so traces are byte-identical
        either way (the golden-hash tests enforce it).
    """

    app: str
    config: Any = None
    machine_factory: Callable[[], Paragon] = paper_machine
    filesystem: str = "pfs"
    policies: Optional[PPFSPolicies] = None
    costs: Optional[CostModel] = None
    capture_overhead_s: float = 0.0
    observers: list = field(default_factory=list)
    faults: Any = None
    telemetry: Any = None
    burst_buffer: Any = None
    fidelity: str = "event"
    spans: Any = None

    def __post_init__(self) -> None:
        if self.app not in _PROGRAMS:
            raise ValueError(f"unknown app {self.app!r}; pick from {sorted(_PROGRAMS)}")
        check_filesystem(self.filesystem, self.policies)
        self.fidelity = self.fidelity or "event"
        if self.fidelity not in ("event", "fluid"):
            raise ValueError(
                f"fidelity must be event/fluid, got {self.fidelity!r}"
            )

    def build_fs(self, machine: Paragon) -> PFS:
        """The configured (uninstrumented) file system."""
        return build_filesystem(machine, self.filesystem, self.policies, self.costs)

    def run(self) -> ExperimentResult:
        """Execute the experiment; returns traces keyed by program name."""
        config_type, programs = _PROGRAMS[self.app]
        config = self.config if self.config is not None else config_type()
        if not isinstance(config, config_type):
            raise TypeError(
                f"{self.app} needs {config_type.__name__}, got {type(config).__name__}"
            )
        telemetry = normalize_telemetry(self.telemetry)
        profiler = telemetry.profiler if telemetry is not None else None

        if profiler is not None:
            profiler.start("build.machine")
        machine = build_machine(self.machine_factory, self.burst_buffer)
        if profiler is not None:
            profiler.stop("build.machine")
            profiler.start("build.fs")
        fs = self.build_fs(machine)
        if profiler is not None:
            profiler.stop("build.fs")

        attached = RunAttachments(
            machine, fs, faults=self.faults, telemetry=telemetry,
            spans=self.spans, fidelity=self.fidelity,
        )
        traces: dict[str, Trace] = {}
        for key, program in programs:
            instrumented = InstrumentedPFS(fs, overhead_s=self.capture_overhead_s)
            for obs in self.observers:
                instrumented.add_observer(obs)
            application = program(machine=machine, fs=instrumented, config=config)
            traces[key] = application.run()
        attached.finish(traces)
        return ExperimentResult(
            machine, fs, traces,
            app=application if len(programs) == 1 else None,
            injector=attached.injector, telemetry=attached.telemetry,
            spans=attached.spans,
        )
