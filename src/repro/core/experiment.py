"""Experiment harness: application x machine x file system -> trace(s).

One declarative record (:class:`Experiment`) names everything a run
needs; ``run()`` assembles the machine, file system (PFS or PPFS with
policies), Pablo instrumentation and application skeleton, executes the
simulation and returns the trace(s) plus handles for deeper inspection.
This is the entry point the benches, examples and tests share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..apps.checkpoint import Checkpoint, CheckpointConfig
from ..apps.escat import Escat, EscatConfig
from ..apps.htf import HartreeFock, HTFConfig, HTFResult
from ..apps.render import Render, RenderConfig
from ..apps.trace import TraceReplay, TraceReplayConfig
from ..apps.workloads import (
    paper_checkpoint,
    paper_escat,
    paper_htf,
    paper_machine,
    paper_render,
    paper_trace,
)
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

_APP_DEFAULTS: dict[str, Callable[[], Any]] = {
    "escat": paper_escat,
    "render": paper_render,
    "htf": paper_htf,
    "checkpoint": paper_checkpoint,
    "trace": paper_trace,
}


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    machine: Paragon
    fs: PFS
    traces: dict[str, Trace]
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
        if self.app not in _APP_DEFAULTS:
            raise ValueError(f"unknown app {self.app!r}; pick from {sorted(_APP_DEFAULTS)}")
        if self.filesystem not in ("pfs", "ppfs"):
            raise ValueError(f"filesystem must be pfs/ppfs, got {self.filesystem!r}")
        if self.policies is not None and self.filesystem != "ppfs":
            raise ValueError("policies require filesystem='ppfs'")
        self.fidelity = self.fidelity or "event"
        if self.fidelity not in ("event", "fluid"):
            raise ValueError(
                f"fidelity must be event/fluid, got {self.fidelity!r}"
            )

    def build_fs(self, machine: Paragon) -> PFS:
        """The configured (uninstrumented) file system."""
        if self.filesystem == "ppfs":
            return PPFS(machine, policies=self.policies, costs=self.costs)
        return PFS(machine, costs=self.costs)

    def _build_telemetry(self) -> Any:
        """Normalize the ``telemetry`` field into a Telemetry or None."""
        return normalize_telemetry(self.telemetry)

    def _build_burst_buffer(self) -> Any:
        """Normalize the ``burst_buffer`` field into params or None."""
        return normalize_burst_buffer(self.burst_buffer)

    def run(self) -> ExperimentResult:
        """Execute the experiment; returns traces keyed by program name."""
        telemetry = self._build_telemetry()
        profiler = telemetry.profiler if telemetry is not None else None

        if profiler is not None:
            profiler.start("build.machine")
        machine = self.machine_factory()
        bb_params = self._build_burst_buffer()
        if bb_params is not None and machine.burstbuffer is None:
            # Attach the tier before the file system is built (the fs
            # picks up machine.burstbuffer in its constructor).
            from ..machine.burstbuffer import BurstBuffer

            machine.burstbuffer = BurstBuffer(machine.env, bb_params)
        if profiler is not None:
            profiler.stop("build.machine")
            profiler.start("build.fs")
        fs = self.build_fs(machine)
        if profiler is not None:
            profiler.stop("build.fs")
        config = self.config if self.config is not None else _APP_DEFAULTS[self.app]()

        recorder = normalize_spans(self.spans)
        if recorder is not None:
            # Attach before the injector starts so its FaultRecorder
            # picks up the span handle from machine.spans.
            recorder.attach(machine, fs)

        injector = None
        if self.faults is not None and not self.faults.empty:
            # Imported here so fault-free builds never touch the subsystem.
            from ..faults.inject import FaultInjector

            injector = FaultInjector(machine, self.faults, fs=fs).start()

        if self.fidelity == "fluid" and injector is None:
            # Imported here so event-fidelity builds never touch the
            # subsystem.  An active injector forces event fidelity: the
            # closed form cannot price a machine whose health changes.
            from ..sim.fluid import FluidServicer

            fs.fluid = FluidServicer(fs)

        if telemetry is not None:
            telemetry.attach(machine, fs)
            telemetry.start()
            profiler.start("simulate")

        if self.app == "htf":
            if not isinstance(config, HTFConfig):
                raise TypeError(f"htf needs HTFConfig, got {type(config).__name__}")
            result: HTFResult = HartreeFock(machine, fs, config).run()
            traces = result.programs()
            self._append_resilience(injector, traces)
            if telemetry is not None:
                profiler.stop("simulate")
                telemetry.finalize(traces.values())
            if recorder is not None:
                recorder.seal(traces)
            return ExperimentResult(
                machine, fs, traces, injector=injector, telemetry=telemetry,
                spans=recorder,
            )

        instrumented = InstrumentedPFS(fs, overhead_s=self.capture_overhead_s)
        for obs in self.observers:
            instrumented.add_observer(obs)
        if self.app == "escat":
            if not isinstance(config, EscatConfig):
                raise TypeError(f"escat needs EscatConfig, got {type(config).__name__}")
            application = Escat(machine=machine, fs=instrumented, config=config)
        elif self.app == "checkpoint":
            if not isinstance(config, CheckpointConfig):
                raise TypeError(
                    f"checkpoint needs CheckpointConfig, got {type(config).__name__}"
                )
            application = Checkpoint(machine=machine, fs=instrumented, config=config)
        elif self.app == "trace":
            if not isinstance(config, TraceReplayConfig):
                raise TypeError(
                    f"trace needs TraceReplayConfig, got {type(config).__name__}"
                )
            application = TraceReplay(machine=machine, fs=instrumented, config=config)
        else:
            if not isinstance(config, RenderConfig):
                raise TypeError(f"render needs RenderConfig, got {type(config).__name__}")
            application = Render(machine=machine, fs=instrumented, config=config)
        trace = application.run()
        traces = {self.app: trace}
        self._append_resilience(injector, traces)
        if telemetry is not None:
            profiler.stop("simulate")
            telemetry.finalize(traces.values())
        if recorder is not None:
            recorder.seal(traces)
        return ExperimentResult(
            machine, fs, traces, app=application, injector=injector,
            telemetry=telemetry, spans=recorder,
        )

    @staticmethod
    def _append_resilience(injector, traces: dict[str, Trace]) -> None:
        """Close degraded intervals and append the recorder's FAULT /
        RETRY / DEGRADED rows to every trace, so each saved trace is
        self-describing about the faults it ran under."""
        if injector is None:
            return
        injector.finalize()
        rows = injector.recorder.rows
        if rows:
            for trace in traces.values():
                trace.extend(rows)
