"""Host-time span tracing of the simulator's layers, from outside the program.

The traced run patches each layer's public entry points (plus the few
kernel callbacks through which a layer's work re-enters from the event
loop) with span recorders.  Nothing under ``src/`` knows about it: the
patches are installed on the classes for the traced phase and removed
afterwards.

A span is one uninterrupted stretch of host time inside an entry point:

* a plain call is one span, from call to return;
* a generator entry point (the simulator's process-style operations)
  is one span per *resume* (``send``/``throw``).  Creating the generator
  costs nothing worth timing, and the time it spends suspended belongs
  to whoever runs in between -- usually the kernel's event loop.

Spans record name, start, end and parent (the span open when it began)
in flat arrays, one log per op; the op itself is the root span.  Times
are integer nanoseconds, so a span's *self time* -- its duration minus
the part its child spans cover -- tiles the op exactly: the layers' self
times plus the root's own (unattributed) time sum to the op's wall time
with no rounding at all.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

__all__ = [
    "ENTRY_POINTS",
    "LAYERS",
    "OpSpans",
    "Tracer",
    "layer_seconds",
    "patch_layers",
    "self_times",
    "wrap",
]

#: Layers in report order.  ``op`` is the root span: time inside an op
#: that no wrapped entry point covers (experiment assembly, app object
#: construction) is reported as unattributed.
LAYERS = (
    "op",
    "build",
    "sim.core",
    "pablo.capture",
    "pfs",
    "ppfs",
    "ppfs.writebehind",
    "sim.fluid",
    "machine.ionode",
    "machine.disk",
    "machine.mesh",
    "telemetry",
    "spans",
    "analysis",
)


def _n_items(_args, result) -> int:
    """Chunks returned by ``StripeLayout.decompose``."""
    return len(result)


def _batch_chunks(_args, result) -> int:
    """Chunks returned by ``StripeLayout.decompose_batch``."""
    return len(result[1])


def _batch_rows(args, _result) -> int:
    """Requests priced by one ``service_batch`` call (``self, offsets, ...``)."""
    return len(args[1])


#: (layer, module, class, method, counted-items function or None).
#: Methods starting with ``_`` are the kernel callbacks through which a
#: layer's work re-enters from the event loop; without them that work
#: would read as ``sim.core`` self time.  Entry points missing from the
#: program (renamed or deleted by a later change) are skipped and listed
#: in the report, not treated as errors.
ENTRY_POINTS: tuple[tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("build", "repro.machine.paragon", "Paragon", "__init__", None),
    ("build", "repro.core.experiment", "Experiment", "build_fs", None),
    ("sim.core", "repro.sim.core", "Environment", "run", None),
    *(
        ("pablo.capture", "repro.pablo.capture", "InstrumentedPFS", m, None)
        for m in ("open", "close", "read", "write", "seek", "lsize", "flush",
                  "aread", "iowait", "setiomode")
    ),
    ("pablo.capture", "repro.pablo.trace", "Trace", "add", None),
    *(
        ("pfs", "repro.pfs.filesystem", "PFS", m, None)
        for m in ("open", "close", "read", "write", "seek", "lsize", "flush",
                  "aread", "iowait", "setiomode", "unlink", "rename")
    ),
    ("pfs", "repro.pfs.striping", "StripeLayout", "decompose", _n_items),
    ("pfs", "repro.pfs.striping", "StripeLayout", "decompose_batch", _batch_chunks),
    *(
        ("ppfs", "repro.ppfs.server", "PPFS", m, None)
        for m in ("read", "write", "seek", "close")
    ),
    *(
        ("ppfs.writebehind", "repro.ppfs.writebehind", "WriteBehindManager", m, None)
        for m in ("submit", "flush_file", "drain_file", "drain_all",
                  "_start_runs", "_interval_flush")
    ),
    ("sim.fluid", "repro.sim.fluid", "FluidServicer", "enroll", None),
    ("sim.fluid", "repro.sim.fluid", "FluidServicer", "_solve", None),
    *(
        ("machine.ionode", "repro.machine.ionode", "IONode", m, None)
        for m in ("submit", "submit_batch", "submit_control", "serve", "visit",
                  "_serve_next", "_service_done", "_eager_done")
    ),
    ("machine.disk", "repro.machine.raid", "Raid3Array", "service_time", None),
    ("machine.disk", "repro.machine.raid", "Raid3Array", "service_batch", _batch_rows),
    ("machine.disk", "repro.machine.disk", "Disk", "service_time", None),
    ("machine.disk", "repro.machine.disk", "Disk", "service_batch", None),
    *(
        ("machine.mesh", "repro.machine.mesh", "Mesh", m, None)
        for m in ("message_time", "broadcast_time", "gather_time",
                  "transfer", "broadcast", "gather")
    ),
    *(
        ("telemetry", "repro.telemetry.runtime", "Telemetry", m, None)
        for m in ("attach", "start", "finalize", "_sample")
    ),
    *(
        ("spans", "repro.spans.record", "SpanRecorder", m, None)
        for m in ("attach", "seal", "finalize")
    ),
    ("analysis", "repro.analysis.report", "CharacterizationReport", "__post_init__", None),
    ("analysis", "repro.analysis.report", "CharacterizationReport", "render", None),
)


@dataclass
class OpSpans:
    """One op's spans, reduced to per-layer self time.

    ``layer_self_ns`` is indexed like :data:`LAYERS`; its ``op`` entry is
    the unattributed time.  ``calls``/``items`` count entry-point calls
    and counted items by span name.
    """

    op_id: int
    wall_ns: int
    n_spans: int
    layer_self_ns: list[int]
    calls: dict[str, int]
    items: dict[str, int]
    tiling_error_ns: int
    min_self_ns: int

    @property
    def tiles(self) -> bool:
        """Self times are non-negative and sum exactly to the wall time."""
        return self.tiling_error_ns == 0 and self.min_self_ns >= 0


@dataclass
class Tracer:
    """Span store and span-name table for one traced run.

    Span names are interned: ``names[i]`` is ``"layer:Class.method"`` and
    ``layer_of[i]`` its index in :data:`LAYERS`.  The arrays hold the
    current op's spans; :meth:`end_op` reduces and clears them, so memory
    stays bounded by one op however long the run.
    """

    names: list[str] = field(default_factory=lambda: ["op"])
    layer_of: list[int] = field(default_factory=lambda: [0])
    name: array = field(default_factory=lambda: array("H"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("q"))
    end: array = field(default_factory=lambda: array("q"))
    stack: list[int] = field(default_factory=list)
    calls: list[int] = field(default_factory=lambda: [0])
    items: list[int] = field(default_factory=lambda: [0])
    op_id: int = -1
    #: Columns of the last completed op (see :meth:`arrays`).
    last: Optional[dict] = None

    def intern(self, layer: str, label: str) -> int:
        """Register a span name; returns its id."""
        self.names.append(f"{layer}:{label}")
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.items.append(0)
        return len(self.names) - 1

    # -- recording ---------------------------------------------------------
    def open(self, nid: int) -> int:
        """Open a span named ``nid`` under the innermost open span.

        Outside an op (between :meth:`end_op` and :meth:`begin_op`)
        nothing is recorded and -1 is returned.
        """
        stack = self.stack
        if not stack:
            return -1
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1])
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        if idx < 0:
            return
        self.end[idx] = time.perf_counter_ns()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} was innermost")

    def begin_op(self, op_id: int) -> None:
        """Open the root span of op ``op_id``."""
        if self.stack:
            raise RuntimeError("begin_op inside an open op")
        self.op_id = op_id
        for counter in (self.calls, self.items):
            counter[:] = [0] * len(counter)
        self.name.append(0)
        self.parent.append(-1)
        self.end.append(0)
        self.stack.append(0)
        self.start.append(time.perf_counter_ns())

    def end_op(self) -> OpSpans:
        """Close the root span, reduce the op's spans, clear the log."""
        self.close(0)
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans left open at end of op")
        self.last = self.arrays()
        reduced = self.reduce(self.last)
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        return reduced

    # -- reduction ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The current op's spans as columns (for writing out)."""
        return {
            "op_id": np.full(len(self.start), self.op_id, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def reduce(self, cols: dict[str, np.ndarray]) -> OpSpans:
        self_ns = self_times(cols["parent"], cols["start_ns"], cols["end_ns"])
        layer_idx = np.asarray(self.layer_of, dtype=np.int64)[cols["name"]]
        per_layer = np.zeros(len(LAYERS), dtype=np.int64)
        np.add.at(per_layer, layer_idx, self_ns)
        wall = int(cols["end_ns"][0] - cols["start_ns"][0])
        return OpSpans(
            op_id=self.op_id,
            wall_ns=wall,
            n_spans=len(self_ns),
            layer_self_ns=[int(v) for v in per_layer],
            calls={n: c for n, c in zip(self.names, self.calls) if c},
            items={n: c for n, c in zip(self.names, self.items) if c},
            tiling_error_ns=int(per_layer.sum()) - wall,
            min_self_ns=int(self_ns.min()),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Span 0 is the root (``parent[0] == -1``).  A child's coverage is its
    interval clipped to the parent's, so a child that escapes its parent
    is caught by the tiling check instead of silently shrinking the sum.
    Integer arithmetic throughout: the result is exact.
    """
    dur = end - start
    covered = np.zeros(len(dur), dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    if len(child):
        par = parent[child]
        overlap = np.minimum(end[child], end[par]) - np.maximum(start[child], start[par])
        np.add.at(covered, par, np.maximum(overlap, 0))
    return dur - covered


# -- wrappers -------------------------------------------------------------------
def _timed_generator(tracer: Tracer, nid: int, gen):
    """Delegate to ``gen``, recording one span per resume."""
    open_, close = tracer.open, tracer.close
    send, throw = gen.send, gen.throw
    value: Any = None
    exc: Optional[BaseException] = None
    while True:
        idx = open_(nid)
        try:
            yielded = send(value) if exc is None else throw(exc)
        except StopIteration as stop:
            close(idx)
            return stop.value
        except BaseException:
            close(idx)
            raise
        close(idx)
        try:
            value = yield yielded
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into gen on next resume
            value, exc = None, thrown


def wrap(tracer: Tracer, nid: int, fn: Callable, count_items: Optional[Callable] = None):
    """A drop-in replacement for ``fn`` that records spans under ``nid``."""
    calls, items = tracer.calls, tracer.items
    if inspect.isgeneratorfunction(fn):
        def traced_gen(*args, **kwargs):
            calls[nid] += 1
            return _timed_generator(tracer, nid, fn(*args, **kwargs))

        traced_gen.__wrapped__ = fn
        return traced_gen

    open_, close = tracer.open, tracer.close

    def traced(*args, **kwargs):
        calls[nid] += 1
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if count_items is not None:
            items[nid] += count_items(args, result)
        return result

    traced.__wrapped__ = fn
    return traced


class patch_layers:
    """Context manager: install span wrappers on every entry point.

    ``missing`` lists the entry points the program does not have.
    """

    def __init__(self, tracer: Tracer, entry_points=ENTRY_POINTS):
        self.tracer = tracer
        self.entry_points = entry_points
        self.saved: list[tuple[type, str, Any]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "patch_layers":
        for layer, module, cls_name, method, count_items in self.entry_points:
            label = f"{cls_name}.{method}"
            cls = getattr(importlib.import_module(module), cls_name, None)
            fn = None if cls is None else cls.__dict__.get(method)
            if not inspect.isfunction(fn):
                self.missing.append(f"{module}.{label}")
                continue
            nid = self.tracer.intern(layer, label)
            self.saved.append((cls, method, fn))
            setattr(cls, method, wrap(self.tracer, nid, fn, count_items))
        return self

    def __exit__(self, *exc_info) -> None:
        while self.saved:
            cls, method, fn = self.saved.pop()
            setattr(cls, method, fn)


def layer_seconds(op: OpSpans) -> dict[str, float]:
    """Per-layer self seconds of one op, keyed by layer name."""
    return {layer: ns / 1e9 for layer, ns in zip(LAYERS, op.layer_self_ns)}
