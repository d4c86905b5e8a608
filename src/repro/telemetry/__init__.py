"""Live observability for the simulated I/O stack.

The paper's methodology was instrumentation — Pablo's event traces made
Intel PFS behaviour visible.  ``repro.pablo`` reproduces the *post-hoc*
side of that; this package adds the *live* side modern parallel-I/O
tooling expects: a registry of labeled counters/gauges/histograms, a
cadenced sampler that snapshots every layer's state (I/O-node queues,
RAID health, mesh traffic, cache occupancy, write-behind backlog,
prefetch in-flight) into a columnar time series, a wall-clock
self-profiler, and JSONL/CSV/Prometheus exporters.

Telemetry is strictly opt-in and pull-only: it installs nothing into
the simulator.  ``pfs.*`` counters are derived from the Pablo traces at
finalize, everything else is read from statistics the components keep
anyway, so enabling it perturbs nothing the application can observe —
traces stay byte-identical either way.

    from repro import paper_experiment
    from repro.telemetry import Telemetry

    telem = Telemetry(cadence_s=5.0)
    result = paper_experiment("escat", telemetry=telem).run()
    print(result.telemetry.summary())
"""

from .export import (
    from_jsonl,
    load_jsonl,
    series_from_csv,
    series_to_csv,
    to_jsonl,
    to_prometheus,
)
from .profiler import RunProfiler
from .registry import Counter, Gauge, Histogram, MetricsRegistry, NBUCKETS
from .report import chartable_columns, render_chart, render_report
from .runtime import DEFAULT_CADENCE_S, Telemetry
from .sampler import Sampler
from .series import TimeSeries

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NBUCKETS",
    "TimeSeries",
    "Sampler",
    "RunProfiler",
    "Telemetry",
    "DEFAULT_CADENCE_S",
    "to_jsonl",
    "from_jsonl",
    "load_jsonl",
    "series_to_csv",
    "series_from_csv",
    "to_prometheus",
    "render_report",
    "render_chart",
    "chartable_columns",
]
