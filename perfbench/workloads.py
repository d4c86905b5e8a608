"""The benchmark's workloads, the op it times, and the checks on its output.

One op is what ``repro run`` does for a user: build the experiment from a
:class:`repro.campaign.spec.RunSpec`, run it, and render a
:class:`repro.analysis.report.CharacterizationReport` for every trace.

The simulator is deterministic per seed, so every op of one invocation
does identical work and must produce identical traces.  ``repro`` is
imported inside the functions that need it: the orchestrating process
(``run.py``) never loads the simulator, and the set-up probe measures the
import itself.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Optional

__all__ = [
    "WORKLOADS",
    "Workload",
    "check_op_counts",
    "check_pinned",
    "fluid_error",
    "layer_counts",
    "make_spec",
    "median",
    "paper_error",
    "paper_table",
    "run_op",
    "span_count",
    "summarize",
    "table_rows",
    "tail",
]

#: What every paper-scale ESCAT op must reproduce exactly, whatever the
#: seed and file system: Table 1's counts (Seek counts every seek call,
#: 13,312, where the paper's 12,034 counted fewer), and the simulated
#: Read/Write volumes, which are Table 1's to within 1e-5.
ESCAT_PINNED = {
    "escat": {
        "Read": (560, 34_225_803),
        "Write": (13_330, 26_757_082),
        "Seek": (13_312, None),
        "Open": (262, None),
        "Close": (262, None),
    }
}

#: The fluid-fidelity contract: makespan within 2% of event fidelity.
FLUID_ERR_LIMIT = 0.02


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``spec`` holds the :class:`RunSpec` fields besides scale and seed;
    ``paper`` the module of the repo's paper-table benchmarks whose
    ``PAPER`` dict its accuracy is measured against, and
    ``paper_program`` the program that dict describes when it is not
    keyed by program (see :func:`paper_table`); ``lazy_modules`` the
    subsystems this configuration imports on first use (part of
    set-up); ``pinned`` exact per-row (count, volume) values every
    paper-scale op must reproduce; ``reference`` the RunSpec
    fields of the event-fidelity run a fluid workload is checked
    against (run once per invocation, outside timing and set-up).
    """

    name: str
    why: str
    spec: dict[str, Any]
    paper: str
    paper_program: Optional[str] = None
    lazy_modules: tuple[str, ...] = ()
    pinned: Optional[dict] = None
    reference: Optional[dict[str, Any]] = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="escat-pfs-event",
            why="ESCAT write/seek bursts on Intel PFS in discrete events: "
            "kernel, PFS client, striping, I/O node and Pablo capture carry the load",
            spec=dict(app="escat", fs="pfs"),
            paper="benchmarks.bench_table1_escat_ops",
            paper_program="escat",
            pinned=ESCAT_PINNED,
        ),
        Workload(
            name="htf-pfs-fluid",
            why="read-dominated HTF priced in closed form: fluid solver, disk "
            "pricing and a 71k-row analysis; bypasses most of the event kernel",
            spec=dict(app="htf", fs="pfs", fidelity="fluid"),
            lazy_modules=("repro.sim.fluid",),
            paper="benchmarks.bench_table5_htf_ops",
            reference=dict(app="htf", fs="pfs"),
        ),
        Workload(
            name="escat-ppfs-observed",
            why="same ESCAT trace under PPFS write-behind + aggregation with "
            "spans and telemetry on: isolates ppfs and in-program instrumentation",
            spec=dict(
                app="escat", fs="ppfs", policy="escat_tuned",
                spans=True, telemetry=1.0,
            ),
            lazy_modules=("repro.spans", "repro.telemetry"),
            paper="benchmarks.bench_table1_escat_ops",
            paper_program="escat",
            pinned=ESCAT_PINNED,
        ),
    )
}


def paper_table(workload: Workload) -> dict[str, dict[str, tuple]]:
    """The paper's rows for ``workload``: program -> label -> (count,
    volume in bytes, node time in s).

    They are read from the ``PAPER`` dict of the repo's paper-table
    benchmark (``benchmarks/bench_table1_escat_ops.py`` for Table 1,
    ``benchmarks/bench_table5_htf_ops.py`` for Table 5), without its
    "All I/O" totals, which sum the other rows.  Importing it imports
    ``repro``.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.append(root)
    paper = importlib.import_module(workload.paper).PAPER
    if workload.paper_program is not None:
        paper = {workload.paper_program: paper}
    return {
        program: {label: row for label, row in rows.items() if label != "All I/O"}
        for program, rows in paper.items()
    }


def make_spec(workload: Workload, seed: int, scale: str = "paper",
              fields: Optional[dict] = None):
    """The RunSpec of one op (or of the reference run, via ``fields``)."""
    from repro.campaign.spec import RunSpec

    return RunSpec(scale=scale, seed=seed, **(fields or workload.spec))


def run_op(spec) -> tuple[Any, int, int]:
    """One op: simulate, then characterize every trace.

    Returns ``(result, simulate_ns, analyse_ns)``.  The rendered reports
    are built inside the timed region and dropped after it.
    """
    from time import perf_counter_ns

    from repro.analysis.report import CharacterizationReport

    t0 = perf_counter_ns()
    result = spec.build_experiment().run()
    t1 = perf_counter_ns()
    reports = [CharacterizationReport(t).render() for t in result.traces.values()]
    t2 = perf_counter_ns()
    if not all(reports):
        raise RuntimeError("empty characterization report")
    return result, t1 - t0, t2 - t1


# -- output summaries -------------------------------------------------------------
def summarize(result) -> dict[str, Any]:
    """What one op produced, as plain data: per program the trace content
    hash and per-op-type (count, bytes); the simulated makespan; rows."""
    import numpy as np

    from repro.pablo.events import Op

    programs = {}
    for name, trace in result.traces.items():
        ev = trace.events
        codes = ev["op"].astype(np.int64)
        counts = np.bincount(codes)
        nbytes = np.zeros(len(counts), dtype=np.int64)
        np.add.at(nbytes, codes, ev["nbytes"].astype(np.int64))
        programs[name] = {
            "hash": trace.content_hash(),
            "ops": {
                Op(code).name: [int(counts[code]), int(nbytes[code])]
                for code in np.flatnonzero(counts)
            },
        }
    return {
        "programs": programs,
        "makespan_s": float(result.machine.env.now),
        "rows": int(sum(len(t) for t in result.traces.values())),
    }


def table_rows(result, paper: dict) -> dict[str, dict[str, list]]:
    """``OperationTable`` rows named by ``paper``: program -> label ->
    [count, volume, node time in s]."""
    from repro.analysis import OperationTable

    out = {}
    for program, rows in paper.items():
        table = OperationTable(result.traces[program])
        out[program] = {}
        for label in rows:
            row = table.row(label)
            out[program][label] = [row.count, row.volume, row.node_time_s]
    return out


def layer_counts(result) -> dict[str, float]:
    """Per-layer work counters read from the finished run's state.

    These need no tracing, so the untraced run reports them and the
    traced run must reproduce them exactly.
    """
    machine, fs = result.machine, result.fs
    ionodes = machine.ionodes
    fluid = getattr(fs, "fluid", None)
    solved = fluid.phases_solved if fluid is not None else 0
    declined = fluid.phases_declined if fluid is not None else 0
    cache = fs.cache_stats() if hasattr(fs, "cache_stats") else None
    wb = getattr(fs, "writeback", None)
    telemetry = result.telemetry
    rows = sum(len(t) for t in result.traces.values())
    return {
        "sim.core.events": machine.env._seq,
        "pablo.capture.rows": rows,
        "machine.ionode.requests": sum(i.requests_served for i in ionodes),
        "machine.ionode.bytes": sum(i.bytes_served for i in ionodes),
        "machine.ionode.busy_sim_s": math.fsum(i.busy_time for i in ionodes),
        "machine.ionode.scalar_nodes": sum(1 for i in ionodes if not i._eager),
        "machine.disk.seek_bytes": sum(i.array._arm.seek_bytes for i in ionodes),
        "sim.fluid.phases_solved": solved,
        "sim.fluid.phases_declined": declined,
        "sim.fluid.solved_ratio": solved / (solved + declined) if solved + declined else 0.0,
        "sim.fluid.ops_serviced": fluid.ops_serviced if fluid is not None else 0,
        "ppfs.cache.hit_ratio": cache.hit_rate if cache is not None else 0.0,
        "ppfs.writebehind.writes": wb.writes_submitted if wb is not None else 0,
        "ppfs.writebehind.transfers": wb.transfers_issued if wb is not None else 0,
        "ppfs.writebehind.aggregation_factor": wb.aggregation_factor if wb is not None else 0.0,
        "telemetry.samples": len(telemetry.series) if telemetry is not None else 0,
        "analysis.rows": rows,
    }


def span_count(result) -> int:
    """Causal spans the run recorded (finalizes the recorder's store)."""
    return len(result.spans.store) if result.spans is not None else 0


# -- checks -----------------------------------------------------------------------
def check_pinned(rows: dict, pinned: dict) -> list[str]:
    """Problems where table rows differ from pinned (count, volume)."""
    problems = []
    for program, expected in pinned.items():
        for label, (count, volume) in expected.items():
            got_count, got_volume, _ = rows[program][label]
            if got_count != count:
                problems.append(f"{program} {label} count {got_count:,} != {count:,}")
            if volume is not None and got_volume != volume:
                problems.append(f"{program} {label} volume {got_volume:,} != {volume:,}")
    return problems


def check_op_counts(summary: dict, reference: dict) -> list[str]:
    """Problems where per-program, per-op-type (count, bytes) differ."""
    problems = []
    for program, ref in reference["programs"].items():
        got = summary["programs"].get(program)
        if got is None:
            problems.append(f"program {program} missing")
        elif got["ops"] != ref["ops"]:
            problems.append(f"{program} op counts/bytes {got['ops']} != {ref['ops']}")
    return problems


# -- accuracy ---------------------------------------------------------------------
def paper_error(rows: dict, paper: dict) -> float:
    """Mean over the paper's rows of |sim - paper| / paper node time."""
    errors = [
        abs(rows[program][label][2] - node_time) / node_time
        for program, table in paper.items()
        for label, (_, _, node_time) in table.items()
    ]
    return math.fsum(errors) / len(errors)


def fluid_error(fluid_makespan_s: float, event_makespan_s: float) -> float:
    """|fluid - event| / event simulated makespan."""
    return abs(fluid_makespan_s - event_makespan_s) / event_makespan_s


# -- sample statistics ------------------------------------------------------------
def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """The highest sample with at least ``beyond`` samples above it, and
    its percentile rank.  With ``beyond`` or fewer samples none has, and
    the smallest sample is returned."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    idx = max(n - 1 - beyond, 0)
    return ordered[idx], 100.0 * (idx + 1) / n
