"""The repo benchmark: paper-scale characterization runs, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload escat-pfs-event --seed 1995 \\
        --seconds 30 --trace 0

One op is what ``repro run`` does: simulate one experiment at paper scale
and render the characterization report of every trace.  The load is a
closed loop with one client: one process, one thread, each op starting
when the previous report has rendered.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  Every op's output is checked; the last line of standard
output is a JSON object ``{"correct", "attempted", "failed", "metrics"}``
and the exit code is nonzero when any check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from calibration import scale_factor  # noqa: E402

#: Fresh interpreters timed per set-up measurement (after one untimed
#: probe that compiles bytecode and warms the file cache).
SETUP_RUNS = 15
#: Hard limit on any one child process, on top of the measuring time.
CHILD_TIMEOUT_S = 120

#: End-to-end metrics: name -> (unit, better).  fail_frac and fluid_err
#: are printed too; see README.md for why they are not listed here.
END_TO_END = {
    "run_s": ("s", "lower"),
    "run_tail_s": ("s", "lower"),
    "io_ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "paper_err": ("ratio", "lower"),
}

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "sim.core.events": ("count", "lower"),
    "sim.core.self_s": ("s", "lower"),
    "sim.core.us_per_event": ("us", "lower"),
    "pfs.calls": ("count", "lower"),
    "pfs.chunks": ("count", "lower"),
    "pfs.self_s": ("s", "lower"),
    "pablo.capture.rows": ("count", "lower"),
    "pablo.capture.self_s": ("s", "lower"),
    "machine.ionode.requests": ("count", "lower"),
    "machine.ionode.bytes": ("B", "lower"),
    "machine.ionode.busy_sim_s": ("sim_s", "lower"),
    "machine.ionode.scalar_nodes": ("count", "lower"),
    "machine.ionode.self_s": ("s", "lower"),
    "machine.disk.scalar_calls": ("count", "lower"),
    "machine.disk.batch_calls": ("count", "lower"),
    "machine.disk.batch_items": ("count", "higher"),
    "machine.disk.seek_bytes": ("B", "lower"),
    "machine.disk.self_s": ("s", "lower"),
    "machine.mesh.messages": ("count", "lower"),
    "machine.mesh.self_s": ("s", "lower"),
    "sim.fluid.phases_solved": ("count", "higher"),
    "sim.fluid.phases_declined": ("count", "lower"),
    "sim.fluid.solved_ratio": ("ratio", "higher"),
    "sim.fluid.ops_serviced": ("count", "higher"),
    "sim.fluid.self_s": ("s", "lower"),
    "sim.fluid.makespan_err": ("ratio", "lower"),
    "ppfs.cache.hit_ratio": ("ratio", "higher"),
    "ppfs.self_s": ("s", "lower"),
    "ppfs.writebehind.writes": ("count", "higher"),
    "ppfs.writebehind.transfers": ("count", "lower"),
    "ppfs.writebehind.aggregation_factor": ("ratio", "higher"),
    "ppfs.writebehind.self_s": ("s", "lower"),
    "telemetry.samples": ("count", "lower"),
    "telemetry.self_s": ("s", "lower"),
    "spans.count": ("count", "lower"),
    "spans.self_s": ("s", "lower"),
    "analysis.rows": ("count", "lower"),
    "analysis.self_s": ("s", "lower"),
    "analysis.us_per_row": ("us", "lower"),
    "build.self_s": ("s", "lower"),
    "unattributed.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


# -- child processes --------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # The benchmark measures the default engine paths.
    env.pop("REPRO_NO_BATCH", None)
    return env


def worker_cmd(mode: str, args, *extra: str) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, *extra,
    ]


def run_worker(cmd: list[str], timeout: float) -> dict:
    """Run a worker to completion; its last output line is JSON."""
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed it
        raise BenchError(f"worker timed out after {timeout:.0f} s: {cmd[2]}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {cmd[2]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def time_setup(args) -> dict[str, list[float]]:
    """Time ``SETUP_RUNS`` fresh interpreters.

    ``walls`` are the wall seconds from spawn until the first experiment
    is built, and ``calibrated`` the same times calibrated by the
    host-speed probe samples each probe took meanwhile.
    """
    walls, calibrated = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            worker_cmd("setup", args), env=child_env(), cwd=ROOT,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read().strip().splitlines()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready" or not rest:
            raise BenchError(f"set-up probe exited with code {code}")
        if i:  # the first probe compiles bytecode and warms caches
            probe = json.loads(rest[-1])
            walls.append(elapsed)
            calibrated.append(elapsed * scale_factor(elapsed, probe["ticks"], probe["after"]))
    return {"walls": walls, "calibrated": calibrated}


# -- checks -----------------------------------------------------------------------
def wrapper_counts(op: dict) -> dict[str, int]:
    """Per-layer work counts taken by the span wrappers of one traced op."""
    calls, items = op["calls"], op["items"]

    def c(name: str) -> int:
        return calls.get(name, 0)

    return {
        "pfs.calls": sum(v for k, v in calls.items() if k.startswith("pfs:PFS.")),
        "pfs.chunks": items.get("pfs:StripeLayout.decompose", 0)
        + items.get("pfs:StripeLayout.decompose_batch", 0),
        "machine.disk.scalar_calls": c("machine.disk:Raid3Array.service_time"),
        "machine.disk.batch_calls": c("machine.disk:Raid3Array.service_batch"),
        "machine.disk.batch_items": items.get("machine.disk:Raid3Array.service_batch", 0),
        "machine.mesh.messages": c("machine.mesh:Mesh.message_time")
        + c("machine.mesh:Mesh.broadcast_time") + c("machine.mesh:Mesh.gather_time"),
    }


def check(workload: W.Workload, scale: str, measured: dict,
          ref: Optional[dict]) -> tuple[list[bool], list[str], Optional[float]]:
    """Check every op.  Returns (per-op ok flags, problems, fluid_err).

    Every op must reproduce the first op's trace hashes and state
    counters exactly; the first op's output is checked against the
    pinned paper values and the reference run, so an op that matches it
    passes those checks too.  Traced ops must also tile exactly and take
    the same wrapper counts as the first traced op.
    """
    problems: list[str] = []
    phases = [measured["untraced"]] + ([measured["traced"]] if "traced" in measured else [])
    first_phase = phases[0]
    first_op = first_phase["ops"][0]
    output_ok = True
    if scale == "paper" and workload.pinned:
        found = W.check_pinned(first_phase["first"]["rows"], workload.pinned)
        problems += found
        output_ok &= not found
    fluid_err = None
    if ref is not None:
        found = W.check_op_counts(first_phase["first"]["summary"], ref)
        fluid_err = W.fluid_error(
            first_phase["first"]["summary"]["makespan_s"], ref["makespan_s"]
        )
        if fluid_err > W.FLUID_ERR_LIMIT:
            found.append(f"fluid_err {fluid_err:.4f} > {W.FLUID_ERR_LIMIT}")
        problems += found
        output_ok &= not found
    oks = []
    for phase in phases:
        for op in phase["ops"]:
            ok = output_ok
            if op["hashes"] != first_op["hashes"]:
                problems.append(f"op trace hashes differ from the first op's: {op['hashes']}")
                ok = False
            if op["counts"] != first_op["counts"]:
                problems.append("op layer counters differ from the first op's")
                ok = False
            if "tiles" in op:
                if not op["tiles"]:
                    problems.append(
                        f"traced op spans do not tile its wall time "
                        f"(error {op['tiling_error_ns']} ns)"
                    )
                    ok = False
                if wrapper_counts(op) != wrapper_counts(phase["ops"][0]):
                    problems.append("traced op wrapper counts differ from the first traced op's")
                    ok = False
            oks.append(ok)
    return oks, problems, fluid_err


# -- metrics ----------------------------------------------------------------------
def timed_ops(phase: dict) -> list[dict]:
    """The ops after the warm-up (all of them if there is only one)."""
    return phase["ops"][1:] or phase["ops"]


def op_seconds(op: dict, seconds: float) -> float:
    """``seconds`` measured during ``op``, calibrated to the reference host."""
    return seconds * op["factor"]


def end_to_end(measured: dict, setup: dict[str, list[float]]) -> tuple[dict, list[str]]:
    phase = measured["untraced"]
    ops = timed_ops(phase)
    walls = [op_seconds(op, op["wall_s"]) for op in ops]
    run_s = W.median(walls)
    tail_s, tail_pct = W.tail(walls)
    rows = phase["first"]["summary"]["rows"]
    setup_s = W.median(setup["calibrated"])
    raw_run = W.median(op["wall_s"] for op in ops)
    values = {
        "run_s": run_s,
        "run_tail_s": tail_s,
        "io_ops_per_s": rows / run_s,
        "setup_s": setup_s,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = {
        "run_s": f"median of {len(walls)} ops (after 1 warm-up); raw wall {raw_run:.4g} s, "
        f"median calibration factor {W.median(op['factor'] for op in ops):.3g}",
        "run_tail_s": f"p{tail_pct:.1f} of {len(walls)} ops (10 samples beyond it)",
        "io_ops_per_s": f"{rows:,} trace rows per op / run_s",
        "setup_s": f"median of {len(setup['walls'])} fresh interpreters; raw wall "
        f"{W.median(setup['walls']):.4g} s",
        "peak_rss_mb": "peak resident memory of the measuring process",
    }
    return values, [f"{k:<14} {values[k]:>14.6g} {END_TO_END[k][0]:<6} {notes[k]}"
                    for k in values]


def per_layer(measured: dict, fluid_err: Optional[float]) -> dict[str, float]:
    untraced, traced = measured["untraced"], measured["traced"]
    ops = timed_ops(traced)
    counts = dict(untraced["ops"][0]["counts"])
    counts.update(wrapper_counts(traced["ops"][0]))
    counts["spans.count"] = untraced["first"]["spans_count"]

    def self_s(layer: str) -> float:
        return W.median(op_seconds(op, op["layers_s"][layer]) for op in ops)

    def run_s(phase_ops: list[dict], key: str) -> float:
        return W.median(op_seconds(op, op[key]) for op in phase_ops)

    events = counts["sim.core.events"]
    simulate_s = run_s(timed_ops(untraced), "simulate_s")
    untraced_run = run_s(timed_ops(untraced), "wall_s")
    traced_run = run_s(ops, "wall_s")
    values = {
        **counts,
        "sim.core.self_s": self_s("sim.core"),
        "sim.core.us_per_event": simulate_s / events * 1e6,
        "pfs.self_s": self_s("pfs"),
        "pablo.capture.self_s": self_s("pablo.capture"),
        "machine.ionode.self_s": self_s("machine.ionode"),
        "machine.disk.self_s": self_s("machine.disk"),
        "machine.mesh.self_s": self_s("machine.mesh"),
        "sim.fluid.self_s": self_s("sim.fluid"),
        "sim.fluid.makespan_err": fluid_err or 0.0,
        "ppfs.self_s": self_s("ppfs"),
        "ppfs.writebehind.self_s": self_s("ppfs.writebehind"),
        "telemetry.self_s": self_s("telemetry"),
        "spans.self_s": self_s("spans"),
        "analysis.self_s": self_s("analysis"),
        "analysis.us_per_row": self_s("analysis") / counts["analysis.rows"] * 1e6,
        "build.self_s": self_s("build"),
        "unattributed.self_s": self_s("op"),
        "trace.overhead_ratio": traced_run / untraced_run,
    }
    return {name: values[name] for name in PER_LAYER}


# -- main -------------------------------------------------------------------------
def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        description="Paper-scale characterization benchmark (see perfbench/README.md)."
    )
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="machine RNG seed passed to RunSpec(seed=...)")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time (split in half untraced/traced with --trace 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", default="paper", choices=("paper", "small"),
                    help="'small' is for smoke tests: paper checks are skipped")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no simulator source at {os.path.join(ROOT, 'src', 'repro')}")
    workload = W.WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, scale {args.scale}, {args.seconds:g} s measured, "
          f"closed loop with 1 client, {os.cpu_count()} CPUs")

    setup = time_setup(args) if not args.trace else None
    extra = ["--seconds", str(args.seconds)]
    if args.trace:
        extra.append("--traced")
    measured = run_worker(worker_cmd("measure", args, *extra),
                          args.seconds + CHILD_TIMEOUT_S)
    ref = None
    if workload.reference is not None:
        ref = run_worker(worker_cmd("reference", args), CHILD_TIMEOUT_S)

    oks, problems, fluid_err = check(workload, args.scale, measured, ref)
    attempted, failed = len(oks), oks.count(False)
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}")

    first = measured["untraced"]["first"]
    # Not metrics: a change that only speeds the simulator up must leave
    # these bit-identical, so they are printed for comparing commits.
    print(f"simulated makespan {first['summary']['makespan_s']!r} s; trace hashes "
          + ", ".join(f"{p} {s['hash'][:12]}" for p, s in first["summary"]["programs"].items()))
    if not args.trace:
        metrics, lines = end_to_end(measured, setup)
        metrics["paper_err"] = paper_err = first["paper_err"]
        units = END_TO_END
        for line in lines:
            print(line)
        print(f"{'paper_err':<14} {paper_err:>14.6g} {'ratio':<6} mean |sim - paper| / paper "
              f"node time over {sum(len(t) for t in first['rows'].values())} paper rows")
        if fluid_err is None:
            print(f"{'fluid_err':<14} {'0':>14} {'ratio':<6} event fidelity: nothing approximated")
        else:
            print(f"{'fluid_err':<14} {fluid_err:>14.6g} {'ratio':<6} |fluid - event| / event "
                  f"makespan (limit {W.FLUID_ERR_LIMIT})")
        print(f"{'fail_frac':<14} {failed / attempted:>14.6g} {'ratio':<6} "
              f"{failed} of {attempted} ops failed a check")
    else:
        metrics = per_layer(measured, fluid_err)
        units = PER_LAYER
        traced = measured["traced"]
        print(f"traced: {len(timed_ops(traced))} ops after 1 warm-up, "
              f"{traced['ops'][-1]['n_spans']:,} spans in the last op")
        print(f"last traced op's spans written to {os.path.relpath(traced['spans_file'], ROOT)}")
        if traced["missing"]:
            print("entry points not found (not traced): " + ", ".join(traced["missing"]))
        for name, value in metrics.items():
            print(f"{name:<38} {value:>16.6g} {units[name][0]}")
        print(f"{'fail_frac':<38} {failed / attempted:>16.6g} ratio")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
