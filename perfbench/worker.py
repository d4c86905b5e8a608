"""Child process of ``run.py``: one fresh interpreter per measurement.

Modes (the last line of standard output is the JSON result):

``setup``
    Import ``repro`` and the workload's lazily loaded subsystems, build
    the first experiment, print ``ready``.  The parent times this from
    spawn to the ``ready`` line; the host-speed probe times sampled
    meanwhile follow it.
``measure``
    The closed loop: one client, one thread, each op starting when the
    previous report has rendered.  One warm-up op, then ops until
    ``--seconds`` have passed.  With ``--traced`` the time is split: half
    untraced, then half with every layer's entry points wrapped in span
    recorders (``spantrace``); when it ends, the last traced op's spans
    are written to ``perfbench/out/spans-<workload>.npz``.
``reference``
    One run of the workload's reference configuration, summarized.

The process runs nothing but its workload, so its peak resident memory
is the workload's.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time

import workloads as W
from calibration import Sampler, probe_seconds

#: Where a traced run writes its last op's spans when it ends.
SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def setup_probe(workload: W.Workload, seed: int, scale: str) -> dict:
    sampler = Sampler()
    sampler.start()
    import repro  # noqa: F401  (the import is what is measured)
    import repro.analysis.report  # noqa: F401

    for module in workload.lazy_modules:
        importlib.import_module(module)
    W.make_spec(workload, seed, scale).build_experiment()
    sampler.stop()
    print("ready", flush=True)
    return {"ticks": sampler.ticks, "after": probe_seconds()}


def loop(workload: W.Workload, spec, seconds: float, tracer=None) -> dict:
    """Run the warm-up op, then ops for ``seconds``; summarize each.

    While an op runs, the host-speed probe is sampled; ``factor``
    calibrates the seconds measured within the op (see calibration.py).
    """
    from spantrace import layer_seconds

    ops = []
    first = None
    deadline = None
    sampler = Sampler()
    gc.collect()
    while deadline is None or time.perf_counter() < deadline:
        sampler.start()
        if tracer is not None:
            tracer.begin_op(len(ops))
        t0 = time.perf_counter_ns()
        result, simulate_ns, analyse_ns = W.run_op(spec)
        wall_ns = time.perf_counter_ns() - t0
        sampler.stop()
        op: dict = {}
        if tracer is not None:
            spans = tracer.end_op()
            wall_ns = spans.wall_ns
            op["layers_s"] = layer_seconds(spans)
            op["tiles"] = spans.tiles
            op["tiling_error_ns"] = spans.tiling_error_ns
            op["calls"] = spans.calls
            op["items"] = spans.items
            op["n_spans"] = spans.n_spans
        op["factor"] = sampler.factor(wall_ns / 1e9)
        summary = W.summarize(result)
        counts = W.layer_counts(result)
        op.update(
            wall_s=wall_ns / 1e9,
            simulate_s=simulate_ns / 1e9,
            analyse_s=analyse_ns / 1e9,
            hashes={p: s["hash"] for p, s in summary["programs"].items()},
            counts=counts,
        )
        if first is None:
            paper = W.paper_table(workload)
            rows = W.table_rows(result, paper)
            first = {
                "summary": summary,
                "rows": rows,
                "paper_err": W.paper_error(rows, paper),
                "spans_count": W.span_count(result),
            }
            deadline = time.perf_counter() + seconds
        ops.append(op)
        # Each op starts from a collected heap, as a fresh `repro run`
        # process would: the previous op's garbage must not set this
        # op's collection pauses or the peak resident memory.
        del result
        gc.collect()
    return {"first": first, "ops": ops}


def measure(workload: W.Workload, seed: int, scale: str, seconds: float,
            traced: bool) -> dict:
    spec = W.make_spec(workload, seed, scale)
    if not traced:
        out = {"untraced": loop(workload, spec, seconds)}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out
    from spantrace import Tracer, patch_layers

    out = {"untraced": loop(workload, spec, seconds / 2)}
    tracer = Tracer()
    with patch_layers(tracer) as patches:
        out["traced"] = loop(workload, spec, seconds / 2, tracer)
    out["traced"]["missing"] = patches.missing
    out["traced"]["spans_file"] = write_spans(tracer, workload)
    return out


def write_spans(tracer, workload: W.Workload) -> str:
    """Write the last traced op's spans to ``SPANS_DIR``; return the path.

    The file is a numpy ``.npz`` archive: ``names`` (span name table)
    and one array per span column (``name`` indexes ``names``).
    """
    import numpy as np

    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload.name}.npz")
    np.savez_compressed(path, names=np.array(tracer.names), **tracer.last)
    return path


def reference(workload: W.Workload, seed: int, scale: str) -> dict:
    spec = W.make_spec(workload, seed, scale, fields=workload.reference)
    result = spec.build_experiment().run()
    return W.summarize(result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure", "reference"))
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="paper", choices=("paper", "small"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    workload = W.WORKLOADS[args.workload]
    if args.mode == "setup":
        out = setup_probe(workload, args.seed, args.scale)
    elif args.mode == "measure":
        out = measure(workload, args.seed, args.scale, args.seconds, args.traced)
    else:
        out = reference(workload, args.seed, args.scale)
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
