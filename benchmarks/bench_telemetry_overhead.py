"""Telemetry overhead benchmark: off must cost nothing, on must stay cheap.

The telemetry subsystem's acceptance bars are:

* **zero-cost when off** — telemetry installs nothing into the
  simulator: ``pfs.*`` counters are derived from the Pablo trace at
  finalize, and everything else it reports is a statistic the
  components keep anyway (``IONode.size_buckets``, ``Mesh.messages``,
  ``PPFS.prefetch_inflight`` …).  The off column is therefore the plain
  simulator, and doubles as the regression reference for
  bench_kernel/bench_ppfs comparisons;
* **cheap when on** — sampling at the default cadence must keep
  paper-scale ESCAT overhead at or below 5%.

Measured quantities:

* **wall time per app, off vs three cadences** — `Experiment.run()` for
  each small-scale app with ``telemetry=None`` and cadences 0.1 / 1.0 /
  5.0 simulated seconds (small runs span ~14 s, so 0.1 s is a
  deliberately punishing ~140-sample case);
* **paper-scale ESCAT, off vs default cadence** — the 5% acceptance
  number;
* **paper-scale ESCAT on PPFS escat_tuned, off vs 1.0 s cadence** — the
  policy-layer columns (client and I/O-node caches, write-behind
  backlog) at ~5,300 ticks, with the sampler's own wall time.  A tick
  reads one shared ``CacheStats`` per cache level and one running total
  per file written through write-behind, so its cost grows with the I/O
  nodes and those files, not with caches or buffered extents.

Runs two ways:

* under pytest-benchmark (``pytest benchmarks/bench_telemetry_overhead.py
  --benchmark-only``);
* as a script (``python benchmarks/bench_telemetry_overhead.py``)
  emitting the machine-readable ``BENCH_telemetry.json`` artifact the CI
  perf-smoke step uploads.
"""

from __future__ import annotations

import argparse
import time

from repro.core.registry import paper_experiment, small_experiment
from repro.ppfs import PPFSPolicies
from repro.telemetry import DEFAULT_CADENCE_S

from benchmarks._common import best_of, emit, emit_json

APPS = ("escat", "render", "htf")

#: Small-scale cadences (simulated seconds): default-ish, 1 Hz-ish, punishing.
CADENCES = (5.0, 1.0, 0.1)

#: Cadence of the paper-scale PPFS pair (the perfbench observed workload's).
PPFS_CADENCE_S = 1.0


def wall_time(app: str, telemetry, repeats: int = 3, scale: str = "small"):
    """Best-of-N `Experiment.run()` wall seconds (+ sample count when on)."""
    build = paper_experiment if scale == "paper" else small_experiment
    best, result = best_of(
        lambda exp: exp.run(), repeats, setup=lambda: build(app, telemetry=telemetry)
    )
    samples = (
        result.telemetry.sampler.samples if result.telemetry is not None else 0
    )
    return best, samples


def paired_wall_time(
    app: str, telemetry, repeats: int = 3, scale: str = "paper", **config
):
    """Interleaved best-of-N off/on pair: (off_s, on_s, samples, sample_s).

    ``config`` goes to ``paper_experiment``/``small_experiment`` (file
    system, policies);
    ``sample_s`` is the sampler's own wall time in the best "on" run.

    Off and on runs alternate within one loop — and swap order every
    repeat — so slow process-wide drift (allocator growth, GC pressure,
    frequency scaling) hits both sides equally instead of inflating
    whichever config is consistently measured last.
    """
    build = paper_experiment if scale == "paper" else small_experiment
    best_off = best_on = float("inf")
    samples, sample_s = 0, 0.0
    for rep in range(repeats):
        for telem in (None, telemetry) if rep % 2 == 0 else (telemetry, None):
            t0 = time.perf_counter()
            result = build(app, telemetry=telem, **config).run()
            elapsed = time.perf_counter() - t0
            if telem is None:
                best_off = min(best_off, elapsed)
            elif elapsed < best_on:
                best_on = elapsed
                samples = result.telemetry.sampler.samples
                sample_s = result.telemetry.sampler.overhead_s
    return best_off, best_on, samples, sample_s


# -- pytest-benchmark entry points ---------------------------------------------
def test_telemetry_off_wall_time(benchmark):
    best, _ = benchmark(lambda: wall_time("escat", None, repeats=1))
    assert best > 0


def test_telemetry_on_wall_time(benchmark):
    best, _ = benchmark(lambda: wall_time("escat", 1.0, repeats=1))
    assert best > 0


# -- script entry (CI perf-smoke, `make perf`) ---------------------------------
def main(argv=None) -> str:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N per config (default 3)"
    )
    parser.add_argument(
        "--skip-paper", action="store_true",
        help="skip the paper-scale ESCAT acceptance measurement",
    )
    args = parser.parse_args(argv)

    payload: dict = {
        "default_cadence_s": DEFAULT_CADENCE_S,
        "wall_s": {},
        "overhead_ratio": {},
    }
    lines = []
    for app in APPS:
        off, _ = wall_time(app, None, args.repeats)
        row_wall = {"off": round(off, 4)}
        row_ratio = {}
        line = f"{app:<8} off {off:>8.4f}s"
        for cadence in CADENCES:
            on, samples = wall_time(app, cadence, args.repeats)
            ratio = on / off if off else float("nan")
            row_wall[f"cadence_{cadence:g}"] = round(on, 4)
            row_ratio[f"cadence_{cadence:g}"] = round(ratio, 4)
            line += f"  @{cadence:g}s {on:>8.4f}s (x{ratio:.3f}, {samples} samples)"
        payload["wall_s"][app] = row_wall
        payload["overhead_ratio"][app] = row_ratio
        lines.append(line)

    if not args.skip_paper:
        off, on, samples, _ = paired_wall_time(
            "escat", DEFAULT_CADENCE_S, args.repeats, scale="paper"
        )
        ratio = on / off if off else float("nan")
        payload["paper_escat"] = {
            "off_s": round(off, 4),
            "on_s": round(on, 4),
            "samples": samples,
            "overhead_ratio": round(ratio, 4),
        }
        lines.append(
            f"paper escat: off {off:.4f}s  @{DEFAULT_CADENCE_S:g}s {on:.4f}s "
            f"(x{ratio:.3f}, {samples} samples; acceptance <= 1.05)"
        )
        off, on, samples, sample_s = paired_wall_time(
            "escat", PPFS_CADENCE_S, args.repeats, scale="paper",
            filesystem="ppfs", policies=PPFSPolicies.escat_tuned(),
        )
        ratio = on / off if off else float("nan")
        payload["paper_escat_ppfs"] = {
            "policies": "escat_tuned",
            "cadence_s": PPFS_CADENCE_S,
            "off_s": round(off, 4),
            "on_s": round(on, 4),
            "samples": samples,
            "sample_s": round(sample_s, 4),
            "overhead_ratio": round(ratio, 4),
        }
        lines.append(
            f"paper escat ppfs escat_tuned: off {off:.4f}s  @{PPFS_CADENCE_S:g}s "
            f"{on:.4f}s (x{ratio:.3f}, {samples} samples, sampler {sample_s:.4f}s)"
        )

    emit("telemetry_overhead", "\n".join(lines))
    return emit_json("BENCH_telemetry", payload)


if __name__ == "__main__":
    print(main())
