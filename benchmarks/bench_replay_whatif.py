"""What-if replay — drive a captured ESCAT trace through policy variants.

§8: evaluating file-system changes requires real application request
streams, not synthetic kernels.  This bench captures one ESCAT trace and
replays the identical stream (think times preserved) on PFS and on PPFS
policy variants, comparing application-visible I/O time.
"""

from dataclasses import replace

from repro.apps import paper_escat
from repro.apps.workloads import small_machine
from repro.core import Experiment, replay_trace
from repro.ppfs import PPFSPolicies

from benchmarks._common import compare_rows, emit


def capture():
    config = replace(
        paper_escat(),
        nodes=16,
        iterations=8,
        cycle_compute_start_s=10.0,
        cycle_compute_end_s=5.0,
        init_compute_s=2.0,
        phase3_compute_s=2.0,
        phase4_compute_s=1.0,
    )
    return Experiment(
        "escat", config=config,
        machine_factory=lambda: small_machine(nodes=16, io_nodes=8),
    ).run().trace


def test_replay_whatif(benchmark):
    def sweep():
        trace = capture()
        variants = {
            "pfs": None,
            "write-behind": PPFSPolicies(write_behind=True),
            "tuned": PPFSPolicies.escat_tuned(),
        }
        out = {}
        for name, policies in variants.items():
            result = replay_trace(
                trace,
                machine_factory=lambda: small_machine(nodes=16, io_nodes=8),
                filesystem="pfs" if policies is None else "ppfs",
                policies=policies,
            )
            out[name] = (
                float(result.trace.events["duration"].sum()),
                result.makespan_ratio,
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (f"{name}: replayed I/O time (s) / makespan ratio", "-",
         f"{io:.2f} / {ms:.2f}")
        for name, (io, ms) in results.items()
    ]
    emit("replay_whatif", compare_rows("What-if replay (ESCAT stream)", rows))

    assert results["write-behind"][0] < 0.5 * results["pfs"][0]
    assert results["tuned"][0] <= results["write-behind"][0] * 1.05
    # Think times preserved: makespan stays in the original's vicinity.
    assert 0.5 < results["pfs"][1] <= 1.2
