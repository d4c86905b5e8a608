"""End-to-end smoke runs of the benchmark command at small scale."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(bench.W.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_scale_run_passes_and_prints_every_metric(workload, trace):
    proc = invoke("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--scale", "small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = declared()["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert "fail_frac" in proc.stdout
    if trace == "0":
        assert "fluid_err" in proc.stdout
    else:
        check_spans_file(os.path.join(BENCH, "out", f"spans-{workload}.npz"))


def check_spans_file(path):
    """The traced run wrote its last op's spans: one root, every other
    span's parent earlier in the arrays, every name in the name table."""
    import numpy as np

    with np.load(path) as spans:
        names, name, parent = spans["names"], spans["name"], spans["parent"]
        start, end, op_id = spans["start_ns"], spans["end_ns"], spans["op_id"]
    assert len(name) == len(parent) == len(start) == len(end) == len(op_id) > 1
    assert names[0] == "op" and name[0] == 0
    assert parent[0] == -1 and (parent[1:] >= 0).all()
    assert (parent[1:] < np.arange(1, len(parent))).all()
    assert (end >= start).all() and name.max() < len(names)
    assert (op_id == op_id[0]).all()


def test_benchmark_json_matches_the_metric_tables():
    spec = declared()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in bench.W.WORKLOADS.items()
    }
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("--workload", "escat-pfs-event", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
