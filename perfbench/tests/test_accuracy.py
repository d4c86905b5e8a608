"""Accuracy metrics, output checks and sample statistics on hand-built data."""

import math
import time

import pytest

import workloads as W

PAPER = {
    "p1": {"Read": (10, 100, 50.0), "Write": (4, 40, 200.0)},
    "p2": {"Open": (2, None, 10.0)},
}


def rows(read_t, write_t, open_t):
    return {
        "p1": {"Read": [10, 100, read_t], "Write": [4, 40, write_t]},
        "p2": {"Open": [2, 0, open_t]},
    }


def test_paper_error_is_the_mean_relative_node_time_error():
    # |60-50|/50 = 0.2, |150-200|/200 = 0.25, |10-10|/10 = 0
    assert W.paper_error(rows(60.0, 150.0, 10.0), PAPER) == pytest.approx(0.45 / 3)
    assert W.paper_error(rows(50.0, 200.0, 10.0), PAPER) == 0.0
    # Over- and under-estimates count alike.
    assert W.paper_error(rows(40.0, 250.0, 10.0), PAPER) == pytest.approx(0.45 / 3)


def test_paper_error_covers_every_row_of_every_program():
    # Only p2's row is off: 1 of 3 rows, error 1.0 -> mean 1/3.
    assert W.paper_error(rows(50.0, 200.0, 20.0), PAPER) == pytest.approx(1 / 3)


def test_fluid_error_is_relative_to_the_event_makespan():
    assert W.fluid_error(2332.427, 2301.587) == pytest.approx(30.84 / 2301.587)
    assert W.fluid_error(990.0, 1000.0) == pytest.approx(0.01)
    assert W.fluid_error(1000.0, 1000.0) == 0.0


def test_check_pinned_reports_count_and_volume_mismatches():
    pinned = {"p1": {"Read": (10, 100), "Write": (4, None)}}
    assert W.check_pinned(rows(1.0, 1.0, 1.0), pinned) == []
    bad = rows(1.0, 1.0, 1.0)
    bad["p1"]["Read"] = [11, 99, 1.0]
    bad["p1"]["Write"] = [4, 12345, 1.0]  # volume not pinned
    assert W.check_pinned(bad, pinned) == [
        "p1 Read count 11 != 10",
        "p1 Read volume 99 != 100",
    ]


def test_check_op_counts_compares_every_program():
    ref = {"programs": {"a": {"ops": {"READ": [3, 30]}}, "b": {"ops": {"OPEN": [1, 0]}}}}
    same = {"programs": {"a": {"ops": {"READ": [3, 30]}}, "b": {"ops": {"OPEN": [1, 0]}}}}
    assert W.check_op_counts(same, ref) == []
    off = {"programs": {"a": {"ops": {"READ": [3, 31]}}}}
    problems = W.check_op_counts(off, ref)
    assert len(problems) == 2 and "program b missing" in problems


def test_median_and_tail():
    assert W.median([3.0, 1.0, 2.0]) == 2.0
    assert W.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    samples = [float(i) for i in range(1, 31)]  # 1..30
    value, pct = W.tail(samples)
    assert value == 20.0  # 10 samples (21..30) beyond it
    assert pct == pytest.approx(100 * 20 / 30)
    # Fewer than 11 samples: no sample has 10 beyond it.
    assert W.tail([5.0, 1.0]) == (1.0, 50.0)
    with pytest.raises(ValueError):
        W.median([])


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_paper_table_is_the_paper_benchmarks_table_without_totals(workload):
    import importlib

    w = W.WORKLOADS[workload]
    paper = importlib.import_module(w.paper).PAPER
    by_program = {w.paper_program: paper} if w.paper_program else paper
    table = W.paper_table(w)
    assert table.keys() == by_program.keys()
    for program, rows in table.items():
        assert "All I/O" in by_program[program] and "All I/O" not in rows
        assert rows == {k: v for k, v in by_program[program].items() if k != "All I/O"}
        assert all(node_time > 0 and math.isfinite(node_time)
                   for _, _, node_time in rows.values())


def test_scale_factor_removes_probe_time_and_rescales_to_the_reference_host():
    from calibration import PROBE_REF_S, scale_factor

    ref = PROBE_REF_S
    # Probe at reference speed, no ticks inside: times are unchanged.
    assert scale_factor(1.0, [], ref) == pytest.approx(1.0)
    # A host twice as slow: halve.  Ticks inside the 2 s op took 0.2 s,
    # which leaves 1.8 s of op work, i.e. 0.9 s on the reference host.
    ticks = [2 * ref] * int(0.2 / (2 * ref))
    assert 2.0 * scale_factor(2.0, ticks, 2 * ref) == pytest.approx(0.9, rel=1e-3)


def test_sampler_ticks_while_running_and_allocates_nothing_tracked():
    import gc

    from calibration import Sampler, probe_seconds

    probe_seconds()
    gc.disable()
    try:
        before = gc.get_count()[0]
        probe_seconds()
        assert gc.get_count()[0] == before  # so it never triggers a collection
    finally:
        gc.enable()
    sampler = Sampler(interval_s=0.005)
    sampler.start()
    spin_until = time.perf_counter() + 0.1
    while time.perf_counter() < spin_until:
        pass
    sampler.stop()
    assert len(sampler.ticks) >= 5
    assert all(t > 0 for t in sampler.ticks)
    assert 0 < sampler.factor(0.1) < 1e3


def test_sampler_skips_ticks_that_arrive_while_it_probes():
    from calibration import Sampler

    sampler = Sampler(interval_s=0.0001)  # shorter than one probe
    sampler.start()
    try:
        spin_until = time.perf_counter() + 0.2
        while time.perf_counter() < spin_until:
            pass
    finally:
        sampler.stop()
    assert sampler.ticks

