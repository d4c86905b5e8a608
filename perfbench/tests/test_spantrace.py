"""Span attribution: generator resumes, self time, tiling, patching."""

import time

import numpy as np
import pytest

import spantrace
from spantrace import LAYERS, Tracer, patch_layers, self_times


def spin(seconds: float) -> None:
    """Busy-wait: host time that only the running frame can own."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Inner:
    def work(self):
        spin(0.030)
        value = yield "wait"
        spin(0.020)
        return value * 2


class Outer:
    def work(self):
        spin(0.020)
        got = yield from Inner().work()
        spin(0.010)
        return got + 1


class Plain:
    def call(self, n):
        spin(0.010)
        return list(range(n))


TOY = (
    ("pfs", __name__, "Outer", "work", None),
    ("machine.ionode", __name__, "Inner", "work", None),
    ("machine.disk", __name__, "Plain", "call", lambda args, result: len(result)),
)


def layer_s(op):
    return dict(zip(LAYERS, (ns / 1e9 for ns in op.layer_self_ns)))


def test_generator_resumes_are_attributed_to_their_own_layer():
    tracer = Tracer()
    with patch_layers(tracer, TOY):
        tracer.begin_op(0)
        gen = Outer().work()
        assert next(gen) == "wait"
        spin(0.040)  # suspended: the caller's time, not Outer's or Inner's
        with pytest.raises(StopIteration) as stop:
            gen.send(5)
        op = tracer.end_op()
    assert stop.value.value == 11
    s = layer_s(op)
    # Outer owns 20 + 10 ms, Inner 30 + 20 ms; the 40 ms between resumes
    # and everything outside the spans is the root's.
    assert 0.030 <= s["pfs"] < 0.045
    assert 0.050 <= s["machine.ionode"] < 0.065
    assert 0.040 <= s["op"] < 0.055
    assert op.calls == {"pfs:Outer.work": 1, "machine.ionode:Inner.work": 1}
    # Two resumes each, one span per resume.
    names = [tracer.names[i] for i in tracer.last["name"]]
    assert names.count("pfs:Outer.work") == 2
    assert names.count("machine.ionode:Inner.work") == 2


def test_throw_is_forwarded_into_the_wrapped_generator():
    class Catcher:
        def work(self):
            try:
                yield "wait"
            except KeyError as exc:
                return f"caught {exc.args[0]}"

    tracer = Tracer()
    gen = spantrace.wrap(tracer, tracer.intern("pfs", "Catcher.work"), Catcher.work)(Catcher())
    tracer.begin_op(0)
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    op = tracer.end_op()
    assert stop.value.value == "caught k"
    assert op.tiles


def test_self_times_tile_the_op_exactly():
    tracer = Tracer()
    with patch_layers(tracer, TOY):
        for op_id in range(3):
            tracer.begin_op(op_id)
            gen = Outer().work()
            next(gen)
            Plain().call(4)
            with pytest.raises(StopIteration):
                gen.send(1)
            op = tracer.end_op()
            assert op.tiling_error_ns == 0
            assert op.min_self_ns >= 0
            assert sum(op.layer_self_ns) == op.wall_ns
            assert op.items == {"machine.disk:Plain.call": 4}


def test_self_times_on_hand_built_spans():
    #            root [0, 100)
    #            ├── a [10, 50)   └── c [20, 30)
    #            └── b [60, 90)
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0, 10, 60, 20])
    end = np.array([100, 50, 90, 30])
    assert self_times(parent, start, end).tolist() == [30, 30, 30, 10]
    # A child escaping its parent is clipped, so the selves no longer sum
    # to the root's duration: the tiling check catches it.
    end_bad = np.array([100, 50, 90, 70])
    assert self_times(parent, start, end_bad).sum() != 100


def test_patches_are_removed_and_missing_entry_points_listed():
    original = Outer.work
    tracer = Tracer()
    entry_points = TOY + (("pfs", __name__, "Outer", "no_such_method", None),)
    with patch_layers(tracer, entry_points) as patches:
        assert Outer.work is not original
        assert Outer.work.__wrapped__ is original
    assert Outer.work is original
    assert patches.missing == [f"{__name__}.Outer.no_such_method"]


def test_calls_outside_an_op_record_no_spans():
    tracer = Tracer()
    with patch_layers(tracer, TOY):
        Plain().call(2)
        tracer.begin_op(0)
        op = tracer.end_op()
    assert op.n_spans == 1  # the root only
    assert op.tiles

