"""Kernel tests: event ordering, processes, conditions, interrupts."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestEnvironmentBasics:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=5.5).now == 5.5

    def test_run_empty_queue_is_noop(self):
        env = Environment()
        env.run()
        assert env.now == 0.0

    def test_run_until_advances_clock_even_when_idle(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_in_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_peek_shows_next_event_time(self):
        env = Environment()
        env.timeout(3.0)
        assert env.peek() == 3.0

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_background_count_may_change_mid_run(self):
        # A background timer that fires and is not re-armed (a fault
        # timer) must not end the run while foreground work remains, and
        # one still pending must not keep it alive after.
        env = Environment()

        def fired(_ev):
            env.background -= 1

        def background(delay):
            env.background += 1
            env.timeout(delay).callbacks.append(fired)

        background(1.0)
        background(50.0)
        done = []

        def proc():
            yield env.timeout(2.0)
            yield env.timeout(3.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [5.0] and env.now == 5.0


class TestTimeout:
    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(2.5)
        env.run()
        assert env.now == 2.5

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_fires_now(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(0.0)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [0.0]

    def test_timeout_carries_value(self):
        env = Environment()
        got = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["payload"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        env = Environment()
        log = []

        def proc(tag):
            yield env.timeout(1.0)
            log.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert log == ["a", "b", "c"]


class TestProcess:
    def test_sequential_timeouts_accumulate(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)

        env.process(proc())
        env.run()
        assert env.now == 3.0

    def test_process_return_value(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            return 42

        def parent(results):
            value = yield env.process(child())
            results.append(value)

        results = []
        env.process(parent(results))
        env.run()
        assert results == [42]

    def test_waiting_on_finished_process_resumes_immediately(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(1.0)
            return "done"

        def parent():
            proc = env.process(child())
            yield env.timeout(5.0)  # child finishes long before
            value = yield proc
            log.append((env.now, value))

        env.process(parent())
        env.run()
        assert log == [(5.0, "done")]

    def test_yielding_non_event_fails_the_process(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_unhandled_exception_propagates_from_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(bad())
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_exception_delivered_to_waiter_not_rerained(self):
        env = Environment()
        caught = []

        def bad():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield env.process(bad())
            except ValueError as exc:
                caught.append(str(exc))

        env.process(parent())
        env.run()
        assert caught == ["boom"]

    def test_is_alive_lifecycle(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive
        assert p.ok

    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_process_name_defaults_to_generator_name(self):
        env = Environment()

        def my_proc():
            yield env.timeout(0)

        p = env.process(my_proc())
        assert p.name  # non-empty
        env.run()


class TestInterrupt:
    def test_interrupt_wakes_sleeping_process(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                log.append((env.now, exc.cause))

        def waker(target):
            yield env.timeout(2.0)
            target.interrupt(cause="wake up")

        p = env.process(sleeper())
        env.process(waker(p))
        env.run()
        assert log == [(2.0, "wake up")]

    def test_interrupt_finished_process_raises(self):
        env = Environment()

        def quick():
            yield env.timeout(0.5)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            log.append(env.now)

        def waker(target):
            yield env.timeout(2.0)
            target.interrupt()

        p = env.process(sleeper())
        env.process(waker(p))
        env.run()
        assert log == [3.0]


class TestEvents:
    def test_succeed_then_retrigger_raises(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_event_value_delivered(self):
        env = Environment()
        got = []

        def waiter(ev):
            got.append((yield ev))

        ev = env.event()
        env.process(waiter(ev))
        ev.succeed("v")
        env.run()
        assert got == ["v"]

    def test_triggered_and_processed_flags(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        ev.succeed()
        assert ev.triggered and not ev.processed
        env.run()
        assert ev.processed


class TestConditions:
    def test_all_of_waits_for_every_event(self):
        env = Environment()
        log = []

        def proc():
            yield env.all_of([env.timeout(1.0), env.timeout(3.0), env.timeout(2.0)])
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [3.0]

    def test_any_of_fires_on_first(self):
        env = Environment()
        log = []

        def proc():
            yield env.any_of([env.timeout(5.0), env.timeout(1.0)])
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1.0]

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        log = []

        def proc():
            yield env.all_of([])
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [0.0]

    def test_all_of_collects_values(self):
        env = Environment()
        got = []

        def proc():
            values = yield env.all_of(
                [env.timeout(1.0, "a"), env.timeout(2.0, "b")]
            )
            got.append(values)

        env.process(proc())
        env.run()
        assert got == [{0: "a", 1: "b"}]

    def test_all_of_propagates_failure(self):
        env = Environment()
        caught = []

        def bad():
            yield env.timeout(1.0)
            raise RuntimeError("child died")

        def proc():
            try:
                yield env.all_of([env.process(bad()), env.timeout(5.0)])
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(proc())
        env.run()
        assert caught == ["child died"]


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self):
        def run_once():
            env = Environment()
            log = []

            def worker(i):
                yield env.timeout(1.0 + (i % 3) * 0.5)
                log.append((env.now, i))
                yield env.timeout(0.25 * i)
                log.append((env.now, i))

            for i in range(10):
                env.process(worker(i))
            env.run()
            return log

        assert run_once() == run_once()

    def test_run_until_stops_midway(self):
        env = Environment()
        log = []

        def proc():
            for _ in range(10):
                yield env.timeout(1.0)
                log.append(env.now)

        env.process(proc())
        env.run(until=4.5)
        assert log == [1.0, 2.0, 3.0, 4.0]
        assert env.now == 4.5
        env.run()  # continue to completion
        assert log[-1] == 10.0
