"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay, value=delay).add_callback(
            lambda ev: fired.append(ev.value))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_simultaneous_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in ("a", "b", "c"):
        sim.timeout(1.0, value=tag).add_callback(
            lambda ev: fired.append(ev.value))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_process_returns_value():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(1.0)
        return 42

    assert sim.run(until=sim.process(body(sim))) == 42
    assert sim.now == 1.0


def test_process_composes():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return "child-value"

    def parent(sim):
        value = yield sim.process(child(sim))
        return value + "!"

    assert sim.run(until=sim.process(parent(sim))) == "child-value!"


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 123

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_event_succeed_value_propagates():
    sim = Simulator()
    gate = sim.event()

    def waiter(sim):
        value = yield gate
        return value

    proc = sim.process(waiter(sim))
    sim.schedule(5.0, lambda: gate.succeed("hello"))
    assert sim.run(until=proc) == "hello"
    assert sim.now == 5.0


def test_event_fail_raises_in_process():
    sim = Simulator()
    gate = sim.event()

    class Boom(Exception):
        pass

    def waiter(sim):
        try:
            yield gate
        except Boom:
            return "caught"

    proc = sim.process(waiter(sim))
    sim.schedule(1.0, lambda: gate.fail(Boom()))
    assert sim.run(until=proc) == "caught"


def test_event_double_decide_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_late_callback_on_processed_event_runs_immediately():
    sim = Simulator()
    ev = sim.timeout(1.0, value="x")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_interrupt_delivers_process_killed():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except ProcessKilled as exc:
            return ("interrupted", exc.cause)

    proc = sim.process(sleeper(sim))
    sim.schedule(1.0, lambda: proc.interrupt("deadline"))
    assert sim.run(until=proc) == ("interrupted", "deadline")
    assert sim.now == 1.0


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.5)

    proc = sim.process(quick(sim))
    sim.run(until=proc)
    proc.interrupt("too late")  # must not raise
    sim.run()


def test_unhandled_interrupt_fails_process():
    sim = Simulator()

    def sleeper(sim):
        yield sim.timeout(100.0)

    proc = sim.process(sleeper(sim))
    sim.schedule(1.0, lambda: proc.interrupt())
    with pytest.raises(ProcessKilled):
        sim.run(until=proc)


def test_any_of_fires_on_first():
    sim = Simulator()

    def body(sim):
        first = sim.timeout(1.0, value="fast")
        second = sim.timeout(5.0, value="slow")
        result = yield sim.any_of([first, second])
        return list(result.values())

    assert sim.run(until=sim.process(body(sim))) == ["fast"]
    assert sim.now == 1.0


def test_all_of_waits_for_all():
    sim = Simulator()

    def body(sim):
        events = [sim.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        result = yield sim.all_of(events)
        return sorted(result.values())

    assert sim.run(until=sim.process(body(sim))) == [1.0, 2.0, 3.0]
    assert sim.now == 3.0


def test_empty_any_of_and_all_of_fire_immediately():
    sim = Simulator()

    def body(sim):
        a = yield sim.any_of([])
        b = yield sim.all_of([])
        return (a, b)

    assert sim.run(until=sim.process(body(sim))) == ({}, {})


def test_run_until_time_stops_clock_there():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    gate = sim.event()  # nobody will ever succeed it
    with pytest.raises(SimulationError):
        sim.run(until=gate)


def test_max_events_safety_valve():
    sim = Simulator()

    def forever(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(forever(sim))
    with pytest.raises(SimulationError):
        sim.run(max_events=50)


def test_step_and_peek():
    sim = Simulator()
    sim.timeout(2.0)
    assert sim.peek() == 2.0
    assert sim.step() == 2.0
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_call_later_runs_plain_call_in_insertion_order():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda _event: fired.append("timeout"))
    sim.call_later(1.0, fired.append, "call")
    sim.schedule(1.0, lambda: fired.append("schedule"))
    sim.call_later(0.5, fired.append, "early")
    sim.run()
    assert fired == ["early", "timeout", "call", "schedule"]
    assert sim.now == 1.0


def test_call_later_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().call_later(-1.0, print)
