"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import EventKind


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(3.0, lambda: fired.append("c"))
    engine.schedule(1.0, lambda: fired.append("a"))
    engine.schedule(2.0, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    engine = Engine()
    fired = []
    for tag in ("first", "second", "third"):
        engine.schedule(1.0, lambda tag=tag: fired.append(tag))
    engine.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_last_event():
    engine = Engine()
    engine.schedule(5.5, lambda: None)
    assert engine.run() == 5.5
    assert engine.now == 5.5


def test_callbacks_can_schedule_more_events():
    engine = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            engine.schedule(1.0, lambda: chain(depth + 1))

    engine.schedule(1.0, lambda: chain(0))
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 4.0


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    engine = Engine()
    times = []
    engine.schedule_at(2.0, lambda: times.append(engine.now))
    engine.run()
    assert times == [2.0]


def test_cancelled_events_are_skipped():
    engine = Engine()
    fired = []
    event = engine.schedule(1.0, lambda: fired.append("cancelled"))
    engine.schedule(2.0, lambda: fired.append("kept"))
    event.cancel()
    engine.run()
    assert fired == ["kept"]


def test_run_until_stops_early():
    engine = Engine()
    fired = []
    engine.schedule(1.0, lambda: fired.append(1))
    engine.schedule(10.0, lambda: fired.append(10))
    engine.run(until=5.0)
    assert fired == [1]
    assert engine.now == 5.0
    assert engine.pending == 1
    engine.run()
    assert fired == [1, 10]


def test_events_fired_counter():
    engine = Engine()
    for _ in range(4):
        engine.schedule(1.0, lambda: None)
    engine.run()
    assert engine.events_fired == 4


def test_max_events_guard():
    engine = Engine()

    def rescheduler():
        engine.schedule(1.0, rescheduler)

    engine.schedule(1.0, rescheduler)
    with pytest.raises(SimulationError):
        engine.run(max_events=100)


def test_reset_clears_state():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    engine.schedule(1.0, lambda: None)
    engine.reset()
    assert engine.now == 0.0
    assert engine.pending == 0
    assert engine.events_fired == 0


def test_engine_not_reentrant():
    engine = Engine()
    errors = []

    def reenter():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.schedule(1.0, reenter)
    engine.run()
    assert len(errors) == 1


def test_event_kind_payload_passthrough():
    engine = Engine()
    event = engine.schedule(1.0, lambda: None, kind=EventKind.STEAL)
    assert event.kind is EventKind.STEAL


def test_zero_delay_fires_at_current_time():
    engine = Engine()
    times = []
    engine.schedule(1.0, lambda: engine.schedule(0.0, lambda: times.append(engine.now)))
    engine.run()
    assert times == [1.0]


# -------------------------------------------------------- clock edge cases


def test_run_until_advances_clock_when_heap_drains_early():
    """run(until=T) must land the clock on T even if events run out first."""
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    assert engine.run(until=10.0) == 10.0
    assert engine.now == 10.0


def test_run_until_on_empty_heap_advances_clock():
    engine = Engine()
    assert engine.run(until=5.0) == 5.0
    assert engine.now == 5.0


def test_run_until_windows_chain_seamlessly():
    """Back-to-back bounded runs see a monotonic clock across windows."""
    engine = Engine()
    fired = []
    engine.schedule(0.5, lambda: fired.append(engine.now))
    engine.schedule(7.5, lambda: fired.append(engine.now))
    for horizon in (2.0, 4.0, 6.0, 8.0):
        engine.run(until=horizon)
        assert engine.now == horizon
    assert fired == [0.5, 7.5]


def test_run_until_does_not_rewind_clock():
    """An `until` already in the past leaves the clock alone."""
    engine = Engine()
    engine.schedule(3.0, lambda: None)
    engine.run()
    assert engine.now == 3.0
    assert engine.run(until=1.0) == 3.0


def test_schedule_at_tolerates_float_roundoff():
    """Absolute times a hair before `now` clamp to `now` (not an error)."""
    engine = Engine()
    engine.schedule(0.1 + 0.2, lambda: None)  # 0.30000000000000004
    engine.run()
    fired = []
    event = engine.schedule_at(engine.now - 0.5e-12, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [engine.now]
    assert event.time == engine.now


def test_schedule_at_rejects_genuinely_past_times():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(0.5, lambda: None)


def test_schedule_rejects_past_beyond_tolerance():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1e-9, lambda: None)
