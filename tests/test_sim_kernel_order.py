"""Event-heap ordering contract of the kernel.

Pins what any heap representation must keep: events at equal times run
in ``(priority, seq)`` order, the look-ahead paths (``peek``,
``run(until=)``, ``run_until_triggered``) skip cancelled head entries,
and a :class:`~repro.sim.kernel.Handle` reports its scheduled time and
whether it is still active.
"""

import random

import pytest

from repro.sim import Signal, Simulator


class TestEqualTimeOrder:
    def test_priority_then_insertion_order(self):
        sim = Simulator()
        log = []
        plan = [(1.0, 2, "a"), (1.0, 0, "b"), (1.0, 1, "c"), (1.0, 0, "d"),
                (0.5, 5, "e"), (1.0, 2, "f"), (1.0, -1, "g")]
        for t, prio, tag in plan:
            sim.schedule(t, lambda tag=tag: log.append(tag), priority=prio)
        sim.run()
        assert log == ["e", "g", "b", "d", "c", "a", "f"]

    def test_randomized_against_sorted_key(self):
        rng = random.Random(11)
        sim = Simulator()
        log = []
        keys = []
        for seq in range(400):
            t = rng.choice([0.0, 0.25, 1.0, 1.0, 3.5])
            prio = rng.randint(-2, 2)
            keys.append((t, prio, seq))
            sim.schedule(t, lambda seq=seq: log.append(seq), priority=prio)
        sim.run()
        assert log == [seq for _, _, seq in sorted(keys)]

    def test_events_scheduled_now_run_after_queued_equal_time_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(0.0, lambda: log.append("late"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second", "late"]


class TestCancelledHeads:
    def test_peek_skips_cancelled_head(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        h2 = sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        h1.cancel()
        assert sim.peek() == 2.0
        h2.cancel()
        assert sim.peek() == 3.0

    def test_peek_on_all_cancelled_is_none(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        assert sim.peek() is None

    def test_run_until_ignores_cancelled_head_beyond_nothing(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1)).cancel()
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=2.0)
        assert log == []
        assert sim.now == 2.0
        sim.run(until=6.0)
        assert log == [5]
        assert sim.now == 6.0

    def test_run_until_runs_events_behind_cancelled_head(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("x")).cancel()
        sim.schedule(1.0, lambda: log.append("y"))
        sim.run(until=1.0)
        assert log == ["y"]

    def test_run_until_triggered_skips_cancelled_head(self):
        sim = Simulator()
        sig = Signal(sim)
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(10.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: sig.trigger("ok"))
        assert sim.run_until_triggered(sig, horizon=5.0)
        assert sim.now == 2.0
        assert sim.peek() is None

    def test_run_until_triggered_horizon_after_cancelled_head(self):
        sim = Simulator()
        sig = Signal(sim)
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(9.0, lambda: sig.trigger())
        assert not sim.run_until_triggered(sig, horizon=5.0)
        assert sim.now == 5.0


class TestHandle:
    def test_time_is_absolute_fire_time(self):
        sim = Simulator(start=10.0)
        h = sim.schedule(2.5, lambda: None)
        assert h.time == 12.5
        assert sim.schedule_at(11.0, lambda: None).time == 11.0

    def test_active_until_cancelled_even_after_firing(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        assert h.active
        sim.run()
        assert h.active  # firing is not cancelling
        h.cancel()
        assert not h.active

    def test_cancel_is_idempotent_and_prevents_run(self):
        sim = Simulator()
        log = []
        h = sim.schedule(1.0, lambda: log.append(1))
        h.cancel()
        h.cancel()
        assert not h.active
        assert h.time == 1.0
        sim.run()
        assert log == []

    def test_negative_delay_still_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Simulator().schedule(-1e-3, lambda: None)
