"""Tests for the discrete-event engine and resources."""

import random

import pytest

from repro.sim import Simulation, SimulationError, ThroughputResource


class TestSimulation:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_fifo_tie_break(self):
        sim = Simulation()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        sim = Simulation()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(2.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 3.0)]

    def test_run_until(self):
        sim = Simulation()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=2.0)
        assert log == [1]
        assert sim.now == 2.0
        sim.run()
        assert log == [1, 5]

    def test_cancel(self):
        sim = Simulation()
        log = []
        ev = sim.schedule(1.0, lambda: log.append("x"))
        sim.cancel(ev)
        sim.run()
        assert log == []

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at(self):
        sim = Simulation()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]

    def test_peek(self):
        sim = Simulation()
        assert sim.peek() is None
        ev = sim.schedule(2.0, lambda: None)
        assert sim.peek() == 2.0
        sim.cancel(ev)
        assert sim.peek() is None

    def test_determinism(self):
        def run_once():
            sim = Simulation()
            trace = []
            for i in range(10):
                sim.schedule((i * 7) % 5 + 0.5, lambda i=i: trace.append(i))
            sim.run()
            return trace

        assert run_once() == run_once()

    def test_cancel_is_lazy_until_compaction(self):
        sim = Simulation()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for ev in events[:4]:
            sim.cancel(ev)
        # Below the compaction floor: tombstones stay in the heap, but
        # the live-event count already excludes them.
        assert len(sim._heap) == 10
        assert sim.pending_events == 6

    def test_mass_cancellation_compacts_heap(self):
        sim = Simulation()
        keep = sim.schedule(1000.0, lambda: None)
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for ev in events:
            sim.cancel(ev)
        # Cancelled majority past the floor: the heap shrank in place.
        assert len(sim._heap) < 100
        assert sim.pending_events == 1
        assert sim.peek() == 1000.0
        sim.cancel(keep)
        assert sim.peek() is None

    def test_peek_skips_cancelled_head_without_firing(self):
        sim = Simulation()
        log = []
        first = sim.schedule(1.0, lambda: log.append("dead"))
        sim.schedule(2.0, lambda: log.append("live"))
        sim.cancel(first)
        assert sim.peek() == 2.0
        sim.run()
        assert log == ["live"]

    def test_cancel_twice_is_idempotent(self):
        sim = Simulation()
        log = []
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: log.append(sim.now))
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending_events == 1
        sim.run()
        assert log == [2.0]

    def test_compaction_preserves_fifo_determinism(self):
        def run_once(compact: bool):
            sim = Simulation()
            trace = []
            doomed = []
            for i in range(5):
                sim.schedule(1.0, lambda i=i: trace.append(i))
                doomed.extend(sim.schedule(3.0, lambda: trace.append(-1)) for _ in range(40))
            if compact:
                for ev in doomed:
                    sim.cancel(ev)
            sim.run(until=2.0)
            return trace

        assert run_once(compact=True) == run_once(compact=False) == [0, 1, 2, 3, 4]

    def test_run_until_with_cancelled_frontier(self):
        sim = Simulation()
        log = []
        ev = sim.schedule(1.0, lambda: log.append("x"))
        sim.cancel(ev)
        sim.schedule(5.0, lambda: log.append("y"))
        sim.run(until=3.0)
        # The cancelled head must not drag `now` forward past `until`.
        assert sim.now == 3.0
        assert log == []
        sim.run()
        assert log == ["y"]

    def test_ordering_never_compares_actions(self):
        """The heap orders (time, seq) prefixes; it must never fall through
        to the action, whatever that object does when compared."""
        fired = []

        class Hostile:
            def __init__(self, tag):
                self.tag = tag

            def __call__(self):
                fired.append(self.tag)

            def __lt__(self, other):
                raise AssertionError("heap compared two actions")

            __le__ = __gt__ = __ge__ = __eq__ = __lt__
            __hash__ = None

        sim = Simulation()
        for tag in range(300):  # all at one instant: every comparison is a tie on time
            sim.schedule(1.0, Hostile(tag), name="hostile")
        for tag in range(300, 320):
            sim.schedule(0.5, Hostile(tag))
        sim.run()
        assert fired == [*range(300, 320), *range(300)]

    def test_random_schedules_fire_in_time_then_scheduling_order(self):
        rng = random.Random(20181)
        sim = Simulation()
        fired = []
        # Few distinct delays, so most events tie on time and FIFO decides.
        delays = [rng.randrange(50) / 8 for _ in range(10_000)]
        for seq, delay in enumerate(delays):
            sim.schedule(delay, lambda seq=seq: fired.append((sim.now, seq)))
        sim.run()
        assert fired == sorted((delay, seq) for seq, delay in enumerate(delays))
        assert sim.events_processed == 10_000

    def test_cancelling_inside_an_action_compacts_mid_run(self):
        """``run()`` keeps working on the one heap when an action cancels
        enough events to compact it under its feet."""
        sim = Simulation()
        fired = []
        doomed = [
            sim.schedule(2.0 + i, lambda i=i: fired.append(("doomed", i)))
            for i in range(4 * Simulation.COMPACT_MIN)
        ]
        survivors = [3.5, 9.25, 2.0, 400.0]
        for when in survivors:
            sim.schedule_at(when, lambda when=when: fired.append(("survivor", when)))
        sizes = {}

        def purge():
            sizes["before"] = len(sim._heap)
            for ev in doomed:
                sim.cancel(ev)
            sizes["after"] = len(sim._heap)
            # Scheduled after the rebuild: lost if run() still drained the old list.
            sim.schedule(0.5, lambda: fired.append(("late", sim.now)))
            sim.schedule_at(9.25, lambda: fired.append(("late", sim.now)))

        sim.schedule(1.0, purge)
        sim.run()
        assert sizes["after"] < sizes["before"] // 2  # it did compact, inside run()
        assert fired == [
            ("late", 1.5), ("survivor", 2.0), ("survivor", 3.5),
            ("survivor", 9.25), ("late", 9.25), ("survivor", 400.0),
        ]
        assert sim.pending_events == 0

    def test_cancelling_a_fired_event_counts_nothing(self):
        """A handle whose event already ran is inert: cancelling it — later,
        twice, or from inside its own action — is not a cancellation, so
        ``pending_events`` stays the number of live heap entries and the
        heap is never compacted for tombstones that do not exist."""
        sim = Simulation()
        n = 2 * Simulation.COMPACT_MIN
        handles = []

        def cancel_myself(i):
            sim.cancel(handles[i])  # from inside the event's own action
            assert sim.pending_events == len(sim._heap) >= 0

        for i in range(n):
            handles.append(sim.schedule(float(i + 1), lambda i=i: cancel_myself(i)))
        live = [sim.schedule(1000.0 + i, lambda: None) for i in range(5)]
        compactions = []
        compact = sim._compact
        sim._compact = lambda: (compactions.append(sim.now), compact())
        sim.run(until=500.0)
        assert sim.events_processed == n
        for ev in handles:  # after the fact, and twice
            sim.cancel(ev)
            sim.cancel(ev)
        assert compactions == []
        assert sim.pending_events == len(sim._heap) == len(live)
        # Real cancellations still count, exactly once each.
        sim.cancel(live[0])
        sim.cancel(live[0])
        assert sim.pending_events == len(live) - 1
        sim.run()
        assert sim.events_processed == n + len(live) - 1
        assert sim.pending_events == 0 and sim._heap == []


class TestThroughputResource:
    def test_serial_transfers(self):
        sim = Simulation()
        pipe = ThroughputResource(sim, bandwidth=100.0)
        times = []
        pipe.transfer(200, lambda t: times.append(t))
        pipe.transfer(100, lambda t: times.append(t))
        sim.run()
        assert times == [2.0, 3.0]

    def test_bytes_accounting(self):
        sim = Simulation()
        pipe = ThroughputResource(sim, bandwidth=10.0)
        pipe.transfer(50, lambda t: None)
        sim.run()
        assert pipe.bytes_moved == 50

    def test_bandwidth_validation(self):
        with pytest.raises(SimulationError):
            ThroughputResource(Simulation(), bandwidth=0)

    def test_idle_gap_then_transfer(self):
        sim = Simulation()
        pipe = ThroughputResource(sim, bandwidth=10.0)
        done = []
        sim.schedule(5.0, lambda: pipe.transfer(10, lambda t: done.append(t)))
        sim.run()
        assert done == [6.0]

    def test_wait_and_eta_price_the_queue(self):
        sim = Simulation()
        pipe = ThroughputResource(sim, bandwidth=100.0)
        assert pipe.wait() == 0.0 and pipe.eta(50) == 0.5
        pipe.transfer(200, lambda t: None)
        assert pipe.free_at == 2.0 and pipe.wait() == 2.0
        assert pipe.eta(50, ios=2, overhead=0.25) == 3.0
        sim.run(until=1.5)
        assert pipe.wait() == 0.5
        sim.run(until=4.0)
        assert pipe.wait() == 0.0  # never negative once the pipe is idle

    def test_reservation_and_transfer_share_one_fifo(self):
        sim = Simulation()
        pipe = ThroughputResource(sim, bandwidth=100.0)
        pipe.transfer(100, lambda t: None)
        start = pipe.head()
        assert start == 1.0  # behind the transfer
        # The service time is whatever the caller measured once at the head.
        assert pipe.commit(start, 0.75) == 1.75
        times = []
        assert pipe.transfer(25, times.append, delay=0.5) == 2.5  # starts at the reservation's done
        sim.run()
        assert times == [2.5] and pipe.head() == sim.now == 2.5
        assert pipe.bytes_moved == 125  # a reservation moves no counted bytes

    @pytest.mark.parametrize(
        "stripe_bytes, rows, ios",
        [(2048, 1, 1), (293, 3, 2)],
        ids=["N=1 (RS: a row is the block)", "N=7 (Galloper: rows of a block)"],
    )
    def test_eta_is_the_gateway_arithmetic_to_the_bit(self, stripe_bytes, rows, ios):
        # The three sums the serving gateway used to spell out, in their
        # summation order; seeded serving results depend on every bit.
        sim = Simulation()
        bandwidth, overhead = 150e6 / 1.1, 500e-6
        pipe = ThroughputResource(sim, bandwidth=bandwidth)
        sim.run(until=0.0101)
        pipe.free_at = 0.0123456789
        pipe.pledged = 7 * stripe_bytes
        wait = max(0.0, pipe.free_at - sim.now)
        assert pipe.wait() == wait
        helper_eta = wait + ios * overhead + rows * stripe_bytes / bandwidth
        assert pipe.eta(rows * stripe_bytes, ios, overhead) == helper_eta
        itemsize = 1  # GF(2^8) symbols
        primary_eta = wait + overhead + rows * stripe_bytes * itemsize / bandwidth
        assert pipe.eta(rows * stripe_bytes * itemsize, 1, overhead) == primary_eta
        write_eta = wait + pipe.pledged / bandwidth
        assert pipe.eta(pipe.pledged) == write_eta
