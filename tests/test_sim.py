"""Tests for the discrete-event engine and resources."""

import random

import pytest

from repro.sim import SimLoop, Simulation, SimulationError, ThroughputResource


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

    def test_run_until_never_moves_the_clock_back(self):
        """``until`` before now is refused, like scheduling in the past: a
        zero-delay event must not fire before an instant already seen."""
        sim = Simulation()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert sim.now == 2.0
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0, 5.0]

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        # NaN compares false with everything: on the heap it would fire
        # out of order with the clock reading NaN.
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: fired.append(sim.now))
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.5, 1.0, 2.0]

    def test_infinite_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        assert sim.run() == 0.0

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_non_finite_instant_rejected(self, when):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule_at(when, lambda: None)
        assert sim.run() == 0.0

    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_non_finite_until_rejected(self, until):
        # The run neither drains the heap nor moves the clock.
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert fired == [] and sim.now == 0.0
        sim.run()
        assert fired == [1.0]

    def test_schedule_at(self):
        sim = Simulation()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]

    def test_determinism(self):
        def run_once():
            sim = Simulation()
            trace = []
            for i in range(10):
                sim.schedule((i * 7) % 5 + 0.5, lambda i=i: trace.append(i))
            sim.run()
            return trace

        assert run_once() == run_once()

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


class TestThroughputResource:
    @staticmethod
    def request(pipe, service: float) -> float:
        """Take a turn on the pipe: its completion instant."""
        return pipe.commit(pipe.head(), service)

    def test_serial_transfers(self):
        sim = Simulation()
        pipe = ThroughputResource(sim, bandwidth=100.0)
        assert self.request(pipe, 200 / pipe.bandwidth) == 2.0
        assert self.request(pipe, 100 / pipe.bandwidth) == 3.0

    def test_bandwidth_validation(self):
        with pytest.raises(SimulationError):
            ThroughputResource(Simulation(), bandwidth=0)

    def test_idle_gap_then_transfer(self):
        sim = Simulation()
        pipe = ThroughputResource(sim, bandwidth=10.0)
        done = []
        sim.schedule(5.0, lambda: done.append(self.request(pipe, 10 / pipe.bandwidth)))
        sim.run()
        assert done == [6.0]

    def test_wait_and_eta_price_the_queue(self):
        sim = Simulation()
        pipe = ThroughputResource(sim, bandwidth=100.0)
        assert pipe.wait() == 0.0 and pipe.eta(50) == 0.5
        self.request(pipe, 200 / pipe.bandwidth)
        assert pipe.free_at == 2.0 and pipe.wait() == 2.0
        assert pipe.eta(50, ios=2, overhead=0.25) == 3.0
        sim.run(until=1.5)
        assert pipe.wait() == 0.5
        sim.run(until=4.0)
        assert pipe.wait() == 0.0  # never negative once the pipe is idle

    def test_reservation_and_transfer_share_one_fifo(self):
        """A request whose service time is measured at the head of the
        queue and one priced by its size up front queue in one FIFO, and
        a coroutine awaiting each wakes at its completion."""
        loop = SimLoop()
        pipe = ThroughputResource(loop.sim, bandwidth=100.0)
        woke = []

        async def reservation():
            start = pipe.head()
            # The service time is whatever the caller measured once at the head.
            await loop.sleep_until(pipe.commit(start, 0.75))
            woke.append(("reservation", start, loop.now))

        async def transfer(nbytes):
            start = pipe.head()
            await loop.sleep_until(pipe.commit(start, nbytes / pipe.bandwidth))
            woke.append(("transfer", start, loop.now))

        tasks = [transfer(100), reservation(), transfer(25)]
        loop.run_until_complete(loop.gather(*map(loop.create_task, tasks)))
        assert woke == [("transfer", 0.0, 1.0), ("reservation", 1.0, 1.75), ("transfer", 1.75, 2.0)]
        assert pipe.head() == loop.now == 2.0

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
