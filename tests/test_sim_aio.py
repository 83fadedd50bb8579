"""Coroutine scheduling on the sim engine (repro.sim.aio).

The serving gateway's concurrency primitives: futures, tasks, sleep,
gather, and the hedging race.  Everything here runs on simulated time —
a full test run advances zero wall-clock seconds of "sleep".
"""

import pytest

from repro.sim.aio import SimFuture, SimLoop
from repro.sim.engine import SimulationError


@pytest.fixture
def loop():
    return SimLoop()


class TestFuture:
    def test_result_roundtrip(self, loop):
        fut = loop.future("x")
        assert not fut.done()
        fut.set_result(41)
        assert fut.done()
        assert fut.result() == 41

    def test_exception_roundtrip(self, loop):
        fut = loop.future("x")
        fut.set_exception(ValueError("boom"))
        assert fut.done()
        assert isinstance(fut.exception(), ValueError)
        with pytest.raises(ValueError):
            fut.result()

    def test_result_before_done_raises(self, loop):
        with pytest.raises(SimulationError):
            loop.future("x").result()

    def test_double_resolve_rejected(self, loop):
        fut = loop.future("x")
        fut.set_result(1)
        with pytest.raises(SimulationError):
            fut.set_result(2)
        with pytest.raises(SimulationError):
            fut.set_exception(ValueError())

    def test_done_callback_after_resolution_fires_immediately(self, loop):
        fut = loop.future("x")
        fut.set_result(7)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == [7]


class TestTasks:
    def test_task_returns_value(self, loop):
        async def work():
            await loop.sleep(1.5)
            return "done"

        task = loop.create_task(work())
        assert loop.run_until_complete(task) == "done"
        assert loop.now == pytest.approx(1.5)

    def test_tasks_interleave_on_sim_time(self, loop):
        order = []

        async def worker(name, delay):
            await loop.sleep(delay)
            order.append((name, loop.now))

        loop.create_task(worker("slow", 2.0))
        loop.create_task(worker("fast", 1.0))
        loop.run()
        assert order == [("fast", 1.0), ("slow", 2.0)]

    def test_task_exception_captured_not_raised_at_spawn(self, loop):
        async def bad():
            await loop.sleep(0.1)
            raise RuntimeError("late failure")

        task = loop.create_task(bad())
        loop.run()
        assert isinstance(task.exception(), RuntimeError)
        with pytest.raises(RuntimeError):
            task.result()

    def test_awaiting_a_task_propagates_its_result(self, loop):
        async def inner():
            await loop.sleep(1.0)
            return 10

        async def outer():
            return await loop.create_task(inner()) + 1

        assert loop.run_until_complete(loop.create_task(outer())) == 11

    def test_awaiting_non_future_is_a_clear_error(self, loop):
        async def confused():
            import asyncio

            await asyncio.sleep(0)  # wrong loop flavor

        task = loop.create_task(confused())
        loop.run()
        assert isinstance(task.exception(), SimulationError)
        assert "only SimFuture" in str(task.exception())

    def test_deadlocked_task_detected(self, loop):
        async def forever():
            await loop.future("never-resolved")

        task = loop.create_task(forever())
        with pytest.raises(SimulationError, match="still pending"):
            loop.run_until_complete(task)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_sleep_rejected(self, loop, delay):
        with pytest.raises(SimulationError):
            loop.sleep(delay)

    def test_sleep_into_the_past_ends_now(self, loop):
        async def late():
            await loop.sleep(1.0)
            await loop.sleep_until(0.25)
            return loop.now

        assert loop.run_until_complete(loop.create_task(late())) == 1.0

    def test_deterministic_fifo_at_same_instant(self):
        # Two identical loops must produce identical interleavings.
        def trace():
            loop = SimLoop()
            order = []

            async def w(i):
                await loop.sleep(0.0)
                order.append(i)

            for i in range(8):
                loop.create_task(w(i))
            loop.run()
            return order

        assert trace() == trace() == list(range(8))


class TestGather:
    def test_results_in_argument_order(self, loop):
        async def delayed(value, delay):
            await loop.sleep(delay)
            return value

        async def main():
            return await loop.gather(
                loop.create_task(delayed("a", 3.0)),
                loop.create_task(delayed("b", 1.0)),
                loop.create_task(delayed("c", 2.0)),
            )

        assert loop.run_until_complete(loop.create_task(main())) == ["a", "b", "c"]
        assert loop.now == pytest.approx(3.0)

    def test_empty_gather_resolves_immediately(self, loop):
        async def main():
            return await loop.gather()

        assert loop.run_until_complete(loop.create_task(main())) == []

    def test_first_failure_fails_the_gather(self, loop):
        async def ok():
            await loop.sleep(5.0)
            return 1

        async def bad():
            await loop.sleep(1.0)
            raise ValueError("early")

        async def main():
            await loop.gather(loop.create_task(ok()), loop.create_task(bad()))

        task = loop.create_task(main())
        loop.run()
        assert isinstance(task.exception(), ValueError)


class TestFirstSuccess:
    def test_winner_index_and_result(self, loop):
        async def attempt(value, delay):
            await loop.sleep(delay)
            return value

        async def main():
            return await loop.first_success(
                loop.create_task(attempt("primary", 2.0)),
                loop.create_task(attempt("hedge", 0.5)),
            )

        assert loop.run_until_complete(loop.create_task(main())) == (1, "hedge")

    def test_failed_attempt_does_not_win(self, loop):
        async def fails_fast():
            await loop.sleep(0.1)
            raise OSError("dead disk")

        async def succeeds_late():
            await loop.sleep(2.0)
            return "late"

        async def main():
            return await loop.first_success(
                loop.create_task(fails_fast()), loop.create_task(succeeds_late())
            )

        assert loop.run_until_complete(loop.create_task(main())) == (1, "late")

    def test_all_failures_fail_the_race(self, loop):
        async def fails(delay):
            await loop.sleep(delay)
            raise OSError("dead")

        async def main():
            await loop.first_success(
                loop.create_task(fails(0.1)), loop.create_task(fails(0.2))
            )

        task = loop.create_task(main())
        loop.run()
        assert isinstance(task.exception(), OSError)

    def test_empty_race_rejected(self, loop):
        with pytest.raises(SimulationError):
            loop.first_success()

    def test_loser_runs_to_completion(self, loop):
        # No cancellation: the losing attempt's side effects still land,
        # and its completion is observable via add_done_callback — the
        # contract hedged reads use to count discarded losers.
        finished = []

        async def attempt(name, delay):
            await loop.sleep(delay)
            finished.append((name, loop.now))
            return name

        async def main():
            fast = loop.create_task(attempt("fast", 1.0))
            slow = loop.create_task(attempt("slow", 4.0))
            winner = await loop.first_success(fast, slow)
            slow.add_done_callback(lambda f: finished.append(("discarded", loop.now)))
            return winner

        assert loop.run_until_complete(loop.create_task(main())) == (0, "fast")
        assert ("slow", 4.0) in finished
        assert ("discarded", 4.0) in finished


class TestResumption:
    """What a parked task is handed when the future it awaits resolves."""

    def test_resumed_with_value_then_exception_then_value(self, loop):
        # One task, three resumptions of different kinds back to back: what
        # one resumption carried must not leak into the next.
        gates = [loop.future(f"gate{i}") for i in range(3)]
        seen = []

        async def waiter():
            seen.append(await gates[0])
            try:
                await gates[1]
            except KeyError as exc:
                seen.append(exc)
            seen.append(await gates[2])
            return "done"

        task = loop.create_task(waiter(), name="waiter")
        boom = KeyError("boom")
        loop.sim.schedule(1.0, lambda: gates[0].set_result("first"))
        loop.sim.schedule(2.0, lambda: gates[1].set_exception(boom))
        loop.sim.schedule(3.0, lambda: gates[2].set_result(None))
        assert loop.run_until_complete(task) == "done"
        assert seen == ["first", boom, None]

    def test_resumption_is_deferred_through_the_heap(self, loop):
        # Resolving a future does not run the waiter on the resolver's
        # stack; it schedules one event at the current instant.
        gate = loop.future("gate")
        order = []

        async def waiter():
            await gate
            order.append(("waiter", loop.now))

        def resolve():
            gate.set_result(1)
            order.append(("resolver returned", loop.now))

        loop.create_task(waiter())
        loop.sim.schedule(2.0, resolve)
        loop.run()
        assert order == [("resolver returned", 2.0), ("waiter", 2.0)]
        assert loop.sim.events_processed == 3  # first step, resolve, resumption

    def test_awaiting_an_already_done_future_takes_no_event(self, loop):
        ready = loop.future("ready")
        ready.set_result("now")
        failed = loop.future("failed")
        failed.set_exception(OSError("already dead"))

        async def main():
            got = await ready
            with pytest.raises(OSError):
                await failed
            return got

        assert loop.run_until_complete(loop.create_task(main())) == "now"
        assert loop.sim.events_processed == 1  # the task's first step only

    def test_first_success_loser_keeps_being_resumed(self, loop):
        # The loser is parked on a sleep when the race is decided; it is
        # still resumed, with values and with an exception, to its end.
        trail = []

        async def fails():
            await loop.sleep(1.0)
            raise OSError("helper gone")

        async def slow():
            await loop.sleep(2.0)
            trail.append(("slow woke", loop.now))
            try:
                await loop.create_task(fails())
            except OSError:
                trail.append(("slow caught", loop.now))
            await loop.sleep(0.5)
            return "slow"

        async def fast():
            await loop.sleep(0.25)
            return "fast"

        async def main():
            loser = loop.create_task(slow(), name="loser")
            winner = await loop.first_success(loser, loop.create_task(fast()))
            return winner, loser

        winner, loser = loop.run_until_complete(loop.create_task(main()))
        assert winner == (1, "fast")
        assert loser.result() == "slow"
        assert trail == [("slow woke", 2.0), ("slow caught", 3.0)]
        assert loop.now == 3.5

    def test_traced_event_names(self, loop):
        from repro.obs.trace import Tracer, use_tracer

        async def child():
            await loop.sleep(1.0)
            return 7

        async def parent():
            return await loop.create_task(child(), name="child") + 1

        tracer = Tracer()
        with use_tracer(tracer):
            assert loop.run_until_complete(loop.create_task(parent(), name="parent")) == 8
        names = [s.name for s in tracer.spans if s.category == "sim"]
        # Two first steps, then the sleep timer.  Nothing else is due at
        # 1.0, so the timer steps the child in its own event, and the
        # child's last step steps the parent: neither resumption is queued.
        assert names == ["parent", "child", "sleep"]


class TestSameInstantOrder:
    """Who goes first among events due at one instant.

    The orders below are the ``(time, seq)`` orders of a loop that takes
    every hop (each sleep a timer event plus a resumption event, each task
    start and each resumption an event of its own).  A loop that skips a
    hop must skip only one whose event would have been dispatched next
    anyway, so every order here stays as it is.
    """

    def test_two_sleeps_ending_at_one_instant(self, loop):
        # Both timers fire before either sleeper resumes: the first to
        # wake already sees the other's sleep over.
        naps = {}
        order = []

        async def after(name):
            order.append((f"after {name}", loop.now))

        async def sleeper(name, other):
            naps[name] = loop.sleep(1.0)
            await naps[name]
            order.append((name, loop.now, naps[other].done()))
            loop.create_task(after(name))

        loop.create_task(sleeper("a", "b"))
        loop.create_task(sleeper("b", "a"))
        loop.run()
        assert order == [("a", 1.0, True), ("b", 1.0, True), ("after a", 1.0), ("after b", 1.0)]

    def test_sleep_waking_while_other_events_are_due(self, loop):
        # A zero-delay event already queued at the instant, and a timer of
        # the same instant scheduled after the sleep's, both go first: the
        # timer because the engine dispatches every timer due at an instant
        # before the events queued at it.
        order = []

        async def sleeper():
            await loop.sleep(1.0)
            order.append(("sleeper", loop.now))

        def first_at_one():
            order.append(("earlier timer", loop.now))
            loop.sim.schedule(0.0, lambda: order.append(("zero-delay", loop.now)))

        async def main():
            loop.sim.schedule(1.0, first_at_one)
            loop.create_task(sleeper())
            await loop.sleep(0.5)
            loop.sim.schedule(0.5, lambda: order.append(("later timer", loop.now)))

        loop.create_task(main())
        loop.run()
        assert order == [("earlier timer", 1.0), ("later timer", 1.0), ("zero-delay", 1.0), ("sleeper", 1.0)]

    def test_future_resolved_by_a_handler_that_keeps_running(self, loop):
        # The waiter resumes after the resolver returns, and before an
        # event the resolver scheduled after resolving.
        gate = loop.future("gate")
        order = []

        async def waiter():
            order.append(("waiter", await gate, loop.now))

        def resolve():
            gate.set_result("open")
            order.append(("resolver", loop.now))
            loop.sim.schedule(0.0, lambda: order.append(("scheduled after", loop.now)))

        loop.create_task(waiter())
        loop.sim.schedule(2.0, resolve)
        loop.run()
        assert order == [("resolver", 2.0), ("waiter", "open", 2.0), ("scheduled after", 2.0)]

    def test_gather_resolved_by_the_last_of_several_same_instant_tasks(self, loop):
        # The gatherer resumes after everything the parts queued while
        # they finished, not on the stack of the last one.
        order = []

        async def part(i):
            await loop.sleep(1.0)
            order.append((f"part {i}", loop.now))
            if i == 0:
                loop.sim.schedule(0.0, lambda: order.append(("queued by part 0", loop.now)))
            return i

        async def main():
            got = await loop.gather(*(loop.create_task(part(i)) for i in range(3)))
            order.append(("gathered", got, loop.now))

        loop.run_until_complete(loop.create_task(main()))
        assert order == [
            ("part 0", 1.0), ("part 1", 1.0), ("part 2", 1.0),
            ("queued by part 0", 1.0), ("gathered", [0, 1, 2], 1.0),
        ]
