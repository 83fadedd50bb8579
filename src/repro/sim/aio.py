"""Coroutine scheduling on the discrete-event simulation engine.

The serving gateway needs *concurrency* — thousands of in-flight client
requests queueing on shared disks — which the synchronous storage paths
(one global clock advanced in program order) cannot express.  Rather
than pull in ``asyncio`` (whose event loop runs on wall-clock time and
cannot be driven by :class:`~repro.sim.engine.Simulation`), this module
implements the minimal awaitable protocol directly on the sim engine:

* :class:`SimFuture` — a one-shot result container that coroutines can
  ``await``.
* :class:`SimTask` — a future that drives a coroutine, resuming it each
  time an awaited future resolves.
* :class:`SimLoop` — ties tasks to a :class:`Simulation`: ``sleep``
  parks a coroutine on the event heap, ``gather`` joins a batch,
  ``first_success`` races hedged attempts.

Determinism: tasks interleave in the engine's FIFO ``(time, seq)``
order, so repeated runs with the same seeds produce identical traces —
the same property the rest of the engine guarantees, extended to
coroutines.  A task's start and each resumption are events at the
current instant (*hops*: they only hand control on), and a hop is
skipped only when it cannot change that order.  A resolution that is the
last thing an event does — a sleep's timer, a task's last step — steps
the one task it wakes right there when nothing else is due at that
instant, since the resumption it would queue is then the next event
dispatched anyway; with anything else due, the resumption is queued.
``SimLoop._take_turn`` lets a task do work it would have handed to a
task of its own under the same rule: it takes the turn that task's
start would have taken only when something else is due.
There is no cancellation: a losing hedge runs to completion (its disk
time was genuinely consumed) and its result is discarded by the caller.
"""

from __future__ import annotations

from collections.abc import Callable, Coroutine

from repro.sim.engine import Simulation, SimulationError

_PENDING = object()
_INF = float("inf")


class _Turn:
    """Awaited by a task, queues the task's next step at the current instant."""

    __slots__ = ()

    def __await__(self):
        yield self


_TURN = _Turn()


class SimFuture:
    """A one-shot awaitable result, resolved from sim event handlers."""

    __slots__ = ("loop", "name", "_result", "_exception", "_callbacks")

    def __init__(self, loop: "SimLoop", name: str = ""):
        self.loop = loop
        self.name = name
        self._result = _PENDING
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []

    def done(self) -> bool:
        return self._result is not _PENDING or self._exception is not None

    def exception(self) -> BaseException | None:
        return self._exception

    def result(self):
        if self._exception is not None:
            raise self._exception
        if self._result is _PENDING:
            raise SimulationError(f"future {self.name or id(self)} is not done")
        return self._result

    def set_result(self, value) -> None:
        if self.done():
            raise SimulationError(f"future {self.name or id(self)} already resolved")
        self._result = value
        self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self.done():
            raise SimulationError(f"future {self.name or id(self)} already resolved")
        self._exception = exc
        self._fire()

    def _wake(self) -> None:
        """``set_result(None)`` as a bound method: what a sleep timer schedules."""
        self._settle(None, None)

    def _settle(self, value, exc: BaseException | None) -> None:
        """Resolve, as the last thing the current event does (a sleep's
        timer, a task's last step).

        If nothing else is due at this instant and resolving queues one
        task step — the resumption of a task parked on this future, or on
        a gather this completes — that step would be the next event
        dispatched anyway, so it runs here, in this event.
        """
        sim = self.loop.sim
        if sim._due():
            self._resolve(value, exc)
            return
        callbacks = self._callbacks
        if len(callbacks) == 1 and getattr(callbacks[0], "__func__", None) is SimTask._resume:
            # One task parked here: hand it the outcome without queueing.
            task = callbacks[0].__self__
            self._callbacks = []
            if exc is None:
                self._result = task._wake_value = value
            else:
                self._exception = task._wake_exc = exc
            task._step()
            return
        self._resolve(value, exc)
        ready = sim._ready
        if len(ready) == 1 and getattr(ready[0][0], "__func__", None) is SimTask._step:
            ready.popleft()[0]()

    def _resolve(self, value, exc: BaseException | None) -> None:
        if exc is None:
            self.set_result(value)
        else:
            self.set_exception(exc)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        """Invoke ``cb(self)`` once resolved (immediately if already done)."""
        if self.done():
            cb(self)
        else:
            self._callbacks.append(cb)

    def __await__(self):
        if not self.done():
            yield self
        return self.result()


class SimTask(SimFuture):
    """A future driven by a coroutine.

    The coroutine's first step is scheduled at the *current* sim instant
    (FIFO with everything else scheduled now), matching asyncio's
    create-then-run-soon semantics; each ``await`` on a
    :class:`SimFuture` parks it until that future resolves, and
    resumptions are likewise deferred through the engine (unless nothing
    else is due as a sleep's timer or a task's last step wakes it: see
    :meth:`SimFuture._settle`).

    A resumption is the bound :meth:`_step` scheduled under the task's
    name; what to resume *with* waits on the task itself
    (``_wake_value`` / ``_wake_exc``), so no event allocates a closure.
    A task awaits one future at a time, so one pair of slots suffices.
    """

    __slots__ = ("coro", "_wake_value", "_wake_exc")

    def __init__(self, loop: "SimLoop", coro: Coroutine, name: str = ""):
        super().__init__(loop, name or getattr(coro, "__name__", "task"))
        self.coro = coro
        self._wake_value = None
        self._wake_exc: BaseException | None = None
        loop.sim.schedule(0.0, self._step, self.name)

    def _step(self) -> None:
        value, exc = self._wake_value, self._wake_exc
        # Dropped before the coroutine runs: a parked or finished task
        # must not pin the last payload it was handed.
        self._wake_value = self._wake_exc = None
        try:
            awaited = self.coro.throw(exc) if exc is not None else self.coro.send(value)
        except StopIteration as stop:
            self._settle(stop.value, None)
            return
        except BaseException as failure:  # noqa: BLE001 - tasks capture any failure
            self._settle(None, failure)
            return
        if not isinstance(awaited, SimFuture):
            if awaited is _TURN:
                self.loop.sim.schedule(0.0, self._step, self.name)
                return
            self.coro.close()
            self.set_exception(
                SimulationError(
                    f"task {self.name!r} awaited {type(awaited).__name__}; "
                    "only SimFuture/SimTask (sleep, gather, tasks) can be awaited on a SimLoop"
                )
            )
            return
        awaited.add_done_callback(self._resume)

    def _resume(self, fut: SimFuture) -> None:
        self._wake_value = fut._result  # the pending marker when it failed; never sent
        self._wake_exc = fut._exception
        self.loop.sim.schedule(0.0, self._step, self.name)


class SimLoop:
    """Coroutine front end over one :class:`Simulation`."""

    def __init__(self):
        self.sim = Simulation()

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------- spawning

    def create_task(self, coro: Coroutine, name: str = "") -> SimTask:
        """Start a coroutine concurrently; returns its task/future."""
        return SimTask(self, coro, name=name)

    def future(self, name: str = "") -> SimFuture:
        return SimFuture(self, name=name)

    # ------------------------------------------------------------- awaiting

    def sleep(self, delay: float) -> SimFuture:
        """An awaitable that resolves ``delay`` sim-seconds from now (now
        when ``delay`` is negative).

        Raises:
            SimulationError: ``delay`` is NaN or infinite.
        """
        if delay < 0.0 and delay != -_INF:
            delay = 0.0
        fut = SimFuture(self, name="sleep")
        self.sim.schedule(delay, fut._wake, "sleep")
        return fut

    def sleep_until(self, when: float) -> SimFuture:
        return self.sleep(when - self.sim.now)

    async def _take_turn(self) -> None:
        """Go on after every event already due at this instant, as the
        first step of a task created now would; at once when nothing else
        is due, since that step would then be the next event anyway."""
        if self.sim._due():
            await _TURN

    def gather(self, *futures: SimFuture) -> SimFuture:
        """Join a batch: resolves with the list of results, in order.

        The first failure resolves the gather with that exception; the
        remaining futures keep running (no cancellation) and later
        outcomes are ignored.
        """
        out = SimFuture(self, name="gather")
        if not futures:
            out.set_result([])
            return out
        remaining = [len(futures)]

        def on_done(_fut: SimFuture) -> None:
            if out.done():
                return
            remaining[0] -= 1
            failed = next((f.exception() for f in futures if f.done() and f.exception()), None)
            if failed is not None:
                out.set_exception(failed)
            elif remaining[0] == 0:
                out.set_result([f.result() for f in futures])

        for fut in futures:
            fut.add_done_callback(on_done)
        return out

    def first_success(self, *futures: SimFuture) -> SimFuture:
        """Race several attempts; resolves with ``(index, result)`` of the
        first to *succeed*.

        Losers are left running — callers that care (hedged reads) hook
        their completion with ``add_done_callback`` to count discards.
        Only when every attempt has failed does the race fail, with the
        last exception observed.
        """
        if not futures:
            raise SimulationError("first_success needs at least one future")
        out = SimFuture(self, name="first_success")
        remaining = [len(futures)]

        def on_done(index: int):
            def cb(fut: SimFuture) -> None:
                if out.done():
                    return
                remaining[0] -= 1
                if fut.exception() is None:
                    out.set_result((index, fut.result()))
                elif remaining[0] == 0:
                    out.set_exception(fut.exception())
            return cb

        for i, fut in enumerate(futures):
            fut.add_done_callback(on_done(i))
        return out

    # -------------------------------------------------------------- running

    def run(self) -> float:
        """Drive the simulation until idle; returns sim time."""
        return self.sim.run()

    def run_until_complete(self, task: SimFuture) -> object:
        """Run the simulation until ``task`` resolves; returns its result."""
        self.sim.run()
        if not task.done():
            raise SimulationError(
                f"simulation went idle with task {task.name!r} still pending "
                "(deadlocked await?)"
            )
        return task.result()
