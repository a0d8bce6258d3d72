"""Generator-based discrete-event simulation kernel.

The kernel is deliberately small: an event heap of ``(time, priority,
sequence, handle)`` tuples, a virtual clock, and coroutine processes.  A
process is a Python generator that ``yield``s *waitables*:

* a non-negative ``float``/``int`` — sleep for that many simulated seconds;
* a :class:`Signal` — park until someone calls :meth:`Signal.trigger`;
* another :class:`Process` — join it (the yield evaluates to its result);
* :class:`AllOf` / :class:`AnyOf` — combinators over waitables;
* a :class:`Timeout` wrapper — like joining, but bounded in time.

Example
-------
>>> sim = Simulator()
>>> def pinger(sim, sig):
...     yield 1.5
...     sig.trigger("pong")
>>> def waiter(sim, sig):
...     value = yield sig
...     return (sim.now, value)
>>> sig = Signal(sim)
>>> sim.process(pinger(sim, sig))            # doctest: +ELLIPSIS
<Process ...>
>>> p = sim.process(waiter(sim, sig))
>>> sim.run()
>>> p.result
(1.5, 'pong')
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "AllOf",
    "AnyOf",
    "Timeout",
    "Interrupt",
]


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Handle:
    """Cancellable handle for a scheduled callback.

    The heap holds ``(time, priority, seq, handle)`` tuples, so heap
    comparisons run on plain tuples in C (``seq`` is unique, so the
    handle itself is never compared).  Cancelling drops the callback,
    which frees its closure at once and marks the heap entry stale.
    """

    __slots__ = ("time", "fn")

    def __init__(self, time: float, fn: Callable[[], None]):
        #: absolute simulated time the callback is (or was) due
        self.time = time
        self.fn: Optional[Callable[[], None]] = fn

    @property
    def active(self) -> bool:
        """False once cancelled; firing does not clear it."""
        return self.fn is not None

    def cancel(self) -> None:
        self.fn = None


class Simulator:
    """Virtual clock + event heap.

    Parameters
    ----------
    start:
        Initial simulated time (seconds).
    profiler:
        Optional :class:`repro.obs.KernelProfiler` (duck-typed to keep the
        kernel dependency-free: anything with ``run_callback(fn, sim_time)``).
        When set, every event executes through it for wall-time attribution,
        tagged with the simulated time it fired at.
    """

    def __init__(self, start: float = 0.0, profiler: Optional[Any] = None):
        self._now = float(start)
        self._heap: list[tuple[float, int, int, Handle]] = []
        self._seq = itertools.count()
        self._running = False
        self._active_processes = 0
        self.profiler = profiler

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- raw callback scheduling -------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None], priority: int = 0) -> Handle:
        """Run ``fn()`` after *delay* simulated seconds.

        ``priority`` breaks ties at equal times (lower runs first).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past (now={self._now})")
        time = self._now + delay
        handle = Handle(time, fn)
        heapq.heappush(self._heap, (time, priority, next(self._seq), handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[[], None], priority: int = 0) -> Handle:
        """Run ``fn()`` at absolute simulated *time*."""
        return self.schedule(time - self._now, fn, priority)

    # -- processes ----------------------------------------------------------

    def process(self, gen: Generator, name: str = "") -> "Process":
        """Spawn *gen* as a process; it starts at the current time."""
        return Process(self, gen, name=name)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns False if the heap is empty."""
        heap = self._heap
        while heap:
            time, _priority, _seq, handle = heapq.heappop(heap)
            fn = handle.fn
            if fn is None:
                continue
            if time < self._now - 1e-12:
                raise SimulationError("event heap corrupted: time went backwards")
            self._now = max(self._now, time)
            prof = self.profiler
            if prof is None:
                fn()
            else:
                # Event-type hook: the profiler attributes wall time to the
                # callback's definition site and correlates it with the
                # simulated instant the event fired at.
                prof.run_callback(fn, self._now)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run until the heap drains or the clock passes *until*.

        ``max_events`` is a runaway-loop backstop.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            for _ in range(max_events):
                if until is not None:
                    # Peek: stop before executing events beyond the horizon.
                    while self._heap and self._heap[0][3].fn is None:
                        heapq.heappop(self._heap)
                    if not self._heap or self._heap[0][0] > until:
                        self._now = max(self._now, until)
                        return
                if not self.step():
                    return
            raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
        finally:
            self._running = False

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None."""
        while self._heap and self._heap[0][3].fn is None:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def run_until_triggered(
        self,
        signal: "Signal",
        horizon: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> bool:
        """Step until *signal* triggers (e.g. a Process's ``done``).

        Unlike :meth:`run`, this stops as soon as the condition holds, so
        perpetual background processes (cross-traffic generators) don't
        keep the simulation alive forever.  Returns True if the signal
        triggered, False if the heap drained or *horizon* passed first.
        """
        for _ in range(max_events):
            if signal.triggered:
                return True
            upcoming = self.peek()
            if upcoming is None:
                return signal.triggered
            if horizon is not None and upcoming > horizon:
                self._now = max(self._now, horizon)
                return signal.triggered
            self.step()
        raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")


# ---------------------------------------------------------------------------
# Waitables
# ---------------------------------------------------------------------------


class _Waitable:
    """Anything a process can yield.  Subclasses implement ``_subscribe``."""

    def _subscribe(self, sim: Simulator, callback: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        """Arrange for ``callback(value, exc)`` to fire exactly once.

        Returns a detach function used to cancel interest (for AnyOf /
        interrupts).
        """
        raise NotImplementedError


class Signal(_Waitable):
    """A one-shot level-triggered event: once triggered, stays triggered.

    Waiters that arrive after the trigger resume immediately (on the next
    event-loop tick, preserving causality).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self._sim = sim
        self.name = name
        self._triggered = False
        self._failed: Optional[BaseException] = None
        self._value: Any = None
        self._callbacks: list[Callable[[Any, Optional[BaseException]], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"signal {self.name!r} not yet triggered")
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the signal, waking all current and future waiters."""
        if self._triggered:
            raise SimulationError(f"signal {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self._sim.schedule(0.0, lambda cb=cb: cb(value, None))

    def fail(self, exc: BaseException) -> None:
        """Fire the signal with an exception; waiters see it raised."""
        if self._triggered:
            raise SimulationError(f"signal {self.name!r} already triggered")
        self._triggered = True
        self._failed = exc
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self._sim.schedule(0.0, lambda cb=cb: cb(None, exc))

    def _subscribe(self, sim, callback):
        if self._triggered:
            handle = sim.schedule(0.0, lambda: callback(self._value, self._failed))
            return handle.cancel
        self._callbacks.append(callback)

        def detach() -> None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

        return detach


class Timeout(_Waitable):
    """Wait for an inner waitable with a deadline.

    Yields ``(done, value)``: ``(True, value)`` if the inner waitable
    completed in time, ``(False, None)`` on timeout.  Inner failures are
    re-raised.
    """

    def __init__(self, inner: Any, timeout: float):
        if timeout < 0:
            raise SimulationError(f"timeout must be >= 0, got {timeout}")
        self.inner = inner
        self.timeout = timeout

    def _subscribe(self, sim, callback):
        done = False
        detach_inner: Optional[Callable[[], None]] = None

        def on_inner(value, exc):
            nonlocal done
            if done:
                return
            done = True
            timer.cancel()
            if exc is not None:
                callback(None, exc)
            else:
                callback((True, value), None)

        def on_timer():
            nonlocal done
            if done:
                return
            done = True
            if detach_inner is not None:
                detach_inner()
            callback((False, None), None)

        timer = sim.schedule(self.timeout, on_timer)
        detach_inner = _normalize(self.inner)._subscribe(sim, on_inner)

        def detach():
            timer.cancel()
            if detach_inner is not None:
                detach_inner()

        return detach


class _Delay(_Waitable):
    def __init__(self, dt: float):
        if dt < 0:
            raise SimulationError(f"cannot sleep a negative duration: {dt}")
        self.dt = dt

    def _subscribe(self, sim, callback):
        handle = sim.schedule(self.dt, lambda: callback(None, None))
        return handle.cancel


class AllOf(_Waitable):
    """Wait for every waitable; yields the list of their values in order."""

    def __init__(self, waitables: Iterable[Any]):
        self.waitables = [_normalize(w) for w in waitables]

    def _subscribe(self, sim, callback):
        n = len(self.waitables)
        if n == 0:
            handle = sim.schedule(0.0, lambda: callback([], None))
            return handle.cancel
        results: list[Any] = [None] * n
        remaining = n
        failed = False
        detachers: list[Callable[[], None]] = []

        def make_cb(i):
            def cb(value, exc):
                nonlocal remaining, failed
                if failed:
                    return
                if exc is not None:
                    failed = True
                    for d in detachers:
                        d()
                    # resolved: drop the detachers, whose closures refer
                    # back to these callbacks (a cycle only a full GC frees)
                    detachers.clear()
                    callback(None, exc)
                    return
                results[i] = value
                remaining -= 1
                if remaining == 0:
                    detachers.clear()
                    callback(list(results), None)

            return cb

        for i, w in enumerate(self.waitables):
            detachers.append(w._subscribe(sim, make_cb(i)))

        def detach():
            for d in detachers:
                d()

        return detach


class AnyOf(_Waitable):
    """Wait for the first waitable; yields ``(index, value)``."""

    def __init__(self, waitables: Iterable[Any]):
        self.waitables = [_normalize(w) for w in waitables]
        if not self.waitables:
            raise SimulationError("AnyOf requires at least one waitable")

    def _subscribe(self, sim, callback):
        done = False
        detachers: list[Callable[[], None]] = []

        def make_cb(i):
            def cb(value, exc):
                nonlocal done
                if done:
                    return
                done = True
                for j, d in enumerate(detachers):
                    if j != i:
                        d()
                detachers.clear()  # as in AllOf: break the callback cycle
                if exc is not None:
                    callback(None, exc)
                else:
                    callback((i, value), None)

            return cb

        for i, w in enumerate(self.waitables):
            detachers.append(w._subscribe(sim, make_cb(i)))

        def detach():
            for d in detachers:
                d()

        return detach


def _normalize(obj: Any) -> _Waitable:
    """Coerce a yielded object into a waitable."""
    if isinstance(obj, _Waitable):
        return obj
    if isinstance(obj, Process):
        return obj.done
    if isinstance(obj, (int, float)):
        return _Delay(float(obj))
    if isinstance(obj, (list, tuple)):
        return AllOf(obj)
    raise SimulationError(f"cannot wait on {obj!r} (type {type(obj).__name__})")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Process:
    """A running coroutine inside the simulator.

    Created via :meth:`Simulator.process`.  The generator's return value
    becomes :attr:`result`; uncaught exceptions propagate to joiners and,
    if nobody joins, re-raise when :attr:`result` is read.
    """

    _ids = itertools.count(1)

    def __init__(self, sim: Simulator, gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.pid = next(Process._ids)
        self.name = name or f"proc-{self.pid}"
        self.done = Signal(sim, name=f"{self.name}.done")
        self._detach_current: Optional[Callable[[], None]] = None
        self._interrupted: Optional[Interrupt] = None
        sim.schedule(0.0, lambda: self._resume(None, None))

    def __repr__(self) -> str:
        state = "done" if self.done.triggered else "running"
        return f"<Process {self.name} pid={self.pid} {state}>"

    # -- public API ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def result(self) -> Any:
        """Return value of the generator; raises its uncaught exception."""
        if not self.done.triggered:
            raise SimulationError(f"{self.name} has not finished")
        if self.done._failed is not None:
            raise self.done._failed
        return self.done.value

    @property
    def error(self) -> Optional[BaseException]:
        if not self.done.triggered:
            return None
        return self.done._failed

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.done.triggered:
            return
        self._interrupted = Interrupt(cause)
        if self._detach_current is not None:
            self._detach_current()
            self._detach_current = None
        self.sim.schedule(0.0, self._deliver_interrupt)

    def abandon(self) -> None:
        """Stop the process where it stands, running nothing.

        Its current wait is detached, so no event will resume it, and
        its generator stays suspended: unlike :meth:`interrupt`, neither
        process code nor a simulator event runs, so the world is left
        exactly as it was.  The process never finishes; its ``finally``
        blocks run only when the generator is garbage collected.
        """
        if self._detach_current is not None:
            self._detach_current()
            self._detach_current = None
        self._interrupted = None

    # -- machinery ------------------------------------------------------------

    def _deliver_interrupt(self) -> None:
        if self.done.triggered or self._interrupted is None:
            return
        exc, self._interrupted = self._interrupted, None
        self._step(lambda: self.gen.throw(exc))

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.done.triggered:
            return
        self._detach_current = None
        if self._interrupted is not None:
            # A pending interrupt supersedes the normal resumption.
            return
        if exc is not None:
            self._step(lambda: self.gen.throw(exc))
        else:
            self._step(lambda: self.gen.send(value))

    def _step(self, advance: Callable[[], Any]) -> None:
        try:
            yielded = advance()
        except StopIteration as stop:
            self.done.trigger(stop.value)
            return
        except Interrupt as exc:
            # Process chose not to handle its interrupt: treat as cancelled.
            # The interrupt is discarded here, so drop its traceback: the
            # frames in it refer back to the interrupt (the closure that
            # threw it), a cycle holding the process's world until a full
            # garbage collection.
            exc.__traceback__ = None
            self.done.trigger(None)
            return
        except Exception as exc:  # noqa: BLE001 - propagate to joiners
            self.done.fail(exc)
            return
        try:
            waitable = _normalize(yielded)
        except SimulationError as exc:
            self._step(lambda: self.gen.throw(exc))
            return
        self._detach_current = waitable._subscribe(self.sim, self._resume)
