"""The discrete-event simulation kernel: clock, queue, and processes.

A :class:`Simulator` owns a priority queue of (time, priority, seq,
event) entries.  :class:`Process` wraps a Python generator; the
generator yields :class:`~repro.sim.events.Event` objects and is resumed
with each event's value once it fires.  A process is itself an event
that succeeds with the generator's return value, so processes compose:

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        assert value == 42

The kernel is single-threaded and deterministic: ties in time are broken
by priority band, then by insertion order.
"""

from __future__ import annotations

import heapq
import typing as t

from ..errors import ProcessKilled, SimulationError
from .events import (
    AllOf, AnyOf, Event, FlowEvent, Timeout, PRIORITY_NORMAL, PRIORITY_URGENT)
from .rng import RngRegistry

ProcessGenerator = t.Generator[Event, t.Any, t.Any]


class QueueEntry(t.Protocol):
    """Anything the kernel can pop: it runs ``_run_callbacks()``.

    :class:`Event` is the general case.  Plain timers (:class:`_Call`)
    and link deliveries (``repro.net.link._Arrival``) use smaller
    entries that nothing can wait on.
    """

    def _run_callbacks(self) -> None: ...


class _Call:
    """The queue entry of :meth:`Simulator.call_later`: ``fn(*args)``."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: t.Callable[..., None], args: t.Tuple[t.Any, ...]) -> None:
        self.fn = fn
        self.args = args

    def _run_callbacks(self) -> None:
        self.fn(*self.args)


class Process(Event):
    """A running coroutine process, itself awaitable as an event."""

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: t.Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}; "
                "did you forget to call the generator function?")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: t.Optional[Event] = None
        # Kick-start the generator at the current simulated time.
        Event._prompt(sim, self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: t.Any = None) -> None:
        """Throw :class:`ProcessKilled` into the process.

        The interrupt is delivered as an urgent event at the current
        time, so it wins ties against ordinary events.  Interrupting a
        finished process is a silent no-op, which makes watchdog timers
        safe to leave running.
        """
        if self.triggered:
            return
        Event._prompt(self.sim, self._resume, ok=False,
                      value=ProcessKilled(cause), priority=PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return  # finished before a stale callback arrived
        self._waiting_on = None
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as exc:
            # The process chose not to handle its interrupt; propagate
            # as a failure of the process event.
            self.fail(exc)
            return
        except Exception as exc:
            # An unhandled exception terminates *this process*, failing
            # its event for anyone awaiting it — it must not take the
            # whole simulation down (orphaned processes may fail long
            # after their parents stopped caring).
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes may only yield Event instances")
        if target.sim is not self.sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event from a different simulator")
        self._waiting_on = target
        target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    The simulator owns the experiment's :class:`RngRegistry`: every
    stochastic component defaults to a named stream from ``sim.rng``
    (``"link.loss"``, ``"gfw.interference"``, ...), so one ``seed``
    fixes the entire trace.  Components still accept an injected
    ``rng=`` for tests that want a private stream.
    """

    def __init__(self, seed: int = 0,
                 rng: t.Optional[RngRegistry] = None) -> None:
        self._now = 0.0
        self._queue: t.List[t.Tuple[float, int, int, QueueEntry]] = []
        self._seq = 0
        self._running = False
        self.rng = rng if rng is not None else RngRegistry(seed)
        #: Optional fluid-flow registry (see :mod:`repro.perf.fluid`).
        #: ``None`` means pure packet mode; components must treat that
        #: as "no fast path" so packet-mode traces are bit-unchanged.
        self.fluid: t.Optional[t.Any] = None
        #: Optional edge-cache registry (see :mod:`repro.cache`).
        #: ``None`` means no caches are deployed; policy-change hooks
        #: must treat that as "nothing to invalidate".
        self.caches: t.Optional[t.Any] = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create an undecided event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: t.Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def flow_event(self, delay: float, flow: t.Any, kind: str,
                   value: t.Any = None) -> FlowEvent:
        """Create a coarse-grained flow event ``delay`` seconds from now."""
        return FlowEvent(self, delay, flow, kind, value)

    def process(
        self,
        generator: ProcessGenerator,
        name: t.Optional[str] = None,
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: t.Sequence[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: t.Sequence[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule_event(self, event: QueueEntry, priority: int, delay: float) -> None:
        # Each entry takes exactly one sequence number, so ties at one
        # instant fire in insertion order whatever the entry's type.
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def schedule(
        self,
        delay: float,
        callback: t.Callable[[], None],
    ) -> Event:
        """Run a plain callback after ``delay`` seconds; returns its event."""
        timer = self.timeout(delay)
        timer.add_callback(lambda _event: callback())
        return timer

    def call_later(self, delay: float, fn: t.Callable[..., None],
                   *args: t.Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds; nothing to await.

        The cheap form of :meth:`schedule` for timers whose event no
        one uses: one queue entry, no ``Timeout`` and no closure.  It
        takes the same single sequence number, so event order is the
        same as with :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        self._schedule_event(_Call(fn, args), PRIORITY_NORMAL, delay)

    # -- execution -----------------------------------------------------------

    def step(self) -> float:
        """Process the next scheduled event; returns its timestamp."""
        if not self._queue:
            raise SimulationError("simulation queue is empty")
        when, _priority, _seq, event = heapq.heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")  # pragma: no cover
        self._now = when
        event._run_callbacks()
        return when

    def peek(self) -> float:
        """Timestamp of the next event, or ``float('inf')`` if idle."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def run(
        self,
        until: t.Union[None, float, Event] = None,
        max_events: t.Optional[int] = None,
    ) -> t.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until the queue drains.  A float runs until
            that simulated time.  An :class:`Event` runs until the event
            fires and returns its value (raising its exception if the
            event failed).
        max_events:
            Safety valve for tests; raise if exceeded.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            return self._run_inner(until, max_events)
        finally:
            self._running = False

    def _run_inner(
        self,
        until: t.Union[None, float, Event],
        max_events: t.Optional[int],
    ) -> t.Any:
        stop_event: t.Optional[Event] = None
        stop_time: t.Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})")
        processed = 0
        while self._queue:
            if stop_event is not None and stop_event.processed:
                break
            if stop_time is not None and self._queue[0][0] > stop_time:
                self._now = stop_time
                break
            self.step()
            processed += 1
            if max_events is not None and processed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run() ended before its target event fired (deadlock?)")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if stop_time is not None and self._now < stop_time:
            self._now = stop_time
        return None
