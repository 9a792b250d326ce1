"""Shared-resource models for the kernel.

Three resources cover everything the reproduction needs:

* :class:`Resource` — a counted semaphore with a FIFO wait queue
  (e.g. a proxy's connection-slot limit).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``
  (e.g. a NIC receive queue feeding a protocol process).
* :class:`ProcessorSharingServer` — an egalitarian processor-sharing
  CPU, the queueing model behind the paper's Figure 7 scalability
  experiment: every in-flight request receives ``capacity / n`` service
  rate, so response time inflates smoothly with load and saturates when
  demand exceeds capacity.
"""

from __future__ import annotations

import typing as t
from collections import deque

from ..errors import SimulationError
from .events import Event
from .kernel import Simulator


class Resource:
    """Counted resource with FIFO queueing.

    Usage from a process::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: t.Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires once a slot is held."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    Slotted and list-backed: every TCP connection owns one, and its
    queues hold a handful of entries at most, where an empty ``deque``
    alone costs several hundred bytes.  ``pop(0)`` on such short lists
    is as cheap as ``popleft``.
    """

    __slots__ = ("sim", "_items", "_getters", "_watchers")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: t.List[t.Any] = []
        self._getters: t.List[Event] = []
        self._watchers: t.List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: t.Any) -> None:
        """Deposit ``item``, waking the oldest blocked getter if any."""
        if self._getters:
            getter = self._getters.pop(0)
            getter.succeed(item)
        else:
            self._items.append(item)
            watchers, self._watchers = self._watchers, []
            for watcher in watchers:
                if not watcher.triggered:
                    watcher.succeed(None)

    def watch(self) -> Event:
        """Event that fires once an item is *queued* (without taking it).

        Unlike :meth:`get`, abandoning a watch event loses nothing —
        useful for long-poll patterns that race a timeout against
        item availability.
        """
        event = self.sim.event()
        if self._items:
            event.succeed(None)
        else:
            self._watchers.append(event)
        return event

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> t.Tuple[bool, t.Any]:
        """Take the next item without blocking.

        Returns ``(True, item)`` if one was queued, ``(False, None)``
        otherwise.  The fluid fast path uses this to drain a batch of
        already-delivered messages in a single process resumption
        instead of one event round-trip per item.
        """
        if self._items:
            return True, self._items.pop(0)
        return False, None

    def fail_getters(self, make_error: t.Callable[[], BaseException]) -> None:
        """Fail every blocked ``get``, oldest first, each with a fresh error.

        The owner calls this when its source dies (a reset connection,
        a failed tunnel): readers must not wait for items that will
        never come.
        """
        getters, self._getters = self._getters, []
        for getter in getters:
            getter.fail(make_error())


class _PsJob:
    __slots__ = ("remaining", "event", "last_update")

    def __init__(self, demand: float, event: Event, now: float) -> None:
        self.remaining = demand
        self.event = event
        self.last_update = now


class ProcessorSharingServer:
    """An M/G/1-PS style CPU: all jobs share ``capacity`` equally.

    ``capacity`` is in work-units per second; a job submitted with
    ``demand`` work-units completes after ``demand * n / capacity``
    seconds when ``n`` jobs are continuously present.  Completion times
    are recomputed on every arrival and departure, which is exact for
    egalitarian processor sharing.
    """

    def __init__(self, sim: Simulator, capacity: float = 1.0, name: str = "cpu") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._jobs: t.List[_PsJob] = []
        self._wakeup: t.Optional[Event] = None
        self._busy_time = 0.0
        self._last_busy_update = 0.0

    @property
    def load(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` during which the CPU was busy."""
        self._account_busy()
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / horizon)

    def submit(self, demand: float) -> Event:
        """Submit a job of ``demand`` work-units; event fires at completion."""
        if demand < 0:
            raise SimulationError(f"negative demand: {demand}")
        event = self.sim.event()
        if demand == 0:
            event.succeed(None)
            return event
        self._drain_progress()
        self._jobs.append(_PsJob(demand, event, self.sim.now))
        self._reschedule()
        return event

    # -- internals ---------------------------------------------------------

    def _account_busy(self) -> None:
        now = self.sim.now
        if self._jobs:
            self._busy_time += now - self._last_busy_update
        self._last_busy_update = now

    def _drain_progress(self) -> None:
        """Apply service accrued since the last event to every job."""
        self._account_busy()
        now = self.sim.now
        if not self._jobs:
            return
        rate = self.capacity / len(self._jobs)
        for job in self._jobs:
            job.remaining -= rate * (now - job.last_update)
            job.last_update = now

    def _reschedule(self) -> None:
        """Re-arm the wakeup timer for the next completion."""
        if self._wakeup is not None:
            # A stale timer may still fire; _on_wakeup tolerates that.
            self._wakeup = None
        if not self._jobs:
            return
        rate = self.capacity / len(self._jobs)
        shortest = min(job.remaining for job in self._jobs)
        delay = max(0.0, shortest / rate)
        timer = self.sim.timeout(delay)
        self._wakeup = timer
        timer.add_callback(self._on_wakeup)

    def _on_wakeup(self, timer: Event) -> None:
        if self._wakeup is not timer:
            return  # superseded by a later arrival
        self._drain_progress()
        finished = [job for job in self._jobs if job.remaining <= 1e-12]
        self._jobs = [job for job in self._jobs if job.remaining > 1e-12]
        self._reschedule()
        for job in finished:
            job.event.succeed(None)
