"""Timed repetitions of one workload, their output checks and metrics.

A repetition runs one public scenario function of
:mod:`repro.measure.scenarios` at one seed.  While it runs, the
:class:`Capture` wraps two public entry points from outside the program:

* ``scenarios.prepare`` — to time the testbed build (``setup_s``), mark
  the end of set-up, and keep the world it built, so the run's border
  link, GFW, CPU and fluid counters can be read after the scenario
  returns;
* ``Browser.load`` — to record every page-load result per browser.  The
  first load of each browser is the harness's warm-up; the rest are the
  measured loads.

The simulated metrics of a repetition depend on its seed alone, so a
repetition is summarised by a digest of its sorted PLTs and border
counters; a repeat at the same seed must reproduce it exactly.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import random
import time
import typing as t
from dataclasses import dataclass, field
from unittest import mock


def reset_peak_rss() -> bool:
    """Reset this process's peak resident set size (Linux >= 4.0).

    False when the kernel refuses; the repetition then reports its
    resident size at the end of the run, with the world still alive.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def rss_mb(key: str) -> float:
    """``VmHWM`` (peak) or ``VmRSS`` (current) of this process, in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {key} line in /proc/self/status")


@dataclass
class Rep:
    """One repetition: host timings, measured loads and counters."""

    seed: int
    setup_s: float
    run_wall_s: float
    peak_rss_mb: float
    #: Sorted PLTs of the successful measured loads (simulated seconds).
    plts: t.List[float]
    attempted: int
    failed: int
    #: Every ``Browser.load`` call, warm-ups included.
    loads: int
    counters: t.Dict[str, float]
    #: The scenario's own completed/failed counts, for cross-checking.
    reported: t.Tuple[int, int]
    #: ``(args, kwargs)`` of the repetition's ``prepare`` call.
    prepare_call: t.Tuple[tuple, dict] = field(repr=False, default=((), {}))

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def digest(self) -> str:
        """Fingerprint of every simulated output the metrics come from."""
        material = repr((self.plts, self.attempted, self.failed,
                         sorted(self.counters.items())))
        return hashlib.blake2b(material.encode(), digest_size=16).hexdigest()

    def problems(self) -> t.List[str]:
        """Accounting errors: loads seen here vs. the scenario's report."""
        found = []
        completed, failed = self.reported
        if self.attempted != completed + failed:
            found.append(f"seed {self.seed}: {self.attempted} measured loads "
                         f"seen, scenario reports {completed} completed + "
                         f"{failed} failed")
        if self.completed != completed or len(self.plts) != completed:
            found.append(f"seed {self.seed}: {self.completed} successful loads "
                         f"seen ({len(self.plts)} PLTs), scenario reports "
                         f"{completed}")
        if self.attempted == 0:
            found.append(f"seed {self.seed}: no measured loads")
        return found


class Capture:
    """Wraps ``scenarios.prepare`` and ``Browser.load`` for one repetition.

    ``on_prepared`` runs when set-up ends, before the scenario starts
    its clients (the traced run starts tracing there); the run's wall
    time starts after it.
    """

    def __init__(self, clock: t.Callable[[], float] = time.perf_counter,
                 on_prepared: t.Optional[t.Callable[[], None]] = None) -> None:
        self.clock = clock
        self.on_prepared = on_prepared
        self.world: t.Any = None
        self.setup_s = 0.0
        self.prepared_at = 0.0
        self.prepare_call: t.Tuple[tuple, dict] = ((), {})
        self.results: t.Dict[t.Any, t.List[t.Any]] = {}

    def __enter__(self) -> "Capture":
        from repro.http.browser import Browser
        from repro.measure import scenarios
        capture, prepare, load = self, scenarios.prepare, Browser.load

        def timed_prepare(*args, **kwargs):
            if capture.world is not None:
                raise RuntimeError("scenario called prepare() twice")
            started = capture.clock()
            world = prepare(*args, **kwargs)
            capture.setup_s = capture.clock() - started
            capture.world = world
            capture.prepare_call = (args, kwargs)
            if capture.on_prepared is not None:
                capture.on_prepared()
            capture.prepared_at = capture.clock()
            return world

        def recorded_load(browser, page):
            result = yield from load(browser, page)
            capture.results.setdefault(browser, []).append(result)
            return result

        self._patches = contextlib.ExitStack()
        self._patches.enter_context(
            mock.patch.object(scenarios, "prepare", timed_prepare))
        self._patches.enter_context(
            mock.patch.object(Browser, "load", recorded_load))
        return self

    def __exit__(self, *exc_info: t.Any) -> None:
        self._patches.close()

    def measured(self) -> t.List[t.Any]:
        """Results of the measured loads: all but each browser's first."""
        return [result for results in self.results.values()
                for result in results[1:]]


def world_counters(world: t.Any, result: t.Any) -> t.Dict[str, float]:
    """Layer counters of a finished repetition, read from its world."""
    from repro.measure.metrics import queue_delay_percentiles
    testbed = world.testbed
    border = testbed.border_link
    gfw = testbed.gfw.stats if testbed.gfw is not None else None
    fluid = testbed.fluid.stats if testbed.fluid is not None else None
    domestic = getattr(world.method, "domestic", None)
    cache = result.cache
    report = result.report
    return {
        "border_bytes": sum(border.bytes_sent.values()),
        "border_packets": sum(border.packets_sent.values()),
        "border_dropped": sum(border.packets_dropped.values()),
        "remote_cpu_util": testbed.remote_cpu.utilization(testbed.sim.now),
        "gfw_packets_seen": gfw.packets_seen if gfw else 0,
        "gfw_interference_drops": gfw.interference_drops if gfw else 0,
        "dials_failed": domestic.dials_failed if domestic else 0,
        "deadline_drops": domestic.deadline_drops if domestic else 0,
        "cache_hits": cache.hits if cache else 0,
        "cache_misses": cache.misses if cache else 0,
        "cache_evictions": cache.evictions if cache else 0,
        "cache_bytes_avoided": cache.transpacific_bytes_avoided if cache else 0,
        "offered": report.offered,
        "admitted": report.admitted,
        "shed": report.shed,
        "queue_delay_p95_s": queue_delay_percentiles(
            report.queue_delays, (0.95,))[0.95],
        "fluid_transfers": fluid.transfers if fluid else 0,
        "fluid_fallbacks": sum(fluid.fallbacks.values()) if fluid else 0,
        "fluid_defluidized": sum(fluid.defluidized.values()) if fluid else 0,
    }


def run_rep(run: t.Callable[[int], t.Any], seed: int,
            on_prepared: t.Optional[t.Callable[[], None]] = None,
            on_finished: t.Optional[t.Callable[[], None]] = None,
            clock: t.Callable[[], float] = time.perf_counter) -> Rep:
    """Run ``run(seed)`` once under a :class:`Capture`.

    ``on_prepared`` runs when set-up ends, before ``run_wall_s`` starts;
    ``on_finished`` runs as soon as the scenario returns.  The peak RSS
    is this repetition's own: garbage from earlier ones is collected and
    the peak reset first.
    """
    gc.collect()
    peak_field = "VmHWM" if reset_peak_rss() else "VmRSS"
    with Capture(clock, on_prepared) as capture:
        result = run(seed)
        if on_finished is not None:
            on_finished()
        finished = clock()
    if capture.world is None:
        raise RuntimeError("scenario never called prepare()")
    measured = capture.measured()
    return Rep(
        seed=seed,
        setup_s=capture.setup_s,
        run_wall_s=finished - capture.prepared_at,
        peak_rss_mb=rss_mb(peak_field),
        plts=sorted(r.plt for r in measured if r.succeeded),
        attempted=len(measured),
        failed=sum(1 for r in measured if not r.succeeded),
        loads=sum(len(results) for results in capture.results.values()),
        counters=world_counters(capture.world, result),
        reported=(result.completed, result.failed),
        prepare_call=capture.prepare_call,
    )


def time_setup(prepare_call: t.Tuple[tuple, dict], samples: int,
               clock: t.Callable[[], float] = time.perf_counter) -> t.List[float]:
    """Time ``samples`` more ``prepare`` calls with a repetition's arguments."""
    from repro.measure import scenarios
    args, kwargs = prepare_call
    timings = []
    for _ in range(samples):
        gc.collect()
        started = clock()
        scenarios.prepare(*args, **kwargs)
        timings.append(clock() - started)
    return timings


#: Nominal time of :func:`reference_loop`, in seconds: about its time on
#: the baseline host in that host's fast spells.  Normalised host times
#: are scaled by ``REFERENCE_S`` over the loop's measured time.
REFERENCE_S = 0.030


def reference_loop() -> None:
    """Fixed pure-Python work in the simulator's style, none of it the
    program's: a heap of timed events, small dict and list stores, and
    a generator.  Its time measures how fast the host runs Python now.
    """
    def ticks(count: int) -> t.Iterator[int]:
        yield from range(count)

    rng = random.Random(1)
    heap: t.List[t.Tuple[float, int]] = []
    table: t.Dict[int, t.Any] = {}
    for index in range(25000):
        heapq.heappush(heap, (rng.random(), index))
        table[index % 3000] = [index] * 3
    for tick in ticks(20000):
        table[tick % 100] = tick
    while heap:
        heapq.heappop(heap)


def time_reference(runs: int = 8,
                   clock: t.Callable[[], float] = time.perf_counter) -> float:
    """Mean time of ``runs`` back-to-back runs of :func:`reference_loop`.

    The mean over about a quarter second follows the host's speed the
    way a repetition's wall time does; the fastest of a few runs
    follows sub-second flickers instead.  The garbage collector is off
    meanwhile: its passes would walk the program's live objects, and
    the loop would time the program's heap instead of the host.
    """
    gc.collect()
    gc.disable()
    try:
        started = clock()
        for _ in range(runs):
            reference_loop()
        return (clock() - started) / runs
    finally:
        gc.enable()
