"""End-to-end and per-layer metrics of one run, with their units.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
holds the two in step.
"""

from __future__ import annotations

import statistics
import typing as t
from dataclasses import dataclass

from .harness import REFERENCE_S

if t.TYPE_CHECKING:
    from .harness import Rep
    from .tracer import Tracer

#: End-to-end metric -> unit.  Host time is what the simulator costs
#: its user; ``sim_s`` is simulated time of the modelled deployment.
END_TO_END = {
    "setup_s": "s",
    "run_norm_s": "s",
    "loads_per_norm_s": "1/s",
    "peak_rss_mb": "MB",
    "plt_p50_s": "sim_s",
    "plt_tail_s": "sim_s",
    "load_ok_share": "share",
    "border_kb_per_load": "kB",
}

#: Per-layer metric -> unit, reported by the traced run.
PER_LAYER = {
    "sim.events": "count", "sim.events_per_s": "1/s", "sim.self_s": "s",
    "sim.remote_cpu_util": "share",
    "net.packets": "count", "net.forwards": "count", "net.self_s": "s",
    "net.us_per_packet": "us", "net.border_drop_share": "share",
    "transport.segments": "count", "transport.connections": "count",
    "transport.retransmits": "count", "transport.self_s": "s",
    "gfw.packets_seen": "count", "gfw.interference_drops": "count",
    "gfw.self_s": "s", "gfw.us_per_packet": "us",
    "crypto.calls": "count", "crypto.bytes": "B", "crypto.self_s": "s",
    "core.self_s": "s", "core.codec_bytes": "B", "core.dials_failed": "count",
    "core.deadline_drops": "count",
    "cache.lookups": "count", "cache.hits": "count", "cache.hit_share": "share",
    "cache.evictions": "count", "cache.bytes_avoided": "B", "cache.self_s": "s",
    "overload.offered": "count", "overload.admitted": "count",
    "overload.shed": "count", "overload.admit_share": "share",
    "overload.queue_delay_p95_s": "sim_s", "overload.self_s": "s",
    "fluid.transfers": "count", "fluid.fallbacks": "count",
    "fluid.transfer_share": "share", "fluid.defluidized": "count",
    "fluid.self_s": "s",
    "middleware.self_s": "s", "http.loads": "count", "http.self_s": "s",
    "dns.resolves": "count", "dns.self_s": "s", "measure.self_s": "s",
    "other.self_s": "s", "trace.unattributed_s": "s", "trace.overhead": "ratio",
    "host.run_wall_s": "s", "host.reference_ms": "ms",
}

#: At least this many samples lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: t.Sequence[float], fraction: float) -> float:
    """The repo's own linear-interpolated percentile of sorted values."""
    from repro.measure.metrics import percentile as repro_percentile
    return repro_percentile(values, fraction)


def tail_fraction(samples: int) -> float:
    """Highest percentile with :data:`TAIL_BEYOND` samples beyond it."""
    if samples <= TAIL_BEYOND:
        return 0.5
    return (samples - 1 - TAIL_BEYOND) / (samples - 1)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@dataclass
class Pooled:
    """Simulated outputs pooled over a run's seeds."""

    plts: t.List[float]
    attempted: int
    failed: int
    counters: t.Dict[str, float]

    @classmethod
    def of(cls, reps: t.Sequence["Rep"]) -> "Pooled":
        counters: t.Dict[str, float] = {}
        for rep in reps:
            for key, value in rep.counters.items():
                counters[key] = counters.get(key, 0) + value
        return cls(plts=sorted(p for rep in reps for p in rep.plts),
                   attempted=sum(rep.attempted for rep in reps),
                   failed=sum(rep.failed for rep in reps),
                   counters=counters)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def normalised_s(wall_s: float, reference_s: float) -> float:
    """Host seconds at the reference loop's nominal speed."""
    return wall_s * REFERENCE_S / reference_s


def end_to_end(reps: t.Sequence["Rep"], pooled: Pooled,
               setup_samples: t.Sequence[float],
               reference_s: t.Sequence[float]) -> t.Dict[str, float]:
    """Every end-to-end metric of one run.

    The host's speed drifts by up to 2x over seconds to minutes, so host
    times are normalised by the reference loop's time measured next to
    them (:func:`normalised_s`).  ``reference_s`` holds that time per
    repetition, and ``setup_samples`` are already normalised.  Host
    metrics are medians: over the set-up samples, which all build the
    same world, and over the repetitions, each of which does different
    work.  Simulated metrics come from the measured loads pooled over
    the run's seeds.
    """
    runs_s = [normalised_s(rep.run_wall_s, ref)
              for rep, ref in zip(reps, reference_s, strict=True)]
    return {
        "setup_s": statistics.median(setup_samples),
        "run_norm_s": statistics.median(runs_s),
        "loads_per_norm_s": statistics.median(
            rep.completed / run_s for rep, run_s in zip(reps, runs_s)),
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
        "plt_p50_s": percentile(pooled.plts, 0.50),
        "plt_tail_s": percentile(pooled.plts, tail_fraction(len(pooled.plts))),
        "load_ok_share": pooled.completed / pooled.attempted,
        "border_kb_per_load": (pooled.counters["border_bytes"] / 1000.0
                               / pooled.completed),
    }


def per_layer(tracer: "Tracer", traced: "Rep", untraced: "Rep",
              retransmits: int, reference_s: float) -> t.Dict[str, float]:
    """Every per-layer metric of a traced repetition.

    ``untraced`` is the same seed run with tracing off: rates use its
    wall time, and ``trace.overhead`` compares the two.  ``reference_s``
    is the reference loop's time around the untraced repetition.
    """
    self_s = tracer.layer_self_s()
    calls, volume, c = tracer.calls, tracer.volume, traced.counters
    packets = calls["net/transmit"]
    lookups = c["cache_hits"] + c["cache_misses"]
    fluid_attempts = c["fluid_transfers"] + c["fluid_fallbacks"]
    return {
        "sim.events": calls["sim/step"],
        "sim.events_per_s": calls["sim/step"] / untraced.run_wall_s,
        "sim.self_s": self_s["sim"],
        "sim.remote_cpu_util": c["remote_cpu_util"],
        "net.packets": packets,
        "net.forwards": calls["net/forward"],
        "net.self_s": self_s["net"],
        "net.us_per_packet": 1e6 * share(self_s["net"], packets),
        "net.border_drop_share": share(c["border_dropped"], c["border_packets"]),
        "transport.segments": calls["transport/handle_segment"],
        "transport.connections": calls["transport/connections"],
        "transport.retransmits": retransmits,
        "transport.self_s": self_s["transport"],
        "gfw.packets_seen": c["gfw_packets_seen"],
        "gfw.interference_drops": c["gfw_interference_drops"],
        "gfw.self_s": self_s["gfw"],
        "gfw.us_per_packet": 1e6 * share(self_s["gfw"], c["gfw_packets_seen"]),
        "crypto.calls": calls["crypto/cipher"],
        "crypto.bytes": volume["crypto/cipher"],
        "crypto.self_s": self_s["crypto"],
        "core.self_s": self_s["core"],
        "core.codec_bytes": volume["core/codec"],
        "core.dials_failed": c["dials_failed"],
        "core.deadline_drops": c["deadline_drops"],
        "cache.lookups": lookups,
        "cache.hits": c["cache_hits"],
        "cache.hit_share": share(c["cache_hits"], lookups),
        "cache.evictions": c["cache_evictions"],
        "cache.bytes_avoided": c["cache_bytes_avoided"],
        "cache.self_s": self_s["cache"],
        "overload.offered": c["offered"],
        "overload.admitted": c["admitted"],
        "overload.shed": c["shed"],
        "overload.admit_share": share(c["admitted"], c["offered"]),
        "overload.queue_delay_p95_s": c["queue_delay_p95_s"],
        "overload.self_s": self_s["overload"],
        "fluid.transfers": c["fluid_transfers"],
        "fluid.fallbacks": c["fluid_fallbacks"],
        "fluid.transfer_share": share(c["fluid_transfers"], fluid_attempts),
        "fluid.defluidized": c["fluid_defluidized"],
        "fluid.self_s": self_s["fluid"],
        "middleware.self_s": self_s["middleware"],
        "http.loads": traced.loads,
        "http.self_s": self_s["http"],
        "dns.resolves": calls["dns/resolve"],
        "dns.self_s": self_s["dns"],
        "measure.self_s": self_s["measure"],
        "other.self_s": self_s["other"],
        "trace.unattributed_s": self_s["unattributed"],
        "trace.overhead": traced.run_wall_s / untraced.run_wall_s,
        "host.run_wall_s": untraced.run_wall_s,
        "host.reference_ms": 1e3 * reference_s,
    }
