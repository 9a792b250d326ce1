"""Golden fixture for the packet data path (``net``, ``sim``, ``transport``).

``test_perf_equivalence.py`` swaps only crypto, codec and DPI paths for
their frozen references; both of its sides share the packet path, so a
change there cannot show up in it.  This module pins the packet path
itself against values recorded from a known-good tree:

* three small points (packet ScholarCloud, packet Shadowsocks, hybrid
  ``pdf``): sorted PLTs, per-link and per-router counters, GFW and TCP
  counters, the number of kernel steps and the final clock;
* the full ``TraceLog`` of a small lossy run, ``link.drop`` records and
  their ``packet_id`` values included.  Packet ids come from one
  process-wide counter, so the trace is taken in a fresh interpreter;
* a hybrid repeated-query point with the edge cache and admission
  control on: PLT series, outcome counts, border bytes, cache and
  admission counters, fluid counters and the number of connections;
* a Figure-7 Shadowsocks point: its PLT series, summary, kernel steps
  and final clock;
* two fleet region points (a packet ``home`` run through a PoP blackout
  and a hybrid ``queries`` run with the remote cache tier on): the
  whole :class:`~repro.fleet.sweep.FleetRegionResult` — samples,
  assignment digest, fault timeline, cache report — and kernel steps.

Regenerate the fixture only after checking that a change to simulated
behaviour is intended::

    PYTHONPATH=src python tests/test_packet_path_golden.py --write
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import typing as t
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(TESTS_DIR, "fixtures", "packet_path_golden.json")

#: (label, method, clients, mode, workload) of the pinned points.
POINTS = (
    ("packet-scholarcloud", "scholarcloud", 6, "packet", "home"),
    ("packet-shadowsocks", "shadowsocks", 6, "packet", "home"),
    ("hybrid-pdf", "scholarcloud", 3, "hybrid", "pdf"),
)
#: (method, seed, baseline_loss, loads) of the lossy traced runs.
LOSSY_RUNS = (("openvpn", 7, 0.08, 8), ("shadowsocks", 7, 0.08, 8),
              ("scholarcloud", 7, 0.08, 8))
#: (clients, seed, max_sessions) of the pinned edge-cache point: past
#: its admission cap, so it sheds, serves hits and carries hit streams
#: on the fluid fast path.
CACHE_POINT = (24, 5, 12)
#: (method, clients, seed) of the pinned Figure-7 point.
SCALABILITY_POINT = ("shadowsocks", 4, 5)
#: label -> keyword arguments of the pinned fleet region points;
#: ``remote_tier_cache`` stands for ``cache=CacheConfig(remote_tier=True)``.
FLEET_POINTS = {
    "packet-home-blackout": {
        "region": "beijing", "pops": 3, "clients": 6, "cycles": 2,
        "seed": 2, "mode": "packet", "workload": "home",
        "blackout_pop": "pop-2", "blackout_at": 90.0,
        "blackout_downtime": 60.0},
    "hybrid-queries-remote-tier": {
        "region": "beijing", "pops": 2, "clients": 8, "cycles": 3,
        "seed": 4, "mode": "hybrid", "workload": "queries",
        "remote_tier_cache": True},
}


def jsonable(value: t.Any) -> t.Any:
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


class Recorder:
    """What one scenario run built: worlds, PLT series, connections, steps."""

    def __init__(self) -> None:
        self.worlds: t.List[t.Any] = []
        self.series: t.List[t.List[float]] = []
        self.connections: t.List[t.Any] = []
        self.steps = 0


@contextmanager
def recording() -> t.Iterator[Recorder]:
    """Patch the scenario helpers, kernel and TCP to record a run."""
    from repro.measure import scenarios
    from repro.sim.kernel import Simulator
    from repro.transport.tcp import TcpConnection

    seen = Recorder()
    prepare, summarize = scenarios.prepare, scenarios.summarize
    step, conn_init = Simulator.step, TcpConnection.__init__

    def keep_world(*args, **kwargs):
        seen.worlds.append(prepare(*args, **kwargs))
        return seen.worlds[-1]

    def keep_series(values):
        seen.series.append(sorted(values))
        return summarize(seen.series[-1])

    def counted_step(sim):
        seen.steps += 1
        return step(sim)

    def kept_conn(conn, *args, **kwargs):
        seen.connections.append(conn)
        conn_init(conn, *args, **kwargs)

    with ExitStack() as patches:
        for owner, attr, value in (
                (scenarios, "prepare", keep_world),
                (scenarios, "summarize", keep_series),
                (Simulator, "step", counted_step),
                (TcpConnection, "__init__", kept_conn)):
            patches.enter_context(mock.patch.object(owner, attr, value))
        yield seen


def observe_point(method: str, clients: int, mode: str,
                  workload: str) -> t.Dict[str, t.Any]:
    """Run one overload point and read every packet-path counter."""
    from repro.measure import scenarios

    with recording() as seen:
        result = scenarios.run_overload_point(
            method, clients=clients, cycles=1, seed=11, mode=mode,
            workload=workload)

    testbed = seen.worlds[0].testbed
    connections = seen.connections
    links = {link.name: {"bytes_sent": link.bytes_sent,
                         "packets_sent": link.packets_sent,
                         "packets_dropped": link.packets_dropped}
             for link in testbed.net.links}
    forwarded = {name: node.packets_forwarded
                 for name, node in testbed.net.nodes.items()
                 if node.packets_forwarded}
    transport = {
        "connections": len(connections),
        "packets_sent": sum(c.packets_sent for c in connections),
        "bytes_sent": sum(c.bytes_sent for c in connections),
        "bytes_received": sum(c.bytes_received for c in connections),
        "retransmissions": sum(c.retransmissions for c in connections),
    }
    return jsonable({
        "plts": seen.series[0] if seen.series else [],
        "completed": result.completed,
        "failed": result.failed,
        "links": links,
        "forwarded": forwarded,
        "gfw": dataclasses.asdict(testbed.gfw.stats),
        "transport": transport,
        "steps": seen.steps,
        "now": testbed.sim.now,
    })


def observe_cache_point() -> t.Dict[str, t.Any]:
    """Run the hybrid edge-cache point and read its counters."""
    from repro.cache import CacheConfig
    from repro.measure import scenarios
    from repro.overload import OverloadConfig

    clients, seed, max_sessions = CACHE_POINT
    with recording() as seen:
        result = scenarios.run_repeated_query_point(
            "scholarcloud", clients=clients, cycles=1, seed=seed,
            cache=CacheConfig(),
            overload=OverloadConfig(max_sessions=max_sessions, max_waiting=4,
                                    queue_delay_threshold=2.0,
                                    cache_bypass=True),
            mode="hybrid")

    cache = result.cache
    return jsonable({
        # Hit loads (when any load was all hits), miss loads, every load.
        "plt_series": seen.series,
        "completed": result.completed,
        "failed": result.failed,
        "client_sheds": result.client_sheds,
        "border_bytes": result.transpacific_bytes,
        "cache": {"hits": cache.hits, "misses": cache.misses,
                  "event_digest": cache.event_digest},
        "admission": {"offered": result.report.offered,
                      "admitted": result.report.admitted,
                      "shed": result.report.shed},
        "fluid": dataclasses.asdict(seen.worlds[0].testbed.sim.fluid.stats),
        "connections": len(seen.connections),
    })


def observe_scalability_point() -> t.Dict[str, t.Any]:
    """Run the pinned Figure-7 point and read its PLTs and clock."""
    from repro.measure import scenarios

    method, clients, seed = SCALABILITY_POINT
    with recording() as seen:
        summary = scenarios.run_scalability_point(
            method, clients=clients, cycles=2, seed=seed)
    return jsonable({
        "plts": seen.series,
        "summary": dataclasses.asdict(summary),
        "steps": seen.steps,
        "now": seen.worlds[0].testbed.sim.now,
    })


def observe_fleet_point(label: str) -> t.Dict[str, t.Any]:
    """Run one pinned fleet region point and read its whole result."""
    from repro.cache import CacheConfig
    from repro.fleet.sweep import run_fleet_region_point

    kwargs = dict(FLEET_POINTS[label])
    if kwargs.pop("remote_tier_cache", False):
        kwargs["cache"] = CacheConfig(remote_tier=True)
    with recording() as seen:
        result = run_fleet_region_point(**kwargs)
    return jsonable({"result": dataclasses.asdict(result),
                     "steps": seen.steps})


def lossy_trace() -> t.List[t.Any]:
    """Every ``TraceLog`` record of the lossy runs, in emission order."""
    from repro.measure.scenarios import prepare

    runs = []
    for method, seed, loss, loads in LOSSY_RUNS:
        world = prepare(method, seed=seed, baseline_loss=loss)
        testbed = world.testbed
        for _ in range(loads):
            testbed.run_process(world.browser.load(testbed.scholar_page))
        runs.append([[record.time, record.category, record.fields]
                     for record in testbed.trace.records])
    return jsonable(runs)


def lossy_trace_in_subprocess() -> t.List[t.Any]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(TESTS_DIR), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [path for path in [env.get("PYTHONPATH")] if path])
    output = subprocess.run(
        [sys.executable, os.path.join(TESTS_DIR, os.path.basename(__file__)),
         "--trace"],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(output)


def observe_all() -> t.Dict[str, t.Any]:
    points = {label: observe_point(method, clients, mode, workload)
              for label, method, clients, mode, workload in POINTS}
    return {"points": points, "lossy_trace": lossy_trace_in_subprocess(),
            "cache_point": observe_cache_point(),
            "scalability_point": observe_scalability_point(),
            "fleet_points": {label: observe_fleet_point(label)
                             for label in FLEET_POINTS}}


def load_fixture() -> t.Dict[str, t.Any]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


# -- tests ----------------------------------------------------------------------

@pytest.mark.parametrize("label, method, clients, mode, workload", POINTS,
                         ids=[point[0] for point in POINTS])
def test_point_matches_golden_counters(label, method, clients, mode, workload):
    expected = load_fixture()["points"][label]
    observed = observe_point(method, clients, mode, workload)
    for key in expected:
        assert observed[key] == expected[key], key
    assert observed == expected


def test_lossy_trace_matches_golden_records():
    expected = load_fixture()["lossy_trace"]
    observed = lossy_trace_in_subprocess()
    assert [len(run) for run in observed] == [len(run) for run in expected]
    drops = [record for run in observed for record in run
             if record[1] == "link.drop"]
    assert drops, "the lossy run must exercise link.drop"
    for run_observed, run_expected in zip(observed, expected):
        for index, (got, want) in enumerate(zip(run_observed, run_expected)):
            assert got == want, f"record {index}"


def test_cache_point_matches_golden_counters():
    expected = load_fixture()["cache_point"]
    observed = observe_cache_point()
    assert expected["cache"]["hits"] > 0
    for key in expected:
        assert observed[key] == expected[key], key
    assert observed == expected


def test_scalability_point_matches_golden():
    expected = load_fixture()["scalability_point"]
    observed = observe_scalability_point()
    for key in expected:
        assert observed[key] == expected[key], key
    assert observed == expected


@pytest.mark.parametrize("label", sorted(FLEET_POINTS))
def test_fleet_point_matches_golden(label):
    expected = load_fixture()["fleet_points"][label]
    observed = observe_fleet_point(label)
    for key in expected["result"]:
        assert observed["result"][key] == expected["result"][key], key
    assert observed == expected


if __name__ == "__main__":
    if sys.argv[1:] == ["--trace"]:
        json.dump(lossy_trace(), sys.stdout)
    elif sys.argv[1:] == ["--write"]:
        with open(FIXTURE, "w", encoding="utf-8") as handle:
            json.dump(observe_all(), handle, sort_keys=True, indent=1)
            handle.write("\n")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | --trace")
