"""The benchmark's four workloads, all from the Figure-7 family.

Every client is a closed loop (the existing harness, unmodified): a
random start offset in [0, 60) s, one warm-up load, then ``cycles``
measured loads spaced 60 s apart (§4.2).  A run pools ``seeds`` seeds
derived from ``--seed``, so its simulated metrics rest on
``clients * cycles * seeds`` measured loads.  See README.md for why
each workload exists and which layers it stresses.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

#: Sub-seeds of one run are ``seed * SEED_STRIDE + index``.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clients: int
    cycles: int
    #: Seeds pooled per run.
    seeds: int
    #: ``run(clients, cycles, seed)`` -> the scenario's ``OverloadResult``.
    run: t.Callable[[int, int, int], t.Any]
    #: Checks that the workload's mechanism was engaged, given the
    #: pooled counters and failure count: a list of problems.
    engaged: t.Callable[[t.Mapping[str, float], int], t.List[str]]

    def seeds_for(self, seed: int) -> t.List[int]:
        return [seed * SEED_STRIDE + index for index in range(self.seeds)]


def _fig7_home(clients: int, cycles: int, seed: int):
    from repro.measure import scenarios
    return scenarios.run_overload_point("scholarcloud", clients=clients,
                                        cycles=cycles, seed=seed)


def _scraper_edge(clients: int, cycles: int, seed: int):
    from repro.cache import CacheConfig
    from repro.measure import scenarios
    from repro.overload import OverloadConfig
    return scenarios.run_repeated_query_point(
        "scholarcloud", clients=clients, cycles=cycles, seed=seed,
        cache=CacheConfig(),
        overload=OverloadConfig(max_sessions=120, max_waiting=16,
                                queue_delay_threshold=2.0, cache_bypass=True))


def _pdf_hybrid(clients: int, cycles: int, seed: int):
    from repro.measure import scenarios
    return scenarios.run_overload_point("scholarcloud", clients=clients,
                                        cycles=cycles, seed=seed,
                                        mode="hybrid", workload="pdf")


def _fig7_shadowsocks(clients: int, cycles: int, seed: int):
    from repro.measure import scenarios
    return scenarios.run_overload_point("shadowsocks", clients=clients,
                                        cycles=cycles, seed=seed)


def _require(**positive: float) -> t.List[str]:
    return [f"{name} is {value}, expected > 0"
            for name, value in positive.items() if not value > 0]


#: Layer work that only one workload may do.
EXCLUSIVE = {"fluid.transfers": "pdf-hybrid", "cache.lookups": "scraper-edge"}
#: Bounds on the crypto layer's share of traced self time.
CRYPTO_SHARE = {"fig7-home": (0.0, 0.01), "fig7-shadowsocks": (0.10, 1.0)}


def design_problems(name: str, metrics: t.Mapping[str, float]) -> t.List[str]:
    """Checks that a traced run stressed the layers its workload is for."""
    problems = [f"{metric} is {metrics[metric]} on {name}"
                for metric, owner in EXCLUSIVE.items()
                if (metrics[metric] > 0) != (name == owner)]
    if name in CRYPTO_SHARE:
        low, high = CRYPTO_SHARE[name]
        traced = sum(value for metric, value in metrics.items()
                     if metric.endswith(".self_s"))
        traced += metrics["trace.unattributed_s"]
        crypto = metrics["crypto.self_s"] / traced
        if not low <= crypto < high:
            problems.append(f"crypto is {crypto:.1%} of traced self time "
                            f"on {name}, expected [{low:.0%}, {high:.0%})")
    return problems


WORKLOADS: t.Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fig7-home",
        why="ScholarCloud packet mode, 19 KB home page, 80 clients below "
            "the Figure-7 knee: the sim/net/transport hot path, no failures",
        clients=80, cycles=2, seeds=4, run=_fig7_home,
        engaged=lambda c, failed: (
            [] if failed == 0 else [f"{failed} loads failed, expected 0"])),
    Workload(
        name="scraper-edge",
        why="Zipf repeated queries past the admission cap with the edge "
            "cache on: the only workload exercising cache and overload",
        clients=150, cycles=1, seeds=4, run=_scraper_edge,
        engaged=lambda c, failed: _require(
            **{"cache.hits": c["cache_hits"], "overload.shed": c["shed"]})),
    Workload(
        name="pdf-hybrid",
        why="1.2 MB PDF downloads in hybrid mode, 200 clients sharing the "
            "remote VM: the fluid fast path carries the bulk bytes",
        clients=200, cycles=1, seeds=7, run=_pdf_hybrid,
        engaged=lambda c, failed: _require(
            **{"fluid.transfers": c["fluid_transfers"]})),
    Workload(
        name="fig7-shadowsocks",
        why="Shadowsocks past its Figure-7 knee (90 clients): AES-CFB "
            "crypto, GFW interference and a saturated remote VM CPU",
        clients=90, cycles=1, seeds=4, run=_fig7_shadowsocks,
        engaged=lambda c, failed: _require(
            **{"gfw.interference_drops": c["gfw_interference_drops"]})),
)}
