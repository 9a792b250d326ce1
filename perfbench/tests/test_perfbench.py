"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.harness import REFERENCE_S, Rep, time_reference
from perfbench.metrics import (END_TO_END, PER_LAYER, Pooled, end_to_end,
                               tail_fraction)
from perfbench.tracer import (ROOT_SPAN, LayerMap, Tracer, innermost_code,
                              span_wrapper)
from perfbench.workloads import WORKLOADS, design_problems

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def tiny(name: str) -> "object":
    """A workload at smoke size; its mechanism checks need full size."""
    return dataclasses.replace(WORKLOADS[name], clients=4, cycles=1, seeds=2,
                               engaged=lambda counters, failed: [])


# -- smoke: every workload through the same code path as a real run ----------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timed_run_smoke(name, tmp_path):
    outcome = bench.timed_run(tiny(name), seed=3, source="s", out=str(tmp_path))
    assert outcome.problems == []
    assert set(outcome.metrics) == set(END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in outcome.metrics.values())
    # One measured load per client and cycle; a scraper cycle is a burst.
    assert outcome.attempted >= 4 * 1 * 2
    assert outcome.attempted == sum(r["attempted"] for r in outcome.record["reps"])
    # A second run at the same seed must reproduce every digest.
    again = bench.timed_run(tiny(name), seed=3, source="s", out=str(tmp_path))
    assert again.problems == []
    assert [r["digest"] for r in again.record["reps"]] == \
        [r["digest"] for r in outcome.record["reps"]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_smoke(name, tmp_path):
    outcome = bench.traced_run(tiny(name), seed=3, source="s", out=str(tmp_path))
    assert outcome.problems == []
    assert set(outcome.metrics) == set(PER_LAYER)
    assert outcome.metrics["sim.events"] > 0
    assert outcome.metrics["trace.overhead"] > 1.0
    assert outcome.record["spans_kept"]


def test_other_seed_gives_other_but_consistent_outputs(tmp_path):
    workload = tiny("fig7-home")
    first = bench.timed_run(workload, seed=1, source="s", out=str(tmp_path))
    second = bench.timed_run(workload, seed=2, source="s", out=str(tmp_path))
    assert first.problems == second.problems == []
    digests = lambda o: [r["digest"] for r in o.record["reps"]]
    assert set(digests(first)).isdisjoint(digests(second))


# -- self-time arithmetic ----------------------------------------------------

class ScriptedClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer = Tracer(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.open(ROOT_SPAN)
    a = tracer.open("net/a")
    b = tracer.open("gfw/b")
    assert tracer.close(b) == 1
    assert tracer.close(a) == 3
    c = tracer.open("net/c")
    tracer.close(c)
    assert tracer.close(root) == 10
    assert tracer.self_s == {"gfw/b": 1, "net/a": 2, "net/c": 4, ROOT_SPAN: 3}
    layers = tracer.layer_self_s()
    assert layers["net"] == 6 and layers["gfw"] == 1
    assert layers["unattributed"] == 3
    assert sum(layers.values()) == 10
    assert [(s[1], s[4]) for s in tracer.spans] == [
        ("gfw/b", 2), ("net/a", 1), ("net/c", 1), (ROOT_SPAN, 0)]


def test_spans_must_close_innermost_first():
    tracer = Tracer(clock=ScriptedClock(0, 1, 2))
    outer = tracer.open("sim/step")
    tracer.open("net/transmit")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_kept_spans_are_bounded():
    tracer = Tracer(clock=ScriptedClock(*range(8)), keep=2)
    for _ in range(4):
        tracer.close(tracer.open("sim/step"))
    assert len(tracer.spans) == 2 and tracer.spans_dropped == 2
    assert tracer.calls["sim/step"] == 4


def test_nested_calls_of_one_entry_point_fold_into_one_span():
    tracer = Tracer(clock=ScriptedClock(0, 4))

    def encode(self, data, depth=1):
        return encode_span(self, data, depth - 1) if depth else data

    encode_span = span_wrapper(tracer, "core/codec", encode,
                               lambda args: len(args[1]))
    assert encode_span(None, b"abc", 3) == b"abc"
    assert tracer.calls["core/codec"] == 1
    assert tracer.volume["core/codec"] == 3
    assert tracer.self_s["core/codec"] == 4


def test_resumptions_are_attributed_to_the_innermost_generator():
    import repro
    from repro.measure import scenarios
    layers = LayerMap(os.path.dirname(repro.__file__))

    def inner():
        yield 1

    def outer():
        yield from inner()

    generator = outer()
    next(generator)
    assert innermost_code(generator) is inner.__code__
    assert layers.layer_of_file(scenarios.__file__) == "measure"
    assert layers.layer_of_file(os.path.join(
        os.path.dirname(repro.__file__), "perf", "fluid.py")) == "fluid"
    assert layers.layer_of_file(repro.__file__) == "other"
    assert layers.layer_of_file(__file__) == "other"


# -- failure-share accounting --------------------------------------------------

def rep(seed: int, plts, failed: int, reported=None, border=1000) -> Rep:
    attempted = len(plts) + failed
    return Rep(seed=seed, setup_s=0.1, run_wall_s=2.0, peak_rss_mb=50.0,
               plts=sorted(plts), attempted=attempted, failed=failed,
               loads=attempted + 1, counters={"border_bytes": border},
               reported=reported or (len(plts), failed))


def test_failed_loads_count_against_attempted():
    reps = [rep(1, [1.0, 2.0, 3.0], failed=1), rep(2, [2.0], failed=3)]
    pooled = Pooled.of(reps)
    assert (pooled.attempted, pooled.failed, pooled.completed) == (8, 4, 4)
    # Host time is scaled to the reference loop's nominal speed: the
    # second repetition ran while the loop was twice as slow.
    nominal = REFERENCE_S
    metrics = end_to_end(reps, pooled, setup_samples=[0.2, 0.1, 0.3],
                         reference_s=[nominal, 2 * nominal])
    assert metrics["load_ok_share"] == 0.5
    assert metrics["border_kb_per_load"] == 2000 / 1000.0 / 4
    assert metrics["run_norm_s"] == pytest.approx((2.0 + 1.0) / 2)
    assert metrics["loads_per_norm_s"] == pytest.approx((3 / 2.0 + 1 / 1.0) / 2)
    assert metrics["plt_p50_s"] == 2.0
    assert metrics["setup_s"] == 0.2


def test_reference_loop_runs_with_the_collector_off_and_restores_it():
    seen = []
    assert time_reference(runs=2, clock=lambda: seen.append(gc.isenabled())
                          or len(seen)) == 0.5
    assert seen == [False, False] and gc.isenabled()


def test_loads_that_disagree_with_the_scenario_report_are_flagged():
    assert rep(1, [1.0, 2.0], failed=1).problems() == []
    assert rep(1, [1.0, 2.0], failed=1, reported=(2, 0)).problems()
    assert rep(1, [1.0, 2.0], failed=1, reported=(3, 0)).problems()
    assert rep(1, [], failed=0).problems()


def test_tail_percentile_leaves_ten_samples_beyond_it():
    for samples in (11, 300, 900, 1450):
        fraction = tail_fraction(samples)
        position = fraction * (samples - 1)
        assert samples - 1 - position == pytest.approx(10)
    assert tail_fraction(5) == 0.5


def test_digest_changes_are_caught_across_runs(tmp_path):
    check = lambda reps, source="a": bench.check_digests(
        str(tmp_path), WORKLOADS["fig7-home"], reps, source)
    assert check([rep(7, [1.0], 0)]) == []
    assert check([rep(7, [1.0], 0)]) == []
    assert check([rep(7, [1.5], 0)])


def test_a_changed_program_may_change_the_digest_at_one_seed(tmp_path):
    check = lambda reps, source: bench.check_digests(
        str(tmp_path), WORKLOADS["fig7-home"], reps, source)
    for _ in range(2):  # parent and change alternating in one checkout
        assert check([rep(7, [1.0], 0)], source="parent") == []
        assert check([rep(7, [1.5], 0)], source="change") == []


def test_source_hash_follows_the_python_sources(tmp_path):
    (tmp_path / "net").mkdir()
    module = tmp_path / "net" / "link.py"
    module.write_text("DELAY = 1\n")
    (tmp_path / "notes.txt").write_text("not a source")
    before = bench.source_hash(str(tmp_path))
    (tmp_path / "notes.txt").write_text("still not a source")
    assert bench.source_hash(str(tmp_path)) == before
    module.write_text("DELAY = 2\n")
    assert bench.source_hash(str(tmp_path)) != before


def test_design_checks_flag_a_layer_doing_another_workloads_work():
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics["sim.self_s"] = 1.0
    assert design_problems("fig7-home", metrics) == []
    assert design_problems("pdf-hybrid", metrics)  # no fluid transfer
    metrics["crypto.self_s"] = 0.5
    assert design_problems("fig7-home", metrics)  # crypto a third of it
    assert design_problems("fig7-shadowsocks", metrics) == []
    metrics["cache.lookups"] = 3
    assert design_problems("fig7-shadowsocks", metrics)


# -- the contract with BENCHMARK.json ----------------------------------------

def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-home",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
