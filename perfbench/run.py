"""The repo benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fig7-home --seed 1 --seconds 39 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` it runs one
repetition per seed of the workload (see ``workloads.py``) with tracing
off and prints the end-to-end metrics; with ``--trace 1`` it runs the
first seed once untraced and once traced, and prints the per-layer
metrics.  The workload sizes are chosen so that a run, warm-up and
set-up samples included, fits in ``--seconds``; a run that takes longer
says so on standard error and in its record.  Either way the last line
of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` and ``failed`` count measured page loads (admission
sheds, deadline expiries and errors all fail a load).  Every number
also lands in a run record under ``perfbench/out/``.  The exit code is
0 when every output check passes, 1 when one fails and 2 when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import sys
import time
import typing as t
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

if not __package__:  # run as a script: make the package importable
    sys.path.insert(0, ROOT)

from perfbench.harness import run_rep, time_reference, time_setup  # noqa: E402
from perfbench.metrics import (END_TO_END, PER_LAYER, Pooled,  # noqa: E402
                               end_to_end, normalised_s, per_layer,
                               tail_fraction)
from perfbench.tracer import ROOT_SPAN, Tracer, instrument  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, design_problems  # noqa: E402

#: Extra ``prepare`` calls timed per run, on top of one per
#: repetition; they are spread between the repetitions so that the
#: set-up samples cover the whole run.
SETUP_SAMPLES = 10


def parse_args(argv: t.Optional[t.Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget the run should fit in; a run "
                             "that overruns it is reported, not cut")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Outcome:
    """Metrics, load counts, problems and the raw record of one run."""

    metrics: t.Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: t.List[str] = field(default_factory=list)
    record: t.Dict[str, t.Any] = field(default_factory=dict)


def rep_record(rep: t.Any,
               reference_s: t.Optional[float]) -> t.Dict[str, t.Any]:
    return {"seed": rep.seed, "setup_s": rep.setup_s,
            "run_wall_s": rep.run_wall_s, "reference_s": reference_s,
            "peak_rss_mb": rep.peak_rss_mb,
            "attempted": rep.attempted, "failed": rep.failed,
            "loads": rep.loads, "digest": rep.digest(),
            "counters": rep.counters}


def warm_up(workload: Workload, seed: int) -> None:
    """Import and first-call work, kept out of every timed repetition."""
    run_rep(lambda s: workload.run(min(4, workload.clients), 1, s), seed)


def source_hash(package_dir: str) -> str:
    """Fingerprint of the program's sources: every ``.py`` file under it."""
    digest = hashlib.blake2b(digest_size=8)
    for folder, _, files in sorted(os.walk(package_dir)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def check_digests(out: str, workload: Workload, reps: t.Sequence[t.Any],
                  source: str) -> t.List[str]:
    """Compare each seed's digest with earlier runs of the same sources.

    The digests are kept in ``<out>/digests.json``, keyed by the
    :func:`source_hash` of the program, workload, size and seed, so two
    runs of one program at one seed must agree even when they are
    separate invocations, while a changed program starts afresh.
    """
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "digests.json")
    try:
        with open(path) as handle:
            known = json.load(handle)
    except FileNotFoundError:
        known = {}
    problems = []
    for rep in reps:
        key = (f"{source}/{workload.name}/{workload.clients}x"
               f"{workload.cycles}/seed{rep.seed}")
        digest = rep.digest()
        if known.setdefault(key, digest) != digest:
            problems.append(f"{key}: digest {digest} differs from the "
                            f"{known[key]} of an earlier run")
    temporary = path + ".tmp"
    with open(temporary, "w") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(temporary, path)
    return problems


def timed_run(workload: Workload, seed: int, source: str,
              out: str = OUT) -> Outcome:
    """One repetition per seed of the workload, tracing off."""
    outcome = Outcome()
    seeds = workload.seeds_for(seed)
    run = lambda s: workload.run(workload.clients, workload.cycles, s)
    warm_up(workload, seeds[0])
    reps: t.List[t.Any] = []
    setup: t.List[float] = []
    setup_norm: t.List[float] = []
    # The reference loop's time before and after each repetition; the
    # repetition's own set-up follows the first, the extra ones the second.
    around = [time_reference()]
    setup_per_rep = -(-SETUP_SAMPLES // len(seeds))
    for s in seeds:
        rep = run_rep(run, s)
        reps.append(rep)
        around.append(time_reference())
        extra = time_setup(rep.prepare_call, setup_per_rep)
        setup += [rep.setup_s] + extra
        setup_norm += [normalised_s(rep.setup_s, around[-2])]
        setup_norm += [normalised_s(sample, around[-1]) for sample in extra]
    references = [(a + b) / 2 for a, b in zip(around, around[1:])]
    pooled = Pooled.of(reps)
    for rep in reps:
        outcome.problems += rep.problems()
    outcome.problems += workload.engaged(pooled.counters, pooled.failed)
    outcome.problems += check_digests(out, workload, reps, source)
    outcome.metrics = end_to_end(reps, pooled, setup_norm, references)
    outcome.attempted, outcome.failed = pooled.attempted, pooled.failed
    outcome.record.update(
        reps=[rep_record(rep, ref) for rep, ref in zip(reps, references)],
        setup_samples=setup, setup_norm_samples=setup_norm,
        reference_samples=around,
        plt_samples=len(pooled.plts),
        plt_tail_percentile=100 * tail_fraction(len(pooled.plts)))
    return outcome


def traced_run(workload: Workload, seed: int, source: str,
               out: str = OUT) -> Outcome:
    """The first seed once untraced, then once traced."""
    outcome = Outcome()
    first_seed = workload.seeds_for(seed)[0]
    run = lambda s: workload.run(workload.clients, workload.cycles, s)
    warm_up(workload, first_seed)
    before = time_reference()
    untraced = run_rep(run, first_seed)
    reference_s = (before + time_reference()) / 2

    tracer = Tracer()
    connections: t.List[t.Any] = []
    root: t.List[t.Any] = []

    with contextlib.ExitStack() as patches:
        # Tracing covers the interval run_wall_s measures, no more.
        def start() -> None:
            instrument(tracer, patches, connections)
            root.append(tracer.open(ROOT_SPAN))

        def stop() -> None:
            root.append(tracer.close(root[0]))

        traced = run_rep(run, first_seed, on_prepared=start, on_finished=stop)
    root_s = root[1]
    retransmits = sum(conn.retransmissions for conn in connections)
    del connections

    for rep in (untraced, traced):
        outcome.problems += rep.problems()
    if traced.digest() != untraced.digest():
        outcome.problems.append("tracing changed the simulated outputs")
    outcome.problems += workload.engaged(untraced.counters, untraced.failed)
    outcome.problems += check_digests(out, workload, [untraced], source)
    accounted = sum(tracer.self_s.values())
    if abs(accounted - root_s) > 1e-3 * root_s:
        outcome.problems.append(
            f"self times sum to {accounted:.6f} s, the traced run took "
            f"{root_s:.6f} s")
    outcome.metrics = per_layer(tracer, traced, untraced, retransmits,
                                reference_s)
    outcome.problems += design_problems(workload.name, outcome.metrics)
    outcome.attempted, outcome.failed = untraced.attempted, untraced.failed
    outcome.record.update(
        reps=[rep_record(untraced, reference_s), rep_record(traced, None)],
        span_self_s=dict(sorted(tracer.self_s.items())),
        span_calls=dict(sorted(tracer.calls.items())),
        span_bytes=dict(sorted(tracer.volume.items())),
        spans_kept=[list(span) for span in tracer.spans],
        spans_dropped=tracer.spans_dropped)
    return outcome


def main(argv: t.Optional[t.Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    source = source_hash(os.path.join(ROOT, "src", "repro"))
    started = time.perf_counter()
    if args.trace:
        outcome, units = traced_run(workload, args.seed, source), PER_LAYER
    else:
        outcome, units = timed_run(workload, args.seed, source), END_TO_END
    elapsed = time.perf_counter() - started
    if elapsed > args.seconds:
        print(f"perfbench: the run took {elapsed:.1f} s, more than the "
              f"{args.seconds:g} s budget", file=sys.stderr)
    correct = not outcome.problems
    os.makedirs(OUT, exist_ok=True)
    record_path = os.path.join(
        OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    outcome.record.update(
        workload=workload.name, why=workload.why, clients=workload.clients,
        cycles=workload.cycles, seeds=workload.seeds_for(args.seed),
        args=vars(args), correct=correct, problems=outcome.problems,
        attempted=outcome.attempted, failed=outcome.failed,
        metrics=outcome.metrics, source=source, elapsed_s=elapsed,
        over_budget=elapsed > args.seconds,
        host={"nproc": os.cpu_count(), "python": platform.python_version(),
              "machine": platform.machine()})
    with open(record_path, "w") as handle:
        json.dump(outcome.record, handle, indent=1)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{workload.seeds} seed(s) x {workload.clients} clients x "
          f"{workload.cycles} cycles")
    for name, value in outcome.metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  measured loads: {outcome.attempted} attempted, "
          f"{outcome.failed} failed; record {os.path.relpath(record_path)}")
    for problem in outcome.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
