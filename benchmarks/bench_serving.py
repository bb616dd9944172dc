#!/usr/bin/env python
"""Serving-host benchmark: O(dirty) batches, multiplexed throughput.

Three phases, recorded together in the ``serving`` section of
``BENCH_perf.json``:

1. **O(dirty) overlay gate** (serial, runs everywhere).  A
   ``DynamicRun(mode="incremental")`` session on a cycle absorbs
   pre-scripted k<=8-edit batches (scripting happens *outside* the
   timed region) at two sizes a decade apart — n=10^4 and n=10^5 by
   default.  With the mutable-topology overlay and light-cone warm
   restarts, per-batch cost is O(dirty ball), not O(n): the gate
   asserts the **median** per-batch time at the large size is at most
   ``MAX_O_DIRTY_RATIO`` (3.0) times the small size's.  Medians,
   not means: a stream occasionally dirties a region whose cone
   triggers the full-solve fallback, and that legitimate O(n) outlier
   must not mask the O(dirty) steady state.

2. **In-process serving + steady-state memory** (runs everywhere).
   A ``ServingHost(workers=0)`` multiplexes ``--sessions`` sessions
   through ``--batches`` scripted waves; reports batches/sec,
   sessions/sec and the host's p50/p99 batch latency.  A second,
   untimed pass serves the same script under tracemalloc and records
   the steady-state traced memory (sessions still resident) per
   session, so the timed pass never pays the tracer.

3. **Pooled vs in-process** (needs >= 2 cores; skipped with a clear
   reason below that).  The scripted waves where multiplexing pays
   (8 sessions x 8 batches, cycle n=4096, 64 edits a batch) are
   served in-process and over ``--workers`` warm single-worker pools
   (capped at the core count), interleaved for 3 reps.  The gate
   asserts best-of-3 pooled/in-process throughput >= 1.25x, and that
   both modes return the same batch stats.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py --update

``--update`` rewrites only the ``serving`` section of the baseline;
``compare.py check`` treats the section as informational (missing =
skip), like the other AUX sections.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.dynamic import (  # noqa: E402
    DynamicRun,
    RandomChurn,
    ServingHost,
)
from repro.graphs import families  # noqa: E402
from repro.graphs.weights import unit_weights  # noqa: E402
from repro._util.parallel import retire_serve_pools, serve_pool  # noqa: E402

BASELINE = Path(__file__).with_name("BENCH_perf.json")
MIN_POOLED_CORES = 2
#: The pooled phase's workload: sessions, batches per session, cycle
#: size and edits per batch.
POOLED_WORKLOAD = (8, 8, 4096, 64)
POOLED_REPS = 3
MIN_POOLED_RATIO = 1.25
#: The O(dirty) gate: the large size's median per-batch time over the
#: small size's.
MAX_O_DIRTY_RATIO = 3.0


def host_record():
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


# ----------------------------------------------------------------------
# Phase 1: the O(dirty) gate
# ----------------------------------------------------------------------


def o_dirty_cell(n, k, batches, seed):
    """Median per-batch incremental apply time on a cycle of size n.

    The edit script is generated against the evolving graph *before*
    any timing starts, so the timed region is exactly
    ``session.apply`` — overlay patch + light-cone warm restart.
    """
    session = DynamicRun.vertex_cover(
        families.cycle_graph(n), unit_weights(n),
        mode="incremental", metering="none",
    )
    # Script the batches on a scratch-free twin of the session's state
    # (restore from snapshot), leaving `session` untouched until timing.
    driver = DynamicRun.restore(session.snapshot())
    stream = RandomChurn(edits_per_batch=k, seed=seed, max_degree=2)
    script = []
    while len(script) < batches:
        batch = stream.next_batch(driver.graph, driver.inputs)
        if not batch:
            continue
        driver.apply(batch)
        script.append(batch)

    times = []
    for batch in script:
        t0 = time.perf_counter()
        session.apply(batch)
        times.append(time.perf_counter() - t0)
    assert session.result == driver.result  # scripted == served, bit-for-bit
    return statistics.median(times), times


def run_o_dirty(args):
    cells = {}
    for n in (args.small_n, args.large_n):
        median_s, times = o_dirty_cell(n, args.k, args.o_dirty_batches,
                                       args.seed)
        cells[n] = median_s
        print(f"  n={n}: median {median_s * 1e3:.2f} ms/batch "
              f"(min {min(times) * 1e3:.2f}, max {max(times) * 1e3:.2f})")
    ratio = cells[args.large_n] / cells[args.small_n]
    record = {
        "workload": (
            f"incremental DynamicRun on cycle, {args.k} edits/batch x "
            f"{args.o_dirty_batches} pre-scripted batches"
        ),
        "small_n": args.small_n,
        "large_n": args.large_n,
        "median_ms_small": round(cells[args.small_n] * 1e3, 3),
        "median_ms_large": round(cells[args.large_n] * 1e3, 3),
        "large_over_small_ratio": round(ratio, 3),
        "gate_max_ratio": MAX_O_DIRTY_RATIO,
    }
    assert ratio <= MAX_O_DIRTY_RATIO, (
        f"O(dirty) gate: per-batch cost grew {ratio:.2f}x from n="
        f"{args.small_n} to n={args.large_n} (limit "
        f"{MAX_O_DIRTY_RATIO}x) — batch application is not "
        f"n-independent"
    )
    print(f"  o_dirty gate (ratio {ratio:.2f} <= {MAX_O_DIRTY_RATIO}): PASS")
    return record


# ----------------------------------------------------------------------
# Phases 2 and 3: serving throughput
# ----------------------------------------------------------------------


def script_sessions(sessions, batches, n, edits, seed):
    """Per session: (id, initial snapshot, scripted batches) — untimed."""
    scripts = []
    for i in range(sessions):
        driver = DynamicRun.vertex_cover(
            families.cycle_graph(n), unit_weights(n),
            mode="incremental", metering="none",
        )
        blob0 = driver.snapshot()
        stream = RandomChurn(edits_per_batch=edits, seed=seed + i,
                             max_degree=2)
        script = []
        while len(script) < batches:
            batch = stream.next_batch(driver.graph, driver.inputs)
            if not batch:
                continue
            driver.apply(batch)
            script.append(batch)
        scripts.append((f"s{i}", blob0, script))
    return scripts


def serve_scripts(host, scripts):
    """Open + drive all scripted sessions; returns (wall seconds, the
    batch stats in wave order)."""
    t0 = time.perf_counter()
    for sid, blob0, _ in scripts:
        host.open(sid, blob0)
    stats = []
    waves = max(len(s) for _, _, s in scripts)
    for w in range(waves):
        items = [(sid, s[w]) for sid, _, s in scripts if w < len(s)]
        stats.extend(host.apply_each(items))
    return time.perf_counter() - t0, stats


def throughput_record(args, report, elapsed):
    total = report.batches_applied
    return {
        "sessions": args.sessions,
        "batches_per_session": args.batches,
        "n_per_session": args.serve_n,
        "wall_seconds": round(elapsed, 3),
        "batches_per_sec": round(total / elapsed, 2),
        "sessions_per_sec": round(args.sessions / elapsed, 2),
        "p50_batch_ms": round(report.latency_ms["p50_ms"], 3),
        "p99_batch_ms": round(report.latency_ms["p99_ms"], 3),
        "worker_recoveries": report.worker_recoveries,
    }


def run_in_process(args):
    scripts = script_sessions(args.sessions, args.batches, args.serve_n, 2,
                              args.seed)
    host = ServingHost(workers=0)
    elapsed, _ = serve_scripts(host, scripts)
    record = throughput_record(args, host.report(), elapsed)
    record["workers"] = 0
    host.shutdown()
    # Untimed: the same sessions under tracemalloc, still resident, are
    # the steady-state footprint.
    tracemalloc.start()
    host = ServingHost(workers=0)
    serve_scripts(host, scripts)
    steady_bytes, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    host.shutdown()
    record["steady_state_mb_total"] = round(steady_bytes / 1e6, 2)
    record["steady_state_kb_per_session"] = round(
        steady_bytes / 1e3 / args.sessions, 1
    )
    print(f"  in-process: {record['batches_per_sec']} batches/s, "
          f"p99 {record['p99_batch_ms']} ms, "
          f"{record['steady_state_kb_per_session']} kB/session")
    return record


def run_pooled(args):
    cores = os.cpu_count() or 1
    if cores < MIN_POOLED_CORES:
        reason = (
            f"host has {cores} core(s); pooled serving needs >= "
            f"{MIN_POOLED_CORES} to measure real multiplexing"
        )
        print(f"  pooled: SKIPPED — {reason}")
        return {"skipped": reason}
    workers = min(args.workers, cores)
    sessions, batches, n, edits = POOLED_WORKLOAD
    print(f"pooled vs in-process: {sessions} sessions x {batches} batches, "
          f"n={n}, {edits} edits/batch, {workers} workers")
    try:
        for i in range(workers):  # fork the workers before scripting
            serve_pool(i).submit(os.getpid).result()
        scripts = script_sessions(sessions, batches, n, edits, args.seed)
        total = sum(len(s) for _, _, s in scripts)
        rates = {0: [], workers: []}
        stats = {}
        for rep in range(POOLED_REPS):
            for mode in rates:  # interleaved: in-process, then pooled
                host = ServingHost(workers=mode)
                elapsed, stats[mode] = serve_scripts(host, scripts)
                host.shutdown()
                rates[mode].append(round(total / elapsed, 2))
                print(f"  rep {rep + 1} workers={mode}: "
                      f"{rates[mode][-1]} batches/s")
    finally:
        retire_serve_pools()
    assert stats[0] == stats[workers], "pooled stats differ from in-process"
    ratio = max(rates[workers]) / max(rates[0])
    record = {
        "workload": (
            f"incremental DynamicRun on cycle, {sessions} sessions x "
            f"{batches} scripted waves, {edits} edits/batch"
        ),
        "n_per_session": n,
        "workers": workers,
        "reps": POOLED_REPS,
        "in_process_batches_per_sec": rates[0],
        "pooled_batches_per_sec": rates[workers],
        "best_pooled_over_in_process": round(ratio, 3),
        "gate_min_ratio": MIN_POOLED_RATIO,
    }
    assert ratio >= MIN_POOLED_RATIO, (
        f"pooled gate: {workers} workers served {ratio:.2f}x the "
        f"in-process throughput (best of {POOLED_REPS}; need "
        f">= {MIN_POOLED_RATIO}x) — multiplexing does not pay here"
    )
    print(f"  pooled gate (best-of-{POOLED_REPS} ratio {ratio:.2f} >= "
          f"{MIN_POOLED_RATIO}): PASS")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small-n", type=int, default=10_000,
                        help="small size for the O(dirty) gate")
    parser.add_argument("--large-n", type=int, default=100_000,
                        help="large size for the O(dirty) gate")
    parser.add_argument("--k", type=int, default=8,
                        help="edits per batch in the O(dirty) gate (<= 8)")
    parser.add_argument("--o-dirty-batches", type=int, default=12,
                        help="scripted batches per O(dirty) cell")
    parser.add_argument("--sessions", type=int, default=16,
                        help="concurrent sessions in the in-process phase")
    parser.add_argument("--batches", type=int, default=10,
                        help="batches per served session")
    parser.add_argument("--serve-n", type=int, default=512,
                        help="instance size per served session")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker pools for the pooled phase (capped at "
                             "the core count)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-o-dirty", action="store_true",
                        help="skip the (slow) O(dirty) gate phase")
    parser.add_argument("--update", action="store_true",
                        help="write the serving section of BENCH_perf.json")
    args = parser.parse_args(argv)
    if args.k > 8:
        parser.error("--k must be <= 8 (the O(dirty) gate's contract)")

    record = {"host": host_record()}
    if args.skip_o_dirty:
        print("o_dirty gate: skipped (--skip-o-dirty)")
        record["o_dirty"] = {"skipped": "--skip-o-dirty"}
    else:
        print(f"o_dirty gate: cycle n={args.small_n} vs n={args.large_n}, "
              f"k={args.k}")
        record["o_dirty"] = run_o_dirty(args)
    print(f"serving: {args.sessions} sessions x {args.batches} batches, "
          f"n={args.serve_n}")
    record["in_process"] = run_in_process(args)
    record["pooled"] = run_pooled(args)

    print(json.dumps({"serving": record}, indent=2))
    if args.update:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline["serving"] = record
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote serving section -> {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
