#!/usr/bin/env python
"""Observability-layer gates: disabled overhead, equality, merged traces.

Three hard contracts of :mod:`repro.obs` (see ``docs/observability.md``),
re-checked on the ``bench_columnar.py`` workload (large unit-weight
cycle, metering off) and recorded in the ``obs`` section of
``BENCH_perf.json``:

1. **Disabled tracing is (near-)free.**  With no tracer installed,
   every instrumentation site is one ``current()`` read plus a ``None``
   check.  The gate measures the cost of exactly as many such no-op
   checks as the traced run emits records, and requires that total to
   be <= 5% of the untraced workload's wall time.  (Measuring the
   checks directly, rather than differencing two noisy end-to-end
   timings, keeps the gate stable on busy hosts — timing jitter
   between two runs of the full workload routinely exceeds the
   microseconds the checks cost.)
2. **Tracing on == tracing off, bit for bit.**  The traced run's
   ``RunResult`` agrees with the untraced run on all seven fields.
3. **One merged trace.**  A two-worker sweep (workers in separate
   processes) yields a single trace containing worker-side ``round``
   spans under pool-worker lanes, and every pooled result equals the
   untraced serial run.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py --update

Like ``bench_columnar.py``, this is not part of the pytest-benchmark
baseline; ``compare.py check`` ignores the section, ``update``
preserves it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import obs  # noqa: E402
from repro.core.edge_packing import edge_packing_job  # noqa: E402
from repro.graphs import families  # noqa: E402
from repro.graphs.weights import unit_weights  # noqa: E402
from repro.obs import SPAN_ROUND  # noqa: E402
from repro.simulator.runtime import run, sweep  # noqa: E402

BASELINE = Path(__file__).with_name("BENCH_perf.json")

RUN_RESULT_FIELDS = (
    "outputs", "rounds", "all_halted", "messages_sent",
    "message_bits", "per_round_bits", "states",
)


def workload(n):
    graph = families.cycle_graph(n)
    job = edge_packing_job(graph, unit_weights(n), metering="none")
    job.pop("graph")
    machine = job.pop("machine")
    return graph, machine, job


def timed(fn, repeats):
    """Best-of-``repeats`` wall time, cyclic GC paused per repeat."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        if gc_was_enabled:
            gc.enable()
        gc.collect()
        best = min(best, elapsed)
    return best, value


def noop_check_cost(visits, repeats):
    """Best-of wall time of ``visits`` disabled instrumentation checks."""
    current = obs.current

    def probe():
        for _ in range(visits):
            tr = current()
            if tr is not None:  # pragma: no cover - tracing is off here
                raise AssertionError("tracer installed during probe")

    best, _ = timed(probe, repeats)
    return best


def host_record():
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8192,
                        help="cycle size (default 8192)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of repeats per timing (default 5)")
    parser.add_argument("--update", action="store_true",
                        help="write the obs section of BENCH_perf.json")
    args = parser.parse_args(argv)

    graph, machine, job = workload(args.n)
    print(f"edge packing, cycle n={args.n}, unit weights, metering none, "
          f"best of {args.repeats}")

    # Gate 2 first (it also produces the record count gate 1 needs).
    untraced_s, base = timed(lambda: run(graph, machine, **job), args.repeats)
    tracer = obs.Tracer("bench_obs")
    with obs.tracing(tracer):
        traced = run(graph, machine, **job)
    for field in RUN_RESULT_FIELDS:
        assert getattr(base, field) == getattr(traced, field), (
            f"traced run differs from untraced on RunResult.{field}"
        )
    print("equality gate (traced == untraced, all 7 fields): PASS")

    # Gate 1: the disabled fast path.  The traced run emitted
    # `visits` records; an untraced run visits the same sites and pays
    # one current()-is-None check at each.
    visits = len(tracer.events()) + sum(tracer.counters.values())
    overhead_s = noop_check_cost(visits, args.repeats)
    ratio = overhead_s / untraced_s
    print(f"disabled-path checks: {visits} visits, "
          f"{overhead_s * 1e6:.1f}us vs workload {untraced_s * 1e3:.1f}ms "
          f"({ratio * 100:.3f}%)")
    assert ratio <= 0.05, (
        f"disabled-tracer overhead {ratio * 100:.2f}% exceeds the 5% gate"
    )
    print("disabled-overhead gate (<=5%): PASS")

    # Gate 3: two-worker sweep -> one merged trace with worker
    # round spans on pool-worker lanes.
    jobs = [dict(job, graph=graph, machine=machine)] * 2
    pool_tracer = obs.Tracer("bench_obs pool")
    with obs.tracing(pool_tracer):
        pooled = sweep(jobs, n_workers=2)
    assert pooled.failure_report.backend == "process", pooled.failure_report
    for result in pooled:
        for field in RUN_RESULT_FIELDS:
            assert getattr(base, field) == getattr(result, field), (
                f"pooled traced run differs on RunResult.{field}"
            )
    data = pool_tracer.chrome()
    lanes = {
        e["pid"]: e["args"]["name"]
        for e in data["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    pool_lanes = {
        p for p, name in lanes.items() if name.startswith("pool worker")
    }
    worker_rounds = sum(
        1
        for e in data["traceEvents"]
        if e["name"] == SPAN_ROUND and e.get("pid") in pool_lanes
    )
    assert pool_lanes, f"no pool-worker lanes, got {sorted(lanes.values())}"
    assert worker_rounds > 0, "no worker-side round spans in merged trace"
    print(f"merged-trace gate ({len(pool_lanes)} pool-worker lanes, "
          f"{worker_rounds} worker round spans): PASS")

    record = {
        "workload": (
            f"edge packing, cycle n={args.n}, unit weights, metering none"
        ),
        "untraced_s": round(untraced_s, 4),
        "instrumentation_visits": visits,
        "disabled_overhead_s": round(overhead_s, 6),
        "disabled_overhead_pct": round(ratio * 100, 4),
        "traced_equals_untraced_all_fields": True,
        "pool_trace_worker_round_spans": worker_rounds,
        "pool_trace_lanes": len(pool_lanes),
        "host": host_record(),
    }
    print(json.dumps({"obs": record}, indent=2))

    if args.update:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline["obs"] = record
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote obs section -> {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
