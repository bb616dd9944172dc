#!/usr/bin/env python
"""Columnar vs object engine on the Section 3 edge-packing hot path.

Times :func:`repro.simulator.runtime.run` on a large unit-weight cycle
— the workload the columnar engine exists for: Phase I dominates the
object engine's wall time (2Δ+1 rounds of per-node ``emit``/``step``
calls over n nodes), while the columnar engine runs those rounds as a
handful of whole-array numpy passes and hands the cheap remainder
(every node coasts and parks) to the object engine.  Verifies the two
engines stay bit-for-bit identical on every ``RunResult`` field (the
``tests/test_columnar_engine.py`` contract, re-checked on the benchmark
workload) and records the measurement in the ``columnar`` section of
``BENCH_perf.json``:

    PYTHONPATH=src python benchmarks/bench_columnar.py --update

**Gate: columnar must be >=3x faster** at n>=4096 with metering off —
the advantage is a constant-rounds Python-loop vs vectorised-kernel
ratio over the dominant phase, not host-dependent, so the gate runs
everywhere numpy is installed.

This script is not part of the pytest-benchmark baseline
(``bench_perf.py``); like ``bench_dynamic.py`` it compares two
configurations against each other rather than a hot path against
history.  ``compare.py check`` ignores the section (missing = skip);
``compare.py update`` preserves it.
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

from repro.core.edge_packing import edge_packing_job  # noqa: E402
from repro.graphs import families  # noqa: E402
from repro.graphs.weights import unit_weights  # noqa: E402
from repro.simulator.runtime import run  # noqa: E402
from repro.simulator.state_layout import HAVE_NUMPY  # noqa: E402

BASELINE = Path(__file__).with_name("BENCH_perf.json")


def timed_runs(graph, weights, metering, repeats):
    """Best-of-``repeats`` wall time per engine, interleaved.

    Alternating the engines inside one loop exposes both to the same
    host conditions (frequency scaling, allocator state, neighbours on
    shared runners); separate back-to-back loops routinely skew the
    ratio either way on busy hosts.
    """
    best = {"object": float("inf"), "columnar": float("inf")}
    results = {}
    for _ in range(repeats):
        for engine in ("object", "columnar"):
            job = edge_packing_job(graph, weights, metering=metering)
            job.pop("graph")
            machine = job.pop("machine")
            t0 = time.perf_counter()
            res = run(graph, machine, engine=engine, **job)
            elapsed = time.perf_counter() - t0
            gc.collect()
            if elapsed < best[engine]:
                best[engine], results[engine] = elapsed, res
    return best, results


def assert_identical(a, b):
    assert a.outputs == b.outputs
    assert a.rounds == b.rounds
    assert a.all_halted == b.all_halted
    assert a.messages_sent == b.messages_sent
    assert a.message_bits == b.message_bits
    assert a.per_round_bits == b.per_round_bits
    assert a.states == b.states


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
    parser.add_argument("--repeats", type=int, default=7,
                        help="best-of interleaved repeats per engine "
                             "(default 7)")
    parser.add_argument("--metering", default="none",
                        choices=["none", "counts", "bits"],
                        help="metering mode for the timed runs "
                             "(default none: pure execution cost)")
    parser.add_argument("--update", action="store_true",
                        help="write the columnar section of BENCH_perf.json")
    args = parser.parse_args(argv)

    if not HAVE_NUMPY:
        print("numpy not installed; columnar engine unavailable — skipping")
        return 0

    graph = families.cycle_graph(args.n)
    weights = unit_weights(args.n)
    print(f"edge packing, cycle n={args.n}, unit weights, "
          f"metering {args.metering}, best of {args.repeats}")

    timings, results = timed_runs(graph, weights, args.metering, args.repeats)

    assert_identical(results["columnar"], results["object"])
    speedup = timings["object"] / timings["columnar"]

    record = {
        "workload": (
            f"edge packing, cycle n={args.n}, unit weights, "
            f"metering {args.metering}"
        ),
        "object_s": round(timings["object"], 4),
        "columnar_s": round(timings["columnar"], 4),
        "columnar_vs_object_speedup": round(speedup, 2),
        "results_bit_identical_across_engines": True,
        "host": host_record(),
    }
    print(json.dumps({"columnar": record}, indent=2))
    assert speedup >= 3.0, (
        f"the columnar engine should be >=3x the object engine on "
        f"n>={args.n} edge packing with metering off; "
        f"measured {speedup:.2f}x"
    )
    print("columnar gate (>=3x vs object): PASS")

    if args.update:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline["columnar"] = record
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote columnar section -> {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
