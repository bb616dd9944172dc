#!/usr/bin/env python
"""Sweep scaling benchmark: serial vs the warm process pool.

Times the large-n ``exp_scaling`` workload (the §3 edge-packing and §4
fractional-packing jobs the Section 5 experiments replay; each (n,
protocol) pair is one independent, picklable sweep instance) through
``sweep(...)`` serially and with ``n_workers``, verifies the results
are field-for-field identical, and records the measurement in the
``sweep_scaling`` section of ``BENCH_perf.json``:

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py \\
        --n 5000 --copies 4 --workers 2

**Gate.**  Whenever the host has at least as many cores as
``--workers`` (and ``--workers`` >= 2), the warm pool must run the
sweep at least 1.5x faster than serial — the pool's whole reason to
exist.  Whenever the gate applies the ``sweep_scaling`` section is
refreshed **automatically** (no flag needed); on a host with fewer
cores than workers the gate and the refresh are skipped with a clear
message, since such a measurement cannot show multi-core scaling.
Pass ``--update`` to record regardless.

The section is informational (host-dependent scaling), so
``compare.py check`` does not gate on it; the equivalence assertion
here is the hard part of the contract and runs on any host.  The
recorded ``host.cpu_count`` says which regime a measurement came from.

This script is not part of the pytest-benchmark baseline
(``bench_perf.py``); it is a standalone harness because it compares
*serial against pooled execution* rather than a hot path against
history.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.exp_scaling import _jobs_for  # noqa: E402
from repro.simulator.runtime import sweep  # noqa: E402

BASELINE = Path(__file__).with_name("BENCH_perf.json")

#: Minimum warm-pool speedup over serial when the host has the cores.
MIN_SPEEDUP = 1.5


def build_jobs(n: int, copies: int):
    """``copies`` independent instances of the large-n workload.

    Instances must be independent objects (no shared graphs) so the
    pickling cost the process pool pays is the honest per-instance
    cost, not an aliasing artefact.
    """
    jobs = []
    for _ in range(copies // 2 + copies % 2):
        jobs.extend(job for _label, job in _jobs_for(n))
    return jobs[:copies]


def time_sweep(jobs, n_workers, repeats):
    """Best-of-``repeats`` wall clock; returns (seconds, results)."""
    best, results = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = sweep(jobs, n_workers=n_workers)
        best = min(best, time.perf_counter() - t0)
        results = out
    return best, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10_000,
                        help="cycle size per instance (default 10000)")
    parser.add_argument("--copies", type=int, default=8,
                        help="independent sweep instances (default 8)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per configuration (default 3)")
    parser.add_argument("--update", action="store_true",
                        help="write the sweep_scaling section of BENCH_perf.json "
                             "even when the host has fewer cores than "
                             "--workers (otherwise it refreshes automatically)")
    args = parser.parse_args(argv)

    jobs = build_jobs(args.n, args.copies)
    print(f"{len(jobs)} instances of the n={args.n} exp_scaling workload, "
          f"{args.workers} workers, best of {args.repeats}")

    serial_s, serial = time_sweep(jobs, None, args.repeats)
    # The first pooled call pays warm-up (fork + import); time it
    # separately so the steady-state number reflects the warm pool.
    t0 = time.perf_counter()
    cold = sweep(jobs, n_workers=args.workers)
    cold_s = time.perf_counter() - t0
    process_s, pooled = time_sweep(jobs, args.workers, args.repeats)

    if pooled.failure_report.backend != "process":
        print(f"FATAL: pooled sweep ran on {pooled.failure_report.backend!r}",
              file=sys.stderr)
        return 1
    if not serial == cold == pooled:
        print("FATAL: pooled results differ from serial — determinism "
              "contract broken", file=sys.stderr)
        return 1

    cores = os.cpu_count() or 1
    record = {
        "workload": f"exp_scaling jobs, cycle n={args.n}, "
                    f"{len(jobs)} instances",
        "workers": args.workers,
        "serial_s": round(serial_s, 4),
        "process_cold_s": round(cold_s, 4),
        "process_warm_s": round(process_s, 4),
        "process_vs_serial_speedup": round(serial_s / process_s, 2),
        "results_bit_identical_to_serial": True,
        "host": {
            "cpu_count": cores,
            "python": platform.python_version(),
            "platform": platform.system().lower(),
        },
    }
    print(json.dumps(record, indent=2))

    gated = cores >= args.workers >= 2
    if gated:
        speedup = serial_s / process_s
        assert speedup >= MIN_SPEEDUP, (
            f"warm pool is {speedup:.2f}x serial at {args.workers} workers on "
            f"a {cores}-core host; the gate is >= {MIN_SPEEDUP}x"
        )
        print(f"speedup gate (>= {MIN_SPEEDUP}x serial): PASS")
    else:
        print(f"speedup gate skipped: {args.workers} worker(s) on {cores} "
              "core(s) cannot demonstrate multi-core scaling")

    if args.update or gated:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline["sweep_scaling"] = record
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote sweep_scaling section -> {BASELINE}")
    else:
        print("skip: not refreshing the sweep_scaling baseline — the "
              "recorded section is kept as-is. Re-run with --workers at most "
              "the core count (refreshes automatically) or pass --update.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
