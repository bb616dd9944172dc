#!/usr/bin/env python
"""Regression guard for the perf benchmark baseline.

``BENCH_perf.json`` pins the expected timings of the hot paths
exercised by ``bench_perf.py`` (plus, under ``"seed"``, the timings the
pristine seed tree produced, so headline speedups stay honest).  CI —
or anyone touching the simulator — regenerates fresh numbers and checks
them against the baseline:

    PYTHONPATH=src python -m pytest benchmarks/bench_perf.py \
        --benchmark-only --benchmark-json=/tmp/bench.json -q
    python benchmarks/compare.py check /tmp/bench.json

``check`` exits non-zero if any baselined benchmark got more than 25%
slower (override with ``--threshold``), or vanished from the run.
After an intentional perf change, refresh the baseline with

    python benchmarks/compare.py update /tmp/bench.json

which rewrites ``BENCH_perf.json`` in place, preserving the recorded
seed timings and recomputing the headline speedups.

Auxiliary sections (``sweep_scaling`` from
``bench_sweep_scaling.py``; ``bvc_replay``/``selfstab`` from
``bench_replay.py``; ``dynamic``/``dynamic_snapshot`` from
``bench_dynamic.py``; ``columnar`` from ``bench_columnar.py``;
``serving`` from ``bench_serving.py``; ``obs`` from
``bench_obs.py``) are
host- or configuration-comparisons, not
hot-path history: ``check`` never
gates on them and a baseline without them still compares cleanly
(missing section = skip, not fail); ``update`` preserves whatever of
them is present.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).with_name("BENCH_perf.json")
DEFAULT_THRESHOLD = 1.25

# Sections recorded by the standalone harnesses; informational only.
# check skips them whether present or missing, update preserves them.
AUX_SECTIONS = (
    "sweep_scaling", "bvc_replay", "selfstab", "dynamic",
    "dynamic_snapshot", "columnar", "serving", "obs",
)

# (numerator benchmark or seed entry, denominator benchmark) pairs the
# baseline reports as headline speedups.
HEADLINES = {
    "edge_packing_n128_speedup_metering_on": (
        ("seed", "test_perf_edge_packing_n128"),
        ("benchmarks", "test_perf_edge_packing_n128"),
    ),
    "edge_packing_n128_speedup_metering_off": (
        ("seed", "test_perf_edge_packing_n128"),
        ("benchmarks", "test_perf_edge_packing_n128_nometer"),
    ),
    "fast_engine_vs_reference_engine": (
        ("benchmarks", "test_perf_reference_engine_n128"),
        ("benchmarks", "test_perf_fast_engine_n128"),
    ),
    "scaled_vs_fraction_arithmetic": (
        ("benchmarks", "test_perf_edge_packing_n128_fraction_mode"),
        ("benchmarks", "test_perf_edge_packing_n128_nometer"),
    ),
    "edge_packing_n128_vs_pr1_metering_off": (
        ("pr1", "test_perf_edge_packing_n128_nometer"),
        ("benchmarks", "test_perf_edge_packing_n128_nometer"),
    ),
}


def load_run(path: Path) -> dict:
    """Extract {name: {"min": s, "mean": s}} from pytest-benchmark JSON."""
    data = json.loads(path.read_text())
    out = {}
    for bench in data["benchmarks"]:
        out[bench["name"]] = {
            "min": bench["stats"]["min"],
            "mean": bench["stats"]["mean"],
        }
    return out


def compute_headlines(baseline: dict) -> dict:
    headlines = {}
    for key, ((num_sec, num_name), (den_sec, den_name)) in HEADLINES.items():
        num = baseline.get(num_sec, {}).get(num_name, {}).get("min")
        den = baseline.get(den_sec, {}).get(den_name, {}).get("min")
        if num and den:
            headlines[key] = round(num / den, 2)
    return headlines


def cmd_check(current: dict, baseline: dict, threshold: float) -> int:
    failures = []
    for section in AUX_SECTIONS:
        state = "present" if section in baseline else "absent"
        print(f"skip {section}: auxiliary section ({state}); not a gate")
    for name, base in baseline.get("benchmarks", {}).items():
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from this run")
            continue
        ratio = cur["min"] / base["min"]
        status = "FAIL" if ratio > threshold else "ok"
        print(
            f"{status:4s} {name}: {cur['min'] * 1e3:8.2f} ms "
            f"vs baseline {base['min'] * 1e3:8.2f} ms ({ratio:.2f}x)"
        )
        if ratio > threshold:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"(threshold {threshold:.2f}x)"
            )
    if failures:
        print("\nregressions:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall hot paths within threshold")
    return 0


def cmd_update(current: dict, baseline: dict, baseline_path: Path) -> int:
    baseline["benchmarks"] = current
    baseline["headline"] = compute_headlines(baseline)
    baseline_path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {baseline_path}")
    for key, value in baseline["headline"].items():
        print(f"  {key}: {value}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=["check", "update"])
    parser.add_argument("current", type=Path,
                        help="fresh pytest-benchmark JSON output")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    args = parser.parse_args(argv)

    current = load_run(args.current)
    baseline = (
        json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
    )
    if args.command == "check":
        if not baseline.get("benchmarks"):
            print(f"no baseline at {args.baseline}; run 'update' first",
                  file=sys.stderr)
            return 2
        return cmd_check(current, baseline, args.threshold)
    return cmd_update(current, baseline, args.baseline)


if __name__ == "__main__":
    raise SystemExit(main())
