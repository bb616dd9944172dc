#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, at smoke size: the untraced and traced runs exit 0
and print exactly the metrics ``BENCHMARK.json`` names, with their
units; a run with ``--corrupt`` is caught (``correct`` false, exit 1).
Finally the benchmark must fail, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench" / "selftest"


def run(cwd: Path, workload: str, *extra: str):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines, err = run(ROOT, wl, "--smoke", "--trace", trace)
            result = json.loads(lines[-1]) if lines else {}
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if code != 0 or not result.get("correct") or got != want:
                failures.append(f"{wl} --trace {trace}: exit {code}, "
                                f"metrics {sorted(set(got) ^ set(want))}\n{err}")
        code, lines, _ = run(ROOT, wl, "--smoke", "--corrupt")
        result = json.loads(lines[-1]) if lines else {}
        if code == 0 or result.get("correct") is not False or not result.get("failed"):
            failures.append(f"{wl} --corrupt was not caught (exit {code})")
        print(f"{wl}: checked", flush=True)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(ROOT / "perfbench", SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(SCRATCH, spec["workloads"][0]["name"])
    shutil.rmtree(SCRATCH)
    if code == 0 or any(line.startswith("{") for line in lines):
        failures.append("a checkout without src/ did not fail cleanly")

    for f in failures:
        print("SELFTEST FAILED:", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
