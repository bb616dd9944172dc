#!/usr/bin/env python
"""Lint: one seam for the clock, one seam for the collector.

The observability layer (`docs/observability.md`) owns the process
clock: ``repro.obs.clock`` is the designated timer, so every timed
code path stays observable from one seam and the disabled-tracing
fast path stays honest.  This check fails the build if any file under
``src/`` outside ``src/repro/obs/`` mentions ``perf_counter`` — as a
call, an import, or an alias (the *token* is forbidden, which keeps
the check un-gameable by `from time import perf_counter as pc` style
renames of the import line itself).

The cyclic garbage collector is switched in one place too:
:func:`repro.simulator.runtime.run` pauses it for its own body (see
`docs/performance.md`).  The check fails if any other file under
``src/`` imports :mod:`gc` — the *import* is forbidden, not the
calls, so no alias or ``from gc import ...`` gets past it.

Run from the repo root: ``python tools/check_no_raw_timers.py``.
Exit code 0 = clean.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ALLOWED = SRC / "repro" / "obs"
GC_ALLOWED = SRC / "repro" / "simulator" / "runtime.py"

FORBIDDEN = "perf_counter"


def _gc_imports(text: str) -> list[int]:
    """Line numbers of every import of :mod:`gc` in ``text``."""
    lines = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "gc" or name.startswith("gc.") for name in names):
            lines.append(node.lineno)
    return lines


def main() -> int:
    timers: list[str] = []
    collectors: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        rel = path.relative_to(REPO)
        if path != GC_ALLOWED:
            for lineno in _gc_imports(text):
                collectors.append(f"{rel}:{lineno}: {lines[lineno - 1].strip()}")
        if ALLOWED in path.parents or FORBIDDEN not in text:
            continue
        for lineno, line in enumerate(lines, start=1):
            if FORBIDDEN in line:
                timers.append(f"{rel}:{lineno}: {line.strip()}")
    if timers:
        print(
            f"{len(timers)} raw timer reference(s) outside repro.obs "
            f"(use `repro.obs.clock` — see docs/observability.md):"
        )
        for off in timers:
            print(f"  {off}")
    if collectors:
        print(
            f"{len(collectors)} import(s) of gc outside "
            f"{GC_ALLOWED.relative_to(REPO)} (the run-scoped collector "
            f"pause is the only switch — see docs/performance.md):"
        )
        for off in collectors:
            print(f"  {off}")
    if timers or collectors:
        return 1
    print(f"ok: no {FORBIDDEN!r} references in src/ outside repro/obs/")
    print(f"ok: gc is imported only by {GC_ALLOWED.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
