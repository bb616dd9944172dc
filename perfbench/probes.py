"""Outside-in probes: GC pauses, peak RSS, percentiles, span self time.

Everything here observes the program from the benchmark's side: the
garbage collector through ``gc.callbacks``, memory through ``/proc``,
and layer timings from the spans a :class:`repro.obs.Tracer` recorded.
Nothing is installed inside ``src/``.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter


class GcProbe:
    """Collector pauses while installed as a ``gc.callbacks`` hook.

    Use as a ``with`` block around the timed operations only, so set-up
    and verification stay out of the numbers.
    """

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2_collections = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = clock()
        else:
            self.pause_s += clock() - self._t0
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


#: The probe a serving worker runs between :func:`worker_gc_start` and
#: :func:`worker_gc_stop` (submitted to the worker by import path).
_WORKER_PROBE: Optional[GcProbe] = None


def worker_gc_start() -> None:
    """Start counting collector pauses in this (worker) process."""
    global _WORKER_PROBE
    _WORKER_PROBE = GcProbe().__enter__()


def worker_gc_stop() -> Tuple[float, int]:
    """Stop the worker probe; return its ``(pause_s, gen2_collections)``."""
    global _WORKER_PROBE
    probe, _WORKER_PROBE = _WORKER_PROBE, None
    probe.__exit__(None, None, None)
    return probe.pause_s, probe.gen2_collections


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        # ru_maxrss is in KiB on Linux.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read the peak RSS of process {pid}")


def tail(xs: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  Below twenty
    samples no percentile above the median has ten samples beyond it;
    the maximum is returned then, with zero samples beyond.
    """
    ys = sorted(xs)
    n = len(ys)
    if n < 20:
        return ys[-1], 100.0, 0
    rank = n - 10  # 1-based nearest rank: exactly ten samples above it
    return ys[rank - 1], 100.0 * rank / n, 10


def span_self_times(
    events: Sequence[dict],
) -> Dict[str, List[float]]:
    """Per span name: ``[count, total_us, self_us]`` over Chrome events.

    A span's self time is its duration minus the part its direct child
    spans cover.  Spans nest by interval within one ``(pid, tid)``
    lane; ``phase`` spans are keyed by their ``phase`` argument.
    """
    lanes: Dict[Tuple[int, int], List[dict]] = {}
    for e in events:
        if e.get("ph") == "X":
            lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    table: Dict[str, List[float]] = {}
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[Tuple[float, List[float]]] = []  # (end, row of parent)
        for e in spans:
            name = e["name"]
            if name == "phase":
                name = f"phase[{e['args'].get('phase', '?')}]"
            row = table.setdefault(name, [0, 0.0, 0.0])
            end = e["ts"] + e["dur"]
            while stack and stack[-1][0] <= e["ts"]:
                stack.pop()
            if stack:
                stack[-1][1][2] -= e["dur"]
            row[0] += 1
            row[1] += e["dur"]
            row[2] += e["dur"]
            stack.append((end, row))
    return table
