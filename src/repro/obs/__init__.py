"""Unified observability: spans, typed events, counters, Chrome export.

Every execution substrate in this tree — the object and columnar
engines, the crash-recovering process pools, the dynamic incremental
sessions and the multiplexed serving host — previously explained
itself through scattered ad-hoc artifacts (memo hit counters,
``BatchStats``, ``FailureReport``).  This package gives them one
vocabulary:

* a **span** API (``run`` → ``round`` → phase) recording wall-clock
  intervals,
* **typed structured events** (engine selection and every fallback
  reason, pool retries, memo hit/miss, dynamic batch light-cone
  stats, serving checkpoint/recovery/replay, injected faults — see
  :mod:`repro.obs.events` for the taxonomy),
* **counter/histogram registries**, and
* an exporter producing Chrome trace-event JSON (loadable in Perfetto
  / ``chrome://tracing``) plus a human ``summarize`` view.

The contract every consumer relies on:

* **Disabled is free.**  With no tracer installed,
  :func:`current` returns ``None`` and every instrumentation site is
  a single global read + ``None`` check (gated by
  ``benchmarks/bench_obs.py``).
* **Tracing never changes results.**  A tracer only reads the clock
  and appends to its own buffers — it never touches RNG, metering or
  scheduling, so tracing on ≡ tracing off bit-for-bit on every
  ``RunResult`` field (pinned by ``tests/test_obs.py``).
* **One merged trace per run.**  Worker processes (process-pool
  chunks, serving workers) buffer their spans locally and ship them
  back with their results; the parent tracer absorbs them under
  distinct pid lanes, so a multi-worker sweep or a pooled serving host
  still produces a single loadable trace.

Install a tracer for a region with :func:`tracing`::

    from repro import obs

    tracer = obs.Tracer()
    with obs.tracing(tracer):
        result = run(graph, machine)
    tracer.dump("out.json")          # Chrome trace-event JSON
    print(tracer.summarize())        # human view

or from the CLI: ``python -m repro.cli vc --trace out.json ...`` and
``python -m repro.cli trace summarize out.json``.
"""

from repro.obs.events import (
    COUNTER_NAMES,
    CTR_FAULT_EVENTS,
    CTR_MEMO_HIT,
    CTR_MEMO_MISS,
    CTR_POOL_RESTARTS,
    CTR_SERVING_CHECKPOINTS,
    CTR_SERVING_RECOVERIES,
    CTR_SERVING_REPLAYED,
    EV_DYNAMIC_BATCH,
    EV_ENGINE_FALLBACK,
    EV_ENGINE_SELECTED,
    EV_FAULT_INJECTED,
    EV_POOL_RETRY,
    EV_SERVING_CHECKPOINT,
    EV_SERVING_RECOVERY,
    EV_SERVING_REPLAY,
    EVENT_NAMES,
    SPAN_BATCH,
    SPAN_NAMES,
    SPAN_PHASE,
    SPAN_ROUND,
    SPAN_RUN,
)
from repro.obs.export import summarize_trace
from repro.obs.tracer import (
    Tracer,
    clock,
    current,
    install,
    tracing,
    uninstall,
)

__all__ = [
    "COUNTER_NAMES",
    "EVENT_NAMES",
    "SPAN_NAMES",
    "CTR_FAULT_EVENTS",
    "CTR_MEMO_HIT",
    "CTR_MEMO_MISS",
    "CTR_POOL_RESTARTS",
    "CTR_SERVING_CHECKPOINTS",
    "CTR_SERVING_RECOVERIES",
    "CTR_SERVING_REPLAYED",
    "EV_DYNAMIC_BATCH",
    "EV_ENGINE_FALLBACK",
    "EV_ENGINE_SELECTED",
    "EV_FAULT_INJECTED",
    "EV_POOL_RETRY",
    "EV_SERVING_CHECKPOINT",
    "EV_SERVING_RECOVERY",
    "EV_SERVING_REPLAY",
    "SPAN_BATCH",
    "SPAN_PHASE",
    "SPAN_ROUND",
    "SPAN_RUN",
    "Tracer",
    "clock",
    "current",
    "install",
    "summarize_trace",
    "tracing",
    "uninstall",
]
