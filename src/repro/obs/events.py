"""The event taxonomy: every span and typed-event name, in one place.

These names are the shared vocabulary between the instrumented
modules, the exporter, the ``summarize`` view and the documentation —
``tools/check_docs.py`` reads :data:`EVENT_NAMES` / :data:`SPAN_NAMES`
from here to verify ``docs/observability.md`` stays complete.  Names
are dotted ``subsystem.what`` strings; spans are plain nouns for the
interval they cover.

Spans (wall-clock intervals, nesting run → round → phase)
---------------------------------------------------------
* :data:`SPAN_RUN` — one :func:`repro.simulator.runtime.run` call.
* :data:`SPAN_ROUND` — one synchronous communication round, in any
  engine (object, columnar, reference).
* :data:`SPAN_PHASE` — a named sub-interval of a run (the columnar
  leading rounds, a serving wave).
* :data:`SPAN_BATCH` — one :meth:`repro.dynamic.session.DynamicRun.
  apply` batch (dynamic sessions and the serving host).

Typed events (instants with structured args)
--------------------------------------------
* :data:`EV_ENGINE_SELECTED` — which execution substrate a run
  actually used (``engine``, ``n``, ``rounds``).
* :data:`EV_ENGINE_FALLBACK` — a substrate that could not engage and
  why (``wanted``, ``reason``) — emitted for every columnar fallback
  cause.
* :data:`EV_POOL_RETRY` — one process-pool degradation-ladder action
  (``chunk``, ``attempt``, ``action``, ``backoff_s``).
* :data:`EV_DYNAMIC_BATCH` — one dynamic batch's repair accounting,
  light-cone stats included (``mode``, ``n_edits``, ``dirty_seeds``,
  ``repaired_nodes``, ``cone_node_rounds``, ``rounds``).
* :data:`EV_SERVING_CHECKPOINT` — the serving host refreshed a
  session checkpoint (``session``, ``batches``).
* :data:`EV_SERVING_RECOVERY` — a dead serving worker was rebuilt
  (``worker``, ``sessions``).
* :data:`EV_SERVING_REPLAY` — one session replayed from checkpoint
  during recovery (``session``, ``batches``).
* :data:`EV_FAULT_INJECTED` — a fault adversary acted on a round
  (``kind``, ``round``, ``events``).

Counters (monotonic, in the registry rather than the event stream)
------------------------------------------------------------------
``memo.hit`` / ``memo.miss`` (replay memoisation), ``pool.restarts``,
``serving.checkpoints`` / ``serving.recoveries`` /
``serving.replayed_batches``, ``fault.events``.
"""

from __future__ import annotations

__all__ = [
    "SPAN_RUN",
    "SPAN_ROUND",
    "SPAN_PHASE",
    "SPAN_BATCH",
    "SPAN_NAMES",
    "EV_ENGINE_SELECTED",
    "EV_ENGINE_FALLBACK",
    "EV_POOL_RETRY",
    "EV_DYNAMIC_BATCH",
    "EV_SERVING_CHECKPOINT",
    "EV_SERVING_RECOVERY",
    "EV_SERVING_REPLAY",
    "EV_FAULT_INJECTED",
    "EVENT_NAMES",
    "CTR_MEMO_HIT",
    "CTR_MEMO_MISS",
    "CTR_POOL_RESTARTS",
    "CTR_SERVING_CHECKPOINTS",
    "CTR_SERVING_RECOVERIES",
    "CTR_SERVING_REPLAYED",
    "CTR_FAULT_EVENTS",
    "COUNTER_NAMES",
]

SPAN_RUN = "run"
SPAN_ROUND = "round"
SPAN_PHASE = "phase"
SPAN_BATCH = "batch"

#: Every span name, for the docs check and the well-formedness tests.
SPAN_NAMES = (SPAN_RUN, SPAN_ROUND, SPAN_PHASE, SPAN_BATCH)

EV_ENGINE_SELECTED = "engine.selected"
EV_ENGINE_FALLBACK = "engine.fallback"
EV_POOL_RETRY = "pool.retry"
EV_DYNAMIC_BATCH = "dynamic.batch"
EV_SERVING_CHECKPOINT = "serving.checkpoint"
EV_SERVING_RECOVERY = "serving.recovery"
EV_SERVING_REPLAY = "serving.replay"
EV_FAULT_INJECTED = "fault.injected"

#: Every typed-event name, for the docs check and ``summarize``.
EVENT_NAMES = (
    EV_ENGINE_SELECTED,
    EV_ENGINE_FALLBACK,
    EV_POOL_RETRY,
    EV_DYNAMIC_BATCH,
    EV_SERVING_CHECKPOINT,
    EV_SERVING_RECOVERY,
    EV_SERVING_REPLAY,
    EV_FAULT_INJECTED,
)

CTR_MEMO_HIT = "memo.hit"
CTR_MEMO_MISS = "memo.miss"
CTR_POOL_RESTARTS = "pool.restarts"
CTR_SERVING_CHECKPOINTS = "serving.checkpoints"
CTR_SERVING_RECOVERIES = "serving.recoveries"
CTR_SERVING_REPLAYED = "serving.replayed_batches"
CTR_FAULT_EVENTS = "fault.events"

#: Every well-known counter name (ad-hoc counters are also allowed).
COUNTER_NAMES = (
    CTR_MEMO_HIT,
    CTR_MEMO_MISS,
    CTR_POOL_RESTARTS,
    CTR_SERVING_CHECKPOINTS,
    CTR_SERVING_RECOVERIES,
    CTR_SERVING_REPLAYED,
    CTR_FAULT_EVENTS,
)
