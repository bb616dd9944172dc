"""Order-preserving serial or process-pooled mapping.

The shared seam under the batched execution APIs
(:func:`repro.simulator.runtime.run_many` / ``sweep``) and the
experiment drivers' :func:`repro.experiments.common.parallel_map`.
``n_workers`` of ``None``/``0``/``1`` (or a single job) runs serially
in the calling process: no pool overhead, fully deterministic
scheduling.  ``n_workers > 1`` runs on a
:class:`~concurrent.futures.ProcessPoolExecutor` — true multi-core
parallelism for the CPU-bound simulation kernels, at the price of
pickling: the callable must be a module-level function (or a
:func:`functools.partial` of one) and jobs/results must round-trip
through :mod:`pickle`.  Machines, graphs and
:class:`~repro.simulator.runtime.RunResult` all do — pinned by
``tests/test_parallel_backends.py``.  Work that does not pickle fails
loudly with pickle's own error (``pickle.PicklingError``, or
``AttributeError`` for a local function); there is no silent serial
fallback.

Process pools are *warm*: one pool per distinct worker count is kept
alive for the life of the interpreter (shut down atexit), so a whole
experiment table of ``sweep`` calls amortises a single pool start-up.
The serving host's single-worker pools (:func:`serve_pool`) live in
the same registry.  Jobs are chunked (``chunksize``, default
``len(jobs)/(4·workers)``, at least 1) so per-task IPC is amortised
across a chunk of instances.

**Crash recovery.**  A worker that dies (OOM-kill, segfault, SIGKILL)
poisons its whole :class:`ProcessPoolExecutor`; every pending future
raises :class:`BrokenProcessPool`.  Instead of propagating that,
``map_jobs`` walks a degradation ladder, per chunk of jobs:

1. **re-dispatch** — the broken pool is retired, a fresh one is built,
   and only the chunks that failed are resubmitted (completed chunks
   keep their results), with exponential backoff
   (``_BACKOFF_BASE_S · 2^(attempt-1)``, capped at ``_BACKOFF_CAP_S``);
2. **per-chunk serial** — a chunk that failed ``_MAX_CHUNK_REDISPATCH``
   times is assumed to *cause* the crash and runs serially in the
   parent, where a genuine job exception surfaces normally;
3. **full serial** — after ``_MAX_POOL_FAILURES`` pool breakages the
   call stops paying pool start-up and degrades every remaining chunk
   to the parent process.

A genuine job exception propagates at once.  The call's unstarted
chunks are cancelled and its pool is retired first, so work the
caller abandoned never delays the next call.

Chunks are formed once, from job order, before the first dispatch —
their identity is deterministic, so results are placed by chunk index
and the output order (and content, for deterministic workloads) is
identical to a serial run no matter how many recoveries happened.
Every recovery is recorded as a :class:`RetryEvent` in the
:class:`FailureReport` attached to the returned list (a
:class:`JobResults`; plain-list equality is preserved).

Results are always returned in job order, and — because serial and
pooled runs execute the *same* per-job callable — are bit-for-bit
identical to a serial run for deterministic workloads (pinned by
``tests/test_parallel_backends.py`` and ``tests/test_chaos.py``).
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.obs import CTR_POOL_RESTARTS, EV_POOL_RETRY

__all__ = [
    "FailureReport",
    "JobResults",
    "RetryEvent",
    "map_jobs",
    "retire_serve_pools",
    "serve_pool",
    "shutdown_pools",
]

#: A chunk is re-dispatched onto fresh pools at most this many times
#: before it is assumed to be the crash's cause and runs serially.
_MAX_CHUNK_REDISPATCH = 3

#: After this many pool breakages in one map_jobs call, every remaining
#: chunk degrades to serial (no more pools are built).
_MAX_POOL_FAILURES = 5

#: Exponential backoff before re-dispatch: base · 2^(attempt-1), capped.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0

# Warm process pools, kept for the interpreter's lifetime so repeated
# calls (a whole experiment table, a serving host's batches) pay pool
# start-up once; shut down atexit.  Keys name what a pool is for:
#
# * ``("map", n)`` — the n-worker pool behind map_jobs;
# * ``("serve", i)`` — serving worker i's single-worker pool
#   (:mod:`repro.dynamic.serving`).  A serving worker keeps its
#   DynamicRun sessions resident between batches, so every batch for a
#   session must land on the same process.
#
# Each key is retired on its own: a broken pool never takes down the
# warm pools under other keys.
_POOLS: Dict[Tuple[str, int], ProcessPoolExecutor] = {}

# Retired pools stay referenced: workers are forked and inherit the
# parent's garbage, and a retired pool collected in a worker runs a
# weakref callback that takes a lock a parent thread may have held at
# the fork, deadlocking the worker.
_RETIRED: Set[ProcessPoolExecutor] = set()


@dataclass(frozen=True)
class RetryEvent:
    """One crash-recovery action taken by :func:`map_jobs`."""

    chunk: int  #: chunk index (deterministic: formed before dispatch)
    jobs: int  #: number of jobs in the chunk
    attempt: int  #: how many times this chunk has failed so far
    error: str  #: repr of the triggering exception
    backoff_s: float  #: sleep before the retry (0 for serial fallback)
    action: str  #: "redispatch" (fresh pool) or "serial" (in parent)


@dataclass(frozen=True)
class FailureReport:
    """What ran a ``map_jobs`` call, and what it had to do to finish.

    ``backend`` is ``"serial"`` or ``"process"``.  A clean run has no
    events and no pool restarts; callers that care (the chaos tests,
    monitoring) read it off the returned :class:`JobResults`, everyone
    else treats the result as a list.
    """

    backend: str
    events: Tuple[RetryEvent, ...] = ()
    pool_restarts: int = 0
    degraded_to_serial: bool = False

    @property
    def clean(self) -> bool:
        return not self.events and not self.pool_restarts


class JobResults(List[Any]):
    """A plain list of results plus the :class:`FailureReport`.

    Subclassing :class:`list` keeps every existing caller working —
    equality with plain lists, slicing, iteration — while the report
    rides along for those who ask.  The report survives the list
    operations that return a new ``JobResults`` — slicing,
    concatenation, ``copy.copy`` and pickling all preserve it (list
    subclasses silently lose attributes on each of those by default:
    ``list.__getitem__``/``__add__`` return plain lists, and pickle
    calls ``cls()`` with no arguments).
    """

    failure_report: FailureReport

    def __init__(self, results: Sequence[Any] = (),
                 report: Optional[FailureReport] = None):
        super().__init__(results)
        self.failure_report = (
            report if report is not None else FailureReport(backend="unknown")
        )

    def __reduce__(self):
        # The default list-subclass protocol would call JobResults()
        # and drop the report; rebuild from (items, report) instead.
        return (JobResults, (list(self), self.failure_report))

    def __copy__(self) -> "JobResults":
        return JobResults(list(self), self.failure_report)

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            return JobResults(item, self.failure_report)
        return item

    def __add__(self, other) -> "JobResults":
        if not isinstance(other, list):
            return NotImplemented
        return JobResults(list(self) + list(other), self.failure_report)

    def __radd__(self, other) -> "JobResults":
        if not isinstance(other, list):
            return NotImplemented
        return JobResults(list(other) + list(self), self.failure_report)


def _pool(key: Tuple[str, int], max_workers: int) -> ProcessPoolExecutor:
    """The warm pool registered under ``key``, created on first use."""
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS[key] = ProcessPoolExecutor(max_workers=max_workers)
    return pool


def _retire(
    key: Tuple[str, int], pool: Optional[ProcessPoolExecutor] = None
) -> None:
    """Shut down the pool under ``key`` so the next use starts fresh.

    Idempotent.  Given ``pool`` (a pool a caller was using), it is shut
    down and unregistered only while ``key`` still maps to it.  Callers
    cancel their own unstarted futures (on Python 3.11,
    ``cancel_futures=True`` can hang a pool whose jobs fail to pickle).
    """
    registered = _POOLS.get(key)
    if pool is None:
        pool = registered
    if pool is None:
        return
    if registered is pool:
        del _POOLS[key]
    _RETIRED.add(pool)
    pool.shutdown(wait=False)


def shutdown_pools() -> None:
    """Shut down every warm process pool (idempotent; runs atexit)."""
    for key in list(_POOLS):
        _retire(key)


def serve_pool(index: int) -> ProcessPoolExecutor:
    """The persistent single-worker pool for serving worker ``index``.

    Created on first use, then warm for the interpreter's lifetime:
    the serving host's worker-resident sessions always find their
    process again, and successive :class:`~repro.dynamic.serving.
    ServingHost` instances reuse the same warm fleet.
    """
    return _pool(("serve", index), 1)


def retire_serve_pools(index: Optional[int] = None) -> None:
    """Shut down serving pools (idempotent).

    Crash recovery for the serving host: a dead worker strands its
    resident sessions, so the host retires that worker's pool and
    replays each stranded session from its last checkpoint onto a
    fresh one.  Serving workers are mutually independent — pass
    ``index`` to retire just the broken one; ``None`` retires them all
    (atexit / host shutdown).
    """
    for key in list(_POOLS):
        if key[0] == "serve" and index in (None, key[1]):
            _retire(key)


atexit.register(shutdown_pools)


def _run_chunk(fn: Callable[[Any], Any], chunk: List[Any]) -> List[Any]:
    """Worker-side chunk body (module-level: picklable)."""
    return [fn(j) for j in chunk]


def _run_chunk_traced(
    fn: Callable[[Any], Any], chunk: List[Any]
) -> Tuple[List[Any], Dict[str, Any]]:
    """Worker-side chunk body under a worker-local tracer.

    The parent's tracer cannot cross the process boundary, so the
    chunk runs with its own and ships the drained buffers back with
    the results; the parent absorbs them into its trace.
    """
    tracer = obs.Tracer(f"pool worker pid {os.getpid()}")
    with obs.tracing(tracer):
        results = [fn(j) for j in chunk]
    return results, tracer.drain_remote()


def _note_retry(tr: Optional["obs.Tracer"], ev: RetryEvent) -> None:
    if tr is not None:
        tr.event(
            EV_POOL_RETRY,
            chunk=ev.chunk,
            jobs=ev.jobs,
            attempt=ev.attempt,
            action=ev.action,
            backoff_s=ev.backoff_s,
        )


def _map_process(
    fn: Callable[[Any], Any],
    jobs: List[Any],
    n_workers: int,
    chunksize: int,
) -> JobResults:
    """The crash-recovering process path (see the module docstring)."""
    chunks = [jobs[i : i + chunksize] for i in range(0, len(jobs), chunksize)]
    results: List[Any] = [None] * len(chunks)
    attempts = [0] * len(chunks)
    pending = list(range(len(chunks)))
    events: List[RetryEvent] = []
    pool_failures = 0
    degraded = False
    tr = obs.current()
    # Traced chunks run under a worker-local tracer and return
    # (results, trace payload); serial fallbacks run in the parent,
    # where the parent's tracer is already installed.
    runner = _run_chunk if tr is None else _run_chunk_traced

    while pending:
        if pool_failures >= _MAX_POOL_FAILURES:
            # Rung 3: stop building pools, finish in the parent.
            degraded = True
            for ci in pending:
                ev = RetryEvent(
                    chunk=ci,
                    jobs=len(chunks[ci]),
                    attempt=attempts[ci],
                    error="pool failure budget exhausted",
                    backoff_s=0.0,
                    action="serial",
                )
                events.append(ev)
                _note_retry(tr, ev)
                results[ci] = _run_chunk(fn, chunks[ci])
            pending = []
            break

        pool = _pool(("map", n_workers), n_workers)
        futures: Dict[int, Any] = {}
        for ci in pending:
            try:
                futures[ci] = pool.submit(runner, fn, chunks[ci])
            except BrokenProcessPool:
                break  # pool died before the work even left: retry all

        failed: List[int] = []
        err: Optional[BaseException] = None
        for ci in pending:
            fut = futures.get(ci)
            if fut is None:
                failed.append(ci)
                continue
            try:
                value = fut.result()
            except BrokenProcessPool as exc:
                err = exc
                failed.append(ci)
                continue
            except BaseException:
                # A genuine job exception (not a dead worker) propagates:
                # retrying deterministic code cannot fix it.  The call's
                # other chunks must not hold up the next call, so their
                # unstarted futures are cancelled and the pool retired.
                for other in futures.values():
                    other.cancel()
                _retire(("map", n_workers), pool)
                raise
            if tr is not None:
                value, payload = value
                tr.absorb(payload)
            results[ci] = value

        if not failed:
            pending = []
            break

        pool_failures += 1
        if tr is not None:
            tr.count(CTR_POOL_RESTARTS)
        # Only this worker count's pool: warm pools under other keys
        # deliberately stay alive.
        _retire(("map", n_workers), pool)
        err_text = repr(err) if err is not None else "BrokenProcessPool"
        next_pending: List[int] = []
        backoff = 0.0
        for ci in failed:
            attempts[ci] += 1
            if attempts[ci] >= _MAX_CHUNK_REDISPATCH:
                # Rung 2: the chunk itself is the likely killer — run
                # it in the parent so a real fault surfaces normally.
                ev = RetryEvent(
                    chunk=ci,
                    jobs=len(chunks[ci]),
                    attempt=attempts[ci],
                    error=err_text,
                    backoff_s=0.0,
                    action="serial",
                )
                events.append(ev)
                _note_retry(tr, ev)
                results[ci] = _run_chunk(fn, chunks[ci])
            else:
                # Rung 1: fresh pool, exponential backoff.
                wait = min(
                    _BACKOFF_CAP_S,
                    _BACKOFF_BASE_S * 2.0 ** (attempts[ci] - 1),
                )
                backoff = max(backoff, wait)
                ev = RetryEvent(
                    chunk=ci,
                    jobs=len(chunks[ci]),
                    attempt=attempts[ci],
                    error=err_text,
                    backoff_s=wait,
                    action="redispatch",
                )
                events.append(ev)
                _note_retry(tr, ev)
                next_pending.append(ci)
        if next_pending and backoff > 0.0:
            time.sleep(backoff)
        pending = next_pending

    flat: List[Any] = []
    for chunk_results in results:
        flat.extend(chunk_results)
    return JobResults(
        flat,
        FailureReport(
            backend="process",
            events=tuple(events),
            pool_restarts=pool_failures,
            degraded_to_serial=degraded,
        ),
    )


def map_jobs(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    n_workers: Optional[int],
    chunksize: Optional[int] = None,
) -> JobResults:
    """Map ``fn`` over ``jobs``, returning results in job order.

    ``n_workers`` of ``None``/``0``/``1`` (or a single job) runs
    serially; otherwise the jobs run on the warm ``n_workers``-process
    pool (see the module docstring).  ``chunksize`` sets how many jobs
    ride one IPC round-trip, and is the unit of crash recovery.  The
    returned :class:`JobResults` behaves as a plain list and carries a
    :class:`FailureReport` naming what ran (``"serial"`` or
    ``"process"``) and any crash recoveries performed.
    """
    jobs = list(jobs)
    if n_workers is None or n_workers <= 1 or len(jobs) <= 1:
        return JobResults(
            [fn(j) for j in jobs], FailureReport(backend="serial")
        )
    if chunksize is None:
        chunksize = max(1, len(jobs) // (4 * min(n_workers, len(jobs))))
    # Pools are keyed by the *requested* count so a warm 4-worker pool
    # is never silently used for an n_workers=2 call (that would skew
    # scaling measurements).
    return _map_process(fn, jobs, n_workers, chunksize)
