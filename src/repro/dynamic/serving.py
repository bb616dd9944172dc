"""Multiplexed serving of dynamic sessions over warm worker pools.

A :class:`ServingHost` turns :class:`~repro.dynamic.session.DynamicRun`
from a single-session object into a serving surface: hundreds of
concurrent sessions, each absorbing its own churn stream, multiplexed
over a small fleet of warm worker processes (the
:func:`repro._util.parallel.serve_pool` single-worker pools).  The
paper's constant-round algorithms plus the O(dirty) overlay and
light-cone warm restarts make each batch cheap; the host's job is to
keep many such sessions resident and route batches to them.

Design:

* **Session affinity.**  Sessions are assigned round-robin to workers
  at :meth:`~ServingHost.open` and never migrate while healthy.  The
  worker keeps the live ``DynamicRun`` (graph overlay, history
  columns, memo caches) resident between batches — a batch ships only
  the edit list and returns only the :class:`~repro.dynamic.session.
  BatchStats`, never the session.
* **One path.**  Worker ``i`` is ``serve_pool(i)``; with ``workers=0``
  every session maps to worker ``-1``, this process, through the same
  code.  A session's worker decides only where its batches trace and
  whether it keeps recovery state (:class:`_Slot`).
* **Snapshots as the transport.**  Sessions enter and leave the host
  as :meth:`DynamicRun.snapshot` bytes — the same durable payload the
  CLI writes to disk — so opening on a worker is just ``restore``.
* **Crash recovery.**  The host keeps, per pooled session, the last
  checkpoint (snapshot bytes, refreshed once a wave has settled with
  ``checkpoint_every`` committed batches in the log) plus the log of
  edit batches committed since.  A :class:`BrokenProcessPool` retires
  just that worker's pool
  (:func:`~repro._util.parallel.retire_serve_pools`), and every
  resident session is rebuilt on the fresh worker by restoring its
  checkpoint and replaying its log — sessions are deterministic, so
  the replayed state is bit-for-bit the lost one.  Batches in flight
  during the crash were not committed (the worker died with them) and
  are resubmitted after recovery.

Rejected batches (:class:`~repro.dynamic.edits.EditError` /
``ValueError``) leave the worker-side session untouched per the
session contract, so the host does **not** append them to the replay
log; the exception propagates to the caller.

``tests/test_serving.py`` pins host-vs-solo bit-equality (every
session served by the host ends on exactly the result a lone
``DynamicRun`` fed the same stream produces), in-process vs pooled
equality, and checkpoint-replay recovery after a worker kill.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro._util.parallel import retire_serve_pools, serve_pool
from repro.dynamic.edits import GraphEdit
from repro.dynamic.session import BatchStats, DynamicRun
from repro.obs import (
    CTR_SERVING_CHECKPOINTS,
    CTR_SERVING_RECOVERIES,
    CTR_SERVING_REPLAYED,
    EV_SERVING_CHECKPOINT,
    EV_SERVING_RECOVERY,
    EV_SERVING_REPLAY,
)

__all__ = ["HostReport", "ServingHost", "latency_summary"]

#: Distinguishes sessions of different hosts sharing one worker fleet.
_HOST_SEQ = itertools.count()


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """Mean/p50/p99/max over wall-clock samples, in milliseconds.

    The shared latency vocabulary: ``repro.cli dynamic --json``, the
    churn experiment and ``benchmarks/bench_serving.py`` all report
    batch latencies through this one shape.  Percentiles use the
    nearest-rank method (exact on small sample counts, no
    interpolation artifacts).
    """
    if not samples_ms:
        return {
            "count": 0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "max_ms": 0.0,
        }
    xs = sorted(samples_ms)

    def rank(p: float) -> float:
        return xs[max(0, min(len(xs) - 1, math.ceil(p / 100 * len(xs)) - 1))]

    return {
        "count": len(xs),
        "mean_ms": sum(xs) / len(xs),
        "p50_ms": rank(50),
        "p99_ms": rank(99),
        "max_ms": xs[-1],
    }


# ----------------------------------------------------------------------
# Worker-side registry (module-level: picklable entry points)
# ----------------------------------------------------------------------

#: Sessions resident in *this* process, keyed by the host-namespaced
#: session key.  In a serving worker it holds that worker's sessions;
#: in the host process it holds the sessions of ``workers=0`` hosts
#: (namespacing keeps concurrent hosts apart either way).
_SESSIONS: Dict[str, DynamicRun] = {}


def _w_open(key: str, blob: bytes) -> None:
    _SESSIONS[key] = DynamicRun.restore(blob)


def _w_apply(key: str, edits: Sequence[GraphEdit]) -> BatchStats:
    return _SESSIONS[key].apply(edits)


def _w_apply_traced(
    key: str, edits: Sequence[GraphEdit]
) -> Tuple[BatchStats, Dict[str, Any]]:
    """Like :func:`_w_apply`, plus the worker-side trace payload.

    Used when the host process has a tracer installed: the batch span
    and dynamic-batch events recorded inside the worker ship back with
    the stats and are absorbed into the host trace as a worker lane.
    """
    tracer = obs.Tracer(f"serve worker pid {os.getpid()}")
    with obs.tracing(tracer):
        stats = _SESSIONS[key].apply(edits)
    return stats, tracer.drain_remote()


def _w_snapshot(key: str) -> bytes:
    return _SESSIONS[key].snapshot()


def _w_close(key: str) -> bytes:
    return _SESSIONS.pop(key).snapshot()


def _w_drop(key: str) -> None:
    _SESSIONS.pop(key, None)


def _w_recover(
    key: str, blob: bytes, log: Sequence[Sequence[GraphEdit]]
) -> None:
    """Checkpoint restore + deterministic replay of the committed log."""
    session = DynamicRun.restore(blob)
    for batch in log:
        session.apply(batch)
    _SESSIONS[key] = session


class _InProcess:
    """Worker ``-1``'s executor: ``submit(fn, *args).result()`` runs the
    call in this process when its result is collected, so an in-process
    wave runs in input order as :meth:`ServingHost.apply_each` collects
    it."""

    @staticmethod
    def submit(fn: Any, *args: Any) -> Any:
        return SimpleNamespace(result=functools.partial(fn, *args))


def _executor(worker: int) -> Any:
    """Worker ``i >= 0`` runs on ``serve_pool(i)``; worker ``-1`` here."""
    return serve_pool(worker) if worker >= 0 else _InProcess


def _submit(worker: int, fn: Any, *args: Any) -> Any:
    """Submit ``fn(*args)`` to a worker; a pool already known dead fails
    the returned future rather than ``submit`` itself."""
    try:
        return _executor(worker).submit(fn, *args)
    except BrokenProcessPool as exc:
        fut: Future = Future()
        fut.set_exception(exc)
        return fut


@dataclass
class _Slot:
    """Host-side bookkeeping for one served session.

    Its worker decides what differs between the modes (:attr:`pooled`):
    a pooled session's traced batches come back with the worker's
    trace, absorbed as lane ``serve worker {i}``, and it keeps the
    last checkpoint plus the batches committed since.  An in-process
    session records into the host's tracer directly and, with no
    worker to lose, keeps neither a checkpoint nor a log.
    """

    worker: int  #: worker index (-1 = in-process)
    checkpoint: bytes
    log: List[List[GraphEdit]] = field(default_factory=list)
    batches: int = 0

    @property
    def pooled(self) -> bool:
        return self.worker >= 0


@dataclass(frozen=True)
class HostReport:
    """A point-in-time view of the host's serving metrics."""

    sessions: int
    workers: int
    batches_applied: int
    worker_recoveries: int
    latency_ms: Dict[str, float]  #: :func:`latency_summary`, call to commit
    #: Trace-derived serving counters (:data:`repro.obs.COUNTER_NAMES`
    #: vocabulary): checkpoints taken, worker recoveries, batches
    #: replayed during recovery.  Kept host-side, so populated whether
    #: or not a tracer is installed.
    counters: Dict[str, int] = field(default_factory=dict)


class ServingHost:
    """Serve many dynamic sessions over warm worker processes.

    ``workers=W`` distributes sessions over ``W`` warm single-worker
    pools with session affinity and checkpoint-replay crash recovery.
    ``workers=0`` (default) runs every session in-process, as worker
    ``-1``, through the same code — deterministic and pool-free, the
    right mode for tests and single-core hosts.

    ``checkpoint_every`` bounds the recovery replay: once a call has
    settled with that many committed batches in a session's log, the
    host pulls a fresh snapshot from the worker and truncates the log
    (trade IPC for shorter replays).

    A batch's latency runs from the start of the call to its commit,
    and a wave commits in input order: in-process, batch k's latency
    includes the batches that ran before it; pooled, the ones ahead of
    it in its worker's FIFO (other workers run theirs alongside).
    """

    def __init__(self, workers: int = 0, checkpoint_every: int = 16):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.workers = workers
        self.checkpoint_every = checkpoint_every
        self._ns = f"sh{next(_HOST_SEQ)}"
        self._slots: Dict[str, _Slot] = {}
        self._next_worker = 0
        self._latencies: List[float] = []
        self._counters: Dict[str, int] = {
            CTR_SERVING_CHECKPOINTS: 0,
            CTR_SERVING_RECOVERIES: 0,
            CTR_SERVING_REPLAYED: 0,
        }
        self._closed = False

    # -- session lifecycle ----------------------------------------------

    def _key(self, session_id: str) -> str:
        return f"{self._ns}:{session_id}"

    def _slot(self, session_id: str) -> _Slot:
        slot = self._slots.get(session_id)
        if slot is None:
            raise KeyError(f"no open session {session_id!r}")
        return slot

    def open(self, session_id: str, snapshot: bytes) -> None:
        """Open a session from :meth:`DynamicRun.snapshot` bytes."""
        if self._closed:
            raise RuntimeError("host is shut down")
        if session_id in self._slots:
            raise ValueError(f"session {session_id!r} is already open")
        # Round-robin affinity; with no workers, everything is worker -1.
        worker = self._next_worker % self.workers if self.workers else -1
        self._next_worker += 1
        self._call(worker, _w_open, self._key(session_id), snapshot)
        self._slots[session_id] = _Slot(
            worker=worker, checkpoint=snapshot if worker >= 0 else b""
        )

    def open_session(self, session_id: str, session: DynamicRun) -> None:
        """Open an independent copy of a live session (via snapshot)."""
        self.open(session_id, session.snapshot())

    def snapshot(self, session_id: str) -> bytes:
        """The session's current snapshot (worker round-trip)."""
        slot = self._slot(session_id)
        return self._call(slot.worker, _w_snapshot, self._key(session_id))

    def close(self, session_id: str) -> bytes:
        """Evict a session, returning its final snapshot."""
        slot = self._slot(session_id)
        blob = self._call(slot.worker, _w_close, self._key(session_id))
        del self._slots[session_id]
        return blob

    def sessions(self) -> List[str]:
        return list(self._slots)

    def shutdown(self) -> None:
        """Drop every session on its worker (the pools stay warm).  A
        dead worker holds no sessions, so it is not recovered."""
        self._closed = True
        drops = [
            _submit(slot.worker, _w_drop, self._key(sid))
            for sid, slot in self._slots.items()
        ]
        self._slots.clear()
        for fut in drops:
            with contextlib.suppress(BrokenProcessPool):
                fut.result()

    # -- batches ---------------------------------------------------------

    def apply(self, session_id: str, edits: Sequence[GraphEdit]) -> BatchStats:
        """Apply one batch to one session (synchronous)."""
        return self.apply_each([(session_id, edits)])[0]

    def apply_each(
        self, items: Sequence[Tuple[str, Sequence[GraphEdit]]]
    ) -> List[BatchStats]:
        """Apply many (session, batch) pairs, multiplexed over workers.

        Batches for different sessions run concurrently (one in-flight
        lane per worker); batches for the same session keep their list
        order (single-worker pools execute FIFO, and worker ``-1`` runs
        each batch as it is collected).  Results come back in input
        order.  A wave naming an unknown session raises ``KeyError``
        before any batch runs.  If any batch is rejected, the first
        exception is re-raised after every other batch has settled —
        committed siblings stay committed, exactly as if applied one
        by one.
        """
        t0 = obs.clock()
        tr = obs.current()
        wave = [(sid, self._slot(sid), list(edits)) for sid, edits in items]
        results: List[Any] = [None] * len(wave)
        first_err: Optional[BaseException] = None
        pending = range(len(wave))
        for retry in (False, True):
            futures = [(i, self._send(tr, *wave[i])) for i in pending]
            pending = []
            for i, (fut, lane) in futures:
                sid, slot, edits = wave[i]
                try:
                    value = fut.result()
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool) and not retry:
                        pending.append(i)
                    elif first_err is None:
                        first_err = exc
                    continue
                if lane is not None:
                    value, payload = value
                    tr.absorb(payload, lane=lane)
                results[i] = value
                slot.batches += 1
                if slot.pooled:
                    slot.log.append(edits)
                self._latencies.append((obs.clock() - t0) * 1e3)
            if not pending:
                break
            # The crashed worker never committed these; recover, re-run
            # them in order.
            for w in {wave[i][1].worker for i in pending}:
                self._recover_worker(w)
        # Checkpoint only once the wave has settled: a snapshot queued
        # behind a later batch of the same session would hold that batch,
        # and recovery would replay it again from the log.
        for sid, slot in {sid: slot for sid, slot, _ in wave}.items():
            if len(slot.log) >= self.checkpoint_every:
                self._checkpoint(sid, slot)
        if first_err is not None:
            raise first_err
        return results

    def _send(
        self, tr: Any, session_id: str, slot: _Slot, edits: List[GraphEdit]
    ) -> Tuple[Any, Optional[str]]:
        """Submit one batch; returns its future and the trace lane its
        worker-side payload is absorbed into (``None``: no payload)."""
        traced = tr is not None and slot.pooled
        lane = f"serve worker {slot.worker}" if traced else None
        fn = _w_apply_traced if traced else _w_apply
        return _submit(slot.worker, fn, self._key(session_id), edits), lane

    def _checkpoint(self, session_id: str, slot: _Slot) -> None:
        self._counters[CTR_SERVING_CHECKPOINTS] += 1
        tr = obs.current()
        if tr is not None:
            tr.event(EV_SERVING_CHECKPOINT, session=session_id,
                     batches=len(slot.log))
            tr.count(CTR_SERVING_CHECKPOINTS)
        slot.checkpoint = self._call(
            slot.worker, _w_snapshot, self._key(session_id)
        )
        slot.log.clear()

    # -- worker plumbing -------------------------------------------------

    def _call(self, worker: int, fn: Any, *args: Any) -> Any:
        """Run ``fn(*args)`` on a worker, with one recover-and-retry if
        the worker died."""
        try:
            return _executor(worker).submit(fn, *args).result()
        except BrokenProcessPool:
            self._recover_worker(worker)
            return _executor(worker).submit(fn, *args).result()

    def _recover_worker(self, worker: int) -> None:
        """Rebuild every session of a dead worker on a fresh process."""
        retire_serve_pools(worker)
        self._counters[CTR_SERVING_RECOVERIES] += 1
        tr = obs.current()
        pool = serve_pool(worker)  # fresh single-worker pool
        recovered = 0
        for sid, slot in self._slots.items():
            if slot.worker != worker:
                continue
            recovered += 1
            self._counters[CTR_SERVING_REPLAYED] += len(slot.log)
            if tr is not None:
                tr.event(EV_SERVING_REPLAY, session=sid, batches=len(slot.log))
                if slot.log:
                    tr.count(CTR_SERVING_REPLAYED, len(slot.log))
            pool.submit(
                _w_recover, self._key(sid), slot.checkpoint, slot.log
            ).result()
        if tr is not None:
            tr.event(EV_SERVING_RECOVERY, worker=worker, sessions=recovered)
            tr.count(CTR_SERVING_RECOVERIES)

    # -- metrics ---------------------------------------------------------

    def report(self) -> HostReport:
        """Serving metrics so far (latencies host-side, end to end)."""
        return HostReport(
            sessions=len(self._slots),
            workers=self.workers,
            batches_applied=sum(s.batches for s in self._slots.values()),
            worker_recoveries=self._counters[CTR_SERVING_RECOVERIES],
            latency_ms=latency_summary(self._latencies),
            counters=dict(self._counters),
        )
