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
* **Snapshots as the transport.**  Sessions enter and leave the host
  as :meth:`DynamicRun.snapshot` bytes — the same durable payload the
  CLI writes to disk — so opening on a worker is just ``restore``.
  With ``workers=0`` the host runs every session in-process (no pools,
  bit-identical results): the mode CI uses on single-core runners.
* **Crash recovery.**  The host keeps, per session, the last
  checkpoint (snapshot bytes, refreshed every ``checkpoint_every``
  committed batches) plus the log of edit batches committed since.  A
  :class:`BrokenProcessPool` retires just that worker's pool
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

import itertools
import math
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
#: in the host process it is only used by ``workers=0`` in-process
#: hosts (namespacing keeps concurrent hosts apart either way).
_SESSIONS: Dict[str, DynamicRun] = {}


def _w_open(key: str, blob: bytes) -> bool:
    _SESSIONS[key] = DynamicRun.restore(blob)
    return True


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


def _w_recover(
    key: str, blob: bytes, log: Sequence[Sequence[GraphEdit]]
) -> bool:
    """Checkpoint restore + deterministic replay of the committed log."""
    session = DynamicRun.restore(blob)
    for batch in log:
        session.apply(batch)
    _SESSIONS[key] = session
    return True


@dataclass
class _Slot:
    """Host-side bookkeeping for one served session."""

    worker: int  #: worker index (-1 = in-process)
    checkpoint: bytes
    log: List[List[GraphEdit]] = field(default_factory=list)
    batches: int = 0


@dataclass(frozen=True)
class HostReport:
    """A point-in-time view of the host's serving metrics."""

    sessions: int
    workers: int
    batches_applied: int
    worker_recoveries: int
    latency_ms: Dict[str, float]  #: :func:`latency_summary` of batch latencies
    #: Trace-derived serving counters (:data:`repro.obs.COUNTER_NAMES`
    #: vocabulary): checkpoints taken, worker recoveries, batches
    #: replayed during recovery.  Kept host-side, so populated whether
    #: or not a tracer is installed.
    counters: Dict[str, int] = field(default_factory=dict)


class ServingHost:
    """Serve many dynamic sessions over warm worker processes.

    ``workers=0`` (default) multiplexes in-process — deterministic,
    pool-free, the right mode for tests and single-core hosts.
    ``workers=W`` distributes sessions over ``W`` warm single-worker
    pools with session affinity and checkpoint-replay crash recovery.

    ``checkpoint_every`` bounds the recovery replay: after that many
    committed batches the host pulls a fresh snapshot from the worker
    and truncates the log (trade IPC for shorter replays).
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
        self._recoveries = 0
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
        if self.workers:
            worker = self._next_worker % self.workers
            self._next_worker += 1
            self._submit(worker, _w_open, self._key(session_id), snapshot)
        else:
            worker = -1
            _w_open(self._key(session_id), snapshot)
        self._slots[session_id] = _Slot(worker=worker, checkpoint=snapshot)

    def open_session(self, session_id: str, session: DynamicRun) -> None:
        """Open an independent copy of a live session (via snapshot)."""
        self.open(session_id, session.snapshot())

    def snapshot(self, session_id: str) -> bytes:
        """The session's current snapshot (worker round-trip)."""
        slot = self._slot(session_id)
        if slot.worker < 0:
            return _w_snapshot(self._key(session_id))
        return self._submit(slot.worker, _w_snapshot, self._key(session_id))

    def close(self, session_id: str) -> bytes:
        """Evict a session, returning its final snapshot."""
        slot = self._slot(session_id)
        if slot.worker < 0:
            blob = _w_close(self._key(session_id))
        else:
            blob = self._submit(slot.worker, _w_close, self._key(session_id))
        del self._slots[session_id]
        return blob

    def sessions(self) -> List[str]:
        return list(self._slots)

    def shutdown(self) -> None:
        """Drop every session (the warm pools stay for the next host)."""
        for sid in list(self._slots):
            slot = self._slots.pop(sid)
            if slot.worker < 0:
                _SESSIONS.pop(self._key(sid), None)
        self._closed = True

    # -- batches ---------------------------------------------------------

    def apply(
        self, session_id: str, edits: Sequence[GraphEdit]
    ) -> BatchStats:
        """Apply one batch to one session (synchronous)."""
        slot = self._slot(session_id)
        edits = list(edits)
        t0 = obs.clock()
        if slot.worker < 0:
            # In-process: the session records into the host's own
            # tracer (if any) directly; no payload transport needed.
            stats = _w_apply(self._key(session_id), edits)
        else:
            stats = self._submit_apply(session_id, slot, edits)
        self._commit(session_id, slot, edits)
        self._latencies.append((obs.clock() - t0) * 1e3)
        return stats

    def apply_each(
        self, items: Sequence[Tuple[str, Sequence[GraphEdit]]]
    ) -> List[BatchStats]:
        """Apply many (session, batch) pairs, multiplexed over workers.

        Batches for different sessions run concurrently (one in-flight
        lane per worker); batches for the same session keep their list
        order (single-worker pools execute FIFO).  Results come back
        in input order.  If any batch is rejected, the first exception
        is re-raised after every other batch has settled — committed
        siblings stay committed, exactly as if applied one by one.
        """
        items = [(sid, list(edits)) for sid, edits in items]
        t0 = obs.clock()
        if not self.workers:
            results: List[Any] = []
            first_err: Optional[BaseException] = None
            for sid, edits in items:
                try:
                    results.append(self.apply(sid, edits))
                except (Exception,) as exc:
                    if first_err is None:
                        first_err = exc
                    results.append(None)
            if first_err is not None:
                raise first_err
            return results

        tr = obs.current()
        w_apply = _w_apply if tr is None else _w_apply_traced
        futures: List[Any] = []
        for sid, edits in items:
            slot = self._slot(sid)
            futures.append(
                (sid, edits, serve_pool(slot.worker).submit(
                    w_apply, self._key(sid), edits
                ))
            )
        results = [None] * len(items)
        broken: List[int] = []
        first_err = None
        for i, (sid, edits, fut) in enumerate(futures):
            slot = self._slots[sid]
            try:
                value = fut.result()
                if tr is not None:
                    value, payload = value
                    tr.absorb(payload, lane=f"serve worker {slot.worker}")
                results[i] = value
                self._commit(sid, slot, edits)
            except BrokenProcessPool:
                broken.append(i)
            except Exception as exc:
                if first_err is None:
                    first_err = exc
        if broken:
            workers = {self._slots[futures[i][0]].worker for i in broken}
            for w in workers:
                self._recover_worker(w)
            # The crashed worker never committed these; re-run in order.
            for i in broken:
                sid, edits, _ = futures[i]
                slot = self._slots[sid]
                try:
                    results[i] = self._submit_apply(sid, slot, edits)
                    self._commit(sid, slot, edits)
                except Exception as exc:
                    if first_err is None:
                        first_err = exc
        elapsed_ms = (obs.clock() - t0) * 1e3
        # One multiplexed wave: attribute the wave's wall clock to each
        # batch would overcount; record the per-batch share.
        if items:
            share = elapsed_ms / len(items)
            self._latencies.extend([share] * len(items))
        if first_err is not None:
            raise first_err
        return results

    def _commit(self, session_id: str, slot: _Slot, edits: List[GraphEdit]) -> None:
        slot.log.append(edits)
        slot.batches += 1
        if slot.worker >= 0 and len(slot.log) >= self.checkpoint_every:
            self._counters[CTR_SERVING_CHECKPOINTS] += 1
            tr = obs.current()
            if tr is not None:
                tr.event(
                    EV_SERVING_CHECKPOINT,
                    session=session_id,
                    batches=len(slot.log),
                )
                tr.count(CTR_SERVING_CHECKPOINTS)
            slot.checkpoint = self._submit(
                slot.worker, _w_snapshot, self._key(session_id)
            )
            slot.log.clear()

    # -- worker plumbing -------------------------------------------------

    def _submit(self, worker: int, fn: Any, *args: Any) -> Any:
        """Submit with one recover-and-retry on a dead worker."""
        try:
            return serve_pool(worker).submit(fn, *args).result()
        except BrokenProcessPool:
            self._recover_worker(worker)
            return serve_pool(worker).submit(fn, *args).result()

    def _submit_apply(
        self, session_id: str, slot: _Slot, edits: List[GraphEdit]
    ) -> BatchStats:
        tr = obs.current()
        w_apply = _w_apply if tr is None else _w_apply_traced
        try:
            value = (
                serve_pool(slot.worker)
                .submit(w_apply, self._key(session_id), edits)
                .result()
            )
        except BrokenProcessPool:
            # The dying worker cannot have committed this batch (it
            # died holding it); recover the fleet slice and retry once.
            self._recover_worker(slot.worker)
            value = (
                serve_pool(slot.worker)
                .submit(w_apply, self._key(session_id), edits)
                .result()
            )
        if tr is not None:
            value, payload = value
            tr.absorb(payload, lane=f"serve worker {slot.worker}")
        return value

    def _recover_worker(self, worker: int) -> None:
        """Rebuild every session of a dead worker on a fresh process."""
        retire_serve_pools(worker)
        self._recoveries += 1
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
            worker_recoveries=self._recoveries,
            latency_ms=latency_summary(self._latencies),
            counters=dict(self._counters),
        )
