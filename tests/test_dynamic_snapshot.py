"""Durable DynamicRun sessions: snapshot/restore round-trips.

The contract (ISSUE 6): a session snapshotted mid-stream and restored
— in this process or another one — absorbs the remaining edit batches
**bit-for-bit** equal to the uninterrupted session, across flows,
modes, metering and arithmetic.  Plus the satellite: pickle-bytes
round-trip stability of the snapshot's building blocks
(:class:`ScaledInt`, :class:`GenerationalMemo`, :class:`RunResult`)
across a real process boundary.
"""

from __future__ import annotations

import pickle

import pytest

from repro._util.memo import GenerationalMemo
from repro._util.parallel import map_jobs
from repro._util.rationals import ScaledInt
from repro.dynamic import (
    SNAPSHOT_VERSION,
    DynamicRun,
    RandomChurn,
    reweight,
)
from repro.graphs import families
from repro.graphs.setcover import random_instance
from repro.graphs.weights import uniform_weights
from repro.simulator.runtime import run
from repro.core.edge_packing import edge_packing_job

from helpers import assert_run_results_equal


def _vc_session(mode="incremental", metering="bits", arithmetic="scaled",
                algorithm="port", seed_w=2):
    g = families.random_regular(3, 18, seed=1)
    w = uniform_weights(18, 3, seed=seed_w)
    return DynamicRun.vertex_cover(
        g, w, algorithm=algorithm, mode=mode, delta=4, W=3,
        arithmetic=arithmetic, metering=metering,
    )


def _drive(session, stream, batches):
    for _ in range(batches):
        session.apply(stream.next_batch(session.graph, session.inputs))


def _assert_sessions_equal(a, b):
    # every RunResult field, with a field-naming diff on mismatch
    assert_run_results_equal(a.result, b.result,
                             label_a="control", label_b="restored")
    assert a.graph.edges == b.graph.edges
    assert a.inputs == b.inputs
    assert a.stats == b.stats
    assert a.batches_applied == b.batches_applied
    assert a.cover_view() == b.cover_view()


class TestRestoreEqualsUninterrupted:
    @pytest.mark.parametrize("mode", ["incremental", "scratch"])
    @pytest.mark.parametrize("metering", ["none", "counts", "bits"])
    def test_vertex_cover_port(self, mode, metering):
        control = _vc_session(mode=mode, metering=metering)
        victim = _vc_session(mode=mode, metering=metering)
        # one stream drives both: identical batch sequences
        stream = RandomChurn(edits_per_batch=3, W=3, max_degree=4, seed=5)
        for _ in range(3):
            edits = stream.next_batch(control.graph, control.inputs)
            control.apply(edits)
            victim.apply(edits)
        restored = DynamicRun.restore(victim.snapshot())
        for _ in range(3):
            edits = stream.next_batch(control.graph, control.inputs)
            control.apply(edits)
            restored.apply(edits)
        _assert_sessions_equal(control, restored)

    @pytest.mark.parametrize("arithmetic", ["scaled", "fraction"])
    def test_vertex_cover_arithmetic_modes(self, arithmetic):
        control = _vc_session(arithmetic=arithmetic)
        victim = _vc_session(arithmetic=arithmetic)
        stream = RandomChurn(edits_per_batch=2, W=3, max_degree=4, seed=9)
        for _ in range(2):
            edits = stream.next_batch(control.graph, control.inputs)
            control.apply(edits)
            victim.apply(edits)
        restored = DynamicRun.restore(victim.snapshot())
        for _ in range(2):
            edits = stream.next_batch(control.graph, control.inputs)
            control.apply(edits)
            restored.apply(edits)
        _assert_sessions_equal(control, restored)

    def test_vertex_cover_broadcast_flow(self):
        # small instance: the broadcast schedule is O(delta * 2^delta)
        # rounds, so delta is pinned at 2 to keep the test quick
        def session():
            g = families.cycle_graph(8)
            w = uniform_weights(8, 3, seed=2)
            return DynamicRun.vertex_cover(
                g, w, algorithm="broadcast", delta=2, W=3,
            )

        control = session()
        victim = session()
        stream = RandomChurn(edits_per_batch=2, W=3, max_degree=2, seed=3)
        edits = stream.next_batch(control.graph, control.inputs)
        control.apply(edits)
        victim.apply(edits)
        restored = DynamicRun.restore(victim.snapshot())
        edits = stream.next_batch(control.graph, control.inputs)
        control.apply(edits)
        restored.apply(edits)
        _assert_sessions_equal(control, restored)

    @pytest.mark.parametrize("mode", ["incremental", "scratch"])
    def test_set_cover_flow(self, mode):
        inst = random_instance(5, 8, k=3, f=2, W=4, seed=6)
        control = DynamicRun.set_cover(inst, mode=mode)
        victim = DynamicRun.set_cover(inst, mode=mode)
        batch1 = [reweight(0, {"role": "subset", "weight": 2})]
        control.apply(batch1)
        victim.apply(batch1)
        restored = DynamicRun.restore(victim.snapshot())
        batch2 = [reweight(1, {"role": "subset", "weight": 4})]
        control.apply(batch2)
        restored.apply(batch2)
        _assert_sessions_equal(control, restored)

    def test_restore_does_not_resolve(self):
        """Restoring resumes on the serialised standing result — the
        stats trail proves no hidden batch-0 solve happened."""
        victim = _vc_session()
        stream = RandomChurn(edits_per_batch=2, W=3, max_degree=4, seed=7)
        _drive(victim, stream, 2)
        restored = DynamicRun.restore(victim.snapshot())
        assert restored.batches_applied == 2
        assert len(restored.stats) == 2
        assert_run_results_equal(restored.result, victim.result,
                                 label_a="restored", label_b="victim")

    def test_validators_survive_the_round_trip(self):
        """The restored session still enforces the pinned bounds."""
        victim = _vc_session()
        restored = DynamicRun.restore(victim.snapshot())
        bad = [reweight(0, 99)]  # weight past the session bound W=3
        with pytest.raises(ValueError):
            restored.apply(bad)


class TestSnapshotFormat:
    def test_version_gate(self):
        victim = _vc_session()
        payload = pickle.loads(victim.snapshot())
        assert payload["version"] == SNAPSHOT_VERSION
        for other in (SNAPSHOT_VERSION + 1, SNAPSHOT_VERSION - 1, 6):
            payload["version"] = other
            with pytest.raises(ValueError, match="snapshot version"):
                DynamicRun.restore(pickle.dumps(payload))

    def test_churn_serve_session_fits_its_byte_budget(self):
        """Bytes per session, on perfbench's churn-serve shape: after
        160 two-edit batches the snapshot stays within 400 kB (it held
        about 1.16 MB while the history kept per-round states)."""
        n = 1000
        session = DynamicRun.vertex_cover(
            families.cycle_graph(n), uniform_weights(n, 8, seed=11000)
        )
        stream = RandomChurn(2, seed=11, max_degree=2)
        applied = 0
        for _ in range(400):
            batch = stream.next_batch(session.graph, session.inputs)
            if batch:
                session.apply(batch)
                applied += 1
                if applied == 160:
                    break
        assert applied == 160
        assert len(session.snapshot()) <= 400_000

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="snapshot"):
            DynamicRun.restore(b"not a snapshot")
        with pytest.raises(ValueError, match="snapshot"):
            DynamicRun.restore(pickle.dumps([1, 2, 3]))

    def test_snapshot_is_stable_at_rest(self):
        """Snapshotting twice without edits yields equivalent sessions
        (the bytes themselves may differ by dict/memo internals)."""
        victim = _vc_session()
        a = DynamicRun.restore(victim.snapshot())
        b = DynamicRun.restore(victim.snapshot())
        _assert_sessions_equal(a, b)


# ----------------------------------------------------------------------
# Process-boundary round trips (satellite: pickle-bytes stability)
# ----------------------------------------------------------------------


def _restore_apply_snapshot(job):
    """Child-side body: restore a snapshot, apply edits, return the
    result and a re-snapshot (all crossing the process boundary)."""
    blob, edits = job
    session = DynamicRun.restore(blob)
    session.apply(edits)
    return session.result, session.snapshot()


def _pickle_roundtrip(obj):
    """Child-side body: the object arrives pickled (pool transport),
    is re-pickled in the child, and the bytes travel back."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _child_bytes(obj):
    """``_pickle_roundtrip`` in a worker process.  Two jobs, because a
    single job would run serially in the parent."""
    out = map_jobs(_pickle_roundtrip, [obj, obj], 2)
    assert out.failure_report.backend == "process"
    return out[0]


class TestProcessBoundary:
    def test_restore_in_child_process(self):
        control = _vc_session()
        victim = _vc_session()
        stream = RandomChurn(edits_per_batch=2, W=3, max_degree=4, seed=11)
        for _ in range(2):
            edits = stream.next_batch(control.graph, control.inputs)
            control.apply(edits)
            victim.apply(edits)
        blob = victim.snapshot()
        edits = stream.next_batch(control.graph, control.inputs)
        control.apply(edits)
        # two identical child jobs: also proves the restore is
        # deterministic across processes
        out = map_jobs(_restore_apply_snapshot, [(blob, edits)] * 2, 2)
        assert out.failure_report.backend == "process"
        (res1, blob1), (res2, blob2) = out
        assert_run_results_equal(res1, control.result,
                                 label_a="child-1", label_b="control")
        assert_run_results_equal(res2, control.result,
                                 label_a="child-2", label_b="control")
        # and the child's re-snapshot restores in the parent
        grandchild = DynamicRun.restore(blob1)
        assert_run_results_equal(grandchild.result, control.result,
                                 label_a="grandchild", label_b="control")

    @pytest.mark.parametrize(
        "obj",
        [
            ScaledInt(6, 4),
            ScaledInt(-3, 8),
        ],
        ids=["scaledint", "scaledint-neg"],
    )
    def test_scaledint_bytes_stable_across_processes(self, obj):
        # loads(child bytes) == the original, field for field
        clone = pickle.loads(_child_bytes(obj))
        assert type(clone) is type(obj)
        assert clone == obj
        assert clone.num == obj.num
        assert clone.den == obj.den
        assert clone.as_fraction() == obj.as_fraction()

    def test_run_result_field_for_field_across_processes(self):
        res = run(**edge_packing_job(families.cycle_graph(10),
                                     [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]))
        clone = pickle.loads(_child_bytes(res))
        assert_run_results_equal(clone, res, label_a="clone", label_b="original")

    def test_generational_memo_contents_survive(self):
        memo = GenerationalMemo()
        memo.put(3, "history", {"rounds": 5, "data": (1, 2, 3)})
        clone = pickle.loads(_child_bytes(memo))
        assert clone.get(3, "history") == memo.get(3, "history")
