"""Contracts for process-parallel execution (``n_workers > 1``).

Two promises make ``n_workers`` safe to raise anywhere:

* **picklability** — every shipped machine class, the graph types and
  :class:`RunResult` round-trip through :mod:`pickle` unchanged (the
  process pool's transport);
* **determinism** — a sweep executed on the process pool returns
  results field-for-field identical to the serial run.

Work that cannot cross a process boundary fails loudly instead of
degrading: unpicklable callables raise pickle's error, and run options
with parent-side effects are rejected up front.

These are the tests the CI docs/backends job runs explicitly; they are
also part of tier-1.
"""

from __future__ import annotations

import pickle

import pytest

from repro._util.parallel import FailureReport, JobResults, map_jobs
from repro.baselines.edge_colouring import EdgeColouringPackingMachine
from repro.baselines.kvy import KVYMachine
from repro.baselines.matching import (
    IdMaximalMatchingMachine,
    RandomisedMatchingMachine,
)
from repro.baselines.ps3approx import PolishchukSuomelaMachine
from repro.baselines.trivial import TrivialSetCoverMachine
from repro.core.broadcast_vc import BroadcastVertexCoverMachine
from repro.core.edge_packing import EdgePackingMachine, edge_packing_job
from repro.core.fractional_packing import FractionalPackingMachine
from repro.core.vertex_cover import broadcast_vc_job
from repro.graphs import families
from repro.graphs.setcover import random_instance, vc_to_setcover
from repro.graphs.weights import unit_weights
from repro.selfstab.transformer import SelfStabilisingMachine
from repro.simulator.faults import MessageLoss, RandomCrashes
from repro.simulator.runtime import run, run_many, sweep


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


MACHINE_FACTORIES = [
    EdgePackingMachine,
    lambda: EdgePackingMachine(arithmetic="fraction"),
    FractionalPackingMachine,
    BroadcastVertexCoverMachine,
    PolishchukSuomelaMachine,
    IdMaximalMatchingMachine,
    RandomisedMatchingMachine,
    EdgeColouringPackingMachine,
    KVYMachine,
    TrivialSetCoverMachine,
    lambda: SelfStabilisingMachine(EdgePackingMachine(), 10),
]


class TestPicklability:
    @pytest.mark.parametrize(
        "factory", MACHINE_FACTORIES, ids=lambda f: getattr(f, "__name__", "param")
    )
    def test_every_machine_roundtrips(self, factory):
        machine = factory()
        clone = roundtrip(machine)
        assert type(clone) is type(machine)
        assert clone.model == machine.model

    def test_machine_roundtrips_with_warm_caches(self):
        """Pickling a machine *after* a run (memos populated) works and
        the clone still computes the identical result."""
        g = families.cycle_graph(8)
        job = edge_packing_job(g, unit_weights(8))
        machine = job["machine"]
        job.pop("machine")
        before = run(machine=machine, **job)
        clone = roundtrip(machine)
        after = run(machine=clone, **job)
        assert before == after

    def test_graph_roundtrips_with_csr_built(self):
        g = families.random_regular(3, 24, seed=0)
        g.csr()  # warm the lazy CSR cache
        clone = roundtrip(g)
        assert clone.n == g.n
        assert clone.csr() == g.csr()
        assert [clone.degree(v) for v in clone.nodes()] == [
            g.degree(v) for v in g.nodes()
        ]

    def test_setcover_instance_roundtrips(self):
        inst = random_instance(5, 8, k=3, f=2, W=4, seed=0)
        clone = roundtrip(inst)
        assert clone.global_params() == inst.global_params()
        assert clone.node_inputs() == inst.node_inputs()

    @pytest.mark.parametrize("metering", ["none", "counts", "bits"])
    def test_run_result_roundtrips_field_for_field(self, metering):
        g = families.cycle_graph(10)
        res = run(**edge_packing_job(g, unit_weights(10), metering=metering))
        clone = roundtrip(res)
        assert clone == res  # dataclass eq covers every field
        assert clone.per_round_bits == res.per_round_bits
        assert clone.states == res.states

    def test_broadcast_run_result_roundtrips(self):
        g = families.path_graph(4)
        res = run(**broadcast_vc_job(g, [1, 3, 2, 1]))
        assert roundtrip(res) == res


def _double(x):  # module-level: picklable for worker processes
    return 2 * x


# Module-level, yet unpicklable: a lambda has no importable name.
_IDENTITY = lambda x: x  # noqa: E731


def _noop_observer(rounds, states, outboxes):  # module-level: picklable
    pass


class _StatefulAdversary:
    """Picklable adversary whose state the caller might read post-run."""

    corruptions = 0

    def is_active(self, rounds):
        return False

    def corrupt(self, rounds, graph, states):
        return states


class TestMapJobs:
    def test_serial_short_circuit(self):
        for workers in (None, 0, 1):
            res = map_jobs(_double, [1, 2, 3], workers)
            assert res == [2, 4, 6]
            assert res.failure_report.backend == "serial"

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_order_preserved_on_every_backend(self, backend):
        jobs = list(range(23))  # odd size: exercises uneven chunking
        res = map_jobs(_double, jobs, 3 if backend == "process" else None)
        assert res == [2 * j for j in jobs]
        assert res.failure_report.backend == backend

    def test_explicit_chunksize(self):
        jobs = list(range(10))
        assert map_jobs(_double, jobs, 2, chunksize=4) == [2 * j for j in jobs]

    def test_unpicklable_work_fails_loudly(self):
        # no silent serial fallback: pickle's own error leaves the pool
        with pytest.raises(pickle.PicklingError):
            map_jobs(_IDENTITY, [1, 2, 3], 2)
        marker = object()
        with pytest.raises(AttributeError, match="local object"):
            map_jobs(lambda x: (x, marker)[0], [1, 2, 3], 2)
        # ...and the warm pool still serves the next call
        res = map_jobs(_double, [1, 2, 3], 2)
        assert res == [2, 4, 6]
        assert res.failure_report.backend == "process"


class TestProcessBackendEquivalence:
    """``n_workers > 1`` results equal the serial results field-for-field."""

    def test_sweep_mixed_instances(self):
        g1 = families.cycle_graph(12)
        g2 = families.path_graph(9)
        sc = random_instance(5, 8, k=3, f=2, W=4, seed=2)
        jobs = [
            edge_packing_job(g1, unit_weights(12)),
            edge_packing_job(g2, [2, 1, 3, 1, 2, 1, 3, 1, 2]),
            broadcast_vc_job(families.star_graph(3), [4, 1, 1, 1]),
            {
                "graph": vc_to_setcover(g1, unit_weights(12)).to_bipartite_graph(),
                "machine": FractionalPackingMachine(),
                "inputs": vc_to_setcover(g1, unit_weights(12)).node_inputs(),
                "globals_map": vc_to_setcover(g1, unit_weights(12)).global_params(),
            },
        ]
        serial = sweep(jobs)
        pooled = sweep(jobs, n_workers=2)
        assert pooled.failure_report.backend == "process"
        assert len(serial) == len(pooled)
        for a, b in zip(serial, pooled):
            assert a == b  # RunResult dataclass: every field compared

    def test_sweep_setcover_instance_routing(self):
        insts = [random_instance(4, 6, k=2, f=2, W=3, seed=s) for s in range(3)]
        serial = sweep(insts, FractionalPackingMachine())
        pooled = sweep(insts, FractionalPackingMachine(), n_workers=2)
        assert serial == pooled

    def test_run_many_seeded(self):
        g = families.random_regular(3, 12, seed=0)
        kwargs = dict(
            inputs=unit_weights(12), globals_map={"delta": 3, "W": 1}
        )
        serial = run_many(g, EdgePackingMachine(), seeds=[1, 2, 3, 4], **kwargs)
        pooled = run_many(
            g, EdgePackingMachine(), seeds=[1, 2, 3, 4], n_workers=2, **kwargs,
        )
        assert serial == pooled
        assert pooled.failure_report.backend == "process"

    def test_observer_rejected_on_process_backend(self):
        g = families.cycle_graph(6)
        with pytest.raises(ValueError, match="observer"):
            sweep(
                [edge_packing_job(g, unit_weights(6))],
                n_workers=2,
                observer=lambda r, s, o: None,
            )

    def test_observer_in_mapping_instance_rejected(self):
        # per-instance mappings merge into run() kwargs in the worker,
        # so they must not smuggle process-unsafe options past the guard
        g = families.cycle_graph(6)
        job = edge_packing_job(g, unit_weights(6))
        job["observer"] = _noop_observer  # picklable: would slip through
        with pytest.raises(ValueError, match="observer"):
            sweep([job], n_workers=2)

    def test_fault_adversary_rejected_on_process_backend(self):
        # adversaries may accumulate state (corruption logs) the caller
        # reads after the run; that state would stay in the child
        g = families.cycle_graph(6)
        with pytest.raises(ValueError, match="fault_adversary"):
            run_many(
                g, EdgePackingMachine(), seeds=[1, 2],
                inputs=unit_weights(6), globals_map={"delta": 2, "W": 1},
                n_workers=2,
                fault_adversary=_StatefulAdversary(),
            )

    def test_process_safe_adversary_accepted_on_process_backend(self):
        # the seeded message-fault adversaries declare process_safe:
        # their schedule is a pure hash of the seed, so nothing the run
        # outcome depends on stays behind in the worker
        g = families.cycle_graph(8)
        T = 10
        kwargs = dict(
            inputs=unit_weights(8), globals_map={"delta": 2, "W": 1},
            max_rounds=4 + T,
        )
        machine = SelfStabilisingMachine(EdgePackingMachine(), T)
        serial = run_many(
            g, machine, seeds=[1, 2, 3],
            fault_adversary=MessageLoss(4, rate=0.3, seed=7), **kwargs,
        )
        pooled = run_many(
            g, machine, seeds=[1, 2, 3],
            fault_adversary=MessageLoss(4, rate=0.3, seed=7),
            n_workers=2, **kwargs,
        )
        assert serial == pooled

    def test_results_carry_failure_report(self):
        jobs = [
            edge_packing_job(families.cycle_graph(n), unit_weights(n))
            for n in (8, 10, 12)
        ]
        pooled = sweep(jobs, n_workers=2)
        assert isinstance(pooled, JobResults)
        assert isinstance(pooled.failure_report, FailureReport)
        assert pooled.failure_report.clean


def _fault_schedule_run(seed):
    """Per-seed job building its adversary *inside* the job: determinism
    across processes then hinges purely on the hash schedule."""
    g = families.cycle_graph(10)
    T = 12
    job = edge_packing_job(g, unit_weights(10))
    job["machine"] = SelfStabilisingMachine(EdgePackingMachine(), T)
    job["max_rounds"] = 5 + T
    from repro.simulator.faults import ComposedAdversary

    adversary = ComposedAdversary(
        MessageLoss(5, rate=0.3, seed=seed),
        RandomCrashes(5, rate=0.1, seed=seed),
    )
    return run(fault_adversary=adversary, **job)


class TestFaultScheduleDeterminism:
    """Same seed ⇒ identical fault schedule in the parent and in workers."""

    @pytest.mark.parametrize("backend", ["process"])
    def test_backends_agree_under_faults(self, backend):
        seeds = [1, 2, 3, 4]
        serial = map_jobs(_fault_schedule_run, seeds, None)
        pooled = map_jobs(_fault_schedule_run, seeds, 2)
        assert pooled.failure_report.backend == backend
        assert serial == pooled  # RunResult dataclass: every field


class TestJobResultsReportPlumbing:
    """The failure report must survive every list operation that
    returns a new object — list subclasses silently drop attributes on
    slicing, concatenation, copying and pickling by default, and the
    report is exactly what the chaos tests and monitoring read."""

    def _jr(self):
        report = FailureReport(backend="process", pool_restarts=2)
        return JobResults([10, 20, 30], report), report

    def test_pickle_roundtrip_keeps_report(self):
        jr, report = self._jr()
        back = roundtrip(jr)
        assert isinstance(back, JobResults)
        assert back == [10, 20, 30]
        assert back.failure_report == report

    def test_copy_keeps_report(self):
        import copy

        jr, report = self._jr()
        dup = copy.copy(jr)
        assert isinstance(dup, JobResults)
        assert dup == jr and dup is not jr
        assert dup.failure_report == report

    def test_slice_keeps_report(self):
        jr, report = self._jr()
        tail = jr[1:]
        assert isinstance(tail, JobResults)
        assert tail == [20, 30]
        assert tail.failure_report == report
        assert jr[0] == 10  # scalar indexing unchanged

    def test_concat_keeps_report(self):
        jr, report = self._jr()
        for combined in (jr + [40], [0] + jr):
            assert isinstance(combined, JobResults)
            assert combined.failure_report == report
        with pytest.raises(TypeError):
            jr + 1  # non-list operands still rejected

    def test_plain_list_equality_intact(self):
        jr, _ = self._jr()
        assert jr == [10, 20, 30]
        assert [10, 20, 30] == jr
        assert jr != [10, 20]

    def test_default_report_is_unknown_backend(self):
        jr = JobResults([1])
        assert jr.failure_report.backend == "unknown"
        assert jr.failure_report.clean
