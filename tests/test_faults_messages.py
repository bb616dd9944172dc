"""Message-fault and crash adversaries: fast ≡ reference, determinism.

The chaos contract this suite pins (ISSUE 6):

* **engine equivalence** — ``run()`` equals ``run_reference()``
  field-for-field under every fault kind, in both models;
* **determinism** — a seeded adversary's fault schedule is a pure
  function of its constructor arguments: two fresh instances with the
  same seed produce identical runs *and* identical event counts;
* **recovery** — the self-stabilising transformer (paper Section 1.5)
  recovers the fault-free output within T rounds after the faults stop,
  for message faults and crashes just as for state corruption.

Machines are wrapped in :class:`SelfStabilisingMachine` throughout:
the raw machines assert on desynchronised inboxes by design, and
surviving arbitrary transient faults is exactly what the transformer
is for.
"""

from __future__ import annotations

import pytest

from repro.core.broadcast_vc import BroadcastVertexCoverMachine
from repro.core.edge_packing import (
    EdgePackingMachine,
    edge_packing_job,
    schedule_length,
)
from repro.core.vertex_cover import broadcast_vc_job
from repro.graphs import families
from repro.graphs.weights import uniform_weights
from repro.selfstab.transformer import SelfStabilisingMachine
from repro.simulator.faults import (
    FAULT_KINDS,
    ComposedAdversary,
    MessageCorruption,
    MessageDuplication,
    MessageLoss,
    NodeCrash,
    RandomCrashes,
    RandomStateCorruption,
    adversary_from_spec,
)
from repro.simulator.runtime import run, run_reference

from helpers import assert_run_results_equal

FAULTY_KINDS = tuple(k for k in FAULT_KINDS if k != "none")

N = 8
DELTA, W = 2, 3
T_PORT = schedule_length(DELTA, W)  # 27: full recovery horizon
T_BCAST = 12  # equivalence only: any pipeline depth exercises the hooks
FAULTY_ROUNDS = 6


def _graph():
    return families.cycle_graph(N)


def _weights():
    return list(uniform_weights(N, W, seed=4))


def _port_job(max_rounds=FAULTY_ROUNDS + T_PORT, metering="bits"):
    job = edge_packing_job(_graph(), _weights(), metering=metering)
    job["machine"] = SelfStabilisingMachine(EdgePackingMachine(), T_PORT)
    job["max_rounds"] = max_rounds
    return job


def _bcast_job(max_rounds=FAULTY_ROUNDS + T_BCAST, metering="bits"):
    job = dict(broadcast_vc_job(_graph(), _weights(), metering=metering))
    job["machine"] = SelfStabilisingMachine(
        BroadcastVertexCoverMachine(), T_BCAST
    )
    job["max_rounds"] = max_rounds
    return job


# Each model under every metering mode: tampered rounds meter the
# tampered links, and only as far as the mode asks.  The default
# ("bits") cells keep their plain model ids.
_METERED_JOBS = [
    pytest.param(
        jobfn, metering,
        id=model if metering == "bits" else f"{model}-{metering}",
    )
    for model, jobfn in (("port", _port_job), ("broadcast", _bcast_job))
    for metering in ("bits", "counts", "none")
]


def _adversary(kind, seed=1, rate=0.3):
    return adversary_from_spec(
        kind, until_round=FAULTY_ROUNDS, rate=rate, seed=seed
    )


class TestEngineEquivalence:
    """fast ≡ reference bit-for-bit under every adversary."""

    @pytest.mark.parametrize("kind", FAULTY_KINDS)
    @pytest.mark.parametrize("jobfn,metering", _METERED_JOBS)
    def test_fast_equals_reference(self, kind, jobfn, metering):
        # a fresh adversary per engine: stateful ones (duplication,
        # state corruption) must not leak one run's buffer into the next
        fast = run(fault_adversary=_adversary(kind), **jobfn(metering=metering))
        ref = run_reference(
            fault_adversary=_adversary(kind), **jobfn(metering=metering)
        )
        # every RunResult field, with a field-naming diff on mismatch
        assert_run_results_equal(fast, ref, label_a="fast", label_b="reference")

    @pytest.mark.parametrize("jobfn", [_port_job, _bcast_job],
                             ids=["port", "broadcast"])
    def test_composed_adversary(self, jobfn):
        def mk():
            return ComposedAdversary(
                MessageLoss(FAULTY_ROUNDS, rate=0.2, seed=3),
                RandomCrashes(FAULTY_ROUNDS, rate=0.1, seed=7),
                RandomStateCorruption(FAULTY_ROUNDS, rate=0.2, seed=9),
            )

        fast = run(fault_adversary=mk(), **jobfn())
        ref = run_reference(fault_adversary=mk(), **jobfn())
        assert_run_results_equal(fast, ref, label_a="fast", label_b="reference")

    def test_crash_stop_never_halts(self):
        # crash-stop: node 2 goes down at round 1 and never recovers,
        # so the run ends by max_rounds with the node still live-frozen
        def mk():
            return NodeCrash({2: (1, None), 5: (0, 4)})

        job = _port_job(max_rounds=30)
        fast = run(fault_adversary=mk(), **job)
        ref = run_reference(fault_adversary=mk(), **job)
        assert_run_results_equal(fast, ref, label_a="fast", label_b="reference")
        assert not fast.all_halted
        assert fast.rounds == 30

    def test_explicit_crash_recover(self):
        def mk():
            return NodeCrash({0: (2, 5), 3: (2, 5)})

        # a node rebooted at round 5 needs a full pipeline refill, so
        # give it recover_round + T rounds before reading outputs
        job = _port_job(max_rounds=5 + T_PORT)
        fast = run(fault_adversary=mk(), **job)
        ref = run_reference(fault_adversary=mk(), **job)
        assert_run_results_equal(fast, ref, label_a="fast", label_b="reference")
        fault_free = run(**edge_packing_job(_graph(), _weights()))
        assert fast.outputs == fault_free.outputs


class TestDeterminism:
    """Same seed ⇒ same fault schedule, same run, same event count."""

    @pytest.mark.parametrize("kind", FAULTY_KINDS)
    def test_same_seed_same_run(self, kind):
        a1, a2 = _adversary(kind, seed=5), _adversary(kind, seed=5)
        r1 = run(fault_adversary=a1, **_port_job())
        r2 = run(fault_adversary=a2, **_port_job())
        assert_run_results_equal(r1, r2, label_a="seed-run-1", label_b="seed-run-2")
        assert a1.events == a2.events

    @pytest.mark.parametrize("kind", ("loss", "corruption", "crash"))
    def test_seed_changes_schedule(self, kind):
        # metering sees the faults, so two seeds that injected anything
        # almost surely differ somewhere in the per-round traffic
        runs = [
            run(fault_adversary=_adversary(kind, seed=s, rate=0.4),
                **_port_job())
            for s in (1, 2, 3)
        ]
        assert len({tuple(r.per_round_bits) for r in runs}) > 1

    @pytest.mark.parametrize("kind", FAULTY_KINDS)
    def test_events_counted(self, kind):
        adv = _adversary(kind, seed=5)
        run(fault_adversary=adv, **_port_job())
        assert adv.events > 0

    def test_duplication_instance_reusable_across_runs(self):
        # the one-round buffer must self-heal when the round counter
        # restarts (fresh run, same instance): run 2 == a fresh run
        shared = MessageDuplication(FAULTY_ROUNDS, rate=0.4, seed=6)
        first = run(fault_adversary=shared, **_port_job())
        second = run(fault_adversary=shared, **_port_job())
        fresh = run(
            fault_adversary=MessageDuplication(
                FAULTY_ROUNDS, rate=0.4, seed=6
            ),
            **_port_job(),
        )
        assert_run_results_equal(first, second, label_a="run-1", label_b="run-2")
        assert_run_results_equal(second, fresh, label_a="run-2", label_b="fresh")


class TestSelfStabilisingRecovery:
    """Section 1.5: the transformer recovers from *any* transient fault
    — message-level and crash faults included — within T clean rounds."""

    @pytest.mark.parametrize("kind", FAULTY_KINDS)
    def test_recovers_fault_free_output(self, kind):
        fault_free = run(**edge_packing_job(_graph(), _weights()))
        res = run(
            fault_adversary=_adversary(kind, seed=2), **_port_job()
        )
        assert res.outputs == fault_free.outputs

    def test_recovers_from_crash_recover_plan(self):
        fault_free = run(**edge_packing_job(_graph(), _weights()))
        res = run(
            fault_adversary=NodeCrash({1: (0, 3), 4: (2, 6), 6: (5, 6)}),
            **_port_job(),
        )
        assert res.outputs == fault_free.outputs


class TestContracts:
    def test_fault_kinds_tuple(self):
        # the CLIs build their --fault choices from this
        assert FAULT_KINDS == (
            "none", "state", "loss", "duplication", "corruption", "crash"
        )

    def test_spec_none(self):
        assert adversary_from_spec(None) is None
        assert adversary_from_spec("none") is None

    def test_spec_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            adversary_from_spec("gremlins")

    @pytest.mark.parametrize("kind", FAULTY_KINDS)
    def test_spec_builds_each_kind(self, kind):
        adv = adversary_from_spec(kind, until_round=5, rate=0.1, seed=0)
        assert adv is not None
        assert adv.events == 0 or kind == "crash"  # NodeCrash plans eagerly

    @pytest.mark.parametrize(
        "cls", [MessageLoss, MessageCorruption, MessageDuplication]
    )
    def test_rate_validated(self, cls):
        with pytest.raises(ValueError, match="rate"):
            cls(5, rate=1.5)

    def test_crash_plan_validated(self):
        with pytest.raises(ValueError, match="invalid crash interval"):
            NodeCrash({0: (3, 3)})
        with pytest.raises(ValueError, match="invalid crash interval"):
            NodeCrash({0: (-1, 2)})

    def test_process_safety_flags(self):
        assert MessageLoss(5).process_safe
        assert MessageCorruption(5).process_safe
        assert MessageDuplication(5).process_safe
        assert NodeCrash({}).process_safe
        assert RandomCrashes(5).process_safe
        assert not RandomStateCorruption(5).process_safe
        assert ComposedAdversary(MessageLoss(5), NodeCrash({})).process_safe
        assert not ComposedAdversary(
            MessageLoss(5), RandomStateCorruption(5)
        ).process_safe

    def test_composed_events_sum(self):
        a, b = MessageLoss(FAULTY_ROUNDS, rate=0.4), MessageLoss(
            FAULTY_ROUNDS, rate=0.4, seed=9
        )
        comp = ComposedAdversary(a, b)
        run(fault_adversary=comp, **_port_job())
        assert comp.events == a.events + b.events > 0

    def test_tamper_keeps_silence_free(self):
        # MessageLoss drops messages *before* the wire: lost messages
        # are not metered, so total traffic falls below the clean run
        clean = run(**_port_job())
        lossy = run(
            fault_adversary=MessageLoss(FAULTY_ROUNDS, rate=0.5, seed=1),
            **_port_job(),
        )
        assert lossy.messages_sent < clean.messages_sent
