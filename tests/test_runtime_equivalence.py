"""Fast engine ≡ reference engine, field for field.

The fast engine (:func:`repro.simulator.runtime.run`) reorganises the
round loop aggressively — CSR scatter over reused inbox buffers,
halted-node skipping, silence tracking, memoised metering — while
:func:`run_reference` stays a plain, auditable loop.  This suite is the
contract between them: on randomised instances (both models, staggered
halting, fault adversaries, every metering mode) the two engines must
produce identical :class:`RunResult` fields, including exact message
and bit counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.core.broadcast_vc import BroadcastVertexCoverMachine, bvc_round_count
from repro.core.edge_packing import EdgePackingMachine, schedule_length
from repro.core.fractional_packing import FractionalPackingMachine
from repro.graphs import families
from repro.graphs.setcover import random_instance, vc_to_setcover
from repro.graphs.topology import PortNumberedGraph
from repro.graphs.weights import uniform_weights
from repro.simulator.faults import (
    MessageDuplication,
    RandomStateCorruption,
    TargetedCorruption,
)
from repro.simulator.machine import BROADCAST, PORT_NUMBERING, Machine
from repro.simulator.runtime import (
    Metering,
    run,
    run_on_setcover,
    run_reference,
)
from repro.selfstab.transformer import SelfStabilisingMachine

from helpers import Echo, assert_run_results_equal

# Every equivalence case involving the paper's machines runs in both
# arithmetic modes: the fast engine's parking/quiescence shortcuts and
# the scaled-integer fast path must each be invisible next to the
# reference engine.
ARITHMETIC_MODES = ("scaled", "fraction")


def assert_equivalent(graph, machine, seeds=(None,), **kwargs):
    """Run both engines for every seed and compare every RunResult field."""
    pair = None
    for seed in seeds:
        fast = run(graph, machine, seed=seed, **kwargs)
        ref = run_reference(graph, machine, seed=seed, **kwargs)
        assert_run_results_equal(fast, ref, label_a="fast", label_b="reference")
        pair = (fast, ref)
    return pair


def random_weighted_graph(seed: int, max_n: int = 14):
    rng = random.Random(f"equiv:{seed}")
    n = rng.randint(2, max_n)
    density = rng.choice([0.2, 0.35, 0.5, 0.8])
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    g = PortNumberedGraph.from_edges(n, edges)
    W = rng.choice([1, 3, 8])
    weights = [rng.randint(1, W) for _ in range(n)]
    return g, weights, W


# ----------------------------------------------------------------------
# The paper's machines on randomised instances
# ----------------------------------------------------------------------


@pytest.mark.parametrize("arithmetic", ARITHMETIC_MODES)
@pytest.mark.parametrize("seed", range(10))
def test_edge_packing_equivalence(seed, arithmetic):
    g, weights, W = random_weighted_graph(seed)
    machine = EdgePackingMachine(arithmetic=arithmetic)
    assert_equivalent(
        g,
        machine,
        inputs=weights,
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=schedule_length(g.max_degree, W),
    )


@pytest.mark.parametrize("arithmetic", ARITHMETIC_MODES)
@pytest.mark.parametrize("seed", range(10))
def test_fractional_packing_equivalence(seed, arithmetic):
    rng = random.Random(f"equiv-sc:{seed}")
    n_subsets = rng.randint(1, 6)
    k = rng.randint(2, 4)
    inst = random_instance(
        n_subsets=n_subsets,
        n_elements=rng.randint(1, min(6, n_subsets * k)),
        k=k,
        f=rng.randint(2, 3),
        W=rng.choice([1, 4, 8]),
        seed=seed,
    )
    machine = FractionalPackingMachine(arithmetic=arithmetic)
    assert_equivalent(
        inst.to_bipartite_graph(),
        machine,
        inputs=inst.node_inputs(),
        globals_map=inst.global_params(),
    )


_BVC_CASES = [
    # (graph factory, weights) — kept at Δ <= 3, W <= 4: the history
    # machine's round count explodes in Δ·W, and the reference engine
    # replays it all; these stay pinned without dominating the suite.
    (lambda: families.path_graph(4), [1, 3, 2, 1]),
    (lambda: families.cycle_graph(5), [1, 1, 1, 1, 1]),
    (lambda: families.star_graph(3), [4, 1, 2, 1]),
    (lambda: families.gnp_random(5, 0.45, seed=2), [2, 1, 2, 1, 2]),
]


@pytest.mark.parametrize("arithmetic", ARITHMETIC_MODES)
@pytest.mark.parametrize("case", range(len(_BVC_CASES)))
def test_broadcast_vc_equivalence(case, arithmetic):
    """The Section 5 history machine (the heaviest replay path) must be
    engine-equivalent too — fresh machine per engine, since its replay
    memo is per-instance state."""
    make_graph, weights = _BVC_CASES[case]
    g = make_graph()
    W = max(weights)
    kwargs = dict(
        inputs=weights,
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=bvc_round_count(g.max_degree, W),
    )
    fast = run(g, BroadcastVertexCoverMachine(arithmetic=arithmetic), **kwargs)
    ref = run_reference(
        g, BroadcastVertexCoverMachine(arithmetic=arithmetic), **kwargs
    )
    assert fast.outputs == ref.outputs
    assert fast.rounds == ref.rounds
    assert fast.all_halted == ref.all_halted
    assert fast.messages_sent == ref.messages_sent
    assert fast.message_bits == ref.message_bits
    assert fast.per_round_bits == ref.per_round_bits


@pytest.mark.parametrize("arithmetic", ARITHMETIC_MODES)
@pytest.mark.parametrize("seed", range(4))
def test_setcover_flow_equivalence(seed, arithmetic):
    """The set-cover entry point (run_on_setcover wiring) against a
    hand-wired reference run on the same bipartite layout."""
    rng = random.Random(f"equiv-scflow:{seed}")
    if seed % 2:
        inst = random_instance(
            n_subsets=rng.randint(2, 5),
            n_elements=rng.randint(2, 6),
            k=3,
            f=2,
            W=rng.choice([2, 5]),
            seed=seed,
        )
    else:
        # the paper's VC-as-set-cover encoding (f=2, k=Δ)
        g = families.cycle_graph(rng.randint(3, 6))
        inst = vc_to_setcover(g, [rng.randint(1, 4) for _ in range(g.n)])
    machine = FractionalPackingMachine(arithmetic=arithmetic)
    fast = run_on_setcover(inst, machine)
    ref = run_reference(
        inst.to_bipartite_graph(),
        machine,
        inputs=inst.node_inputs(),
        globals_map=inst.global_params(),
    )
    assert fast.outputs == ref.outputs
    assert fast.rounds == ref.rounds
    assert fast.messages_sent == ref.messages_sent
    assert fast.message_bits == ref.message_bits
    assert fast.per_round_bits == ref.per_round_bits
    assert fast.states == ref.states


@pytest.mark.parametrize("mode", [Metering.BITS, Metering.COUNTS, Metering.NONE])
def test_metering_modes_agree(mode):
    g, weights, W = random_weighted_graph(3)
    machine = EdgePackingMachine()
    kwargs = dict(
        inputs=weights, globals_map={"delta": g.max_degree, "W": W}
    )
    fast, ref = assert_equivalent(g, machine, metering=mode, **kwargs)
    # Metering must never change the computation itself.
    full = run(g, machine, metering=Metering.BITS, **kwargs)
    assert fast.outputs == full.outputs
    assert fast.rounds == full.rounds
    if mode == Metering.COUNTS:
        assert fast.messages_sent == full.messages_sent
        assert fast.message_bits == 0 and fast.per_round_bits == []
    if mode == Metering.NONE:
        assert fast.messages_sent == 0
        assert fast.message_bits == 0 and fast.per_round_bits == []


# ----------------------------------------------------------------------
# Fault adversaries (state corruption between rounds)
# ----------------------------------------------------------------------


def test_selfstab_edge_packing_under_random_faults():
    g = families.cycle_graph(6)
    w = uniform_weights(6, 3, seed=2)
    horizon = schedule_length(2, 3)
    for seed in range(3):
        machine = SelfStabilisingMachine(EdgePackingMachine(), horizon=horizon)
        kwargs = dict(
            inputs=list(w),
            globals_map={"delta": 2, "W": 3},
            max_rounds=2 * horizon,
        )
        fast = run(
            g, machine,
            fault_adversary=RandomStateCorruption(horizon, rate=0.3, seed=seed),
            **kwargs,
        )
        ref = run_reference(
            g, machine,
            fault_adversary=RandomStateCorruption(horizon, rate=0.3, seed=seed),
            **kwargs,
        )
        assert fast.outputs == ref.outputs
        assert fast.rounds == ref.rounds
        assert fast.messages_sent == ref.messages_sent
        assert fast.message_bits == ref.message_bits
        assert fast.per_round_bits == ref.per_round_bits


@dataclass(frozen=True)
class _TickState:
    ticks: int
    heard: tuple


class StaggeredPortMachine(Machine):
    """Halts after ``input`` rounds — nodes drop out at different times."""

    model = PORT_NUMBERING

    def start(self, ctx):
        return _TickState(0, ())

    def emit(self, ctx, state):
        return [("tick", state.ticks)] * ctx.degree

    def step(self, ctx, state, inbox):
        return _TickState(state.ticks + 1, state.heard + (tuple(inbox),))

    def halted(self, ctx, state):
        return state.ticks >= ctx.input

    def output(self, ctx, state):
        return state.heard


class StaggeredBroadcastMachine(StaggeredPortMachine):
    model = BROADCAST

    def emit(self, ctx, state):
        return ("tick", state.ticks)

    def step(self, ctx, state, inbox):
        return _TickState(state.ticks + 1, state.heard + (inbox,))


@pytest.mark.parametrize("machine_cls", [StaggeredPortMachine, StaggeredBroadcastMachine])
def test_staggered_halting_equivalence(machine_cls):
    """Nodes halting at different rounds: silence must match exactly."""
    g = families.grid_2d(3, 3)
    lifetimes = [1, 4, 2, 3, 1, 5, 2, 1, 3]
    assert_equivalent(g, machine_cls(), inputs=lifetimes)


@pytest.mark.parametrize("machine_cls", [StaggeredPortMachine, StaggeredBroadcastMachine])
def test_corruption_resurrects_halted_node(machine_cls):
    """A fault adversary can un-halt a node; both engines must agree."""
    g = families.cycle_graph(5)
    lifetimes = [2, 2, 3, 2, 4]
    adversary = lambda: TargetedCorruption(  # noqa: E731 — fresh per engine
        {3: {0: _TickState(0, ("reset",))}, 4: {1: _TickState(1, ())}}
    )
    fast = run(g, machine_cls(), inputs=lifetimes, fault_adversary=adversary())
    ref = run_reference(
        g, machine_cls(), inputs=lifetimes, fault_adversary=adversary()
    )
    assert fast.outputs == ref.outputs
    assert fast.rounds == ref.rounds
    assert fast.messages_sent == ref.messages_sent
    assert fast.message_bits == ref.message_bits
    assert fast.states == ref.states
    # The corrupted node really was resurrected (ran past its lifetime).
    assert fast.rounds > max(lifetimes)


@pytest.mark.parametrize("machine_cls", [StaggeredPortMachine, StaggeredBroadcastMachine])
def test_adversary_assigning_into_given_list(machine_cls):
    """An adversary that writes into the list it was handed (and
    returns it) must still be detected by the fast engine."""
    from repro.simulator.faults import FaultAdversary

    class InPlaceAssign(FaultAdversary):
        def is_active(self, round_index):
            return round_index == 3

        def corrupt(self, round_index, graph, states):
            if round_index == 3:
                states[0] = _TickState(0, ("reset",))  # no copy on purpose
            return states

    g = families.cycle_graph(5)
    lifetimes = [2, 2, 3, 2, 4]
    fast = run(g, machine_cls(), inputs=lifetimes, fault_adversary=InPlaceAssign())
    ref = run_reference(
        g, machine_cls(), inputs=lifetimes, fault_adversary=InPlaceAssign()
    )
    assert fast.outputs == ref.outputs
    assert fast.rounds == ref.rounds
    assert fast.rounds > max(lifetimes)  # node 0 really was resurrected


@pytest.mark.parametrize("machine_cls", [StaggeredPortMachine, StaggeredBroadcastMachine])
@pytest.mark.parametrize("until", [2, 3])
def test_duplicated_message_from_halted_sender(machine_cls, until):
    """Duplication can put last round's message on a link whose sender
    has since halted; it is delivered in that tampered round only, and
    the first untampered round reads silence there again."""
    g = families.cycle_graph(5)
    lifetimes = [1, 3, 2, 5, 4]
    fast = run(
        g, machine_cls(), inputs=lifetimes,
        fault_adversary=MessageDuplication(until, rate=1.0, seed=0),
    )
    ref = run_reference(
        g, machine_cls(), inputs=lifetimes,
        fault_adversary=MessageDuplication(until, rate=1.0, seed=0),
    )
    assert_run_results_equal(fast, ref, label_a="fast", label_b="reference")


@pytest.mark.parametrize("model", [PORT_NUMBERING, BROADCAST])
def test_quiescence_parking_in_both_models(model):
    """The fast engine parks quiescent nodes in either model: results
    equal the reference's on every field, with far fewer steps."""
    g = families.cycle_graph(40)
    k = list(uniform_weights(40, 6, seed=3))

    def counted_run(engine):
        machine = Echo(model)
        calls = [0]
        inner = machine.step

        def step(ctx, state, inbox):
            calls[0] += 1
            return inner(ctx, state, inbox)

        machine.step = step
        return engine(g, machine, inputs=k, max_rounds=50), calls[0]

    fast, fast_steps = counted_run(run)
    ref, ref_steps = counted_run(run_reference)
    assert_run_results_equal(fast, ref, label_a="fast", label_b="reference")
    assert ref_steps == len(k) * Echo.HORIZON
    # A node with input k talks for k rounds and parks the round it
    # turns quiescent, before its first silent round.
    assert fast_steps == sum(k)
