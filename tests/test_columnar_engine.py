"""Columnar engine ≡ object engine ≡ reference engine, field for field.

The columnar engine (:func:`repro.simulator.runtime.run` with
``engine="columnar"``) executes every round of the Section 3
edge-packing machine before its first star round — Phase I and the
Phase II colour pipeline (announce, Cole–Vishkin, shift-down and
elimination) — as vectorised whole-array kernels over a
:class:`~repro.simulator.state_layout.StateLayout`, then hands the star
rounds to the object engine.  This suite is the contract: on randomised
instances and named families, across every metering mode and both
arithmetic modes, all three engines must produce identical
:class:`RunResult` fields — outputs, rounds, halting, exact message and
bit counts, per-round bit traces, and final states.  Dedicated cells
cover colour accumulators beyond ``int64`` (held as Python ints in
``object`` columns), a 64-bit radix, instances whose forests have real
parents and roots, and budgets that end inside the pipeline.

It also pins the engine's safety properties (read-only inbox columns,
automatic fallback whenever the kernels cannot reproduce the object
path exactly), the object engine's documented inbox-buffer-reuse trap,
degenerate topologies through every entry point, and the
``on_max_rounds="raise"`` / :class:`MaxRoundsExceeded` plumbing.
"""

from __future__ import annotations

import random

import pytest

from repro.core.broadcast_vc import BroadcastVertexCoverMachine, bvc_round_count
from repro.core.cole_vishkin import (
    cv_pseudo_parent,
    cv_step_colour,
    eliminate_class_colour,
)
from repro.core.edge_packing import (
    EdgePackingMachine,
    maximal_edge_packing,
    schedule_length,
)
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graphs import families
from repro.graphs.topology import PortNumberedGraph
from repro.graphs.weights import unit_weights
from repro.simulator.machine import PORT_NUMBERING, Machine
from repro.simulator.runtime import (
    ENGINES,
    MaxRoundsExceeded,
    run,
    run_reference,
)
from repro.simulator import state_layout
from repro.simulator.state_layout import HAVE_NUMPY

from helpers import assert_run_results_equal

METERING_MODES = ("none", "counts", "bits")
ARITHMETIC_MODES = ("scaled", "fraction")

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def assert_identical(a, b):
    """Every RunResult field, bit for bit."""
    assert_run_results_equal(a, b, label_a="columnar", label_b="object")


def random_weighted_graph(seed: int, max_n: int = 14):
    """Random instance; isolated vertices allowed on purpose."""
    rng = random.Random(f"columnar:{seed}")
    n = rng.randint(2, max_n)
    density = rng.choice([0.15, 0.3, 0.5, 0.8])
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


def ep_kwargs(g, weights, W, metering="bits"):
    return dict(
        inputs=list(weights),
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=schedule_length(g.max_degree, W),
        metering=metering,
    )


def run_three_ways(g, machine, **kwargs):
    col = run(g, machine, engine="columnar", **kwargs)
    obj = run(g, machine, engine="object", **kwargs)
    ref = run_reference(g, machine, **kwargs)
    assert_identical(col, obj)
    assert_identical(col, ref)
    return col


# ----------------------------------------------------------------------
# The differential suite: three engines, every observable field
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metering", METERING_MODES)
@pytest.mark.parametrize("seed", range(8))
def test_differential_random_instances(seed, metering):
    g, weights, W = random_weighted_graph(seed)
    run_three_ways(
        g, EdgePackingMachine(), **ep_kwargs(g, weights, W, metering)
    )


_FAMILIES = [
    ("cycle", lambda: families.cycle_graph(9), 4),
    ("path", lambda: families.path_graph(7), 3),
    ("star", lambda: families.star_graph(5), 2),
    ("grid", lambda: families.grid_2d(3, 4), 3),
    ("complete", lambda: families.complete_graph(5), 5),
]


@pytest.mark.parametrize("arithmetic", ARITHMETIC_MODES)
@pytest.mark.parametrize("case", range(len(_FAMILIES)))
def test_differential_named_families(case, arithmetic):
    """Named families × both arithmetic modes.  Fraction mode cannot
    engage the kernels (the columnar run must *fall back*, silently and
    correctly); scaled mode must engage and still match."""
    _name, make, W = _FAMILIES[case]
    g = make()
    rng = random.Random(f"fam:{case}")
    weights = [rng.randint(1, W) for _ in range(g.n)]
    run_three_ways(
        g,
        EdgePackingMachine(arithmetic=arithmetic),
        **ep_kwargs(g, weights, W),
    )


@pytest.mark.parametrize("seed", range(4))
def test_differential_seeded_runtime_rng(seed):
    """A runtime seed attaches per-node RNGs; the deterministic machine
    ignores them, and both engines must thread them identically."""
    g, weights, W = random_weighted_graph(seed)
    col = run(
        g, EdgePackingMachine(), seed=seed, engine="columnar",
        **ep_kwargs(g, weights, W),
    )
    obj = run(
        g, EdgePackingMachine(), seed=seed, engine="object",
        **ep_kwargs(g, weights, W),
    )
    assert_identical(col, obj)


# ----------------------------------------------------------------------
# Engagement and fallback
# ----------------------------------------------------------------------


class _RecordingMachine(EdgePackingMachine):
    """Counts columnar kernel calls, records inbox writability, the
    plan, the column dtypes and the handoff states.

    The mutation of ``self`` is test instrumentation only — the machine
    contract (purity) is about the simulated state, which this subclass
    leaves to the parent kernels.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.step_calls = 0
        self.writable_flags = []
        self.plan = None
        self.dtypes = {}
        self.handoff = None

    def columnar_fields(self, graph, ctxs):
        self.plan = super().columnar_fields(graph, ctxs)
        return self.plan

    def step_columnar(self, layout, r, inbox_vals, inbox_sent):
        self.step_calls += 1
        self.writable_flags.append(
            (bool(inbox_vals.flags.writeable), bool(inbox_sent.flags.writeable))
        )
        super().step_columnar(layout, r, inbox_vals, inbox_sent)

    def finish_columnar(self, layout, ctxs):
        self.dtypes = {
            name: str(col.dtype)
            for name, col in {**layout.node, **layout.edge}.items()
        }
        # A copy: the engine's round loop replaces the list's entries.
        self.handoff = list(super().finish_columnar(layout, ctxs))
        return self.handoff


def pipeline_rounds(delta, W):
    """Every round before the first star round: 2Δ + 8 + T_cv."""
    return schedule_length(delta, W) - 6 * delta


def assert_covered_whole_plan(machine, delta, W):
    assert machine.plan is not None, "the machine declined the plan"
    assert machine.plan.rounds == pipeline_rounds(delta, W)
    assert machine.step_calls == machine.plan.rounds


@needs_numpy
def test_columnar_actually_engages():
    """Canary: on a scaled-mode run the kernels must really cover every
    round before the first star round (2Δ + 8 + T_cv: Phase I and the
    colour pipeline) — a silent fallback would make the whole
    differential suite vacuous."""
    g = families.cycle_graph(8)
    machine = _RecordingMachine()
    run(g, machine, engine="columnar", **ep_kwargs(g, unit_weights(8), 1))
    assert machine.step_calls == pipeline_rounds(g.max_degree, 1)
    assert_covered_whole_plan(machine, g.max_degree, 1)


@needs_numpy
def test_columnar_inboxes_are_read_only():
    """The columnar counterpart of the object engine's reused-buffer
    trap: kernels get read-only inbox columns, so aliasing cannot
    corrupt later rounds."""
    g = families.cycle_graph(6)
    machine = _RecordingMachine()
    run(g, machine, engine="columnar", **ep_kwargs(g, unit_weights(6), 1))
    assert machine.writable_flags  # engaged
    assert all(flags == (False, False) for flags in machine.writable_flags)


class _InboxWritingMachine(EdgePackingMachine):
    def step_columnar(self, layout, r, inbox_vals, inbox_sent):
        inbox_vals[0] = 0  # must be rejected by the runtime


@needs_numpy
def test_columnar_inbox_write_raises():
    g = families.cycle_graph(6)
    with pytest.raises(ValueError, match="read-only"):
        run(
            g, _InboxWritingMachine(), engine="columnar",
            **ep_kwargs(g, unit_weights(6), 1),
        )


def test_fraction_mode_declines_columnar_plan():
    g = families.cycle_graph(6)
    machine = _RecordingMachine(arithmetic="fraction")
    result = run(
        g, machine, engine="columnar", **ep_kwargs(g, unit_weights(6), 1)
    )
    assert machine.step_calls == 0  # fell back to the object engine
    assert result.all_halted


def test_bignum_radix_declines_columnar_plan():
    """A radix wider than 64 bits, where start() itself leaves digit
    mode: the machine must refuse the plan (and the object path still
    solves the instance)."""
    g = families.complete_graph(8)  # delta = 7: (7!)^7 has 87 bits
    machine = _RecordingMachine()
    W = 3  # radix W·(7!)^7 + 1 has 88
    result = run(
        g, machine, engine="columnar",
        inputs=[1] * g.n,
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=schedule_length(g.max_degree, W),
        metering="bits",
    )
    assert machine.step_calls == 0
    assert result.all_halted
    # ... and the fallback run still matches the reference exactly.
    ref = run_reference(
        g, EdgePackingMachine(),
        inputs=[1] * g.n,
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=schedule_length(g.max_degree, W),
        metering="bits",
    )
    assert_identical(result, ref)


def _thinned_regular(d, n, seed):
    """A random d-regular graph with about a sixth of its edges
    dropped: degrees 0..d, and Δ stays small enough for digit mode."""
    rng = random.Random(f"thinned:{d}:{n}:{seed}")
    base = families.random_regular(d, n, seed=seed)
    edges = [e for e in base.edges if rng.random() >= 1 / 6]
    return PortNumberedGraph.from_edges(n, edges)


_BIGNUM_CASES = [
    # (name, graph, W): radix^Δ >= 2^63, so the colour accumulators
    # are object columns of Python ints.
    ("K6", lambda: families.complete_graph(6), 3),
    ("4-regular-60", lambda: families.random_regular(4, 60, seed=7), 16),
    ("5-regular-40", lambda: families.random_regular(5, 40, seed=8), 4),
]


@needs_numpy
@pytest.mark.parametrize("metering", METERING_MODES)
@pytest.mark.parametrize("case", range(len(_BIGNUM_CASES)))
def test_bignum_accumulators_engage(case, metering):
    """Colour accumulators beyond int64 run in object columns, and the
    first CV step shrinks them back to int64: the kernels still cover
    the whole plan, and all three engines agree."""
    _name, make, W = _BIGNUM_CASES[case]
    g = make()
    rng = random.Random(f"bignum:{case}")
    weights = [rng.randint(1, W) for _ in range(g.n)]
    machine = _RecordingMachine()
    run_three_ways(g, machine, **ep_kwargs(g, weights, W, metering))
    assert_covered_whole_plan(machine, g.max_degree, W)
    assert machine.dtypes["own_acc"] == machine.dtypes["nbr_acc"] == "object"
    assert machine.dtypes["r_num"] == "int64"


@needs_numpy
@pytest.mark.parametrize("metering", METERING_MODES)
def test_64_bit_radix_engages(metering):
    """A radix of exactly 64 bits is still digit mode, but the Phase I
    numerators no longer fit int64: they are object columns too."""
    g = families.complete_graph(7)  # delta = 6: (6!)^6 has 57 bits
    W = 100  # radix W·(6!)^6 + 1 has 64
    rng = random.Random("radix64")
    weights = [rng.randint(1, W) for _ in range(g.n)]
    machine = _RecordingMachine()
    run_three_ways(g, machine, **ep_kwargs(g, weights, W, metering))
    assert_covered_whole_plan(machine, g.max_degree, W)
    assert machine.dtypes["r_num"] == machine.dtypes["y_num"] == "object"


@needs_numpy
@pytest.mark.parametrize("metering", METERING_MODES)
@pytest.mark.parametrize("W", (8, 16))
@pytest.mark.parametrize("seed", range(3))
def test_pipeline_heavy_instances(seed, W, metering):
    """Random bounded-degree instances whose Phase II forests are deep:
    CV reads real parents, some node is a child and a parent in one
    forest, and some forest has a root."""
    g = _thinned_regular(3 + seed % 2, 48, seed)
    rng = random.Random(f"pipeline:{seed}:{W}")
    weights = [rng.randint(1, W) for _ in range(g.n)]
    machine = _RecordingMachine()
    run_three_ways(g, machine, **ep_kwargs(g, weights, W, metering))
    assert_covered_whole_plan(machine, g.max_degree, W)
    states = machine.handoff
    assert any(
        set(st.forest_of_out.values()) & st.parent_forests() for st in states
    ), "no node is both child and parent in a forest"
    assert any(
        st.parent_forests() - set(st.forest_of_out.values()) for st in states
    ), "no forest has a root"


# The colour pipeline's kernels against the per-node rules of
# repro.core.cole_vishkin.  An elimination changes a run's result only
# when the recoloured node has descendants two levels down (the later
# shift-downs overwrite the rest), which random instances almost never
# have, so the rules are also checked directly: each kernel on
# hand-built slots where slot k's parent colour, if any, arrives on
# inbox half-edge k.


def _slots(parents):
    np = state_layout.np
    is_child = np.array([p is not None for p in parents])
    return {
        "is_child": is_child,
        "parent_he": np.nonzero(is_child)[0],
        "child_he": np.where(is_child, np.arange(len(parents)), -1),
    }


@needs_numpy
@pytest.mark.parametrize("bits", (3, 62, 90))
def test_cv_kernel_matches_cv_step_colour(bits):
    """Roots step against ``own ^ 1``, children against their parent;
    90-bit colours (object columns) come out as int64."""
    np = state_layout.np
    rng = random.Random(f"cv-kernel:{bits}")
    own, parents = [], []
    while len(own) < 400:
        o = rng.getrandbits(bits)
        p = None if rng.random() < 0.3 else rng.getrandbits(bits)
        if p != o:
            own.append(o)
            parents.append(p)
    dtype = object if bits > 63 else np.int64
    aux = _slots(parents)
    aux["colour"] = np.array(own, dtype=dtype)
    aux["values"] = np.zeros(len(own), dtype=dtype)
    inbox_vals = np.array([p or 0 for p in parents], dtype=dtype)
    EdgePackingMachine()._cv_columnar(aux, inbox_vals, aux["is_child"])
    assert aux["colour"].dtype == np.int64
    assert aux["colour"].tolist() == [
        cv_step_colour(o, cv_pseudo_parent(o) if p is None else p)
        for o, p in zip(own, parents)
    ]
    # The object path's invariant errors.
    inbox_vals[aux["parent_he"][0]] = own[aux["parent_he"][0]]
    aux["colour"] = np.array(own, dtype=dtype)
    with pytest.raises(ValueError, match="differing colours"):
        EdgePackingMachine()._cv_columnar(aux, inbox_vals, aux["is_child"])
    with pytest.raises(AssertionError, match="missing parent colour"):
        EdgePackingMachine()._cv_columnar(
            aux, inbox_vals, np.zeros(len(own), dtype=bool)
        )


@needs_numpy
@pytest.mark.parametrize("target", (3, 4, 5))
def test_eliminate_kernel_matches_eliminate_class_colour(target):
    """Every (own, parent, children) colour combination, None included."""
    np = state_layout.np
    cases = [
        (own, parent, children)
        for own in range(6)
        for parent in (None, *range(6))
        for children in (None, *range(6))
    ]
    parents = [parent for _own, parent, _children in cases]
    aux = _slots(parents)
    aux["colour"] = np.array([own for own, _p, _c in cases])
    aux["children"] = np.array(
        [-1 if c is None else c for _own, _p, c in cases]
    )
    inbox_vals = np.array([-1 if p is None else p for p in parents])
    EdgePackingMachine._eliminate_columnar(
        aux, inbox_vals, aux["is_child"], target
    )
    assert aux["colour"].tolist() == [
        eliminate_class_colour(own, target, parent, children)
        for own, parent, children in cases
    ]


def test_broadcast_machine_falls_back():
    """engine="columnar" on a broadcast-model machine is a no-op knob."""
    g = families.path_graph(3)
    weights = [1, 1, 1]
    kwargs = dict(
        inputs=weights,
        globals_map={"delta": g.max_degree, "W": 1},
        max_rounds=bvc_round_count(g.max_degree, 1),
    )
    col = run(
        g, BroadcastVertexCoverMachine(), engine="columnar", **kwargs
    )
    obj = run(g, BroadcastVertexCoverMachine(), engine="object", **kwargs)
    assert_identical(col, obj)


def test_observer_forces_object_path():
    """An observer sees per-round outboxes, which the columnar prefix
    does not materialise — the run must take the object path and the
    observer must see every round."""
    g = families.cycle_graph(5)
    seen = []
    result = run(
        g, EdgePackingMachine(),
        observer=lambda r, states, outboxes: seen.append(r),
        engine="columnar",
        **ep_kwargs(g, unit_weights(5), 1),
    )
    assert len(seen) == result.rounds


def test_generic_machines_opt_out_by_default():
    """A machine that never heard of the columnar protocol runs
    unchanged under engine="columnar"."""

    class Plain(Machine):
        model = PORT_NUMBERING

        def start(self, ctx):
            return 0

        def emit(self, ctx, state):
            return [state] * ctx.degree

        def step(self, ctx, state, inbox):
            return state + 1

        def halted(self, ctx, state):
            return state >= 3

        def output(self, ctx, state):
            return state

    g = families.cycle_graph(4)
    assert_identical(
        run(g, Plain(), engine="columnar"), run(g, Plain(), engine="object")
    )


# ----------------------------------------------------------------------
# Degenerate topologies, every entry point
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_graph(engine):
    g = PortNumberedGraph.from_edges(0, [])
    result = vertex_cover_2approx(g, [], engine=engine)
    assert result.cover == frozenset()
    assert result.is_cover()


@pytest.mark.parametrize("engine", ENGINES)
def test_single_node(engine):
    g = PortNumberedGraph.from_edges(1, [])
    result = vertex_cover_2approx(g, [5], engine=engine)
    assert result.cover == frozenset()
    assert result.is_cover()


@pytest.mark.parametrize("metering", METERING_MODES)
def test_isolated_vertices(metering):
    """Degree-0 nodes exercise the empty-segment corner of the CSR
    reductions; all three engines must agree on them."""
    g = PortNumberedGraph.from_edges(6, [(0, 1), (2, 3)])
    weights = [2, 3, 1, 4, 7, 1]
    result = run_three_ways(
        g, EdgePackingMachine(), **ep_kwargs(g, weights, 7, metering)
    )
    assert result.all_halted
    vc = vertex_cover_2approx(g, weights, engine="columnar")
    assert vc.is_cover()
    assert {4, 5}.isdisjoint(vc.cover)  # isolated nodes never enter


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        PortNumberedGraph.from_edges(3, [(0, 0)])


# ----------------------------------------------------------------------
# The object engine's inbox-buffer-reuse trap (documented tripwire)
# ----------------------------------------------------------------------


class _InboxRetainer(Machine):
    """Deliberately breaks the documented contract: retains a live
    reference to its round-0 inbox next to a defensive snapshot."""

    model = PORT_NUMBERING

    def start(self, ctx):
        return {"ticks": 0, "alias": None, "snapshot": None}

    def emit(self, ctx, state):
        return [("t", state["ticks"])] * ctx.degree

    def step(self, ctx, state, inbox):
        new = dict(state)
        new["ticks"] = state["ticks"] + 1
        if state["alias"] is None:
            new["alias"] = inbox          # the trap
            new["snapshot"] = tuple(inbox)  # the documented fix
        return new

    def halted(self, ctx, state):
        return state["ticks"] >= ctx.input

    def output(self, ctx, state):
        return (tuple(state["alias"]), state["snapshot"])


def test_inbox_reuse_tripwire():
    """The fast engine reuses port-model inbox buffers across rounds —
    a machine aliasing its inbox reads *later* rounds through the
    alias.  This tripwire pins the behaviour both ways: the reference
    engine (fresh inbox per round) keeps alias == snapshot, the fast
    engine must show the trap actually exists.  If this test ever fails
    on the `run()` half, the engine stopped reusing buffers and the
    Machine.step docs must be updated."""
    g = families.cycle_graph(5)
    lifetimes = [2, 3, 4, 3, 2]  # staggered: silencing kicks in too

    ref = run_reference(g, _InboxRetainer(), inputs=lifetimes)
    assert all(alias == snap for alias, snap in ref.outputs)

    fast = run(g, _InboxRetainer(), inputs=lifetimes)
    assert any(alias != snap for alias, snap in fast.outputs)
    # The trap only affects the broken retainer's view — the actual
    # computation (rounds, metering) is unaffected.
    assert fast.rounds == ref.rounds
    assert fast.messages_sent == ref.messages_sent
    assert [snap for _, snap in fast.outputs] == [
        snap for _, snap in ref.outputs
    ]


# ----------------------------------------------------------------------
# max_rounds exhaustion: loud, with round count and node ids
# ----------------------------------------------------------------------


class _NeverHalts(Machine):
    model = PORT_NUMBERING

    def start(self, ctx):
        return 0

    def emit(self, ctx, state):
        return [None] * ctx.degree

    def step(self, ctx, state, inbox):
        return state + 1

    def halted(self, ctx, state):
        return False

    def output(self, ctx, state):
        return state


@pytest.mark.parametrize("runner", [run, run_reference])
def test_on_max_rounds_raise(runner):
    g = families.cycle_graph(4)
    with pytest.raises(MaxRoundsExceeded) as excinfo:
        runner(g, _NeverHalts(), max_rounds=7, on_max_rounds="raise")
    exc = excinfo.value
    assert exc.rounds == 7
    assert exc.non_halted == [0, 1, 2, 3]
    assert "max_rounds=7" in str(exc)
    assert "4 node(s)" in str(exc)


@pytest.mark.parametrize("runner", [run, run_reference])
def test_on_max_rounds_return_is_default(runner):
    g = families.cycle_graph(4)
    result = runner(g, _NeverHalts(), max_rounds=7)
    assert not result.all_halted
    assert result.rounds == 7


def test_invalid_knobs_rejected():
    g = families.cycle_graph(3)
    with pytest.raises(ValueError, match="engine"):
        run(g, _NeverHalts(), engine="simd")
    with pytest.raises(ValueError, match="on_max_rounds"):
        run(g, _NeverHalts(), on_max_rounds="explode")
    with pytest.raises(ValueError, match="on_max_rounds"):
        run_reference(g, _NeverHalts(), on_max_rounds="explode")


@pytest.mark.parametrize("engine", ENGINES)
def test_edge_packing_max_rounds_fails_loudly(engine):
    """A too-small budget must name the schedule's true length and the
    stuck nodes — never return a partial packing (and never the old
    'within None rounds' message)."""
    g = families.cycle_graph(6)
    weights = [1, 2, 1, 2, 1, 2]
    needed = schedule_length(g.max_degree, 2)
    with pytest.raises(MaxRoundsExceeded) as excinfo:
        maximal_edge_packing(g, weights, max_rounds=3, engine=engine)
    exc = excinfo.value
    assert exc.rounds == 3
    assert exc.non_halted  # the stuck nodes are named
    assert f"needs exactly {needed} rounds" in str(exc)
    assert "None" not in str(exc)


def test_max_rounds_truncation_still_matches():
    """Budgets below the plan's 2Δ + 8 + T_cv rounds (the columnar
    prefix cannot engage, so the run falls back) must still match the
    object engine and the reference on the partial run: 3 rounds on the
    unit 6-cycle, and 2Δ + 3 rounds, which stop after the first
    Cole–Vishkin round, on a thinned 3-regular graph in every metering
    mode."""
    cycle = families.cycle_graph(6)
    cases = [(cycle, unit_weights(6), 1, 3, "bits")]
    thinned = _thinned_regular(3, 48, 0)
    rng = random.Random("short-budget")
    weights = [rng.randint(1, 16) for _ in range(thinned.n)]
    cases += [
        (thinned, weights, 16, 2 * thinned.max_degree + 3, metering)
        for metering in METERING_MODES
    ]
    for g, weights, W, budget, metering in cases:
        kwargs = ep_kwargs(g, weights, W, metering)
        kwargs["max_rounds"] = budget
        result = run_three_ways(g, EdgePackingMachine(), **kwargs)
        assert result.rounds == budget
        assert not result.all_halted
