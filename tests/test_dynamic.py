"""Differential suite: ``DynamicRun(mode="incremental")`` ≡ ``mode="scratch"``.

The dynamic-network engine (:mod:`repro.dynamic`) may only ever change
wall-clock time: after every edit batch, the dirty-region warm restart
must produce a :class:`~repro.simulator.runtime.RunResult` that is
field-for-field identical to re-running the machine on the fresh graph.
This suite pins that contract across graph families, edit kinds
(including vertex removal that orphans edges), metering modes,
``arithmetic=`` values and seeds, on all three flows (§3 port-model
edge packing, §5 broadcast simulation, §4 set cover) — wired into CI
next to ``tests/test_replay_memo.py``.

Plus unit tests for the edit language and streams themselves.
"""

from __future__ import annotations

import gc
import types
from functools import partial

import pytest

from repro import obs
from repro.core.edge_packing import EdgePackingMachine, schedule_length
from repro.dynamic import session as session_mod
from repro.dynamic import (
    DYNAMIC_MODES,
    DynamicRun,
    EditError,
    HubChurn,
    RandomChurn,
    SlidingWindowStream,
    add_edge,
    add_vertex,
    apply_edits,
    remove_edge,
    remove_vertex,
    reweight,
    validate_dynamic_mode,
)
from repro.graphs import families
from repro.graphs.setcover import random_instance
from repro.graphs.weights import uniform_weights, unit_weights
from repro.simulator.machine import BROADCAST, PORT_NUMBERING
from repro.simulator.runtime import run

from helpers import Echo, apply_loudly, assert_run_results_equal


def assert_same_result(a, b):
    """Every RunResult field identical — the dynamic-mode contract."""
    assert_run_results_equal(a, b, label_a="incremental", label_b="scratch")


def _session_pair(graph, weights, **kwargs):
    inc = DynamicRun.vertex_cover(graph, weights, mode="incremental", **kwargs)
    scr = DynamicRun.vertex_cover(graph, weights, mode="scratch", **kwargs)
    assert_same_result(inc.result, scr.result)
    return inc, scr


def _apply_both(inc, scr, batch):
    s1 = apply_loudly(inc, batch)
    s2 = scr.apply(batch)
    assert_same_result(inc.result, scr.result)
    assert inc.cover() == scr.cover()
    assert inc.cover_weight() == scr.cover_weight()
    assert s1.n == s2.n and s1.m == s2.m and s1.rounds == s2.rounds
    assert s2.repaired_fraction == 1.0  # scratch always re-runs everything
    return s1


# ----------------------------------------------------------------------
# §3 port-model flow across families and edit kinds
# ----------------------------------------------------------------------

_FAMILIES = {
    "cycle12": (lambda: families.cycle_graph(12), lambda n: unit_weights(n), {}),
    "grid4x4": (
        lambda: families.grid_2d(4, 4),
        lambda n: uniform_weights(n, 3, seed=1),
        {"delta": 6, "W": 3},
    ),
    "tree": (
        lambda: families.balanced_tree(2, 3),
        lambda n: uniform_weights(n, 4, seed=2),
        {"delta": 5, "W": 4},
    ),
    "gnp14": (
        lambda: families.gnp_random(14, 0.25, seed=3),
        lambda n: uniform_weights(n, 5, seed=3),
        {"delta": 9, "W": 5},
    ),
}


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_random_churn_matches_scratch(name):
    make, make_w, kwargs = _FAMILIES[name]
    g = make()
    inc, scr = _session_pair(g, make_w(g.n), **kwargs)
    delta = inc._globals["delta"]
    W = inc._globals["W"]
    stream = RandomChurn(edits_per_batch=2, seed=11, W=W, max_degree=delta)
    for _ in range(4):
        batch = stream.next_batch(inc.graph, inc.inputs)
        if batch:
            stats = _apply_both(inc, scr, batch)
            assert 0 < stats.repaired_fraction <= 1.0
        assert inc.is_cover() and scr.is_cover()
        assert inc.certificate_ratio() <= 1


def test_vertex_removal_orphans_edges():
    """Removing a vertex drops its incident edges; every former
    neighbour (changed degree, shifted ports) must be repaired."""
    g = families.star_graph(6)  # centre 0 with 6 leaves
    w = uniform_weights(7, 3, seed=5)
    inc, scr = _session_pair(g, w, delta=7, W=3)
    stats = _apply_both(inc, scr, [remove_vertex(0)])  # orphans every edge
    assert inc.graph.m == 0 and inc.graph.n == 6
    assert stats.dirty_seeds == 6  # all former neighbours
    _apply_both(inc, scr, [add_edge(0, 1), add_edge(2, 3)])
    assert inc.is_cover()


def test_vertex_add_and_remove_renumbering():
    g = families.grid_2d(4, 4)
    w = uniform_weights(16, 3, seed=7)
    inc, scr = _session_pair(g, w, delta=6, W=3)
    _apply_both(inc, scr, [remove_vertex(5), reweight(3, 1)])
    _apply_both(inc, scr, [add_vertex(2, neighbours=[0, 4]), remove_edge(0, 1)])
    _apply_both(inc, scr, [remove_vertex(inc.graph.n - 1)])
    assert inc.is_cover()


@pytest.mark.parametrize("metering", ["none", "counts", "bits"])
def test_metering_modes(metering):
    g = families.cycle_graph(14)
    inc, scr = _session_pair(g, unit_weights(14), metering=metering)
    stream = HubChurn(edits_per_batch=1, seed=4)
    for _ in range(3):
        batch = stream.next_batch(inc.graph, inc.inputs)
        if batch:
            _apply_both(inc, scr, batch)
    if metering == "bits":
        assert inc.result.message_bits > 0
    if metering == "none":
        assert inc.result.messages_sent == 0


@pytest.mark.parametrize("arithmetic", ["scaled", "fraction"])
def test_arithmetic_modes(arithmetic):
    g = families.grid_2d(3, 4)
    w = uniform_weights(12, 6, seed=9)
    inc, scr = _session_pair(g, w, delta=5, W=6, arithmetic=arithmetic)
    _apply_both(inc, scr, [remove_edge(*g.edges[0]), reweight(2, 6)])
    _apply_both(inc, scr, [add_edge(*g.edges[0])])


@pytest.mark.parametrize("seed", [None, 0, 13])
def test_seeded_sessions(seed):
    # Seeds materialise per-node RNGs; the deterministic machines
    # ignore them, and the dynamic contract must be unaffected.
    g = families.cycle_graph(10)
    inc, scr = _session_pair(g, unit_weights(10), seed=seed)
    _apply_both(inc, scr, [remove_edge(0, 1)])
    _apply_both(inc, scr, [add_edge(0, 1), remove_edge(4, 5)])


def test_low_churn_repairs_a_strict_minority():
    """On a large sparse instance a single edit's ball must stay well
    below n — the locality claim the benchmark gate builds on."""
    n = 512
    inc, _scr = (
        DynamicRun.vertex_cover(
            families.cycle_graph(n), unit_weights(n), mode="incremental"
        ),
        None,
    )
    stats = inc.apply([remove_edge(100, 101)])
    radius = inc.result.rounds
    assert stats.repaired_nodes <= 2 * (2 * radius + 1)
    assert stats.repaired_fraction < 0.25
    assert inc.is_cover()


# ----------------------------------------------------------------------
# Quiescence-aware light cones
# ----------------------------------------------------------------------


class _NoQuiescence(EdgePackingMachine):
    """The §3 machine with the quiescence hooks removed: sessions then
    record and replay every node-round to the end of the schedule."""

    quiescent = None


def test_quiescence_pruning_engages_and_stays_exact():
    """One §3 stream through three sessions — quiescence-aware, hooks
    removed, and scratch — agreeing on every field after every batch,
    across a history remap and a mid-stream snapshot/restore, while
    the quiescence-aware cone re-steps strictly less."""
    n, W = 48, 4
    g = families.cycle_graph(n)
    w = uniform_weights(n, W, seed=5)
    pinned = {"delta": 2, "W": W}
    rounds = schedule_length(2, W)

    def session(machine, mode="incremental"):
        return DynamicRun(g, w, machine, pinned, rounds, mode=mode, flow="port")

    quiet = session(EdgePackingMachine())
    plain = session(_NoQuiescence())
    scr = session(EdgePackingMachine(), mode="scratch")
    stream = RandomChurn(edits_per_batch=2, seed=21, W=W, max_degree=2)
    quiet_nodes = plain_nodes = quiet_work = plain_work = 0
    for i in range(8):
        if i == 3:
            v = 10
            ends = [u if u < v else u - 1 for u in quiet.graph.neighbours(v)]
            batch = [remove_vertex(v), add_vertex(3, neighbours=ends)]
        else:
            batch = stream.next_batch(quiet.graph, quiet.inputs)
        if i == 5:
            quiet = DynamicRun.restore(quiet.snapshot())
            plain = DynamicRun.restore(plain.snapshot())
        s_quiet = apply_loudly(quiet, batch)
        s_plain = apply_loudly(plain, batch)
        scr.apply(batch)
        assert_same_result(quiet.result, scr.result)
        assert_same_result(plain.result, scr.result)
        assert s_quiet.repaired_nodes <= s_plain.repaired_nodes
        assert s_quiet.cone_node_rounds <= s_plain.cone_node_rounds
        quiet_nodes += s_quiet.repaired_nodes
        plain_nodes += s_plain.repaired_nodes
        quiet_work += s_quiet.cone_node_rounds
        plain_work += s_plain.cone_node_rounds
    assert quiet.graph.n == n
    assert quiet_nodes < plain_nodes  # quiet ball nodes were skipped
    assert quiet_work < plain_work


def test_quiescent_nodes_stop_recording():
    """Memory guard: on the unit-weight cycle every node is quiescent
    after Phase I's settle round 2Δ + 1, so — before and after a
    repair — no node holds more than 2Δ + 1 = 5 emission rows (27
    before quiescence ended the columns), and a silent row is
    ``None``."""
    n = 512
    sess = DynamicRun.vertex_cover(families.cycle_graph(n), unit_weights(n))
    for batch in ([], [remove_edge(100, 101)], [add_edge(100, 101)]):
        if batch:
            apply_loudly(sess, batch)
        hist = sess._history
        assert max(len(col) for col in hist.out) <= 5
        rows = [row for col in hist.out for row in col if row is not None]
        assert all(any(m is not None for m in row) for row in rows)


@pytest.mark.parametrize("model", [PORT_NUMBERING, BROADCAST])
def test_cone_stops_at_quiet_nodes(model):
    """The cone's BFS neither takes nor expands a node that is already
    quiescent when the wavefront reaches it: on a path whose node 1 is
    quiescent from round 0, a reweight of node 0 re-runs node 0 alone
    (the unpruned ball covers the path)."""
    g = families.path_graph(6)
    inputs = [5, 0, 5, 5, 5, 5]

    def session(mode):
        return DynamicRun(g, inputs, Echo(model), {}, 50, mode=mode,
                          flow="custom")

    inc, scr = session("incremental"), session("scratch")
    stats = apply_loudly(inc, [reweight(0, 6)])
    scr.apply([reweight(0, 6)])
    assert_same_result(inc.result, scr.result)
    assert stats.repaired_nodes == 1


def _reachable(root):
    """Every object reachable from ``root``, without descending into
    classes, modules or functions."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        stack.extend(
            x for x in gc.get_referents(obj)
            if not isinstance(x, (type, types.ModuleType, types.FunctionType))
        )
    return seen.values()


@pytest.mark.parametrize("algorithm", ["port", "broadcast"])
def test_history_holds_no_machine_state(algorithm):
    """A session records emission rows, not states: after a repair, no
    object reachable from its history is a state of its machine."""
    sess = DynamicRun.vertex_cover(
        families.cycle_graph(12), uniform_weights(12, 3, seed=2),
        algorithm=algorithm,
    )
    apply_loudly(sess, [remove_edge(3, 4)])
    state_types = {type(st) for st in sess.result.states}
    assert not any(type(o) in state_types for o in _reachable(sess._history))


def _counting_steps(machine):
    """``machine`` with its ``step`` counted into the returned list."""
    calls = [0]
    inner = machine.step

    def step(ctx, state, inbox):
        calls[0] += 1
        return inner(ctx, state, inbox)

    machine.step = step
    return machine, calls


@pytest.mark.parametrize("flow", ["section3", PORT_NUMBERING, BROADCAST])
def test_recording_keeps_parking_on(flow):
    """Opening an incremental session records its history on the
    engine's loop with quiescence parking on: it steps exactly as often
    as a plain run of the same instance, and agrees with it."""
    if flow == "section3":
        n, W = 1000, 8
        g = families.cycle_graph(n)
        inputs = uniform_weights(n, W, seed=1)
        globals_map = {"delta": 2, "W": W}
        rounds = schedule_length(2, W)
        make = EdgePackingMachine
    else:
        g = families.cycle_graph(40)
        inputs = uniform_weights(40, 6, seed=3)
        globals_map, rounds = {}, 50
        make = partial(Echo, flow)

    machine, plain_steps = _counting_steps(make())
    plain = run(g, machine, inputs=list(inputs), globals_map=globals_map,
                max_rounds=rounds)
    machine, session_steps = _counting_steps(make())
    session = DynamicRun(g, inputs, machine, globals_map, rounds, flow="custom")
    assert_run_results_equal(session.result, plain, "recorded", "plain")
    assert session_steps[0] == plain_steps[0]
    assert plain_steps[0] < g.n * plain.rounds  # parking engaged


@pytest.mark.parametrize("model", [PORT_NUMBERING, BROADCAST])
def test_quiescence_skip_and_park_in_both_models(model):
    """The skip and park rules in the port and the broadcast branch
    of the replay, on a machine whose nodes go quiet at different
    rounds (reweights move a node's quiescence round)."""
    g = families.cycle_graph(40)
    k = uniform_weights(40, 6, seed=3)

    def session(quiet, mode="incremental"):
        return DynamicRun(
            g, k, Echo(model, quiet), {}, 50, mode=mode, flow="custom"
        )

    quiet, plain, scr = session(True), session(False), session(True, "scratch")
    stream = RandomChurn(edits_per_batch=2, seed=4, W=6, max_degree=3)
    quiet_work = plain_work = 0
    for _ in range(10):
        batch = stream.next_batch(quiet.graph, quiet.inputs)
        quiet_work += apply_loudly(quiet, batch).cone_node_rounds
        plain_work += apply_loudly(plain, batch).cone_node_rounds
        scr.apply(batch)
        assert_same_result(quiet.result, scr.result)
        assert_same_result(plain.result, scr.result)
    assert quiet_work < plain_work


# ----------------------------------------------------------------------
# §5 broadcast flow and §4 set-cover flow
# ----------------------------------------------------------------------


def test_broadcast_flow_matches_scratch():
    g = families.path_graph(7)
    w = [1, 3, 2, 1, 2, 3, 1]
    kwargs = dict(algorithm="broadcast", delta=3, W=3)
    inc = DynamicRun.vertex_cover(g, w, mode="incremental", **kwargs)
    scr = DynamicRun.vertex_cover(g, w, mode="scratch", **kwargs)
    assert_same_result(inc.result, scr.result)
    _apply_both(inc, scr, [add_edge(0, 2)])
    _apply_both(inc, scr, [remove_edge(3, 4), reweight(5, 1)])
    _apply_both(inc, scr, [add_edge(3, 4), remove_vertex(6)])
    assert inc.is_cover()


@pytest.mark.parametrize("replay", ["incremental", "scratch"])
def test_broadcast_flow_replay_knob_orthogonal(replay):
    """The machine-level history replay knob composes with the session
    mode; every combination must agree."""
    g = families.cycle_graph(6)
    w = unit_weights(6)
    kwargs = dict(algorithm="broadcast", replay=replay)
    inc = DynamicRun.vertex_cover(g, w, mode="incremental", **kwargs)
    scr = DynamicRun.vertex_cover(g, w, mode="scratch", **kwargs)
    _apply_both(inc, scr, [remove_edge(2, 3)])
    assert inc.is_cover()


def test_setcover_flow_membership_churn():
    inst = random_instance(5, 8, k=3, f=2, W=4, seed=6)
    inc = DynamicRun.set_cover(inst, mode="incremental")
    scr = DynamicRun.set_cover(inst, mode="scratch")
    assert_same_result(inc.result, scr.result)
    g = inc.graph
    removable = next(
        (a, b) for (a, b) in g.edges if g.degree(b) >= 2
    )  # element keeps one covering subset
    _apply_both(inc, scr, [remove_edge(*removable)])
    _apply_both(
        inc,
        scr,
        [add_edge(*removable), reweight(0, {"role": "subset", "weight": 2})],
    )
    assert inc.is_cover()
    assert inc.certificate_ratio() <= 1


def test_setcover_flow_rejects_orphaning_and_vertex_edits():
    inst = random_instance(4, 6, k=3, f=2, W=2, seed=8)
    sess = DynamicRun.set_cover(inst, mode="incremental")
    g = sess.graph
    lonely = next(v for v in g.nodes() if v >= inst.n_subsets and g.degree(v) == 1)
    before = sess.result
    with pytest.raises(ValueError, match="orphans element"):
        sess.apply([remove_edge(g.neighbours(lonely)[0], lonely)])
    with pytest.raises(EditError, match="not supported"):
        sess.apply([remove_vertex(0)])
    assert sess.result is before  # failed batches leave the session intact


# ----------------------------------------------------------------------
# Session-level contracts
# ----------------------------------------------------------------------


def test_pinned_bounds_rejected_identically():
    g = families.cycle_graph(8)
    for mode in DYNAMIC_MODES:
        sess = DynamicRun.vertex_cover(g, unit_weights(8), mode=mode)
        with pytest.raises(ValueError, match="delta"):
            sess.apply([add_edge(0, 4)])  # degree 3 > pinned Δ=2
        with pytest.raises(ValueError):
            sess.apply([reweight(0, 5)])  # weight 5 > pinned W=1
        assert sess.graph.m == 8  # untouched after the failed batches


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        validate_dynamic_mode("bogus")
    with pytest.raises(ValueError):
        DynamicRun.vertex_cover(
            families.cycle_graph(4), unit_weights(4), mode="bogus"
        )


def test_incremental_history_survives_fallback():
    """A batch whose cone covers the whole graph falls back to a full
    recorded solve; the *next* small batch must warm-restart again."""
    n = 256
    inc = DynamicRun.vertex_cover(
        families.cycle_graph(n), unit_weights(n), mode="incremental"
    )
    scr = DynamicRun.vertex_cover(
        families.cycle_graph(n), unit_weights(n), mode="scratch"
    )
    # Many spread-out edits: cone ≈ everything.
    wide = [remove_edge(i, i + 1) for i in range(0, n - 1, 8)]
    s_wide = _apply_both(inc, scr, wide)
    assert s_wide.repaired_fraction == 1.0
    s_small = _apply_both(inc, scr, [add_edge(0, 1)])
    assert s_small.repaired_fraction < 1.0


def test_repair_fallback_is_recorded(monkeypatch):
    """A light-cone repair that raises still leaves an exact result (the
    batch is re-solved in full), but it must say so in the trace."""
    g = families.cycle_graph(128)  # the ball must not cover the graph
    inc, scr = _session_pair(g, unit_weights(128))

    def broken(*args, **kwargs):
        raise IndexError("replay broke")

    monkeypatch.setattr(session_mod, "_cone_replay", broken)
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        stats = inc.apply([remove_edge(3, 4)])
    scr.apply([remove_edge(3, 4)])
    assert_same_result(inc.result, scr.result)
    assert stats.repaired_nodes == inc.graph.n
    (event,) = tracer.events(obs.EV_ENGINE_FALLBACK)
    assert event["args"]["wanted"] == "incremental"
    assert event["args"]["reason"] == "IndexError: replay broke"


def test_batch_stats_accounting():
    g = families.cycle_graph(64)
    inc = DynamicRun.vertex_cover(g, unit_weights(64), mode="incremental")
    stats = inc.apply([remove_edge(10, 11), remove_edge(40, 41)])
    assert stats.batch == 1 and stats.n_edits == 2
    assert stats.dirty_seeds == 4
    assert stats.n == 64 and stats.m == 62
    assert 0 < stats.repaired_fraction <= 1.0
    assert inc.batches_applied == 1 and inc.stats == [stats]


# ----------------------------------------------------------------------
# Edit language unit tests
# ----------------------------------------------------------------------


def test_apply_edits_basic():
    batch = apply_edits(
        4, [(0, 1), (1, 2)], [1, 2, 3, 4],
        [add_edge(2, 3), remove_edge(0, 1), reweight(3, 9)],
    )
    assert batch.n == 4
    assert batch.edges == ((1, 2), (2, 3))
    assert batch.inputs == (1, 2, 3, 9)
    assert batch.node_map == (0, 1, 2, 3)
    assert batch.touched == {0, 1, 2, 3}


def test_apply_edits_vertex_removal_renumbers():
    batch = apply_edits(
        4, [(0, 1), (1, 2), (2, 3)], list("abcd"), [remove_vertex(1)]
    )
    assert batch.n == 3
    assert batch.edges == ((1, 2),)  # old (2,3) shifted down
    assert batch.node_map == (0, None, 1, 2)
    assert batch.touched == {0, 1}  # old 0 and old 2, the orphaned ends
    assert batch.inputs == ("a", "c", "d")


def test_apply_edits_add_vertex():
    batch = apply_edits(2, [(0, 1)], [5, 6], [add_vertex(7, neighbours=[0])])
    assert batch.n == 3
    assert batch.edges == ((0, 1), (0, 2))
    assert batch.inputs == (5, 6, 7)
    assert batch.touched == {0, 2}


@pytest.mark.parametrize(
    "bad",
    [
        [add_edge(0, 0)],
        [add_edge(0, 1)],  # duplicate
        [remove_edge(0, 3)],  # missing
        [remove_vertex(9)],
        [reweight(9, 1)],
        [add_vertex(1, neighbours=[0, 0])],
    ],
)
def test_apply_edits_rejects_invalid(bad):
    with pytest.raises(EditError):
        apply_edits(4, [(0, 1)], [1, 1, 1, 1], bad)


def test_streams_produce_valid_batches():
    g = families.grid_2d(4, 4)
    w = uniform_weights(16, 3, seed=0)
    streams = [
        RandomChurn(edits_per_batch=3, seed=1, W=3, max_degree=6),
        HubChurn(edits_per_batch=2, seed=2),
        SlidingWindowStream(window=2, edits_per_batch=2, seed=3, max_degree=6),
    ]
    from repro.graphs.topology import PortNumberedGraph

    for stream in streams:
        n, edges, inputs = g.n, set(g.edges), list(w)
        for _ in range(4):
            graph = PortNumberedGraph.from_edges(n, edges)
            batch = stream.next_batch(graph, inputs)
            # apply_edits validates every edit; an invalid batch raises.
            applied = apply_edits(n, tuple(sorted(edges)), inputs, batch)
            n, edges, inputs = applied.n, set(applied.edges), list(applied.inputs)
            assert graph.max_degree <= 6


def test_generic_session_with_nodes_halted_at_start():
    """A machine whose isolated (degree-0) nodes halt at start() — the
    generic DynamicRun contract must still hold bit-for-bit, including
    the executed round count (regression: the recording used to mark
    start-halted nodes as halting at round 1)."""
    from repro.graphs.topology import PortNumberedGraph
    from repro.simulator.machine import PORT_NUMBERING, Machine

    class LonelyHalts(Machine):
        model = PORT_NUMBERING

        def start(self, ctx):
            return 0 if ctx.degree else 3

        def emit(self, ctx, state):
            return [state] * ctx.degree

        def step(self, ctx, state, inbox):
            return min(3, state + 1)

        def halted(self, ctx, state):
            return state >= 3

        def output(self, ctx, state):
            return state

    def make(mode):
        g = PortNumberedGraph.from_edges(4, [(2, 3)])  # 0, 1 isolated
        return DynamicRun(
            g, [None] * 4, LonelyHalts(), {}, 50, mode=mode, flow="custom"
        )

    inc, scr = make("incremental"), make("scratch")
    assert_same_result(inc.result, scr.result)
    for batch in ([remove_edge(2, 3)], [add_edge(0, 1)], [remove_edge(0, 1)]):
        inc.apply(batch)
        scr.apply(batch)
        assert_same_result(inc.result, scr.result)


def test_streams_drop_label_memory_on_vertex_churn():
    """Label-based stream memory (severed edges, window FIFOs) must not
    survive a node-count change, and forget() clears it explicitly for
    balanced vertex churn the count check cannot see."""
    g = families.star_graph(5)
    w = uniform_weights(6, 2, seed=0)
    hub = HubChurn(edits_per_batch=2, seed=1)
    hub.next_batch(g, w)
    assert hub._severed  # something severed from the star centre
    smaller = families.star_graph(4)
    hub.next_batch(smaller, uniform_weights(5, 2, seed=0))
    assert hub._n_severed == smaller.n  # cache rebuilt for the new labels
    hub._severed = [(0, 1)]
    hub.forget()
    assert hub._severed == [] and hub._n_severed is None

    win = SlidingWindowStream(window=1, edits_per_batch=1, seed=2, max_degree=6)
    win.next_batch(g, w)
    win._live = [(0, 1)]
    win.forget()
    assert win._live == [] and win._n_live is None


def test_exp_churn_runs_on_every_sized_family():
    from repro.graphs.families import sized

    for family in ("grid", "gnp", "tree", "petersen"):
        g = sized(family, 16, seed=0)
        assert g.n > 0
    from repro.experiments.exp_churn import _churn_cell

    cell = _churn_cell(("grid", 16, 2, 1, 2, 0))
    assert cell["always_cover"] and cell["always_equal"]
