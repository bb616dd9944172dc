"""Dynamic-network sessions: covers maintained under churn.

A :class:`DynamicRun` holds a solved instance — a graph, its per-node
inputs, the machine that solves it and the standing
:class:`~repro.simulator.runtime.RunResult` — and applies batches of
:class:`~repro.dynamic.edits.GraphEdit` values, re-deriving the cover
after every batch.  Two modes, selected once per session:

* ``mode="scratch"`` — the paper-literal reference contract: every
  batch applies the edits through the pure
  :func:`~repro.dynamic.edits.apply_edits` semantics, rebuilds the
  canonical graph, and re-runs the machine on the fresh post-edit
  instance through :func:`repro.simulator.runtime.run`, exactly as
  ``maximal_edge_packing`` / ``vertex_cover_2approx`` (and the
  broadcast / set-cover flows) would on a one-shot instance.
* ``mode="incremental"`` (default) — a **light-cone warm restart**
  over a mutable topology.  Batches mutate a
  :class:`~repro.dynamic.overlay.MutableTopology` in O(dirty region)
  instead of rebuilding the graph (vertex renumbering stays O(n), as
  in the reference semantics), and the repair re-executes only the
  edit's *light cone* rather than every node of the dirty ball from
  round 0 — see below.  The repaired states, outputs and metering are
  spliced into the standing ``RunResult`` in place.

The two modes are **bit-for-bit identical** on every ``RunResult``
field — outputs, rounds, ``all_halted``, message counts, metered bits,
per-round bits, final states — in the same contract style as the
``replay=`` and ``arithmetic=`` knobs; ``tests/test_dynamic.py`` and
the 100+-batch streams in ``tests/test_dynamic_soak.py`` pin the
equality differentially across graph families, edit kinds, metering
modes, arithmetic modes and seeds.

Soundness of the warm restart (why replaying is not an approximation):
run the pre- and post-edit executions in lockstep and let ``Dirty_t``
be the nodes whose state after ``t`` rounds differs.  ``Dirty_0`` is
the touched set (changed degree, weight, or existence).  A node
outside the touched set has the *same* neighbour set in both graphs,
so its round-``t`` inbox differs only if a neighbour is in
``Dirty_t`` — hence ``Dirty_{t+1} ⊆ touched ∪ N(Dirty_t)``, and after
``R`` executed rounds the dirty region is contained in the radius-``R``
BFS ball around the touched nodes.  Everything outside the ball has an
identical trajectory, so its recorded emissions, final state and
output can be reused verbatim.

The **light cone** sharpens the same argument per node: a ball node
``v`` at BFS distance ``d = dist(v, touched)`` cannot receive any
perturbed message before round ``d − 1`` (information moves one hop
per round), so its state trajectory through round ``d − 1`` — and its
emission in round ``d − 1`` itself, a function of the round-``d − 1``
state — are *identical* to the recording.  The session therefore keeps
per-node state columns alongside the message history and resumes ``v``
at round ``d − 1`` from its recorded state, with fresh emissions only
from round ``d`` on.

**Quiescence** widens the skip.  For machines implementing the
quiescence protocol (:meth:`~repro.simulator.machine.Machine.
quiescent` / ``fast_forward``), a quiescent node is silent and its
``step`` ignores the inbox until it halts, so like a halted node it
can no longer be perturbed: a ball node that was already halted *or
quiescent* by round ``d − 1`` keeps its recorded trajectory whatever
its neighbours now send, and is not re-executed at all.  The recording
ends each node's columns at its quiescence round, and the replay parks
a cone node the round it turns quiescent, taking its final state and
halt round from ``fast_forward`` exactly as the fast engine does.
Re-executed work drops from ``|ball| × R`` node-rounds to the cone —
``Σ_v (R − d(v))`` over the ball nodes still active when the
wavefront reaches them, each cut off where it halts or parks — for a
small batch on a large graph, a constant independent of ``n``.

Requirements (both asserted where cheap, documented otherwise): the
machine must be deterministic (it may receive a ``ctx.rng`` but must
not read it — true of all the paper's machines) with a round count
that never *grows* under edits that keep the global parameters fixed
(the paper's schedules depend only on the globals, which the session
pins at construction: ``delta``/``W`` for vertex cover, ``f``/``k``/
``W`` for set cover — an edit exceeding a pinned bound is rejected).
Sessions run on the canonical port numbering (edits are defined on the
edge set; the session normalises the initial graph, and the overlay
maintains canonical ports under mutation).  If a previous run was cut
off by ``max_rounds`` (``all_halted`` false), the warm restart is
unsound — the session detects this and falls back to a full recorded
solve, preserving bit-equality.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro._util.ordering import canonical_key
from repro.obs import EV_DYNAMIC_BATCH, EV_ENGINE_FALLBACK, SPAN_BATCH
from repro._util.sizes import message_size_bits
from repro.dynamic.edits import EditError, GraphEdit, apply_edits
from repro.dynamic.overlay import MutableTopology, OverlayBatch
from repro.graphs.topology import PortNumberedGraph
from repro.graphs.weights import validate_weights
from repro.simulator.machine import PORT_NUMBERING, LocalContext, Machine
from repro.simulator.runtime import (
    Metering,
    RunResult,
    _bad_arity,
    _make_contexts,
    _node_context,
    run,
)

__all__ = [
    "DYNAMIC_MODES",
    "SNAPSHOT_VERSION",
    "validate_dynamic_mode",
    "BatchStats",
    "CoverView",
    "DynamicRun",
]

DYNAMIC_MODES = ("incremental", "scratch")

#: Version tag written into :meth:`DynamicRun.snapshot` payloads.
#: Bump it whenever the payload layout changes; :meth:`DynamicRun.
#: restore` refuses snapshots from a different version rather than
#: guessing (snapshots are durable state — they outlive the process
#: and may outlive the code that wrote them).  Version 2: column-major
#: state+message history for light-cone restarts.  Version 3: the
#: Section 5 machine pickles a hash-consed history-id table next to
#: its id-keyed replay memo.  Version 4: history columns end at each
#: node's quiescence round, which the history records, and silent
#: port rows are ``None``.  Version 5: Section 4 states (set-cover and
#: Section 5 sessions) carry a reference to their compiled program.
#: Version 6: Section 5 states hold :class:`repro._util.memo.History`
#: values, pickled as their content and re-identified on restore.
SNAPSHOT_VERSION = 6

_INF = math.inf


def validate_dynamic_mode(mode: str) -> str:
    """Validate a ``mode=`` argument, returning it unchanged."""
    if mode not in DYNAMIC_MODES:
        raise ValueError(
            f"unknown dynamic mode {mode!r}; expected one of {DYNAMIC_MODES}"
        )
    return mode


# ----------------------------------------------------------------------
# Recorded run histories (column-major: one column per node)
# ----------------------------------------------------------------------


@dataclass
class _SessionHistory:
    """What one run leaves behind for the next batch's warm restart.

    Column-major so a cone replay touches only the columns of cone
    nodes.  Per node ``v``:

    * ``out[v][t]`` — ``v``'s emission during round ``t``: the
      port-indexed message list (port model) or the broadcast payload;
      ``None`` for silence (a port row with no message on any port is
      stored as ``None`` too).  Truncated at ``v``'s halt or
      quiescence round, whichever comes first (a halted or quiescent
      node is silent from then on, so ``t >= len(out[v])`` reads as
      ``None``).
    * ``st[v][t]`` — ``v``'s state *after* round ``t + 1``, kept only
      while ``v`` is live and not quiescent: the column ends one entry
      before ``out[v]`` does (machine states are persistent values —
      ``step`` returns successors without mutating its argument — so
      these are references, not copies).  A cone replay resumes a
      node only before it halts or turns quiescent, so the halted or
      quiescent state itself is never read.
    * ``halt_round[v]`` — first round index at whose *start* ``v`` is
      halted (``0`` = halted before round 0, ``inf`` = never halted
      within the run).
    * ``quiet_round[v]`` — first round index at whose start ``v`` is
      quiescent but not halted (``inf`` = never, and always for
      machines without the quiescence protocol).
    * ``deg[v]`` — ``v``'s degree when its rows were recorded (the
      broadcast metering delta needs it; a node's rows are only ever
      reused while its degree is unchanged).

    Aggregates, kept incrementally so rounds/metering splice in
    O(cone + R) instead of O(n):

    * ``halt_counts`` — histogram of ``halt_round`` values; the run's
      round count is its largest finite key (or ``max_rounds`` if any
      node never halted).
    * ``round_msgs[t]`` / ``round_bits[t]`` — total messages / bits
      sent in round ``t`` (maintained only under the corresponding
      metering modes).
    """

    # Field order is pickle order: ``st`` goes first so the states'
    # attribute names take the pickle memo's one-byte slots (see
    # DynamicRun.snapshot).
    rounds: int
    st: List[List[Any]]
    out: List[List[Any]]
    halt_round: List[float]
    quiet_round: List[float]
    deg: List[int]
    halt_counts: Dict[float, int]
    round_msgs: List[int]
    round_bits: List[int]


def _port_row(row: Any) -> Any:
    """``row``, or ``None`` when it carries no message on any port."""
    if row is not None:
        for msg in row:
            if msg is not None:
                return row
    return None


def _row_cost(
    row: Any, deg: int, port_model: bool, meter_bits: bool
) -> Tuple[int, int]:
    """``(messages, bits)`` one recorded emission row put on the wire
    (bits 0 unless ``meter_bits``): a port row pays per non-``None``
    entry, a broadcast payload once per link of its ``deg``."""
    if row is None:
        return 0, 0
    if port_model:
        c = 0
        b = 0
        for msg in row:
            if msg is not None:
                c += 1
                if meter_bits:
                    b += message_size_bits(msg)
        return c, b
    return deg, deg * message_size_bits(row) if meter_bits else 0


def _record_run(
    graph: PortNumberedGraph,
    machine: Machine,
    inputs: Optional[Sequence[Any]],
    globals_map: Optional[Mapping[str, Any]],
    max_rounds: int,
    metering: Any,
    seed: Optional[int],
) -> Tuple[RunResult, _SessionHistory]:
    """A full :func:`run` that also records the session history.

    The observer sees every round (it disables quiescence parking), so
    the recording is exact; results are identical to an unobserved run
    by the engine-equivalence contract.  A node's columns end when it
    halts or turns quiescent; after that only its halt is watched.
    """
    ctxs = _make_contexts(graph, inputs, globals_map, seed)
    n = graph.n
    port_model = machine.model == PORT_NUMBERING
    halt_round: List[float] = [_INF] * n
    quiet_round: List[float] = [_INF] * n
    out_cols: List[List[Any]] = [[] for _ in range(n)]
    st_cols: List[List[Any]] = [[] for _ in range(n)]
    halted_fn = machine.halted
    quiescent_fn = getattr(machine, "quiescent", None)
    # Nodes halted or quiescent at start are silent from round 0; the
    # observer only sees rounds >= 1, so establish those exactly up
    # front (start, halted and quiescent are pure, so this extra
    # evaluation changes nothing).
    recording: List[int] = []  # live and not quiescent: rows recorded
    coasting: List[int] = []  # quiescent, not yet halted
    for v in range(n):
        st0 = machine.start(ctxs[v])
        if halted_fn(ctxs[v], st0):
            halt_round[v] = 0
        elif quiescent_fn is not None and quiescent_fn(ctxs[v], st0):
            quiet_round[v] = 0
            coasting.append(v)
        else:
            recording.append(v)

    def observer(round_index: int, states: List[Any], outboxes: List[Any]) -> None:
        if coasting:
            still = []
            for v in coasting:
                if halted_fn(ctxs[v], states[v]):
                    halt_round[v] = round_index
                else:
                    still.append(v)
            coasting[:] = still
        still = []
        for v in recording:
            row = outboxes[v]
            out_cols[v].append(_port_row(row) if port_model else row)
            st = states[v]
            if halted_fn(ctxs[v], st):
                halt_round[v] = round_index
            elif quiescent_fn is not None and quiescent_fn(ctxs[v], st):
                quiet_round[v] = round_index
                coasting.append(v)
            else:
                st_cols[v].append(st)
                still.append(v)
        recording[:] = still

    result = run(
        graph,
        machine,
        inputs=inputs,
        globals_map=globals_map,
        max_rounds=max_rounds,
        seed=seed,
        observer=observer,
        metering=metering,
    )

    meter = Metering.of(metering)
    R = result.rounds
    degs = list(graph.degree_array)
    halt_counts: Dict[float, int] = {}
    for h in halt_round:
        halt_counts[h] = halt_counts.get(h, 0) + 1
    round_msgs: List[int] = []
    if meter.counts_messages:
        round_msgs = [0] * R
        for v in range(n):
            for t, row in enumerate(out_cols[v]):
                round_msgs[t] += _row_cost(row, degs[v], port_model, False)[0]
    # Per-round bits are exactly what the engine metered.
    round_bits = list(result.per_round_bits) if meter.meters_bits else []
    history = _SessionHistory(
        rounds=R,
        out=out_cols,
        st=st_cols,
        halt_round=halt_round,
        quiet_round=quiet_round,
        deg=degs,
        halt_counts=halt_counts,
        round_msgs=round_msgs,
        round_bits=round_bits,
    )
    return result, history


def _dirty_cone(
    topo: MutableTopology, seeds: Sequence[int], radius: int
) -> Dict[int, int]:
    """BFS distances from ``seeds`` out to ``radius`` (inclusive)."""
    dist: Dict[int, int] = {v: 0 for v in seeds}
    frontier = list(dist)
    d = 0
    while frontier and d < radius:
        d += 1
        nxt: List[int] = []
        for v in frontier:
            for u in topo.neighbours(v):
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def _remap_history(
    hist: _SessionHistory,
    result: RunResult,
    node_map: Sequence[Optional[int]],
    new_n: int,
    model: str,
    metering: Any,
) -> None:
    """Relabel history and standing result after vertex churn (O(n)).

    ``remove_vertex`` renumbering is order-preserving, so a surviving
    node's canonical ports — and therefore its recorded port rows —
    stay valid under its new label; columns just move.  Removed nodes'
    recorded messages are subtracted from the per-round totals and
    their halt entries from the histogram.  Fresh vertices get empty
    columns, a provisional halt of 0 and no quiescence round — they
    are always batch seeds, so the cone replay re-derives them from
    ``start()``.
    """
    meter = Metering.of(metering)
    count_msgs = meter.counts_messages
    meter_bits = meter.meters_bits
    port_model = model == PORT_NUMBERING
    out_cols = hist.out
    halt_counts = hist.halt_counts
    round_msgs = hist.round_msgs
    round_bits = hist.round_bits

    new_out: List[Optional[List[Any]]] = [None] * new_n
    new_st: List[Optional[List[Any]]] = [None] * new_n
    new_halt: List[float] = [0.0] * new_n
    new_quiet: List[float] = [_INF] * new_n
    new_deg: List[int] = [0] * new_n
    new_outputs: List[Any] = [None] * new_n
    new_states: List[Any] = [None] * new_n
    for old, new in enumerate(node_map):
        if new is None:
            h = hist.halt_round[old]
            c = halt_counts[h] - 1
            if c:
                halt_counts[h] = c
            else:
                del halt_counts[h]
            if count_msgs:
                d_rec = hist.deg[old]
                for t, row in enumerate(out_cols[old]):
                    cnt, bits = _row_cost(row, d_rec, port_model, meter_bits)
                    if cnt:
                        round_msgs[t] -= cnt
                        if meter_bits:
                            round_bits[t] -= bits
            continue
        new_out[new] = out_cols[old]
        new_st[new] = hist.st[old]
        new_halt[new] = hist.halt_round[old]
        new_quiet[new] = hist.quiet_round[old]
        new_deg[new] = hist.deg[old]
        new_outputs[new] = result.outputs[old]
        new_states[new] = result.states[old]
    for v in range(new_n):
        if new_out[v] is None:
            new_out[v] = []
            new_st[v] = []
            new_halt[v] = 0
            halt_counts[0] = halt_counts.get(0, 0) + 1
    hist.out = new_out
    hist.st = new_st
    hist.halt_round = new_halt
    hist.quiet_round = new_quiet
    hist.deg = new_deg
    # Splice in place: the standing RunResult keeps its identity.
    result.outputs[:] = new_outputs
    result.states[:] = new_states


def _cone_replay(
    topo: MutableTopology,
    machine: Machine,
    inputs: Optional[Sequence[Any]],
    globals_map: Optional[Mapping[str, Any]],
    max_rounds: int,
    metering: Any,
    seed: Optional[int],
    hist: _SessionHistory,
    result: RunResult,
    dist: Mapping[int, int],
) -> Tuple[int, int]:
    """The light-cone warm restart (see the module docstring).

    ``dist`` maps every dirty-ball node to its BFS distance from the
    batch's touched set.  A node at distance ``d`` resumes at round
    ``d − 1`` from its recorded state (its trajectory through round
    ``d − 1`` is pure) and emits fresh rows from round ``d`` on.  A
    ball node that was already halted or quiescent by round ``d − 1``
    is skipped entirely: it is silent and ignores its inbox, so its
    recorded trajectory stands whatever its neighbours now send.  So a
    cone node at distance ``d`` still has at least ``d`` recorded rows
    and ``d − 1`` recorded states, which the resume and the splice
    read.  A cone node that turns quiescent is parked that round, as
    in the fast engine: its recorded rows from there on are retired
    and ``fast_forward`` gives its final state and halt round.  Clean
    nodes never step: their recorded emissions are read straight out
    of the history columns.  Metering is maintained as a *delta*
    against the recorded per-round totals, and the halt histogram
    re-derives the round count — both O(cone + R).

    Mutates ``hist`` and ``result`` in place (column splice) and
    implements exactly the engine semantics of
    :func:`repro.simulator.runtime.run` — halted nodes silent, a node
    halting after round ``t`` still delivers its round-``t`` messages,
    broadcast inboxes are the content-sorted neighbour payloads.  One
    step loop serves both models; the inbox reader, called once per
    round, is the only model-specific part.  It shares the node contexts with the engine
    (``_node_context``) but not the engine's round loop: the engine
    pushes each round's messages into its receivers' inboxes, while
    the replay pulls a cone node's inbox from a mix of fresh and
    recorded rows, and keeps its cone state in dicts.  The incremental
    ≡ scratch differential suites are the drift alarm.

    Returns ``(cone_size, node_rounds)`` — nodes re-executed and the
    total (node, round) step count, the light cone's area.
    """
    meter = Metering.of(metering)
    count_msgs = meter.counts_messages
    meter_bits = meter.meters_bits
    port_model = machine.model == PORT_NUMBERING
    out_cols = hist.out
    st_cols = hist.st
    halt_round = hist.halt_round
    quiet_round = hist.quiet_round
    rec_deg = hist.deg
    round_msgs = hist.round_msgs
    round_bits = hist.round_bits
    halt_counts = hist.halt_counts

    # -- the cone: ball nodes still active when the wavefront arrives.
    cone: Dict[int, int] = {}
    by_activation: Dict[int, List[int]] = {}
    max_act = -1
    for v, d in dist.items():
        a = d - 1 if d else 0
        if d and (halt_round[v] <= a or quiet_round[v] <= a):
            continue  # deaf to the perturbation before it could reach v
        cone[v] = d
        by_activation.setdefault(a, []).append(v)
        if a > max_act:
            max_act = a

    g = dict(globals_map or {})
    ctxs: Dict[int, LocalContext] = {
        v: _node_context(v, topo.degree(v), inputs, g, seed) for v in cone
    }

    emit = machine.emit
    step = machine.step
    halted_fn = machine.halted
    quiescent_fn = getattr(machine, "quiescent", None)
    start = machine.start
    output_fn = machine.output

    def old_row(u: int, t: int) -> Any:
        rows = out_cols[u]
        return rows[t] if t < len(rows) else None

    def sent_row(u: int, t: int) -> Any:
        """``u``'s round-``t`` emission in the new run: fresh once the
        wavefront has reached ``u``, the recording otherwise."""
        if u in cone and cone[u] <= t:
            return cur_rows.get(u)
        return old_row(u, t)

    def port_inboxes(live: List[int], t: int) -> List[List[Any]]:
        inboxes = []
        for v in live:
            inbox = []
            for (u, q) in topo.ports(v):
                row = sent_row(u, t)
                inbox.append(None if row is None else row[q])
            inboxes.append(inbox)
        return inboxes

    def broadcast_inboxes(live: List[int], t: int) -> List[tuple]:
        payloads: Dict[int, Any] = {}
        keys: Dict[int, Any] = {}

        def key_of(u: int) -> Any:
            if u not in keys:
                payloads[u] = p = sent_row(u, t)
                keys[u] = canonical_key(p)
            return keys[u]

        # Content-sorted multisets of neighbour payloads; the stable
        # sort over the canonical neighbour order equals the engine's
        # sender-anonymous inbox.
        return [
            tuple(payloads[u] for u in sorted(topo.neighbours(v), key=key_of))
            for v in live
        ]

    # The round's inboxes, one per live cone node, in order.
    read_inboxes = port_inboxes if port_model else broadcast_inboxes

    def bump(t: int, dm: int, db: int) -> None:
        while len(round_msgs) <= t:
            round_msgs.append(0)
        round_msgs[t] += dm
        if meter_bits:
            while len(round_bits) <= t:
                round_bits.append(0)
            round_bits[t] += db

    def retire_old_rows(v: int, start_t: int) -> None:
        """The new run halts or parks ``v`` at ``start_t``; its
        recorded emissions from that round on no longer happen."""
        if not count_msgs:
            return
        rows = out_cols[v]
        deg = rec_deg[v]
        for t in range(start_t, len(rows)):
            c, b = _row_cost(rows[t], deg, port_model, meter_bits)
            if c or b:
                bump(t, -c, -b)

    fresh_out: Dict[int, List[Any]] = {}
    fresh_st: Dict[int, List[Any]] = {}
    new_halt: Dict[int, float] = {}
    new_quiet: Dict[int, float] = {}
    states: Dict[int, Any] = {}
    for v in cone:
        fresh_out[v] = []
        fresh_st[v] = []

    def settle(v: int, t: int) -> bool:
        """Whether ``v``, in ``states[v]`` at the start of round ``t``,
        stays live.  A halting node leaves the loop; so does a
        quiescent one, parked and fast-forwarded to its final state."""
        ctx = ctxs[v]
        st = states[v]
        if halted_fn(ctx, st):
            new_halt[v] = t
        elif quiescent_fn is not None and quiescent_fn(ctx, st):
            new_quiet[v] = t
            st, used = machine.fast_forward(ctx, st, max_rounds - t)
            states[v] = st
            if halted_fn(ctx, st):
                new_halt[v] = t + used
        else:
            return True
        retire_old_rows(v, t)
        return False

    live: List[int] = []
    node_rounds = 0
    t = 0
    cur_rows: Dict[int, Any] = {}
    while (live or t <= max_act) and t < max_rounds:
        # -- activations: nodes whose light cone opens this round.
        for v in by_activation.get(t, ()):
            d = cone[v]
            if d == 0:
                states[v] = start(ctxs[v])
                if settle(v, 0):
                    live.append(v)
            else:
                # Purity: v's trajectory through round d − 1 matches
                # the recording, so resume from the recorded state
                # (live and not quiescent here — those were pruned).
                states[v] = st_cols[v][d - 2] if d >= 2 else start(ctxs[v])
                live.append(v)

        # -- fresh emissions: cone nodes the wavefront has reached.
        # A node at distance t + 1 is activated (it must step this
        # round) but its round-t emission still matches the recording.
        cur_rows.clear()
        for v in live:
            if cone[v] > t:
                continue
            out = emit(ctxs[v], states[v])
            if port_model and out is not None:
                deg = ctxs[v].degree
                if type(out) is not list and type(out) is not tuple:
                    out = list(out)
                if len(out) != deg:
                    raise _bad_arity(deg, len(out))
                out = _port_row(out)
            cur_rows[v] = out
            fresh_out[v].append(out)
            if count_msgs:
                oc, ob = _row_cost(old_row(v, t), rec_deg[v], port_model, meter_bits)
                nc, nb = _row_cost(out, ctxs[v].degree, port_model, meter_bits)
                if nc != oc or nb != ob:
                    bump(t, nc - oc, nb - ob)

        # -- deliver and step the live cone.
        node_rounds += len(live)
        next_live: List[int] = []
        for v, inbox in zip(live, read_inboxes(live, t)):
            st = step(ctxs[v], states[v], inbox)
            states[v] = st
            if settle(v, t + 1):
                fresh_st[v].append(st)
                next_live.append(v)
        live = next_live
        t += 1

    # -- halt histogram: move every cone node old -> new.
    for v in cone:
        old_h = halt_round[v]
        c = halt_counts[old_h] - 1
        if c:
            halt_counts[old_h] = c
        else:
            del halt_counts[old_h]
        h = new_halt.get(v, _INF)
        halt_counts[h] = halt_counts.get(h, 0) + 1
        halt_round[v] = h
        quiet_round[v] = new_quiet.get(v, _INF)

    # -- round count: largest halt round, or the cap if any node ran
    # into it (exactly the engine's loop condition).
    if _INF in halt_counts:
        rounds_new = max_rounds
        all_halted = False
    else:
        rounds_new = int(max(halt_counts)) if halt_counts else 0
        all_halted = True
    while len(round_msgs) < rounds_new:
        round_msgs.append(0)
    del round_msgs[rounds_new:]
    if meter_bits:
        while len(round_bits) < rounds_new:
            round_bits.append(0)
        del round_bits[rounds_new:]

    # -- splice the repaired columns and scalars in place.
    outputs = result.outputs
    final_states = result.states
    for v, d in cone.items():
        st = states[v]
        final_states[v] = st
        outputs[v] = output_fn(ctxs[v], st)
        keep = d - 1 if d else 0
        out_cols[v] = out_cols[v][:d] + fresh_out[v]
        st_cols[v] = st_cols[v][:keep] + fresh_st[v]
        rec_deg[v] = ctxs[v].degree
    hist.rounds = rounds_new
    result.rounds = rounds_new
    result.all_halted = all_halted
    if count_msgs:
        result.messages_sent = sum(round_msgs)
    if meter_bits:
        result.message_bits = sum(round_bits)
        result.per_round_bits = list(round_bits)
    return len(cone), node_rounds


# ----------------------------------------------------------------------
# Session bookkeeping
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchStats:
    """Per-batch repair accounting (returned by :meth:`DynamicRun.apply`).

    ``repaired_nodes`` counts the nodes re-executed: ``n`` for scratch
    mode and full solves, otherwise the light cone's nodes — the dirty
    ball minus the nodes already halted or quiescent when the
    wavefront reaches them.  ``cone_node_rounds`` is the light cone's
    area — (node, round) step executions the warm restart actually
    performed, each node cut off where it halts or parks (0 for
    scratch mode and full-solve fallbacks).  ``wall_ms`` is the
    batch's wall-clock latency; it is excluded from equality so
    differential suites can compare stats lists across sessions.
    """

    batch: int
    mode: str
    n_edits: int
    n: int
    m: int
    dirty_seeds: int
    repaired_nodes: int
    rounds: int
    cone_node_rounds: int = 0
    wall_ms: float = field(default=0.0, compare=False)

    @property
    def repaired_fraction(self) -> float:
        """Fraction of nodes re-executed this batch (1.0 for scratch)."""
        return self.repaired_nodes / self.n if self.n else 0.0


@dataclass(frozen=True)
class CoverView:
    """A flow-independent view of the session's current cover."""

    cover: frozenset
    cover_weight: int
    packing_value: Fraction
    approx_factor: int
    covered: bool

    @property
    def certificate_ratio(self) -> Fraction:
        if self.packing_value == 0:
            return Fraction(0) if self.cover_weight == 0 else Fraction(1)
        return Fraction(self.cover_weight) / (
            self.approx_factor * self.packing_value
        )


class DynamicRun:
    """A standing cover on a graph under churn (see module docstring).

    Use the flow constructors :meth:`vertex_cover` (Section 3 port
    model or Section 5 broadcast model) and :meth:`set_cover`
    (Section 4 on the bipartite layout); the generic ``__init__``
    accepts any deterministic fixed-horizon machine.
    """

    def __init__(
        self,
        graph: PortNumberedGraph,
        inputs: Sequence[Any],
        machine: Machine,
        globals_map: Mapping[str, Any],
        max_rounds: int,
        *,
        mode: str = "incremental",
        metering: Any = "bits",
        seed: Optional[int] = None,
        flow: str = "custom",
        validate: Optional[Callable[[PortNumberedGraph, Sequence[Any]], None]] = None,
        allowed_edit_kinds: Optional[Tuple[str, ...]] = None,
    ):
        self.mode = validate_dynamic_mode(mode)
        self.flow = flow
        self._machine = machine
        self._globals = dict(globals_map)
        self._max_rounds = max_rounds
        self._metering = metering
        self._seed = seed
        self._validate = validate
        self._allowed_edit_kinds = allowed_edit_kinds
        # Edits are defined on the edge set; normalise to the canonical
        # port numbering so splicing across batches is well defined.
        graph = PortNumberedGraph.from_edges(graph.n, graph.edges)
        inputs = list(inputs)
        if validate is not None:
            validate(graph, inputs)
        if self.mode == "incremental":
            self._topo: Optional[MutableTopology] = MutableTopology.from_graph(
                graph
            )
            self._graph = None
        else:
            self._topo = None
            self._graph = graph
        self._inputs = inputs
        self._generation = 0
        self._batches = 0
        self._view_cache: Optional[Tuple[int, CoverView]] = None
        self.stats: List[BatchStats] = []
        # The recorded history of the standing result (incremental
        # sessions only): the next batch's warm restart replays from it.
        self._history: Optional[_SessionHistory] = None
        self._solve_full()

    # -- public state ---------------------------------------------------

    @property
    def graph(self) -> PortNumberedGraph:
        """The current canonical graph.

        Incremental sessions materialise it from the mutable overlay
        (cached until the next committed batch); scratch sessions hold
        it directly.
        """
        if self._topo is not None:
            return self._topo.materialise()
        return self._graph

    @property
    def inputs(self) -> List[Any]:
        return list(self._inputs)

    @property
    def result(self) -> RunResult:
        """The standing run result for the current graph.

        Incremental repairs splice into this object in place — it is a
        live view of the session, not a per-batch value.
        """
        return self._result

    @property
    def batches_applied(self) -> int:
        return self._batches

    @property
    def pinned_globals(self) -> Dict[str, Any]:
        """The session's pinned global bounds (a copy)."""
        return dict(self._globals)

    @property
    def metering(self) -> Any:
        """The metering mode pinned at construction (or restore)."""
        return self._metering

    # -- solving --------------------------------------------------------

    def _run_kwargs(self) -> Dict[str, Any]:
        return dict(
            inputs=list(self._inputs),
            globals_map=self._globals,
            max_rounds=self._max_rounds,
            metering=self._metering,
            seed=self._seed,
        )

    def _solve_full(self) -> int:
        """Solve the whole current graph; returns the node count
        re-executed (always n here)."""
        graph = self.graph
        if self._topo is None:
            self._result = run(graph, self._machine, **self._run_kwargs())
        else:
            self._result, self._history = _record_run(
                graph, self._machine, **self._run_kwargs()
            )
        return graph.n

    def apply(self, edits: Sequence[GraphEdit]) -> BatchStats:
        """Apply one edit batch and re-derive the cover.

        Returns the batch's repair accounting; the updated graph,
        inputs and :class:`RunResult` are available on the session.
        Raises :class:`~repro.dynamic.edits.EditError` (invalid edit)
        or :class:`ValueError` (pinned global bound exceeded) with no
        change to the session.
        """
        t0 = obs.clock()
        edits = list(edits)
        if self._allowed_edit_kinds is not None:
            for e in edits:
                if e.kind not in self._allowed_edit_kinds:
                    raise EditError(
                        f"edit kind {e.kind!r} is not supported by the "
                        f"{self.flow!r} flow (allowed: "
                        f"{self._allowed_edit_kinds})"
                    )
        if self._topo is None:
            return self._apply_scratch(edits, t0)
        return self._apply_overlay(edits, t0)

    def _apply_scratch(self, edits: List[GraphEdit], t0: float) -> BatchStats:
        batch = apply_edits(
            self._graph.n, self._graph.edges, self._inputs, edits
        )
        new_graph = PortNumberedGraph.from_edges(batch.n, batch.edges)
        new_inputs = list(batch.inputs)
        if self._validate is not None:
            self._validate(new_graph, new_inputs)

        prev_state = (self._graph, self._inputs, self._generation)
        self._graph = new_graph
        self._inputs = new_inputs
        self._generation += 1
        try:
            repaired = self._solve_full()
        except BaseException:
            # Leave the session on its last consistent state.
            self._graph, self._inputs, self._generation = prev_state
            raise
        return self._finish_batch(edits, len(batch.touched), repaired, 0, t0)

    def _apply_overlay(self, edits: List[GraphEdit], t0: float) -> BatchStats:
        topo = self._topo
        # Structural apply in O(dirty); an invalid edit raises EditError
        # with the overlay already rolled back.
        ob = topo.apply_batch(edits, self._inputs)
        try:
            self._validate_batch(ob)
        except BaseException:
            # Structurally valid but breaks a pinned session bound:
            # undo the committed batch so the session is untouched.
            topo.rollback_last(self._inputs)
            raise
        self._generation += 1
        prev_result = self._result
        try:
            repaired, cone_rounds = self._repair(ob, self._history, prev_result)
        except Exception as exc:
            # The batch is committed; a repair failure must not leave a
            # half-spliced session.  Drop the (possibly corrupt)
            # history and re-solve the committed graph outright — and
            # say so, since the result alone cannot show it.
            tr = obs.current()
            if tr is not None:
                tr.event(
                    EV_ENGINE_FALLBACK,
                    wanted="incremental",
                    reason=f"{type(exc).__name__}: {exc}",
                )
            self._history = None
            repaired = self._solve_full()
            cone_rounds = 0
        return self._finish_batch(edits, len(ob.touched), repaired, cone_rounds, t0)

    def _validate_batch(self, ob: OverlayBatch) -> None:
        if self._validate is None:
            return
        fast = getattr(self._validate, "validate_touched", None)
        if fast is not None and ob.identity:
            # O(touched): a violation of the pinned bounds can only
            # arise at a node whose degree or input the batch changed.
            fast(self._topo, self._inputs, ob.touched)
        else:
            # Vertex churn is O(n) anyway; use the reference check.
            self._validate(self._topo.materialise(), self._inputs)

    def _repair(
        self,
        ob: OverlayBatch,
        hist: Optional[_SessionHistory],
        prev_result: RunResult,
    ) -> Tuple[int, int]:
        n = self._topo.n
        if hist is None or not prev_result.all_halted:
            # No history to replay (a failed re-solve dropped it), or
            # the previous run was cut off by max_rounds (replay would
            # be unsound): full recorded solve.
            return self._solve_full(), 0
        seeds = set(ob.touched)
        if not ob.identity:
            mapped = {new for new in ob.node_map if new is not None}
            seeds.update(v for v in range(n) if v not in mapped)
        radius = prev_result.rounds
        dist = _dirty_cone(self._topo, seeds, radius)
        if len(dist) >= n:
            return self._solve_full(), 0
        if not ob.identity:
            _remap_history(
                hist, prev_result, ob.node_map, n,
                self._machine.model, self._metering,
            )
        cone, node_rounds = _cone_replay(
            self._topo,
            self._machine,
            self._inputs,
            self._globals,
            self._max_rounds,
            self._metering,
            self._seed,
            hist,
            prev_result,
            dist,
        )
        return cone, node_rounds

    def _finish_batch(
        self,
        edits: List[GraphEdit],
        dirty_seeds: int,
        repaired: int,
        cone_rounds: int,
        t0: float,
    ) -> BatchStats:
        self._batches += 1
        if self._topo is not None:
            g_n, g_m = self._topo.n, self._topo.m
        else:
            g_n, g_m = self._graph.n, self._graph.m
        stats = BatchStats(
            batch=self._batches,
            mode=self.mode,
            n_edits=len(edits),
            n=g_n,
            m=g_m,
            dirty_seeds=dirty_seeds,
            repaired_nodes=repaired,
            rounds=self._result.rounds,
            cone_node_rounds=cone_rounds,
            wall_ms=(obs.clock() - t0) * 1e3,
        )
        self.stats.append(stats)
        tr = obs.current()
        if tr is not None:
            dur_us = stats.wall_ms * 1e3
            tr.complete(
                SPAN_BATCH,
                tr.now() - dur_us,
                batch=stats.batch,
                mode=stats.mode,
                n_edits=stats.n_edits,
            )
            tr.event(
                EV_DYNAMIC_BATCH,
                mode=stats.mode,
                n_edits=stats.n_edits,
                dirty_seeds=stats.dirty_seeds,
                repaired_nodes=stats.repaired_nodes,
                cone_node_rounds=stats.cone_node_rounds,
                rounds=stats.rounds,
            )
        return stats

    # -- durability ------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialise the session into restorable bytes.

        The payload carries everything the next process needs to keep
        absorbing edit batches bit-for-bit as if never interrupted: the
        standing :class:`RunResult`, the pinned globals, the canonical
        edge set (the graph is rebuilt canonically on restore), the
        machine (with its warm memo caches — pickling them is pinned by
        ``tests/test_parallel_backends.py``) and, for incremental
        sessions, the recorded session history.  Versioned via
        :data:`SNAPSHOT_VERSION`; restored by :meth:`restore`.
        """
        if self._topo is not None:
            n, edges = self._topo.n, self._topo.edges_sorted()
        else:
            n, edges = self._graph.n, list(self._graph.edges)
        # Key order is pickle order.  The state-heavy entries go first:
        # pickle memoises each attribute name of a state object once
        # and refers back to it from every later state, with a 2-byte
        # reference while the memo holds < 256 objects and a 5-byte one
        # after.  Pickled after the edges, a §3 snapshot is ≈1.5× larger.
        payload = {
            "version": SNAPSHOT_VERSION,
            "history": self._history,
            "result": self._result,
            "flow": self.flow,
            "mode": self.mode,
            "machine": self._machine,
            "globals": dict(self._globals),
            "max_rounds": self._max_rounds,
            "metering": self._metering,
            "seed": self._seed,
            "validate": self._validate,
            "allowed_edit_kinds": self._allowed_edit_kinds,
            "n": n,
            "edges": edges,
            "inputs": list(self._inputs),
            "generation": self._generation,
            "batches": self._batches,
            "stats": list(self.stats),
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, data: bytes) -> "DynamicRun":
        """Rebuild a session from :meth:`snapshot` bytes.

        The restored session does **not** re-solve: it resumes on the
        serialised standing result (and, for incremental sessions,
        session history), so applying the remaining edit batches yields
        results bit-for-bit equal to the uninterrupted session's
        (pinned by ``tests/test_dynamic_snapshot.py``).
        """
        try:
            payload = pickle.loads(data)
        except Exception as exc:
            raise ValueError(f"unreadable DynamicRun snapshot: {exc!r}")
        if not isinstance(payload, dict) or "version" not in payload:
            raise ValueError("not a DynamicRun snapshot payload")
        version = payload["version"]
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {version!r} is not supported by this "
                f"build (expected {SNAPSHOT_VERSION}); re-snapshot from a "
                f"matching build"
            )
        session = cls.__new__(cls)
        session.mode = validate_dynamic_mode(payload["mode"])
        session.flow = payload["flow"]
        session._machine = payload["machine"]
        session._globals = dict(payload["globals"])
        session._max_rounds = payload["max_rounds"]
        session._metering = payload["metering"]
        session._seed = payload["seed"]
        session._validate = payload["validate"]
        session._allowed_edit_kinds = payload["allowed_edit_kinds"]
        if session.mode == "incremental":
            session._topo = MutableTopology(payload["n"], payload["edges"])
            session._graph = None
        else:
            session._topo = None
            session._graph = PortNumberedGraph.from_edges(
                payload["n"], payload["edges"]
            )
        session._inputs = list(payload["inputs"])
        session._generation = payload["generation"]
        session._batches = payload["batches"]
        session._view_cache = None
        session.stats = list(payload["stats"])
        session._result = payload["result"]
        session._history = payload["history"]
        return session

    # -- cover readout ---------------------------------------------------

    def cover_view(self) -> CoverView:
        """The current cover with its dual certificate (flow-aware).

        Cached per generation: the O(n + m) readout is paid once per
        batch however many of the convenience accessors below run.
        """
        cached = self._view_cache
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        view = self._build_cover_view()
        self._view_cache = (self._generation, view)
        return view

    def _build_cover_view(self) -> CoverView:
        outputs = self._result.outputs
        g = self.graph
        if self.flow == "port":
            cover = frozenset(
                v for v in g.nodes() if outputs[v]["in_cover"]
            )
            y: Dict[int, Fraction] = {}
            for v in g.nodes():
                for p in range(g.degree(v)):
                    y[g.edge_of_port(v, p)] = outputs[v]["y"][p]
            packing = sum(y.values(), Fraction(0))
            weight = sum(self._inputs[v] for v in cover)
            covered = all(u in cover or v in cover for (u, v) in g.edges)
            return CoverView(cover, weight, packing, 2, covered)
        if self.flow == "broadcast":
            cover = frozenset(
                v for v in g.nodes() if outputs[v]["in_cover"]
            )
            double_total = sum(
                (yv for v in g.nodes() for (yv, _s) in outputs[v]["incident"]),
                Fraction(0),
            )
            weight = sum(self._inputs[v] for v in cover)
            covered = all(u in cover or v in cover for (u, v) in g.edges)
            return CoverView(cover, weight, double_total / 2, 2, covered)
        if self.flow == "setcover":
            subsets = [
                v for v in g.nodes() if self._inputs[v]["role"] == "subset"
            ]
            cover = frozenset(
                v for v in subsets if outputs[v]["in_cover"]
            )
            packing = sum(
                (outputs[v]["y"] for v in g.nodes()
                 if self._inputs[v]["role"] == "element"),
                Fraction(0),
            )
            weight = sum(self._inputs[v]["weight"] for v in cover)
            covered = all(
                any(u in cover for u in g.neighbours(v))
                for v in g.nodes()
                if self._inputs[v]["role"] == "element"
            )
            return CoverView(
                cover, weight, packing, self._globals["f"], covered
            )
        raise ValueError(
            f"cover_view is not defined for the {self.flow!r} flow"
        )

    def cover(self) -> frozenset:
        return self.cover_view().cover

    def cover_weight(self) -> int:
        return self.cover_view().cover_weight

    def is_cover(self) -> bool:
        return self.cover_view().covered

    def certificate_ratio(self) -> Fraction:
        return self.cover_view().certificate_ratio

    # -- flow constructors ----------------------------------------------

    @classmethod
    def vertex_cover(
        cls,
        graph: PortNumberedGraph,
        weights: Sequence[int],
        *,
        algorithm: str = "port",
        mode: str = "incremental",
        delta: Optional[int] = None,
        W: Optional[int] = None,
        arithmetic: str = "scaled",
        replay: str = "incremental",
        metering: Any = "bits",
        seed: Optional[int] = None,
    ) -> "DynamicRun":
        """A dynamic 2-approximate vertex-cover session.

        ``algorithm="port"`` maintains the Section 3 edge packing,
        ``"broadcast"`` the Section 5 history simulation (``replay``
        configures its machine-level history strategy — orthogonal to
        the session ``mode``).  ``delta``/``W`` are pinned **session**
        bounds (default: the initial instance's, which the paper allows
        to be any upper bounds); edits pushing a degree past ``delta``
        or a weight past ``W`` are rejected.
        """
        from repro.core.broadcast_vc import (
            BroadcastVertexCoverMachine,
            bvc_round_count,
        )
        from repro.core.edge_packing import EdgePackingMachine, schedule_length
        from repro.graphs.weights import max_weight

        weights = [int(w) for w in weights]
        if delta is None:
            delta = graph.max_degree
        if W is None:
            W = max_weight(tuple(weights))
        if algorithm == "port":
            machine: Machine = EdgePackingMachine(arithmetic=arithmetic)
            max_rounds = schedule_length(delta, W)
            flow = "port"
        elif algorithm == "broadcast":
            machine = BroadcastVertexCoverMachine(
                arithmetic=arithmetic, replay=replay
            )
            max_rounds = bvc_round_count(delta, W)
            flow = "broadcast"
        else:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected 'port' or 'broadcast'"
            )

        return cls(
            graph,
            weights,
            machine,
            {"delta": delta, "W": W},
            max_rounds,
            mode=mode,
            metering=metering,
            seed=seed,
            flow=flow,
            validate=_VertexCoverValidator(delta, W),
        )

    @classmethod
    def set_cover(
        cls,
        instance: Any,
        *,
        mode: str = "incremental",
        arithmetic: str = "scaled",
        metering: Any = "bits",
        seed: Optional[int] = None,
    ) -> "DynamicRun":
        """A dynamic f-approximate set-cover session on the bipartite
        layout of ``instance`` (a :class:`repro.graphs.setcover.
        SetCoverInstance`).

        Supported edits: membership churn (``add_edge``/``remove_edge``
        between a subset node and an element node) and subset
        ``reweight`` (input ``{"role": "subset", "weight": w}``).
        ``f``/``k``/``W`` are pinned from the instance; edits exceeding
        them, orphaning an element, or breaking bipartiteness are
        rejected.
        """
        from repro.core.fractional_packing import (
            FractionalPackingMachine,
            fp_schedule_length,
        )

        f, k, W = instance.f, instance.k, instance.W
        graph = instance.to_bipartite_graph()
        inputs = instance.node_inputs()

        return cls(
            graph,
            inputs,
            FractionalPackingMachine(arithmetic=arithmetic),
            instance.global_params(),
            fp_schedule_length(f, k, W),
            mode=mode,
            metering=metering,
            seed=seed,
            flow="setcover",
            validate=_SetCoverValidator(f, k, W),
            allowed_edit_kinds=("add_edge", "remove_edge", "reweight"),
        )


class _VertexCoverValidator:
    """The vertex-cover flows' per-batch instance check.

    A class, not a closure over ``delta``/``W``: sessions pickle their
    validator into snapshots, and closures do not pickle.
    """

    def __init__(self, delta: int, W: int):
        self.delta = delta
        self.W = W

    def __call__(self, g: PortNumberedGraph, inputs: Sequence[Any]) -> None:
        validate_weights(inputs, g.n, self.W)
        if g.max_degree > self.delta:
            raise ValueError(
                f"edit pushes max degree to {g.max_degree}, past the "
                f"session bound delta={self.delta}"
            )

    def validate_touched(
        self,
        topo: MutableTopology,
        inputs: Sequence[Any],
        touched: Sequence[int],
    ) -> None:
        """O(touched) equivalent of the full check for edge-only
        batches: untouched nodes keep their degree and weight, and the
        pre-batch state satisfied the bounds, so a violation can only
        sit at a touched node (whose degree is then the global max)."""
        W = self.W
        for v in sorted(touched):
            w = inputs[v]
            if isinstance(w, bool) or not isinstance(w, int):
                raise TypeError(
                    f"weight of node {v} must be an int, got {type(w).__name__}"
                )
            if not (1 <= w <= W):
                raise ValueError(f"weight of node {v} is {w}, outside 1..{W}")
        deg = topo.max_degree_of(touched)
        if deg > self.delta:
            raise ValueError(
                f"edit pushes max degree to {deg}, past the "
                f"session bound delta={self.delta}"
            )


class _SetCoverValidator:
    """The set-cover flow's per-batch instance check (picklable; see
    :class:`_VertexCoverValidator`)."""

    def __init__(self, f: int, k: int, W: int):
        self.f = f
        self.k = k
        self.W = W

    def _check_node(self, v: int, inp: Any, degree: int) -> None:
        f, k, W = self.f, self.k, self.W
        if not isinstance(inp, Mapping) or "role" not in inp:
            raise ValueError(
                f"node {v}: set-cover inputs must be role dicts"
            )
        if inp["role"] == "subset":
            w = inp.get("weight")
            if not isinstance(w, int) or isinstance(w, bool) or not (
                1 <= w <= W
            ):
                raise ValueError(
                    f"subset node {v}: weight {w!r} outside 1..{W}"
                )
            if degree > k:
                raise ValueError(
                    f"subset node {v}: size {degree} exceeds k={k}"
                )
        elif inp["role"] == "element":
            if degree < 1:
                raise ValueError(
                    f"edit orphans element node {v} (infeasible cover)"
                )
            if degree > f:
                raise ValueError(
                    f"element node {v}: frequency {degree} "
                    f"exceeds f={f}"
                )
        else:
            raise ValueError(f"node {v}: unknown role {inp['role']!r}")

    def __call__(
        self, g: PortNumberedGraph, node_inputs: Sequence[Any]
    ) -> None:
        for v in g.nodes():
            self._check_node(v, node_inputs[v], g.degree(v))
        for (a, b) in g.edges:
            if node_inputs[a]["role"] == node_inputs[b]["role"]:
                raise ValueError(
                    f"edge ({a}, {b}) joins two {node_inputs[a]['role']} "
                    f"nodes — the layout must stay bipartite"
                )

    def validate_touched(
        self,
        topo: MutableTopology,
        node_inputs: Sequence[Any],
        touched: Sequence[int],
    ) -> None:
        """O(touched · deg): role, weight, size/frequency and
        bipartiteness can only break at a node the batch touched (an
        added edge touches both endpoints; a reweight can only flip
        the role of the reweighted node)."""
        for v in sorted(touched):
            self._check_node(v, node_inputs[v], topo.degree(v))
        for v in sorted(touched):
            role = node_inputs[v]["role"]
            for u in topo.neighbours(v):
                if node_inputs[u]["role"] == role:
                    a, b = (v, u) if v < u else (u, v)
                    raise ValueError(
                        f"edge ({a}, {b}) joins two {role} "
                        f"nodes — the layout must stay bipartite"
                    )
