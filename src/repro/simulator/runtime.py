"""Synchronous execution of machines over a port-numbered graph.

The runtime is the only component that sees node identifiers; machines
receive exactly the local information the model permits.  Rounds are
counted by the runtime (never self-reported by machines), and message
counts / structural bit sizes are metered — when the chosen
:class:`Metering` policy asks for it — for the message-complexity
experiments of Section 5.

Two engines implement the same semantics:

* :func:`run` — the fast engine: one round loop for both models
  (fault hooks, stepping, halting, quiescence parking, the observer,
  round spans) whose only model-specific part is a delivery strategy —
  :class:`_PortWires` scatters port rows through the CSR targets into
  preallocated, reused inboxes; :class:`_BroadcastWires` hands each
  node its neighbours' payloads sorted by canonical key.  Halted and
  parked nodes are skipped entirely.  Under ``engine="columnar"`` an
  optional prefix runs a machine's leading rounds as whole-array
  passes and the loop resumes at its round count.
* :func:`run_reference` — the executable specification: a plain
  per-node, per-round loop with fresh allocations and no caches.
  ``tests/test_runtime_equivalence.py`` proves the two produce
  identical :class:`RunResult` fields on randomised instances.

**Model semantics (both engines).**  A node that has halted is silent:
the runtime neither calls its ``emit`` hook nor delivers anything on
its behalf — its neighbours see ``None`` on the corresponding ports
(port-numbering model) or a ``None`` entry in their multiset
(broadcast model).  Silence costs no messages and no bits.  A halted
node's state is frozen (``step`` is never called) until a fault
adversary corrupts it back into a non-halted state, after which it
participates again.  Machine hooks must be pure; in particular the
fast engine re-evaluates ``halted`` only when a node's state *object*
changes, which is only correct for pure hooks and for adversaries
that replace corrupted entries rather than mutating state objects in
place (see :class:`repro.simulator.faults.FaultAdversary`).
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro._util.ordering import canonical_key
from repro._util.parallel import map_jobs
from repro._util.sizes import message_size_bits
from repro.obs import (
    EV_ENGINE_FALLBACK,
    EV_ENGINE_SELECTED,
    SPAN_PHASE,
    SPAN_ROUND,
    SPAN_RUN,
)
from repro.graphs.topology import PortNumberedGraph
from repro.simulator.machine import (
    BROADCAST,
    PORT_NUMBERING,
    LocalContext,
    Machine,
)
from repro.simulator import state_layout

__all__ = [
    "ENGINES",
    "MaxRoundsExceeded",
    "Metering",
    "RunResult",
    "run",
    "run_reference",
    "run_many",
    "sweep",
    "run_port_numbering",
    "run_broadcast",
    "run_on_setcover",
]

Observer = Callable[[int, List[Any], List[Any]], None]

#: Accepted ``engine=`` values for :func:`run`.  ``"object"`` is the
#: per-node fast engine; ``"columnar"`` runs machines that opt in via
#: the columnar protocol (see :mod:`repro.simulator.state_layout`) as
#: whole-array passes, falling back to ``"object"`` automatically for
#: runs that do not qualify.  Results are bit-for-bit identical.
ENGINES = ("object", "columnar")

#: Accepted ``on_max_rounds=`` values for :func:`run` /
#: :func:`run_reference`: ``"return"`` keeps the historical behaviour
#: (a partial RunResult with ``all_halted=False``); ``"raise"`` fails
#: loudly with the round count and the non-halted node ids.
ON_MAX_ROUNDS = ("return", "raise")


class MaxRoundsExceeded(RuntimeError):
    """A run hit ``max_rounds`` with nodes still not halted.

    Carries the executed ``rounds`` and the ``non_halted`` node ids so
    callers can diagnose which part of the network stalled.  Raised by
    :func:`run`/:func:`run_reference` under ``on_max_rounds="raise"``
    and by the one-shot algorithm APIs (which always want a loud
    failure); subclasses :class:`RuntimeError` so pre-existing callers
    that caught that keep working.
    """

    def __init__(self, rounds: int, non_halted: Sequence[int],
                 detail: str = "") -> None:
        self.rounds = rounds
        self.non_halted = list(non_halted)
        shown = ", ".join(map(str, self.non_halted[:16]))
        if len(self.non_halted) > 16:
            shown += f", ... ({len(self.non_halted)} total)"
        message = (
            f"run hit max_rounds={rounds} with {len(self.non_halted)} "
            f"node(s) still not halted: [{shown}]"
        )
        if detail:
            message += f"; {detail}"
        super().__init__(message)

_NONE_KEY = canonical_key(None)

# Shared empty crash set: rounds without a crash adversary pay one
# identity check, not a frozenset construction.
_EMPTY_SET: frozenset = frozenset()


@dataclass(frozen=True)
class Metering:
    """Opt-in metering policy for a run.

    Modes
    -----
    ``"bits"`` (default)
        count every non-``None`` message and meter its structural size
        via :func:`repro._util.sizes.message_size_bits`; fills
        ``messages_sent``, ``message_bits`` and ``per_round_bits``.
    ``"counts"``
        count messages only; ``message_bits`` is 0 and
        ``per_round_bits`` empty.  Skips the (comparatively expensive)
        size recursion.
    ``"none"``
        no metering at all; all three fields are zero/empty.  This is
        the fastest mode — use it for large-instance perf runs where
        only outputs and round counts matter.

    Anywhere a run accepts ``metering=``, a mode string, a ``Metering``
    instance, or ``None`` (meaning ``"none"``) is accepted.
    """

    NONE = "none"
    COUNTS = "counts"
    BITS = "bits"

    mode: str = BITS

    def __post_init__(self) -> None:
        if self.mode not in (self.NONE, self.COUNTS, self.BITS):
            raise ValueError(
                f"unknown metering mode {self.mode!r}; "
                f"expected 'none', 'counts' or 'bits'"
            )

    @classmethod
    def of(cls, spec: Union["Metering", str, None]) -> "Metering":
        """Coerce a run's ``metering=`` argument to a policy."""
        if spec is None:
            return cls(cls.NONE)
        if isinstance(spec, cls):
            return spec
        return cls(spec)

    @property
    def counts_messages(self) -> bool:
        return self.mode != self.NONE

    @property
    def meters_bits(self) -> bool:
        return self.mode == self.BITS


@dataclass
class RunResult:
    """Outcome of a synchronous execution.

    Attributes
    ----------
    outputs:
        per-node outputs (indexed by runtime node id).
    rounds:
        number of synchronous communication rounds executed.
    all_halted:
        whether every node halted (vs. hitting ``max_rounds``).
    messages_sent:
        total count of non-``None`` messages placed on links (0 when
        metering mode is ``"none"``).
    message_bits:
        total structural size of those messages (see
        :func:`repro._util.sizes.message_size_bits`); 0 unless the
        metering mode is ``"bits"``.
    per_round_bits:
        message bits per round, for growth curves; empty unless the
        metering mode is ``"bits"``.
    states:
        final per-node states (useful for analysis/tests; not part of
        the distributed output).
    """

    outputs: List[Any]
    rounds: int
    all_halted: bool
    messages_sent: int
    message_bits: int
    per_round_bits: List[int]
    states: List[Any]

    @property
    def max_round_bits(self) -> int:
        return max(self.per_round_bits, default=0)


def _node_context(
    v: int,
    degree: int,
    inputs: Optional[Sequence[Any]],
    g: Mapping[str, Any],
    seed: Optional[int],
) -> LocalContext:
    """Node ``v``'s local view: its degree, its input, the shared
    globals and, for seeded runs, its private random stream."""
    return LocalContext(
        degree=degree,
        input=None if inputs is None else inputs[v],
        globals=g,
        rng=random.Random(f"node-rng:{seed}:{v}") if seed is not None else None,
    )


def _make_contexts(
    graph: PortNumberedGraph,
    inputs: Optional[Sequence[Any]],
    globals_map: Optional[Mapping[str, Any]],
    seed: Optional[int],
) -> List[LocalContext]:
    if inputs is not None and len(inputs) != graph.n:
        raise ValueError(f"expected {graph.n} inputs, got {len(inputs)}")
    g = dict(globals_map or {})
    return [
        _node_context(v, graph.degree(v), inputs, g, seed)
        for v in graph.nodes()
    ]


def _bad_arity(degree: int, emitted: int) -> ValueError:
    return ValueError(
        f"node of degree {degree} emitted "
        f"{emitted} messages (port-numbering model needs one per port)"
    )


def run(
    graph: PortNumberedGraph,
    machine: Machine,
    inputs: Optional[Sequence[Any]] = None,
    globals_map: Optional[Mapping[str, Any]] = None,
    max_rounds: int = 10_000,
    seed: Optional[int] = None,
    observer: Optional[Observer] = None,
    fault_adversary: Optional[Any] = None,
    metering: Union[Metering, str, None] = Metering.BITS,
    replay: Optional[str] = None,
    engine: str = "object",
    on_max_rounds: str = "return",
) -> RunResult:
    """Run ``machine`` on every node of ``graph`` until all halt.

    Dispatches on ``machine.model``.  ``observer(round, states,
    outboxes)`` is called after each round for tracing (a halted node's
    outbox entry is ``None``).  A ``fault_adversary`` (see
    :mod:`repro.simulator.faults`) may corrupt states *between* rounds
    — used by the self-stabilisation experiments.  ``metering``
    selects what is measured (see :class:`Metering`).  ``replay``
    (``"incremental"`` / ``"scratch"``, default ``None`` = keep the
    machine's own configuration) reconfigures replay-aware machines —
    the Section 5 history machine, the self-stabilising transformer —
    via :meth:`repro.simulator.machine.Machine.with_replay`; machines
    without replay semantics accept and ignore it.  Results are
    bit-for-bit identical across replay modes.

    ``engine`` selects the execution substrate (see :data:`ENGINES`):
    ``"columnar"`` runs the leading rounds of machines that implement
    the columnar protocol (:mod:`repro.simulator.state_layout`) as
    vectorised whole-array passes, then hands the remainder to the
    object engine.  Runs that do not qualify — machine opted out, no
    numpy, observer/adversary attached, empty graph, a configuration
    the machine's kernels do not cover — fall back to ``"object"``
    automatically.  Results
    are bit-for-bit identical across engines
    (``tests/test_columnar_engine.py``).

    ``on_max_rounds`` controls what happens when ``max_rounds`` runs
    out with nodes still live: ``"return"`` (default, the historical
    behaviour — the self-stabilisation and dynamic workloads run to a
    round budget on purpose) returns the partial result with
    ``all_halted=False``; ``"raise"`` raises :class:`MaxRoundsExceeded`
    with the round count and the non-halted node ids.

    Semantics: **halted nodes emit nothing** — their ``emit`` hook is
    not called and their neighbours read ``None``/silence on the shared
    links; halted-node messages are never counted or metered.  A halted
    node rejoins only if a fault adversary corrupts its state into a
    non-halted one.

    This is the fast engine.  Port-numbering inboxes are preallocated
    buffers *reused across rounds*: a machine that wants to retain its
    inbox beyond the current ``step`` call must copy it (pure machines
    already do; ``tests/test_columnar_engine.py`` keeps a tripwire on
    the trap).  The columnar path hands kernels read-only inbox
    columns instead, so the aliasing bug cannot recur there.
    :func:`run_reference` is the allocation-per-round executable
    specification with identical observable behaviour.

    The cyclic garbage collector is paused for the call and restored on
    exit; no collection is forced (see docs/performance.md).

    Dynamic sessions (:mod:`repro.dynamic.session`) run this same loop
    twice over: a recorded solve is this call with a :class:`_Tape`
    (:func:`_run_recorded`), and a light-cone repair re-runs the cone's
    nodes from ``start`` on the loop, fed by its rim's recorded rows
    (:func:`_run_cone`).
    """
    return _run(
        graph, machine, inputs, globals_map, max_rounds, seed, observer,
        fault_adversary, metering, replay, engine, on_max_rounds, None,
    )


def _run(
    graph: PortNumberedGraph,
    machine: Machine,
    inputs: Optional[Sequence[Any]],
    globals_map: Optional[Mapping[str, Any]],
    max_rounds: int,
    seed: Optional[int],
    observer: Optional[Observer],
    fault_adversary: Optional[Any],
    metering: Union[Metering, str, None],
    replay: Optional[str],
    engine: str,
    on_max_rounds: str,
    tape: Optional["_Tape"],
) -> RunResult:
    """:func:`run`'s body; a ``tape`` records the run (object engine
    only, no observer or adversary)."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if on_max_rounds not in ON_MAX_ROUNDS:
        raise ValueError(
            f"on_max_rounds must be one of {ON_MAX_ROUNDS}, "
            f"got {on_max_rounds!r}"
        )
    # A run allocates a fresh state per live node per round but creates
    # no reference cycles (apart from the Section 5 history tables), so
    # the collections those allocations trigger free nothing.  A
    # collection forced at exit would trace the caller's live results
    # instead, so none is.  A caller that disabled the collector keeps
    # it disabled, and nested runs change nothing.
    collector_was_enabled = gc.isenabled()
    gc.disable()
    try:
        meter = Metering.of(metering)
        if replay is not None:
            machine = machine.with_replay(replay)
        wires_cls = _WIRES.get(machine.model)
        if wires_cls is None:
            raise ValueError(f"unknown model {machine.model!r}")

        tr = obs.current()
        run_t0 = tr.now() if tr is not None else 0.0
        engine_used = "object"
        ctxs = _make_contexts(graph, inputs, globals_map, seed)
        prefix = None
        if (
            engine == "columnar"
            and machine.model == PORT_NUMBERING
            and observer is None
            and fault_adversary is None
        ):
            prefix = _columnar_prefix(graph, machine, ctxs, max_rounds, meter)
            if prefix is not None:
                engine_used = "columnar"
        elif engine == "columnar":
            _columnar_fallback(
                "columnar engine needs the port-numbering model "
                "with no observer or fault adversary"
            )
        if prefix is None:
            prefix = ([machine.start(ctx) for ctx in ctxs], 0, 0, [])
        result = _run_fast(
            graph, machine, ctxs, wires_cls, *prefix,
            max_rounds, observer, fault_adversary, meter, tape,
        )
        if tr is not None:
            tr.event(
                EV_ENGINE_SELECTED,
                engine=engine_used, n=graph.n, rounds=result.rounds,
            )
            tr.complete(SPAN_RUN, run_t0, engine=engine_used, n=graph.n)
        if not result.all_halted and on_max_rounds == "raise":
            raise MaxRoundsExceeded(
                rounds=result.rounds,
                non_halted=[
                    v for v in graph.nodes()
                    if not machine.halted(ctxs[v], result.states[v])
                ],
            )
        return result
    finally:
        if collector_was_enabled:
            gc.enable()


def _columnar_prefix(
    graph: PortNumberedGraph,
    machine: Machine,
    ctxs: List[LocalContext],
    max_rounds: int,
    meter: Metering,
) -> Optional[Tuple[List[Any], int, int, List[int]]]:
    """The columnar engine's leading rounds, or ``None`` when this run
    cannot engage it.

    Runs the machine's declared leading rounds as whole-array passes
    over a :class:`~repro.simulator.state_layout.StateLayout` and
    materialises per-node states; :func:`_run_fast` resumes from them
    at the returned round count.  Returns ``(states, rounds,
    messages_sent, per_round_bits)``.  A round's emission holds one
    value per half-edge, and delivery is the single gather
    ``values[layout.reverse]``; the gathered inbox columns are handed
    to kernels *read-only* — the columnar counterpart of the object
    engine's reused-buffer trap, made impossible rather than
    documented.
    """
    if not state_layout.HAVE_NUMPY:
        _columnar_fallback("numpy is unavailable")
        return None
    if graph.n == 0 or graph.m == 0:
        _columnar_fallback("graph has no nodes or no edges")
        return None
    plan = machine.columnar_fields(graph, ctxs)
    if plan is None:
        _columnar_fallback("machine declares no columnar plan")
        return None
    if plan.rounds <= 0:
        _columnar_fallback("columnar plan covers no rounds")
        return None
    if plan.rounds > max_rounds:
        _columnar_fallback(
            f"columnar plan needs {plan.rounds} rounds, "
            f"max_rounds is {max_rounds}"
        )
        return None
    np = state_layout.np
    layout = state_layout.StateLayout(graph)
    for field in plan.node_fields:
        layout.add_node_field(*field)
    for field in plan.edge_fields:
        layout.add_edge_field(*field)
    machine.start_columnar(layout, ctxs)

    reverse = layout.reverse
    count_msgs = meter.counts_messages
    meter_bits = meter.meters_bits
    messages_sent = 0
    per_round_bits: List[int] = []
    tr = obs.current()
    phase_t0 = tr.now() if tr is not None else 0.0
    for r in range(plan.rounds):
        values, sending, decode = machine.emit_columnar(layout, r)
        if layout.halted.any():
            sending = sending & ~layout.halted[layout.edge_owner]
        if count_msgs:
            messages_sent += int(np.count_nonzero(sending))
            if meter_bits:
                uniq, counts = np.unique(values[sending], return_counts=True)
                per_round_bits.append(sum(
                    message_size_bits(decode(u)) * c
                    for u, c in zip(uniq.tolist(), counts.tolist())
                ))
        inbox_vals = values[reverse]
        inbox_sent = sending[reverse]
        inbox_vals.flags.writeable = False
        inbox_sent.flags.writeable = False
        machine.step_columnar(layout, r, inbox_vals, inbox_sent)

    if tr is not None:
        tr.complete(
            SPAN_PHASE, phase_t0, phase="columnar rounds", rounds=plan.rounds
        )
    states = machine.finish_columnar(layout, ctxs)
    return states, plan.rounds, messages_sent, per_round_bits


def _columnar_fallback(reason: str) -> None:
    """Log why the columnar engine could not engage this run."""
    tr = obs.current()
    if tr is not None:
        tr.event(EV_ENGINE_FALLBACK, wanted="columnar", reason=reason)


class _Tape:
    """What a recorded run leaves behind per node, for a dynamic
    session's light-cone replay (:mod:`repro.dynamic.session`).
    :func:`_run_fast` fills it where it already decides:

    * ``out[v][t]`` — ``v``'s emission during round ``t``: the
      port-indexed message list (port model) or the broadcast payload;
      ``None`` for silence (a port row with no message on any port is
      stored as ``None`` too).  It ends at ``v``'s halt or quiescence
      round, whichever comes first (a halted or quiescent node is
      silent from then on, so ``t >= len(out[v])`` reads as ``None``).
      Its length is the number of rounds ``v`` was stepped.
    * ``halt_round[v]`` — first round at whose *start* ``v`` is halted
      (``inf`` = never within the run).
    * ``quiet_round[v]`` — first round at whose start ``v`` is
      quiescent but not halted (``inf`` = never, and always for
      machines without the quiescence protocol).

    No states: a node's state after ``t`` rounds is a function of its
    radius-``t`` ball, so a replay recomputes it from ``start`` and the
    rows around it.
    """

    __slots__ = ("out", "halt_round", "quiet_round")

    def __init__(self, n: int) -> None:
        self.out: List[List[Any]] = [[] for _ in range(n)]
        self.halt_round: List[float] = [math.inf] * n
        self.quiet_round: List[float] = [math.inf] * n


def _port_row(row: Any) -> Any:
    """``row``, or ``None`` when it carries no message on any port."""
    if row is not None:
        for msg in row:
            if msg is not None:
                return row
    return None


class _Wires:
    """What the delivery strategies share.  ``silent[v] == 1`` means
    ``v`` puts nothing on any link (halted, parked and crashed nodes
    included)."""

    def __init__(self, machine: Machine, ctxs: List[LocalContext],
                 meter: Metering, degrees: Sequence[int]) -> None:
        self.silent = bytearray([1]) * len(degrees)
        self.degrees = degrees
        self.emit = machine.emit
        self.ctxs = ctxs
        self.meter = meter

    def meter_links(self, links: Mapping[Tuple[int, int], Any]) -> Tuple[int, int]:
        """``(messages, bits)`` on the (possibly tampered) links, as far
        as the metering mode asks."""
        messages = bits = 0
        if self.meter.counts_messages:
            meter_bits = self.meter.meters_bits
            for m in links.values():
                if m is not None:
                    messages += 1
                    if meter_bits:
                        bits += message_size_bits(m)
        return messages, bits


class _PortWires(_Wires):
    """Port-numbering delivery: each emitted row is scattered through
    the CSR port targets into preallocated inboxes, reused across
    rounds.  ``scatter[v]`` lists, for each of ``v``'s ports in order,
    the (neighbour inbox, slot) it feeds; a silent node's slots all
    hold ``None``, so a silent round needs no writes at all (inboxes
    start out all-``None``)."""

    def __init__(self, graph: PortNumberedGraph, machine: Machine,
                 ctxs: List[LocalContext], meter: Metering) -> None:
        super().__init__(machine, ctxs, meter, graph.degree_array)
        offsets, flat_targets, flat_rev = graph.csr()
        inboxes = [[None] * d for d in self.degrees]
        self.inboxes: List[List[Any]] = inboxes
        self.scatter: List[List[Tuple[List[Any], int]]] = [
            [(inboxes[u], q) for u, q in zip(
                flat_targets[offsets[v]:offsets[v + 1]],
                flat_rev[offsets[v]:offsets[v + 1]],
            )]
            for v in range(graph.n)
        ]

    def silence(self, v: int) -> None:
        for dst, q in self.scatter[v]:
            dst[q] = None
        self.silent[v] = 1

    def send(self, live: List[int], paused: frozenset, states: List[Any],
             outboxes: Optional[List[Any]],
             rows: Optional[List[List[Any]]]) -> Tuple[int, int]:
        """Emit, deliver and meter one round; returns ``(messages, bits)``.
        ``rows`` (a tape's ``out``) gets each live node's row."""
        emit = self.emit
        ctxs = self.ctxs
        scatter = self.scatter
        silent = self.silent
        degrees = self.degrees
        size_of = message_size_bits
        count_msgs = self.meter.counts_messages
        meter_bits = self.meter.meters_bits
        messages = bits = 0
        for v in live:
            # A node crashed this round is silent (like halted) but live.
            out = None if v in paused else emit(ctxs[v], states[v])
            if out is None:
                if outboxes is not None and v not in paused:
                    # Observer parity with the reference engine: a
                    # live node's silence shows as an all-None row;
                    # only halted/crashed nodes show as None.
                    outboxes[v] = [None] * degrees[v]
                if rows is not None:
                    rows[v].append(None)
                if not silent[v]:
                    self.silence(v)
                continue
            silent[v] = 0
            d = degrees[v]
            if type(out) is not list and type(out) is not tuple:
                out = list(out)
            if len(out) != d:
                raise _bad_arity(d, len(out))
            if outboxes is not None:
                outboxes[v] = out
            if rows is not None:
                rows[v].append(_port_row(out))
            for (dst, q), m in zip(scatter[v], out):
                dst[q] = m
            if count_msgs:
                for m in out:
                    if m is not None:
                        messages += 1
                        if meter_bits:
                            bits += size_of(m)
        return messages, bits

    def links(self) -> Dict[Tuple[int, int], Any]:
        """The round's ``(sender, port)`` links, read back from the
        slots :meth:`send` just filled."""
        return {
            (v, p): dst[q]
            for v, targets in enumerate(self.scatter)
            for p, (dst, q) in enumerate(targets)
        }

    def redeliver(self, links: Mapping[Tuple[int, int], Any],
                  live: List[int], paused: frozenset) -> Tuple[int, int]:
        """Rewrite every slot from (possibly tampered) ``links`` and
        meter them; silence is recomputed, so later rounds see a
        consistent inbox/silent state."""
        silent = self.silent
        for v, targets in enumerate(self.scatter):
            still = 1
            for p, (dst, q) in enumerate(targets):
                m = dst[q] = links[(v, p)]
                if m is not None:
                    still = 0
            silent[v] = still
        return self.meter_links(links)


class _BroadcastWires(_Wires):
    """Broadcast delivery: every node receives its neighbours' payloads
    as a tuple sorted by canonical key — sorting by content, never by
    sender, enforces the model's anonymity.  Keys are computed once per
    sender per round (one payload travels along every link)."""

    def __init__(self, graph: PortNumberedGraph, machine: Machine,
                 ctxs: List[LocalContext], meter: Metering) -> None:
        super().__init__(machine, ctxs, meter, graph.degree_array)
        n = graph.n
        self.nbrs = [graph.neighbours(v) for v in range(n)]
        self.payloads: List[Any] = [None] * n
        self.keys: List[Any] = [_NONE_KEY] * n
        self.inboxes: List[Any] = [None] * n

    def silence(self, v: int) -> None:
        self.payloads[v] = None
        self.keys[v] = _NONE_KEY
        self.silent[v] = 1

    def send(self, live: List[int], paused: frozenset, states: List[Any],
             outboxes: Optional[List[Any]],
             rows: Optional[List[List[Any]]]) -> Tuple[int, int]:
        """Emit, deliver and meter one round; returns ``(messages, bits)``.
        ``rows`` (a tape's ``out``) gets each live node's payload."""
        emit = self.emit
        ctxs = self.ctxs
        payloads = self.payloads
        keys = self.keys
        silent = self.silent
        degrees = self.degrees
        size_of = message_size_bits
        count_msgs = self.meter.counts_messages
        meter_bits = self.meter.meters_bits
        messages = bits = 0
        for v in live:
            # A node crashed this round is silent (like halted) but live.
            p = None if v in paused else emit(ctxs[v], states[v])
            payloads[v] = p
            keys[v] = canonical_key(p)
            silent[v] = p is None
            if rows is not None:
                rows[v].append(p)
            if p is not None and count_msgs:
                # One broadcast payload, delivered along every link.
                d = degrees[v]
                messages += d
                if meter_bits:
                    bits += d * size_of(p)
        key_of = keys.__getitem__
        nbrs = self.nbrs
        inboxes = self.inboxes
        for v in live:
            if v not in paused:
                inboxes[v] = tuple(payloads[u] for u in sorted(nbrs[v], key=key_of))
        if outboxes is not None:
            outboxes[:] = payloads
        return messages, bits

    def links(self) -> Dict[Tuple[int, int], Any]:
        """The round's ``(sender, receiver)`` links."""
        payloads = self.payloads
        return {(v, u): payloads[v] for v, us in enumerate(self.nbrs) for u in us}

    def redeliver(self, links: Mapping[Tuple[int, int], Any],
                  live: List[int], paused: frozenset) -> Tuple[int, int]:
        """Rebuild the inboxes from (possibly tampered) ``links`` and
        meter them.  A stable sort of the received *values* by canonical
        key equals the sender sort in :meth:`send`, so an untampered
        link map rebuilds identical inboxes."""
        nbrs = self.nbrs
        inboxes = self.inboxes
        for v in live:
            if v not in paused:
                received = [links[(u, v)] for u in nbrs[v]]
                received.sort(key=canonical_key)
                inboxes[v] = tuple(received)
        return self.meter_links(links)


class _TapeSenders:
    """The recorded half of a light cone's delivery (:func:`_run_cone`).

    A *tape sender* is a rim node — a neighbour of the cone outside
    it — and puts its recorded row on the wire every round.
    ``targets`` maps each rim node to where its row goes.  A sender is
    kept as ``(stop, rows, target)``: from round ``stop`` on it writes
    nothing more (its rows ran out and one silent round has cleared
    its links).  Sorted so the next to stop is last.
    """

    def __init__(self, recorded: Sequence[List[Any]],
                 targets: Mapping[int, Any]) -> None:
        senders = []
        for u, target in targets.items():
            rows = recorded[u]
            if rows:
                senders.append((len(rows) + 1, rows, target))
        senders.sort(key=lambda s: s[0], reverse=True)
        self.senders = senders
        self.round = 0  # a cone replay starts at round 0

    def due(self) -> List[Tuple[Any, Any]]:
        """This round's ``(recorded row, target)`` pairs; advances the
        round."""
        t = self.round
        self.round = t + 1
        senders = self.senders
        while senders and senders[-1][0] <= t:
            senders.pop()
        return [
            (rows[t] if t < len(rows) else None, target)
            for _, rows, target in senders
        ]


class _ConePortWires(_PortWires):
    """Port delivery inside a light cone, indexed by the cone's local
    ids: the cone's inboxes, fed by fresh rows from cone nodes and by
    the tape senders' recorded rows.  The rim never reads, so a fresh
    row's entries for it go to a sink."""

    def __init__(self, topo: Any, machine: Machine, ctxs: List[LocalContext],
                 meter: Metering, nodes: Sequence[int],
                 recorded: Sequence[List[Any]]) -> None:
        _Wires.__init__(self, machine, ctxs, meter, [c.degree for c in ctxs])
        inboxes = self.inboxes = [[None] * d for d in self.degrees]
        # feeds[u]: (inbox, slot, port) for each of u's ports into the cone.
        feeds: Dict[int, List[Tuple[List[Any], int, int]]] = {}
        for i, v in enumerate(nodes):
            for q, (u, p) in enumerate(topo.ports(v)):
                feeds.setdefault(u, []).append((inboxes[i], q, p))
        sink = ([None], 0)
        self.scatter = [[sink] * d for d in self.degrees]
        for i, v in enumerate(nodes):
            for dst, q, p in feeds.pop(v, ()):
                self.scatter[i][p] = (dst, q)
        self.tape = _TapeSenders(recorded, feeds)  # the rim's feeds remain

    def send(self, live: List[int], paused: frozenset, states: List[Any],
             outboxes: Optional[List[Any]],
             rows: Optional[List[List[Any]]]) -> Tuple[int, int]:
        for row, feed in self.tape.due():
            if row is None:
                for dst, q, _ in feed:
                    dst[q] = None
            else:
                for dst, q, p in feed:
                    dst[q] = row[p]
        return super().send(live, paused, states, outboxes, rows)


class _ConeBroadcastWires(_BroadcastWires):
    """Broadcast delivery inside a light cone: payload slots for the
    cone's nodes (local ids ``0..k-1``) and its rim (``k`` on), the
    tape senders' filled from the recording."""

    def __init__(self, topo: Any, machine: Machine, ctxs: List[LocalContext],
                 meter: Metering, nodes: Sequence[int],
                 recorded: Sequence[List[Any]]) -> None:
        _Wires.__init__(self, machine, ctxs, meter, [c.degree for c in ctxs])
        k = len(nodes)
        local = {v: i for i, v in enumerate(nodes)}
        self.nbrs = [
            [local.setdefault(u, len(local)) for u in topo.neighbours(v)]
            for v in nodes
        ]
        self.tape = _TapeSenders(
            recorded, {u: x for u, x in local.items() if x >= k}
        )
        self.payloads = [None] * len(local)
        self.keys = [_NONE_KEY] * len(local)
        self.inboxes = [None] * k

    def send(self, live: List[int], paused: frozenset, states: List[Any],
             outboxes: Optional[List[Any]],
             rows: Optional[List[List[Any]]]) -> Tuple[int, int]:
        payloads = self.payloads
        keys = self.keys
        for p, x in self.tape.due():
            payloads[x] = p
            keys[x] = canonical_key(p)
        return super().send(live, paused, states, outboxes, rows)


_WIRES = {PORT_NUMBERING: _PortWires, BROADCAST: _BroadcastWires}
_CONE_WIRES = {PORT_NUMBERING: _ConePortWires, BROADCAST: _ConeBroadcastWires}


def _apply_faults(
    r: int,
    graph: PortNumberedGraph,
    machine: Machine,
    ctxs: List[LocalContext],
    states: List[Any],
    halted: List[bool],
    adversary: Any,
    silence: Callable[[int], None],
) -> Tuple[List[Any], frozenset, bool]:
    """Round ``r``'s node-level fault hooks, in the reference order.

    ``restarted`` nodes reboot from ``start``, then ``corrupt`` may
    replace states, then ``paused`` names the nodes crashed (silent and
    frozen) this round; link tampering follows delivery.  The crash
    hooks are looked up with ``getattr``: duck-typed adversaries that
    predate them only corrupt states.  Updates ``halted`` in place and
    silences the nodes the hooks halt.  Returns ``(states, paused,
    flipped)``: ``corrupt`` returns a new states list, and ``flipped``
    says whether any node's halted flag changed.
    """
    changed: List[int] = []
    restarted = getattr(adversary, "restarted", None)
    if restarted is not None:
        for v in sorted(set(restarted(r, graph))):
            states[v] = machine.start(ctxs[v])
            changed.append(v)
    if adversary.is_active(r):
        prev = states
        # Hand corrupt() a copy: an adversary that assigns into the
        # list it was given (and returns it) must not alias `prev`, or
        # the identity check below would miss every corruption.
        states = list(adversary.corrupt(r, graph, list(prev)))
        changed.extend(v for v in range(graph.n) if states[v] is not prev[v])
    flipped = False
    for v in changed:
        now = machine.halted(ctxs[v], states[v])
        if now != halted[v]:
            halted[v] = now
            flipped = True
            if now:
                silence(v)
    paused_fn = getattr(adversary, "paused", None)
    paused = _EMPTY_SET if paused_fn is None else frozenset(paused_fn(r, graph))
    return states, paused, flipped


def _run_fast(
    graph: Any,
    machine: Machine,
    ctxs: List[LocalContext],
    wires_cls: Callable[..., Any],
    states: List[Any],
    rounds: int,
    messages_sent: int,
    per_round_bits: List[int],
    max_rounds: int,
    observer: Optional[Observer],
    adversary: Optional[Any],
    meter: Metering,
    tape: Optional[_Tape] = None,
) -> RunResult:
    """The fast round loop, in either model, over the nodes of
    ``ctxs``, from ``states`` after ``rounds`` rounds (0, or the
    columnar prefix's count) that sent ``messages_sent`` messages with
    ``per_round_bits``.

    ``wires_cls`` is the model's delivery strategy; everything else —
    fault hooks, stepping, halting and silencing, quiescence parking,
    metering totals, the observer, round spans and the fast-forward
    epilogue — is shared.

    A ``tape`` is filled where the loop already decides: ``send``
    appends each live node's row, and the start, halt and park
    branches and the fast-forward epilogue set the halt and
    quiescence rounds.
    """
    n = len(ctxs)
    step = machine.step
    halted_fn = machine.halted
    meter_bits = meter.meters_bits
    rows = tape.out if tape is not None else None

    # Quiescence fast path (see Machine.quiescent): park nodes whose
    # remaining execution is provably silent and inbox-independent, and
    # fast-forward their states once the active loop drains.  Disabled
    # under observers and fault adversaries, which need (or may
    # corrupt) true per-round states.  Every node is halted, parked or
    # live, so the loop runs while some node is live.
    quiescent_fn = getattr(machine, "quiescent", None)
    parking = quiescent_fn is not None and observer is None and adversary is None
    parked: List[Tuple[int, int]] = []  # (node, round it was parked after)
    halted = [False] * n
    live: List[int] = []
    for v in range(n):
        if halted_fn(ctxs[v], states[v]):
            halted[v] = True
            if tape is not None:
                tape.halt_round[v] = rounds
        elif parking and quiescent_fn(ctxs[v], states[v]):
            # Already quiescent (notably the columnar prefix's handoff
            # states): the contract says it emits None and ignores its
            # inbox from here to halting, so it never needs a real round.
            parked.append((v, rounds))
            if tape is not None:
                tape.quiet_round[v] = rounds
        else:
            live.append(v)

    tampers = getattr(adversary, "tampers", None)
    tr = obs.current()
    wires = None
    paused: frozenset = _EMPTY_SET
    while live and rounds < max_rounds:
        if wires is None:
            # Built only when the loop actually runs: a start with every
            # node halted or parked (the columnar handoff on fully
            # quiescent instances) skips the allocation entirely.
            wires = wires_cls(graph, machine, ctxs, meter)
            inboxes = wires.inboxes
            silent = wires.silent
        rt0 = tr.now() if tr is not None else 0.0
        if adversary is not None:
            states, paused, flipped = _apply_faults(
                rounds, graph, machine, ctxs, states, halted,
                adversary, wires.silence,
            )
            if flipped:
                live = [v for v in range(n) if not halted[v]]
        outboxes: Optional[List[Any]] = [None] * n if observer is not None else None
        sent, bits = wires.send(live, paused, states, outboxes, rows)
        tampered = tampers is not None and tampers(rounds)
        if tampered:
            # Chaos round: the adversary sees every directed link;
            # delivery and metering follow the tampered values (the
            # wire's view is what is billed).
            sent, bits = wires.redeliver(
                adversary.tamper(rounds, graph, wires.links()),
                live, paused,
            )
        messages_sent += sent
        if meter_bits:
            per_round_bits.append(bits)

        next_live: List[int] = []
        settled: List[int] = []
        for v in live:
            if v in paused:
                # Frozen: no step, the round's inbox is discarded.
                next_live.append(v)
                continue
            st = step(ctxs[v], states[v], inboxes[v])
            states[v] = st
            if halted_fn(ctxs[v], st):
                halted[v] = True
                settled.append(v)
            elif parking and quiescent_fn(ctxs[v], st):
                parked.append((v, rounds + 1))
                settled.append(v)
            else:
                next_live.append(v)
        # Silence newly halted/parked nodes only after every step has
        # read its inbox — their final-round messages were deliverable.
        for v in settled:
            wires.silence(v)
        if tape is not None:
            for v in settled:
                if halted[v]:
                    tape.halt_round[v] = rounds + 1
                else:
                    tape.quiet_round[v] = rounds + 1
        if tampered:
            # Tampering can put a message on a halted sender's link
            # (a duplicated one, say); it is delivered this round only.
            for v in range(n):
                if halted[v] and not silent[v]:
                    wires.silence(v)
        live = next_live
        rounds += 1
        if tr is not None:
            tr.complete(SPAN_ROUND, rt0, round=rounds - 1)
        if observer is not None:
            observer(rounds, states, outboxes)

    # Fast-forward parked nodes to where the plain loop would have left
    # them.  A parked node is silent and ignores its inbox, so only its
    # round count matters; the global round count is the max over all
    # nodes, and silent rounds contribute zero messages and bits.
    all_halted = not live
    for v, parked_at in parked:
        st, used = machine.fast_forward(ctxs[v], states[v], max_rounds - parked_at)
        states[v] = st
        if not halted_fn(ctxs[v], st):
            all_halted = False
        elif tape is not None:
            tape.halt_round[v] = parked_at + used
        if parked_at + used > rounds:
            rounds = parked_at + used
    if meter_bits and len(per_round_bits) < rounds:
        per_round_bits.extend([0] * (rounds - len(per_round_bits)))

    outputs = [machine.output(ctxs[v], states[v]) for v in range(n)]
    return RunResult(
        outputs=outputs,
        rounds=rounds,
        all_halted=all_halted,
        messages_sent=messages_sent,
        message_bits=sum(per_round_bits),
        per_round_bits=per_round_bits,
        states=states,
    )


def _run_recorded(
    graph: PortNumberedGraph,
    machine: Machine,
    inputs: Optional[Sequence[Any]],
    globals_map: Optional[Mapping[str, Any]],
    max_rounds: int,
    seed: Optional[int],
    metering: Union[Metering, str, None],
) -> Tuple[RunResult, _Tape]:
    """:func:`run` on the object engine, with parking on, recording a
    :class:`_Tape` of every node as it goes."""
    tape = _Tape(graph.n)
    result = _run(
        graph, machine, inputs, globals_map, max_rounds, seed, None, None,
        metering, None, "object", "return", tape,
    )
    return result, tape


def _run_cone(
    topo: Any,
    machine: Machine,
    nodes: Sequence[int],
    ctxs: List[LocalContext],
    recorded: Sequence[List[Any]],
    max_rounds: int,
    meter: Metering,
) -> Tuple[RunResult, _Tape]:
    """Replay a light cone (see :mod:`repro.dynamic.session`) on
    :func:`_run_fast`.

    ``nodes`` are the cone's node ids in ``topo`` (anything with
    ``neighbours`` and ``ports``); the loop runs over their local ids
    ``0..k-1``, by which ``ctxs`` and the returned result and tape are
    indexed.  Every cone node runs from ``start`` at round 0, and every
    neighbour outside the cone (the rim) sends its ``recorded`` row (a
    recorded tape's ``out``, indexed by node id); the result meters
    only the cone's fresh rows.  Setup is O(cone + rim), never O(n).
    """
    wires = partial(_CONE_WIRES[machine.model], nodes=nodes, recorded=recorded)
    tape = _Tape(len(nodes))
    result = _run_fast(
        topo, machine, ctxs, wires, [machine.start(ctx) for ctx in ctxs],
        0, 0, [], max_rounds, None, None, meter, tape,
    )
    return result, tape


# ----------------------------------------------------------------------
# Reference engine (executable specification)
# ----------------------------------------------------------------------


def run_reference(
    graph: PortNumberedGraph,
    machine: Machine,
    inputs: Optional[Sequence[Any]] = None,
    globals_map: Optional[Mapping[str, Any]] = None,
    max_rounds: int = 10_000,
    seed: Optional[int] = None,
    observer: Optional[Observer] = None,
    fault_adversary: Optional[Any] = None,
    metering: Union[Metering, str, None] = Metering.BITS,
    replay: Optional[str] = None,
    on_max_rounds: str = "return",
) -> RunResult:
    """The executable specification of :func:`run`.

    A deliberately plain per-node, per-round loop — fresh inboxes every
    round, no flat arrays, no skip lists, no memo caches — implementing
    the same semantics (halted nodes emit nothing; see :func:`run`).
    The equivalence suite asserts :func:`run` matches this engine
    field-for-field; keep this loop easy to audit.  (``replay`` is a
    *machine*-level knob, so it is honoured here too — engine
    equivalence must hold in every machine configuration; likewise
    ``on_max_rounds``, whose ``"raise"`` mode fails loudly via
    :class:`MaxRoundsExceeded` instead of returning a partial result.)
    """
    if on_max_rounds not in ON_MAX_ROUNDS:
        raise ValueError(
            f"on_max_rounds must be one of {ON_MAX_ROUNDS}, "
            f"got {on_max_rounds!r}"
        )
    meter = Metering.of(metering)
    if replay is not None:
        machine = machine.with_replay(replay)
    if machine.model == PORT_NUMBERING:
        deliver = _deliver_port_numbering
    elif machine.model == BROADCAST:
        deliver = _deliver_broadcast
    else:
        raise ValueError(f"unknown model {machine.model!r}")

    ctxs = _make_contexts(graph, inputs, globals_map, seed)
    states: List[Any] = [machine.start(ctxs[v]) for v in graph.nodes()]
    halted: List[bool] = [machine.halted(ctxs[v], states[v]) for v in graph.nodes()]

    # Message-fault / crash hooks (getattr: duck-typed adversaries that
    # predate the extended contract only corrupt states).
    adv_restarted = adv_paused = adv_tampers = None
    if fault_adversary is not None:
        adv_restarted = getattr(fault_adversary, "restarted", None)
        adv_paused = getattr(fault_adversary, "paused", None)
        adv_tampers = getattr(fault_adversary, "tampers", None)

    rounds = 0
    messages_sent = 0
    message_bits = 0
    per_round_bits: List[int] = []

    tr = obs.current()
    run_t0 = tr.now() if tr is not None else 0.0
    while rounds < max_rounds and not all(halted):
        rt0 = tr.now() if tr is not None else 0.0
        paused: frozenset = _EMPTY_SET
        if fault_adversary is not None:
            if adv_restarted is not None:
                for v in sorted(set(adv_restarted(rounds, graph))):
                    states[v] = machine.start(ctxs[v])
            states = fault_adversary.corrupt(rounds, graph, states)
            halted = [machine.halted(ctxs[v], states[v]) for v in graph.nodes()]
            if adv_paused is not None:
                paused = frozenset(adv_paused(rounds, graph))

        outboxes: List[Any] = []
        for v in graph.nodes():
            if halted[v] or v in paused:
                out = None  # halted (and crashed) nodes are silent
            else:
                out = machine.emit(ctxs[v], states[v])
                if machine.model == PORT_NUMBERING:
                    if out is None:
                        out = [None] * graph.degree(v)
                    out = list(out)
                    if len(out) != graph.degree(v):
                        raise _bad_arity(graph.degree(v), len(out))
            outboxes.append(out)

        tampering = adv_tampers is not None and adv_tampers(rounds)
        if tampering:
            links = _links_of(graph, machine.model, outboxes)
            links = fault_adversary.tamper(rounds, graph, links)
            inboxes = _deliver_links(graph, machine.model, links)
        else:
            inboxes = deliver(graph, outboxes)

        # Metering: count each non-None message once per link direction
        # (after tampering, if any: the wire's view is what is billed).
        if meter.counts_messages:
            round_bits = 0
            if tampering:
                for m in links.values():
                    if m is not None:
                        messages_sent += 1
                        if meter.meters_bits:
                            round_bits += message_size_bits(m)
            else:
                for v in graph.nodes():
                    if machine.model == PORT_NUMBERING:
                        if outboxes[v] is None:
                            continue
                        sent = [m for m in outboxes[v] if m is not None]
                        messages_sent += len(sent)
                        if meter.meters_bits:
                            for m in sent:
                                round_bits += message_size_bits(m)
                    elif outboxes[v] is not None:
                        # One broadcast payload, sent along every link.
                        d = graph.degree(v)
                        messages_sent += d
                        if meter.meters_bits:
                            round_bits += d * message_size_bits(outboxes[v])
            if meter.meters_bits:
                message_bits += round_bits
                per_round_bits.append(round_bits)

        for v in graph.nodes():
            if not halted[v] and v not in paused:
                states[v] = machine.step(ctxs[v], states[v], inboxes[v])
                halted[v] = machine.halted(ctxs[v], states[v])
        rounds += 1
        if tr is not None:
            tr.complete(SPAN_ROUND, rt0, round=rounds - 1)

        if observer is not None:
            observer(rounds, states, outboxes)

    if tr is not None:
        tr.event(
            EV_ENGINE_SELECTED,
            engine="reference", n=graph.n, rounds=rounds,
        )
        tr.complete(SPAN_RUN, run_t0, engine="reference", n=graph.n)
    if not all(halted) and on_max_rounds == "raise":
        raise MaxRoundsExceeded(
            rounds=rounds,
            non_halted=[v for v in graph.nodes() if not halted[v]],
        )
    outputs = [machine.output(ctxs[v], states[v]) for v in graph.nodes()]
    return RunResult(
        outputs=outputs,
        rounds=rounds,
        all_halted=all(halted),
        messages_sent=messages_sent,
        message_bits=message_bits,
        per_round_bits=per_round_bits,
        states=states,
    )


def _deliver_port_numbering(
    graph: PortNumberedGraph, outboxes: List[Any]
) -> List[List[Any]]:
    """inbox[v][p] = message sent by the neighbour behind port p."""
    inboxes: List[List[Any]] = [
        [None] * graph.degree(v) for v in graph.nodes()
    ]
    for v in graph.nodes():
        out = outboxes[v]
        if out is None:
            continue  # silent (halted) sender: slots stay None
        for p in range(graph.degree(v)):
            u, q = graph.port_target(v, p)
            inboxes[u][q] = out[p]
    return inboxes


def _deliver_broadcast(
    graph: PortNumberedGraph, outboxes: List[Any]
) -> List[tuple]:
    """inbox[v] = canonically sorted multiset of neighbours' messages.

    Sorting by content (and never by sender) enforces the broadcast
    model: a node cannot tell which neighbour sent which message, nor
    correlate senders across rounds.  Sort keys are computed once per
    sender per round — the same payload is delivered along every link.
    """
    keys = [canonical_key(out) for out in outboxes]
    return [
        tuple(
            outboxes[u]
            for u in sorted(graph.neighbours(v), key=lambda u: keys[u])
        )
        for v in graph.nodes()
    ]


def _links_of(
    graph: PortNumberedGraph, model: str, outboxes: List[Any]
) -> Dict[Tuple[int, int], Any]:
    """Every directed link's in-flight message, as a dict the adversary
    may tamper with.

    Port-numbering keys are ``(sender, port)``; broadcast keys are
    ``(sender, receiver)``.  ``None`` means silence on that link.
    Insertion order is deterministic — sender ascending, then port /
    neighbour order — and seeded adversaries key their hash schedules
    on it, so keep it stable.
    """
    links: Dict[Tuple[int, int], Any] = {}
    if model == PORT_NUMBERING:
        for v in graph.nodes():
            out = outboxes[v]
            for p in range(graph.degree(v)):
                links[(v, p)] = None if out is None else out[p]
    else:
        for v in graph.nodes():
            out = outboxes[v]
            for u in graph.neighbours(v):
                links[(v, u)] = out
    return links


def _deliver_links(
    graph: PortNumberedGraph, model: str, links: Mapping[Tuple[int, int], Any]
) -> List[Any]:
    """Chaos-path counterpart of the two ``_deliver_*`` helpers: build
    inboxes from (possibly tampered) per-link values.

    Broadcast inboxes stable-sort the received *values* by canonical
    key; with untampered links that equals the sender-sort in
    :func:`_deliver_broadcast` (same keys, same stable order), which is
    what keeps chaos rounds bit-for-bit with clean ones.
    """
    if model == PORT_NUMBERING:
        inboxes: List[Any] = [[None] * graph.degree(v) for v in graph.nodes()]
        for v in graph.nodes():
            for p in range(graph.degree(v)):
                u, q = graph.port_target(v, p)
                inboxes[u][q] = links[(v, p)]
        return inboxes
    result: List[Any] = []
    for v in graph.nodes():
        received = [links[(u, v)] for u in graph.neighbours(v)]
        received.sort(key=canonical_key)
        result.append(tuple(received))
    return result


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------


def _check_process_backend(
    n_workers: Optional[int], kwargs: Mapping[str, Any]
) -> None:
    """Reject run options whose effects cannot cross a process boundary.

    With ``n_workers > 1`` runs execute in worker processes.  An
    ``observer`` works by side effect, and a ``fault_adversary`` may
    accumulate state during the run (e.g. a corruption log read after
    it); in a worker process those parent-side effects happen in the
    child's copy and are silently lost, so both are refused up front.

    Adversaries that declare ``process_safe = True`` (the seeded
    message-fault family: their whole schedule is a pure hash of the
    seed, so the run outcome carries no parent-side state) are allowed.
    """
    if n_workers is None or n_workers <= 1:
        return
    if kwargs.get("observer") is not None:
        raise ValueError(
            "observer side effects do not propagate from worker "
            "processes; run serially (n_workers=None) instead"
        )
    adversary = kwargs.get("fault_adversary")
    if adversary is not None and not getattr(adversary, "process_safe", False):
        raise ValueError(
            "fault_adversary side effects do not propagate from worker "
            "processes (its diagnostic counters would stay in the "
            "child); run serially (n_workers=None), or use a "
            "process_safe adversary"
        )


def _run_with_seed(
    seed: Optional[int],
    *,
    graph: PortNumberedGraph,
    machine: Machine,
    inputs: Optional[Sequence[Any]],
    globals_map: Optional[Mapping[str, Any]],
    run_kwargs: Mapping[str, Any],
) -> RunResult:
    """Module-level per-seed job body (picklable for worker processes)."""
    return run(
        graph, machine, inputs=inputs, globals_map=globals_map,
        seed=seed, **run_kwargs,
    )


def run_many(
    graph: PortNumberedGraph,
    machine: Machine,
    seeds: Iterable[Optional[int]],
    inputs: Optional[Sequence[Any]] = None,
    globals_map: Optional[Mapping[str, Any]] = None,
    n_workers: Optional[int] = None,
    **kwargs: Any,
) -> List[RunResult]:
    """One :func:`run` per seed on a fixed graph/machine, in seed order.

    Amortises context/topology setup across repetitions of a randomised
    experiment.  Extra ``kwargs`` (``max_rounds``, ``metering``,
    ``replay``, ...) are forwarded to every run.  With
    ``n_workers > 1`` the runs execute on a warm process pool (graph,
    machine, inputs and results must pickle — every shipped machine
    does).  Results are in the same order as ``seeds`` and bit-for-bit
    equal to a serial run.
    """
    _check_process_backend(n_workers, kwargs)
    one = partial(
        _run_with_seed,
        graph=graph, machine=machine, inputs=inputs,
        globals_map=globals_map, run_kwargs=kwargs,
    )
    return map_jobs(one, list(seeds), n_workers)


def _run_sweep_instance(
    inst: Any,
    *,
    machine: Optional[Machine],
    run_kwargs: Mapping[str, Any],
) -> RunResult:
    """Module-level per-instance job body (picklable for worker processes)."""

    def need_machine() -> Machine:
        if machine is None:
            raise TypeError(
                f"sweep instance {inst!r:.60} provides no 'machine' and "
                f"no default machine was given"
            )
        return machine

    if hasattr(inst, "to_bipartite_graph"):
        return run_on_setcover(inst, need_machine(), **run_kwargs)
    if isinstance(inst, PortNumberedGraph):
        return run(inst, need_machine(), **run_kwargs)
    if isinstance(inst, Mapping):
        merged: Dict[str, Any] = {**run_kwargs, **inst}
        m = merged.pop("machine", machine)
        if m is None:
            raise TypeError(
                "sweep mapping instance has no 'machine' and no "
                "default machine was given"
            )
        return run(machine=m, **merged)
    try:
        graph, inputs = inst
    except (TypeError, ValueError):
        raise TypeError(
            f"sweep instance must be a graph, a (graph, inputs) pair, "
            f"a mapping of run() kwargs, or a set-cover instance; "
            f"got {inst!r:.80}"
        ) from None
    return run(graph, need_machine(), inputs=inputs, **run_kwargs)


def sweep(
    instances: Iterable[Any],
    machine: Optional[Machine] = None,
    n_workers: Optional[int] = None,
    **kwargs: Any,
) -> List[RunResult]:
    """One :func:`run` per instance, in instance order.

    Each instance may be a :class:`PortNumberedGraph`, a ``(graph,
    inputs)`` pair, a mapping of :func:`run` keyword arguments (must
    contain ``"graph"``), or a set-cover instance (anything with a
    ``to_bipartite_graph`` method — routed via :func:`run_on_setcover`).
    Extra ``kwargs`` are forwarded to every run; per-instance mappings
    override them, including a per-instance ``"machine"`` — when every
    instance brings its own machine, the ``machine`` argument may be
    omitted entirely.

    With ``n_workers > 1`` instances execute on a warm process pool
    (instances, machines and results must pickle).  Results are
    bit-for-bit equal to a serial run; instances are chunked so one
    warm pool amortises across a whole experiment table (see
    :mod:`repro._util.parallel`).
    """
    instances = list(instances)
    _check_process_backend(n_workers, kwargs)
    for inst in instances:
        # Mapping instances merge into the run() kwargs in the worker,
        # so they can smuggle the same process-unsafe options past the
        # kwargs check above.
        if isinstance(inst, Mapping):
            _check_process_backend(n_workers, inst)
    one = partial(_run_sweep_instance, machine=machine, run_kwargs=kwargs)
    return map_jobs(one, instances, n_workers)


# ----------------------------------------------------------------------
# Model-checked entry points
# ----------------------------------------------------------------------


def run_port_numbering(graph, machine, **kwargs) -> RunResult:
    """:func:`run`, asserting the machine uses the port-numbering model."""
    if machine.model != PORT_NUMBERING:
        raise ValueError(
            f"machine {type(machine).__name__} is written for {machine.model!r}"
        )
    return run(graph, machine, **kwargs)


def run_broadcast(graph, machine, **kwargs) -> RunResult:
    """:func:`run`, asserting the machine uses the broadcast model."""
    if machine.model != BROADCAST:
        raise ValueError(
            f"machine {type(machine).__name__} is written for {machine.model!r}"
        )
    return run(graph, machine, **kwargs)


def run_on_setcover(instance, machine: Machine, **kwargs) -> RunResult:
    """Run a machine on the bipartite layout of a set cover instance.

    Wires up the node inputs (roles/weights) and global parameters
    (f, k, W) exactly as the paper's model provides them.
    """
    graph = instance.to_bipartite_graph()
    return run(
        graph,
        machine,
        inputs=instance.node_inputs(),
        globals_map=instance.global_params(),
        **kwargs,
    )
