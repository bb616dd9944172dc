"""Synchronous execution of machines over a port-numbered graph.

The runtime is the only component that sees node identifiers; machines
receive exactly the local information the model permits.  Rounds are
counted by the runtime (never self-reported by machines), and message
counts / structural bit sizes are metered — when the chosen
:class:`Metering` policy asks for it — for the message-complexity
experiments of Section 5.

Two engines implement the same semantics:

* :func:`run` — the fast engine: CSR flat-array delivery over
  preallocated, reused inbox buffers; halted nodes are skipped
  entirely; per-round method lookups hoisted out of the loop.
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


def _make_contexts(
    graph: PortNumberedGraph,
    inputs: Optional[Sequence[Any]],
    globals_map: Optional[Mapping[str, Any]],
    seed: Optional[int],
) -> List[LocalContext]:
    if inputs is not None and len(inputs) != graph.n:
        raise ValueError(f"expected {graph.n} inputs, got {len(inputs)}")
    g = dict(globals_map or {})
    ctxs = []
    for v in graph.nodes():
        rng = random.Random(f"node-rng:{seed}:{v}") if seed is not None else None
        ctxs.append(
            LocalContext(
                degree=graph.degree(v),
                input=None if inputs is None else inputs[v],
                globals=g,
                rng=rng,
            )
        )
    return ctxs


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
    numpy, observer/adversary attached, empty graph, values off the
    ``int64`` grid — fall back to ``"object"`` automatically.  Results
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
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if on_max_rounds not in ON_MAX_ROUNDS:
        raise ValueError(
            f"on_max_rounds must be one of {ON_MAX_ROUNDS}, "
            f"got {on_max_rounds!r}"
        )
    meter = Metering.of(metering)
    if replay is not None:
        machine = machine.with_replay(replay)
    if machine.model == PORT_NUMBERING:
        engine_fn = _run_fast_port
    elif machine.model == BROADCAST:
        engine_fn = _run_fast_broadcast
    else:
        raise ValueError(f"unknown model {machine.model!r}")

    result: Optional[RunResult] = None
    tr = obs.current()
    run_t0 = tr.now() if tr is not None else 0.0
    engine_used = "object"
    ctxs = _make_contexts(graph, inputs, globals_map, seed)
    if (
        engine == "columnar"
        and machine.model == PORT_NUMBERING
        and observer is None
        and fault_adversary is None
    ):
        result = _run_columnar_port(graph, machine, ctxs, max_rounds, meter)
        if result is not None:
            engine_used = "columnar"
    elif engine == "columnar" and tr is not None:
        tr.event(
            EV_ENGINE_FALLBACK,
            wanted="columnar",
            reason="columnar engine needs the port-numbering model "
                   "with no observer or fault adversary",
        )
    if result is None:
        states: List[Any] = [machine.start(ctxs[v]) for v in graph.nodes()]
        halted: List[bool] = [
            machine.halted(ctxs[v], states[v]) for v in graph.nodes()
        ]
        result = engine_fn(
            graph, machine, ctxs, states, halted,
            max_rounds, observer, fault_adversary, meter,
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


def _run_columnar_port(
    graph: PortNumberedGraph,
    machine: Machine,
    ctxs: List[LocalContext],
    max_rounds: int,
    meter: Metering,
) -> Optional[RunResult]:
    """The columnar engine, or ``None`` when this run cannot engage it.

    Runs the machine's declared leading rounds as whole-array passes
    over a :class:`~repro.simulator.state_layout.StateLayout`, then
    materialises per-node states and delegates the remaining rounds to
    :func:`_run_fast_port`.  Covered rounds are port-uniform, so
    delivery is the single gather ``values[targets]``; the gathered
    inbox columns are handed to kernels *read-only* — the columnar
    counterpart of the object engine's reused-buffer trap, made
    impossible rather than documented.
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
    for name, fill in plan.node_fields:
        layout.add_node_field(name, fill)
    for name, fill in plan.edge_fields:
        layout.add_edge_field(name, fill)
    machine.start_columnar(layout, ctxs)

    degrees = layout.degrees
    count_msgs = meter.counts_messages
    meter_bits = meter.meters_bits
    messages_sent = 0
    message_bits = 0
    per_round_bits: List[int] = []
    tr = obs.current()
    phase_t0 = tr.now() if tr is not None else 0.0
    for r in range(plan.rounds):
        values, sending, decode = machine.emit_columnar(layout, r)
        if layout.halted.any():
            sending = sending & ~layout.halted
        if count_msgs:
            # Port-uniform rounds: a sender pays one message per port.
            messages_sent += int(degrees[sending].sum())
            if meter_bits:
                sent_vals = values[sending]
                uniq, inv = np.unique(sent_vals, return_inverse=True)
                sizes = np.fromiter(
                    (message_size_bits(decode(u)) for u in uniq.tolist()),
                    dtype=np.int64, count=len(uniq),
                )
                round_bits = int((sizes[inv] * degrees[sending]).sum())
                message_bits += round_bits
                per_round_bits.append(round_bits)
        inbox_vals = values[layout.targets]
        inbox_sent = sending[layout.targets]
        inbox_vals.flags.writeable = False
        inbox_sent.flags.writeable = False
        machine.step_columnar(layout, r, inbox_vals, inbox_sent)

    if tr is not None:
        tr.complete(
            SPAN_PHASE, phase_t0, phase="columnar rounds", rounds=plan.rounds
        )
    states = machine.finish_columnar(layout, ctxs)
    halted = [machine.halted(ctxs[v], states[v]) for v in graph.nodes()]
    inner = _run_fast_port(
        graph, machine, ctxs, states, halted,
        max_rounds - plan.rounds, None, None, meter,
    )
    return RunResult(
        outputs=inner.outputs,
        rounds=plan.rounds + inner.rounds,
        all_halted=inner.all_halted,
        messages_sent=messages_sent + inner.messages_sent,
        message_bits=message_bits + inner.message_bits,
        per_round_bits=per_round_bits + inner.per_round_bits,
        states=inner.states,
    )


def _columnar_fallback(reason: str) -> None:
    """Log why the columnar engine could not engage this run."""
    tr = obs.current()
    if tr is not None:
        tr.event(EV_ENGINE_FALLBACK, wanted="columnar", reason=reason)


def _run_fast_port(
    graph: PortNumberedGraph,
    machine: Machine,
    ctxs: List[LocalContext],
    states: List[Any],
    halted: List[bool],
    max_rounds: int,
    observer: Optional[Observer],
    adversary: Optional[Any],
    meter: Metering,
) -> RunResult:
    n = graph.n
    degrees = graph.degree_array

    emit = machine.emit
    step = machine.step
    halted_fn = machine.halted
    size_of = message_size_bits
    count_msgs = meter.counts_messages
    meter_bits = meter.meters_bits

    # Quiescence fast path (see Machine.quiescent): park nodes whose
    # remaining execution is provably silent and inbox-independent, and
    # fast-forward their states once the active loop drains.  Disabled
    # under observers and fault adversaries, which need (or may
    # corrupt) true per-round states.
    quiescent_fn = getattr(machine, "quiescent", None)
    use_parking = (
        quiescent_fn is not None
        and observer is None
        and adversary is None
    )
    parked: List[Tuple[int, int]] = []  # (node, round it was parked after)

    # Message-fault / crash hooks (getattr: duck-typed adversaries that
    # predate the extended contract only corrupt states).
    adv_restarted = adv_paused = adv_tampers = None
    if adversary is not None:
        adv_restarted = getattr(adversary, "restarted", None)
        adv_paused = getattr(adversary, "paused", None)
        adv_tampers = getattr(adversary, "tampers", None)
    start_fn = machine.start

    rounds = 0
    n_halted = sum(halted)
    messages_sent = 0
    message_bits = 0
    per_round_bits: List[int] = []
    live = [v for v in range(n) if not halted[v]]
    # silent[v] == 1 means every slot v feeds already holds None, so a
    # silent round needs no writes at all (inboxes start out all-None).
    silent = bytearray([1]) * n

    if use_parking and live:
        # Nodes already quiescent in their initial state (resumed runs —
        # notably the columnar engine's handoff states) never need a
        # real round: the contract says they emit None and ignore their
        # inboxes from here to halting, so park them straight away.
        still_live = []
        for v in live:
            if quiescent_fn(ctxs[v], states[v]):
                parked.append((v, rounds))
            else:
                still_live.append(v)
        live = still_live

    # Preallocated inboxes, reused across rounds; scatter[v] lists, for
    # each of v's ports in order, the (neighbour inbox, slot) it feeds.
    # Built only when the round loop can actually run — a start state
    # with every node halted or parked (the columnar handoff on fully
    # quiescent instances) skips the allocation entirely.
    inboxes: List[List[Any]] = []
    scatter: List[List[Tuple[List[Any], int]]] = []
    if max_rounds > 0 and n_halted + len(parked) < n:
        offsets, flat_targets, flat_rev = graph.csr()
        inboxes = [[None] * degrees[v] for v in range(n)]
        for v in range(n):
            s, e = offsets[v], offsets[v + 1]
            scatter.append(
                [(inboxes[u], q)
                 for u, q in zip(flat_targets[s:e], flat_rev[s:e])]
            )

    tr = obs.current()
    while rounds < max_rounds and n_halted + len(parked) < n:
        rt0 = tr.now() if tr is not None else 0.0
        paused: frozenset = _EMPTY_SET
        if adversary is not None:
            changed = False
            if adv_restarted is not None:
                for v in sorted(set(adv_restarted(rounds, graph))):
                    states[v] = start_fn(ctxs[v])
                    now = halted_fn(ctxs[v], states[v])
                    if now != halted[v]:
                        halted[v] = now
                        if now:
                            n_halted += 1
                            for dst, q in scatter[v]:
                                dst[q] = None
                            silent[v] = 1
                        else:
                            n_halted -= 1
                    changed = True
            if adversary.is_active(rounds):
                changed = True
                prev = states
                # Hand corrupt() a copy: an adversary that assigns into
                # the list it was given (and returns it) must not alias
                # `prev`, or the identity check below would miss every
                # corruption.
                states = list(adversary.corrupt(rounds, graph, list(prev)))
                for v in range(n):
                    if states[v] is not prev[v] and halted[v] != (
                        now := halted_fn(ctxs[v], states[v])
                    ):
                        halted[v] = now
                        if now:
                            n_halted += 1
                            for dst, q in scatter[v]:
                                dst[q] = None
                            silent[v] = 1
                        else:
                            n_halted -= 1
            if changed:
                live = [v for v in range(n) if not halted[v]]
            if adv_paused is not None:
                paused = frozenset(adv_paused(rounds, graph))

        outboxes: Optional[List[Any]] = [None] * n if observer is not None else None
        round_bits = 0
        if adv_tampers is not None and adv_tampers(rounds):
            # Chaos path: collect every emission, expose the full set
            # of directed links to the adversary, then deliver and
            # meter from the (possibly tampered) link values.  Mirrors
            # the reference engine exactly; the hot path below is
            # untouched in rounds without message tampering.
            rows: List[Any] = [None] * n
            for v in live:
                if v in paused:
                    continue
                out = emit(ctxs[v], states[v])
                if out is None:
                    if outboxes is not None:
                        outboxes[v] = [None] * degrees[v]
                    continue
                d = degrees[v]
                if type(out) is not list and type(out) is not tuple:
                    out = list(out)
                if len(out) != d:
                    raise _bad_arity(d, len(out))
                rows[v] = out
                if outboxes is not None:
                    outboxes[v] = out
            links: Dict[Tuple[int, int], Any] = {}
            for v in range(n):
                row = rows[v]
                if row is None:
                    for p in range(degrees[v]):
                        links[(v, p)] = None
                else:
                    for p in range(degrees[v]):
                        links[(v, p)] = row[p]
            links = adversary.tamper(rounds, graph, links)
            # Every slot is rewritten from the tampered links, and
            # silence is recomputed, so later (fast-path) rounds see a
            # consistent inbox/silent state.
            for v in range(n):
                still = 1
                for p, (dst, q) in enumerate(scatter[v]):
                    m = links[(v, p)]
                    dst[q] = m
                    if m is not None:
                        still = 0
                        if count_msgs:
                            messages_sent += 1
                            if meter_bits:
                                round_bits += size_of(m)
                silent[v] = still
        else:
            for v in live:
                if v in paused:
                    # Crashed this round: silent (like halted) but live.
                    if not silent[v]:
                        for dst, q in scatter[v]:
                            dst[q] = None
                        silent[v] = 1
                    continue
                out = emit(ctxs[v], states[v])
                if out is None:
                    if outboxes is not None:
                        # Observer parity with the reference engine: a
                        # live node's silence shows as an all-None row;
                        # only halted/crashed nodes show as None.
                        outboxes[v] = [None] * degrees[v]
                    if not silent[v]:
                        for dst, q in scatter[v]:
                            dst[q] = None
                        silent[v] = 1
                    continue
                silent[v] = 0
                d = degrees[v]
                if type(out) is not list and type(out) is not tuple:
                    out = list(out)
                if len(out) != d:
                    raise _bad_arity(d, len(out))
                if outboxes is not None:
                    outboxes[v] = out
                for (dst, q), m in zip(scatter[v], out):
                    dst[q] = m
                if count_msgs:
                    if meter_bits:
                        for m in out:
                            if m is not None:
                                messages_sent += 1
                                round_bits += size_of(m)
                    else:
                        for m in out:
                            if m is not None:
                                messages_sent += 1

        next_live: List[int] = []
        just_halted: List[int] = []
        for v in live:
            if v in paused:
                # Frozen: no step, the round's inbox is discarded.
                next_live.append(v)
                continue
            st = step(ctxs[v], states[v], inboxes[v])
            states[v] = st
            if halted_fn(ctxs[v], st):
                halted[v] = True
                n_halted += 1
                just_halted.append(v)
            elif use_parking and silent[v] and quiescent_fn(ctxs[v], st):
                # Only silent nodes can be quiescent (quiescence implies
                # emitting None), so the check is skipped for talkers.
                parked.append((v, rounds + 1))
                just_halted.append(v)  # silence its slots like a halted node
            else:
                next_live.append(v)
        # Silence newly halted/parked nodes only after every step has
        # read its inbox — their final-round messages were deliverable.
        for v in just_halted:
            for dst, q in scatter[v]:
                dst[q] = None
            silent[v] = 1
        live = next_live
        rounds += 1
        if tr is not None:
            tr.complete(SPAN_ROUND, rt0, round=rounds - 1)
        if meter_bits:
            message_bits += round_bits
            per_round_bits.append(round_bits)
        if observer is not None:
            observer(rounds, states, outboxes)

    # Fast-forward parked nodes to where the plain loop would have left
    # them.  A parked node is silent and ignores its inbox, so only its
    # round count matters; the global round count is the max over all
    # nodes, and silent rounds contribute zero messages and bits.
    for v, parked_at in parked:
        st, used = machine.fast_forward(ctxs[v], states[v], max_rounds - parked_at)
        states[v] = st
        if halted_fn(ctxs[v], st):
            n_halted += 1
        if parked_at + used > rounds:
            rounds = parked_at + used
    if meter_bits and len(per_round_bits) < rounds:
        per_round_bits.extend([0] * (rounds - len(per_round_bits)))
        # (silent tail rounds: no messages, no bits)

    outputs = [machine.output(ctxs[v], states[v]) for v in range(n)]
    return RunResult(
        outputs=outputs,
        rounds=rounds,
        all_halted=n_halted == n,
        messages_sent=messages_sent,
        message_bits=message_bits,
        per_round_bits=per_round_bits,
        states=states,
    )


def _run_fast_broadcast(
    graph: PortNumberedGraph,
    machine: Machine,
    ctxs: List[LocalContext],
    states: List[Any],
    halted: List[bool],
    max_rounds: int,
    observer: Optional[Observer],
    adversary: Optional[Any],
    meter: Metering,
) -> RunResult:
    n = graph.n
    degrees = graph.degree_array
    nbrs = [graph.neighbours(v) for v in range(n)]

    emit = machine.emit
    step = machine.step
    halted_fn = machine.halted
    size_of = message_size_bits
    count_msgs = meter.counts_messages
    meter_bits = meter.meters_bits

    rounds = 0
    n_halted = sum(halted)
    messages_sent = 0
    message_bits = 0
    per_round_bits: List[int] = []
    live = [v for v in range(n) if not halted[v]]
    payloads: List[Any] = [None] * n
    keys: List[Any] = [_NONE_KEY] * n

    # Message-fault / crash hooks (getattr: duck-typed adversaries that
    # predate the extended contract only corrupt states).
    adv_restarted = adv_paused = adv_tampers = None
    if adversary is not None:
        adv_restarted = getattr(adversary, "restarted", None)
        adv_paused = getattr(adversary, "paused", None)
        adv_tampers = getattr(adversary, "tampers", None)
    start_fn = machine.start

    tr = obs.current()
    while rounds < max_rounds and n_halted < n:
        rt0 = tr.now() if tr is not None else 0.0
        paused: frozenset = _EMPTY_SET
        if adversary is not None:
            changed = False
            if adv_restarted is not None:
                for v in sorted(set(adv_restarted(rounds, graph))):
                    states[v] = start_fn(ctxs[v])
                    now = halted_fn(ctxs[v], states[v])
                    if now != halted[v]:
                        halted[v] = now
                        if now:
                            n_halted += 1
                            payloads[v] = None
                            keys[v] = _NONE_KEY
                        else:
                            n_halted -= 1
                    changed = True
            if adversary.is_active(rounds):
                changed = True
                prev = states
                # Hand corrupt() a copy: an adversary that assigns into
                # the list it was given (and returns it) must not alias
                # `prev`, or the identity check below would miss every
                # corruption.
                states = list(adversary.corrupt(rounds, graph, list(prev)))
                for v in range(n):
                    if states[v] is not prev[v] and halted[v] != (
                        now := halted_fn(ctxs[v], states[v])
                    ):
                        halted[v] = now
                        if now:
                            n_halted += 1
                            payloads[v] = None
                            keys[v] = _NONE_KEY
                        else:
                            n_halted -= 1
            if changed:
                live = [v for v in range(n) if not halted[v]]
            if adv_paused is not None:
                paused = frozenset(adv_paused(rounds, graph))

        round_bits = 0
        inboxes_t: Optional[List[Any]] = None
        if adv_tampers is not None and adv_tampers(rounds):
            # Chaos path: expose every directed link to the adversary,
            # then deliver and meter from the (possibly tampered) link
            # values.  A stable sort of the received *values* by
            # canonical key equals the normal stable sender-sort, so an
            # untampered chaos round builds identical inboxes.
            for v in live:
                if v in paused:
                    payloads[v] = None
                    keys[v] = _NONE_KEY
                    continue
                p = emit(ctxs[v], states[v])
                payloads[v] = p
                keys[v] = canonical_key(p)
            links: Dict[Tuple[int, int], Any] = {}
            for v in range(n):
                pv = payloads[v]
                for u in nbrs[v]:
                    links[(v, u)] = pv
            links = adversary.tamper(rounds, graph, links)
            if count_msgs:
                for m in links.values():
                    if m is not None:
                        messages_sent += 1
                        if meter_bits:
                            round_bits += size_of(m)
            inboxes_t = [None] * n
            for v in live:
                if v in paused:
                    continue
                received = [links[(u, v)] for u in nbrs[v]]
                received.sort(key=canonical_key)
                inboxes_t[v] = tuple(received)
        else:
            for v in live:
                if v in paused:
                    # Crashed this round: silent (like halted) but live.
                    payloads[v] = None
                    keys[v] = _NONE_KEY
                    continue
                p = emit(ctxs[v], states[v])
                payloads[v] = p
                keys[v] = canonical_key(p)
                if p is not None and count_msgs:
                    # One broadcast payload, delivered along every link.
                    d = degrees[v]
                    messages_sent += d
                    if meter_bits:
                        round_bits += d * size_of(p)

        key_of = keys.__getitem__
        next_live: List[int] = []
        just_halted: List[int] = []
        for v in live:
            if v in paused:
                # Frozen: no step, the round's inbox is discarded.
                next_live.append(v)
                continue
            # inbox = canonically sorted multiset of neighbours'
            # payloads; sorting by content (never by sender) enforces
            # the broadcast model's anonymity.
            if inboxes_t is not None:
                inbox = inboxes_t[v]
            else:
                inbox = tuple(
                    payloads[u] for u in sorted(nbrs[v], key=key_of)
                )
            st = step(ctxs[v], states[v], inbox)
            states[v] = st
            if halted_fn(ctxs[v], st):
                halted[v] = True
                n_halted += 1
                just_halted.append(v)
            else:
                next_live.append(v)
        live = next_live
        rounds += 1
        if tr is not None:
            tr.complete(SPAN_ROUND, rt0, round=rounds - 1)
        if meter_bits:
            message_bits += round_bits
            per_round_bits.append(round_bits)
        if observer is not None:
            observer(rounds, states, list(payloads))
        for v in just_halted:
            payloads[v] = None
            keys[v] = _NONE_KEY

    outputs = [machine.output(ctxs[v], states[v]) for v in range(n)]
    return RunResult(
        outputs=outputs,
        rounds=rounds,
        all_halted=n_halted == n,
        messages_sent=messages_sent,
        message_bits=message_bits,
        per_round_bits=per_round_bits,
        states=states,
    )


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


def _check_process_backend(backend: Optional[str], kwargs: Mapping[str, Any]) -> None:
    """Reject run options whose effects cannot cross a process boundary.

    An ``observer`` works by side effect, and a ``fault_adversary`` may
    accumulate state during the run (e.g. a corruption log read after
    it); in a worker process those parent-side effects happen in the
    child's copy and are silently lost, so the process backend refuses
    both up front (``"auto"`` would usually fall back to threads anyway
    — these are typically closures or stateful objects — but a
    picklable one must not slip through and go quiet).

    Adversaries that declare ``process_safe = True`` (the seeded
    message-fault family: their whole schedule is a pure hash of the
    seed, so the run outcome carries no parent-side state) are allowed.
    """
    if backend not in ("process", "auto"):
        return
    if kwargs.get("observer") is not None:
        raise ValueError(
            "observer side effects do not propagate from worker "
            "processes; use backend='thread' (or serial) instead"
        )
    adversary = kwargs.get("fault_adversary")
    if adversary is not None and not getattr(adversary, "process_safe", False):
        raise ValueError(
            "fault_adversary side effects do not propagate from worker "
            "processes (its diagnostic counters would stay in the "
            "child); use backend='thread' (or serial), or a "
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
    """Module-level per-seed job body (picklable for backend="process")."""
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
    backend: Optional[str] = None,
    **kwargs: Any,
) -> List[RunResult]:
    """One :func:`run` per seed on a fixed graph/machine, in seed order.

    Amortises context/topology setup across repetitions of a randomised
    experiment.  Extra ``kwargs`` (``max_rounds``, ``metering``,
    ``replay``, ...) are forwarded to every run.  With ``n_workers > 1`` the runs
    execute on a pool chosen by ``backend`` — ``"thread"`` (default;
    machine hooks must be thread-safe, pure machines are),
    ``"process"`` (true multi-core parallelism; graph, machine, inputs
    and results must pickle — every shipped machine does), or
    ``"auto"`` (process when everything pickles, else thread).  Results
    are in the same order as ``seeds`` and bit-for-bit independent of
    the backend.
    """
    _check_process_backend(backend, kwargs)
    one = partial(
        _run_with_seed,
        graph=graph, machine=machine, inputs=inputs,
        globals_map=globals_map, run_kwargs=kwargs,
    )
    return map_jobs(one, list(seeds), n_workers, backend=backend)


def _run_sweep_instance(
    inst: Any,
    *,
    machine: Optional[Machine],
    run_kwargs: Mapping[str, Any],
) -> RunResult:
    """Module-level per-instance job body (picklable for backend="process")."""

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
    backend: Optional[str] = None,
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

    With ``n_workers > 1`` instances execute on a pool chosen by
    ``backend``: ``"thread"`` (default), ``"process"`` (multi-core;
    instances, machines and results must pickle) or ``"auto"``.
    Results are bit-for-bit independent of the backend; instances are
    chunked so one warm process pool amortises across a whole
    experiment table (see :mod:`repro._util.parallel`).
    """
    instances = list(instances)
    _check_process_backend(backend, kwargs)
    for inst in instances:
        # Mapping instances merge into the run() kwargs in the worker,
        # so they can smuggle the same process-unsafe options past the
        # kwargs check above.
        if isinstance(inst, Mapping):
            _check_process_backend(backend, inst)
    one = partial(_run_sweep_instance, machine=machine, run_kwargs=kwargs)
    return map_jobs(one, instances, n_workers, backend=backend)


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
