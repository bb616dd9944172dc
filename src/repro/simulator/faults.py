"""Transient-fault adversaries: state corruption, message faults, crashes.

Section 1.5 of the paper notes that, being deterministic and strictly
local, its algorithms convert into efficient self-stabilising
algorithms via standard techniques ([4, 5, 23]).  The transformer in
:mod:`repro.selfstab` implements the technique of [23]
(Lenzen–Suomela–Wattenhofer): run the T-round algorithm as a pipeline
of T+1 stored states, recomputed every round.  The adversaries here
model the *transient faults* such an algorithm must survive:

* **state corruption** — arbitrary rewrites of node states between
  rounds (:class:`RandomStateCorruption`, :class:`TargetedCorruption`);
* **message faults** — per-link tampering with the messages in flight:
  :class:`MessageLoss` (a link silently drops its message),
  :class:`MessageCorruption` (a link delivers a plausible-but-wrong
  message), :class:`MessageDuplication` (a link re-delivers the
  previous round's message instead of the current one);
* **node crashes** — :class:`NodeCrash` (explicit crash-stop /
  crash-recover plan) and :class:`RandomCrashes` (seeded random
  crash-recover churn): a crashed node is silent and frozen, and on
  recovery reboots from ``machine.start()``.

Both engines (:func:`repro.simulator.runtime.run` and
:func:`~repro.simulator.runtime.run_reference`) drive the same hooks
in the same order, so fast ≡ reference holds bit-for-bit under every
adversary (pinned by ``tests/test_faults_messages.py``).

**Determinism.**  The seeded adversaries draw every decision from
:func:`_unit` — a :func:`hashlib.blake2b` hash of ``(seed, *key)``
where the key names the round and the link or node.  The schedule is
therefore a pure function of the constructor arguments: identical
across engines, in the parent and in worker processes, across
platforms, and across repeated runs.  Adversaries whose behaviour is
pure in this sense set ``process_safe = True`` and are accepted by
``sweep``/``run_many`` with ``n_workers > 1`` (their diagnostic
``events`` counter then stays in the worker — only the counter, never
the schedule, is lost).

Per-round hook order (both engines):

1. ``restarted(round, graph)`` — listed nodes reboot from ``start()``;
2. ``corrupt(round, graph, states)`` — gated by ``is_active(round)``;
3. halted is re-evaluated for changed states;
4. ``paused(round, graph)`` — listed nodes are silent and frozen this
   round (no ``emit``, no ``step``; they stay live, not halted);
5. live unpaused nodes emit; if ``tampers(round)``, the full set of
   directed links is handed to ``tamper(round, graph, links)`` and
   delivery + metering use the tampered values.

The ``links`` mapping covers *every* directed edge, in deterministic
order (sender ascending, then port/neighbour order): key ``(v, p)``
(sender, port) in the port-numbering model, ``(v, u)`` (sender,
receiver) in the broadcast model; the value is the message on that
link (``None`` = silence).  ``tamper`` may replace values but must
keep the key set unchanged.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.graphs.topology import PortNumberedGraph
from repro.obs import CTR_FAULT_EVENTS, EV_FAULT_INJECTED
from repro.obs import current as _tracer

__all__ = [
    "FAULT_KINDS",
    "FaultAdversary",
    "RandomStateCorruption",
    "TargetedCorruption",
    "MessageLoss",
    "MessageCorruption",
    "MessageDuplication",
    "NodeCrash",
    "RandomCrashes",
    "ComposedAdversary",
    "adversary_from_spec",
]

#: Fault kinds :func:`adversary_from_spec` understands; the CLIs build
#: their ``--fault`` / ``--fault-kind`` choices from this tuple.
FAULT_KINDS = ("none", "state", "loss", "duplication", "corruption", "crash")


def _unit(seed: Any, *key: Any) -> float:
    """Deterministic uniform draw in [0, 1) from a hashed (seed, key).

    Pure: no RNG state, no platform dependence (blake2b of the
    ``repr``), so fault schedules agree across engines, processes and
    hosts — the backbone of every ``process_safe`` adversary.
    """
    digest = hashlib.blake2b(
        repr((seed,) + key).encode(), digest_size=8
    ).digest()
    # 53 bits, not 64: a full 64-bit draw near 2**64 rounds to 1.0 in a
    # double, and callers rely on the draw being strictly below 1.
    return (int.from_bytes(digest, "big") >> 11) * 2.0**-53


def _note_fault(kind: str, round_index: int, count: int) -> None:
    """Log ``count`` injected fault events on the current tracer.

    The injected-event log: every adversary reports what it actually
    did each round, so a trace shows where the faults landed.  A no-op
    when tracing is off or nothing was injected.
    """
    if count <= 0:
        return
    tr = _tracer()
    if tr is None:
        return
    tr.event(EV_FAULT_INJECTED, kind=kind, round=round_index, events=count)
    tr.count(CTR_FAULT_EVENTS, count)


class FaultAdversary:
    """Base class: hooks an adversary may override, all defaulting to
    no-ops (see the module docstring for the per-round hook order).

    Contract for ``corrupt``: corruption must *replace* entries
    (``states[v] = bad``), never mutate a state object in place — the
    fast runtime detects corruption by entry identity and only
    re-evaluates ``halted`` for replaced entries.  Contract for
    ``tamper``: values may be replaced, the key set must not change.
    """

    #: True when the adversary's schedule is a pure function of its
    #: constructor arguments (hash-seeded, no shared RNG): worker
    #: processes accept it, with only the diagnostic ``events`` counter
    #: staying behind in the worker.  Conservative default: False.
    process_safe = False

    #: Diagnostic count of fault events injected so far (corruptions,
    #: tampered links, crashes).  Informational only.
    events = 0

    def corrupt(
        self, round_index: int, graph: PortNumberedGraph, states: List[Any]
    ) -> List[Any]:
        return states

    def is_active(self, round_index: int) -> bool:
        """Whether ``corrupt`` could touch any state this round.

        A conservative ``True`` is always sound; returning ``False``
        lets the fast runtime skip the corruption pass (and its
        halted-node re-checks) entirely for that round.  Overrides must
        guarantee ``corrupt`` is a no-op — including on any internal
        RNG — whenever this returns ``False``.
        """
        return True

    def tampers(self, round_index: int) -> bool:
        """Whether ``tamper`` could touch any link this round.

        When False the engines keep their (much faster) untampered
        delivery path; when True they build the full link map, hand it
        to :meth:`tamper`, and deliver + meter from the result.
        """
        return False

    def tamper(
        self,
        round_index: int,
        graph: PortNumberedGraph,
        links: Dict[Tuple[int, int], Any],
    ) -> Dict[Tuple[int, int], Any]:
        return links

    def paused(
        self, round_index: int, graph: PortNumberedGraph
    ) -> Iterable[int]:
        """Nodes that are crashed (silent and frozen) this round."""
        return ()

    def restarted(
        self, round_index: int, graph: PortNumberedGraph
    ) -> Iterable[int]:
        """Nodes rebooting from ``machine.start()`` at this round's start."""
        return ()


class RandomStateCorruption(FaultAdversary):
    """Corrupt random nodes' states during rounds ``[0, until_round)``.

    ``corruptor(rng, state)`` produces the corrupted state; by default
    states are replaced by states of *other random nodes* (a harsh but
    type-preserving corruption: the pipeline contents are plausible yet
    wrong).  Uses a shared :class:`random.Random`, so it is **not**
    ``process_safe`` (the draw order couples all nodes).
    """

    def __init__(
        self,
        until_round: int,
        rate: float = 0.3,
        seed: int = 0,
        corruptor: Callable[[random.Random, Any], Any] | None = None,
    ):
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.until_round = until_round
        self.rate = rate
        self.rng = random.Random(f"faults:{seed}")
        self.corruptor = corruptor
        self.corruptions = 0

    @property
    def events(self) -> int:
        return self.corruptions

    def is_active(self, round_index):
        return round_index < self.until_round

    def corrupt(self, round_index, graph, states):
        if round_index >= self.until_round:
            return states
        states = list(states)
        n = len(states)
        before = self.corruptions
        for v in range(n):
            if self.rng.random() < self.rate:
                if self.corruptor is not None:
                    states[v] = self.corruptor(self.rng, states[v])
                else:
                    states[v] = states[self.rng.randrange(n)]
                self.corruptions += 1
        _note_fault("state", round_index, self.corruptions - before)
        return states


class TargetedCorruption(FaultAdversary):
    """Corrupt an explicit set of nodes at an explicit set of rounds."""

    def __init__(self, plan: dict[int, dict[int, Any]]):
        """``plan[round][node] = corrupted state``."""
        self.plan = plan
        self.corruptions = 0

    @property
    def events(self) -> int:
        return self.corruptions

    def is_active(self, round_index):
        return round_index in self.plan

    def corrupt(self, round_index, graph, states):
        if round_index not in self.plan:
            return states
        states = list(states)
        for v, bad_state in self.plan[round_index].items():
            states[v] = bad_state
            self.corruptions += 1
        _note_fault("state", round_index, len(self.plan[round_index]))
        return states


class MessageLoss(FaultAdversary):
    """Each carrying link independently drops its message with
    probability ``rate`` during rounds ``[0, until_round)``.

    The receiver sees silence (``None``) on that link; lost messages
    are not counted or metered (they never reach the wire).
    """

    process_safe = True

    def __init__(self, until_round: int, rate: float = 0.2, seed: int = 0):
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.until_round = until_round
        self.rate = rate
        self.seed = seed
        self.events = 0

    def is_active(self, round_index):
        return False

    def tampers(self, round_index):
        return round_index < self.until_round and self.rate > 0.0

    def tamper(self, round_index, graph, links):
        rate, seed = self.rate, self.seed
        before = self.events
        for k, m in links.items():
            if m is not None and _unit(seed, "loss", round_index, k) < rate:
                links[k] = None
                self.events += 1
        _note_fault("loss", round_index, self.events - before)
        return links


class MessageCorruption(FaultAdversary):
    """Each carrying link independently delivers a corrupted message
    with probability ``rate`` during rounds ``[0, until_round)``.

    By default the corrupted value is the (pre-tamper) message of
    another hash-chosen carrying link — the message-level analogue of
    :class:`RandomStateCorruption`'s swap: type-plausible yet wrong.
    A custom ``corruptor(unit, message)`` (``unit`` a deterministic
    float in [0, 1)) may produce anything, including malformed values —
    the self-stabilising transformer must survive those too.
    """

    process_safe = True

    def __init__(
        self,
        until_round: int,
        rate: float = 0.1,
        seed: int = 0,
        corruptor: Callable[[float, Any], Any] | None = None,
    ):
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.until_round = until_round
        self.rate = rate
        self.seed = seed
        self.corruptor = corruptor
        self.events = 0

    def is_active(self, round_index):
        return False

    def tampers(self, round_index):
        return round_index < self.until_round and self.rate > 0.0

    def tamper(self, round_index, graph, links):
        sent = [(k, m) for k, m in links.items() if m is not None]
        if not sent:
            return links
        rate, seed = self.rate, self.seed
        before = self.events
        for k, m in sent:
            if _unit(seed, "corrupt", round_index, k) < rate:
                if self.corruptor is not None:
                    links[k] = self.corruptor(
                        _unit(seed, "value", round_index, k), m
                    )
                else:
                    j = int(_unit(seed, "pick", round_index, k) * len(sent))
                    links[k] = sent[j][1]
                self.events += 1
        _note_fault("corruption", round_index, self.events - before)
        return links


class MessageDuplication(FaultAdversary):
    """Each link independently re-delivers the *previous* round's
    message instead of the current one with probability ``rate``.

    In a synchronous model with one slot per link per round, a
    duplicate manifests as stale delivery: the receiver reads last
    round's message again.  Only messages actually sent last round are
    replayed (silence is never duplicated).  The one-round buffer makes
    this adversary stateful per run, but the state is rebuilt
    deterministically from the round sequence, so it is still
    ``process_safe``; like the others, do not share one instance across
    *concurrent* runs.
    """

    process_safe = True

    def __init__(self, until_round: int, rate: float = 0.2, seed: int = 0):
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.until_round = until_round
        self.rate = rate
        self.seed = seed
        self.events = 0
        self._last: Optional[Dict[Tuple[int, int], Any]] = None
        self._last_round = -2

    def is_active(self, round_index):
        return False

    def tampers(self, round_index):
        return round_index < self.until_round and self.rate > 0.0

    def tamper(self, round_index, graph, links):
        sent = dict(links)  # pre-tamper snapshot: what round r really sent
        if self._last is not None and self._last_round == round_index - 1:
            last, rate, seed = self._last, self.rate, self.seed
            before = self.events
            for k in links:
                old = last.get(k)
                if old is not None and _unit(
                    seed, "dup", round_index, k
                ) < rate:
                    links[k] = old
                    self.events += 1
            _note_fault("duplication", round_index, self.events - before)
        # A non-consecutive round (a fresh run reusing this instance)
        # invalidates the buffer above and re-seeds it here.
        self._last = sent
        self._last_round = round_index
        return links


class NodeCrash(FaultAdversary):
    """Crash-stop / crash-recover faults at explicitly planned rounds.

    ``plan[node] = (crash_round, recover_round | None)``: the node is
    down — silent, frozen, its inbox discarded — during rounds
    ``[crash_round, recover_round)``.  At ``recover_round`` it reboots
    from ``machine.start()`` and participates that same round.
    ``recover_round=None`` is a crash-stop: the node stays down forever
    and the run ends by ``max_rounds`` (``all_halted`` False).
    """

    process_safe = True

    def __init__(self, plan: Dict[int, Tuple[int, Optional[int]]]):
        self.plan = dict(plan)
        for v, (crash, recover) in self.plan.items():
            if crash < 0 or (recover is not None and recover <= crash):
                raise ValueError(
                    f"node {v}: invalid crash interval [{crash}, {recover})"
                )
        self.events = len(self.plan)

    def is_active(self, round_index):
        return False

    def paused(self, round_index, graph):
        down = tuple(
            sorted(
                v
                for v, (crash, recover) in self.plan.items()
                if crash <= round_index
                and (recover is None or round_index < recover)
            )
        )
        _note_fault("crash", round_index, len(down))
        return down

    def restarted(self, round_index, graph):
        return tuple(
            sorted(
                v
                for v, (_crash, recover) in self.plan.items()
                if recover == round_index
            )
        )


class RandomCrashes(FaultAdversary):
    """Seeded random crash-recover churn during rounds ``[0, until_round)``.

    Each up node crashes with probability ``rate`` per round; downtime
    is ``1..max_downtime`` rounds (hash-chosen), clamped so every node
    is rebooted by round ``until_round`` — after that the network is
    fault-free, which is what lets the self-stabilising transformer's
    "recovered within T" claim apply.  The schedule is a pure function
    of ``(seed, rate, max_downtime, until_round, n)`` (memoised per
    graph size); ``events`` counts the crashes of the most recently
    scheduled size.
    """

    process_safe = True

    def __init__(
        self,
        until_round: int,
        rate: float = 0.05,
        max_downtime: int = 3,
        seed: int = 0,
    ):
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if max_downtime < 1:
            raise ValueError(f"max_downtime must be >= 1, got {max_downtime}")
        self.until_round = until_round
        self.rate = rate
        self.max_downtime = max_downtime
        self.seed = seed
        self.events = 0
        self._sched: Dict[int, Tuple[Dict[int, Tuple[int, ...]],
                                     Dict[int, Tuple[int, ...]]]] = {}

    def _schedule(self, n: int):
        cached = self._sched.get(n)
        if cached is not None:
            return cached
        paused: Dict[int, List[int]] = {}
        restart: Dict[int, List[int]] = {}
        events = 0
        for v in range(n):
            r = 0
            while r < self.until_round:
                if _unit(self.seed, "crash", r, v) < self.rate:
                    down = 1 + int(
                        _unit(self.seed, "down", r, v) * self.max_downtime
                    )
                    recover = min(r + down, self.until_round)
                    for t in range(r, recover):
                        paused.setdefault(t, []).append(v)
                    restart.setdefault(recover, []).append(v)
                    events += 1
                    r = recover
                else:
                    r += 1
        sched = (
            {t: tuple(vs) for t, vs in paused.items()},
            {t: tuple(vs) for t, vs in restart.items()},
        )
        self._sched[n] = sched
        self.events = events
        return sched

    def is_active(self, round_index):
        return False

    def paused(self, round_index, graph):
        down = self._schedule(graph.n)[0].get(round_index, ())
        _note_fault("crash", round_index, len(down))
        return down

    def restarted(self, round_index, graph):
        return self._schedule(graph.n)[1].get(round_index, ())


class ComposedAdversary(FaultAdversary):
    """Apply several adversaries in order, every round.

    ``corrupt``/``tamper`` chain left to right (each sees the previous
    one's output); ``paused``/``restarted`` are unions.  Composition is
    ``process_safe`` only when every component is.
    """

    def __init__(self, *adversaries: FaultAdversary):
        self.adversaries = tuple(adversaries)

    @property
    def process_safe(self) -> bool:  # type: ignore[override]
        return all(
            getattr(a, "process_safe", False) for a in self.adversaries
        )

    @property
    def events(self) -> int:
        return sum(getattr(a, "events", 0) for a in self.adversaries)

    def is_active(self, round_index):
        return any(a.is_active(round_index) for a in self.adversaries)

    def corrupt(self, round_index, graph, states):
        for a in self.adversaries:
            if a.is_active(round_index):
                states = a.corrupt(round_index, graph, states)
        return states

    def tampers(self, round_index):
        return any(
            getattr(a, "tampers", _never)(round_index)
            for a in self.adversaries
        )

    def tamper(self, round_index, graph, links):
        for a in self.adversaries:
            if getattr(a, "tampers", _never)(round_index):
                links = a.tamper(round_index, graph, links)
        return links

    def paused(self, round_index, graph):
        out: set = set()
        for a in self.adversaries:
            out.update(getattr(a, "paused", _none)(round_index, graph))
        return tuple(sorted(out))

    def restarted(self, round_index, graph):
        out: set = set()
        for a in self.adversaries:
            out.update(getattr(a, "restarted", _none)(round_index, graph))
        return tuple(sorted(out))


def _never(round_index: int) -> bool:
    return False


def _none(round_index: int, graph: PortNumberedGraph) -> Tuple[int, ...]:
    return ()


def adversary_from_spec(
    kind: Optional[str],
    *,
    until_round: int = 10,
    rate: float = 0.2,
    seed: int = 0,
) -> Optional[FaultAdversary]:
    """Build the adversary a ``--fault`` CLI flag names.

    ``kind`` is one of :data:`FAULT_KINDS` (``None`` and ``"none"``
    return no adversary).  Faults are confined to rounds
    ``[0, until_round)``; after that the network is fault-free.
    """
    if kind is None or kind == "none":
        return None
    if kind == "state":
        return RandomStateCorruption(until_round, rate=rate, seed=seed)
    if kind == "loss":
        return MessageLoss(until_round, rate=rate, seed=seed)
    if kind == "duplication":
        return MessageDuplication(until_round, rate=rate, seed=seed)
    if kind == "corruption":
        return MessageCorruption(until_round, rate=rate, seed=seed)
    if kind == "crash":
        return RandomCrashes(until_round, rate=rate, seed=seed)
    raise ValueError(
        f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
    )
