"""The node-program abstraction.

A :class:`Machine` is a *pure* Mealy machine describing the behaviour
of one node.  Keeping machines pure (all per-node data lives in an
explicit state value, methods have no side effects) is not just a
style choice: Section 5 of the paper *simulates* the Section 4
machines inside another machine, re-running them from recorded message
histories every round — which is only possible when transition
functions are replayable.

Anonymity is enforced structurally: a machine only ever receives a
:class:`LocalContext` (degree, local input, global parameters, an
optional seeded RNG) and its inbox.  Node identifiers exist solely in
the runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro._util.memo import validate_replay

__all__ = ["PORT_NUMBERING", "BROADCAST", "LocalContext", "Machine"]

PORT_NUMBERING = "port-numbering"
BROADCAST = "broadcast"


@dataclass(frozen=True)
class LocalContext:
    """Everything a node is allowed to know about itself.

    Attributes
    ----------
    degree:
        the node's degree (both models let a node count its ports /
        incident links).
    input:
        the node's local input — e.g. its weight ``w_v`` for vertex
        cover, or the role/weight dict for set cover instances.  May be
        ``None``.
    globals:
        network-wide parameters every node knows (the paper's Δ, W or
        f, k, W).  A read-only mapping.
    rng:
        a seeded per-node random generator, present only when the
        runtime was given a seed.  Deterministic algorithms must not
        use it; randomised baselines may.
    """

    degree: int
    input: Any = None
    globals: Mapping[str, Any] = field(default_factory=dict)
    rng: Optional[random.Random] = None

    def require_global(self, name: str) -> Any:
        try:
            return self.globals[name]
        except KeyError:
            raise KeyError(
                f"machine requires global parameter {name!r}; provided: "
                f"{sorted(self.globals)}"
            ) from None


class Machine:
    """Base class for node programs.

    Subclasses override the four hooks below.  ``model`` declares which
    communication model the machine is written for; the runtime refuses
    to run a machine under the wrong model.

    Hook contract (all *pure* — no mutation of ``self`` or arguments):

    ``start(ctx) -> state``
        initial state, computed before the first round.
    ``emit(ctx, state) -> message | Sequence[message]``
        in the broadcast model: one message (any canonical value, see
        :mod:`repro._util.ordering`); in the port-numbering model: a
        sequence of ``ctx.degree`` messages, entry ``p`` travelling out
        of port ``p``.  ``None`` entries mean "send nothing" (counted
        as silence, not as a message).
    ``step(ctx, state, inbox) -> state``
        state transition after receiving.  In the port-numbering model
        ``inbox[p]`` is the message that arrived through port ``p``; in
        the broadcast model ``inbox`` is a canonically sorted tuple —
        the multiset of neighbours' messages, stripped of any sender
        information.  The port-model inbox is a runtime-owned buffer
        reused between rounds: copy it if the state must retain it
        (purity already forbids aliasing mutable arguments).
    ``halted(ctx, state) -> bool``
        whether this node has terminated.  Once a node halts its state
        is frozen and the node is *silent*: the runtime stops calling
        ``emit`` and its neighbours read ``None`` on the shared links.
        The runtime stops when every node has halted.
    ``output(ctx, state) -> Any``
        the node's final (or current) output.

    **Optional quiescence protocol** (a pure optimisation; the
    reference engine ignores it, which is what makes the equivalence
    suite meaningful).  A machine may additionally implement

    ``quiescent(ctx, state) -> bool``
        promise that from ``state`` until the node halts, ``emit``
        returns ``None`` every round and ``step`` ignores its inbox
        entirely (the successor depends on the state alone);
    ``fast_forward(ctx, state, max_elapsed) -> (state', elapsed)``
        the state after ``elapsed <= max_elapsed`` such no-op rounds,
        stopping early exactly when the node halts.

    The fast engine uses these to park provably-passive nodes and skip
    their per-round hook calls; observable results (outputs, rounds,
    message and bit counts, final states) are identical by contract.

    **Optional replay protocol.**  Machines that re-derive simulated
    state every round (the Section 5 history machine, the
    self-stabilising transformer) accept a ``replay`` mode —
    ``"incremental"`` (content-addressed reuse of the previous round's
    work, see :mod:`repro._util.memo`) or ``"scratch"`` (the
    paper-literal recompute-everything reference).  ``with_replay``
    lets the runtime apply a run-level ``replay=`` argument uniformly:
    replay-aware machines return a reconfigured copy (with a fresh
    memo), all others validate the mode and return themselves
    unchanged — the knob is a pure optimisation and means nothing to a
    machine that never replays.

    **Optional columnar protocol** (another pure optimisation; see
    :mod:`repro.simulator.state_layout`).  Under
    ``run(engine="columnar")`` a machine may execute a *leading prefix*
    of its rounds as vectorised whole-array kernels over a
    :class:`~repro.simulator.state_layout.StateLayout` instead of
    per-node ``step()`` calls:

    ``columnar_fields(graph, ctxs) -> ColumnarPlan | None``
        declare the state columns (``int64``, or ``object`` columns of
        Python ints) and how many leading rounds the kernels cover;
        ``None`` (the default) opts the run out and the object engine
        handles it.  Machines must return ``None`` for any
        configuration their kernels do not reproduce exactly (wrong
        arithmetic mode, a value range the kernels do not cover, ...)
        — falling back is always correct, engaging wrongly never.
    ``start_columnar(layout, ctxs)``
        fill the declared columns with the initial state, applying the
        same input validation as ``start``.
    ``emit_columnar(layout, r) -> (values, sending, decode)``
        the round-``r`` emission as a per-half-edge value column —
        entry ``i`` travels out of half-edge ``i``, as entry ``p`` of
        an ``emit`` row travels out of port ``p`` — plus a boolean
        sending mask; delivery is the gather
        ``values[layout.reverse]``.  ``decode(int) -> message``
        rebuilds the wire payload for bits metering.
    ``step_columnar(layout, r, inbox_vals, inbox_sent)``
        the round-``r`` transition over per-half-edge inbox columns
        (``inbox_sent[i]`` false means silence — ``None`` — on that
        port).  The inbox columns are read-only; copy to retain.
    ``finish_columnar(layout, ctxs) -> states``
        materialise the per-node state objects the object engine (and
        ``output``/``halted``) consume for the remaining rounds.

    The engine contract is the same as for quiescence: observable
    results (outputs, rounds, message and bit counts, per-round bits,
    final states) are bit-for-bit identical to the object engine,
    pinned by ``tests/test_columnar_engine.py``.
    """

    model: str = PORT_NUMBERING

    def with_replay(self, replay: str) -> "Machine":
        """A machine configured for ``replay``; ``self`` if not replay-aware."""
        validate_replay(replay)
        return self

    # -- columnar protocol (opt-in; see class docstring) ---------------

    def columnar_fields(self, graph: Any, ctxs: Sequence[LocalContext]) -> Any:
        """The run's ``ColumnarPlan``, or ``None`` to use the object engine."""
        return None

    def start_columnar(self, layout: Any, ctxs: Sequence[LocalContext]) -> None:
        raise NotImplementedError

    def emit_columnar(self, layout: Any, r: int) -> Any:
        raise NotImplementedError

    def step_columnar(
        self, layout: Any, r: int, inbox_vals: Any, inbox_sent: Any
    ) -> None:
        raise NotImplementedError

    def finish_columnar(self, layout: Any, ctxs: Sequence[LocalContext]) -> Any:
        raise NotImplementedError

    def start(self, ctx: LocalContext) -> Any:
        raise NotImplementedError

    def emit(self, ctx: LocalContext, state: Any) -> Any:
        raise NotImplementedError

    def step(self, ctx: LocalContext, state: Any, inbox: Sequence[Any]) -> Any:
        raise NotImplementedError

    def halted(self, ctx: LocalContext, state: Any) -> bool:
        raise NotImplementedError

    def output(self, ctx: LocalContext, state: Any) -> Any:
        raise NotImplementedError
