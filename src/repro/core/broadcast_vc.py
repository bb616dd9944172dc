"""Vertex cover in the broadcast model by simulation (Section 5).

A vertex cover instance ``(G, w)`` is encoded as the fractional-packing
instance ``(H, w)`` with ``f = 2`` and ``k = Δ``: each node ``v``
becomes a subset node ``s(v)``, each edge ``e`` an element ``u(e)``.
The Section 4 algorithm ``A`` finds a maximal fractional packing of
``H`` — which *is* a maximal edge packing of ``G`` — but the elements
``u(e)`` are not physical computers.

The paper's simulation: each node ``v`` maintains ``h(v, i)``, the full
history of messages its subset node ``s(v)`` has broadcast during
``A``-rounds ``1..i``.  In every ``G``-round each node broadcasts its
entire history.  From its own history and a received neighbour history
``h(u, i-1)``, ``v`` can replay the element machine ``u(e)`` for the
edge towards that neighbour — the element's inbox at each round is
exactly ``{h(v, ·), h(u, ·)}``.  Because the broadcast model makes
``s(v)``'s transition depend only on the *multiset* of element
messages, ``v`` does not need to know which neighbour sent which
history.  Round complexity is unchanged (``O(Δ² + Δ log* W)``); message
*size* grows linearly with the round number — the trade-off the paper
points out, and which :mod:`repro.experiments.exp_section5` measures.

**Replay modes.**  The paper describes the replay as from-scratch:
at G-round ``t`` each element machine is re-simulated through all
``t`` A-rounds, making local recomputation quadratic in the round
number.  ``replay="scratch"`` implements exactly that, and is kept as
the executable reference contract.  The default
``replay="incremental"`` extends the previous round's replay instead:
a content-addressed memo (:class:`repro._util.memo.GenerationalMemo`)
holds the element states of the previous generation, and each G-round
replays only the one new A-round — once per edge, because an element's
inbox is the sorted pair of its endpoints' messages, so the second
endpoint reuses the first one's replay.  The memo is keyed on
hash-consed history ids (:class:`repro._util.memo.HistoryIds`): an id
names one full history content, so a hit is semantically identical to
a fresh replay, and a key hashes in O(1) instead of O(round).  Each
history is a :class:`repro._util.memo.History` built from its parent
by :meth:`~repro._util.memo.HistoryIds.extend`, and carries its id,
metered size and canonical key, so replay keys, bit-metering and
canonical keying of the rebroadcast histories cost O(1) per round
too.  Outputs, rounds, messages and metered bits are bit-for-bit
identical across modes — pinned by ``tests/test_replay_memo.py``.

One extra readout round is appended after ``A`` terminates so that
every node can also report the final packing values of its incident
elements (the covers themselves are known one round earlier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro._util.identity import IdentityMemo
from repro._util.memo import (
    REPLAY_INCREMENTAL,
    REPLAY_SCRATCH,
    GenerationalMemo,
    HistoryIds,
    validate_replay,
)
from repro._util.ordering import canonical_sorted
from repro.core.fractional_packing import (
    FractionalPackingMachine,
    fp_schedule_length,
)
from repro.simulator.machine import BROADCAST, LocalContext, Machine

__all__ = ["BroadcastVertexCoverMachine", "bvc_round_count"]


def bvc_round_count(delta: int, W: int) -> int:
    """Exact G-round count: the A-rounds plus one readout round."""
    return fp_schedule_length(2, max(1, delta), W) + 1


@dataclass
class _BVCState:
    idx: int  # current G-round == simulated A-round
    history: Tuple[Any, ...]  # messages s(v) broadcast in A-rounds 0..idx-1
    subset_state: Any  # state of s(v) after idx A-rounds
    incident: Tuple[Any, ...]  # final (y, saturated) multiset, set at readout
    # The run's (H-globals, element context, A-round count), stamped by
    # start; derived from the globals, so not part of equality or repr.
    view: Any = field(default=None, compare=False, repr=False)

    def clone(self) -> "_BVCState":
        return _BVCState(
            self.idx, self.history, self.subset_state, self.incident, self.view
        )


class BroadcastVertexCoverMachine(Machine):
    """Anonymous broadcast-model machine computing a 2-approximate VC.

    Local input: the node's integer weight.  Globals: ``delta``, ``W``.
    Output: ``{"in_cover": bool, "incident": multiset of
    (y, saturated) pairs, "weight": w}``.
    """

    model = BROADCAST

    def __init__(
        self, arithmetic: str = "scaled", replay: str = REPLAY_INCREMENTAL
    ) -> None:
        # The simulated Section 4 machine inherits the arithmetic mode;
        # replayed element machines therefore use it too.
        self._inner = FractionalPackingMachine(arithmetic=arithmetic)
        self.arithmetic = self._inner.arithmetic
        self.replay = validate_replay(replay)
        # Content-addressed memo of element replays: generation (= replay
        # length) -> {(k, W, smaller id, larger id): element state}.  The
        # ids name the two full history contents and the globals are the
        # ones the element machine was started with, so a hit is always
        # semantically identical to a fresh replay; evicting never
        # changes results, only wall-clock time.  The memo and the id
        # table travel together (pickling included); both are None in
        # scratch mode.
        incremental = replay == REPLAY_INCREMENTAL
        self._memo = GenerationalMemo() if incremental else None
        self._ids = HistoryIds() if incremental else None
        # Per-run H-side views, keyed by the identity of the run's shared
        # globals mapping and stamped on every state by start: one
        # H-globals object per run also keeps the inner machine's zero
        # cache (keyed the same way) hitting.
        self._h_views = IdentityMemo()

    def with_replay(self, replay: str) -> "BroadcastVertexCoverMachine":
        validate_replay(replay)
        if replay == self.replay:
            return self
        return BroadcastVertexCoverMachine(
            arithmetic=self.arithmetic, replay=replay
        )

    # -- contexts for the simulated H-nodes ------------------------------

    def _h_view(self, ctx: LocalContext) -> Tuple[Dict[str, int], LocalContext, int]:
        """``(H-globals, element context, A-round count)`` of ``ctx``'s run."""
        view = self._h_views.get(ctx.globals)
        if view is None:
            delta = ctx.require_global("delta")
            g = {"f": 2, "k": max(1, delta), "W": ctx.require_global("W")}
            ectx = LocalContext(degree=2, input={"role": "element"}, globals=g)
            view = self._h_views.put(
                ctx.globals, (g, ectx, fp_schedule_length(2, g["k"], g["W"]))
            )
        return view

    @staticmethod
    def _subset_ctx(ctx: LocalContext, g: Dict[str, int]) -> LocalContext:
        # Built from ctx, not stamped: fault adversaries move states
        # between nodes of different degrees.
        return LocalContext(
            degree=ctx.degree,
            input={"role": "subset", "weight": ctx.input},
            globals=g,
        )

    # -- lifecycle -------------------------------------------------------

    def start(self, ctx: LocalContext) -> _BVCState:
        w = ctx.input
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValueError(f"node weight must be a positive int, got {w!r}")
        view = self._h_view(ctx)
        subset_state = self._inner.start(self._subset_ctx(ctx, view[0]))
        history = () if self._ids is None else self._ids.empty
        return _BVCState(0, history, subset_state, (), view)

    def halted(self, ctx: LocalContext, state: _BVCState) -> bool:
        return state.idx > state.view[2]

    def output(self, ctx: LocalContext, state: _BVCState) -> Dict[str, Any]:
        sctx = self._subset_ctx(ctx, state.view[0])
        return {
            "in_cover": self._inner.output(sctx, state.subset_state)["in_cover"],
            "incident": state.incident,
            "weight": ctx.input,
        }

    # -- communication ----------------------------------------------------

    def emit(self, ctx: LocalContext, state: _BVCState) -> Any:
        if self.halted(ctx, state):
            return None
        return state.history

    def step(
        self, ctx: LocalContext, state: _BVCState, inbox: Sequence[Any]
    ) -> _BVCState:
        g, ectx, total = state.view
        if state.idx > total:
            return state
        st = state.clone()
        t = st.idx
        histories = [h for h in inbox if h is not None]
        if len(histories) != ctx.degree:
            raise AssertionError(
                f"expected {ctx.degree} neighbour histories, got {len(histories)}"
            )
        sctx = self._subset_ctx(ctx, g)

        if t < total:
            # Replay each incident element through t A-rounds to obtain
            # its round-t message, then advance s(v) by one A-round.
            element_msgs: List[Any] = []
            for h_u in histories:
                if len(h_u) != t:
                    raise AssertionError(
                        f"neighbour history has length {len(h_u)}, expected {t}"
                    )
                est = self._replay_element(ectx, st.history, h_u, t)
                element_msgs.append(self._inner.emit(ectx, est))
            subset_msg = self._inner.emit(sctx, st.subset_state)
            st.subset_state = self._inner.step(
                sctx, st.subset_state, tuple(canonical_sorted(element_msgs))
            )
            if self._ids is None:
                st.history = st.history + (subset_msg,)
            else:
                # Incremental mode: the new history's replay id, metered
                # size and canonical key come from the old one's in O(1).
                st.history = self._ids.extend(st.history, subset_msg)
        else:
            # Readout round: histories are complete; extract the final
            # element outputs (the edge packing values).
            summaries = []
            for h_u in histories:
                est = self._replay_element(ectx, st.history, h_u, total)
                out = self._inner.output(ectx, est)
                summaries.append((out["y"], out["saturated"]))
            st.incident = tuple(canonical_sorted(summaries))
        st.idx += 1
        return st

    def _replay_element(
        self,
        ectx: LocalContext,
        own: Sequence[Any],
        nbr: Sequence[Any],
        rounds: int,
    ) -> Any:
        """Re-simulate the element machine for ``rounds`` A-rounds.

        ``replay="scratch"``: the paper-literal loop — start the element
        machine fresh and step it through all ``rounds`` A-rounds.
        ``replay="incremental"``: reuse this generation's state if the
        edge's other endpoint already replayed it; otherwise look up the
        previous generation's state under the ids of the two histories'
        parents and step only the one new A-round, so repeated replays
        cost at most one step per edge per G-round instead of ``t``
        steps per endpoint at G-round ``t``.  Both paths produce
        identical states (an id names the full input).
        """
        memo = self._memo
        est = None
        start_tau = 0
        if memo is not None:
            # ectx.globals already are the H-globals (f, k, W); keying
            # on them keeps one machine instance safe to reuse across
            # runs with different parameters.  The element's inbox is
            # the sorted pair {own[τ], nbr[τ]}, so its state depends on
            # the unordered pair of histories: keys put the smaller id
            # first.
            g = ectx.globals
            kw = (g["k"], g["W"])
            own_id, own_parent = self._ids.of(own)
            nbr_id, nbr_parent = self._ids.of(nbr)
            key = kw + (min(own_id, nbr_id), max(own_id, nbr_id))
            est = memo.get(rounds, key)
            if est is not None:
                return est
            if rounds > 0:
                est = memo.get(
                    rounds - 1,
                    kw + (min(own_parent, nbr_parent), max(own_parent, nbr_parent)),
                )
                if est is not None:
                    start_tau = rounds - 1
        if est is None:
            est = self._inner.start(ectx)
        for tau in range(start_tau, rounds):
            inbox = tuple(canonical_sorted((own[tau], nbr[tau])))
            est = self._inner.step(ectx, est, inbox)
        if memo is not None:
            memo.put(rounds, key, est)
        return est
