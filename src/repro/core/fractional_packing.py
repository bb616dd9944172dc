"""Maximal fractional packing in the broadcast model (Section 4).

The instance is the bipartite graph ``H = (S ∪ U, A)``: subset nodes
with weights, element nodes without input.  The algorithm maintains a
fractional packing ``y : U -> Q≥0`` (``y[s] <= w_s`` for every subset)
and an improper colouring ``c : U -> {0, ..., D}`` of the directed
multigraph ``K`` of length-2 paths between elements, where
``D = (k-1)f`` bounds the outdegree of ``K``.

Each of the ``D+1`` iterations runs:

* a **saturation phase** per colour ``i`` (Section 4.3, five broadcast
  rounds): elements announce ``y``; subsets announce residuals;
  elements of colour ``i`` that are unsaturated announce membership;
  subsets with such neighbours offer ``x_i(s) = r(s)/|U_yi(s)|``;
  members take ``p(u) = min`` offer, announce it (subsets record
  ``q_i(s) = min p``), and raise ``y(u)`` by ``p(u)``;
* a **colouring phase** (Section 4.4): unsaturated elements encode
  their ``p`` values into a χ-colouring ``c1`` of the DAG ``B`` of
  Lemma 3 (values strictly decrease along ``B``-edges), run the weak
  Cole–Vishkin reduction of Section 4.5 — each step is the two-round
  triplet relay protocol of the paper — down to the 6-colour fixpoint
  ``c2`` (see DESIGN.md "Documented deviations": the paper says 3; we
  stop at CV's natural fixpoint and let the trivial reduction absorb
  the difference at no asymptotic cost), combine ``c3 = 6c + c2``, and
  reduce back to ``D+1`` colours by eliminating colour classes one at
  a time (two broadcast rounds each).

The outdegree of every unsaturated element in ``K_yc`` drops by at
least one per iteration (each element either lost a ``B``-successor to
saturation or multicoloured one), so after ``D+1`` iterations every
element is saturated: the packing is maximal, and the saturated subset
nodes form an f-approximate minimum-weight set cover.

Round count: ``(D+1) · (5(D+1) + 2 + 2·T_wcv(χ) + 10(D+1))`` =
``O(f²k² + fk log* W)`` (Theorem 2), asserted exactly in tests.

**Arithmetic modes.**  Every ``p(u)`` is an integer multiple of
``1/(k!)^{(D+1)²}`` (the Section 4.4 denominator-control argument), so
the default ``arithmetic="scaled"`` mode runs the saturation phases on
:class:`repro._util.rationals.ScaledInt` values whose denominators
grow only as offers divide residuals (never past the bound — exceeding
it falls back to an exact :class:`~fractions.Fraction`, explicitly,
never silently).  ``arithmetic="fraction"`` keeps the original
all-``Fraction`` transitions; both modes are observably identical
(outputs, colours, metered bits), pinned by the differential suite.

**Compiled program.**  The schedule depends only on the public
``(f, k, W)``, so it is compiled once per triple (:func:`_fp_program`)
into four per-round handler tables: subset emit, element emit, subset
step and element step, with ``None`` where that role is silent or
idle.  ``start`` stamps the program on every state, so a hook is one
table index and one call — no string dispatch and no schedule lookup
per call.  States evolve copy-on-write: a successor shares every
container with its predecessor, a handler assigns a fresh
``x_by_colour``/``q_by_colour`` dict only when it writes one, and a
role idle in a round advances its index alone.  A subset with no
colours to relay in a trivial-reduction round sends one shared
constant ``("colours", ())``: equal to a fresh tuple, so bits, keys
and outputs are unchanged, while the identity-keyed payload memos hit
on it instead of pinning a new entry per node-round.  The message
stream is pinned by digests in ``tests/test_fractional_packing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._util.identity import IdentityMemo
from repro._util.rationals import FRACTION_ZERO, ScaledInt, factorial
from repro._util.states import copy_on_write
from repro.core.colours import chi_fractional_packing, encode_p_value
from repro.core.cole_vishkin import (
    cv_pseudo_parent,
    cv_schedule_length,
    cv_step_colour,
)
from repro.graphs.setcover import SetCoverInstance
from repro.simulator.machine import BROADCAST, LocalContext, Machine
from repro.simulator.runtime import RunResult, run_on_setcover

__all__ = [
    "FractionalPackingMachine",
    "FractionalPackingResult",
    "build_fp_schedule",
    "fp_schedule_length",
    "fp_out_degree_bound",
    "maximal_fractional_packing",
]


def fp_out_degree_bound(f: int, k: int) -> int:
    """``D = (k-1) f``: outdegree bound of the path multigraph ``K``."""
    if f < 1 or k < 1:
        raise ValueError(f"need f >= 1 and k >= 1, got {f}, {k}")
    return (k - 1) * f


@lru_cache(maxsize=None)
def build_fp_schedule(f: int, k: int, W: int) -> Tuple[Tuple, ...]:
    """Deterministic global round schedule for the Section 4 machine."""
    if W < 1:
        raise ValueError(f"need W >= 1, got {W}")
    D = fp_out_degree_bound(f, k)
    n_colours = D + 1
    chi = chi_fractional_packing(k, W, D) + 1
    t_wcv = cv_schedule_length(chi)
    schedule: List[Tuple] = []
    for j in range(n_colours):  # iterations
        for i in range(n_colours):  # saturation phase per colour
            schedule.append(("sat_y", j, i))
            schedule.append(("sat_r", j, i))
            schedule.append(("sat_m", j, i))
            schedule.append(("sat_x", j, i))
            schedule.append(("sat_p", j, i))
        schedule.append(("sync_y", j))
        schedule.append(("sync_r", j))
        for s in range(t_wcv):
            schedule.append(("wcv_elem", j, s))
            schedule.append(("wcv_subset", j, s))
        # Trivial colour reduction: eliminate classes 6(D+1)-1 .. D+1.
        for target in range(6 * n_colours - 1, D, -1):
            schedule.append(("tr_elem", j, target))
            schedule.append(("tr_subset", j, target))
    return tuple(schedule)


def fp_schedule_length(f: int, k: int, W: int) -> int:
    """Exact number of rounds of the Section 4 machine (deterministic)."""
    return len(build_fp_schedule(f, k, W))


def fp_den_limit(f: int, k: int) -> int:
    """Denominator bound for the scaled fast path.

    The Section 4.4 argument bounds every denominator by
    ``(k!)^{(D+1)²}``; past a machine word that exact bound buys
    nothing (the representation falls back to ``Fraction`` either
    way), so it is capped at ``2^64``.
    """
    D = fp_out_degree_bound(f, k)
    phases = (D + 1) ** 2
    kf = factorial(k)
    if phases * kf.bit_length() <= 64:
        return kf ** phases
    return 1 << 64


# ----------------------------------------------------------------------
# Per-node state
# ----------------------------------------------------------------------


# Per-node states are never mutated after a transition.  They are
# copy-on-write like repro.core.edge_packing._State
# (repro._util.states): a successor made by ``evolve`` shares every
# container with its predecessor, and a handler assigns a fresh dict for
# whatever it writes.  ``prog``, the run's compiled program stamped by
# ``start``, is derived from the globals, so it takes no part in
# equality or repr.


@copy_on_write
@dataclass(slots=True)
class _SubsetState:
    idx: int
    w: int
    r: Any  # residual (ScaledInt or Fraction)
    zero: Any = FRACTION_ZERO  # additive identity in this run's arithmetic
    x_by_colour: Dict[int, Any] = field(default_factory=dict)
    q_by_colour: Dict[int, Any] = field(default_factory=dict)
    wcv_relay: Tuple = ()
    tr_relay: Tuple = ()
    prog: Optional["_Program"] = field(default=None, compare=False, repr=False)

    def clone(self) -> "_SubsetState":
        return _SubsetState(
            idx=self.idx,
            w=self.w,
            r=self.r,
            zero=self.zero,
            x_by_colour=dict(self.x_by_colour),
            q_by_colour=dict(self.q_by_colour),
            wcv_relay=self.wcv_relay,
            tr_relay=self.tr_relay,
            prog=self.prog,
        )


@copy_on_write
@dataclass(slots=True)
class _ElementState:
    idx: int
    c: int = 0  # colour in {0..D}
    y: Any = FRACTION_ZERO  # packing value (ScaledInt or Fraction)
    saturated: bool = False
    in_uyi: bool = False  # member of U_yi during the current phase
    p: Optional[Any] = None  # value from this iteration's phase
    cprime: Optional[int] = None  # weak-CV working colour
    c3: Optional[int] = None  # combined colour during trivial reduction
    prog: Optional["_Program"] = field(default=None, compare=False, repr=False)

    def clone(self) -> "_ElementState":
        return _ElementState(
            idx=self.idx,
            c=self.c,
            y=self.y,
            saturated=self.saturated,
            in_uyi=self.in_uyi,
            p=self.p,
            cprime=self.cprime,
            c3=self.c3,
            prog=self.prog,
        )


# ----------------------------------------------------------------------
# Round handlers
# ----------------------------------------------------------------------
#
# Emit handlers take the state and return the payload.  Step handlers
# have the signature of Machine.step and return the successor state at
# the next schedule position.  Round parameters (colour, target, ...)
# are bound with functools.partial when the program is compiled.

# The relay of a subset with no colours to relay.  Equal to a fresh
# ("colours", ()), so bits, keys and outputs are unchanged, and the
# identity-keyed payload memos hit on it instead of pinning a new entry
# per node-round.
_EMPTY_RELAY: Tuple = ("colours", ())

_emit_r = attrgetter("r")
_emit_y = attrgetter("y")
_emit_wcv_relay = attrgetter("wcv_relay")
_emit_tr_relay = attrgetter("tr_relay")


def _emit_offer(i: int, st: _SubsetState) -> Any:
    return st.x_by_colour.get(i)


def _emit_membership(st: _ElementState) -> bool:
    return bool(st.in_uyi)


def _emit_p(st: _ElementState) -> Any:
    return st.p if st.in_uyi else None


def _emit_triplet(st: _ElementState) -> Any:
    if st.saturated:
        return None
    return ("triplet", st.cprime, st.c, st.p)


def _emit_colour(st: _ElementState) -> Any:
    if st.saturated:
        return None
    return ("colour", st.c3)


# -- subset steps ----------------------------------------------------------


def _subset_absorb_y(
    new_iteration: bool, ctx: LocalContext, state: _SubsetState, inbox: Sequence[Any]
) -> _SubsetState:
    st = state.evolve(state.idx + 1)
    total = sum((m for m in inbox if m is not None), st.zero)
    st.r = st.w - total
    if st.r < 0:
        raise AssertionError("fractional packing infeasible: y[s] > w_s")
    if new_iteration:
        # New iteration: forget the previous iteration's offers.
        st.x_by_colour = {}
        st.q_by_colour = {}
    return st


def _subset_offer(
    i: int, ctx: LocalContext, state: _SubsetState, inbox: Sequence[Any]
) -> _SubsetState:
    st = state.evolve(state.idx + 1)
    count = sum(1 for m in inbox if m is True)
    if count > 0 and st.r > 0:
        x_by_colour = dict(state.x_by_colour)
        x_by_colour[i] = st.r / count
        st.x_by_colour = x_by_colour
    # (If r == 0 the subset is saturated; its neighbours already saw
    # r == 0 in sat_r and left U_yi, so count == 0.)
    return st


def _subset_record_min(
    i: int, ctx: LocalContext, state: _SubsetState, inbox: Sequence[Any]
) -> _SubsetState:
    st = state.evolve(state.idx + 1)
    values = [m for m in inbox if m is not None]
    if values and i in state.x_by_colour:
        q_by_colour = dict(state.q_by_colour)
        q_by_colour[i] = min(values)
        st.q_by_colour = q_by_colour
    return st


def _subset_wcv_relay(
    ctx: LocalContext, state: _SubsetState, inbox: Sequence[Any]
) -> _SubsetState:
    # Build the relay set of Section 4.5 step (ii).
    x_by_colour = state.x_by_colour
    q_by_colour = state.q_by_colour
    relay = set()
    for m in inbox:
        if m is None:
            continue
        _tag, cprime_v, i, p_v = m
        if q_by_colour.get(i) == p_v and i in x_by_colour:
            relay.add(("wcv", cprime_v, i, x_by_colour[i]))
    st = state.evolve(state.idx + 1)
    st.wcv_relay = tuple(sorted(relay))
    return st


def _subset_tr_relay(
    ctx: LocalContext, state: _SubsetState, inbox: Sequence[Any]
) -> _SubsetState:
    colours = sorted(m[1] for m in inbox if m is not None)
    st = state.evolve(state.idx + 1)
    st.tr_relay = ("colours", tuple(colours)) if colours else _EMPTY_RELAY
    return st


# -- element steps -----------------------------------------------------------


def _saturated(ctx: LocalContext, inbox: Sequence[Any]) -> bool:
    residuals = [m for m in inbox if m is not None]
    if len(residuals) != ctx.degree:
        raise AssertionError("element missed a residual broadcast")
    return any(r == 0 for r in residuals)


def _element_join(
    colour: int, ctx: LocalContext, state: _ElementState, inbox: Sequence[Any]
) -> _ElementState:
    st = state.evolve(state.idx + 1)
    st.saturated = _saturated(ctx, inbox)
    st.in_uyi = (not st.saturated) and (st.c == colour)
    return st


def _element_sync(
    k: int,
    W: int,
    D: int,
    ctx: LocalContext,
    state: _ElementState,
    inbox: Sequence[Any],
) -> _ElementState:
    # Iteration boundary: set up the colouring phase.
    st = state.evolve(state.idx + 1)
    st.saturated = _saturated(ctx, inbox)
    st.in_uyi = False
    if not st.saturated:
        if st.p is None:
            raise AssertionError(
                "unsaturated element reached the colouring phase "
                "without a p-value"
            )
        st.cprime = encode_p_value(st.p, k, W, D)
    else:
        st.cprime = None
    return st


def _element_take_offer(
    ctx: LocalContext, state: _ElementState, inbox: Sequence[Any]
) -> _ElementState:
    st = state.evolve(state.idx + 1)
    if st.in_uyi:
        offers = [m for m in inbox if m is not None]
        if len(offers) != ctx.degree:
            raise AssertionError(
                "a neighbour of a U_yi member made no offer "
                "(it must be in S'; state desync)"
            )
        st.p = min(offers)
    return st


def _element_raise_y(
    ctx: LocalContext, state: _ElementState, inbox: Sequence[Any]
) -> _ElementState:
    st = state.evolve(state.idx + 1)
    if st.in_uyi:
        st.y = st.y + st.p
    return st


def _element_wcv_step(
    last: bool, ctx: LocalContext, state: _ElementState, inbox: Sequence[Any]
) -> _ElementState:
    st = state.evolve(state.idx + 1)
    if st.saturated:
        st.cprime = None
    elif st.cprime is not None:
        received = set()
        for m in inbox:
            if m is None:
                continue
            received.update(m)  # each subset relays a tuple of triplets
        L = {
            cprime_v
            for (_tag, cprime_v, i, x) in received
            if i == st.c and x == st.p and cprime_v != st.cprime
        }
        pseudo = min(L) if L else cv_pseudo_parent(st.cprime)
        st.cprime = cv_step_colour(st.cprime, pseudo)
        if last:
            # c2 in {0..5}; combine with the old colour: c3 = 6c + c2.
            st.c3 = 6 * st.c + st.cprime
    return st


def _element_eliminate(
    target: int, D: int, ctx: LocalContext, state: _ElementState, inbox: Sequence[Any]
) -> _ElementState:
    st = state.evolve(state.idx + 1)
    if not st.saturated:
        if st.c3 == target:
            banned = set()
            for m in inbox:
                if m is None:
                    continue
                banned.update(c for c in m[1] if c != target)
            st.c3 = next(c for c in range(D + 1) if c not in banned)
        if target == D + 1:  # last elimination of this iteration
            if st.c3 > D:
                raise AssertionError("trivial colour reduction incomplete")
            st.c = st.c3
    return st


# ----------------------------------------------------------------------
# Compiled program
# ----------------------------------------------------------------------


class _Program:
    """The Section 4 schedule for one ``(f, k, W)``, compiled to tables.

    ``subset_emit``/``element_emit`` hold one emit handler per round
    (``None``: the role is silent), ``subset_step``/``element_step``
    one step handler per round (``None``: the role is idle and only
    advances its index).  Built once per triple by :func:`_fp_program`
    and shared by every state of every run with those globals; pickles
    as a reference, so states carry it for free.
    """

    __slots__ = (
        "f",
        "k",
        "W",
        "D",
        "tags",
        "length",
        "last_wcv",
        "subset_emit",
        "element_emit",
        "subset_step",
        "element_step",
    )

    def __init__(self, f: int, k: int, W: int) -> None:
        tags = build_fp_schedule(f, k, W)
        D = fp_out_degree_bound(f, k)
        last_wcv = cv_schedule_length(chi_fractional_packing(k, W, D) + 1) - 1
        self.f, self.k, self.W, self.D = f, k, W, D
        self.tags = tags
        self.length = len(tags)
        self.last_wcv = last_wcv
        # One partial per distinct handler, shared by every round using it.
        absorb_y = {b: partial(_subset_absorb_y, b) for b in (False, True)}
        wcv_step = {b: partial(_element_wcv_step, b) for b in (False, True)}
        sync = partial(_element_sync, k, W, D)
        subset_emit: List[Optional[Callable]] = []
        element_emit: List[Optional[Callable]] = []
        subset_step: List[Optional[Callable]] = []
        element_step: List[Optional[Callable]] = []
        for tag in tags:
            kind = tag[0]
            if kind == "sat_y":
                row = (None, _emit_y, absorb_y[tag[2] == 0], None)
            elif kind == "sync_y":
                row = (None, _emit_y, absorb_y[False], None)
            elif kind == "sat_r":
                row = (_emit_r, None, None, partial(_element_join, tag[2]))
            elif kind == "sync_r":
                row = (_emit_r, None, None, sync)
            elif kind == "sat_m":
                row = (None, _emit_membership, partial(_subset_offer, tag[2]), None)
            elif kind == "sat_x":
                row = (partial(_emit_offer, tag[2]), None, None, _element_take_offer)
            elif kind == "sat_p":
                record_min = partial(_subset_record_min, tag[2])
                row = (None, _emit_p, record_min, _element_raise_y)
            elif kind == "wcv_elem":
                row = (None, _emit_triplet, _subset_wcv_relay, None)
            elif kind == "wcv_subset":
                row = (_emit_wcv_relay, None, None, wcv_step[tag[2] == last_wcv])
            elif kind == "tr_elem":
                row = (None, _emit_colour, _subset_tr_relay, None)
            elif kind == "tr_subset":
                eliminate = partial(_element_eliminate, tag[2], D)
                row = (_emit_tr_relay, None, None, eliminate)
            else:
                raise AssertionError(f"unknown schedule tag {tag!r}")
            subset_emit.append(row[0])
            element_emit.append(row[1])
            subset_step.append(row[2])
            element_step.append(row[3])
        self.subset_emit = tuple(subset_emit)
        self.element_emit = tuple(element_emit)
        self.subset_step = tuple(subset_step)
        self.element_step = tuple(element_step)

    def __reduce__(self):
        return (_fp_program, (self.f, self.k, self.W))


@lru_cache(maxsize=None)
def _fp_program(f: int, k: int, W: int) -> _Program:
    """The compiled program for ``(f, k, W)`` (one per triple)."""
    return _Program(f, k, W)


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------


class FractionalPackingMachine(Machine):
    """Section 4 algorithm; one program, role-dispatched (paper model).

    Local input: ``{"role": "subset", "weight": w}`` or
    ``{"role": "element"}``.  Globals: ``f``, ``k``, ``W``.

    ``arithmetic`` selects the exact number representation:
    ``"scaled"`` (default) keeps residuals, offers and packing values
    as :class:`ScaledInt` under the Section 4.4 denominator bound,
    ``"fraction"`` the original all-``Fraction`` transitions.  Outputs
    always report plain ``Fraction`` values.
    """

    model = BROADCAST

    ARITHMETIC_MODES = ("scaled", "fraction")

    def __init__(self, arithmetic: str = "scaled") -> None:
        if arithmetic not in self.ARITHMETIC_MODES:
            raise ValueError(
                f"arithmetic must be one of {self.ARITHMETIC_MODES}, "
                f"got {arithmetic!r}"
            )
        self.arithmetic = arithmetic
        # Per-run shared additive identity (scaled mode), so every node
        # starts from the same zero object.
        self._zero_cache = IdentityMemo()

    # -- lifecycle -----------------------------------------------------

    def _zero(self, ctx: LocalContext) -> Any:
        if self.arithmetic != "scaled":
            return FRACTION_ZERO
        return self._zero_cache.get_or_compute(
            ctx.globals,
            lambda: ScaledInt(
                0,
                1,
                fp_den_limit(
                    ctx.require_global("f"), ctx.require_global("k")
                ),
            ),
        )

    def start(self, ctx: LocalContext):
        role = (ctx.input or {}).get("role")
        zero = self._zero(ctx)
        if role == "subset":
            w = ctx.input.get("weight")
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValueError(f"subset weight must be a positive int, got {w!r}")
            if w > ctx.require_global("W"):
                raise ValueError(f"weight {w} exceeds W")
            if ctx.degree > ctx.require_global("k"):
                raise ValueError(f"subset degree {ctx.degree} exceeds k")
            r = zero + w  # w/1 in this run's arithmetic
            return _SubsetState(idx=0, w=w, r=r, zero=zero, prog=self._program(ctx))
        if role == "element":
            if ctx.degree > ctx.require_global("f"):
                raise ValueError(f"element degree {ctx.degree} exceeds f")
            if ctx.degree == 0:
                raise ValueError("element with no subsets: instance infeasible")
            return _ElementState(idx=0, y=zero, prog=self._program(ctx))
        raise ValueError(f"node input must declare role subset/element, got {role!r}")

    @staticmethod
    def _program(ctx: LocalContext) -> _Program:
        return _fp_program(
            ctx.require_global("f"),
            ctx.require_global("k"),
            ctx.require_global("W"),
        )

    def halted(self, ctx: LocalContext, state) -> bool:
        return state.idx >= state.prog.length

    def output(self, ctx: LocalContext, state) -> Dict[str, Any]:
        # Outputs are the external contract: always plain Fractions,
        # whichever internal arithmetic produced them.
        if type(state) is _SubsetState:
            return {"role": "subset", "in_cover": not state.r, "weight": state.w}
        y = state.y
        return {
            "role": "element",
            "y": y.as_fraction() if type(y) is ScaledInt else y,
            "saturated": state.saturated,
            "colour": state.c,
        }

    # -- hooks: one table lookup and one call --------------------------

    def emit(self, ctx: LocalContext, state) -> Any:
        prog = state.prog
        idx = state.idx
        if idx >= prog.length:
            return None
        if type(state) is _SubsetState:
            handler = prog.subset_emit[idx]
        else:
            handler = prog.element_emit[idx]
        return None if handler is None else handler(state)

    def step(self, ctx: LocalContext, state, inbox: Sequence[Any]):
        prog = state.prog
        idx = state.idx
        if idx >= prog.length:
            return state
        if type(state) is _SubsetState:
            handler = prog.subset_step[idx]
        else:
            handler = prog.element_step[idx]
        if handler is None:
            return state.evolve(idx + 1)
        return handler(ctx, state, inbox)


# ----------------------------------------------------------------------
# Top-level convenience API
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalPackingResult:
    """A maximal fractional packing plus execution metadata."""

    instance: SetCoverInstance
    y: Tuple[Fraction, ...]  # per element
    saturated_subsets: frozenset
    rounds: int
    run: RunResult

    def packing_value(self) -> Fraction:
        """Σ_u y(u) — the dual objective (lower bound on OPT)."""
        return sum(self.y, Fraction(0))

    def cover_weight(self) -> int:
        return sum(
            self.instance.weights[s] for s in self.saturated_subsets
        )


def maximal_fractional_packing(
    instance: SetCoverInstance,
    max_rounds: Optional[int] = None,
    arithmetic: str = "scaled",
) -> FractionalPackingResult:
    """Run the Section 4 algorithm on a set cover instance."""
    machine = FractionalPackingMachine(arithmetic=arithmetic)
    needed = fp_schedule_length(instance.f, instance.k, instance.W)
    result = run_on_setcover(
        instance,
        machine,
        max_rounds=needed if max_rounds is None else max_rounds,
    )
    if not result.all_halted:
        raise RuntimeError(
            f"fractional packing did not halt (needs exactly {needed} rounds)"
        )
    n_s = instance.n_subsets
    y = tuple(
        result.outputs[n_s + u]["y"] for u in range(instance.n_elements)
    )
    saturated = frozenset(
        s for s in range(n_s) if result.outputs[s]["in_cover"]
    )
    return FractionalPackingResult(
        instance=instance,
        y=y,
        saturated_subsets=saturated,
        rounds=result.rounds,
        run=result,
    )
