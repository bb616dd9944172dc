"""Maximal edge packing in the port-numbering model (Section 3).

The algorithm finds a maximal edge packing ``y : E -> Q≥0`` (``y[v] <=
w_v`` for all nodes, every edge has a saturated endpoint) in
``O(Δ + log* W)`` synchronous rounds.  Saturated nodes then form a
2-approximate minimum-weight vertex cover (Bar-Yehuda–Even).

Structure (mirrors the paper):

**Phase I** (Section 3.2) runs Δ iterations of the offer/accept step:
every node with positive residual ``r(v)`` and at least one *active*
incident edge offers ``x(v) = r(v)/deg_active(v)``; each active edge
accepts ``min`` of its two offers.  An edge stays *active* while both
endpoints are unsaturated and their colour sequences agree; otherwise
it becomes permanently ``SATURATED`` or ``MULTICOLOURED`` (Lemma 1:
the maximum active degree drops each iteration, so Δ iterations empty
the active subgraph).  Nodes append their offers (or the element 1) to
their colour sequences; by Lemma 2 these sequences embed
order-preservingly into integers (:mod:`repro.core.colours`).

**Phase II** (Section 3.3) orients the unsaturated (= multicoloured)
edges from lower to higher colour — an acyclic orientation since
colours are totally ordered — and partitions them into Δ rooted
forests by the tail's port order.  Each forest is 3-coloured with
Cole–Vishkin + Goldberg–Plotkin–Shannon shift-down in ``O(log* χ)``
rounds, and the resulting ``3Δ`` colour classes of *stars* are
saturated one class at a time with the ``α``-ratio rule of the paper.

The machine follows a *global round schedule* computed from the public
parameters (Δ, W) only — every node is always in the same phase, which
is how an anonymous network sidesteps termination detection.

**Arithmetic modes.**  By Lemma 2 every Phase I quantity lies on the
``1/(Δ!)^Δ`` grid, so the default ``arithmetic="scaled"`` mode runs
Phase I offers, residual updates and colour-sequence growth on
:class:`repro._util.rationals.ScaledInt` — integer numerators against
the shared denominator ``(Δ!)^Δ``, no gcd normalisation — and falls
back to exact :class:`~fractions.Fraction` values only in the Phase II
star rounds (whose ``α``-ratio scaling leaves the grid) or if a value
ever left the Lemma 2 grid (asserted, never silent).
``arithmetic="fraction"`` keeps everything on ``Fraction``; the two
modes are observably identical — same outputs, same colour encodings,
same metered message bits — which ``tests/test_scaled_arithmetic.py``
pins differentially.

Implementation-level round accounting (asserted in tests):
``2Δ + 1`` rounds for Phase I, ``1`` forest-announcement round,
``T_cv(χ)`` Cole–Vishkin rounds, ``6`` shift-down/elimination rounds
and ``6Δ`` star rounds — total ``8Δ + T_cv(χ) + 8``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.colours import (
    chi_edge_packing,
    colour_radix,
    encode_colour_sequence,
)
from repro.core.cole_vishkin import (
    cv_pseudo_parent,
    cv_schedule_length,
    cv_step_colour,
    eliminate_class_colour,
    shift_down_root_colour,
)
from repro._util.identity import IdentityMemo
from repro._util.rationals import (
    FRACTION_ONE,
    FRACTION_ZERO,
    ScaledInt,
    column_scaled,
    factorial,
)
from repro.graphs.topology import PortNumberedGraph
from repro.graphs.weights import max_weight, validate_weights
from repro.simulator import state_layout
from repro.simulator.machine import PORT_NUMBERING, LocalContext, Machine
from repro.simulator.runtime import (
    MaxRoundsExceeded,
    RunResult,
    run_port_numbering,
)
from repro.simulator.state_layout import ColumnarPlan

__all__ = [
    "ACTIVE",
    "SATURATED",
    "MULTICOLOURED",
    "EdgePackingMachine",
    "EdgePackingResult",
    "build_schedule",
    "schedule_length",
    "edge_packing_job",
    "edge_packing_from_run",
    "maximal_edge_packing",
]

# Edge states (Lemma 1: transitions are one-way, ACTIVE -> {SAT, MULTI},
# MULTI -> SAT).
ACTIVE = "A"
SATURATED = "S"
MULTICOLOURED = "M"

# Integer codes for the columnar engine's estate column (index = code;
# ACTIVE must be 0, the column's fill value).
_EST_CODES = (ACTIVE, SATURATED, MULTICOLOURED)
_ACT, _SAT, _MUL = 0, 1, 2


def _decode_saturation(value: int) -> bool:
    """Wire payload of a columnar p1a/p1_settle emission, for metering."""
    return bool(value)


def _decode_offer(value: int, den: int) -> ScaledInt:
    """Wire payload of a columnar p1b emission, for metering."""
    return ScaledInt(value, den, den)


def _colour_digit(el: Any, scale: int, radix: int) -> int:
    """The Lemma 2 mixed-radix digit ``el · (Δ!)^Δ`` of a colour element.

    Validates the lemma's invariants (``0 < el <= W``, ``el·scale``
    integral) exactly as :func:`repro.core.colours.encode_colour_sequence`
    does per element, so accumulating digits round by round yields the
    identical encoding.
    """
    if type(el) is ScaledInt and el.den == scale:
        digit = el.num
    else:
        f = el.as_fraction() if type(el) is ScaledInt else el
        digit, rem = divmod(f.numerator * scale, f.denominator)
        if rem:
            raise ValueError(
                f"Lemma 2 violated: element {f} times (Δ!)^Δ is not integral"
            )
    if not 0 < digit < radix:
        raise ValueError(
            f"Lemma 2 violated: colour element outside (0, W] "
            f"(digit {digit}, radix {radix})"
        )
    return digit


# ----------------------------------------------------------------------
# Global round schedule
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_schedule(delta: int, W: int) -> Tuple[Tuple, ...]:
    """The deterministic phase tag for every round, given (Δ, W).

    Identical at every node; a node's behaviour in a round is a pure
    function of its state and the tag.
    """
    if delta < 0 or W < 1:
        raise ValueError(f"need Δ >= 0 and W >= 1, got {delta}, {W}")
    schedule: List[Tuple] = []
    for t in range(delta):
        schedule.append(("p1a", t))
        schedule.append(("p1b", t))
    schedule.append(("p1_settle",))
    schedule.append(("announce",))
    chi = colour_radix(delta, W) ** delta  # bound for our exact encoding
    for s in range(cv_schedule_length(chi)):
        schedule.append(("cv", s))
    for x in (3, 4, 5):
        schedule.append(("sd", x))
        schedule.append(("elim", x))
    for i in range(delta):
        for j in range(3):
            schedule.append(("star_req", i, j))
            schedule.append(("star_rep", i, j))
    return tuple(schedule)


def schedule_length(delta: int, W: int) -> int:
    """Exact number of rounds the machine takes (deterministic)."""
    return len(build_schedule(delta, W))


# ----------------------------------------------------------------------
# Per-node state
# ----------------------------------------------------------------------


@dataclass
class _State:
    """Private per-node state; never mutated after a transition (purity).

    Transitions are copy-on-write: every ``step`` returns a *new*
    ``_State`` and only the containers it rewrites are fresh — the rest
    are shared with the predecessor.  Colour sequences are tuples
    precisely so sharing them is free.  The discipline that makes this
    safe: a shared container is never mutated in place; in-place
    mutation happens only on copies made by :meth:`clone` (or explicit
    ``dict``/``list`` copies) inside the same transition.
    """

    idx: int  # position in the global schedule
    w: int  # own weight
    r: Any  # residual weight  w - y[v] (ScaledInt or Fraction)
    y: List[Any]  # packing value per port (ScaledInt or Fraction)
    estate: List[str]  # edge state per port
    own_seq: Tuple[Any, ...]  # own colour sequence (Phase I)
    # Colour bookkeeping comes in two observably identical flavours,
    # chosen once per run (``digit_mode``, stamped by start):
    #
    # * **digit mode** (small ``radix``): encodings are accumulated
    #   digit-by-digit as the sequences grow (one mixed-radix Lemma 2
    #   digit per p1b round) — own_acc/nbr_acc *are* the encoded
    #   prefixes, identical integers to encode_colour_sequence on the
    #   full sequences, and _finish_phase_one has no encoding pass.
    # * **sequence mode** (large Δ/W, where every digit is a bignum and
    #   per-port Horner accumulation would be quadratic): neighbour
    #   sequences are retained as tuples and encoded lazily at the end
    #   of Phase I — memoised, and only for ports that actually ended
    #   multicoloured (the only colours Phase II reads).
    digit_mode: bool = True
    own_acc: int = 0
    nbr_acc: Tuple[int, ...] = ()
    nbr_seq: Tuple[Tuple[Any, ...], ...] = ()  # per-port sequences (seq mode)
    scale: int = 1  # (Δ!)^Δ — the Lemma 2 denominator
    radix: int = 2  # W·(Δ!)^Δ + 1 — the colour digit radix
    x_cur: Optional[Any] = None  # offer computed in the last p1a round
    unit: Any = FRACTION_ONE  # the colour element "1" in this run's arithmetic
    colour_int: Optional[int] = None
    nbr_colour: List[Optional[int]] = field(default_factory=list)
    out_ports: List[int] = field(default_factory=list)
    forest_of_out: Dict[int, int] = field(default_factory=dict)  # port -> forest
    forest_in: List[Optional[int]] = field(default_factory=list)  # per port
    colour_f: Dict[int, int] = field(default_factory=dict)  # forest -> colour
    children_colour_f: Dict[int, Optional[int]] = field(default_factory=dict)
    star_replies: Dict[int, Tuple] = field(default_factory=dict)  # port -> msg
    # Derived caches.  ``sched``/``sched_len`` are stamped by start()
    # (the shared schedule tuple — every hook needs it, and an attribute
    # read beats re-deriving it from the globals).  ``forests`` and
    # ``down_ports`` freeze once Phase II topology is known (the
    # announce round): the forests this node belongs to, and the ports
    # with a ``forest_in`` entry — the down-edges along which this
    # node, as a parent, announces colours.  ``coasting`` marks a node
    # that provably does nothing for the rest of the schedule (no
    # forests, no multicoloured edges, no pending replies): its emit is
    # ``None`` and its step only advances ``idx``, so both hooks can
    # short-circuit — pure wall-clock, the node still runs every round
    # as the anonymous model requires.
    sched: Optional[Tuple[Tuple, ...]] = None
    sched_len: int = 0
    forests: Tuple[int, ...] = ()
    down_ports: Tuple[int, ...] = ()
    coasting: bool = False

    def clone(self) -> "_State":
        """Full copy whose mutable containers are safe to mutate."""
        return _State(
            idx=self.idx,
            w=self.w,
            r=self.r,
            y=list(self.y),
            estate=list(self.estate),
            own_seq=self.own_seq,
            digit_mode=self.digit_mode,
            own_acc=self.own_acc,
            nbr_acc=self.nbr_acc,
            nbr_seq=self.nbr_seq,
            scale=self.scale,
            radix=self.radix,
            x_cur=self.x_cur,
            unit=self.unit,
            colour_int=self.colour_int,
            nbr_colour=list(self.nbr_colour),
            out_ports=list(self.out_ports),
            forest_of_out=dict(self.forest_of_out),
            forest_in=list(self.forest_in),
            colour_f=dict(self.colour_f),
            children_colour_f=dict(self.children_colour_f),
            star_replies=dict(self.star_replies),
            sched=self.sched,
            sched_len=self.sched_len,
            forests=self.forests,
            down_ports=self.down_ports,
            coasting=self.coasting,
        )

    def evolve(self, idx: int) -> "_State":
        """Shallow successor at schedule position ``idx``.

        Shares every container with ``self``; the caller must *assign*
        fresh containers for whatever it changes, never mutate shared
        ones.
        """
        new = _State.__new__(_State)
        d = self.__dict__.copy()
        d["idx"] = idx
        new.__dict__ = d
        return new

    # -- helpers -------------------------------------------------------

    def active_ports(self) -> List[int]:
        return [p for p, s in enumerate(self.estate) if s == ACTIVE]

    def parent_forests(self) -> set:
        return {i for i in self.forest_in if i is not None}

    def child_forests(self) -> Dict[int, int]:
        """forest -> the out-port realising it (at most one per forest)."""
        return {i: p for p, i in self.forest_of_out.items()}

    def my_forests(self) -> set:
        return self.parent_forests() | set(self.forest_of_out.values())


class EdgePackingMachine(Machine):
    """The Section 3 algorithm as an anonymous port-numbering machine.

    Local input: the node's integer weight ``w_v``.
    Globals: ``delta`` (degree bound Δ) and ``W`` (weight bound).
    Output: ``{"in_cover": bool, "y": tuple per port, "colour": int}``.

    ``arithmetic`` selects the exact number representation:
    ``"scaled"`` (default) runs Phase I on the Lemma 2
    fixed-denominator integer grid, ``"fraction"`` keeps the original
    all-``Fraction`` transitions.  Both are exact and observably
    identical; outputs always report plain ``Fraction`` values.
    """

    model = PORT_NUMBERING

    ARITHMETIC_MODES = ("scaled", "fraction")

    def __init__(self, arithmetic: str = "scaled") -> None:
        if arithmetic not in self.ARITHMETIC_MODES:
            raise ValueError(
                f"arithmetic must be one of {self.ARITHMETIC_MODES}, "
                f"got {arithmetic!r}"
            )
        self.arithmetic = arithmetic
        # Schedule lookup is on the hot path of every hook; key the
        # memo by the identity of the shared per-run globals mapping.
        self._sched_cache = IdentityMemo()
        # Per-run scaled constants (denominator, zero, one) shared by
        # every node so same-denominator fast paths hit on `is`.
        self._arith_cache = IdentityMemo()

    # -- lifecycle -----------------------------------------------------

    def start(self, ctx: LocalContext) -> _State:
        w = ctx.input
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValueError(f"node weight must be a positive int, got {w!r}")
        delta = ctx.require_global("delta")
        W = ctx.require_global("W")
        if ctx.degree > delta:
            raise ValueError(f"node degree {ctx.degree} exceeds Δ={delta}")
        if w > W:
            raise ValueError(f"node weight {w} exceeds W={W}")
        d = ctx.degree
        sched, sched_len = self._sched(ctx)
        den, zero, one = self._scaled_constants(ctx)
        radix = W * den + 1
        digit_mode = radix.bit_length() <= 64
        # The scaled grid only pays while (Δ!)^Δ fits a machine word —
        # beyond that, fixed-denominator numerators are bignums where
        # reduced Fractions stay small, so the documented fallback to
        # Fraction applies to the whole run.
        if self.arithmetic == "scaled" and digit_mode:
            r: Any = ScaledInt(w * den, den, den)
            y0: Any = zero
            unit: Any = one
        else:
            r = Fraction(w)
            y0 = FRACTION_ZERO
            unit = FRACTION_ONE
        # Built via __new__ + a dict literal: the 20+-parameter
        # dataclass __init__ is measurable at n nodes per run.  Every
        # _State field must appear here (clone() is the cross-check).
        st = _State.__new__(_State)
        st.__dict__ = {
            "idx": 0,
            "w": w,
            "r": r,
            "y": [y0] * d,
            "estate": [ACTIVE] * d,
            "own_seq": (),
            "digit_mode": digit_mode,
            "own_acc": 0,
            "nbr_acc": (0,) * d,
            "nbr_seq": ((),) * d,
            "scale": den,
            "radix": radix,
            "x_cur": None,
            "unit": unit,
            "colour_int": None,
            "nbr_colour": [None] * d,
            "out_ports": [],
            "forest_of_out": {},
            "forest_in": [None] * d,
            "colour_f": {},
            "children_colour_f": {},
            "star_replies": {},
            "sched": sched,
            "sched_len": sched_len,
            "forests": (),
            "down_ports": (),
            "coasting": False,
        }
        return st

    def halted(self, ctx: LocalContext, state: _State) -> bool:
        # sched_len is stamped by start(); 0 means a hand-built state
        # (tests, fault injection) — fall back to the schedule.
        return state.idx >= (state.sched_len or self._sched(ctx)[1])

    # Quiescence protocol (see Machine): a coasting node is silent and
    # inbox-independent until the schedule runs out, so the fast engine
    # may park it and fast-forward its index in one go.

    def quiescent(self, ctx: LocalContext, state: _State) -> bool:
        return state.coasting and state.sched_len > 0

    def fast_forward(
        self, ctx: LocalContext, state: _State, max_elapsed: int
    ) -> Tuple[_State, int]:
        elapsed = min(max_elapsed, state.sched_len - state.idx)
        if elapsed <= 0:
            return state, 0
        return state.evolve(state.idx + elapsed), elapsed

    def output(self, ctx: LocalContext, state: _State) -> Dict[str, Any]:
        # Outputs are the external contract: always plain Fractions,
        # whichever internal arithmetic produced them.
        return {
            "in_cover": not state.r,
            "y": tuple(
                v.as_fraction() if type(v) is ScaledInt else v
                for v in state.y
            ),
            "colour": state.colour_int,
        }

    def _schedule(self, ctx: LocalContext) -> Tuple[Tuple, ...]:
        return self._sched(ctx)[0]

    def _scaled_constants(
        self, ctx: LocalContext
    ) -> Tuple[int, ScaledInt, ScaledInt]:
        """``(den, zero, one)`` with ``den = (Δ!)^Δ``, shared per run."""

        def build() -> Tuple[int, ScaledInt, ScaledInt]:
            den = factorial(ctx.require_global("delta")) ** ctx.require_global(
                "delta"
            )
            return den, ScaledInt(0, den, den), ScaledInt(den, den, den)

        return self._arith_cache.get_or_compute(ctx.globals, build)

    def _sched(self, ctx: LocalContext) -> Tuple[Tuple[Tuple, ...], int]:
        def build() -> Tuple[Tuple[Tuple, ...], int]:
            sched = build_schedule(
                ctx.require_global("delta"), ctx.require_global("W")
            )
            return sched, len(sched)

        return self._sched_cache.get_or_compute(ctx.globals, build)

    # -- emit ----------------------------------------------------------

    def emit(self, ctx: LocalContext, state: _State) -> Optional[List[Any]]:
        # Returning None means "silence on every port" (the runtime
        # expands it); the all-``None`` fast paths below keep the
        # star/colour rounds allocation-free for non-participants.
        if state.coasting:
            return None
        d = ctx.degree
        schedule = state.sched
        if schedule is None:  # hand-built state: recover the schedule
            schedule = self._sched(ctx)[0]
        idx = state.idx
        if idx >= (state.sched_len or len(schedule)):
            return None
        tag = schedule[idx]
        kind = tag[0]

        if kind == "star_req":
            _, i, j = tag
            p = self._port_of_forest(state, i)
            if (
                p is not None
                and state.estate[p] == MULTICOLOURED
                and state.r
                and state.colour_f.get(i) == j
            ):
                out: List[Any] = [None] * d
                out[p] = ("req", state.r)
                return out
            return None

        if kind == "star_rep":
            if not state.star_replies:
                return None
            out = [None] * d
            for p, msg in state.star_replies.items():
                out[p] = msg
            return out

        if kind in ("cv", "sd", "elim"):
            # Parents announce their per-forest colour down each in-edge.
            if not state.down_ports:
                return None
            out = [None] * d
            forest_in = state.forest_in
            colour_f = state.colour_f
            for p in state.down_ports:
                out[p] = colour_f[forest_in[p]]
            return out

        if kind in ("p1a", "p1_settle"):
            return [not state.r] * d

        if kind == "p1b":
            return [state.x_cur] * d

        if kind == "announce":
            if not state.forest_of_out:
                return None
            out = [None] * d
            for p, i in state.forest_of_out.items():
                out[p] = i
            return out

        raise AssertionError(f"unknown schedule tag {tag!r}")

    @staticmethod
    def _port_of_forest(state: _State, forest: int) -> Optional[int]:
        """The out-port realising ``forest``, i.e. ``child_forests().get``.

        Inlined scan (last match wins, like the dict comprehension it
        replaces) — building the inverse dict per hook call dominated
        the star rounds.
        """
        p = None
        for port, i in state.forest_of_out.items():
            if i == forest:
                p = port
        return p

    # -- step ----------------------------------------------------------

    def step(self, ctx: LocalContext, state: _State, inbox: Sequence[Any]) -> _State:
        idx = state.idx
        if state.coasting:
            # Spectator for the rest of the schedule: only idx advances.
            if idx >= state.sched_len:
                return state
            return state.evolve(idx + 1)
        schedule = state.sched
        if schedule is None:  # hand-built state: recover the schedule
            schedule = self._sched(ctx)[0]
        if idx >= (state.sched_len or len(schedule)):
            return state
        tag = schedule[idx]
        kind = tag[0]
        nxt = idx + 1

        # Dispatch ordered by round frequency: the 6Δ star rounds and
        # the colour pipeline dominate the schedule.
        if kind == "star_req":
            return self._head_process_requests(state, inbox, nxt, forest=tag[1])

        if kind == "star_rep":
            st = self._leaf_process_reply(state, inbox, nxt, forest=tag[1])
            if st.star_replies:
                st.star_replies = {}
            # All star business settled?  Nothing can reach this node in
            # the remaining rounds: requests only arrive over its
            # multicoloured edges, and it has no replies left to send.
            if MULTICOLOURED not in st.estate:
                st.coasting = True
            return st

        if kind == "cv":
            return self._cv_update(state, inbox, nxt)

        # Phase I rounds rewrite y/estate and the colour sequences
        # copy-on-write; everything untouched is shared with the
        # predecessor state.
        if kind == "p1b":
            st = state.evolve(nxt)
            self._p1b_update(st, inbox)
            return st

        if kind == "p1a":
            st = state.evolve(nxt)
            self._absorb_saturation_bits(st, inbox)
            r = st.r
            n_active = st.estate.count(ACTIVE) if r else 0
            if r and n_active:
                # Lemma 2: the residual stays on the (Δ!)^Δ grid under
                # division by the active degree — div_exact asserts it.
                st.x_cur = (
                    r.div_exact(n_active)
                    if type(r) is ScaledInt
                    else r / n_active
                )
            else:
                st.x_cur = None
            return st

        if kind == "sd":
            return self._shift_down_update(state, inbox, nxt)

        if kind == "elim":
            return self._eliminate_update(state, inbox, nxt, target=tag[1])

        if kind == "p1_settle":
            st = state.evolve(nxt)
            self._absorb_saturation_bits(st, inbox)
            self._finish_phase_one(st, ctx)
            return st

        if kind == "announce":
            st = state.evolve(nxt)
            forest_in = None
            for p, msg in enumerate(inbox):
                if msg is not None and state.estate[p] == MULTICOLOURED:
                    if forest_in is None:
                        forest_in = list(state.forest_in)
                        st.forest_in = forest_in
                        st.colour_f = dict(state.colour_f)
                    forest_in[p] = msg
                    st.colour_f.setdefault(msg, state.colour_int)
            # Phase II topology is now final: freeze the derived caches.
            st.down_ports = tuple(
                p for p, i in enumerate(st.forest_in) if i is not None
            )
            st.forests = tuple(st.my_forests())
            # No forests means no role in any remaining round: neither
            # the colour pipeline nor any star can involve this node.
            if not st.forests:
                st.coasting = True
            return st

        raise AssertionError(f"unknown schedule tag {tag!r}")

    # -- Phase I -------------------------------------------------------

    @staticmethod
    def _absorb_saturation_bits(st: _State, inbox: Sequence[Any]) -> None:
        """Neighbour saturation permanently saturates the shared edge.

        Copy-on-write: ``st.estate`` (shared with the predecessor) is
        replaced only if something actually changes.
        """
        estate = st.estate
        if not st.r:
            # Own saturation dominates: everything saturated.
            for s in estate:
                if s is not SATURATED and s != SATURATED:
                    st.estate = [SATURATED] * len(estate)
                    return
            return
        fresh: Optional[List[str]] = None
        for p, nbr_saturated in enumerate(inbox):
            if nbr_saturated and estate[p] != SATURATED:
                if fresh is None:
                    fresh = list(estate)
                    st.estate = fresh
                fresh[p] = SATURATED

    @staticmethod
    def _p1b_update(st: _State, inbox: Sequence[Any]) -> None:
        """Steps (ii)–(iii) of Phase I: accept offers, grow colours."""
        x_cur = st.x_cur
        own_el = x_cur if x_cur is not None else st.unit
        st.own_seq = st.own_seq + (own_el,)
        digit_mode = st.digit_mode
        if digit_mode:
            scale = st.scale
            radix = st.radix
            if x_cur is None:
                own_digit = scale
            elif type(x_cur) is ScaledInt and x_cur.den == scale:
                own_digit = x_cur.num  # the common case, inlined
                if not 0 < own_digit < radix:
                    raise ValueError(
                        f"Lemma 2 violated: colour element outside (0, W] "
                        f"(digit {own_digit}, radix {radix})"
                    )
            else:
                own_digit = _colour_digit(x_cur, scale, radix)
            st.own_acc = st.own_acc * radix + own_digit
            nbr_track: List[Any] = list(st.nbr_acc)
        else:
            nbr_track = list(st.nbr_seq)

        increments: Any = 0
        mismatched: List[int] = []
        estate = st.estate
        fresh_y: Optional[List[Any]] = None  # copy-on-write view of st.y
        for p, nbr_x in enumerate(inbox):
            nbr_el = nbr_x if nbr_x is not None else st.unit
            if digit_mode:
                if nbr_x is None:
                    nbr_digit = scale
                elif type(nbr_x) is ScaledInt and nbr_x.den == scale:
                    nbr_digit = nbr_x.num  # the common case, inlined
                    if not 0 < nbr_digit < radix:
                        raise ValueError(
                            f"Lemma 2 violated: colour element outside "
                            f"(0, W] (digit {nbr_digit}, radix {radix})"
                        )
                else:
                    nbr_digit = _colour_digit(nbr_x, scale, radix)
                nbr_track[p] = nbr_track[p] * radix + nbr_digit
                mismatch = own_digit != nbr_digit
            else:
                nbr_track[p] = nbr_track[p] + (nbr_el,)
                mismatch = None  # decided only where it matters (ACTIVE)
            if estate[p] == ACTIVE:
                # Both endpoints of an active edge made offers (an active
                # edge implies positive residuals and active degree >= 1
                # on both sides).
                if x_cur is None or nbr_x is None:
                    raise AssertionError(
                        "active edge without mutual offers — state desync"
                    )
                delta_y = min(x_cur, nbr_x)
                if fresh_y is None:
                    fresh_y = list(st.y)
                    st.y = fresh_y
                fresh_y[p] += delta_y
                increments += delta_y
                if mismatch is None:
                    mismatch = own_el != nbr_el
                if mismatch:
                    mismatched.append(p)
        if digit_mode:
            st.nbr_acc = tuple(nbr_track)
        else:
            st.nbr_seq = tuple(nbr_track)
        if increments:
            st.r = st.r - increments
        if st.r < 0:
            raise AssertionError("residual went negative — packing infeasible")
        if not st.r:
            # Own saturation dominates: all incident edges are saturated.
            for s in estate:
                if s is not SATURATED and s != SATURATED:
                    st.estate = [SATURATED] * len(estate)
                    break
        elif mismatched:
            fresh = list(estate)
            st.estate = fresh
            for p in mismatched:
                if fresh[p] == ACTIVE:
                    fresh[p] = MULTICOLOURED

    def _finish_phase_one(self, st: _State, ctx: LocalContext) -> None:
        """Read off colours, orient multicoloured edges, assign forests."""
        if any(s == ACTIVE for s in st.estate):
            raise AssertionError(
                "active edge survived Phase I — Lemma 1 violated (is the "
                "global Δ parameter really an upper bound on the degree?)"
            )
        if st.digit_mode:
            # The accumulators hold exactly encode_colour_sequence of
            # the grown sequences (same digits, same radix, same order).
            st.colour_int = st.own_acc
            st.nbr_colour = list(st.nbr_acc)
        else:
            delta = ctx.require_global("delta")
            W = ctx.require_global("W")
            st.colour_int = encode_colour_sequence(st.own_seq, delta, W)
            # Phase II only ever reads the colours of multicoloured
            # edges; skipping the rest avoids bignum encodes at scale.
            st.nbr_colour = [
                encode_colour_sequence(seq, delta, W)
                if st.estate[p] == MULTICOLOURED
                else None
                for p, seq in enumerate(st.nbr_seq)
            ]
        st.out_ports = [
            p
            for p in range(len(st.estate))
            if st.estate[p] == MULTICOLOURED and st.colour_int < st.nbr_colour[p]
        ]
        # Multicoloured edges have different colour sequences, hence
        # different encodings; ties are impossible.
        for p in range(len(st.estate)):
            if st.estate[p] == MULTICOLOURED and st.colour_int == st.nbr_colour[p]:
                raise AssertionError("multicoloured edge with equal colours")
        st.forest_of_out = {p: i for i, p in enumerate(st.out_ports)}
        st.colour_f = {i: st.colour_int for i in st.forest_of_out.values()}
        # A node with no multicoloured edges is out of the game one
        # round before announce can tell it so: nothing will ever be
        # addressed to it again.
        if MULTICOLOURED not in st.estate:
            st.coasting = True

    # -- Phase II colour pipeline ---------------------------------------

    def _cv_update(self, state: _State, inbox: Sequence[Any], nxt: int) -> _State:
        st = state.evolve(nxt)
        forests = state.forests
        if not forests:
            return st
        child = state.child_forests()
        colour_f = dict(state.colour_f)
        st.colour_f = colour_f
        for i in forests:
            if i in child:
                parent_colour = inbox[child[i]]
                if parent_colour is None:
                    raise AssertionError("missing parent colour in CV round")
                colour_f[i] = cv_step_colour(colour_f[i], parent_colour)
            else:  # root of its tree in forest i
                colour_f[i] = cv_step_colour(
                    colour_f[i], cv_pseudo_parent(colour_f[i])
                )
        return st

    def _shift_down_update(
        self, state: _State, inbox: Sequence[Any], nxt: int
    ) -> _State:
        st = state.evolve(nxt)
        forests = state.forests
        if not forests:
            return st
        child = state.child_forests()
        parents = state.parent_forests()
        colour_f = dict(state.colour_f)
        children_colour_f = dict(state.children_colour_f)
        st.colour_f = colour_f
        st.children_colour_f = children_colour_f
        for i in forests:
            prev = colour_f[i]
            if i in child:
                parent_colour = inbox[child[i]]
                if parent_colour is None:
                    raise AssertionError("missing parent colour in shift-down")
                colour_f[i] = parent_colour
            else:
                colour_f[i] = shift_down_root_colour(prev)
            # After shift-down all children of this node wear its old
            # colour; remember it for the elimination that follows.
            children_colour_f[i] = prev if i in parents else None
        return st

    def _eliminate_update(
        self, state: _State, inbox: Sequence[Any], nxt: int, target: int
    ) -> _State:
        st = state.evolve(nxt)
        hit = [i for i in state.forests if state.colour_f[i] == target]
        if not hit:
            return st
        child = state.child_forests()
        colour_f = dict(state.colour_f)
        st.colour_f = colour_f
        for i in hit:
            parent_colour = inbox[child[i]] if i in child else None
            colour_f[i] = eliminate_class_colour(
                colour_f[i], target, parent_colour,
                state.children_colour_f.get(i),
            )
        return st

    # -- Phase II star saturation ---------------------------------------

    @staticmethod
    def _head_process_requests(
        state: _State, inbox: Sequence[Any], nxt: int, forest: int
    ) -> _State:
        """The paper's α-rule: saturate all leaves or the root exactly."""
        st = state.evolve(nxt)
        forest_in = state.forest_in
        requests: Optional[List[Tuple[int, Any]]] = None
        for p, msg in enumerate(inbox):
            if msg is not None and forest_in[p] == forest and msg[0] == "req":
                if requests is None:
                    requests = []
                requests.append((p, msg[1]))
        if requests is None:
            return st
        st.y = list(state.y)
        st.estate = list(state.estate)
        st.star_replies = dict(state.star_replies)
        if not st.r:
            for p, _ru in requests:
                st.star_replies[p] = ("full",)
                st.estate[p] = SATURATED
            return st
        total = sum(ru for _p, ru in requests)
        scale_down = total > st.r
        for p, ru in requests:
            # alpha = total / r;  alpha <= 1: give each leaf its full
            # residual; alpha > 1: scale down so the root saturates.
            # The scaled-down value leaves the Lemma 2 grid, so this is
            # the documented fall-back to Fraction arithmetic.
            delta_y = ru * st.r / total if scale_down else ru
            st.y[p] += delta_y
            st.star_replies[p] = ("inc", delta_y)
            st.estate[p] = SATURATED
        st.r = st.r - (st.r if scale_down else total)
        if st.r < 0:
            raise AssertionError("residual went negative in star saturation")
        return st

    @staticmethod
    def _leaf_process_reply(
        state: _State, inbox: Sequence[Any], nxt: int, forest: int
    ) -> _State:
        st = state.evolve(nxt)
        p = EdgePackingMachine._port_of_forest(state, forest)
        if p is None:
            return st
        msg = inbox[p]
        if msg is None:
            return st
        st.estate = list(state.estate)
        if msg[0] == "full":
            st.estate[p] = SATURATED
        elif msg[0] == "inc":
            delta_y = msg[1]
            st.y = list(state.y)
            st.y[p] += delta_y
            st.r = st.r - delta_y
            if st.r < 0:
                raise AssertionError("residual went negative at a star leaf")
            st.estate[p] = SATURATED
        else:
            raise AssertionError(f"unexpected star reply {msg!r}")
        return st

    # -- columnar kernels (engine="columnar") ---------------------------
    #
    # Phase I on int64 columns: the Lemma 2 grid makes every Phase I
    # quantity a plain machine integer (numerators against the shared
    # (Δ!)^Δ denominator, mixed-radix colour digits), so the 2Δ+1
    # leading rounds vectorise as whole-array passes over a
    # StateLayout.  The kernels reproduce _absorb_saturation_bits /
    # the p1a offer / _p1b_update / _finish_phase_one *exactly* —
    # tests/test_columnar_engine.py pins bit-for-bit equality of every
    # RunResult field against the object engine and run_reference.

    #: int64 columns must never overflow; the largest value any column
    #: reaches is a colour accumulator < radix^Δ.
    _COLUMNAR_INT_BOUND = 2 ** 63

    def columnar_fields(
        self, graph: PortNumberedGraph, ctxs: Sequence[LocalContext]
    ) -> Optional[ColumnarPlan]:
        """Phase I (2Δ+1 rounds) as int64 columns, when the grid fits.

        Engages only for scaled-arithmetic digit-mode runs whose colour
        accumulators provably fit an ``int64`` (``radix^Δ < 2^63``).
        Anything else — fraction mode, bignum radix, missing/invalid
        globals (the object path raises the canonical error) — returns
        ``None``: falling back is always correct, engaging wrongly
        never is.
        """
        if self.arithmetic != "scaled" or not ctxs:
            return None
        g = ctxs[0].globals
        delta = g.get("delta")
        W = g.get("W")
        if not isinstance(delta, int) or isinstance(delta, bool):
            return None
        if not isinstance(W, int) or isinstance(W, bool):
            return None
        if delta < 1 or W < 1:
            return None
        den = factorial(delta) ** delta
        radix = W * den + 1
        if radix.bit_length() > 64:
            return None  # not digit mode: start() falls back to Fraction
        if radix ** delta >= self._COLUMNAR_INT_BOUND:
            return None  # colour accumulators would overflow int64
        return ColumnarPlan(
            rounds=2 * delta + 1,
            node_fields=(
                ("w", 0), ("r_num", 0), ("x_num", -1), ("own_acc", 0),
            ),
            edge_fields=(("y_num", 0), ("estate", _ACT), ("nbr_acc", 0)),
        )

    def start_columnar(
        self, layout: "state_layout.StateLayout", ctxs: Sequence[LocalContext]
    ) -> None:
        ctx0 = ctxs[0]
        delta = ctx0.require_global("delta")
        W = ctx0.require_global("W")
        den, _zero, one = self._scaled_constants(ctx0)
        sched, sched_len = self._sched(ctx0)
        weights = []
        for ctx in ctxs:  # same validation (and messages) as start()
            w = ctx.input
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValueError(
                    f"node weight must be a positive int, got {w!r}"
                )
            if ctx.degree > delta:
                raise ValueError(f"node degree {ctx.degree} exceeds Δ={delta}")
            if w > W:
                raise ValueError(f"node weight {w} exceeds W={W}")
            weights.append(w)
        w_col = layout.node["w"]
        w_col[:] = weights
        layout.node["r_num"][:] = w_col * den
        # x_num stays -1 (no offer yet); own_acc/y_num/nbr_acc stay 0,
        # estate stays ACTIVE — the declared fill values.
        layout.aux["ep"] = {
            "delta": delta, "den": den, "radix": W * den + 1, "one": one,
            "sched": sched, "sched_len": sched_len,
            "offers": [],  # per-p1b-round offer columns (rebuilds own_seq)
        }

    def emit_columnar(self, layout: "state_layout.StateLayout", r: int):
        np = state_layout.np
        aux = layout.aux["ep"]
        if r % 2 == 0:  # p1a / p1_settle: the saturation bit, every port
            values = (layout.node["r_num"] == 0).astype(np.int64)
            return values, np.ones(layout.n, dtype=bool), _decode_saturation
        # p1b: the current offer; x_num < 0 encodes None (no offer)
        x_num = layout.node["x_num"]
        return x_num, x_num >= 0, partial(_decode_offer, den=aux["den"])

    def step_columnar(
        self, layout: "state_layout.StateLayout", r: int,
        inbox_vals, inbox_sent,
    ) -> None:
        np = state_layout.np
        aux = layout.aux["ep"]
        delta, den, radix = aux["delta"], aux["den"], aux["radix"]
        r_num = layout.node["r_num"]
        x_num = layout.node["x_num"]
        estate = layout.edge["estate"]
        owner = layout.edge_owner

        if r % 2 == 0:  # p1a / p1_settle
            # _absorb_saturation_bits: own saturation dominates (all
            # ports), a neighbour's bit saturates the one shared edge.
            estate[(r_num == 0)[owner] | (inbox_sent & (inbox_vals != 0))] \
                = _SAT
            if r == 2 * delta:
                self._settle_columnar(layout)
                return
            # p1a: offer r / deg_active where both are positive.
            active_deg = layout.node_count(estate == _ACT)
            x_num[:] = -1
            idx = np.nonzero((r_num > 0) & (active_deg > 0))[0]
            if len(idx):
                q, rem = np.divmod(r_num[idx], active_deg[idx])
                if rem.any():
                    raise AssertionError(
                        "inexact scaled division — the Lemma 2 denominator "
                        "bound does not cover a Phase I offer"
                    )
                x_num[idx] = q
            return

        # p1b: grow colour accumulators, accept offers on active edges.
        aux["offers"].append(x_num.copy())
        own_digit = np.where(x_num >= 0, x_num, den)
        nbr_digit = np.where(inbox_sent, inbox_vals, den)
        if (
            ((own_digit <= 0) | (own_digit >= radix)).any()
            or ((nbr_digit <= 0) | (nbr_digit >= radix)).any()
        ):
            raise ValueError(
                f"Lemma 2 violated: colour element outside (0, W] "
                f"(radix {radix})"
            )
        layout.node["own_acc"][:] = layout.node["own_acc"] * radix + own_digit
        layout.edge["nbr_acc"][:] = layout.edge["nbr_acc"] * radix + nbr_digit
        active = estate == _ACT
        own_on_edge = x_num[owner]
        if bool((active & ((own_on_edge < 0) | ~inbox_sent)).any()):
            raise AssertionError(
                "active edge without mutual offers — state desync"
            )
        delta_y = np.where(active, np.minimum(own_on_edge, inbox_vals), 0)
        layout.edge["y_num"] += delta_y
        r_num -= layout.node_sum(delta_y)
        if (r_num < 0).any():
            raise AssertionError("residual went negative — packing infeasible")
        # Own saturation dominates mismatch (the object engine's
        # `if not st.r ... elif mismatched` order).
        newly_sat = (r_num == 0)[owner]
        estate[active & (own_digit[owner] != nbr_digit) & ~newly_sat] = _MUL
        estate[newly_sat] = _SAT

    def _settle_columnar(self, layout: "state_layout.StateLayout") -> None:
        """The _finish_phase_one invariants, checked column-wise."""
        estate = layout.edge["estate"]
        if bool((estate == _ACT).any()):
            raise AssertionError(
                "active edge survived Phase I — Lemma 1 violated (is the "
                "global Δ parameter really an upper bound on the degree?)"
            )
        own = layout.node["own_acc"][layout.edge_owner]
        if bool(((estate == _MUL) & (own == layout.edge["nbr_acc"])).any()):
            raise AssertionError("multicoloured edge with equal colours")

    def finish_columnar(
        self, layout: "state_layout.StateLayout", ctxs: Sequence[LocalContext]
    ) -> List[_State]:
        """Materialise post-settle _State objects for the object engine.

        Field-for-field what 2Δ+1 object-engine rounds would have left:
        the differential suite compares these states (and everything
        derived from them) with ``==``, so every reconstruction below
        must match _finish_phase_one's read-off exactly.
        """
        aux = layout.aux["ep"]
        delta, den, radix = aux["delta"], aux["den"], aux["radix"]
        one, sched, sched_len = aux["one"], aux["sched"], aux["sched_len"]
        offsets = layout.offsets.tolist()
        w_col = layout.node["w"].tolist()
        # One interning table across every column on the shared grid:
        # Phase I produces a handful of distinct values over thousands
        # of entries, and the shared instances also pool the lazy
        # as_fraction caches the output() read-off hits later.
        interned: Dict[int, ScaledInt] = {}
        r_col = column_scaled(
            layout.node["r_num"].tolist(), den, den, cache=interned
        )
        x_col = layout.node["x_num"].tolist()
        acc_col = layout.node["own_acc"].tolist()
        y_col = column_scaled(
            layout.edge["y_num"].tolist(), den, den, cache=interned
        )
        est_col = [_EST_CODES[c] for c in layout.edge["estate"].tolist()]
        nbr_col = layout.edge["nbr_acc"].tolist()
        offer_cols = []
        for col in aux["offers"]:
            vals = []
            for o in col.tolist():
                if o < 0:
                    vals.append(one)  # no offer that round
                else:
                    v = interned.get(o)
                    if v is None:
                        v = ScaledInt(o, den, den)
                        interned[o] = v
                    vals.append(v)
            offer_cols.append(vals)
        idx0 = 2 * delta + 1
        # Per-node structures are built under the _State copy-on-write
        # discipline (see _State.evolve: shared containers are replaced,
        # never mutated), so identical values may share one object —
        # across rounds *and* across nodes.  The caches below exploit
        # that: most nodes end Phase I with no multicoloured edges, and
        # their empty containers, per-degree fillers and (on uniform
        # instances) whole colour sequences collapse to a handful of
        # shared objects.
        has_mul = (
            layout.node_count(layout.edge["estate"] == _MUL) > 0
        ).tolist()
        no_ports: List[int] = []
        no_forests: Dict[int, int] = {}
        no_colours: Dict[int, int] = {}
        empty_children: Dict[int, Optional[int]] = {}
        empty_replies: Dict[int, Tuple] = {}
        forest_in_by_d: Dict[int, List[Optional[int]]] = {}
        nbr_seq_by_d: Dict[int, Tuple] = {}
        own_seq_cache: Dict[Tuple, Tuple] = {}
        states: List[_State] = []
        for v in range(layout.n):
            s, e = offsets[v], offsets[v + 1]
            d = e - s
            estate_v = est_col[s:e]
            nbr_acc_v = tuple(nbr_col[s:e])
            colour_int = acc_col[v]
            x_v = x_col[v]
            if has_mul[v]:
                out_ports = [
                    p for p in range(d)
                    if estate_v[p] == MULTICOLOURED
                    and colour_int < nbr_acc_v[p]
                ]
                forest_of_out = {p: i for i, p in enumerate(out_ports)}
                colour_f = {i: colour_int for i in forest_of_out.values()}
            else:
                out_ports = no_ports
                forest_of_out = no_forests
                colour_f = no_colours
            forest_in = forest_in_by_d.get(d)
            if forest_in is None:
                forest_in = forest_in_by_d[d] = [None] * d
                nbr_seq_by_d[d] = ((),) * d
            own_seq = tuple(col[v] for col in offer_cols)
            own_seq = own_seq_cache.setdefault(own_seq, own_seq)
            st = _State.__new__(_State)
            st.__dict__ = {
                "idx": idx0,
                "w": w_col[v],
                "r": r_col[v],
                "y": y_col[s:e],
                "estate": estate_v,
                "own_seq": own_seq,
                "digit_mode": True,
                "own_acc": colour_int,
                "nbr_acc": nbr_acc_v,
                "nbr_seq": nbr_seq_by_d[d],
                "scale": den,
                "radix": radix,
                # A standing offer is always the node's last p1b column
                # entry, so it is already interned (offers are > 0).
                "x_cur": interned[x_v] if x_v >= 0 else None,
                "unit": one,
                "colour_int": colour_int,
                "nbr_colour": list(nbr_acc_v),
                "out_ports": out_ports,
                "forest_of_out": forest_of_out,
                "forest_in": forest_in,
                "colour_f": colour_f,
                "children_colour_f": empty_children,
                "star_replies": empty_replies,
                "sched": sched,
                "sched_len": sched_len,
                "forests": (),
                "down_ports": (),
                "coasting": not has_mul[v],
            }
            states.append(st)
        return states


# ----------------------------------------------------------------------
# Top-level convenience API
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EdgePackingResult:
    """A maximal edge packing plus execution metadata.

    ``y`` maps each edge id of ``graph`` to its exact packing value;
    ``saturated`` is the set of saturated nodes (= the vertex cover);
    ``rounds`` is the measured synchronous round count.
    """

    graph: PortNumberedGraph
    weights: Tuple[int, ...]
    y: Dict[int, Fraction]
    saturated: frozenset
    rounds: int
    run: RunResult

    def packing_value(self) -> Fraction:
        """Σ_e y(e) — the dual objective (lower bound on OPT)."""
        return sum(self.y.values(), Fraction(0))

    def cover_weight(self) -> int:
        return sum(self.weights[v] for v in self.saturated)


def edge_packing_job(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    delta: Optional[int] = None,
    W: Optional[int] = None,
    max_rounds: Optional[int] = None,
    metering: Any = "bits",
    arithmetic: str = "scaled",
    engine: str = "object",
) -> Dict[str, Any]:
    """A validated :func:`repro.simulator.runtime.run` kwargs mapping.

    Suitable as a :func:`repro.simulator.runtime.sweep` instance;
    assemble the resulting :class:`RunResult` with
    :func:`edge_packing_from_run`.  ``engine`` selects the execution
    substrate (see :data:`repro.simulator.runtime.ENGINES`); results
    are bit-for-bit identical across engines.
    """
    weights = tuple(int(w) for w in weights)
    if delta is None:
        delta = graph.max_degree
    if W is None:
        W = max_weight(weights)
    validate_weights(weights, graph.n, W)
    needed = schedule_length(delta, W)
    job = {
        "graph": graph,
        "machine": EdgePackingMachine(arithmetic=arithmetic),
        "inputs": list(weights),
        "globals_map": {"delta": delta, "W": W},
        "max_rounds": needed if max_rounds is None else max_rounds,
        "metering": metering,
    }
    if engine != "object":
        # Included only when non-default, so the mapping stays a valid
        # run_reference() kwargs set for the default configuration.
        job["engine"] = engine
    return job


def edge_packing_from_run(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    result: RunResult,
) -> EdgePackingResult:
    """Assemble an :class:`EdgePackingResult` from a finished run.

    The per-edge values reported by the two endpoints are
    cross-checked; a mismatch would indicate a protocol bug, so it
    raises.
    """
    weights = tuple(int(w) for w in weights)
    if not result.all_halted:
        raise RuntimeError(
            f"edge packing did not halt within {result.rounds} rounds"
        )
    y: Dict[int, Fraction] = {}
    for v in graph.nodes():
        out_v = result.outputs[v]
        for p in range(graph.degree(v)):
            e = graph.edge_of_port(v, p)
            val = out_v["y"][p]
            if e in y:
                if y[e] != val:
                    raise AssertionError(
                        f"endpoint disagreement on edge {e}: {y[e]} vs {val}"
                    )
            else:
                y[e] = val
    saturated = frozenset(
        v for v in graph.nodes() if result.outputs[v]["in_cover"]
    )
    return EdgePackingResult(
        graph=graph,
        weights=weights,
        y=y,
        saturated=saturated,
        rounds=result.rounds,
        run=result,
    )


def maximal_edge_packing(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    delta: Optional[int] = None,
    W: Optional[int] = None,
    max_rounds: Optional[int] = None,
    metering: Any = "bits",
    arithmetic: str = "scaled",
    engine: str = "object",
) -> EdgePackingResult:
    """Run the Section 3 algorithm and assemble the packing.

    ``delta`` and ``W`` default to the instance's true maximum degree
    and weight; the paper allows any upper bounds, which callers may
    pass to study the round-count dependence.  ``metering`` is passed
    through to the runtime (see
    :class:`repro.simulator.runtime.Metering`); pass ``"none"`` for
    large perf runs where only the packing matters.  ``arithmetic``
    selects the machine's exact number representation (see
    :class:`EdgePackingMachine`); ``engine`` the execution substrate
    (see :data:`repro.simulator.runtime.ENGINES`).  A ``max_rounds``
    too small for the schedule fails loudly with
    :class:`~repro.simulator.runtime.MaxRoundsExceeded` (round count
    and non-halted node ids) — never a partial packing.
    """
    job = edge_packing_job(
        graph, weights, delta=delta, W=W, max_rounds=max_rounds,
        metering=metering, arithmetic=arithmetic, engine=engine,
    )
    job.pop("graph")
    machine = job.pop("machine")
    try:
        result = run_port_numbering(
            graph, machine, on_max_rounds="raise", **job
        )
    except MaxRoundsExceeded as exc:
        needed = schedule_length(
            delta if delta is not None else graph.max_degree,
            W if W is not None else max_weight(tuple(int(w) for w in weights)),
        )
        raise MaxRoundsExceeded(
            exc.rounds, exc.non_halted,
            detail=f"the edge-packing schedule needs exactly {needed} rounds",
        ) from None
    return edge_packing_from_run(graph, weights, result)
