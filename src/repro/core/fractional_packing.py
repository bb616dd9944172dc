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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro._util.identity import IdentityMemo
from repro._util.rationals import FRACTION_ZERO, ScaledInt, factorial
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


@dataclass
class _SubsetState:
    idx: int
    w: int
    r: Any  # residual (ScaledInt or Fraction)
    zero: Any = FRACTION_ZERO  # additive identity in this run's arithmetic
    x_by_colour: Dict[int, Any] = field(default_factory=dict)
    q_by_colour: Dict[int, Any] = field(default_factory=dict)
    wcv_relay: Tuple = ()
    tr_relay: Tuple = ()

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
        )


@dataclass
class _ElementState:
    idx: int
    c: int = 0  # colour in {0..D}
    y: Any = FRACTION_ZERO  # packing value (ScaledInt or Fraction)
    saturated: bool = False
    in_uyi: bool = False  # member of U_yi during the current phase
    p: Optional[Any] = None  # value from this iteration's phase
    cprime: Optional[int] = None  # weak-CV working colour
    c3: Optional[int] = None  # combined colour during trivial reduction

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
        )


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
        # Schedule lookup is on the hot path of every hook; key the
        # memo by the identity of the shared per-run globals mapping.
        self._sched_cache = IdentityMemo()
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
            return _SubsetState(idx=0, w=w, r=r, zero=zero)
        if role == "element":
            if ctx.degree > ctx.require_global("f"):
                raise ValueError(f"element degree {ctx.degree} exceeds f")
            if ctx.degree == 0:
                raise ValueError("element with no subsets: instance infeasible")
            return _ElementState(idx=0, y=zero)
        raise ValueError(f"node input must declare role subset/element, got {role!r}")

    def _schedule(self, ctx: LocalContext) -> Tuple[Tuple, ...]:
        return self._sched_cache.get_or_compute(
            ctx.globals,
            lambda: build_fp_schedule(
                ctx.require_global("f"),
                ctx.require_global("k"),
                ctx.require_global("W"),
            ),
        )

    def _params(self, ctx: LocalContext) -> Tuple[int, int, int, int]:
        f = ctx.require_global("f")
        k = ctx.require_global("k")
        W = ctx.require_global("W")
        return f, k, W, fp_out_degree_bound(f, k)

    def halted(self, ctx: LocalContext, state) -> bool:
        return state.idx >= len(self._schedule(ctx))

    def output(self, ctx: LocalContext, state) -> Dict[str, Any]:
        # Outputs are the external contract: always plain Fractions,
        # whichever internal arithmetic produced them.
        if isinstance(state, _SubsetState):
            return {"role": "subset", "in_cover": not state.r, "weight": state.w}
        y = state.y
        return {
            "role": "element",
            "y": y.as_fraction() if type(y) is ScaledInt else y,
            "saturated": state.saturated,
            "colour": state.c,
        }

    # -- emit ----------------------------------------------------------

    def emit(self, ctx: LocalContext, state) -> Any:
        schedule = self._schedule(ctx)
        if state.idx >= len(schedule):
            return None
        tag = schedule[state.idx]
        kind = tag[0]
        is_subset = isinstance(state, _SubsetState)

        if kind in ("sat_y", "sync_y"):
            return None if is_subset else state.y
        if kind in ("sat_r", "sync_r"):
            return state.r if is_subset else None
        if kind == "sat_m":
            if is_subset:
                return None
            return bool(state.in_uyi)
        if kind == "sat_x":
            if is_subset:
                return state.x_by_colour.get(tag[2])
            return None
        if kind == "sat_p":
            if is_subset:
                return None
            return state.p if state.in_uyi else None
        if kind == "wcv_elem":
            if is_subset or state.saturated:
                return None
            return ("triplet", state.cprime, state.c, state.p)
        if kind == "wcv_subset":
            return state.wcv_relay if is_subset else None
        if kind == "tr_elem":
            if is_subset or state.saturated:
                return None
            return ("colour", state.c3)
        if kind == "tr_subset":
            return state.tr_relay if is_subset else None
        raise AssertionError(f"unknown schedule tag {tag!r}")

    # -- step ----------------------------------------------------------

    def step(self, ctx: LocalContext, state, inbox: Sequence[Any]):
        schedule = self._schedule(ctx)
        if state.idx >= len(schedule):
            return state
        tag = schedule[state.idx]
        st = state.clone()
        if isinstance(st, _SubsetState):
            self._subset_step(ctx, st, tag, inbox)
        else:
            self._element_step(ctx, st, tag, inbox)
        st.idx += 1
        return st

    # -- subset behaviour ----------------------------------------------

    def _subset_step(
        self, ctx: LocalContext, st: _SubsetState, tag: Tuple, inbox: Sequence[Any]
    ) -> None:
        kind = tag[0]

        if kind in ("sat_y", "sync_y"):
            total = sum((m for m in inbox if m is not None), st.zero)
            st.r = st.w - total
            if st.r < 0:
                raise AssertionError("fractional packing infeasible: y[s] > w_s")
            if kind == "sat_y" and tag[2] == 0:
                # New iteration: forget the previous iteration's offers.
                st.x_by_colour = {}
                st.q_by_colour = {}

        elif kind == "sat_m":
            i = tag[2]
            count = sum(1 for m in inbox if m is True)
            if count > 0 and st.r > 0:
                st.x_by_colour[i] = st.r / count
            # (If r == 0 the subset is saturated; its neighbours already
            # saw r == 0 in sat_r and left U_yi, so count == 0.)

        elif kind == "sat_p":
            i = tag[2]
            values = [m for m in inbox if m is not None]
            if values and i in st.x_by_colour:
                st.q_by_colour[i] = min(values)

        elif kind == "wcv_elem":
            # Build the relay set of Section 4.5 step (ii).
            relay = set()
            for m in inbox:
                if m is None:
                    continue
                _tag, cprime_v, i, p_v = m
                if st.q_by_colour.get(i) == p_v and i in st.x_by_colour:
                    relay.add(("wcv", cprime_v, i, st.x_by_colour[i]))
            st.wcv_relay = tuple(sorted(relay))

        elif kind == "tr_elem":
            colours = sorted(m[1] for m in inbox if m is not None)
            st.tr_relay = ("colours", tuple(colours))

        elif kind in ("sat_r", "sat_x", "sync_r", "wcv_subset", "tr_subset"):
            pass  # subset only talks in these rounds

        else:
            raise AssertionError(f"unknown schedule tag {tag!r}")

    # -- element behaviour -----------------------------------------------

    def _element_step(
        self, ctx: LocalContext, st: _ElementState, tag: Tuple, inbox: Sequence[Any]
    ) -> None:
        kind = tag[0]
        f, k, W, D = self._params(ctx)

        if kind in ("sat_r", "sync_r"):
            residuals = [m for m in inbox if m is not None]
            if len(residuals) != ctx.degree:
                raise AssertionError("element missed a residual broadcast")
            st.saturated = any(r == 0 for r in residuals)
            if kind == "sat_r":
                st.in_uyi = (not st.saturated) and (st.c == tag[2])
            else:
                # Iteration boundary: set up the colouring phase.
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

        elif kind == "sat_x":
            if st.in_uyi:
                offers = [m for m in inbox if m is not None]
                if len(offers) != ctx.degree:
                    raise AssertionError(
                        "a neighbour of a U_yi member made no offer "
                        "(it must be in S'; state desync)"
                    )
                st.p = min(offers)

        elif kind == "sat_p":
            if st.in_uyi:
                st.y += st.p

        elif kind == "wcv_subset":
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
                if tag[2] == self._last_wcv_step(ctx):
                    # c2 in {0..5}; combine with the old colour: c3 = 6c + c2.
                    st.c3 = 6 * st.c + st.cprime

        elif kind == "tr_subset":
            if not st.saturated:
                target = tag[2]
                if st.c3 == target:
                    banned = set()
                    for m in inbox:
                        if m is None:
                            continue
                        banned.update(c for c in m[1] if c != target)
                    st.c3 = next(
                        c for c in range(D + 1) if c not in banned
                    )
                if target == D + 1:  # last elimination of this iteration
                    if st.c3 > D:
                        raise AssertionError("trivial colour reduction incomplete")
                    st.c = st.c3

        elif kind in ("sat_y", "sync_y", "sat_m", "wcv_elem", "tr_elem"):
            pass  # element only talks in these rounds

        else:
            raise AssertionError(f"unknown schedule tag {tag!r}")

    @lru_cache(maxsize=None)
    def _last_wcv_step_cached(self, f: int, k: int, W: int) -> int:
        D = fp_out_degree_bound(f, k)
        return cv_schedule_length(chi_fractional_packing(k, W, D) + 1) - 1

    def _last_wcv_step(self, ctx: LocalContext) -> int:
        f, k, W, _D = self._params(ctx)
        return self._last_wcv_step_cached(f, k, W)


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
