"""Shared test helpers: the bit-for-bit RunResult equivalence contract.

Every alternative execution path in the runtime — the columnar engine,
the dynamic incremental mode and the crash-recovering pools — promises
results *field-for-field identical* to the plain serial object engine.
The assertions here are that contract's single point of truth; the
suites import them instead of re-listing the seven RunResult fields.

On mismatch the error names the first differing field and the node (or
round, for ``per_round_bits``) where the divergence starts, mirroring
the diagnostic style of the CLI's ``--verify`` output
(``repro.cli._verify_diff``), so a failing differential test points at
the locus rather than dumping two whole result objects.

:class:`Echo` is a small quiescence-protocol machine for either model,
shared by the engine and the dynamic-session suites.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro import obs
from repro.simulator.machine import BROADCAST, Machine

__all__ = [
    "RUN_RESULT_FIELDS",
    "describe_difference",
    "assert_run_results_equal",
    "assert_result_lists_equal",
    "apply_loudly",
    "Echo",
]

#: Every field of :class:`repro.simulator.runtime.RunResult`, in the
#: order they are compared.  Kept as a tuple so tests can subset it
#: (e.g. skip metering fields when comparing metered vs unmetered runs).
RUN_RESULT_FIELDS: Tuple[str, ...] = (
    "outputs",
    "rounds",
    "all_halted",
    "messages_sent",
    "message_bits",
    "per_round_bits",
    "states",
)


def _short(value, width: int = 48) -> str:
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def describe_difference(a, b, field: str) -> str:
    """Human-readable locus of the first difference in one field."""
    va, vb = getattr(a, field), getattr(b, field)
    if isinstance(va, (list, tuple)) and isinstance(vb, (list, tuple)):
        if len(va) != len(vb):
            return f"lengths differ: {len(va)} != {len(vb)}"
        idx = next(i for i, (x, y) in enumerate(zip(va, vb)) if x != y)
        unit = "round" if field == "per_round_bits" else "node"
        return (
            f"first difference at {unit} {idx}: "
            f"{_short(va[idx])} != {_short(vb[idx])}"
        )
    return f"{_short(va)} != {_short(vb)}"


def assert_run_results_equal(
    a,
    b,
    label_a: str = "a",
    label_b: str = "b",
    fields: Tuple[str, ...] = RUN_RESULT_FIELDS,
) -> None:
    """Assert two RunResults agree on every field, bit for bit.

    Raises AssertionError naming the first differing field and the
    node/round where the values diverge.
    """
    for field in fields:
        if getattr(a, field) != getattr(b, field):
            raise AssertionError(
                f"RunResult field {field!r} differs between {label_a} "
                f"and {label_b}: {describe_difference(a, b, field)}"
            )


def assert_result_lists_equal(
    xs: Iterable,
    ys: Iterable,
    label_a: str = "a",
    label_b: str = "b",
) -> None:
    """Element-wise :func:`assert_run_results_equal` over two sequences."""
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise AssertionError(
            f"result counts differ: {len(xs)} {label_a} != {len(ys)} {label_b}"
        )
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert_run_results_equal(
            x, y, label_a=f"{label_a}[{i}]", label_b=f"{label_b}[{i}]"
        )


def apply_loudly(session, batch):
    """``session.apply(batch)``, asserting the incremental repair did not
    fall back to a full solve on an exception.  The fallback keeps the
    result exact, so only its ``engine.fallback`` event shows it."""
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        stats = session.apply(batch)
    fallbacks = tracer.events(obs.EV_ENGINE_FALLBACK)
    assert not fallbacks, f"incremental repair fell back: {fallbacks}"
    return stats


class Echo(Machine):
    """A minimal quiescence-protocol machine for either model: a node
    with input ``k`` sends its running checksum and folds everything it
    hears into it for ``k`` rounds, then coasts silently to a fixed
    horizon.  Any inbox change before round ``k`` changes the output,
    so a replay that skips or parks a node too early cannot hide."""

    HORIZON = 12

    def __init__(self, model, quiet=True):
        self.model = model
        if not quiet:
            self.quiescent = None

    def start(self, ctx):
        # Degree in the seed: an edge edit changes the round-0 message.
        return (0, ctx.input + 7 * ctx.degree)

    def emit(self, ctx, state):
        i, value = state
        if i >= ctx.input:
            return None
        return value if self.model == BROADCAST else [value] * ctx.degree

    def step(self, ctx, state, inbox):
        i, value = state
        if i < ctx.input:
            for m in inbox:
                value = (value * 31 + (0 if m is None else m + 1)) % 1_000_003
        return (i + 1, value)

    def halted(self, ctx, state):
        return state[0] >= self.HORIZON

    def output(self, ctx, state):
        return state[1]

    def quiescent(self, ctx, state):
        return state[0] >= ctx.input

    def fast_forward(self, ctx, state, max_elapsed):
        elapsed = min(max_elapsed, self.HORIZON - state[0])
        if elapsed <= 0:
            return state, 0
        return (state[0] + elapsed, state[1]), elapsed
