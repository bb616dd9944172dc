"""Long-stream soak: 100+ churn batches, incremental ≡ scratch throughout.

The short differential suite (``tests/test_dynamic.py``) drives a
handful of batches per cell; this soak drives **100+** batches per
cell across the full matrix — all three stream adversaries × both
vertex-cover flows × metering off and on — asserting the seven-field
``RunResult`` contract after *every* batch.  Long streams are where
drift compounds: a warm-restart bug that survives 4 batches rarely
survives 100 (stale history columns, memo leaks across generations,
port renumbering debt from repeated vertex churn all accumulate).

The soak also pins the memory contract: the incremental session holds
one recorded history, whose columns cover exactly the current graph's
nodes after every batch, however long the stream runs.  And it pins
that the light cone itself ran: an incremental repair that raises
falls back to an exact full solve, so each batch is applied under a
tracer that must record no ``engine.fallback`` event.

CI runs this suite once, in the tier-1 job.
"""

from __future__ import annotations

import pytest

from repro.dynamic import DynamicRun, HubChurn, RandomChurn, SlidingWindowStream
from repro.graphs import families
from repro.graphs.weights import uniform_weights

from helpers import apply_loudly, assert_run_results_equal

SOAK_BATCHES = 110


def _stream(kind: str, seed: int, W: int, delta: int, window: int = 4):
    if kind == "random":
        return RandomChurn(edits_per_batch=2, seed=seed, W=W, max_degree=delta)
    if kind == "hubs":
        return HubChurn(edits_per_batch=2, seed=seed)
    # The window must stay below the graph's degree headroom: a window
    # the stream cannot overflow never retires its links, and once the
    # headroom is gone every later batch would come back empty.
    return SlidingWindowStream(
        window=window, edits_per_batch=2, seed=seed, max_degree=delta
    )


def _soak(graph, weights, *, algorithm, delta, W, metering, stream_kind, seed,
          window=4):
    kwargs = dict(algorithm=algorithm, delta=delta, W=W, metering=metering)
    inc = DynamicRun.vertex_cover(graph, weights, mode="incremental", **kwargs)
    scr = DynamicRun.vertex_cover(graph, weights, mode="scratch", **kwargs)
    stream = _stream(stream_kind, seed, W, delta, window=window)
    applied = 0
    for _ in range(SOAK_BATCHES):
        batch = stream.next_batch(inc.graph, inc.inputs)
        if not batch:
            continue
        apply_loudly(inc, batch)
        scr.apply(batch)
        applied += 1
        assert_run_results_equal(
            inc.result, scr.result, label_a="incremental", label_b="scratch"
        )
        # The memory contract: the session holds one history, whose
        # columns cover exactly the current graph's nodes.
        hist = inc._history
        n = inc.graph.n
        assert len(hist.out) == len(hist.st) == len(hist.deg) == n
        assert len(hist.halt_round) == len(hist.quiet_round) == n
    assert applied >= 100, f"stream went quiet: only {applied} batches"
    assert inc.cover() == scr.cover()
    assert inc.is_cover()


@pytest.mark.parametrize("metering", ["none", "bits"])
@pytest.mark.parametrize("stream_kind", ["random", "hubs", "window"])
def test_soak_port_flow(stream_kind, metering):
    g = families.gnp_random(16, 0.25, seed=31)
    w = uniform_weights(g.n, 3, seed=8)
    _soak(
        g, w,
        algorithm="port", delta=g.max_degree + 2, W=3,
        metering=metering, stream_kind=stream_kind, seed=13,
    )


@pytest.mark.parametrize("metering", ["none", "bits"])
@pytest.mark.parametrize("stream_kind", ["random", "hubs", "window"])
def test_soak_broadcast_flow(stream_kind, metering):
    # broadcast schedule is O(delta * 2^delta) rounds: pin delta=2 and
    # soak on a sparse graph (max degree 2, m=7 at n=12) so insertion
    # streams have degree headroom for 100+ live batches
    g = families.gnp_random(12, 0.09, seed=10)
    assert g.max_degree == 2
    w = uniform_weights(g.n, 3, seed=4)
    _soak(
        g, w,
        algorithm="broadcast", delta=2, W=3,
        metering=metering, stream_kind=stream_kind, seed=17, window=2,
    )
