"""EXP-PERF — substrate micro-benchmarks (simulator, verify, encodings).

These are *repeated-timing* benchmarks (pytest-benchmark auto-tunes
rounds): they profile the hot paths of the simulator and the exactness
machinery, the knobs that decide how large an instance the library can
handle.

``BENCH_perf.json`` (next to this file) is the checked-in baseline;
``compare.py`` fails a run that regresses a hot path by more than 25%
against it.  See ``README.md`` here for the metering modes and how the
engine benchmarks relate.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.analysis.verify import (
    check_edge_packing,
    edge_packing_feasible_fast,
)
from repro.core.colours import encode_colour_sequence
from repro.core.edge_packing import EdgePackingMachine, maximal_edge_packing
from repro.core.fractional_packing import (
    FractionalPackingMachine,
    fp_schedule_length,
)
from repro.dynamic import DynamicRun, RandomChurn, ServingHost
from repro.graphs import families
from repro.graphs.setcover import random_instance
from repro.graphs.weights import uniform_weights
from repro.simulator.runtime import run, run_on_setcover, run_reference, sweep
from repro._util.ordering import canonical_sorted
from repro._util.sizes import message_size_bits


@pytest.fixture(scope="module")
def medium_instance():
    g = families.random_regular(4, 128, seed=0)
    w = uniform_weights(128, 8, seed=1)
    res = maximal_edge_packing(g, w)
    return g, w, res


def test_perf_edge_packing_n128(benchmark):
    """Headline: full Section 3 run, metering on (the seed's default)."""
    g = families.random_regular(4, 128, seed=0)
    w = uniform_weights(128, 8, seed=1)
    res = benchmark.pedantic(
        maximal_edge_packing, args=(g, w), rounds=5, iterations=1
    )
    assert res.rounds > 0


def test_perf_edge_packing_n128_nometer(benchmark):
    """Headline: same run with metering off — the pure simulation cost
    (scaled-integer arithmetic, the default)."""
    g = families.random_regular(4, 128, seed=0)
    w = uniform_weights(128, 8, seed=1)
    res = benchmark.pedantic(
        lambda: maximal_edge_packing(g, w, metering="none"),
        rounds=5,
        iterations=1,
    )
    assert res.rounds > 0


def test_perf_edge_packing_n128_fraction_mode(benchmark):
    """The same run on all-Fraction transitions (arithmetic="fraction")
    — the denominator of the scaled-vs-fraction headline."""
    g = families.random_regular(4, 128, seed=0)
    w = uniform_weights(128, 8, seed=1)
    res = benchmark.pedantic(
        lambda: maximal_edge_packing(
            g, w, metering="none", arithmetic="fraction"
        ),
        rounds=5,
        iterations=1,
    )
    assert res.rounds > 0


def test_perf_fast_engine_n128(benchmark):
    """Bare fast engine (no packing assembly/cross-check) — the
    numerator workload of the engine-level speedup headline."""
    g = families.random_regular(4, 128, seed=0)
    w = uniform_weights(128, 8, seed=1)
    res = benchmark.pedantic(
        lambda: run(
            g,
            EdgePackingMachine(),
            inputs=list(w),
            globals_map={"delta": 4, "W": 8},
            metering="none",
        ),
        rounds=5,
        iterations=1,
    )
    assert res.all_halted


def test_perf_reference_engine_n128(benchmark):
    """The executable-specification engine on the same instance — the
    denominator of the engine-level speedup."""
    g = families.random_regular(4, 128, seed=0)
    w = uniform_weights(128, 8, seed=1)
    res = benchmark.pedantic(
        lambda: run_reference(
            g,
            EdgePackingMachine(),
            inputs=list(w),
            globals_map={"delta": 4, "W": 8},
            metering="none",  # engine-vs-engine headline: meter neither side
        ),
        rounds=5,
        iterations=1,
    )
    assert res.all_halted


def test_perf_sweep_batched_n64(benchmark):
    """Batched multi-instance execution through the sweep() API."""
    instances = []
    machine = EdgePackingMachine()
    for s in range(4):
        g = families.random_regular(4, 64, seed=s)
        w = uniform_weights(64, 8, seed=s)
        instances.append(
            {"graph": g, "inputs": list(w), "globals_map": {"delta": 4, "W": 8}}
        )
    results = benchmark.pedantic(
        lambda: sweep(instances, machine, metering="none"),
        rounds=3,
        iterations=1,
    )
    assert all(r.all_halted for r in results)


def test_perf_exact_verification(benchmark, medium_instance):
    g, w, res = medium_instance
    check = benchmark(lambda: check_edge_packing(g, w, res.y))
    assert check.ok


def test_perf_float_verification(benchmark, medium_instance):
    g, w, res = medium_instance
    y_float = [float(res.y[e]) for e in range(g.m)]
    ok = benchmark(lambda: edge_packing_feasible_fast(g, w, y_float))
    assert ok


def test_perf_colour_encoding(benchmark):
    delta, W = 6, 64
    from repro._util.rationals import factorial

    scale = factorial(delta) ** delta
    seq = [Fraction(i * 17 % (W * scale) + 1, scale) for i in range(delta)]
    code = benchmark(lambda: encode_colour_sequence(seq, delta, W))
    assert code > 0


def test_perf_canonical_sort(benchmark):
    values = [((i * 7919) % 97, Fraction(i, 3), f"s{i % 5}") for i in range(200)]
    out = benchmark(lambda: canonical_sorted(values))
    assert len(out) == 200


def test_perf_message_size_metering(benchmark):
    history = tuple(
        (Fraction(i, 3), ("wcv", i, i % 7, Fraction(i + 1, 2))) for i in range(300)
    )
    bits = benchmark(lambda: message_size_bits(history))
    assert bits > 0


def test_perf_set_cover_k3f2(benchmark):
    """The Section 4 machine run directly: the set-cover flow at 40
    nodes, 425 rounds, metering bits."""
    inst = random_instance(20, 20, k=3, f=2, W=2)
    rounds = fp_schedule_length(inst.f, inst.k, inst.W)
    res = benchmark.pedantic(
        lambda: run_on_setcover(
            inst, FractionalPackingMachine(), max_rounds=rounds, metering="bits"
        ),
        rounds=5,
        iterations=1,
    )
    assert res.all_halted and res.rounds == 425


def test_perf_message_experiment(benchmark):
    from repro.experiments.exp_messages import run

    table = benchmark.pedantic(run, kwargs={"n": 6}, rounds=3, iterations=1)
    assert len(table.rows) == 3


def _churn_session_blob():
    """A recorded session on the ``churn-serve`` shape (cycle n=1000,
    W=8), snapshotted, plus a fixed sequence of 16 two-edit
    ``RandomChurn`` batches that applies to it."""
    session = DynamicRun.vertex_cover(
        families.cycle_graph(1000), uniform_weights(1000, 8, seed=1)
    )
    blob = session.snapshot()
    stream = RandomChurn(edits_per_batch=2, seed=5, max_degree=2)
    batches = []
    while len(batches) < 16:
        batch = stream.next_batch(session.graph, session.inputs)
        if batch:
            session.apply(batch)
            batches.append(batch)
    return blob, batches


def test_perf_dynamic_session_open(benchmark):
    """Opening an incremental session: one full solve on the engine's
    loop, recording every node's rows and states as it runs."""
    g = families.cycle_graph(1000)
    w = uniform_weights(1000, 8, seed=1)
    session = benchmark.pedantic(
        DynamicRun.vertex_cover, args=(g, w), rounds=5, iterations=1
    )
    assert session.result.all_halted


def test_perf_dynamic_churn_batches(benchmark):
    """16 two-edit batches on that session: light-cone replays on the
    engine's loop (each round restores the session untimed)."""
    blob, batches = _churn_session_blob()

    def apply_all(session):
        for batch in batches:
            session.apply(batch)
        return session

    session = benchmark.pedantic(
        apply_all, setup=lambda: ((DynamicRun.restore(blob),), {}),
        rounds=5, iterations=1,
    )
    assert all(s.repaired_fraction < 1.0 for s in session.stats)


def test_perf_serving_apply(benchmark):
    """The same 16 batches through ``host.apply`` on a one-worker
    ``ServingHost``: transport, the worker-side replay and the host's
    commit, including its checkpoint refresh (each round opens a fresh
    session untimed)."""
    blob, batches = _churn_session_blob()
    host = ServingHost(workers=1)
    opened = []

    def open_session():
        opened.append(f"r{len(opened)}")
        host.open(opened[-1], blob)
        return (opened[-1],), {}

    def apply_all(sid):
        return [host.apply(sid, batch) for batch in batches]

    stats = benchmark.pedantic(
        apply_all, setup=open_session, rounds=5, iterations=1,
    )
    host.shutdown()
    assert all(s.repaired_fraction < 1.0 for s in stats)
