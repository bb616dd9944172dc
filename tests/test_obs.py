"""Tracing on ≡ tracing off, bit for bit — plus trace well-formedness.

The observability layer (:mod:`repro.obs`) promises three things:

1. **No observer effect.**  Installing a tracer changes *nothing* about
   a run's results: every :class:`~repro.simulator.runtime.RunResult`
   field is identical traced and untraced, on every engine (object,
   columnar, reference), every pool backend, and every
   dynamic/serving mode.  This suite is that contract's differential
   pin.
2. **Disabled is a no-op.**  With no tracer installed, instrumentation
   sites reduce to one global read and a ``None`` check
   (``benchmarks/bench_obs.py`` gates the overhead; here we pin the
   API behaviour: ``current()`` is ``None``, nothing is recorded).
3. **One merged trace.**  Worker-side spans (process-pool chunks,
   serving workers) ship back with the results and land in the parent
   trace under distinct pid lanes, so a pooled run still yields a
   single loadable Chrome trace.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.edge_packing import EdgePackingMachine, schedule_length
from repro.dynamic import DynamicRun, RandomChurn, SetCoverChurn, ServingHost
from repro.graphs import families
from repro.graphs.setcover import random_instance
from repro.graphs.weights import uniform_weights, unit_weights
from repro.obs import (
    COUNTER_NAMES,
    EVENT_NAMES,
    EV_DYNAMIC_BATCH,
    EV_ENGINE_FALLBACK,
    EV_ENGINE_SELECTED,
    SPAN_NAMES,
    SPAN_PHASE,
    SPAN_ROUND,
    SPAN_RUN,
    summarize_trace,
)
from repro.simulator.runtime import run, run_reference, sweep

from helpers import assert_run_results_equal

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(autouse=True)
def no_leftover_tracer():
    """Every test starts and ends with tracing off."""
    obs.uninstall()
    yield
    obs.uninstall()


def _vc_case(n=24, W=3, seed=1):
    graph = families.cycle_graph(n)
    weights = (
        unit_weights(n) if W <= 1 else uniform_weights(n, W, seed=seed)
    )
    machine = EdgePackingMachine()
    delta = graph.max_degree
    return dict(
        graph=graph,
        machine=machine,
        inputs=list(weights),
        globals_map={"delta": delta, "W": max(weights)},
        max_rounds=schedule_length(delta, max(weights)),
    )


def _traced(fn, *args, **kwargs):
    tracer = obs.Tracer("test")
    with obs.tracing(tracer):
        result = fn(*args, **kwargs)
    return result, tracer


# ----------------------------------------------------------------------
# 1. No observer effect: traced ≡ untraced, field for field
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["object", "columnar"])
def test_traced_equals_untraced_engines(engine):
    kw = _vc_case()
    base = run(**kw, engine=engine)
    traced, tracer = _traced(run, **kw, engine=engine)
    assert_run_results_equal(base, traced, "untraced", "traced")
    assert tracer.events(SPAN_RUN), "run span missing"
    assert tracer.events(EV_ENGINE_SELECTED)
    if engine == "columnar":
        # The object rounds continue the columnar prefix's numbering.
        (phase,) = tracer.events(SPAN_PHASE)
        first = tracer.events(SPAN_ROUND)[0]
        assert first["args"]["round"] == phase["args"]["rounds"] > 0


def test_traced_equals_untraced_reference():
    kw = _vc_case()
    base = run_reference(**kw)
    traced, tracer = _traced(run_reference, **kw)
    assert_run_results_equal(base, traced, "untraced", "traced")
    (sel,) = tracer.events(EV_ENGINE_SELECTED)
    assert sel["args"]["engine"] == "reference"


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_traced_equals_untraced_sweep_backends(backend):
    from repro.core.edge_packing import edge_packing_job

    jobs = []
    for n in (16, 24):
        graph = families.cycle_graph(n)
        jobs.append(edge_packing_job(graph, unit_weights(n)))
    base = sweep(jobs, n_workers=2, backend=backend)
    traced, tracer = _traced(sweep, jobs, n_workers=2, backend=backend)
    for b, t in zip(base, traced):
        assert_run_results_equal(b, t, "untraced", "traced")
    # Worker (or worker-thread) round spans made it into the trace.
    assert tracer.events(SPAN_ROUND)
    if backend == "process":
        # Worker processes trace into their own buffers; the merged
        # trace holds them on per-worker pid lanes.
        data = tracer.chrome()
        lanes = [
            e["args"]["name"]
            for e in data["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        ]
        assert any(name.startswith("pool worker") for name in lanes), lanes
        worker_rounds = [
            e
            for e in data["traceEvents"]
            if e["name"] == SPAN_ROUND and e.get("pid", 0) > 0
        ]
        assert worker_rounds, "no worker-side round spans in the merged trace"


@pytest.mark.parametrize("mode", ["incremental", "scratch"])
def test_traced_equals_untraced_dynamic(mode):
    def drive():
        graph = families.cycle_graph(24)
        session = DynamicRun.vertex_cover(
            graph, [2] * 24, mode=mode, delta=4
        )
        stream = RandomChurn(edits_per_batch=3, seed=7, max_degree=4)
        for _ in range(4):
            batch = stream.next_batch(session.graph, session.inputs)
            if batch:
                session.apply(batch)
        return session.result

    base = drive()
    traced, tracer = _traced(drive)
    assert_run_results_equal(base, traced, "untraced", "traced")
    assert tracer.events(EV_DYNAMIC_BATCH)


@pytest.mark.parametrize("mode", ["incremental", "scratch"])
def test_traced_equals_untraced_setcover_churn(mode):
    inst = random_instance(
        n_subsets=6, n_elements=10, k=4, f=3, W=3, seed=5
    )

    def drive():
        session = DynamicRun.set_cover(inst, mode=mode)
        stream = SetCoverChurn(
            edits_per_batch=3, seed=11, f=inst.f, k=inst.k, W=inst.W
        )
        applied = 0
        for _ in range(5):
            batch = stream.next_batch(session.graph, session.inputs)
            if batch:
                session.apply(batch)
                applied += len(batch)
        return session.result, applied

    (base, a0) = drive()
    (traced, a1), _ = _traced(drive)
    assert a0 == a1 and a0 > 0, "stream produced no edits"
    assert_run_results_equal(base, traced, "untraced", "traced")


def test_traced_equals_untraced_serving_inprocess():
    def drive():
        host = ServingHost(workers=0)
        graph = families.cycle_graph(16)
        solo = DynamicRun.vertex_cover(
            graph, [1] * 16, mode="incremental", delta=4
        )
        host.open_session("s", solo)
        stream = RandomChurn(edits_per_batch=2, seed=3, max_degree=4)
        for _ in range(3):
            batch = stream.next_batch(solo.graph, solo.inputs)
            if batch:
                host.apply("s", batch)
                solo.apply(batch)
        served = DynamicRun.restore(host.snapshot("s"))
        host.shutdown()
        return served.result

    base = drive()
    traced, _ = _traced(drive)
    assert_run_results_equal(base, traced, "untraced", "traced")


# ----------------------------------------------------------------------
# 2. Disabled tracing is a no-op
# ----------------------------------------------------------------------


def test_disabled_tracer_records_nothing():
    assert obs.current() is None
    kw = _vc_case()
    run(**kw)
    assert obs.current() is None


def test_tracing_none_is_noop_region():
    with obs.tracing(None):
        assert obs.current() is None


def test_tracing_restores_previous():
    outer = obs.Tracer("outer")
    with obs.tracing(outer):
        with obs.tracing(obs.Tracer("inner")):
            assert obs.current().label == "inner"
        assert obs.current() is outer
    assert obs.current() is None


# ----------------------------------------------------------------------
# 3. Trace well-formedness and export
# ----------------------------------------------------------------------


def test_chrome_trace_shape_and_vocabulary():
    kw = _vc_case()
    _, tracer = _traced(run, **kw)
    tracer.count("memo.hit", 3)
    tracer.observe("latency", 1.5)
    data = tracer.chrome()
    assert set(data) == {"traceEvents", "displayTimeUnit", "metadata"}
    known = set(SPAN_NAMES) | set(EVENT_NAMES) | {
        "process_name",
        "counters",
    }
    for e in data["traceEvents"]:
        assert e["name"] in known, e["name"]
        assert e["ph"] in ("X", "i", "C", "M")
        if e["ph"] == "X":
            assert e["dur"] >= 0.0
            assert e["ts"] >= 0.0
    assert data["metadata"]["counters"]["memo.hit"] == 3
    assert data["metadata"]["histograms"]["latency"] == [1.5]


def test_dump_roundtrip_and_summarize(tmp_path):
    kw = _vc_case()
    _, tracer = _traced(run, **kw)
    path = tmp_path / "trace.json"
    tracer.dump(str(path))
    data = json.loads(path.read_text())
    assert data["traceEvents"]
    text = summarize_trace(data)
    assert "run" in text and "round" in text
    assert "engine.selected" in text


def test_absorb_merges_lanes_and_counters():
    parent = obs.Tracer("parent")
    worker = obs.Tracer("worker")
    worker.event(EV_ENGINE_SELECTED, engine="object", n=4, rounds=1)
    worker.count("memo.hit", 2)
    parent.count("memo.hit", 1)
    parent.absorb(worker.drain_remote(), lane="w0")
    parent.absorb(None)  # ignored
    assert parent.counters["memo.hit"] == 3
    data = parent.chrome()
    lanes = [
        e["args"]["name"]
        for e in data["traceEvents"]
        if e.get("ph") == "M"
    ]
    assert lanes == ["parent", "w0"]
    absorbed = [
        e
        for e in data["traceEvents"]
        if e.get("pid") == 1 and e.get("ph") != "M"
    ]
    assert absorbed and absorbed[0]["name"] == EV_ENGINE_SELECTED


def test_columnar_fallback_reason_recorded():
    # max_rounds below the columnar plan's horizon forces the typed
    # fallback to the object engine, with the reason in the event.
    kw = _vc_case()
    kw["max_rounds"] = 1
    tracer = obs.Tracer("t")
    with obs.tracing(tracer):
        run(**kw, engine="columnar", on_max_rounds="return")
    (selected,) = tracer.events(EV_ENGINE_SELECTED)
    assert selected["args"]["engine"] == "object"
    events = tracer.events(EV_ENGINE_FALLBACK)
    assert events
    assert events[0]["args"]["wanted"] == "columnar"
    assert "max_rounds" in events[0]["args"]["reason"]


def test_counter_names_vocabulary_is_exported():
    assert "memo.hit" in COUNTER_NAMES
    assert "serving.checkpoints" in COUNTER_NAMES
    assert all(isinstance(name, str) for name in COUNTER_NAMES)


def test_serving_report_counters_present():
    host = ServingHost(workers=0)
    report = host.report()
    assert set(report.counters) == {
        "serving.checkpoints",
        "serving.recoveries",
        "serving.replayed_batches",
    }
    assert all(v == 0 for v in report.counters.values())
