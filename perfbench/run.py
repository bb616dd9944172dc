#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload port-oneshot --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for generator parameters):

* ``port-oneshot`` — Section 3 vertex cover, columnar engine, two
  large-n shapes; one operation is one solve of the instance set.
* ``broadcast-oneshot`` — Section 5 broadcast vertex cover plus
  Section 4 set cover, hundreds of rounds at tiny n; one operation is
  one solve of the instance set.
* ``churn-serve`` — four dynamic vertex-cover sessions on a
  one-worker ``ServingHost``; one operation is one ``host.apply``.

Every workload is a closed loop with one caller.  ``--trace 0``
measures the end-to-end metrics with tracing off.  ``--trace 1`` runs
the same operations untraced, traced (under ``repro.obs.Tracer``) and,
for one-shot workloads, unmetered; it prints the per-layer metrics and
span self times, asserts traced results equal untraced results bit for
bit, and writes the Chrome trace to ``.perfbench/``.  Every result is
verified; any failure makes the exit code 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--smoke`` shrinks every workload to seconds; ``--corrupt`` injects
one wrong answer (a cover with one member dropped, or a session
diverged by one edit), which must be caught.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The end-to-end metrics (``--trace 0``), with units.  An operation is
#: one solve of the instance set (one-shot) or one ``host.apply``.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: End-to-end numbers printed in the table only.  ``op_tail_ms`` is a
#: maximum over a handful of passes on the one-shot workloads, too
#: noisy to gate a change on; the others are workload-specific names.
END_TO_END_TABLE_ONLY = {
    "oneshot": {"op_tail_ms": "ms", "solve_s": "s"},
    "churn": {"op_tail_ms": "ms", "batch_p50_ms": "ms",
              "batch_tail_ms": "ms", "batches_per_s": "1/s"},
}

#: The per-layer metrics (``--trace 1``) reported in the JSON line: the
#: ones every workload measures as a non-zero time, plus counts.
PER_LAYER = {
    "graphs.build_s": "s",
    "simulator.run_s": "s",
    "simulator.round_s": "s",
    "simulator.run_other_s": "s",
    "simulator.rounds": "count",
    "simulator.messages": "count",
    "simulator.message_bits": "bit",
    "simulator.columnar_runs": "count",
    "simulator.fallbacks": "count",
    "core.assemble_s": "s",
    "util.metering_s": "s",
    "util.memo_lookups": "count",
    "util.memo_hit_ratio": "fraction",
    "dynamic.repaired_frac": "fraction",
    "dynamic.cone_node_rounds": "count",
    "dynamic.full_solves": "count",
    "dynamic.snapshot_bytes": "B",
    "serving.checkpoints": "count",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "obs.traced_over_untraced": "ratio",
}

#: Per-layer times of layers that only some workloads exercise.  They
#: are printed in the table and are zero where the layer is idle.
PER_LAYER_TABLE_ONLY = {
    "simulator.columnar_s": "s",
    "dynamic.apply_ms_p50": "ms",
    "dynamic.apply_ms_tail": "ms",
    "dynamic.initial_solve_s": "s",
    "dynamic.snapshot_s": "s",
    "dynamic.restore_s": "s",
    "serving.transport_ms_p50": "ms",
    "serving.checkpoint_ms": "ms",
    "serving.open_s": "s",
}

#: One-shot set-up is repeated at least this many times and for at least
#: ``SETUP_MIN_S`` seconds; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
#: Where ``--trace 1`` writes its Chrome trace, relative to the cwd.
TRACE_DIR = ".perfbench"


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["port-oneshot", "broadcast-oneshot", "churn-serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every workload runs in seconds")
    ap.add_argument("--corrupt", action="store_true",
                    help="inject one wrong answer, which must be caught")
    return ap.parse_args(argv)


def host_info() -> Dict[str, Any]:
    import numpy

    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


class Outcome:
    """What one run measured, checked and failed."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}  # metric -> extra context
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.self_times: Dict[str, List[float]] = {}

    def check(self, errors: List[str]) -> None:
        """Count one operation, failed if ``errors`` is non-empty."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def run_results_differ(a: Any, b: Any) -> List[str]:
    """The ``RunResult`` fields on which ``a`` and ``b`` differ."""
    return [
        f.name for f in dataclasses.fields(a)
        if getattr(a, f.name) != getattr(b, f.name)
    ]


# ----------------------------------------------------------------------
# One-shot workloads
# ----------------------------------------------------------------------


def oneshot(args: argparse.Namespace, out: Outcome) -> None:
    from probes import GcProbe, clock, peak_rss_mb, span_self_times, tail
    from repro import obs
    from workloads import Instance, corrupt, instance_specs, operations

    specs = instance_specs(args.workload, args.smoke)
    tracer = obs.Tracer("perfbench") if args.trace else None

    builds: List[float] = []
    while len(builds) < SETUP_REPEATS or sum(builds) < SETUP_MIN_S:
        t0 = clock()
        with obs.tracing(tracer):
            insts = []
            for spec in specs:
                s0 = tracer.now() if tracer else 0.0
                insts.append(Instance.build(spec, args.seed))
                if tracer:
                    tracer.complete("graphs.build", s0, instance=spec["label"])
        builds.append(clock() - t0)
    out.metrics["setup_s"] = median(builds)
    out.metrics["graphs.build_s"] = median(builds)

    def solve_pass(metering: str, traced: bool) -> Tuple[float, list]:
        t0 = clock()
        solved = []
        with obs.tracing(tracer if traced else None):
            for inst in insts:
                result = inst.run(metering)
                a0 = tracer.now() if traced else 0.0
                solved.append(inst.assemble(result))
                if traced:
                    tracer.complete("core.assemble", a0, instance=inst.label)
        return clock() - t0, solved

    def verify(solved: list, metered: bool) -> None:
        for inst, s in zip(insts, solved):
            out.check(inst.verify(s, metered))

    untraced: List[float] = []
    traced: List[float] = []
    unmetered: List[float] = []
    gc_pause: List[float] = []
    gc_gen2: List[int] = []
    first = None
    passes = operations(args.workload, args.smoke, args.seconds)
    # Traced runs cycle untraced, traced and unmetered passes.
    while len(untraced) < (-(-passes // 3) if args.trace else passes):
        with GcProbe() as probe:
            dt, solved = solve_pass("bits", False)
        untraced.append(dt)
        gc_pause.append(probe.pause_s)
        gc_gen2.append(probe.gen2_collections)
        if args.corrupt and first is None:
            solved[0] = corrupt(insts[0], solved[0])
        verify(solved, True)
        if first is None:
            first = solved
        if not args.trace:
            continue
        dt, solved_tr = solve_pass("bits", True)
        traced.append(dt)
        for inst, a, b in zip(insts, solved, solved_tr):
            diff = run_results_differ(a.run, b.run)
            out.check([f"{inst.label}: traced result differs in {diff}"]
                      if diff else [])
        dt, solved_none = solve_pass("none", False)
        unmetered.append(dt)
        verify(solved_none, False)
        del solved, solved_tr, solved_none

    passes = len(untraced)
    out.metrics["op_p50_ms"] = median(untraced) * 1e3
    value, pct, beyond = tail(untraced)
    out.metrics["op_tail_ms"] = value * 1e3
    out.notes["op_tail_ms"] = f"p{pct:.1f} of {passes} passes, {beyond} beyond"
    out.metrics["ops_per_s"] = passes / sum(untraced)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.metrics["solve_s"] = median(untraced)
    out.notes["solve_s"] = f"median of {passes} passes: " + " ".join(
        f"{t:.3f}" for t in untraced)

    runs = [s.run for s in first]
    out.metrics["simulator.rounds"] = sum(r.rounds for r in runs)
    out.metrics["simulator.messages"] = sum(r.messages_sent for r in runs)
    out.metrics["simulator.message_bits"] = sum(r.message_bits for r in runs)
    out.metrics["gc.pause_s"] = median(gc_pause)
    out.metrics["gc.gen2_collections"] = median(gc_gen2)
    for name in ("dynamic.repaired_frac", "dynamic.cone_node_rounds",
                 "dynamic.full_solves", "dynamic.snapshot_bytes",
                 "serving.checkpoints", *PER_LAYER_TABLE_ONLY):
        out.metrics[name] = 0.0
    if not args.trace:
        return

    k = len(traced)
    chrome = tracer.chrome()
    table = span_self_times(chrome["traceEvents"])
    out.self_times = table

    def span_s(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[1] / 1e6 / k

    run_s = span_s("run")
    round_s = span_s("round")
    columnar_s = span_s("phase[columnar rounds]")
    out.metrics["simulator.run_s"] = run_s
    out.metrics["simulator.round_s"] = round_s
    out.metrics["simulator.columnar_s"] = columnar_s
    out.metrics["simulator.run_other_s"] = run_s - round_s - columnar_s
    selected = tracer.events(obs.EV_ENGINE_SELECTED)
    out.metrics["simulator.columnar_runs"] = sum(
        e["args"]["engine"] == "columnar" for e in selected) / k
    out.metrics["simulator.fallbacks"] = len(
        tracer.events(obs.EV_ENGINE_FALLBACK)) / k
    out.metrics["core.assemble_s"] = span_s("core.assemble")
    out.metrics["util.metering_s"] = median(untraced) - median(unmetered)
    counters = tracer.counters
    hits = counters.get(obs.CTR_MEMO_HIT, 0)
    lookups = hits + counters.get(obs.CTR_MEMO_MISS, 0)
    out.metrics["util.memo_lookups"] = lookups / k
    out.metrics["util.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    out.metrics["obs.traced_over_untraced"] = median(traced) / median(untraced)
    out.notes["obs.traced_over_untraced"] = (
        f"{k} traced vs {passes} untraced passes")
    write_trace(args, chrome)


# ----------------------------------------------------------------------
# churn-serve
# ----------------------------------------------------------------------


def churn(args: argparse.Namespace, out: Outcome) -> None:
    from probes import (
        GcProbe, clock, peak_rss_mb, tail, worker_gc_start, worker_gc_stop,
    )
    from repro import obs
    from repro._util.parallel import retire_serve_pools, serve_pool
    from repro.dynamic import DynamicRun, MutableTopology, RandomChurn, ServingHost
    from workloads import StreamView, churn_sessions, churn_spec, operations

    spec = churn_spec(args.smoke)
    tracer = obs.Tracer("perfbench") if args.trace else None
    sids = [f"s{i}" for i in range(spec["sessions"])]

    setup0 = clock()
    # Start the serving worker before the benchmark process grows, so
    # the forked worker's peak RSS does not count the parent's sessions.
    worker_pid = serve_pool(0).submit(os.getpid).result()
    try:
        with obs.tracing(tracer):
            t0 = clock()
            graphs = churn_sessions(args.seed, spec["n"], spec["W"], len(sids))
            build_s = clock() - t0
            twins, blobs, solve_s, snap_s = [], [], [], []
            for g, w in graphs:
                t0 = clock()
                twins.append(DynamicRun.vertex_cover(g, w))
                t1 = clock()
                blobs.append(twins[-1].snapshot())
                solve_s.append(t1 - t0)
                snap_s.append(clock() - t1)
            host = ServingHost(workers=spec["workers"])
            open_s = []
            for sid, blob in zip(sids, blobs):
                t0 = clock()
                host.open(sid, blob)
                open_s.append(clock() - t0)
        # The stream reads the current graph, so the script is made on
        # untimed twins; they also hold the expected end state.  The
        # stream reads a patched shadow of each twin's topology, which
        # costs O(m) per batch instead of a full graph rebuild.
        streams = [
            RandomChurn(spec["edits_per_batch"], seed=args.seed * 1000 + i,
                        max_degree=spec["max_degree"])
            for i in range(len(sids))
        ]
        shadows = [MutableTopology(g.n, g.edges) for g, _ in graphs]
        script = []
        for b in range(operations(args.workload, args.smoke, args.seconds)):
            i = b % len(sids)
            batch = streams[i].next_batch(StreamView(shadows[i]), twins[i].inputs)
            shadows[i].apply_batch(batch, list(twins[i].inputs))
            twins[i].apply(batch)
            script.append((i, batch))
        out.metrics["setup_s"] = clock() - setup0

        # Collector pauses of the benchmark process and of the serving
        # worker, over the timed loop only.
        serve_pool(0).submit(worker_gc_start).result()
        with GcProbe() as probe:
            run_a = serve(host, sids, script, twins, out, clock)
        w_pause, w_gen2 = serve_pool(0).submit(worker_gc_stop).result()
        out.metrics["gc.pause_s"] = probe.pause_s + w_pause
        out.metrics["gc.gen2_collections"] = probe.gen2_collections + w_gen2
        if args.corrupt:
            extra = RandomChurn(1, seed=-1, max_degree=spec["max_degree"])
            host.apply(sids[0], extra.next_batch(twins[0].graph, twins[0].inputs))
        restore_s, assemble_s = close_and_verify(host, sids, twins, out)
        host.shutdown()

        lat = run_a["latency_ms"]
        stats = run_a["stats"]
        out.metrics["op_p50_ms"] = median(lat)
        value, pct, beyond = tail(lat)
        out.metrics["op_tail_ms"] = value
        out.notes["op_tail_ms"] = f"p{pct:.2f} of {len(lat)} batches, {beyond} beyond"
        out.metrics["ops_per_s"] = len(lat) / run_a["wall_s"]
        out.metrics["batch_p50_ms"] = out.metrics["op_p50_ms"]
        out.metrics["batch_tail_ms"] = value
        out.notes["batch_tail_ms"] = out.notes["op_tail_ms"]
        out.metrics["batches_per_s"] = out.metrics["ops_per_s"]

        out.metrics["graphs.build_s"] = build_s
        runs = [twin.result for twin in twins]
        out.metrics["simulator.rounds"] = sum(r.rounds for r in runs)
        out.metrics["simulator.messages"] = sum(r.messages_sent for r in runs)
        out.metrics["simulator.message_bits"] = sum(r.message_bits for r in runs)
        out.metrics["core.assemble_s"] = sum(assemble_s)
        wall_ms = [s.wall_ms for s in stats]
        out.metrics["dynamic.apply_ms_p50"] = median(wall_ms)
        out.metrics["dynamic.apply_ms_tail"] = tail(wall_ms)[0]
        out.metrics["dynamic.repaired_frac"] = median(
            [s.repaired_fraction for s in stats])
        out.metrics["dynamic.cone_node_rounds"] = sum(
            s.cone_node_rounds for s in stats)
        out.metrics["dynamic.full_solves"] = sum(
            s.repaired_nodes == s.n for s in stats)
        out.metrics["dynamic.initial_solve_s"] = median(solve_s)
        out.metrics["dynamic.snapshot_s"] = median(snap_s)
        out.metrics["dynamic.restore_s"] = median(restore_s)
        out.metrics["dynamic.snapshot_bytes"] = median([len(b) for b in blobs])
        out.metrics["serving.transport_ms_p50"] = median(
            [h - s.wall_ms for h, s in zip(lat, stats)])
        ckpt = run_a["checkpointed"]
        out.metrics["serving.checkpoints"] = sum(ckpt)
        out.metrics["serving.checkpoint_ms"] = (
            median([x for x, c in zip(lat, ckpt) if c])
            - median([x for x, c in zip(lat, ckpt) if not c])
        )
        out.metrics["serving.open_s"] = median(open_s)

        if args.trace:
            traced_layers(args, spec, blobs, sids, script, twins, graphs,
                          run_a, tracer, out)
        # Read before the worker exits: its peak is gone with it.
        out.metrics["peak_rss_mb"] = peak_rss_mb() + peak_rss_mb(str(worker_pid))
    finally:
        serve_pool(0).shutdown(wait=True)
        retire_serve_pools()


def serve(host, sids, script, twins, out: Outcome, clock) -> Dict[str, Any]:
    """The timed closed loop: one caller, one ``host.apply`` at a time."""
    from repro.obs import CTR_SERVING_CHECKPOINTS

    latency_ms: List[float] = []
    stats_out = []
    checkpointed: List[bool] = []
    seen = [0] * len(sids)
    ckpts = host.report().counters[CTR_SERVING_CHECKPOINTS]
    loop0 = clock()
    for i, batch in script:
        t0 = clock()
        stats = host.apply(sids[i], batch)
        latency_ms.append((clock() - t0) * 1e3)
        now = host.report().counters[CTR_SERVING_CHECKPOINTS]
        checkpointed.append(now > ckpts)
        ckpts = now
        want = twins[i].stats[seen[i]]
        seen[i] += 1
        stats_out.append(stats)
        out.check([] if stats == want else
                  [f"{sids[i]} batch {seen[i]}: {stats} != scripted {want}"])
    return {"latency_ms": latency_ms, "stats": stats_out,
            "checkpointed": checkpointed, "wall_s": clock() - loop0}


def close_and_verify(host, sids, twins, out: Outcome):
    """Close every session, restore it, compare it with its twin, check it."""
    from probes import clock
    from repro.dynamic import DynamicRun
    from workloads import Instance

    restore_s, assemble_s = [], []
    for sid, twin in zip(sids, twins):
        blob = host.close(sid)
        t0 = clock()
        session = DynamicRun.restore(blob)
        restore_s.append(clock() - t0)
        diff = run_results_differ(session.result, twin.result)
        errors = [f"{sid}: final result differs from its twin in {diff}"] if diff else []
        # The one-shot §3 checks, on the session's final graph.
        inst = Instance({"label": sid, "algo": "vc-port",
                         "expected": {"rounds": twin.result.rounds}},
                        session.graph, session.inputs)
        t0 = clock()
        solved = inst.assemble(session.result)
        assemble_s.append(clock() - t0)
        errors += inst.verify(solved, metered=False)
        out.check(errors)
    return restore_s, assemble_s


def traced_layers(args, spec, blobs, sids, script, twins, graphs,
                  run_a, tracer, out: Outcome) -> None:
    """Replay the script traced on a fresh host; derive per-layer numbers."""
    from probes import clock, span_self_times
    from repro import obs
    from repro.dynamic import DynamicRun, ServingHost

    host = ServingHost(workers=spec["workers"])
    for sid, blob in zip(sids, blobs):
        host.open(sid, blob)
    before = tracer.counters
    with obs.tracing(tracer):
        run_b = serve(host, sids, script, twins, out, clock)
    after = tracer.counters
    close_and_verify(host, sids, twins, out)
    host.shutdown()
    same = [a == b for a, b in zip(run_a["stats"], run_b["stats"])]
    out.check([] if all(same) else ["traced batch stats differ from untraced"])

    # Metered and unmetered initial solves back to back, so both pay
    # the same collector state.
    metering_s = 0.0
    for g, w in graphs:
        t0 = clock()
        DynamicRun.vertex_cover(g, w)
        t1 = clock()
        DynamicRun.vertex_cover(g, w, metering="none")
        metering_s += 2 * t1 - t0 - clock()
    out.metrics["util.metering_s"] = metering_s

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    hits = delta(obs.CTR_MEMO_HIT)
    lookups = hits + delta(obs.CTR_MEMO_MISS)
    out.metrics["util.memo_lookups"] = lookups
    out.metrics["util.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    out.metrics["obs.traced_over_untraced"] = (
        sum(run_b["latency_ms"]) / sum(run_a["latency_ms"]))

    chrome = tracer.chrome()
    table = span_self_times(chrome["traceEvents"])
    out.self_times = table
    run_s = table.get("run", [0, 0.0, 0.0])[1] / 1e6
    round_s = table.get("round", [0, 0.0, 0.0])[1] / 1e6
    columnar_s = table.get("phase[columnar rounds]", [0, 0.0, 0.0])[1] / 1e6
    out.metrics["simulator.run_s"] = run_s
    out.metrics["simulator.round_s"] = round_s
    out.metrics["simulator.columnar_s"] = columnar_s
    out.metrics["simulator.run_other_s"] = run_s - round_s - columnar_s
    selected = tracer.events(obs.EV_ENGINE_SELECTED)
    out.metrics["simulator.columnar_runs"] = sum(
        e["args"]["engine"] == "columnar" for e in selected)
    out.metrics["simulator.fallbacks"] = len(tracer.events(obs.EV_ENGINE_FALLBACK))
    write_trace(args, chrome)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def write_trace(args: argparse.Namespace, chrome: Dict[str, Any]) -> None:
    chrome["metadata"]["provenance"] = args.provenance
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(chrome, fh)
    print(f"chrome trace: {path}")


def report(args: argparse.Namespace, out: Outcome) -> Dict[str, Any]:
    """Print the human tables; return the JSON line's metrics."""
    if args.trace:
        wanted = dict(PER_LAYER, **PER_LAYER_TABLE_ONLY)
    else:
        kind = "churn" if args.workload == "churn-serve" else "oneshot"
        wanted = dict(END_TO_END, **END_TO_END_TABLE_ONLY[kind])
    rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"{'metric':<28} {'value':>16}  unit")
    for name, unit in wanted.items():
        note = out.notes.get(name, "")
        print(f"{name:<28} {out.metrics[name]:>16.6g}  {unit:<8} {note}")
    print(f"{'error_rate':<28} {rate:>16.6g}  fraction "
          f"{out.failed} failed of {out.attempted} operations")
    if out.self_times:
        print(f"\n{'span':<28} {'count':>8} {'total_s':>12} {'self_s':>12}")
        for name, (count, total, own) in sorted(
            out.self_times.items(), key=lambda kv: -kv[1][1]
        ):
            print(f"{name:<28} {count:>8} {total / 1e6:>12.4f} {own / 1e6:>12.4f}")
    for err in out.errors[:20]:
        print(f"FAILED: {err}")
    names = PER_LAYER if args.trace else END_TO_END
    return {name: {"value": out.metrics[name], "unit": unit}
            for name, unit in names.items()}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import provenance

    record = provenance(args.workload, args.smoke, args.seconds)
    record.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                  host=host_info())
    print("provenance " + json.dumps(record, sort_keys=True))
    args.provenance = record
    out = Outcome()
    if args.workload == "churn-serve":
        churn(args, out)
    else:
        oneshot(args, out)
    metrics = report(args, out)
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
