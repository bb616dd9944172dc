"""Command-line interface for running the algorithms on generated instances.

Examples::

    python -m repro.cli vc --family cycle --n 16 --W 8 --algorithm port
    python -m repro.cli vc --family petersen --algorithm broadcast --json
    python -m repro.cli sc --subsets 8 --elements 14 --k 3 --f 2 --W 9
    python -m repro.cli sweep --family cycle --sizes 64,256,1024 --seeds 3
    python -m repro.cli sweep --family regular --sizes 10000 \\
        --workers 4 --metering none --json
    python -m repro.cli dynamic --family cycle --n 256 --batches 8 \\
        --stream random --mode incremental --verify
    python -m repro.cli serve --family cycle --n 128 --sessions 8 \\
        --batches 12 --workers 2 --verify
    python -m repro.cli families

``sweep`` runs one instance per (size, seed) pair through the batched
:func:`repro.simulator.runtime.sweep` API — ``--workers N`` executes
instances on one warm N-process pool for true multi-core parallelism
(results are bit-identical to serial), and ``--json`` emits one
machine-readable record per instance for plotting.  ``vc``/``sweep``
with ``--algorithm broadcast`` also take
``--replay {incremental,scratch}`` — the §5 history replay strategy
(bit-identical results; ``scratch`` is the paper-literal reference).

``vc --fault {loss,duplication,corruption,crash,state}`` injects a
seeded message/crash adversary (:mod:`repro.simulator.faults`) and
runs the algorithm under the self-stabilising transformer, reporting
whether the output recovered to the fault-free reference within T
rounds after the faults stop (``--fault-rate``/``--fault-rounds``/
``--fault-seed`` shape the deterministic schedule).

``dynamic`` runs a churn session (:mod:`repro.dynamic`): an edit
stream mutates the instance batch by batch while the session repairs
the standing cover — ``--mode incremental`` re-executes only the dirty
region, ``--mode scratch`` is the paper-literal full re-solve, and
``--verify`` runs both in lockstep asserting bit-identical results
(on mismatch it names the first differing ``RunResult`` field and
node).  ``--snapshot PATH`` serialises the session after the last
batch; ``--restore PATH`` resumes it later — even in a different
process — and keeps absorbing batches bit-for-bit as if never
interrupted.

``serve`` drives the multiplexed serving host
(:class:`repro.dynamic.serving.ServingHost`): it scripts an
independent churn stream per session (untimed), then serves all
sessions concurrently over ``--workers`` warm worker processes
(``--workers 0`` multiplexes in-process), reporting batch-latency
percentiles via the shared ``latency_ms`` summary shape.  ``--verify``
re-derives every served session's final state and asserts it is
bit-for-bit the state a lone session fed the same stream reaches.

(The experiment harness regenerating the paper's tables lives in
``python -m repro.experiments.cli``; it takes the same
``--workers``/``--json`` flags.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import obs
from repro.baselines.exact import exact_min_set_cover, exact_min_vertex_cover
from repro.core.edge_packing import (
    EdgePackingMachine,
    edge_packing_from_run,
    edge_packing_job,
    maximal_edge_packing,
    schedule_length,
)
from repro.core.set_cover import set_cover_f_approx
from repro.core.vertex_cover import (
    broadcast_vc_from_run,
    broadcast_vc_job,
    vertex_cover_2approx,
    vertex_cover_broadcast,
)
from repro.dynamic import (
    DYNAMIC_MODES,
    DynamicRun,
    HubChurn,
    RandomChurn,
    ServingHost,
    SlidingWindowStream,
    latency_summary,
)
from repro.graphs import families
from repro.graphs.setcover import random_instance
from repro.graphs.weights import uniform_weights, unit_weights
from repro.selfstab.transformer import SelfStabilisingMachine
from repro.simulator.faults import FAULT_KINDS, adversary_from_spec
from repro.simulator.runtime import ENGINES, run, sweep
from repro._util.memo import REPLAY_MODES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed vertex/set cover in anonymous networks "
        "(Åstrand & Suomela, SPAA 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vc = sub.add_parser("vc", help="2-approximate weighted vertex cover")
    vc.add_argument("--family", default="cycle", help="graph family name")
    vc.add_argument("--n", type=int, default=16, help="size parameter")
    vc.add_argument("--W", type=int, default=1, help="max weight (1 = unweighted)")
    vc.add_argument("--seed", type=int, default=0)
    vc.add_argument(
        "--algorithm",
        choices=["port", "broadcast"],
        default="port",
        help="Section 3 (port numbering) or Section 5 (broadcast)",
    )
    vc.add_argument("--exact", action="store_true", help="also compute the optimum")
    vc.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="object",
        help="runtime execution substrate for --algorithm port "
        "('columnar' vectorises Phase I and the colour pipeline; "
        "results bit-identical)",
    )
    vc.add_argument(
        "--replay",
        choices=list(REPLAY_MODES),
        default="incremental",
        help="history replay strategy for --algorithm broadcast "
        "(results identical; 'scratch' is the paper-literal reference)",
    )
    vc.add_argument(
        "--fault",
        choices=list(FAULT_KINDS),
        default="none",
        help="inject a seeded fault adversary and run the algorithm "
        "under the self-stabilising transformer (port algorithm only); "
        "reports recovery against the fault-free reference",
    )
    vc.add_argument(
        "--fault-rate", type=float, default=0.2,
        help="per-target fault probability while the adversary is active",
    )
    vc.add_argument(
        "--fault-rounds", type=int, default=10,
        help="rounds during which the adversary is active",
    )
    vc.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the deterministic fault schedule",
    )
    vc.add_argument("--json", action="store_true", help="machine-readable output")

    sc = sub.add_parser("sc", help="f-approximate weighted set cover")
    sc.add_argument("--subsets", type=int, default=8)
    sc.add_argument("--elements", type=int, default=14)
    sc.add_argument("--k", type=int, default=3)
    sc.add_argument("--f", type=int, default=2)
    sc.add_argument("--W", type=int, default=1)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--exact", action="store_true")
    sc.add_argument("--json", action="store_true")

    sw = sub.add_parser(
        "sweep",
        help="batched runs over sizes × seeds (multi-core with --workers N)",
    )
    sw.add_argument("--family", default="cycle", help="graph family name")
    sw.add_argument(
        "--sizes", default="64,256",
        help="comma-separated size parameters, one batch of instances each",
    )
    sw.add_argument("--seeds", type=int, default=1,
                    help="instances per size (seeds 0..seeds-1)")
    sw.add_argument("--W", type=int, default=1, help="max weight (1 = unweighted)")
    sw.add_argument(
        "--algorithm",
        choices=["port", "broadcast"],
        default="port",
        help="Section 3 (port numbering) or Section 5 (broadcast)",
    )
    sw.add_argument(
        "--metering",
        choices=["none", "counts", "bits"],
        default="counts",
        help="what to measure per run ('none' is fastest)",
    )
    sw.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="object",
        help="runtime execution substrate for --algorithm port "
        "('columnar' vectorises Phase I and the colour pipeline; "
        "results bit-identical)",
    )
    sw.add_argument(
        "--replay",
        choices=list(REPLAY_MODES),
        default="incremental",
        help="history replay strategy for --algorithm broadcast "
        "(results identical; 'scratch' is the paper-literal reference)",
    )
    sw.add_argument("--workers", type=int, default=None,
                    help="worker processes; omit to run serially")
    sw.add_argument("--json", action="store_true", help="machine-readable output")

    dy = sub.add_parser(
        "dynamic",
        help="maintain a cover under churn (dirty-region warm restarts)",
    )
    dy.add_argument("--family", default="cycle", help="graph family name")
    dy.add_argument("--n", type=int, default=64, help="size parameter")
    dy.add_argument("--W", type=int, default=1, help="max weight (1 = unweighted)")
    dy.add_argument("--seed", type=int, default=0)
    dy.add_argument(
        "--algorithm",
        choices=["port", "broadcast"],
        default="port",
        help="Section 3 (port numbering) or Section 5 (broadcast)",
    )
    dy.add_argument(
        "--mode",
        choices=list(DYNAMIC_MODES),
        default="incremental",
        help="per-batch re-solve strategy (results identical; 'scratch' "
        "is the paper-literal reference)",
    )
    dy.add_argument(
        "--stream",
        choices=["random", "hubs", "window"],
        default="random",
        help="edit stream: random churn, targeted hub churn, or a "
        "sliding window of transient links",
    )
    dy.add_argument("--batches", type=int, default=5, help="edit batches to apply")
    dy.add_argument(
        "--edits-per-batch", type=int, default=2, help="edits per batch"
    )
    dy.add_argument(
        "--metering",
        choices=["none", "counts", "bits"],
        default="none",
        help="what to measure per re-solve ('none' is fastest)",
    )
    dy.add_argument(
        "--verify",
        action="store_true",
        help="run a session in the other mode in lockstep and assert "
        "bit-identical results (every RunResult field)",
    )
    dy.add_argument(
        "--snapshot", metavar="PATH", default=None,
        help="after the last batch, serialise the session to PATH "
        "(resume later with --restore PATH)",
    )
    dy.add_argument(
        "--restore", metavar="PATH", default=None,
        help="resume a session from a --snapshot file instead of "
        "solving afresh (instance, mode and metering come from the "
        "snapshot; --family/--n/--W/--mode are ignored)",
    )
    dy.add_argument("--json", action="store_true", help="machine-readable output")

    se = sub.add_parser(
        "serve",
        help="multiplex many churn sessions over warm worker pools",
    )
    se.add_argument("--family", default="cycle", help="graph family name")
    se.add_argument("--n", type=int, default=64, help="size parameter")
    se.add_argument("--W", type=int, default=1, help="max weight (1 = unweighted)")
    se.add_argument("--seed", type=int, default=0,
                    help="base seed; session i uses seed+i")
    se.add_argument(
        "--algorithm",
        choices=["port", "broadcast"],
        default="port",
        help="Section 3 (port numbering) or Section 5 (broadcast)",
    )
    se.add_argument(
        "--mode",
        choices=list(DYNAMIC_MODES),
        default="incremental",
        help="per-batch re-solve strategy inside each served session",
    )
    se.add_argument(
        "--stream",
        choices=["random", "hubs", "window"],
        default="random",
        help="edit stream driven independently per session",
    )
    se.add_argument("--sessions", type=int, default=4,
                    help="concurrent sessions to serve")
    se.add_argument("--batches", type=int, default=5,
                    help="edit batches per session")
    se.add_argument(
        "--edits-per-batch", type=int, default=2, help="edits per batch"
    )
    se.add_argument(
        "--workers", type=int, default=0,
        help="warm worker processes (0 = multiplex in-process)",
    )
    se.add_argument(
        "--checkpoint-every", type=int, default=16,
        help="committed batches between worker-side checkpoint refreshes",
    )
    se.add_argument(
        "--metering",
        choices=["none", "counts", "bits"],
        default="none",
        help="what each session measures per re-solve",
    )
    se.add_argument(
        "--verify",
        action="store_true",
        help="assert each served session's final state is bit-identical "
        "to a lone session fed the same stream",
    )
    se.add_argument("--json", action="store_true", help="machine-readable output")

    tr = sub.add_parser(
        "trace",
        help="inspect Chrome trace files written by --trace",
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    trsum = trsub.add_parser(
        "summarize",
        help="human-readable span/event/counter summary of a trace file",
    )
    trsum.add_argument("path", help="trace JSON file (from --trace)")

    # Every run-shaped command can capture a trace of itself.
    for cmd in (vc, sw, dy, se):
        cmd.add_argument(
            "--trace", metavar="PATH", default=None,
            help="record a Chrome trace (spans, events, counters; load "
            "in Perfetto or summarize with `repro.cli trace summarize`)",
        )

    sub.add_parser("families", help="list graph family names")
    return parser


def _make_graph(name: str, n: int, seed: int):
    try:
        return families.sized(name, n, seed=seed)
    except KeyError:
        raise SystemExit(
            f"unknown family {name!r}; try `python -m repro.cli families`"
        ) from None


def _run_vc_faulty(args, graph, weights) -> dict:
    """The --fault demo: run the Section 3 machine under the
    self-stabilising transformer while a seeded adversary disturbs it,
    then check the output matches the fault-free reference exactly T
    rounds after the faults stop."""
    if args.algorithm != "port":
        raise SystemExit(
            "--fault demos the self-stabilising transformer on the port "
            "algorithm; use --algorithm port"
        )
    if args.fault_rounds < 1:
        raise SystemExit("need --fault-rounds >= 1")
    delta, W = graph.max_degree, max(1, args.W)
    horizon = schedule_length(delta, W)
    reference = maximal_edge_packing(graph, weights, delta=delta, W=W)
    adversary = adversary_from_spec(
        args.fault,
        until_round=args.fault_rounds,
        rate=args.fault_rate,
        seed=args.fault_seed,
    )
    res = run(
        graph=graph,
        machine=SelfStabilisingMachine(EdgePackingMachine(), horizon),
        inputs=list(weights),
        globals_map={"delta": delta, "W": W},
        max_rounds=args.fault_rounds + horizon,
        fault_adversary=adversary,
    )
    recovered = res.outputs == reference.run.outputs
    payload = {
        "problem": "vertex-cover",
        "algorithm": "port+selfstab",
        "family": args.family,
        "n": graph.n,
        "m": graph.m,
        "max_degree": graph.max_degree,
        "fault": args.fault,
        "fault_rate": args.fault_rate,
        "fault_rounds": args.fault_rounds,
        "fault_seed": args.fault_seed,
        "fault_events": adversary.events,
        "stabilisation_time": horizon,
        "rounds": res.rounds,
        "recovered_within_T": recovered,
    }
    if recovered:
        # recovered ⇒ outputs equal the fault-free packing's exactly,
        # so the cover readout comes from the reference (the selfstab
        # run itself never halts, so it has no halting-based readout)
        cover = reference.saturated
        payload["cover"] = sorted(cover)
        payload["cover_weight"] = sum(weights[v] for v in cover)
    return payload


def _run_vc(args) -> dict:
    graph = _make_graph(args.family, args.n, args.seed)
    weights = (
        unit_weights(graph.n)
        if args.W <= 1
        else uniform_weights(graph.n, args.W, seed=args.seed)
    )
    if args.fault != "none":
        return _run_vc_faulty(args, graph, weights)
    if args.algorithm == "port":
        result = vertex_cover_2approx(graph, weights, engine=args.engine)
    else:
        result = vertex_cover_broadcast(graph, weights, replay=args.replay)
    payload = {
        "problem": "vertex-cover",
        "algorithm": args.algorithm,
        "family": args.family,
        "n": graph.n,
        "m": graph.m,
        "max_degree": graph.max_degree,
        "rounds": result.rounds,
        "cover": sorted(result.cover),
        "cover_weight": result.cover_weight,
        "packing_value": str(result.packing_value),
        "certificate_ratio": str(result.certificate_ratio),
        "is_cover": result.is_cover(),
    }
    if args.exact:
        opt, _ = exact_min_vertex_cover(graph, weights)
        payload["optimum"] = opt
        payload["measured_ratio"] = result.cover_weight / opt if opt else 1.0
    return payload


def _run_sc(args) -> dict:
    instance = random_instance(
        args.subsets, args.elements, k=args.k, f=args.f, W=max(1, args.W),
        seed=args.seed,
    )
    result = set_cover_f_approx(instance)
    payload = {
        "problem": "set-cover",
        "subsets": instance.n_subsets,
        "elements": instance.n_elements,
        "k": instance.k,
        "f": instance.f,
        "W": instance.W,
        "rounds": result.rounds,
        "cover": sorted(result.cover),
        "cover_weight": result.cover_weight,
        "certificate_ratio": str(result.certificate_ratio),
        "is_cover": result.is_cover(),
    }
    if args.exact:
        opt, _ = exact_min_set_cover(instance)
        payload["optimum"] = opt
        payload["measured_ratio"] = result.cover_weight / opt if opt else 1.0
    return payload


def _run_sweep(args) -> dict:
    """Batched (size × seed) runs through the sweep API; JSON-friendly."""
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise SystemExit(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes or args.seeds < 1:
        raise SystemExit("need at least one size and --seeds >= 1")

    cases = []
    jobs = []
    for n in sizes:
        for seed in range(args.seeds):
            graph = _make_graph(args.family, n, seed)
            weights = (
                unit_weights(graph.n)
                if args.W <= 1
                else uniform_weights(graph.n, args.W, seed=seed)
            )
            cases.append((n, seed, graph, weights))
            if args.algorithm == "port":
                jobs.append(
                    edge_packing_job(
                        graph, weights, metering=args.metering,
                        engine=args.engine,
                    )
                )
            else:
                jobs.append(
                    broadcast_vc_job(
                        graph, weights, metering=args.metering, replay=args.replay
                    )
                )

    started = obs.clock()
    results = sweep(jobs, n_workers=args.workers)
    elapsed = obs.clock() - started

    assemble = (
        edge_packing_from_run if args.algorithm == "port" else broadcast_vc_from_run
    )
    records = []
    for (n, seed, graph, weights), res in zip(cases, results):
        solved = assemble(graph, weights, res)
        cover = (
            solved.saturated if args.algorithm == "port" else solved.cover
        )
        records.append(
            {
                "size": n,
                "seed": seed,
                "n": graph.n,
                "m": graph.m,
                "max_degree": graph.max_degree,
                "rounds": res.rounds,
                "messages": res.messages_sent,
                "message_bits": res.message_bits,
                "cover_weight": sum(weights[v] for v in cover),
                "packing_value": str(solved.packing_value()
                                     if callable(getattr(solved, "packing_value", None))
                                     else solved.packing_value),
            }
        )
    return {
        "problem": "vertex-cover",
        "algorithm": args.algorithm,
        "family": args.family,
        "metering": args.metering,
        "engine": args.engine if args.algorithm == "port" else None,
        "replay": args.replay if args.algorithm == "broadcast" else None,
        "workers": args.workers,
        # What map_jobs actually ran: it goes serial for a single job,
        # so --workers alone can misreport it.
        "backend": results.failure_report.backend,
        "wall_seconds": elapsed,
        "runs": records,
    }


def _short(value, width: int = 48) -> str:
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def _verify_diff(a, b, field: str) -> str:
    """Human-readable locus of the first difference in a RunResult field."""
    va, vb = getattr(a, field), getattr(b, field)
    if isinstance(va, (list, tuple)) and isinstance(vb, (list, tuple)):
        if len(va) != len(vb):
            return f" (lengths differ: {len(va)} != {len(vb)})"
        idx = next(i for i, (x, y) in enumerate(zip(va, vb)) if x != y)
        unit = "round" if field == "per_round_bits" else "node"
        return (
            f" (first difference at {unit} {idx}: "
            f"{_short(va[idx])} != {_short(vb[idx])})"
        )
    return f" ({_short(va)} != {_short(vb)})"


def _make_stream(kind: str, edits_per_batch: int, seed: int, W: int, delta: int):
    """The churn-stream zoo shared by ``dynamic`` and ``serve``."""
    if kind == "random":
        return RandomChurn(
            edits_per_batch=edits_per_batch, seed=seed, W=W, max_degree=delta
        )
    if kind == "hubs":
        return HubChurn(edits_per_batch=edits_per_batch, seed=seed)
    return SlidingWindowStream(
        window=max(2, edits_per_batch * 2),
        edits_per_batch=edits_per_batch,
        seed=seed,
        max_degree=delta,
    )


def _run_dynamic(args) -> dict:
    """A churn session: apply edit batches, repair the cover live."""
    if args.batches < 1 or args.edits_per_batch < 1:
        raise SystemExit("need --batches >= 1 and --edits-per-batch >= 1")
    if args.restore and args.verify:
        raise SystemExit(
            "--restore cannot be combined with --verify: the shadow "
            "session would need the original pre-churn instance, which "
            "the snapshot does not carry"
        )
    shadow = None
    if args.restore:
        try:
            with open(args.restore, "rb") as fh:
                session = DynamicRun.restore(fh.read())
        except OSError as exc:
            raise SystemExit(f"cannot read --restore file: {exc}")
        except ValueError as exc:
            raise SystemExit(f"--restore rejected: {exc}")
        if session.flow not in ("port", "broadcast"):
            raise SystemExit(
                f"--restore expects a vertex-cover session snapshot, got "
                f"flow {session.flow!r}"
            )
        graph = session.graph
        pinned = session.pinned_globals
        delta, W = pinned["delta"], pinned["W"]
    else:
        graph = _make_graph(args.family, args.n, args.seed)
        weights = (
            unit_weights(graph.n)
            if args.W <= 1
            else uniform_weights(graph.n, args.W, seed=args.seed)
        )
        # Leave one unit of degree headroom so insertion streams have room.
        delta = graph.max_degree + 1
        W = max(1, args.W)
        session_kwargs = dict(
            algorithm=args.algorithm,
            delta=delta,
            W=W,
            metering=args.metering,
        )
        session = DynamicRun.vertex_cover(
            graph, weights, mode=args.mode, **session_kwargs
        )
        if args.verify:
            shadow = DynamicRun.vertex_cover(
                graph, weights,
                mode="scratch" if args.mode == "incremental" else "incremental",
                **session_kwargs,
            )
    other_mode = "scratch" if session.mode == "incremental" else "incremental"
    stream = _make_stream(args.stream, args.edits_per_batch, args.seed, W, delta)

    records = []
    started = obs.clock()
    for _ in range(args.batches):
        batch = stream.next_batch(session.graph, session.inputs)
        if not batch:
            continue
        t0 = obs.clock()
        stats = session.apply(batch)
        wall_ms = (obs.clock() - t0) * 1e3
        if shadow is not None:
            shadow.apply(batch)
            a, b = session.result, shadow.result
            # The full tests/test_dynamic.py contract: every field.
            # (A hard exit, not assert: --verify must verify even
            # under `python -O`.)
            for field in ("outputs", "rounds", "all_halted", "messages_sent",
                          "message_bits", "per_round_bits", "states"):
                if getattr(a, field) != getattr(b, field):
                    raise SystemExit(
                        f"--verify failed at batch {stats.batch}: RunResult."
                        f"{field} differs between {session.mode!r} and "
                        f"{other_mode!r} modes" + _verify_diff(a, b, field)
                    )
        view = session.cover_view()
        records.append(
            {
                "batch": stats.batch,
                "edits": [repr(e) for e in batch],
                "n": stats.n,
                "m": stats.m,
                "dirty_seeds": stats.dirty_seeds,
                "repaired_nodes": stats.repaired_nodes,
                "repaired_fraction": round(stats.repaired_fraction, 4),
                "rounds": stats.rounds,
                "cover_weight": view.cover_weight,
                "certificate_ratio": str(view.certificate_ratio),
                "is_cover": view.covered,
                "wall_ms": round(wall_ms, 2),
            }
        )
    elapsed = obs.clock() - started
    payload = {
        "problem": "dynamic-vertex-cover",
        "algorithm": session.flow,
        "mode": session.mode,
        "stream": args.stream,
        "family": None if args.restore else args.family,
        "n0": graph.n,
        "delta": delta,
        "W": W,
        "metering": session.metering,
        "restored_from": args.restore,
        "batches_applied_total": session.batches_applied,
        "verified_against_scratch": shadow is not None,
        "wall_seconds": elapsed,
        "mean_repaired_fraction": (
            round(sum(r["repaired_fraction"] for r in records) / len(records), 4)
            if records
            else 0.0
        ),
        "latency_ms": _round_latency(
            latency_summary([r["wall_ms"] for r in records])
        ),
        "batches": records,
    }
    if args.snapshot:
        blob = session.snapshot()
        try:
            with open(args.snapshot, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            raise SystemExit(f"cannot write --snapshot file: {exc}")
        payload["snapshot_path"] = args.snapshot
        payload["snapshot_bytes"] = len(blob)
    return payload


def _round_latency(summary: dict) -> dict:
    return {
        k: (v if k == "count" else round(v, 3)) for k, v in summary.items()
    }


def _run_serve(args) -> dict:
    """Multiplexed serving: script per-session streams, then serve them.

    Stream scripting is untimed and doubles as the verification
    oracle: the driver session that generates each stream ends in the
    exact state the served session must reach."""
    if args.sessions < 1 or args.batches < 1 or args.edits_per_batch < 1:
        raise SystemExit(
            "need --sessions >= 1, --batches >= 1 and --edits-per-batch >= 1"
        )
    if args.workers < 0 or args.checkpoint_every < 1:
        raise SystemExit("need --workers >= 0 and --checkpoint-every >= 1")
    W = max(1, args.W)

    # Untimed: script an independent stream per session via a driver
    # session (which thereby computes the expected final state).
    scripts = []  # (session_id, initial snapshot, batches, driver)
    for i in range(args.sessions):
        seed = args.seed + i
        graph = _make_graph(args.family, args.n, seed)
        weights = (
            unit_weights(graph.n)
            if args.W <= 1
            else uniform_weights(graph.n, W, seed=seed)
        )
        delta = graph.max_degree + 1
        driver = DynamicRun.vertex_cover(
            graph, weights,
            mode=args.mode,
            algorithm=args.algorithm,
            delta=delta,
            W=W,
            metering=args.metering,
        )
        blob0 = driver.snapshot()
        stream = _make_stream(args.stream, args.edits_per_batch, seed, W, delta)
        batches = []
        for _ in range(args.batches):
            batch = stream.next_batch(driver.graph, driver.inputs)
            if not batch:
                continue
            driver.apply(batch)
            batches.append(batch)
        scripts.append((f"session-{i}", blob0, batches, driver))

    # Timed: serve every scripted stream through the host, one
    # multiplexed wave per batch index.
    host = ServingHost(workers=args.workers, checkpoint_every=args.checkpoint_every)
    started = obs.clock()
    for sid, blob0, _, _ in scripts:
        host.open(sid, blob0)
    waves = max((len(b) for _, _, b, _ in scripts), default=0)
    for w in range(waves):
        items = [(sid, b[w]) for sid, _, b, _ in scripts if w < len(b)]
        host.apply_each(items)
    elapsed = obs.clock() - started
    report = host.report()

    if args.verify:
        for sid, _, _, driver in scripts:
            served = DynamicRun.restore(host.snapshot(sid))
            a, b = served.result, driver.result
            for field in ("outputs", "rounds", "all_halted", "messages_sent",
                          "message_bits", "per_round_bits", "states"):
                if getattr(a, field) != getattr(b, field):
                    raise SystemExit(
                        f"--verify failed for {sid}: RunResult.{field} "
                        f"differs between the served session and the solo "
                        f"reference" + _verify_diff(a, b, field)
                    )
    host.shutdown()

    total_batches = report.batches_applied
    return {
        "problem": "dynamic-serving",
        "algorithm": args.algorithm,
        "mode": args.mode,
        "stream": args.stream,
        "family": args.family,
        "n0": args.n,
        "W": W,
        "metering": args.metering,
        "sessions": args.sessions,
        "workers": args.workers,
        "checkpoint_every": args.checkpoint_every,
        "batches_per_session": args.batches,
        "batches_applied": total_batches,
        "worker_recoveries": report.worker_recoveries,
        "verified_against_solo": bool(args.verify),
        "wall_seconds": elapsed,
        "batches_per_sec": (
            round(total_batches / elapsed, 2) if elapsed > 0 else 0.0
        ),
        "latency_ms": _round_latency(report.latency_ms),
        "counters": report.counters,
    }


def _summarize_trace_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read trace file: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{path} is not a JSON trace file: {exc}")
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise SystemExit(
            f"{path} does not look like a Chrome trace (no traceEvents)"
        )
    return obs.summarize_trace(data)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "trace":
        print(_summarize_trace_file(args.path))
        return 0
    tracer = None
    if getattr(args, "trace", None):
        tracer = obs.Tracer(f"repro.cli {args.command}")
        obs.install(tracer)
    try:
        return _dispatch(args)
    finally:
        if tracer is not None:
            obs.uninstall()
            tracer.dump(args.trace)


def _dispatch(args) -> int:
    if args.command == "families":
        for name in sorted(families.FAMILIES):
            print(name)
        return 0
    if args.command == "sweep":
        payload = _run_sweep(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            meta = {k: v for k, v in payload.items() if k != "runs"}
            print("  ".join(f"{k}={v}" for k, v in meta.items()))
            cols = list(payload["runs"][0])
            print(" | ".join(cols))
            for rec in payload["runs"]:
                print(" | ".join(str(rec[c]) for c in cols))
        return 0
    if args.command == "dynamic":
        payload = _run_dynamic(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            meta = {k: v for k, v in payload.items() if k != "batches"}
            print("  ".join(f"{k}={v}" for k, v in meta.items()))
            if payload["batches"]:
                cols = [c for c in payload["batches"][0] if c != "edits"]
                print(" | ".join(cols))
                for rec in payload["batches"]:
                    print(" | ".join(str(rec[c]) for c in cols))
        return 0
    if args.command == "serve":
        payload = _run_serve(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            width = max(len(k) for k in payload)
            for key, value in payload.items():
                print(f"{key.ljust(width)}  {value}")
        return 0
    payload = _run_vc(args) if args.command == "vc" else _run_sc(args)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key.ljust(width)}  {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
