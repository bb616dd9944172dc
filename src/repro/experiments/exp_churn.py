"""EXP-CHURN — dynamic covers: quality and repaired fraction vs churn rate.

The dynamic-network engine (:mod:`repro.dynamic`) claims that under
churn (a) covers stay valid 2-approximations with the certificate to
prove it, whatever the edit rate, and (b) the incremental mode repairs
only the dirty region — a fraction of the network that grows with the
churn rate and stays well below 1 on low-churn streams (the locality
of the paper's algorithms made quantitative).  This experiment sweeps
the churn rate (edits per batch) on one instance, runs an incremental
and a scratch session in lockstep at every rate, and tabulates

* mean repaired fraction and mean repaired node count (incremental),
* per-batch repair latency percentiles (the shared ``latency_ms``
  vocabulary of :func:`repro.dynamic.latency_summary` — the same
  shape ``repro.cli dynamic --json`` and the serving benchmark emit),
* the final cover weight and the *worst* certificate ratio over the
  whole stream (``<= 1`` certifies every intermediate cover),
* whether every intermediate cover was valid, and
* whether incremental ≡ scratch held on every batch (the
  ``tests/test_dynamic.py`` contract, re-checked live).

Each churn rate is one independent, picklable kernel configuration, so
the sweep runs through :func:`repro.experiments.common.parallel_map`
(``n_workers > 1`` runs the rates on a warm process pool).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.dynamic import DynamicRun, RandomChurn, latency_summary
from repro.obs import EV_DYNAMIC_BATCH
from repro.experiments.common import ExperimentTable, parallel_map
from repro.graphs import families
from repro.graphs.weights import uniform_weights, unit_weights

__all__ = ["run", "main"]


def _churn_cell(cfg: Tuple[str, int, int, int, int, int]) -> Dict[str, Any]:
    """One churn rate: lockstep incremental + scratch sessions.

    Module-level (picklable) so the sweep can run on worker processes.
    """
    family, n, W, rate, batches, seed = cfg
    graph = families.sized(family, n, seed=seed)
    weights = (
        unit_weights(graph.n) if W <= 1 else uniform_weights(graph.n, W, seed=seed)
    )
    kwargs = dict(delta=graph.max_degree, W=max(1, W), metering="none")
    inc = DynamicRun.vertex_cover(graph, weights, mode="incremental", **kwargs)
    scr = DynamicRun.vertex_cover(graph, weights, mode="scratch", **kwargs)
    stream = RandomChurn(
        edits_per_batch=rate, seed=seed, W=max(1, W),
        max_degree=graph.max_degree,
    )
    worst_ratio = inc.certificate_ratio()
    always_cover = inc.is_cover()
    always_equal = True
    applied = 0
    # A cell-local tracer: the batch count below is the
    # trace-derived view of the same stream (tracing never changes
    # results — the tests/test_obs.py contract).
    tracer = obs.Tracer(f"exp-churn rate {rate}")
    with obs.tracing(tracer):
        for _ in range(batches):
            batch = stream.next_batch(inc.graph, inc.inputs)
            if not batch:
                continue
            inc.apply(batch)
            scr.apply(batch)
            applied += 1
            r_inc, r_scr = inc.result, scr.result
            always_equal = always_equal and (
                r_inc.outputs == r_scr.outputs
                and r_inc.states == r_scr.states
                and r_inc.rounds == r_scr.rounds
            )
            view = inc.cover_view()
            always_cover = always_cover and view.covered
            worst_ratio = max(worst_ratio, view.certificate_ratio)
    stats = inc.stats
    return {
        "rate": rate,
        "batches": applied,
        "mean_fraction": (
            sum(s.repaired_fraction for s in stats) / len(stats) if stats else 0.0
        ),
        "mean_nodes": (
            sum(s.repaired_nodes for s in stats) / len(stats) if stats else 0.0
        ),
        # per-batch repair wall clock, in the shared latency shape
        "latency_ms": latency_summary([s.wall_ms for s in stats]),
        "traced_batches": len(tracer.events(EV_DYNAMIC_BATCH)),
        "final_weight": inc.cover_weight(),
        "worst_ratio": worst_ratio,
        "always_cover": always_cover,
        "always_equal": always_equal,
    }


def run(
    rates: Optional[List[int]] = None,
    n: int = 192,
    batches: int = 4,
    family: str = "cycle",
    W: int = 1,
    seed: int = 0,
    n_workers: Optional[int] = None,
) -> ExperimentTable:
    """Sweep churn rates; one lockstep session pair per rate."""
    rates = rates or [1, 2, 4]
    table = ExperimentTable(
        experiment_id="EXP-CHURN",
        title=(
            f"dynamic covers under churn ({family} n={n}, W={max(1, W)}): "
            f"repaired fraction vs edits per batch"
        ),
        columns=[
            "edits / batch",
            "batches",
            "mean repaired fraction",
            "mean repaired nodes",
            "p50 latency (ms)",
            "p99 latency (ms)",
            "final cover weight",
            "worst certificate ratio",
            "covers valid",
            "incremental == scratch",
        ],
    )
    cells = parallel_map(
        _churn_cell,
        [(family, n, W, rate, batches, seed) for rate in rates],
        n_workers=n_workers,
    )
    for cell in cells:
        table.add_row(
            **{
                "edits / batch": cell["rate"],
                "batches": cell["batches"],
                "mean repaired fraction": round(cell["mean_fraction"], 4),
                "mean repaired nodes": round(cell["mean_nodes"], 1),
                "p50 latency (ms)": round(cell["latency_ms"]["p50_ms"], 3),
                "p99 latency (ms)": round(cell["latency_ms"]["p99_ms"], 3),
                "final cover weight": cell["final_weight"],
                "worst certificate ratio": cell["worst_ratio"],
                "covers valid": cell["always_cover"],
                "incremental == scratch": cell["always_equal"],
            }
        )

    assert all(cell["always_cover"] for cell in cells)
    assert all(cell["always_equal"] for cell in cells)
    assert all(cell["worst_ratio"] <= 1 for cell in cells)
    table.add_note(
        "every intermediate cover valid and certified <= 2·OPT; "
        "incremental == scratch on every batch (HOLDS)"
    )
    lo = min(cells, key=lambda c: c["rate"])
    hi = max(cells, key=lambda c: c["rate"])
    grows = hi["mean_fraction"] >= lo["mean_fraction"]
    table.add_note(
        f"repaired fraction grows with churn rate: "
        f"{lo['mean_fraction']:.3f} @ {lo['rate']} -> "
        f"{hi['mean_fraction']:.3f} @ {hi['rate']} "
        f"({'HOLDS' if grows else 'FAILS'})"
    )
    assert grows
    return table


def main() -> None:
    print(run(rates=[1, 2, 4, 8], n=512, batches=6).render())


if __name__ == "__main__":
    main()
