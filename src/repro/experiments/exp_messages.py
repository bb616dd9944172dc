"""EXP-MSG — message complexity across the three protocols.

The paper trades message size for model weakness twice: the Section 5
simulation keeps the *round* count of Section 4 "at the cost of
increasing message complexity", and the self-stabilising transformer
[23] multiplies message size by the horizon T.  This experiment puts
the three protocols side by side on one instance and measures total
messages, total bits, and peak per-round bits — making both trade-offs
quantitative.

All three protocol runs go through one batched
:func:`repro.simulator.runtime.sweep` call (each row carries its own
machine); pass ``n_workers`` to run them on a warm process pool, and
``include_large`` to repeat the comparison on a large-n cycle.
``replay`` configures both replay-aware rows
(``"incremental"``/``"scratch"``, bit-identical tables — see
:mod:`repro._util.memo`).  The §5 history row still dominates the wall
clock for n ≳ 10³ — with incremental replay the cost is the linearly
growing messages being metered, no longer the replay loop itself; the
§3 row alone scales past n = 10⁴ comfortably (see ``exp_scaling``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.edge_packing import (
    EdgePackingMachine,
    edge_packing_from_run,
    edge_packing_job,
    schedule_length,
)
from repro.core.vertex_cover import broadcast_vc_from_run, broadcast_vc_job
from repro.experiments.common import ExperimentTable
from repro.graphs import families
from repro.graphs.weights import unit_weights
from repro.selfstab.transformer import SelfStabilisingMachine
from repro.simulator.runtime import sweep

__all__ = ["run", "main"]


def _protocol_jobs(n: int, replay: str = "incremental") -> List[Dict[str, Any]]:
    """The three protocol runs on the n-cycle, as sweep() instances.

    ``replay`` configures both replay-aware machines (the §5 history
    machine and the self-stabilising transformer); results are
    bit-identical across modes — ``benchmarks/bench_replay.py`` times
    exactly this job list in both modes.
    """
    g = families.cycle_graph(n)
    w = unit_weights(n)
    delta, W = 2, 1
    horizon = schedule_length(delta, W)
    return [
        edge_packing_job(g, w, delta=delta, W=W),
        broadcast_vc_job(g, w, delta=delta, W=W, replay=replay),
        {
            "graph": g,
            "machine": SelfStabilisingMachine(
                EdgePackingMachine(), horizon, replay=replay
            ),
            "inputs": list(w),
            "globals_map": {"delta": delta, "W": W},
            "max_rounds": horizon,  # one stabilisation window
        },
    ]


def run(
    n: int = 8,
    n_workers: Optional[int] = None,
    include_large: bool = False,
    large_n: int = 64,
    replay: str = "incremental",
) -> ExperimentTable:
    sizes = [n] + ([large_n] if include_large else [])
    table = ExperimentTable(
        experiment_id="EXP-MSG",
        title=f"message complexity on cycles (Δ=2, W=1), n ∈ {sizes}",
        columns=[
            "instance",
            "protocol",
            "model",
            "rounds",
            "messages",
            "total kbits",
            "peak round kbits",
            "bits / (message)",
        ],
    )

    jobs: List[Dict[str, Any]] = []
    for size in sizes:
        jobs.extend(_protocol_jobs(size, replay=replay))
    results = sweep(jobs, n_workers=n_workers)

    horizon = schedule_length(2, 1)
    for i, size in enumerate(sizes):
        port_run, bvc_run, ss = results[3 * i : 3 * i + 3]
        g = jobs[3 * i]["graph"]
        w = unit_weights(size)
        port = edge_packing_from_run(g, w, port_run)
        broadcast = broadcast_vc_from_run(g, w, bvc_run)
        for protocol, model, rounds, res in [
            ("§3 edge packing", "port numbering", port.rounds, port.run),
            ("§5 history simulation", "broadcast", broadcast.rounds, broadcast.run),
            (f"self-stabilising §3 (T={horizon})", "port numbering", ss.rounds, ss),
        ]:
            table.add_row(
                instance=f"cycle{size}",
                protocol=protocol,
                model=model,
                rounds=rounds,
                messages=res.messages_sent,
                **{
                    "total kbits": res.message_bits / 1000,
                    "peak round kbits": res.max_round_bits / 1000,
                    "bits / (message)": res.message_bits
                    / max(1, res.messages_sent),
                },
            )

    base_bits = table.rows[0]["total kbits"]
    table.add_note(
        f"§5 pays ~{table.rows[1]['total kbits'] / base_bits:.0f}x the bits of "
        "§3 for working in the strictly weaker broadcast model"
    )
    table.add_note(
        f"the self-stabilising wrapper pays ~{table.rows[2]['total kbits'] / base_bits:.0f}x "
        f"(the factor-T pipeline) for tolerating arbitrary transient faults"
    )
    assert table.rows[1]["total kbits"] > base_bits
    assert table.rows[2]["total kbits"] > base_bits
    return table


def main() -> None:
    print(run(n_workers=3, include_large=True).render())


if __name__ == "__main__":
    main()
