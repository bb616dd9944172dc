"""EXP-SCALE — large-n scaling of the core protocols (the first n ≥ 10⁴ runs).

The paper's bounds are *strictly local*: round counts depend on Δ and
W only, never on n, so the protocols should scale to arbitrarily large
instances with rounds flat and message volume exactly linear in n.
The small-n experiments verify the bounds; this one verifies — and
produces the figure data for — the scaling claim itself at sizes
comparable to the large-scale covering evaluations in the related
work (Koufogiannakis–Young 2011; Ben-Basat et al. 2018):

* **§3 edge packing** on the n-cycle, run directly on G;
* **§4 fractional packing** on the bipartite encoding H(G) of the
  same instance (2n nodes for a cycle) — the machine the Section 5
  simulation replays.

Both job families are picklable, so this is also the showcase workload
for ``sweep(..., n_workers=N)``: each (n, protocol) pair is one
independent sweep instance, and one warm process pool amortises across
the whole table.  ``benchmarks/bench_sweep_scaling.py`` times exactly
this workload serial vs process pool and records the speedup in
``BENCH_perf.json``.

The §5 history-rebroadcast machine is deliberately *not* swept here at
large n: its replay loop is the repo's slowest path (ROADMAP item) and
it keeps the same rounds as §4 by construction — measured in
``exp_section5``/``exp_messages`` at the sizes it can reach.

``main()`` runs the n ≥ 10⁴ parameterisation and writes the figure
data to ``benchmarks/figures/large_n_scaling.json`` (machine-readable,
for plotting).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.bounds import (
    edge_packing_rounds_exact,
    fractional_packing_rounds_exact,
)
from repro.core.edge_packing import edge_packing_job
from repro.core.fractional_packing import (
    FractionalPackingMachine,
    fp_schedule_length,
)
from repro.experiments.common import ExperimentTable
from repro.graphs import families
from repro.graphs.setcover import vc_to_setcover
from repro.graphs.weights import unit_weights
from repro.simulator.runtime import sweep

__all__ = ["run", "figure_data", "write_figure", "main", "FIGURE_PATH"]

#: Where ``main()`` drops the machine-readable figure data.
FIGURE_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "figures" / "large_n_scaling.json"


def _jobs_for(n: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The two protocol jobs on the n-cycle, labelled."""
    g = families.cycle_graph(n)
    w = unit_weights(n)
    inst = vc_to_setcover(g, w)
    direct = {
        "graph": inst.to_bipartite_graph(),
        "machine": FractionalPackingMachine(),
        "inputs": inst.node_inputs(),
        "globals_map": inst.global_params(),
        "max_rounds": fp_schedule_length(inst.f, inst.k, inst.W),
        "metering": "counts",
    }
    return [
        ("§3 edge packing (G)", edge_packing_job(g, w, metering="counts")),
        ("§4 fractional packing (H(G))", direct),
    ]


def run(
    ns: Optional[List[int]] = None,
    n_workers: Optional[int] = None,
) -> ExperimentTable:
    """Sweep both protocols over ``ns`` and tabulate rounds/messages.

    Defaults stay small so the tier-1 suite stays fast; ``main()`` (and
    the CLI with ``--workers``) pushes past n = 10⁴.
    """
    ns = ns or [64, 256]
    table = ExperimentTable(
        experiment_id="EXP-SCALE",
        title="large-n scaling on cycles (Δ=2, W=1): rounds flat, messages linear",
        columns=[
            "n",
            "protocol",
            "nodes simulated",
            "rounds",
            "rounds formula",
            "messages",
            "messages / n",
        ],
    )

    labelled = [(n, label, job) for n in ns for label, job in _jobs_for(n)]
    results = sweep(
        [job for _n, _label, job in labelled], n_workers=n_workers
    )

    for (n, label, job), res in zip(labelled, results):
        if not res.all_halted:
            raise RuntimeError(f"{label} did not halt at n={n}")
        formula = (
            edge_packing_rounds_exact(2, 1)
            if label.startswith("§3")
            else fractional_packing_rounds_exact(2, 2, 1)
        )
        table.add_row(
            n=n,
            protocol=label,
            **{
                "nodes simulated": job["graph"].n,
                "rounds": res.rounds,
                "rounds formula": formula,
                "messages": res.messages_sent,
                "messages / n": res.messages_sent / n,
            },
        )

    for label in ("§3", "§4"):
        rows = [r for r in table.rows if r["protocol"].startswith(label)]
        rounds = {r["rounds"] for r in rows}
        per_n = {r["messages / n"] for r in rows}
        flat = len(rounds) == 1
        linear = max(per_n) - min(per_n) < 1e-9
        table.add_note(
            f"{label}: rounds constant in n ({'HOLDS' if flat else 'FAILS'}); "
            f"messages exactly linear in n ({'HOLDS' if linear else 'FAILS'})"
        )
        assert flat and linear
    return table


def figure_data(table: ExperimentTable) -> Dict[str, Any]:
    """Reshape the table into per-protocol curves for plotting."""
    curves: Dict[str, Dict[str, List[Any]]] = {}
    for row in table.rows:
        curve = curves.setdefault(
            row["protocol"], {"n": [], "rounds": [], "messages": []}
        )
        curve["n"].append(row["n"])
        curve["rounds"].append(row["rounds"])
        curve["messages"].append(row["messages"])
    return {
        "figure": "large-n scaling (cycles, Δ=2, W=1)",
        "x_axis": "n",
        "claims": list(table.notes),
        "curves": curves,
    }


def write_figure(table: ExperimentTable, path: Optional[Path] = None) -> Path:
    path = path or FIGURE_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(figure_data(table), indent=2) + "\n")
    return path


def main() -> None:
    table = run(ns=[1_000, 4_000, 10_000, 16_384], n_workers=4)
    print(table.render())
    print(f"figure data -> {write_figure(table)}")


if __name__ == "__main__":
    main()
