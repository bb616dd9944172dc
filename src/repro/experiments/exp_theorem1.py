"""EXP-TH1 — Theorem 1: maximal edge packing in O(Δ + log* W) rounds.

Three sweeps, each isolating one variable of the bound:

* **n-sweep** (EXP-TH1a): d-regular graphs with n growing at fixed
  (Δ, W).  Claim: the measured round count is a constant — strict
  locality.  Also asserts the measured count equals the closed-form
  schedule length.
* **Δ-sweep** (EXP-TH1b): complete graphs K_{Δ+1}.  Claim: rounds grow
  linearly in Δ (the schedule is 8Δ + T_cv + 8).
* **W-sweep** (EXP-TH1c): fixed cycle, weight bound W escalating to
  2^1024.  Claim: rounds grow like log* W — doubling the *exponent*
  adds at most a round or two.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro._util.logstar import log_star
from repro.analysis.bounds import edge_packing_rounds_exact
from repro.analysis.verify import check_edge_packing
from repro.core.edge_packing import maximal_edge_packing
from repro.experiments.common import ExperimentTable, parallel_map
from repro.graphs import families
from repro.graphs.weights import unit_weights

__all__ = ["run_n_sweep", "run_delta_sweep", "run_w_sweep", "run", "main"]


def _n_sweep_case(degree: int, n: int):
    """One n-sweep row (module-level: picklable for worker processes)."""
    g = families.random_regular(degree, n, seed=1)
    res = maximal_edge_packing(g, unit_weights(n))
    chk = check_edge_packing(g, unit_weights(n), res.y)
    return n, res, chk


def run_n_sweep(
    ns: Optional[List[int]] = None,
    degree: int = 3,
    n_workers: Optional[int] = None,
) -> ExperimentTable:
    ns = ns or [8, 16, 32, 64]
    table = ExperimentTable(
        experiment_id="EXP-TH1a",
        title=f"rounds vs n on {degree}-regular graphs (Δ={degree}, W=1)",
        columns=["n", "rounds measured", "rounds formula", "maximal packing"],
    )
    cases = parallel_map(partial(_n_sweep_case, degree), ns, n_workers)
    for n, res, chk in cases:
        table.add_row(
            n=n,
            **{
                "rounds measured": res.rounds,
                "rounds formula": edge_packing_rounds_exact(degree, 1),
                "maximal packing": chk.ok,
            },
        )
    flat = len(set(table.column("rounds measured"))) == 1
    table.add_note(
        f"strict locality (rounds constant in n): {'HOLDS' if flat else 'FAILS'}"
    )
    return table


def run_delta_sweep(deltas: Optional[List[int]] = None) -> ExperimentTable:
    deltas = deltas or [1, 2, 3, 4, 6, 8]
    table = ExperimentTable(
        experiment_id="EXP-TH1b",
        title="rounds vs Δ on complete graphs K_{Δ+1} (W=1)",
        columns=["Δ", "rounds measured", "rounds formula", "rounds / Δ"],
    )
    for d in deltas:
        g = families.complete_graph(d + 1)
        res = maximal_edge_packing(g, unit_weights(d + 1))
        table.add_row(
            **{
                "Δ": d,
                "rounds measured": res.rounds,
                "rounds formula": edge_packing_rounds_exact(d, 1),
                "rounds / Δ": res.rounds / d,
            }
        )
    ratios = table.column("rounds / Δ")
    table.add_note(
        "linear in Δ: rounds/Δ approaches the schedule constant 8 "
        f"(measured tail: {ratios[-1]:.2f})"
    )
    return table


def run_w_sweep(exponents: Optional[List[int]] = None, n: int = 12) -> ExperimentTable:
    exponents = exponents or [0, 4, 16, 64, 256, 1024]
    table = ExperimentTable(
        experiment_id="EXP-TH1c",
        title=f"rounds vs W on the {n}-cycle (Δ=2); W = 2^e",
        columns=["e (W = 2^e)", "log* W", "rounds measured", "rounds formula"],
    )
    g = families.cycle_graph(n)
    for e in exponents:
        W = 2**e
        weights = [W if v == 0 else 1 for v in range(n)]
        res = maximal_edge_packing(g, weights, W=W)
        check_edge_packing(g, weights, res.y).require()
        table.add_row(
            **{
                "e (W = 2^e)": e,
                "log* W": log_star(W),
                "rounds measured": res.rounds,
                "rounds formula": edge_packing_rounds_exact(2, W),
            }
        )
    rounds = table.column("rounds measured")
    table.add_note(
        "log*-shaped growth: W rises by ~300 orders of magnitude while "
        f"rounds go {rounds[0]} -> {rounds[-1]}"
    )
    return table


def run() -> List[ExperimentTable]:
    return [run_n_sweep(), run_delta_sweep(), run_w_sweep()]


def main() -> None:
    for table in run():
        print(table.render())
        print()


if __name__ == "__main__":
    main()
