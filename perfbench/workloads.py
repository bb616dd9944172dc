"""Workload definitions: generator parameters, instance builders, checks.

The one-shot workloads solve a fixed set of base instances.  The seed
argument relabels every base instance by a seeded node permutation
(port structure travels with the nodes), so each seed gives different
inputs that are isomorphic port-numbered graphs: the work, the round
count, the message count and the metered bits are identical for every
seed, and the pinned ``expected`` counts below hold for all of them.

The churn workload draws its weights and edit stream from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.verify import (
    check_edge_packing,
    check_fractional_packing,
    check_set_cover,
    check_vertex_cover,
)
from repro.core.edge_packing import edge_packing_from_run, edge_packing_job
from repro.core.fractional_packing import (
    FractionalPackingMachine,
    fp_schedule_length,
)
from repro.core.vertex_cover import broadcast_vc_from_run, broadcast_vc_job
from repro.graphs import families
from repro.graphs.setcover import SetCoverInstance, random_instance
from repro.graphs.weights import uniform_weights
from repro.simulator import runtime

#: Seed of the base instances the seed argument relabels.
BASE_SEED = 2010

#: One-shot workloads solve the instance set ``seconds / pass_s`` times
#: (``pass_s`` is the workload's nominal pass time on a 2-core host),
#: and at least this many.  A fixed count keeps the work, and so the
#: process's cache growth and peak memory, the same every run.
MIN_PASSES = 3

#: churn-serve's script length per second of ``--seconds``: the fixed
#: script takes about that long on a 2-core host, and a fixed length
#: keeps the tail percentile and its sample count the same every run.
BATCHES_PER_SECOND = 32

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "port-oneshot": {
        "pass_s": 1.3,
        "why": "Section 3 vertex cover on thousands of nodes: object round "
               "loop, run set-up and bit metering dominate; columnar engages "
               "on one shape and falls back on the other",
        "instances": [
            {"label": "vc3-columnar", "algo": "vc-port", "d": 3, "n": 5000,
             "W": 8, "engine": "columnar",
             "expected": {"rounds": 36, "messages_sent": 104547,
                          "message_bits": 392854}},
            {"label": "vc4-radix-fallback", "algo": "vc-port", "d": 4,
             "n": 2500, "W": 16, "engine": "columnar",
             "expected": {"rounds": 44, "messages_sent": 88014,
                          "message_bits": 468884}},
        ],
        "smoke": [
            {"label": "vc3-columnar", "algo": "vc-port", "d": 3, "n": 600,
             "W": 8, "engine": "columnar",
             "expected": {"rounds": 36, "messages_sent": 12470,
                          "message_bits": 46784}},
            {"label": "vc4-radix-fallback", "algo": "vc-port", "d": 4,
             "n": 300, "W": 16, "engine": "columnar",
             "expected": {"rounds": 44, "messages_sent": 10473,
                          "message_bits": 54775}},
        ],
    },
    "broadcast-oneshot": {
        "pass_s": 1.8,
        "why": "tiny n, hundreds of broadcast rounds: history replay "
               "through GenerationalMemo, ScaledInt hashing and history "
               "metering dominate",
        "instances": [
            {"label": "bvc3", "algo": "vc-broadcast", "d": 3, "n": 10, "W": 2,
             "expected": {"rounds": 426, "messages_sent": 12780,
                          "message_bits": 51575886}},
            {"label": "setcover-k3f2", "algo": "set-cover", "subsets": 100,
             "elements": 100, "k": 3, "f": 2, "W": 2,
             "expected": {"rounds": 425, "messages_sent": 35977,
                          "message_bits": 1355254}},
        ],
        "smoke": [
            {"label": "bvc3", "algo": "vc-broadcast", "d": 3, "n": 8, "W": 2,
             "expected": {"rounds": 426, "messages_sent": 10224,
                          "message_bits": 41245647}},
            {"label": "setcover-k3f2", "algo": "set-cover", "subsets": 20,
             "elements": 20, "k": 3, "f": 2, "W": 2,
             "expected": {"rounds": 425, "messages_sent": 6889,
                          "message_bits": 258941}},
        ],
    },
    "churn-serve": {
        "why": "the write path: light-cone replay, overlay, session "
               "snapshots, serving transport and checkpoints; one-shot "
               "engines run only during set-up",
        "churn": {"sessions": 4, "n": 1000, "W": 8, "edits_per_batch": 2,
                  "max_degree": 2, "batches": None, "workers": 1},
        "smoke": {"sessions": 4, "n": 60, "W": 8, "edits_per_batch": 2,
                  "max_degree": 2, "batches": 80, "workers": 1},
    },
}


def permutation(n: int, seed: int, salt: str) -> List[int]:
    perm = list(range(n))
    random.Random(f"perfbench:{salt}:{seed}").shuffle(perm)
    return perm


def _permute(values: List[Any], perm: List[int]) -> List[Any]:
    out: List[Any] = [None] * len(values)
    for v, x in enumerate(values):
        out[perm[v]] = x
    return out


@dataclass
class Solved:
    """One instance's run and its assembled answer."""

    run: runtime.RunResult
    cover: frozenset
    answer: Any  # EdgePackingResult, VertexCoverResult or set cover's y


@dataclass
class Instance:
    """One seeded instance of a one-shot workload."""

    spec: Dict[str, Any]
    graph: Any = None
    weights: List[int] = field(default_factory=list)
    setcover: Optional[SetCoverInstance] = None

    @property
    def label(self) -> str:
        return self.spec["label"]

    # -- build ----------------------------------------------------------

    @classmethod
    def build(cls, spec: Dict[str, Any], seed: int) -> "Instance":
        inst = cls(spec)
        if spec["algo"] == "set-cover":
            base = random_instance(
                spec["subsets"], spec["elements"], k=spec["k"], f=spec["f"],
                W=spec["W"], seed=BASE_SEED,
            )
            sp = permutation(base.n_subsets, seed, spec["label"] + ":s")
            ep = permutation(base.n_elements, seed, spec["label"] + ":e")
            subsets = _permute(
                [frozenset(ep[u] for u in mem) for mem in base.subsets], sp
            )
            inst.setcover = SetCoverInstance(
                subsets=tuple(subsets),
                weights=tuple(_permute(list(base.weights), sp)),
                n_elements=base.n_elements,
            )
            inst.graph = inst.setcover.to_bipartite_graph()
            return inst
        base = families.random_regular(spec["d"], spec["n"], seed=BASE_SEED)
        weights = uniform_weights(spec["n"], spec["W"], seed=BASE_SEED)
        perm = permutation(spec["n"], seed, spec["label"])
        inst.graph = base.relabel(perm)
        inst.weights = _permute(weights, perm)
        return inst

    # -- solve ----------------------------------------------------------

    def run(self, metering: str) -> runtime.RunResult:
        spec = self.spec
        if spec["algo"] == "vc-port":
            job = edge_packing_job(
                self.graph, self.weights, metering=metering,
                engine=spec["engine"],
            )
        elif spec["algo"] == "vc-broadcast":
            job = broadcast_vc_job(self.graph, self.weights, metering=metering)
        else:
            sc = self.setcover
            job = {
                "graph": self.graph,
                "machine": FractionalPackingMachine(),
                "inputs": sc.node_inputs(),
                "globals_map": sc.global_params(),
                "max_rounds": fp_schedule_length(sc.f, sc.k, sc.W),
                "metering": metering,
            }
        return runtime.run(**job)

    def assemble(self, result: runtime.RunResult) -> Solved:
        algo = self.spec["algo"]
        if algo == "vc-port":
            ep = edge_packing_from_run(self.graph, self.weights, result)
            return Solved(result, ep.saturated, ep)
        if algo == "vc-broadcast":
            vc = broadcast_vc_from_run(self.graph, self.weights, result)
            return Solved(result, vc.cover, vc)
        sc = self.setcover
        if not result.all_halted:
            raise RuntimeError("fractional packing did not halt")
        n_s = sc.n_subsets
        y = tuple(result.outputs[n_s + u]["y"] for u in range(sc.n_elements))
        cover = frozenset(s for s in range(n_s) if result.outputs[s]["in_cover"])
        return Solved(result, cover, y)

    # -- verify ---------------------------------------------------------

    def verify(self, solved: Solved, metered: bool) -> List[str]:
        """Every way ``solved`` is wrong, exactly (empty when correct)."""
        errors: List[str] = []
        algo = self.spec["algo"]
        if algo == "set-cover":
            sc = self.setcover
            ok, uncovered = check_set_cover(sc, solved.cover)
            if not ok:
                errors.append(f"{len(uncovered)} elements uncovered")
            pack = check_fractional_packing(sc, solved.answer)
            if not pack.ok:
                errors.append("fractional packing: " + pack.violations[0])
            bound = sc.f * sum(solved.answer, Fraction(0))
        else:
            ok, uncovered = check_vertex_cover(self.graph, solved.cover)
            if not ok:
                errors.append(f"{len(uncovered)} edges uncovered")
            if algo == "vc-port":
                pack = check_edge_packing(self.graph, self.weights, solved.answer.y)
                if not pack.ok:
                    errors.append("edge packing: " + pack.violations[0])
                bound = 2 * solved.answer.packing_value()
            else:
                errors.extend(self._broadcast_packing_errors(solved))
                bound = 2 * solved.answer.packing_value
        weight = (
            sc.cover_weight(solved.cover) if algo == "set-cover"
            else sum(self.weights[v] for v in solved.cover)
        )
        if weight > bound:
            errors.append(f"cover weight {weight} exceeds certificate {bound}")
        run = solved.run
        want = self.spec["expected"]
        got = {"rounds": run.rounds}
        if metered:
            got["messages_sent"] = run.messages_sent
            got["message_bits"] = run.message_bits
        for key, value in got.items():
            if value != want[key]:
                errors.append(f"{key} {value} != recorded {want[key]}")
        return [f"{self.label}: {e}" for e in errors]

    def _broadcast_packing_errors(self, solved: Solved) -> List[str]:
        """Node-level packing checks for the broadcast model's output.

        Broadcast outputs report incident edge values as a multiset, not
        per port, so feasibility and saturation are checked per node:
        loads within weight, and a node is in the cover iff saturated.
        """
        errors = []
        outputs = solved.run.outputs
        for v in self.graph.nodes():
            ys = [y for (y, _sat) in outputs[v]["incident"]]
            if len(ys) != self.graph.degree(v) or any(y < 0 for y in ys):
                errors.append(f"node {v}: malformed incident values")
                continue
            load = sum(ys, Fraction(0))
            if load > self.weights[v]:
                errors.append(f"node {v}: load {load} exceeds its weight")
            if (load == self.weights[v]) != (v in solved.cover):
                errors.append(f"node {v}: cover membership != saturation")
        return errors


def corrupt(inst: Instance, solved: Solved) -> Solved:
    """Drop one cover member that some edge or element relies on alone."""
    if inst.spec["algo"] == "set-cover":
        for s in sorted(solved.cover):
            rest = solved.cover - {s}
            if not check_set_cover(inst.setcover, rest)[0]:
                return Solved(solved.run, rest, solved.answer)
    else:
        for (u, v) in inst.graph.edges:
            if (u in solved.cover) != (v in solved.cover):
                dropped = u if u in solved.cover else v
                return Solved(solved.run, solved.cover - {dropped}, solved.answer)
    raise RuntimeError(f"{inst.label}: no cover member to drop")


def churn_spec(smoke: bool) -> Dict[str, Any]:
    return WORKLOADS["churn-serve"]["smoke" if smoke else "churn"]


def operations(workload: str, smoke: bool, seconds: float) -> int:
    """Solves of the instance set, or churn batches, one run performs."""
    if workload == "churn-serve":
        spec = churn_spec(smoke)
        k = spec["sessions"]
        return spec["batches"] or k * round(BATCHES_PER_SECOND * seconds / k)
    return max(MIN_PASSES, round(seconds / WORKLOADS[workload]["pass_s"]))


def instance_specs(workload: str, smoke: bool) -> List[Dict[str, Any]]:
    return WORKLOADS[workload]["smoke" if smoke else "instances"]


def provenance(workload: str, smoke: bool, seconds: float) -> Dict[str, Any]:
    """The workload's generator parameters and reason, as recorded."""
    spec = WORKLOADS[workload]
    if workload == "churn-serve":
        params: Any = dict(churn_spec(smoke), family="cycle",
                           stream="RandomChurn", checkpoint_every="default")
    else:
        params = [
            {k: v for k, v in s.items() if k != "expected"}
            for s in instance_specs(workload, smoke)
        ]
    return {"workload": workload, "why": spec["why"], "base_seed": BASE_SEED,
            "size": "smoke" if smoke else "full", "params": params,
            "operations": operations(workload, smoke, seconds)}


class StreamView:
    """The read-only graph surface an edit stream reads, over a topology.

    Streams read ``n``, ``edges`` and ``degree_array``; building them
    from a patched :class:`~repro.dynamic.MutableTopology` avoids
    materialising a whole port-numbered graph per batch.
    """

    def __init__(self, topo: Any):
        self.n = topo.n
        self.edges = topo.edges_sorted()
        self.degree_array = [topo.degree(v) for v in range(topo.n)]


def churn_sessions(seed: int, n: int, W: int, sessions: int) -> List[Tuple[Any, List[int]]]:
    """``(graph, weights)`` per session: cycles with seeded weights."""
    return [
        (families.cycle_graph(n), uniform_weights(n, W, seed=seed * 1000 + i))
        for i in range(sessions)
    ]
