"""Columnar (struct-of-arrays) per-node state for the fast engine.

The object engine steps machines node-by-node through Python objects;
:class:`StateLayout` is the alternative substrate behind
``run(engine="columnar")``: every state field is one preallocated numpy
column (per node, or per half-edge) — ``int64``, or ``object`` holding
Python ints where a machine's values outgrow a machine word — message
delivery is one whole-array gather, and a round is a handful of
vectorised passes instead of ``n`` ``step()`` calls.

The layout mirrors :meth:`repro.graphs.topology.PortNumberedGraph.csr`:
half-edge ``i`` (``offsets[v] <= i < offsets[v+1]``) is node ``v``'s
port ``i - offsets[v]``; ``targets[i]`` is the neighbour behind that
port.  A round's emission is one value per half-edge, and the message
sent out of half-edge ``i`` arrives on ``reverse[i]``, the neighbour's
half-edge for the same edge; delivering a round is the single gather
``values[reverse]`` — no scatter loop.

Machines opt in per run via the columnar protocol on
:class:`repro.simulator.machine.Machine` (``columnar_fields`` /
``start_columnar`` / ``emit_columnar`` / ``step_columnar`` /
``finish_columnar``); the engine falls back to the object path
automatically whenever a run does not qualify, and results are
bit-for-bit identical either way (``tests/test_columnar_engine.py``).

numpy is optional at import time: without it ``HAVE_NUMPY`` is false
and the columnar engine silently falls back to the object engine
(results are identical by contract, so absence only costs speed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

try:  # gated: the rest of the package must import without numpy
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = ["HAVE_NUMPY", "ColumnarPlan", "StateLayout", "np"]


@dataclass(frozen=True)
class ColumnarPlan:
    """What a machine asks the columnar engine to run.

    ``rounds`` is the number of *leading* schedule rounds the machine's
    vectorised kernels cover — after them the engine materialises
    per-node state objects via ``finish_columnar`` and hands the rest
    of the run to the object engine.  ``node_fields``/``edge_fields``
    declare the columns the kernels use as ``(name, fill)`` — an
    ``int64`` column — or ``(name, fill, dtype)``, where a ``dtype`` of
    ``object`` holds Python ints of any size; per-node columns have
    shape ``(n,)``, per-half-edge columns ``(2m,)``.
    """

    rounds: int
    node_fields: Tuple[Tuple[Any, ...], ...] = ()
    edge_fields: Tuple[Tuple[Any, ...], ...] = ()


class StateLayout:
    """Flat columnar state over a port-numbered graph's CSR arrays.

    Attributes
    ----------
    offsets, targets, rev_ports:
        the graph's CSR arrays as ``int64`` numpy arrays (see
        :meth:`~repro.graphs.topology.PortNumberedGraph.csr`).
    reverse:
        per-half-edge involution ``offsets[targets] + rev_ports``: the
        half-edge on which a message sent out of half-edge ``i``
        arrives, so ``values[reverse]`` delivers a round.
    degrees:
        per-node degree column, shape ``(n,)``.
    edge_owner:
        per-half-edge owning node, shape ``(2m,)`` — the inverse of the
        ``offsets`` segmentation, for per-node → per-half-edge
        broadcasts (``col[edge_owner]``).
    halted:
        per-node boolean mask; the engine suppresses emissions from
        masked nodes.  Kernels whose nodes may halt mid-plan must set
        it (the shipped edge-packing kernels never halt mid-plan).
    node, edge:
        the named state columns declared by the machine's
        :class:`ColumnarPlan`.
    aux:
        machine-private scratch (per-run constants, history columns);
        opaque to the engine.
    """

    def __init__(self, graph) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError(
                "StateLayout requires numpy; run(engine='columnar') falls "
                "back to the object engine when numpy is unavailable"
            )
        offsets, flat_targets, flat_rev = graph.csr()
        self.n: int = graph.n
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.targets = np.asarray(flat_targets, dtype=np.int64)
        self.rev_ports = np.asarray(flat_rev, dtype=np.int64)
        self.reverse = self.offsets[self.targets] + self.rev_ports
        self.degrees = np.asarray(graph.degree_array, dtype=np.int64)
        self.edge_owner = np.repeat(
            np.arange(self.n, dtype=np.int64), self.degrees
        )
        self.halted = np.zeros(self.n, dtype=bool)
        self.node: Dict[str, "np.ndarray"] = {}
        self.edge: Dict[str, "np.ndarray"] = {}
        self.aux: Dict[str, object] = {}

    # -- field management ----------------------------------------------

    def add_node_field(self, name: str, fill: int = 0,
                       dtype: Any = None) -> "np.ndarray":
        if name in self.node:
            raise ValueError(f"duplicate node field {name!r}")
        col = np.full(self.n, fill, dtype=dtype or np.int64)
        self.node[name] = col
        return col

    def add_edge_field(self, name: str, fill: int = 0,
                       dtype: Any = None) -> "np.ndarray":
        if name in self.edge:
            raise ValueError(f"duplicate edge field {name!r}")
        col = np.full(len(self.targets), fill, dtype=dtype or np.int64)
        self.edge[name] = col
        return col

    # -- whole-array passes --------------------------------------------

    def node_sum(self, edge_col: "np.ndarray") -> "np.ndarray":
        """Per-node sum of a per-half-edge column (CSR segment reduce).

        ``np.add.reduceat`` mishandles empty segments (it returns the
        element *at* the offset instead of the identity), so degree-0
        rows are zeroed explicitly and trailing offsets clamped —
        isolated vertices are first-class here.
        """
        if self.n == 0 or len(edge_col) == 0:
            return np.zeros(self.n, dtype=edge_col.dtype)
        starts = np.minimum(self.offsets[:-1], len(edge_col) - 1)
        sums = np.add.reduceat(edge_col, starts)
        sums[self.degrees == 0] = 0
        return sums

    def node_count(self, edge_mask: "np.ndarray") -> "np.ndarray":
        """Per-node count of set entries in a per-half-edge mask."""
        return self.node_sum(edge_mask.astype(np.int64))
