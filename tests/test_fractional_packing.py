"""Tests for the Section 4 fractional packing machine, incl. Figure 1."""

from __future__ import annotations

import gc
import hashlib
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, HealthCheck

from repro.analysis.bounds import (
    fractional_packing_paper_bound,
    fractional_packing_rounds_exact,
)
from repro.analysis.verify import check_fractional_packing, check_set_cover
from repro._util.ordering import canonical_key
from repro.baselines.exact import exact_min_set_cover
from repro.core.broadcast_vc import BroadcastVertexCoverMachine, bvc_round_count
from repro.core.fractional_packing import (
    FractionalPackingMachine,
    build_fp_schedule,
    fp_out_degree_bound,
    fp_schedule_length,
    maximal_fractional_packing,
)
from repro.core.set_cover import set_cover_f_approx
from repro.graphs.setcover import (
    partition_instance,
    random_instance,
    symmetric_kpp_instance,
    vc_to_setcover,
)
from repro.graphs import families
from repro.simulator.runtime import run, run_on_setcover
from tests.conftest import setcover_instances


def figure1_instance():
    """The reconstructed Figure 1 instance (see DESIGN.md).

    Subsets (0-based elements): s0={u0,u1} w4, s1={u1,u2,u3} w9,
    s2={u3,u4} w8, s3={u3,u4,u5} w12.  Matches every legible value in
    the figure: x_i(s) = (2,3,4,4), p(u) = (2,2,3,3,4,4), first-phase
    saturation of exactly {u0,u1} (via s0), and B-outdegrees 0,0,+,+
    for the surviving elements.
    """
    return partition_instance(
        groups=[[0, 1], [1, 2, 3], [3, 4], [3, 4, 5]],
        weights=[4, 9, 8, 12],
        n_elements=6,
    )


def _check_full(instance):
    res = maximal_fractional_packing(instance)
    check_fractional_packing(instance, res.y).require()
    ok, uncovered = check_set_cover(instance, res.saturated_subsets)
    assert ok, f"saturated subsets do not cover: {uncovered}"
    assert res.cover_weight() <= instance.f * res.packing_value()
    return res


class TestScheduleAndBounds:
    def test_out_degree_bound(self):
        assert fp_out_degree_bound(2, 3) == 4
        assert fp_out_degree_bound(1, 1) == 0

    def test_schedule_rounds_formula_shape(self):
        # (D+1) iterations x [5(D+1) sat + 2 sync + 2 T_wcv + 10(D+1) tr]
        for (f, k, W) in [(1, 1, 1), (2, 2, 1), (2, 3, 4), (3, 3, 2)]:
            sched = build_fp_schedule(f, k, W)
            D = fp_out_degree_bound(f, k)
            kinds = [t[0] for t in sched]
            assert kinds.count("sat_y") == (D + 1) ** 2
            assert kinds.count("sync_y") == D + 1
            assert kinds.count("tr_elem") == 5 * (D + 1) ** 2
            assert len(sched) == fp_schedule_length(f, k, W)

    def test_rounds_below_paper_bound(self):
        for (f, k) in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3)]:
            for W in (1, 16, 2**16):
                assert fp_schedule_length(f, k, W) <= fractional_packing_paper_bound(
                    f, k, W
                )


class TestFigure1:
    def test_first_saturation_phase_trace(self):
        """Assert the exact x, p, q, y values of Figure 1(a)."""
        inst = figure1_instance()
        assert (inst.f, inst.k, inst.W) == (3, 3, 12)

        captured = {}

        def observer(round_index, states, outboxes):
            # Rounds are 1-based; after round 5 the colour-0 saturation
            # phase of iteration 0 (rounds 1..5) is complete.
            if round_index == 5:
                captured["states"] = [s.clone() for s in states]

        run_on_setcover(
            inst,
            FractionalPackingMachine(),
            observer=observer,
            max_rounds=fp_schedule_length(inst.f, inst.k, inst.W),
        )
        states = captured["states"]
        subsets = states[: inst.n_subsets]
        elements = states[inst.n_subsets :]

        # x_i(s) = r(s) / |U_yi(s)| for the first phase: 4/2, 9/3, 8/2, 12/3
        assert [s.x_by_colour[0] for s in subsets] == [
            Fraction(2),
            Fraction(3),
            Fraction(4),
            Fraction(4),
        ]
        # p(u) = min offer: 2 2 3 3 4 4  (the figure's p row)
        assert [e.p for e in elements] == [
            Fraction(2),
            Fraction(2),
            Fraction(3),
            Fraction(3),
            Fraction(4),
            Fraction(4),
        ]
        # q_i(s) = min p over members: 2, 2, 3, 3
        assert [s.q_by_colour[0] for s in subsets] == [
            Fraction(2),
            Fraction(2),
            Fraction(3),
            Fraction(3),
        ]
        # y(u) += p(u) happened
        assert [e.y for e in elements] == [e.p for e in elements]

    def test_first_phase_saturates_exactly_s0(self):
        """After phase one, s0 is saturated (y[s0]=4=w) and u0,u1 with it."""
        inst = figure1_instance()
        y_after = [Fraction(2), Fraction(2), Fraction(3), Fraction(3), Fraction(4), Fraction(4)]
        loads = [
            sum((y_after[u] for u in members), Fraction(0))
            for members in inst.subsets
        ]
        assert loads == [Fraction(4), Fraction(8), Fraction(7), Fraction(11)]
        saturated_subsets = [s for s, load in enumerate(loads) if load == inst.weights[s]]
        assert saturated_subsets == [0]
        # elements adjacent to s0: u0 and u1 — the black nodes of Fig 1(a)
        assert sorted(inst.subsets[0]) == [0, 1]

    def test_figure1_b_structure(self):
        """The effective DAG B of Fig 1(d): only u4 and u5 keep out-edges."""
        # From the trace above: p = (2,2,3,3,4,4), x = (2,3,4,4), q = (2,2,3,3).
        # B-edges (u,s,v): p(u) = x(s) and q(s) = p(v), both unsaturated.
        p = [2, 2, 3, 3, 4, 4]
        x = [2, 3, 4, 4]
        q = [2, 2, 3, 3]
        inst = figure1_instance()
        unsat = {2, 3, 4, 5}
        b_edges = set()
        for s, members in enumerate(inst.subsets):
            for u in members:
                for v in members:
                    if u != v and p[u] == x[s] and q[s] == p[v]:
                        if u in unsat and v in unsat:
                            b_edges.add((u, v))
        # u4 -> u3 (via s2 and s3), u5 -> u3 (via s3); u2, u3 have outdeg 0
        assert b_edges == {(4, 3), (5, 3)}

    def test_full_run_on_figure1(self):
        inst = figure1_instance()
        res = _check_full(inst)
        assert res.rounds == fp_schedule_length(3, 3, 12)
        opt, _ = exact_min_set_cover(inst)
        assert res.cover_weight() <= inst.f * opt


class TestSmallInstances:
    def test_single_subset_single_element(self):
        inst = partition_instance(groups=[[0]], weights=[5], n_elements=1)
        res = _check_full(inst)
        assert res.y[0] == 5
        assert res.saturated_subsets == frozenset({0})

    def test_two_disjoint_subsets(self):
        inst = partition_instance(
            groups=[[0], [1]], weights=[2, 3], n_elements=2
        )
        res = _check_full(inst)
        assert res.saturated_subsets == frozenset({0, 1})
        assert list(res.y) == [2, 3]

    def test_nested_subsets(self):
        # s0 = {0,1} cheap, s1 = {0} expensive: packing should saturate s0.
        inst = partition_instance(
            groups=[[0, 1], [0]], weights=[2, 10], n_elements=2
        )
        res = _check_full(inst)
        assert 0 in res.saturated_subsets

    def test_k_equals_one(self):
        # D = 0: single iteration, single colour
        inst = partition_instance(
            groups=[[0], [1], [2]], weights=[1, 2, 3], n_elements=3
        )
        res = _check_full(inst)
        assert res.rounds == fp_schedule_length(1, 1, 3)

    def test_symmetric_kpp_selects_everything(self):
        """Figure 3: on the fully symmetric instance the algorithm cannot
        break ties and must select all p subsets — ratio exactly p."""
        for p in (2, 3, 4):
            inst = symmetric_kpp_instance(p)
            res = _check_full(inst)
            assert res.saturated_subsets == frozenset(range(p))
            opt, _ = exact_min_set_cover(inst)
            assert opt == 1
            assert res.cover_weight() == p  # == min(f,k) * OPT: lower bound tight

    def test_weighted_instance(self):
        inst = partition_instance(
            groups=[[0, 1], [1, 2], [0, 2]], weights=[3, 5, 7], n_elements=3
        )
        _check_full(inst)


class TestVcEncoding:
    def test_cycle_as_setcover(self):
        g = families.cycle_graph(5)
        inst = vc_to_setcover(g, [1] * 5)
        res = _check_full(inst)
        # cover must be a vertex cover of the cycle
        cover = res.saturated_subsets
        for (u, v) in g.edges:
            assert u in cover or v in cover

    def test_path_weighted_as_setcover(self):
        g = families.path_graph(4)
        inst = vc_to_setcover(g, [1, 3, 1, 3])
        res = _check_full(inst)
        opt, _ = exact_min_set_cover(inst)
        assert res.cover_weight() <= 2 * opt  # f = 2


class TestFApproximation:
    @given(setcover_instances(max_subsets=5, max_elements=6, max_k=3, max_f=2, max_w=4))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_property_random_instances(self, inst):
        res = _check_full(inst)
        opt, _ = exact_min_set_cover(inst)
        assert res.cover_weight() <= inst.f * opt
        assert res.rounds == fractional_packing_rounds_exact(inst.f, inst.k, inst.W)

    def test_deterministic(self):
        inst = random_instance(4, 6, k=3, f=2, W=5, seed=3)
        a = maximal_fractional_packing(inst)
        b = maximal_fractional_packing(inst)
        assert a.y == b.y and a.saturated_subsets == b.saturated_subsets


class TestSetCoverApi:
    def test_certificate(self):
        inst = random_instance(5, 7, k=3, f=3, W=6, seed=8)
        res = set_cover_f_approx(inst)
        assert res.is_cover()
        assert res.certificate_ratio <= 1
        assert res.cover_weight == res.instance.cover_weight(res.cover)


# ----------------------------------------------------------------------
# Pinned message stream
# ----------------------------------------------------------------------
#
# ``run_reference`` drives the same machine as ``run``, so the engine
# differential suite cannot catch a rewrite of the machine that changes
# its behaviour under both engines.  These digests were recorded from
# the original string-dispatched machine; every rewrite of the Section 4
# hot path must reproduce them.  A digest covers, per round, the
# canonical keys of every node's payload (taken with an observer), then
# the per-round bit counts and the outputs.


def _stream_case(i):
    """Seeded instance ``i`` of the pinned set.

    The requested bounds cycle through f in {2, 3}, k in {2, 3, 4} and
    W in {1, 4, 8}; the instance's own f, k and W are the realised
    maxima, which may be smaller.
    """
    k = (2, 3, 4)[i % 3]
    n_subsets = 3 + i % 4
    return random_instance(
        n_subsets=n_subsets,
        n_elements=min(n_subsets * k, 4 + i % 5),
        k=k,
        f=(2, 3)[i % 2],
        W=(1, 4, 8)[(i + i // 6) % 3],
        seed=100 + i,
    )


def _stream_digest(graph, machine, **kwargs):
    digest = hashlib.sha256()

    def observer(round_index, states, payloads):
        keys = [canonical_key(p) for p in payloads]
        digest.update(repr((round_index, keys)).encode())

    res = run(graph, machine, observer=observer, **kwargs)
    digest.update(repr(res.per_round_bits).encode())
    digest.update(repr(res.outputs).encode())
    digest.update(repr((res.rounds, res.messages_sent, res.message_bits)).encode())
    return digest.hexdigest()


def _setcover_digest(inst, arithmetic):
    return _stream_digest(
        inst.to_bipartite_graph(),
        FractionalPackingMachine(arithmetic=arithmetic),
        inputs=inst.node_inputs(),
        globals_map=inst.global_params(),
        max_rounds=fp_schedule_length(inst.f, inst.k, inst.W),
    )


_BVC_STREAM_CASES = [
    (lambda: families.path_graph(4), [1, 3, 2, 1]),
    (lambda: families.cycle_graph(5), [2, 1, 2, 2, 1]),
]


def _bvc_digest(case, arithmetic):
    make_graph, weights = _BVC_STREAM_CASES[case]
    g = make_graph()
    W = max(weights)
    return _stream_digest(
        g,
        BroadcastVertexCoverMachine(arithmetic=arithmetic),
        inputs=weights,
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=bvc_round_count(g.max_degree, W),
    )


_SETCOVER_STREAM_DIGESTS = [
    "2e569b80824ce8d3797fa8ce3bdf65e0e18c24fa537b142531fbe2e054f4148c",
    "de7e23949bb49f8abd8fd7d619913c06080207b1fd68a062e1b60abfe276c0db",
    "df5cfbf1b1945caccd8b959bbf24bc7cdaa936aba958af94fca8149199c401d5",
    "34a7ed8c9349e2abf8926bd5d35d0d66dc4cc5515d44116a48d93ed36b5d2c86",
    "db4eb178be1a7b3507157083c25491a976e3dfc7bb47611c49e41d780f0d6231",
    "b5a989811e2e5abb857b1766fa7ebb02e4a3e6e2caa1110f84ebaeb9ce6cfaf6",
    "3b974b23c6597744dc2899c3ee79199e4179af517207b187ad9ee71598020deb",
    "df7879e18c0de2eeded145a5691e21981ce4ef1e0db24f9f50a6fdffa74e00ab",
    "1f6b88701ca4be1230abd3c7933cb900770d43e2db65e4612308a8768bf5cc5e",
    "85e863b005373063f4fefc66fa7b988b051ed3a687d33cfd8fdd4fc1fe75c8ce",
    "f1d0bbb50591bb298026315f89893d6bc3ba580371ac466c242a42edb765c728",
    "dbda981ae8e6232e5e6ad3f075c75f5f4c7c99c28703822fe9e6ea3713965f64",
]

_FIGURE1_STREAM_DIGEST = (
    "ae58bf1bf05c0eafb9d51a332f857011f4654b3a37d1ea769bbc4f3f20b992fd"
)

_BVC_STREAM_DIGESTS = [
    "656c0e9542ef7c19bf6d320080759e6a56820e50c4fbc77a5576e570175b5787",
    "46c6e839807661b4a3cc6bfc9ac5a45867e06916022c7bcfdbd008f7f1615ba3",
]


class TestMessageStreamPinned:
    @pytest.mark.parametrize("arithmetic", FractionalPackingMachine.ARITHMETIC_MODES)
    @pytest.mark.parametrize("i", range(12))
    def test_random_instances(self, i, arithmetic):
        assert _setcover_digest(_stream_case(i), arithmetic) == (
            _SETCOVER_STREAM_DIGESTS[i]
        )

    @pytest.mark.parametrize("arithmetic", FractionalPackingMachine.ARITHMETIC_MODES)
    def test_figure1(self, arithmetic):
        assert _setcover_digest(figure1_instance(), arithmetic) == (
            _FIGURE1_STREAM_DIGEST
        )

    @pytest.mark.parametrize("arithmetic", FractionalPackingMachine.ARITHMETIC_MODES)
    @pytest.mark.parametrize("case", range(len(_BVC_STREAM_CASES)))
    def test_broadcast_vertex_cover(self, case, arithmetic):
        assert _bvc_digest(case, arithmetic) == _BVC_STREAM_DIGESTS[case]


class TestMachineLifetime:
    """A machine must not outlive its last reference: per-parameter
    caches belong to the module, never to a cache keyed on the machine."""

    def test_machine_is_collectable_after_a_run(self):
        inst = figure1_instance()
        machine = FractionalPackingMachine()
        run_on_setcover(
            inst, machine, max_rounds=fp_schedule_length(inst.f, inst.k, inst.W)
        )
        ref = weakref.ref(machine)
        del machine
        gc.collect()
        assert ref() is None

    def test_broadcast_inner_machine_is_collectable(self):
        g = families.cycle_graph(5)
        weights = [2, 1, 2, 2, 1]
        machine = BroadcastVertexCoverMachine()
        run(
            g,
            machine,
            inputs=weights,
            globals_map={"delta": g.max_degree, "W": max(weights)},
            max_rounds=bvc_round_count(g.max_degree, max(weights)),
        )
        ref = weakref.ref(machine._inner)
        del machine
        gc.collect()
        assert ref() is None
