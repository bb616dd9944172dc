"""Slotted copy-on-write states and the run-scoped collector pause.

Two contracts of the hot round loop:

* :func:`repro._util.states.copy_on_write` generates ``evolve``,
  ``build`` and pickling for the Section 3 and Section 4 states:
  ``evolve`` changes ``idx`` alone and shares every container,
  ``clone`` and pickling preserve every field, states carry no
  ``__dict__``, and pickles hold field values by position only;
* :func:`repro.simulator.runtime.run` pauses the cyclic collector for
  its own body and restores the caller's setting, which
  :func:`~repro.simulator.runtime.run_reference` never touches.  The
  pause assumes a run creates no reference cycles; the tripwire below
  checks that on §3 (both engines) and §4 runs.
"""

from __future__ import annotations

import gc
import pickle
import pickletools
from dataclasses import dataclass, fields

import pytest

from repro._util.states import copy_on_write
from repro.core.edge_packing import _State, edge_packing_job
from repro.core.fractional_packing import (
    FractionalPackingMachine,
    _ElementState,
    _SubsetState,
    fp_schedule_length,
)
from repro.graphs import families
from repro.graphs.setcover import random_instance
from repro.graphs.weights import unit_weights
from repro.simulator.machine import PORT_NUMBERING, Machine
from repro.simulator.runtime import run, run_on_setcover, run_reference
from repro.simulator.state_layout import HAVE_NUMPY

STATE_CLASSES = [_State, _SubsetState, _ElementState]


def _distinct_state(cls):
    """A state whose every field holds its own distinct value, typed so
    that ``clone`` can copy it (lists, dicts and tuples where the field
    is a container)."""
    values = {}
    for i, f in enumerate(fields(cls)):
        kind = str(f.type)
        if kind.startswith("List"):
            values[f.name] = [i, f"list-{i}"]
        elif kind.startswith("Dict"):
            values[f.name] = {i: f"dict-{i}"}
        elif kind.startswith("Tuple"):
            values[f.name] = (i, f"tuple-{i}")
        else:
            values[f.name] = 1000 + i
    return cls.build(**values), values


@pytest.mark.parametrize("cls", STATE_CLASSES, ids=lambda c: c.__name__)
class TestCopyOnWriteStates:
    def test_evolve_changes_idx_alone_and_shares_containers(self, cls):
        st, values = _distinct_state(cls)
        nxt = st.evolve(st.idx + 7)
        assert type(nxt) is cls and nxt is not st
        for name, value in values.items():
            if name == "idx":
                assert nxt.idx == value + 7
            else:
                assert getattr(nxt, name) is getattr(st, name) is value
        assert st.idx == values["idx"]  # the predecessor is untouched

    def test_clone_preserves_every_field(self, cls):
        st, values = _distinct_state(cls)
        copy = st.clone()
        assert copy is not st and copy == st
        for name, value in values.items():
            assert getattr(copy, name) == value

    def test_pickle_round_trip_preserves_every_field(self, cls):
        st, values = _distinct_state(cls)
        back = pickle.loads(pickle.dumps(st, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(back) is cls and back == st
        for name, value in values.items():
            assert getattr(back, name) == value

    def test_states_have_no_instance_dict(self, cls):
        st, _ = _distinct_state(cls)
        assert not hasattr(st, "__dict__")
        assert not hasattr(st.evolve(1), "__dict__")
        assert not hasattr(st.clone(), "__dict__")
        with pytest.raises(AttributeError):
            st.not_a_field = 1

    def test_pickles_hold_no_field_names(self, cls):
        st, _ = _distinct_state(cls)
        data = pickle.dumps(st, protocol=pickle.HIGHEST_PROTOCOL)
        strings = {
            arg for _, arg, _ in pickletools.genops(data) if isinstance(arg, str)
        }
        assert not strings & {f.name for f in fields(cls)}

    def test_equal_states_pickle_to_equal_bytes(self, cls):
        a, _ = _distinct_state(cls)
        b, _ = _distinct_state(cls)
        assert a == b and a is not b
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_build_requires_every_field(self, cls):
        _, values = _distinct_state(cls)
        del values["idx"]
        with pytest.raises(TypeError):
            cls.build(**values)


def test_copy_on_write_refuses_unslotted_classes():
    @dataclass
    class Plain:
        idx: int

    with pytest.raises(TypeError, match="slotted"):
        copy_on_write(Plain)

    @dataclass(slots=True)
    class NoIdx:
        step: int

    with pytest.raises(TypeError, match="idx"):
        copy_on_write(NoIdx)


# ----------------------------------------------------------------------
# The collector pause
# ----------------------------------------------------------------------


class _CollectorProbe(Machine):
    """Records ``gc.isenabled()`` in every hook; optionally fails."""

    model = PORT_NUMBERING

    def __init__(self, rounds: int = 2, fail: bool = False):
        self.rounds = rounds
        self.fail = fail
        self.seen = []

    def start(self, ctx):
        self.seen.append(gc.isenabled())
        return 0

    def halted(self, ctx, state):
        return state >= self.rounds

    def emit(self, ctx, state):
        self.seen.append(gc.isenabled())
        return [None] * ctx.degree

    def step(self, ctx, state, inbox):
        self.seen.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("step fails")
        return state + 1

    def output(self, ctx, state):
        self.seen.append(gc.isenabled())
        return state


@pytest.fixture
def collector_enabled():
    """Start with the collector on; restore the caller's setting."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def test_run_pauses_the_collector_in_every_hook(collector_enabled):
    probe = _CollectorProbe()
    run(families.cycle_graph(4), probe)
    assert probe.seen and not any(probe.seen)
    assert gc.isenabled()


def test_run_restores_the_collector_after_a_failing_step(collector_enabled):
    probe = _CollectorProbe(fail=True)
    with pytest.raises(RuntimeError, match="step fails"):
        run(families.cycle_graph(4), probe)
    assert probe.seen and not any(probe.seen)
    assert gc.isenabled()


def test_a_caller_disabled_collector_stays_disabled(collector_enabled):
    gc.disable()
    try:
        run(families.cycle_graph(4), _CollectorProbe())
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            run(families.cycle_graph(4), _CollectorProbe(fail=True))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_reference_never_touches_the_collector(collector_enabled):
    probe = _CollectorProbe()
    run_reference(families.cycle_graph(4), probe)
    assert probe.seen and all(probe.seen)
    assert gc.isenabled()
    gc.disable()
    try:
        probe = _CollectorProbe()
        run_reference(families.cycle_graph(4), probe)
        assert probe.seen and not any(probe.seen)
        assert not gc.isenabled()
    finally:
        gc.enable()


def _cycles_left_by(thunk):
    """Unreachable objects a collection finds after ``thunk`` ran with
    the collector paused (one warm-up call fills one-off caches)."""
    thunk()
    gc.collect()
    gc.disable()
    try:
        kept = thunk()  # noqa: F841 — the results stay reachable
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "engine",
    [
        "object",
        pytest.param(
            "columnar",
            marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed"),
        ),
    ],
)
def test_section3_runs_create_no_cycles(engine, collector_enabled):
    g = families.random_regular(3, 64, seed=5)
    job = edge_packing_job(g, unit_weights(g.n), W=8, engine=engine)
    assert _cycles_left_by(lambda: run(**job)) == 0


def test_section4_runs_create_no_cycles(collector_enabled):
    inst = random_instance(12, 12, k=3, f=2, W=2, seed=3)

    def solve():
        return run_on_setcover(
            inst,
            FractionalPackingMachine(),
            max_rounds=fp_schedule_length(inst.f, inst.k, inst.W),
        )

    assert _cycles_left_by(solve) == 0
