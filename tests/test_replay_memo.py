"""Differential suite: ``replay="incremental"`` ≡ ``replay="scratch"``.

The replay-memo subsystem (:mod:`repro._util.memo`) may only ever
change wall-clock time.  This suite pins that contract field-for-field
on both consumers:

* the Section 5 history machine
  (:class:`repro.core.broadcast_vc.BroadcastVertexCoverMachine`),
  across graph families, metering modes, arithmetic modes and seeds —
  including the incremental history metering / canonical-keying fast
  path, which only incremental-mode machines feed;
* the self-stabilising transformer
  (:class:`repro.selfstab.transformer.SelfStabilisingMachine`), across
  fault-free runs, random corruption, targeted corruption that dirties
  arbitrary pipeline levels, metering modes, both communication
  models, and seeded runs (where incremental falls back to the
  scratch path per node because a ``ctx.rng`` defeats fingerprinting).

Plus unit tests for the memo primitives themselves.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from repro._util.memo import (
    REPLAY_INCREMENTAL,
    REPLAY_MODES,
    REPLAY_SCRATCH,
    FingerprintCache,
    GenerationalMemo,
    History,
    HistoryIds,
    ReplayMemo,
    content_fingerprint,
    validate_replay,
)
from repro._util import ordering, sizes
from repro._util.ordering import canonical_key
from repro._util.sizes import message_size_bits
from repro.core.broadcast_vc import BroadcastVertexCoverMachine, bvc_round_count
from repro.core.edge_packing import EdgePackingMachine, schedule_length
from repro.core.fractional_packing import FractionalPackingMachine
from repro.graphs import families
from repro.graphs.setcover import random_instance
from repro.graphs.weights import uniform_weights, unit_weights
from repro.selfstab.transformer import SelfStabilisingMachine, _PipelineState
from repro.simulator.faults import RandomStateCorruption
from repro.simulator.runtime import run, run_reference


def assert_same_result(a, b):
    """Every RunResult field identical — the replay contract."""
    assert a.outputs == b.outputs
    assert a.rounds == b.rounds
    assert a.all_halted == b.all_halted
    assert a.messages_sent == b.messages_sent
    assert a.message_bits == b.message_bits
    assert a.per_round_bits == b.per_round_bits
    assert a.states == b.states


# ----------------------------------------------------------------------
# Section 5 broadcast VC: incremental ≡ scratch
# ----------------------------------------------------------------------

_BVC_FAMILIES = {
    "path4": (lambda: families.path_graph(4), [1, 3, 2, 1]),
    "cycle5": (lambda: families.cycle_graph(5), unit_weights(5)),
    "star3": (lambda: families.star_graph(3), [2, 1, 1, 1]),
    "gnp5": (lambda: families.gnp_random(5, 0.45, seed=2), [2, 1, 2, 1, 2]),
}


def _bvc_run(name, machine, metering="bits", seed=None):
    make_graph, weights = _BVC_FAMILIES[name]
    g = make_graph()
    W = max(weights)
    return run(
        g,
        machine,
        inputs=list(weights),
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=bvc_round_count(g.max_degree, W),
        metering=metering,
        seed=seed,
    )


def _bvc_pair(name, metering="bits", arithmetic="scaled", seed=None):
    return tuple(
        _bvc_run(
            name,
            BroadcastVertexCoverMachine(arithmetic=arithmetic, replay=mode),
            metering=metering,
            seed=seed,
        )
        for mode in (REPLAY_INCREMENTAL, REPLAY_SCRATCH)
    )


@pytest.mark.parametrize("name", sorted(_BVC_FAMILIES))
def test_bvc_incremental_matches_scratch(name):
    inc, scr = _bvc_pair(name)
    assert_same_result(inc, scr)
    assert inc.all_halted


@pytest.mark.parametrize("metering", ["counts", "none"])
def test_bvc_metering_modes(metering):
    inc, scr = _bvc_pair("path4", metering=metering)
    assert_same_result(inc, scr)


def test_bvc_fraction_arithmetic():
    inc, scr = _bvc_pair("cycle5", arithmetic="fraction")
    assert_same_result(inc, scr)


def test_bvc_seeded_run():
    # A seed materialises per-node RNGs; the (deterministic) machines
    # ignore them, and replay equality must be unaffected.
    inc, scr = _bvc_pair("path4", seed=7)
    assert_same_result(inc, scr)


def test_bvc_cross_engine_cross_mode():
    """Strongest cross-check: fast engine + incremental vs reference
    engine + scratch — two engines, two replay strategies, one answer."""
    make_graph, weights = _BVC_FAMILIES["cycle5"]
    g = make_graph()
    kwargs = dict(
        inputs=list(weights),
        globals_map={"delta": g.max_degree, "W": max(weights)},
        max_rounds=bvc_round_count(g.max_degree, max(weights)),
    )
    fast_inc = run(g, BroadcastVertexCoverMachine(replay="incremental"), **kwargs)
    ref_scr = run_reference(
        g, BroadcastVertexCoverMachine(replay="scratch"), **kwargs
    )
    assert fast_inc.outputs == ref_scr.outputs
    assert fast_inc.rounds == ref_scr.rounds
    assert fast_inc.messages_sent == ref_scr.messages_sent
    assert fast_inc.message_bits == ref_scr.message_bits
    assert fast_inc.per_round_bits == ref_scr.per_round_bits


def test_bvc_incremental_memo_actually_hits():
    """Guard against the incremental path silently degrading to scratch."""
    machine = BroadcastVertexCoverMachine(replay="incremental")
    _bvc_run("cycle5", machine)
    assert machine._memo.hits > machine._memo.misses


def test_bvc_memo_keys_are_sorted_id_pairs():
    """Replay keys are ``(k, W, smaller id, larger id)``: hashing one
    costs O(1) however long the histories have grown, and both
    endpoints of an edge share one key."""
    machine = BroadcastVertexCoverMachine(replay="incremental")
    _bvc_run("star3", machine)
    keys = [key for bucket in machine._memo._buckets.values() for key in bucket]
    assert keys
    assert all(len(key) == 4 and all(type(x) is int for x in key) for key in keys)
    assert all(key[2] <= key[3] for key in keys)


def test_bvc_warm_machine_matches_fresh_machines():
    """An incremental machine carried across instances (id table and
    memo warm from earlier runs), and a pickled copy of it (memo keyed
    on the original's ids, id table restarted above them), answer
    exactly like fresh machines — which match scratch, per the tests
    above."""
    machine = BroadcastVertexCoverMachine(replay="incremental")
    _bvc_run("cycle5", machine)
    clone = pickle.loads(pickle.dumps(machine))
    for name in ("cycle5", "path4", "star3", "cycle5"):
        fresh = _bvc_run(name, BroadcastVertexCoverMachine(replay="incremental"))
        assert_same_result(_bvc_run(name, machine), fresh)
        assert_same_result(_bvc_run(name, clone), fresh)


# ----------------------------------------------------------------------
# Self-stabilising transformer: incremental ≡ scratch
# ----------------------------------------------------------------------


def _selfstab_pair(
    rounds,
    adversary_factory=None,
    metering="bits",
    seed=None,
    n=6,
):
    g = families.cycle_graph(n)
    w = uniform_weights(n, 3, seed=4)
    horizon = schedule_length(2, 3)
    kwargs = dict(
        inputs=list(w),
        globals_map={"delta": 2, "W": 3},
        max_rounds=rounds if rounds is not None else 2 * horizon,
        metering=metering,
        seed=seed,
    )
    results = {}
    for mode in REPLAY_MODES:
        machine = SelfStabilisingMachine(EdgePackingMachine(), horizon, replay=mode)
        adversary = adversary_factory() if adversary_factory is not None else None
        results[mode] = run(g, machine, fault_adversary=adversary, **kwargs)
    return results[REPLAY_INCREMENTAL], results[REPLAY_SCRATCH]


def test_selfstab_fault_free():
    inc, scr = _selfstab_pair(rounds=None)
    assert_same_result(inc, scr)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rate", [0.2, 0.6])
def test_selfstab_random_faults(seed, rate):
    inc, scr = _selfstab_pair(
        rounds=None,
        adversary_factory=lambda: RandomStateCorruption(
            until_round=8, rate=rate, seed=seed
        ),
    )
    assert_same_result(inc, scr)


def _dirty_pipeline_level(rng: random.Random, state):
    """Corrupt one arbitrary pipeline level of a transformer state:
    structurally-invalid garbage (forces the reset path), a wrong but
    plausible level copied from elsewhere in the pipeline, or None."""
    if not isinstance(state, _PipelineState):
        return state
    levels = list(state.pipeline)
    i = rng.randrange(len(levels))
    roll = rng.random()
    if roll < 0.4:
        levels[i] = ("garbage", rng.randrange(100))
    elif roll < 0.8:
        levels[i] = levels[rng.randrange(len(levels))]
    else:
        levels[i] = None
    return _PipelineState(tuple(levels))


@pytest.mark.parametrize("seed", range(4))
def test_selfstab_dirtied_arbitrary_levels(seed):
    """Fault injection aimed at single pipeline levels — exactly the
    dirtying granularity the incremental mode claims to re-do."""
    inc, scr = _selfstab_pair(
        rounds=None,
        adversary_factory=lambda: RandomStateCorruption(
            until_round=10, rate=0.5, seed=seed, corruptor=_dirty_pipeline_level
        ),
    )
    assert_same_result(inc, scr)


@pytest.mark.parametrize("metering", ["counts", "none"])
def test_selfstab_metering_modes(metering):
    inc, scr = _selfstab_pair(rounds=None, metering=metering)
    assert_same_result(inc, scr)


def test_selfstab_seeded_rng_fallback():
    """With per-node RNGs present the incremental machine falls back to
    the scratch path node by node — and must still agree."""
    inc, scr = _selfstab_pair(rounds=None, seed=11)
    assert_same_result(inc, scr)


def test_selfstab_broadcast_model_inner():
    """The broadcast-model level projection path, via a wrapped
    Section 4 machine on a bipartite set-cover layout."""
    inst = random_instance(n_subsets=3, n_elements=4, k=2, f=2, W=2, seed=5)
    g = inst.to_bipartite_graph()
    kwargs = dict(
        inputs=inst.node_inputs(),
        globals_map=inst.global_params(),
        max_rounds=12,
    )
    results = {}
    for mode in REPLAY_MODES:
        machine = SelfStabilisingMachine(
            FractionalPackingMachine(), horizon=8, replay=mode
        )
        results[mode] = run(g, machine, **kwargs)
    assert_same_result(results[REPLAY_INCREMENTAL], results[REPLAY_SCRATCH])


def test_selfstab_incremental_memo_actually_hits():
    g = families.cycle_graph(6)
    w = uniform_weights(6, 3, seed=4)
    horizon = schedule_length(2, 3)
    machine = SelfStabilisingMachine(
        EdgePackingMachine(), horizon, replay="incremental"
    )
    run(
        g,
        machine,
        inputs=list(w),
        globals_map={"delta": 2, "W": 3},
        max_rounds=3 * horizon,
    )
    assert machine._step_memo.hits > machine._step_memo.misses


# ----------------------------------------------------------------------
# The replay knob plumbing
# ----------------------------------------------------------------------


def test_with_replay_reconfigures_replay_aware_machines():
    bvc = BroadcastVertexCoverMachine(replay="incremental")
    assert bvc.with_replay("incremental") is bvc
    scr = bvc.with_replay("scratch")
    assert scr is not bvc and scr.replay == "scratch"
    assert scr.arithmetic == bvc.arithmetic

    ss = SelfStabilisingMachine(EdgePackingMachine(), horizon=4)
    assert ss.with_replay("incremental") is ss
    ss_scr = ss.with_replay("scratch")
    assert ss_scr.replay == "scratch" and ss_scr.horizon == 4
    assert ss_scr.inner is ss.inner


def test_with_replay_is_a_noop_for_plain_machines():
    m = EdgePackingMachine()
    assert m.with_replay("incremental") is m
    assert m.with_replay("scratch") is m
    with pytest.raises(ValueError):
        m.with_replay("bogus")


def test_run_replay_kwarg():
    """run(..., replay=...) reconfigures replay-aware machines without
    mutating the caller's machine, and validates the mode."""
    g = families.path_graph(4)
    w = [1, 3, 2, 1]
    machine = BroadcastVertexCoverMachine(replay="incremental")
    kwargs = dict(
        inputs=w,
        globals_map={"delta": 2, "W": 3},
        max_rounds=bvc_round_count(2, 3),
    )
    scr = run(g, machine, replay="scratch", **kwargs)
    assert machine.replay == "incremental"  # caller's machine untouched
    inc = run(g, machine, **kwargs)
    assert_same_result(inc, scr)
    with pytest.raises(ValueError):
        run(g, machine, replay="bogus", **kwargs)


def test_invalid_replay_mode_rejected_at_construction():
    with pytest.raises(ValueError):
        BroadcastVertexCoverMachine(replay="bogus")
    with pytest.raises(ValueError):
        SelfStabilisingMachine(EdgePackingMachine(), 4, replay="bogus")
    with pytest.raises(ValueError):
        validate_replay("bogus")
    assert validate_replay(REPLAY_SCRATCH) == "scratch"


# ----------------------------------------------------------------------
# Memo primitives
# ----------------------------------------------------------------------


def _chain(ids, messages):
    """The :class:`History` chain ``ids`` builds from ``messages``."""
    history = ids.empty
    for message in messages:
        history = ids.extend(history, message)
    return history


def test_history_extend_records_parent():
    ids = HistoryIds()
    parent = _chain(ids, [("a", 1), ("b", 2)])
    child = ids.extend(parent, ("c", 3))
    assert type(child) is History and child.ids is ids
    # Compares, hashes and reprs like the plain tuple of its messages.
    plain = (("a", 1), ("b", 2), ("c", 3))
    assert child == plain and hash(child) == hash(plain)
    assert repr(child) == repr(plain)
    assert ids.of(child) == (child.hid, parent.hid)
    assert ids.of(parent) == (parent.hid, parent.pid)
    assert ids.of(ids.empty) == (0, -1)


def test_extension_metering_matches_full_scan(monkeypatch):
    """The bits and key a history carries must equal the plain full
    scan of a content-equal tuple.

    The second pass shrinks the size and key memos so the 40-round
    chain spans many more than two of their generations: carried facts
    never depend on what the memos still hold."""
    _check_extension_chain(limit=None)
    limit = 5
    for memo in (sizes._SIZE_MEMO, ordering._KEY_MEMO):
        monkeypatch.setattr(memo, "limit", limit)
    _check_extension_chain(limit)
    assert 40 > 2 * limit


def _check_extension_chain(limit):
    rng = random.Random(9)
    ids = HistoryIds()
    history = ids.empty
    for i in range(40):
        if limit is None:
            msg = (f"m{i}", rng.randrange(1000), (True, None, rng.randrange(7)))
        else:
            msg = Fraction(rng.randrange(1000), rng.randrange(1, 7))
        history = ids.extend(history, msg)
        if limit is None:
            # A content-equal plain tuple of fresh objects: forces the
            # full scan.
            twin = tuple((a, b, (c, d, e)) for (a, b, (c, d, e)) in history)
        else:
            twin = tuple(list(history))
        assert twin == history and type(twin) is tuple
        assert history.bits == message_size_bits(history) == message_size_bits(twin)
        assert history.key == canonical_key(history) == canonical_key(twin)


def test_extension_chains_share_equal_element_keys():
    """Two histories grown apart from equal messages share their element
    keys, so comparing them never re-compares equal values."""
    chains = [
        canonical_key(
            _chain(HistoryIds(), [(Fraction(i, 7), ("x", i)) for i in range(6)])
        )[1]
        for _ in range(2)
    ]
    assert chains[0] == chains[1]
    assert all(a is b for a, b in zip(*chains))


def test_history_pickles_as_content():
    """A pickle holds the content alone: two tables with different
    counters give content-equal histories equal fingerprints, and a
    round trip restores the bits and key but no ids."""
    messages = [("m", i, Fraction(i, 3)) for i in range(12)]
    a = _chain(HistoryIds(), messages)
    b = _chain(HistoryIds(first=1 << 20), messages)
    assert a.hid != b.hid
    assert content_fingerprint(a) == content_fingerprint(b)
    restored = pickle.loads(pickle.dumps(a))
    assert type(restored) is History and restored == a
    assert (restored.bits, restored.key) == (a.bits, a.key)
    assert restored.ids is None
    assert a.ids.of(restored) == a.ids.of(a)


def test_history_ids_trust_only_their_own_histories():
    """One table never trusts another table's ids: it interns foreign
    histories by content, as it does plain tuples."""
    a, b = HistoryIds(), HistoryIds(first=1 << 20)
    h = _chain(a, [("m", i) for i in range(5)])
    plain = tuple(h)
    assert b.of(h) == b.of(plain) != a.of(h)
    grown = b.extend(h, ("m", 5))
    assert grown.ids is b and grown.pid == b.of(plain)[0]
    assert b.of(grown) == b.of(tuple(grown))


def test_section5_run_leaves_no_history_in_size_and_key_memos():
    """Histories carry their bits and keys, so metering and sorting them
    never stores one in the identity memos."""
    machine = BroadcastVertexCoverMachine(replay="incremental")
    _bvc_run("cycle5", machine)
    for memo in (sizes._SIZE_MEMO, ordering._KEY_MEMO):
        held = [obj for gen in (memo._current, memo._previous)
                for obj, _ in gen.values()]
        assert held
        assert not any(type(obj) is History for obj in held)


def test_replay_memo_bounds_and_stats():
    memo = ReplayMemo(limit=4)
    assert memo.get("a") is None
    assert memo.misses == 1
    memo.put("a", 1)
    assert memo.get("a") == 1 and memo.hits == 1
    for i in range(5):
        memo.put(f"k{i}", i)  # crosses the limit: wholesale clear
    assert len(memo) <= 4
    memo.clear()
    assert len(memo) == 0


def test_generational_memo_retires_stale_buckets():
    memo = GenerationalMemo()
    memo.put(0, "x", "s0")
    memo.put(1, "y", "s1")
    assert memo.get(0, "x") == "s0"
    memo.put(5, "z", "s5")  # retires everything before generation 4
    assert memo.get(0, "x") is None
    assert memo.get(5, "z") == "s5"


def _random_histories(seed, count, length, alphabet=3):
    """``count`` histories over a tiny alphabet, so prefixes collide."""
    rng = random.Random(seed)
    return [
        tuple(("m", rng.randrange(alphabet)) for _ in range(rng.randrange(length)))
        for _ in range(count)
    ]


def test_history_ids_name_contents():
    ids = HistoryIds()
    assert ids.of(()) == (0, -1)
    built = ids.empty
    for i in range(30):
        child = ids.extend(built, ("m", i % 4))
        # A content-equal plain tuple: interned by content.
        twin = tuple(list(child))
        assert twin is not child
        assert ids.of(child) == ids.of(twin)
        assert ids.of(child)[1] == ids.of(built)[0]
        built = child
    seen = {}
    for h in _random_histories(1, 300, 12):
        hid = ids.of(h)[0]
        assert seen.setdefault(hid, h) == h  # one id, one content
    by_content = {}
    for h in _random_histories(1, 300, 12):
        assert by_content.setdefault(h, ids.of(h)) == ids.of(h)


def test_history_ids_never_reused_across_wipes():
    """Wholesale wipes may give a content a second id, never an id a
    second content — the soundness direction an id-keyed memo needs."""
    ids = HistoryIds(limit=8)
    owner = {}
    for h in _random_histories(2, 500, 10):
        hid, pid = ids.of(h)
        assert owner.setdefault(hid, h) == h
        if h:
            assert owner.setdefault(pid, h[:-1]) == h[:-1]


def test_history_ids_shared_between_threads():
    """Threads interning overlapping histories into one small table
    (so wipes race with inserts) never give one id two contents."""
    ids = HistoryIds(limit=64)
    results = [[] for _ in range(4)]

    def work(slot):
        for h in _random_histories(slot % 2, 300, 10):
            results[slot].append((ids.of(h)[0], h))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(len(r) == 300 for r in results)
    owner = {}
    for hid, h in (entry for r in results for entry in r):
        assert owner.setdefault(hid, h) == h


def test_history_ids_pickled_copy_issues_fresh_ids():
    ids = HistoryIds()
    histories = _random_histories(3, 100, 8)
    issued = {ids.of(h)[0] for h in histories}
    clone = pickle.loads(pickle.dumps(ids))
    fresh = {clone.of(h)[0] for h in histories if h}
    assert not fresh & issued
    assert clone.of(()) == (0, -1)


def test_fingerprint_cache_identity_reuse():
    cache = FingerprintCache(limit=8)
    obj = ("payload", 1, 2)
    fp1 = cache.of(obj)
    assert cache.of(obj) is fp1  # identity hit returns the cached bytes
    equal = ("payload", 1, 2)
    assert cache.of(equal) == fp1  # equal values, equal fingerprints
    assert content_fingerprint(obj) == fp1


# ----------------------------------------------------------------------
# Adaptive fingerprinting (wall-clock only; results pinned unchanged)
# ----------------------------------------------------------------------


def test_adaptive_policy_disables_and_reprobes():
    from repro.selfstab.transformer import _AdaptiveFingerprinting

    adapt = _AdaptiveFingerprinting(probe=4, backoff=3)
    # Cheap steps (1e-5 each), expensive fingerprints (2e-3 per call),
    # plenty of hits: the saved stepping is worth less than the
    # fingerprints, so the probe window must disable them.
    for _ in range(4):
        assert adapt.use_fingerprints()
        adapt.note(fp_seconds=2e-3, step_seconds=4e-5, stepped=4, avoided=8)
    assert not adapt.use_fingerprints()
    assert not adapt.use_fingerprints()
    assert not adapt.use_fingerprints()
    # Back-off exhausted: probing resumes.
    assert adapt.use_fingerprints()
    # Steady state: whole-step hits avoid a large pipeline recompute at
    # near-zero fingerprint cost — must stay enabled.
    for _ in range(8):
        adapt.note(fp_seconds=1e-6, step_seconds=0.0, stepped=0, avoided=48)
        assert adapt.use_fingerprints()


def test_adaptive_policy_keeps_fingerprints_when_steps_dominate():
    from repro.selfstab.transformer import _AdaptiveFingerprinting

    adapt = _AdaptiveFingerprinting(probe=4, backoff=3)
    # Expensive steps: every avoided step is worth far more than the
    # fingerprints that found it.
    for _ in range(12):
        adapt.note(fp_seconds=1e-5, step_seconds=5e-3, stepped=2, avoided=6)
        assert adapt.use_fingerprints()


def test_adaptive_policy_needs_a_step_sample_first():
    from repro.selfstab.transformer import _AdaptiveFingerprinting

    adapt = _AdaptiveFingerprinting(probe=2, backoff=4)
    # All hits, no real step ever measured: no basis to disable.
    for _ in range(6):
        adapt.note(fp_seconds=1e-3, step_seconds=0.0, stepped=0, avoided=3)
        assert adapt.use_fingerprints()
    assert adapt.avg_step is None


def test_selfstab_results_identical_under_forced_adaptivity_toggling():
    """Force the policy through plain/fingerprint flips every few calls:
    the run must still equal scratch field-for-field."""
    from repro.selfstab.transformer import _AdaptiveFingerprinting

    g = families.cycle_graph(6)
    w = uniform_weights(6, 3, seed=4)
    horizon = schedule_length(2, 3)
    kwargs = dict(
        inputs=list(w),
        globals_map={"delta": 2, "W": 3},
        max_rounds=2 * horizon,
    )
    machine = SelfStabilisingMachine(
        EdgePackingMachine(), horizon, replay="incremental"
    )
    # Tiny windows + a fake cost model that always reads "unprofitable"
    # while missing, so the machine keeps flipping between paths.
    machine._adapt = _AdaptiveFingerprinting(probe=2, backoff=3)
    adversary = RandomStateCorruption(until_round=6, rate=0.4, seed=1)
    toggled = run(g, machine, fault_adversary=adversary, **kwargs)
    scratch = run(
        g,
        SelfStabilisingMachine(EdgePackingMachine(), horizon, replay="scratch"),
        fault_adversary=RandomStateCorruption(until_round=6, rate=0.4, seed=1),
        **kwargs,
    )
    assert_same_result(toggled, scratch)


def test_adaptive_fingerprinting_engages_on_unprofitable_workload():
    """A cheap wrapped machine whose levels are perpetually dirtied
    (continuous corruption injecting unique content) makes every
    fingerprint a fresh pickle that saves nothing: the policy must
    actually disable fingerprinting — and the run must still equal
    scratch field-for-field."""
    from repro.simulator.machine import PORT_NUMBERING, Machine

    class CheapUniqueStates(Machine):
        model = PORT_NUMBERING

        def __init__(self, horizon):
            self.h = horizon

        def start(self, ctx):
            return (0, ())

        def emit(self, ctx, state):
            return [state[0]] * ctx.degree

        def step(self, ctx, state, inbox):
            c, trail = state
            if c >= self.h:
                return state
            entry = tuple(m if m is not None else -1 for m in inbox) * 16
            return (c + 1, trail + (entry,))

        def halted(self, ctx, state):
            return state[0] >= self.h

        def output(self, ctx, state):
            return state[0]

    def unique_level(rng, st):
        if not isinstance(st, _PipelineState):
            return st
        levels = list(st.pipeline)
        i = rng.randrange(len(levels))
        lv = levels[i]
        if isinstance(lv, tuple) and len(lv) == 2:
            levels[i] = (lv[0], lv[1] + ((rng.getrandbits(64),) * 16,))
        return _PipelineState(tuple(levels))

    horizon = 40
    g = families.cycle_graph(12)
    kwargs = dict(max_rounds=2 * horizon, metering="none")

    def adversary():
        return RandomStateCorruption(
            until_round=10 ** 9, rate=0.6, seed=3, corruptor=unique_level
        )

    # The disable decision is a wall-clock measurement, which a loaded
    # host can perturb on any single run; the correctness assertion is
    # checked every attempt, the timing assertion gets a bounded retry.
    for _ in range(3):
        machine = SelfStabilisingMachine(
            CheapUniqueStates(horizon), horizon, replay="incremental"
        )
        inc = run(g, machine, fault_adversary=adversary(), **kwargs)
        scr = run(
            g,
            SelfStabilisingMachine(
                CheapUniqueStates(horizon), horizon, replay="scratch"
            ),
            fault_adversary=adversary(),
            **kwargs,
        )
        assert_same_result(inc, scr)
        if machine._adapt.disables > 0:
            break
    else:
        pytest.fail(
            "adaptive fingerprinting never disabled on the unprofitable "
            "workload across 3 runs"
        )
