"""Serving-host suite: ``ServingHost`` ≡ a lone ``DynamicRun``.

The host multiplexes many dynamic sessions over warm worker pools; the
contract is that serving is *invisible* in the results — every session
served by the host (in-process or pooled, checkpointed or not, even
across a worker crash) must end in exactly the state a solo session
fed the same stream reaches, on all seven ``RunResult`` fields.

Pooled/crash tests spawn real worker processes; they are kept small
and retire the serving pools on module teardown.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.dynamic import (
    DynamicRun,
    EditError,
    RandomChurn,
    ServingHost,
    add_edge,
    latency_summary,
    remove_edge,
)
from repro.dynamic import serving
from repro.dynamic.session import BatchStats
from repro.graphs import families
from repro.graphs.weights import uniform_weights, unit_weights
from repro._util.parallel import retire_serve_pools, serve_pool

from helpers import assert_run_results_equal


@pytest.fixture(scope="module", autouse=True)
def _retire_pools_after_module():
    yield
    retire_serve_pools()


#: Both hosts run one code path: worker -1 (this process) or one warm
#: serving worker.
WORKERS = pytest.mark.parametrize("workers", [0, 1], ids=["in-process", "pooled"])


def _scripted_sessions(count, batches=5, n=14, mode="incremental"):
    """Per session: (initial snapshot, scripted batches, solo driver).

    The driver generates the stream batch by batch against its own
    evolving graph and ends in the exact state the served copy must
    reproduce — the same untimed-scripting/oracle trick the CLI and
    the serving benchmark use.
    """
    out = []
    for i in range(count):
        g = families.gnp_random(n, 0.3, seed=20 + i)
        w = uniform_weights(g.n, 3, seed=i)
        driver = DynamicRun.vertex_cover(
            g, w, mode=mode, delta=g.max_degree + 2, W=3
        )
        blob0 = driver.snapshot()
        stream = RandomChurn(
            edits_per_batch=2, seed=7 + i, W=3, max_degree=g.max_degree + 2
        )
        script = []
        for _ in range(batches):
            batch = stream.next_batch(driver.graph, driver.inputs)
            if not batch:
                continue
            driver.apply(batch)
            script.append(batch)
        out.append((blob0, script, driver))
    return out


def _assert_served_matches_solo(host, sid, driver):
    served = DynamicRun.restore(host.snapshot(sid))
    assert_run_results_equal(
        served.result, driver.result, label_a="served", label_b="solo"
    )
    assert served.batches_applied == driver.batches_applied
    assert served.cover() == driver.cover()


# ----------------------------------------------------------------------
# latency_summary — the shared latency vocabulary
# ----------------------------------------------------------------------


def test_latency_summary_empty():
    s = latency_summary([])
    assert s == {
        "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0
    }


def test_latency_summary_nearest_rank():
    xs = [float(i) for i in range(1, 101)]  # 1..100 ms
    s = latency_summary(xs)
    assert s["count"] == 100
    assert s["mean_ms"] == pytest.approx(50.5)
    assert s["p50_ms"] == 50.0  # nearest-rank: ceil(0.5*100) = 50th
    assert s["p99_ms"] == 99.0
    assert s["max_ms"] == 100.0
    # Order-insensitive and exact on singletons.
    assert latency_summary([3.0]) == {
        "count": 1, "mean_ms": 3.0, "p50_ms": 3.0, "p99_ms": 3.0, "max_ms": 3.0
    }
    assert latency_summary(list(reversed(xs))) == s


# ----------------------------------------------------------------------
# In-process multiplexing (workers=0)
# ----------------------------------------------------------------------


def test_in_process_serving_matches_solo():
    scripts = _scripted_sessions(3, batches=6)
    host = ServingHost(workers=0)
    for i, (blob0, _, _) in enumerate(scripts):
        host.open(f"s{i}", blob0)
    assert sorted(host.sessions()) == ["s0", "s1", "s2"]
    for i, (_, script, _) in enumerate(scripts):
        for batch in script:
            stats = host.apply(f"s{i}", batch)
            assert isinstance(stats, BatchStats)
    for i, (_, _, driver) in enumerate(scripts):
        _assert_served_matches_solo(host, f"s{i}", driver)
    report = host.report()
    assert report.sessions == 3
    assert report.workers == 0
    assert report.batches_applied == sum(len(s) for _, s, _ in scripts)
    assert report.worker_recoveries == 0
    assert report.latency_ms["count"] == report.batches_applied
    assert report.latency_ms["p99_ms"] >= report.latency_ms["p50_ms"] > 0
    host.shutdown()


def test_apply_stats_match_solo_stats(workers=0):
    """The served BatchStats is the session's own (wall_ms excluded
    from equality by the dataclass, so == is the full comparison)."""
    [(blob0, script, _)] = _scripted_sessions(1, batches=4)
    host = ServingHost(workers=workers)
    host.open("a", blob0)
    solo = DynamicRun.restore(blob0)
    for batch in script:
        assert host.apply("a", batch) == solo.apply(batch)
    host.shutdown()


def test_apply_each_orders_and_multiplexes(workers=0):
    scripts = _scripted_sessions(3, batches=5)
    host = ServingHost(workers=workers)
    for i, (blob0, _, _) in enumerate(scripts):
        host.open(f"s{i}", blob0)
    waves = max(len(s) for _, s, _ in scripts)
    for w in range(waves):
        items = [
            (f"s{i}", s[w])
            for i, (_, s, _) in enumerate(scripts)
            if w < len(s)
        ]
        results = host.apply_each(items)
        assert len(results) == len(items)  # input order, one stat each
        for (sid, _), stats in zip(items, results):
            assert isinstance(stats, BatchStats)
    for i, (_, _, driver) in enumerate(scripts):
        _assert_served_matches_solo(host, f"s{i}", driver)
    host.shutdown()


def test_open_close_lifecycle_errors():
    [(blob0, script, _)] = _scripted_sessions(1, batches=2)
    host = ServingHost()
    host.open("a", blob0)
    with pytest.raises(ValueError, match="already open"):
        host.open("a", blob0)
    with pytest.raises(KeyError, match="no open session"):
        host.apply("ghost", script[0])
    with pytest.raises(KeyError, match="no open session"):
        host.snapshot("ghost")
    blob = host.close("a")
    assert DynamicRun.restore(blob).graph.n > 0
    with pytest.raises(KeyError, match="no open session"):
        host.close("a")
    host.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        host.open("b", blob0)
    with pytest.raises(ValueError):
        ServingHost(workers=-1)
    with pytest.raises(ValueError):
        ServingHost(checkpoint_every=0)


def test_rejected_batch_leaves_session_untouched(workers=0):
    g = families.cycle_graph(8)
    session = DynamicRun.vertex_cover(
        g, unit_weights(8), mode="incremental", delta=3, W=1
    )
    host = ServingHost(workers=workers)
    host.open("a", session.snapshot())
    before = host.snapshot("a")
    with pytest.raises(EditError):
        host.apply("a", [add_edge(0, 1)])  # already present
    assert host.snapshot("a") == before
    assert host.report().batches_applied == 0
    # The session still serves valid batches afterwards.
    stats = host.apply("a", [remove_edge(0, 1)])
    assert stats.batch == 1
    host.shutdown()


# ----------------------------------------------------------------------
# One path: the same host code in-process (worker -1) and pooled
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "contract",
    [
        test_apply_stats_match_solo_stats,
        test_apply_each_orders_and_multiplexes,
        test_rejected_batch_leaves_session_untouched,
    ],
    ids=lambda contract: contract.__name__,
)
def test_contract_holds_on_one_warm_worker(contract):
    """The in-process contracts above, rerun with ``workers=1``: the
    same host code, with every batch applied (or rejected) inside a
    serving worker."""
    contract(workers=1)


def _resident(host, sid):
    """Whether ``host``'s session ``sid`` is still resident where it ran
    (this process for ``workers=0``, else the warm worker 0)."""
    key = host._key(sid)
    try:
        if host.workers:
            serve_pool(0).submit(serving._w_snapshot, key).result()
        else:
            serving._w_snapshot(key)
    except KeyError:
        return False
    return True


@WORKERS
def test_shutdown_drops_sessions_on_their_worker(workers):
    """shutdown() leaves none of its sessions behind, on the warm
    worker that later hosts reuse as well as in-process."""
    [(blob0, _, _)] = _scripted_sessions(1, batches=1)
    host = ServingHost(workers=workers)
    host.open("a", blob0)
    host.open("b", blob0)
    assert [_resident(host, sid) for sid in "ab"] == [True, True]
    host.shutdown()
    assert [_resident(host, sid) for sid in "ab"] == [False, False]


@WORKERS
def test_only_pooled_sessions_keep_a_replay_log(workers):
    """An in-process session has no worker to lose: it keeps neither a
    checkpoint nor a replay log.  A pooled one keeps its last checkpoint
    and the batches committed since."""
    [(blob0, script, driver)] = _scripted_sessions(1, batches=10)
    host = ServingHost(workers=workers, checkpoint_every=4)
    host.open("a", blob0)
    for batch in script:
        host.apply("a", batch)
    checkpoints, logged = divmod(len(script), 4) if workers else (0, 0)
    assert len(host._slots["a"].log) == logged
    assert bool(host._slots["a"].checkpoint) == bool(workers)
    assert host.report().counters["serving.checkpoints"] == checkpoints
    _assert_served_matches_solo(host, "a", driver)
    host.shutdown()


@WORKERS
def test_latency_runs_from_call_to_commit(workers):
    """One latency definition in both modes: a batch's latency runs
    from the start of the call to its commit.  On one worker a wave's
    last batch waited for every batch before it; a rejected batch
    records no latency."""
    scripts = _scripted_sessions(3, batches=2)
    host = ServingHost(workers=workers)
    for i, (blob0, _, _) in enumerate(scripts):
        host.open(f"s{i}", blob0)
    wave = [(f"s{i}", s[0]) for i, (_, s, _) in enumerate(scripts)]
    results = host.apply_each(wave)
    report = host.report()
    assert report.latency_ms["count"] == report.batches_applied == 3
    assert report.latency_ms["max_ms"] >= sum(s.wall_ms for s in results)
    with pytest.raises(EditError):
        host.apply_each([("s0", scripts[0][1][1]), ("s1", [add_edge(0, 0)])])
    report = host.report()
    assert report.latency_ms["count"] == report.batches_applied == 4
    host.shutdown()


@WORKERS
def test_wave_naming_unknown_session_runs_nothing(workers):
    [(blob0, script, _)] = _scripted_sessions(1, batches=1)
    host = ServingHost(workers=workers)
    host.open("a", blob0)
    before = host.snapshot("a")
    with pytest.raises(KeyError, match="no open session"):
        host.apply_each([("a", script[0]), ("ghost", script[0])])
    assert host.snapshot("a") == before
    assert host.report().batches_applied == 0
    host.shutdown()


# ----------------------------------------------------------------------
# Pooled serving (workers>0) and crash recovery
# ----------------------------------------------------------------------


def test_pooled_serving_matches_solo():
    scripts = _scripted_sessions(3, batches=4, n=12)
    host = ServingHost(workers=2, checkpoint_every=2)
    for i, (blob0, _, _) in enumerate(scripts):
        host.open(f"s{i}", blob0)
    waves = max(len(s) for _, s, _ in scripts)
    for w in range(waves):
        items = [
            (f"s{i}", s[w])
            for i, (_, s, _) in enumerate(scripts)
            if w < len(s)
        ]
        host.apply_each(items)
    for i, (_, _, driver) in enumerate(scripts):
        _assert_served_matches_solo(host, f"s{i}", driver)
    report = host.report()
    assert report.workers == 2
    assert report.worker_recoveries == 0
    host.shutdown()


def test_worker_crash_recovers_from_checkpoint_and_log():
    """SIGKILL a serving worker mid-stream: the host must rebuild its
    sessions from checkpoint + committed-batch replay and keep going,
    still bit-for-bit equal to the solo reference."""
    scripts = _scripted_sessions(2, batches=6, n=12)
    # checkpoint_every=3 so recovery exercises checkpoint AND log replay.
    host = ServingHost(workers=1, checkpoint_every=3)
    for i, (blob0, _, _) in enumerate(scripts):
        host.open(f"s{i}", blob0)
    for i, (_, script, _) in enumerate(scripts):
        for batch in script[:4]:
            host.apply(f"s{i}", batch)

    pid = serve_pool(0).submit(os.getpid).result()
    os.kill(pid, signal.SIGKILL)

    for i, (_, script, _) in enumerate(scripts):
        for batch in script[4:]:
            host.apply(f"s{i}", batch)
    for i, (_, _, driver) in enumerate(scripts):
        _assert_served_matches_solo(host, f"s{i}", driver)
    assert host.report().worker_recoveries >= 1
    host.shutdown()


def test_checkpoint_inside_a_wave_holds_no_later_batch():
    """A checkpoint falls due mid-wave while a later batch of the same
    session is already queued on the worker: the refreshed checkpoint
    must not contain that batch, or recovery replays it twice."""
    [(blob0, script, driver)] = _scripted_sessions(1, batches=5, n=12)
    host = ServingHost(workers=1, checkpoint_every=2)
    host.open("a", blob0)
    host.apply("a", script[0])
    host.apply_each([("a", script[1]), ("a", script[2])])
    os.kill(serve_pool(0).submit(os.getpid).result(), signal.SIGKILL)
    for batch in script[3:]:
        host.apply("a", batch)
    _assert_served_matches_solo(host, "a", driver)
    assert host.report().worker_recoveries == 1
    host.shutdown()


def test_wave_on_a_worker_known_dead_recovers():
    """Once the pool has marked its dead worker broken, ``submit`` itself
    raises; a wave sent then must still recover and resubmit, not leak
    the error."""
    scripts = _scripted_sessions(2, batches=4, n=12)
    host = ServingHost(workers=1, checkpoint_every=3)
    for i, (blob0, _, _) in enumerate(scripts):
        host.open(f"s{i}", blob0)
    host.apply_each([(f"s{i}", s[0]) for i, (_, s, _) in enumerate(scripts)])

    os.kill(serve_pool(0).submit(os.getpid).result(), signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        serve_pool(0).submit(os.getpid).result()

    waves = max(len(s) for _, s, _ in scripts)
    for w in range(1, waves):
        host.apply_each([
            (f"s{i}", s[w]) for i, (_, s, _) in enumerate(scripts) if w < len(s)
        ])
    for i, (_, _, driver) in enumerate(scripts):
        _assert_served_matches_solo(host, f"s{i}", driver)
    assert host.report().worker_recoveries == 1
    host.shutdown()
