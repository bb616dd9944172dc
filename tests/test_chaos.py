"""Chaos harness: SIGKILL workers mid-sweep, assert full recovery.

The contract (ISSUE 6): a sweep whose worker processes are killed
mid-flight still completes, returns results field-for-field equal to
an undisturbed serial run, and records every recovery in the
:class:`FailureReport` attached to the result list.

Kill mechanics: the job body SIGKILLs *its own worker process* the
first time a given marker file is absent (``O_CREAT | O_EXCL`` makes
the once-only claim race-free across workers).  Every kill function
guards on ``os.getpid() != parent_pid``, so when the degradation
ladder re-runs the chunk serially in the parent — or when
``n_workers=1`` short-circuits to serial — the test runner itself is
never shot.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro._util import parallel
from repro._util.parallel import (
    FailureReport,
    JobResults,
    RetryEvent,
    map_jobs,
)
from repro.core.edge_packing import edge_packing_job
from repro.graphs import families
from repro.graphs.weights import unit_weights
from repro.simulator.runtime import run, sweep

from helpers import assert_result_lists_equal

PARENT_PID = os.getpid()


def _claim(marker: str) -> bool:
    """True exactly once per marker path, race-free across processes."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _kill_worker_once(job):
    """Run one simulation job; the first worker to claim each marker
    SIGKILLs itself before computing (the chunk is lost and must be
    re-dispatched)."""
    marker, parent_pid, run_kwargs = job
    if os.getpid() != parent_pid and _claim(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return run(**run_kwargs)


def _always_kill(job):
    """SIGKILL the hosting worker every time (never the parent): forces
    the chunk down the full ladder to the per-chunk serial rung."""
    parent_pid, value = job
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _sim_jobs():
    return [
        edge_packing_job(families.cycle_graph(n), unit_weights(n))
        for n in (8, 10, 12, 14, 16, 18)
    ]


class TestWorkerKillRecovery:
    def test_two_kills_results_equal_serial(self, tmp_path):
        """≥2 injected worker SIGKILLs; results identical to serial."""
        jobs = [
            (str(tmp_path / f"kill-{i}"), PARENT_PID, kwargs)
            for i, kwargs in enumerate(_sim_jobs())
        ]
        # Only the first two markers are pre-armed as kill triggers:
        # the rest are pre-claimed so exactly two chunks die.
        for marker, _, _ in jobs[2:]:
            _claim(marker)

        serial = map_jobs(_kill_worker_once, jobs, None)
        # chunksize=1: each job is its own chunk, so the two kills land
        # in two distinct chunks and force two separate recoveries
        chaos = map_jobs(_kill_worker_once, jobs, 2, chunksize=1)
        # field-for-field RunResult equality, naming the locus on failure
        assert_result_lists_equal(chaos, serial, label_a="chaos", label_b="serial")

        report = chaos.failure_report
        assert report.backend == "process"
        # both kills may land in the same pool generation (one breakage
        # takes out both workers), so >= 1 restart — but each lost
        # chunk's recovery is recorded as its own event
        assert report.pool_restarts >= 1
        assert len(report.events) >= 2
        assert all(isinstance(e, RetryEvent) for e in report.events)
        assert {e.action for e in report.events} <= {"redispatch", "serial"}
        assert not report.degraded_to_serial
        # the serial control run is clean
        assert serial.failure_report.clean

    def test_sweep_level_recovery(self, tmp_path):
        """The public sweep() API inherits recovery and the report."""
        # sweep's own job bodies can't be killed from the outside
        # deterministically, so chaos is injected via map_jobs above;
        # here we pin that sweep returns JobResults with a clean report
        # in the undisturbed case and stays equal to serial.
        jobs = _sim_jobs()
        serial = sweep(jobs)
        pooled = sweep(jobs, n_workers=2)
        assert_result_lists_equal(serial, pooled, label_a="serial", label_b="pooled")
        assert isinstance(pooled, JobResults)
        assert pooled.failure_report.backend == "process"
        assert pooled.failure_report.clean
        assert serial.failure_report.backend == "serial"

    def test_chunk_that_always_kills_degrades_to_parent_serial(self):
        """A chunk that kills every worker it lands on exhausts its
        re-dispatch budget and runs in the parent (where the guard
        disarms it), so the call still completes."""
        jobs = [(PARENT_PID, v) for v in range(6)]
        results = map_jobs(_always_kill, jobs, 2, chunksize=1)
        assert list(results) == [2 * v for v in range(6)]
        report = results.failure_report
        assert report.pool_restarts >= parallel._MAX_CHUNK_REDISPATCH - 1
        assert any(e.action == "serial" for e in report.events)
        # every redispatch event carries a positive capped backoff
        for e in report.events:
            if e.action == "redispatch":
                assert 0.0 < e.backoff_s <= parallel._BACKOFF_CAP_S

    def test_pool_failure_budget_degrades_everything(self, monkeypatch):
        """After _MAX_POOL_FAILURES breakages the whole remainder runs
        serially in the parent — no more pools are built."""
        monkeypatch.setattr(parallel, "_MAX_POOL_FAILURES", 1)
        monkeypatch.setattr(parallel, "_MAX_CHUNK_REDISPATCH", 99)
        jobs = [(PARENT_PID, v) for v in range(6)]
        results = map_jobs(_always_kill, jobs, 2, chunksize=1)
        assert list(results) == [2 * v for v in range(6)]
        report = results.failure_report
        assert report.degraded_to_serial
        assert report.pool_restarts == 1
        assert any(
            e.action == "serial"
            and e.error == "pool failure budget exhausted"
            for e in report.events
        )

    def test_broken_pool_is_retired_only_for_its_worker_count(self, tmp_path):
        """The BrokenProcessPool handler must not orphan or drop warm
        pools of *other* worker counts (satellite: idempotent cleanup)."""
        # warm a 3-worker pool with an innocent job
        assert map_jobs(_double, [1, 2, 3], 3) == [2, 4, 6]
        pool3 = parallel._POOLS.get(("map", 3))
        assert pool3 is not None
        # serving pools share the registry and must survive it too
        serve0 = parallel.serve_pool(0)

        marker = str(tmp_path / "kill-retire")
        jobs = [(marker, PARENT_PID, kwargs) for kwargs in _sim_jobs()[:3]]
        chaos = map_jobs(_kill_worker_once, jobs, 2, chunksize=1)
        assert chaos.failure_report.pool_restarts >= 1
        # the 3-worker pool survived the 2-worker pool's funeral
        assert parallel._POOLS.get(("map", 3)) is pool3
        assert parallel.serve_pool(0) is serve0
        # two jobs: a single job would run serially and prove nothing
        survivor = map_jobs(_double, [5, 6], 3)
        assert survivor == [10, 12]
        assert survivor.failure_report.backend == "process"
        assert survivor.failure_report.clean
        parallel.retire_serve_pools(0)
        assert parallel._POOLS.get(("map", 3)) is pool3


def _double(x):  # module-level: picklable for worker processes
    return 2 * x


class TestFailureReportPlumbing:
    def test_serial_results_carry_clean_report(self):
        res = map_jobs(_double, [1, 2, 3], None)
        assert res == [2, 4, 6]
        assert isinstance(res, JobResults)
        assert res.failure_report == FailureReport(backend="serial")
        assert res.failure_report.clean

    def test_job_results_equal_plain_lists(self):
        # the contract that lets every existing caller ignore the report
        res = JobResults([1, 2], FailureReport(backend="serial"))
        assert res == [1, 2]
        assert [1, 2] == res
        assert res[1:] == [2]

    def test_genuine_job_exceptions_still_propagate(self):
        with pytest.raises(ZeroDivisionError):
            map_jobs(_reciprocal, [1, 2, 0, 4], 2)

    def test_failed_call_leaves_no_work_on_the_warm_pool(self):
        # Job 0 raises at once; the other chunks would sleep for 2 s on
        # the pool.  The next call must not wait behind them.
        with pytest.raises(ZeroDivisionError):
            map_jobs(_sleep_or_raise, [0, 2, 2, 2], 2, chunksize=1)
        started = time.monotonic()
        assert map_jobs(_double, [1, 2], 2) == [2, 4]
        assert time.monotonic() - started < 1.0

    def test_failed_call_does_not_hold_up_interpreter_exit(self, tmp_path):
        # Job 0 raises at once; the other three sleep for 5 s each on
        # two workers.  The process must exit long before they would
        # have finished, so their workers cannot outlive the call.
        script = tmp_path / "fail_fast.py"
        script.write_text(textwrap.dedent("""
            import time
            from repro._util.parallel import map_jobs

            def job(seconds):
                if not seconds:
                    raise ZeroDivisionError("job 0 fails")
                time.sleep(seconds)

            if __name__ == "__main__":
                try:
                    map_jobs(job, [0, 5, 5, 5], 2, chunksize=1)
                except ZeroDivisionError:
                    pass
                else:
                    raise SystemExit("job 0 did not raise")
        """))
        src = pathlib.Path(parallel.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        started = time.monotonic()
        subprocess.run([sys.executable, str(script)], env=env,
                       check=True, timeout=120)
        assert time.monotonic() - started < 3.0


def _reciprocal(x):  # module-level: picklable
    return 1 / x


def _sleep_or_raise(seconds):  # module-level: picklable
    if not seconds:
        raise ZeroDivisionError("job 0 fails")
    time.sleep(seconds)
    return seconds
