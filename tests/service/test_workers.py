"""Worker pool: resolution path, crash retry, timeout, shutdown-requeue."""

import os
import threading
import time

import pytest

from repro.service.jobs import JobQueue, JobState, make_spec
from repro.service.workers import (JobTimeout, ShutdownRequested,
                                   WorkerCrash, WorkerPool)
from repro.sim import ExperimentRunner, ResultCache
from repro.sim.parallel import simulate_spec

INSTRUCTIONS = 400


def _pool(tmp_path=None, **kwargs):
    cache = ResultCache(str(tmp_path)) if tmp_path is not None else \
        ResultCache("")
    runner = ExperimentRunner(instructions=INSTRUCTIONS, cache=cache)
    queue = JobQueue(maxsize=16, calibration=runner.calibration)
    pool = WorkerPool(queue, runner, **kwargs)
    return queue, pool, runner


def _submit(queue, **fields):
    fields.setdefault("instructions", INSTRUCTIONS)
    job, _created = queue.submit(make_spec(**fields))
    return job


def test_pool_simulates_and_caches(tmp_path):
    queue, pool, runner = _pool(tmp_path, workers=2)
    pool.start()
    try:
        first = _submit(queue, benchmark="gzip", policy="dcg")
        other = _submit(queue, benchmark="gzip", policy="base")
        assert first.wait(timeout=60) and other.wait(timeout=60)
        assert first.state is JobState.DONE and first.source == "run"
        expected = simulate_spec(first.spec, runner.calibration)
        assert first.result.cycles == expected.cycles
        assert first.result.total_saving == expected.total_saving
        # repeat request: served from the in-memory memo, no new sim
        again = _submit(queue, benchmark="gzip", policy="dcg")
        assert again.wait(timeout=60)
        assert again.source == "memory"
        assert pool.simulated == 2
        assert pool.hits["memory"] == 1
    finally:
        pool.stop()


def test_fresh_pool_hits_disk_cache(tmp_path):
    queue, pool, _runner = _pool(tmp_path, workers=1)
    pool.start()
    try:
        job = _submit(queue, benchmark="mcf", policy="dcg")
        assert job.wait(timeout=60) and job.source == "run"
    finally:
        pool.stop()
    # same disk cache, brand-new process-level state
    queue2, pool2, _ = _pool(tmp_path, workers=1)
    pool2.start()
    try:
        job2 = _submit(queue2, benchmark="mcf", policy="dcg")
        assert job2.wait(timeout=60)
        assert job2.state is JobState.DONE and job2.source == "disk"
        assert pool2.simulated == 0
        assert job2.result.cycles == job.result.cycles
    finally:
        pool2.stop()


def test_crash_is_retried_once(tmp_path):
    calls = []

    def flaky(spec):
        calls.append(spec.policy)
        if len(calls) == 1:
            raise WorkerCrash("worker exited with code -9")
        return simulate_spec(spec)

    queue, pool, _ = _pool(tmp_path, workers=1, compute=flaky)
    pool.start()
    try:
        job = _submit(queue, benchmark="gzip", policy="dcg")
        assert job.wait(timeout=60)
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert pool.retries == 1
        assert len(calls) == 2
    finally:
        pool.stop()


def test_double_crash_fails_the_job(tmp_path):
    from repro.obs.events import configure_journal, read_events

    def always_crashes(_spec):
        raise WorkerCrash("worker exited with code -11")

    journal_path = str(tmp_path / "events.jsonl")
    configure_journal(path=journal_path)
    try:
        queue, pool, _ = _pool(workers=1, compute=always_crashes)
        pool.start()
        try:
            job = _submit(queue, benchmark="gzip", policy="dcg")
            assert job.wait(timeout=60)
            assert job.state is JobState.FAILED
            assert "code -11" in job.error
            assert job.attempts == 2
            assert pool.retries == 1
            # the retry's crash used to escape uncounted: the metric
            # read 1 for a twice-crashed job and the second crash left
            # no worker.crash journal event
            assert pool.crashes == 2
            crash_events = [event for event in read_events(journal_path)
                            if event["kind"] == "worker.crash"]
            assert len(crash_events) == 2
            assert [event["attempt"] for event in crash_events] == [1, 2]
        finally:
            pool.stop()
    finally:
        configure_journal()


def test_timeout_fails_without_retry():
    def too_slow(spec):
        raise JobTimeout(f"{spec.benchmark} exceeded the 1s per-job timeout")

    queue, pool, _ = _pool(workers=1, compute=too_slow)
    pool.start()
    try:
        job = _submit(queue, benchmark="gzip", policy="dcg")
        assert job.wait(timeout=60)
        assert job.state is JobState.FAILED
        assert "timeout" in job.error
        assert job.attempts == 1             # timeouts are not retried
        assert pool.timeouts == 1
    finally:
        pool.stop()


def test_unexpected_error_fails_with_type_name():
    def broken(_spec):
        raise ZeroDivisionError("oops")

    queue, pool, _ = _pool(workers=1, compute=broken)
    pool.start()
    try:
        job = _submit(queue, benchmark="gzip", policy="dcg")
        assert job.wait(timeout=60)
        assert job.state is JobState.FAILED
        assert job.error == "ZeroDivisionError: oops"
    finally:
        pool.stop()


def test_dead_child_reports_real_exit_code(monkeypatch):
    """A child that dies without sending is reported with its actual
    exit code, not "code None".

    ``Process.exitcode`` is None until the child is joined; the crash
    paths used to format the message before joining and raced the OS.
    """
    import os

    import repro.service.workers as workers_mod

    def dies_without_sending(conn, _spec, _calibration, context=None):
        conn.close()
        os._exit(7)

    monkeypatch.setattr(workers_mod, "_child_entry", dies_without_sending)
    spec = make_spec("gzip", "dcg", instructions=300)
    with pytest.raises(WorkerCrash) as info:
        workers_mod.compute_in_subprocess(spec, None, timeout=30.0)
    assert "code 7" in str(info.value)
    assert "None" not in str(info.value)


def test_subprocess_compute_matches_inline_and_times_out():
    """The real subprocess path: correct results, enforced deadline."""
    spec = make_spec("gzip", "dcg", instructions=300)
    from repro.service.workers import compute_in_subprocess
    result = compute_in_subprocess(spec, None, timeout=120.0)
    inline = simulate_spec(spec)
    assert result.cycles == inline.cycles
    assert result.total_saving == pytest.approx(inline.total_saving)
    slow = make_spec("gzip", "dcg", instructions=2_000_000)
    with pytest.raises(JobTimeout, match="per-job timeout"):
        compute_in_subprocess(slow, None, timeout=0.2)


def test_shutdown_requeues_inflight_job():
    """An accepted job survives shutdown as a queued entry, not a loss."""
    started = threading.Event()
    holder = {}

    def blocking(_spec):
        # mimics the subprocess path: blocks until the pool starts
        # stopping, then surfaces ShutdownRequested
        started.set()
        deadline = time.monotonic() + 30
        while not holder["pool"].stopping and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ShutdownRequested("pool stopping")

    queue, pool, _ = _pool(workers=1, compute=blocking)
    holder["pool"] = pool
    pool.start()
    job = _submit(queue, benchmark="gzip", policy="dcg")
    assert started.wait(timeout=10)
    assert job.state is JobState.RUNNING
    pool.stop()
    assert job.state is JobState.QUEUED
    assert job.requeues == 1
    assert queue.depth == 1
    assert queue.counters()["requeued"] == 1
    assert not job.finished                  # neither done nor failed


def test_stop_drains_nothing_new():
    """Workers stop picking jobs once stop is requested; queued jobs
    stay queued for a later pool."""
    queue, pool, _ = _pool(workers=1)
    pool.start()
    pool.stop()
    job = _submit(queue, benchmark="gzip", policy="dcg")
    time.sleep(0.2)
    assert job.state is JobState.QUEUED


# -- forking from a threaded server ------------------------------------------

@pytest.mark.parametrize("held", ["journal", "module"])
def test_fork_while_another_thread_holds_a_journal_lock(
        tmp_path, monkeypatch, held):
    """A forked child inherits every lock in the state some other
    thread of the server left it.  With the journal on, a child forked
    while a request thread holds a journal lock used to block on its
    first emit until the job timed out; the child must instead get
    fresh locks and finish.  ``journal`` holds the configured journal's
    write lock; ``module`` holds the lock that resolves the journal
    from ``REPRO_LOG_DIR``."""
    from repro.obs import configure_journal, events, read_events
    from repro.service.workers import compute_in_subprocess

    if held == "journal":
        journal = configure_journal(path=str(tmp_path / "events.jsonl"))
        lock = journal._lock
    else:
        monkeypatch.setenv(events.LOG_DIR_ENV_VAR, str(tmp_path))
        configure_journal()          # resolve from the environment later
        lock = events._journal_lock
    locked, release = threading.Event(), threading.Event()

    def hold():
        with lock:
            locked.set()
            release.wait(60)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert locked.wait(5)
    try:
        result = compute_in_subprocess(
            make_spec("gzip", "base", instructions=300), None, timeout=20.0)
    finally:
        release.set()
        holder.join()
        configure_journal()
    assert result.instructions == 300
    starts = [event for event in read_events(str(tmp_path / "events.jsonl"))
              if event["kind"] == "sim.start"]
    assert starts and starts[0]["pid"] != os.getpid()
