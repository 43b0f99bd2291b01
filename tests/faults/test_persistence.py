"""Crash-safe queue persistence: journal replay, compaction, restore."""

import json
import os
import time

from repro.service import ServiceServer, SimulationService
from repro.service.jobs import JobQueue, JobState, make_spec
from repro.service.persist import PendingJob, QueueJournal
from repro.sim import ResultCache
from repro.sim.atomicfile import STALE_TMP_SECONDS
from repro.sim.parallel import RunSpec

INSTRUCTIONS = 400


def _journal(tmp_path) -> QueueJournal:
    return QueueJournal(str(tmp_path / "state" / "queue.jsonl"))


def _queue(tmp_path, **kwargs) -> JobQueue:
    return JobQueue(maxsize=16, persist=_journal(tmp_path), **kwargs)


def _spec(benchmark="gzip", policy="dcg") -> RunSpec:
    return make_spec(benchmark, policy, instructions=INSTRUCTIONS)


# -- QueueJournal -----------------------------------------------------------

def test_journal_roundtrip(tmp_path):
    queue = _queue(tmp_path)
    first, _ = queue.submit(_spec("gzip"), priority=2)
    second, _ = queue.submit(_spec("mcf"))
    third, _ = queue.submit(_spec("gcc"))
    job = queue.take(timeout=1)
    queue.complete(job, object(), "run")
    pending = _journal(tmp_path).load()
    assert [record.id for record in pending] == [second.id, third.id]
    assert pending[0].to_spec() == second.spec
    restored_first = _journal(tmp_path).load()[0]
    assert restored_first.spec_fields["benchmark"] == "mcf"
    assert restored_first.priority == 0


def test_journal_tolerates_torn_and_corrupt_lines(tmp_path):
    journal = _journal(tmp_path)
    queue = JobQueue(maxsize=16, persist=journal)
    job, _ = queue.submit(_spec("gzip"))
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        handle.write('{"v": 99, "op": "submit", "id": "future"}\n')
        handle.write('{"v": 1, "op": "submit"')     # torn mid-append
    pending = journal.load()
    assert [record.id for record in pending] == [job.id]


def test_journal_load_missing_file_is_empty(tmp_path):
    assert _journal(tmp_path).load() == []


def test_compact_rewrites_to_outstanding_set(tmp_path):
    journal = _journal(tmp_path)
    queue = JobQueue(maxsize=16, persist=journal)
    keep, _ = queue.submit(_spec("gzip"))
    done, _ = queue.submit(_spec("mcf"))
    job = queue.take(timeout=1)         # FIFO: pops "keep" (gzip) first
    queue.complete(job, object(), "run")
    outstanding = journal.load()
    journal.compact(outstanding)
    lines = [json.loads(line) for line in
             open(journal.path, encoding="utf-8")]
    assert len(lines) == 1
    assert lines[0]["op"] == "submit"
    assert lines[0]["id"] == done.id
    assert journal.load()[0].id == done.id


def test_compact_sweeps_stale_tmp_orphans(tmp_path):
    """A compaction killed before its replace leaves a temp file; the
    next compaction removes it."""
    journal = _journal(tmp_path)
    queue = JobQueue(maxsize=16, persist=journal)
    queue.submit(_spec("gzip"))
    stale = journal.path + ".tmp.99999"
    with open(stale, "w", encoding="utf-8") as handle:
        handle.write('{"v": 1, "op": "submit"')
    old = time.time() - STALE_TMP_SECONDS - 60
    os.utime(stale, (old, old))
    journal.compact(journal.load())
    assert not os.path.exists(stale)
    assert os.listdir(os.path.dirname(journal.path)) == ["queue.jsonl"]
    assert len(journal.load()) == 1


def test_recording_never_raises_on_io_failure(tmp_path):
    journal = QueueJournal(str(tmp_path / "state" / "queue.jsonl"))
    os.rmdir(str(tmp_path / "state"))
    target = tmp_path / "state"
    target.write_text("a file where the directory should be")
    queue = JobQueue(maxsize=16, persist=journal)
    job, _ = queue.submit(_spec())      # append fails silently
    assert job.state is JobState.QUEUED
    assert journal.dropped >= 1


# -- JobQueue.restore -------------------------------------------------------

def test_restore_preserves_ids_and_priority(tmp_path):
    queue = _queue(tmp_path)
    first, _ = queue.submit(_spec("gzip"), priority=5)
    second, _ = queue.submit(_spec("mcf"))
    pending = _journal(tmp_path).load()

    fresh = JobQueue(maxsize=16)
    assert fresh.restore(pending) == 2
    assert fresh.restored == 2
    assert fresh.submitted == 0         # restored != newly submitted
    restored = fresh.get(first.id)
    assert restored is not None
    assert restored.priority == 5
    assert restored.trace_id == first.trace_id
    # priority survives into pop order too
    assert fresh.take(timeout=1).id == first.id
    assert fresh.take(timeout=1).id == second.id


def test_restore_skips_invalid_and_duplicate_records(tmp_path):
    queue = _queue(tmp_path)
    good, _ = queue.submit(_spec("gzip"))
    pending = _journal(tmp_path).load()
    bogus = PendingJob(id="feedface0001", spec_fields={
        "tag": "baseline", "benchmark": "quake3", "policy": "dcg",
        "instructions": INSTRUCTIONS, "seed": 1})
    torn = PendingJob(id="feedface0002", spec_fields={"tag": "baseline"})

    fresh = JobQueue(maxsize=16)
    assert fresh.restore([bogus, pending[0], pending[0], torn]) == 1
    assert fresh.get(good.id) is not None
    assert fresh.get("feedface0001") is None
    assert fresh.restored == 1


# -- SimulationService restart ---------------------------------------------

def test_service_restart_restores_outstanding_jobs(tmp_path):
    """The crash scenario end to end: submit, die, reboot, recover.

    The first service accepts three jobs but its pool never starts (a
    stand-in for a server killed before finishing); one job is
    hand-completed so the journal sees a terminal.  A second service
    over the same state dir must restore exactly the other two, under
    their original ids.
    """
    state_dir = str(tmp_path / "state")
    cache_root = str(tmp_path / "cache")

    first = SimulationService(instructions=INSTRUCTIONS, workers=1,
                              cache=ResultCache(cache_root),
                              state_dir=state_dir)
    ids = {}
    for benchmark in ("gzip", "mcf", "gcc"):
        job, _ = first.submit({"benchmark": benchmark, "policy": "dcg"})
        ids[benchmark] = job.id
    finished = first.queue.take(timeout=1)
    first.queue.complete(finished, object(), "run")
    # no first.stop(): the process "dies" with two jobs outstanding

    second = SimulationService(instructions=INSTRUCTIONS, workers=2,
                               cache=ResultCache(cache_root),
                               state_dir=state_dir)
    server = ServiceServer(second, port=0)
    server.start_background()
    try:
        assert second.queue.restored == 2
        survivors = {b: i for b, i in ids.items()
                     if i != finished.id}
        for benchmark, job_id in survivors.items():
            job = second.queue.get(job_id)
            assert job is not None, f"{benchmark} lost across restart"
            assert job.wait(timeout=120)
            assert job.state is JobState.DONE
        assert second.queue.get(finished.id) is None
        # the journal is now fully terminal: a third boot restores 0
        third = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                  cache=ResultCache(cache_root),
                                  state_dir=state_dir)
        assert third.queue.restored == 0
    finally:
        server.shutdown()
        server.server_close()
        second.stop()
