"""Checkpoint store, pausable runs and the checkpointed driver:
bit-identity, corruption tolerance, interrupt/resume of plain and
sampled specs."""

import hashlib
import os
import pickle
import time

import pytest

from repro.obs import configure_journal, read_events
from repro.sim import (CheckpointStore, PausableRun, SimulationInterrupted,
                       Simulator, run_checkpointed)
from repro.sim.atomicfile import STALE_TMP_SECONDS
from repro.sim.cache import result_to_dict
from repro.sim.checkpoint import (CHECKPOINT_DIR_ENV_VAR, CHUNK_ENV_VAR,
                                  DEFAULT_CHUNK, checkpoint_chunk)
from repro.sim.parallel import RunSpec

INSTRUCTIONS = 2_000


@pytest.fixture(autouse=True)
def _no_inherited_checkpoint_env(monkeypatch):
    monkeypatch.delenv(CHECKPOINT_DIR_ENV_VAR, raising=False)
    monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)


def _store(tmp_path) -> CheckpointStore:
    return CheckpointStore(str(tmp_path / "ckpt"))


def _spec(**kwargs) -> RunSpec:
    kwargs.setdefault("instructions", INSTRUCTIONS)
    return RunSpec("baseline", "gzip", "dcg", **kwargs)


class StopAfter:
    """Event-alike whose ``is_set`` flips True after N polls."""

    def __init__(self, polls: int) -> None:
        self.polls = polls
        self.seen = 0

    def is_set(self) -> bool:
        self.seen += 1
        return self.seen > self.polls


# -- CheckpointStore --------------------------------------------------------

def test_store_roundtrip_and_peek(tmp_path):
    store = _store(tmp_path)
    key = "ab" + "0" * 62
    assert store.save(key, "run", {"drawn": 7}, meta={"committed": 7})
    assert store.load(key, kind="run") == {"drawn": 7}
    assert store.peek(key) == {"committed": 7, "kind": "run"}
    assert (store.saves, store.loads, store.misses) == (1, 1, 0)


def test_store_disabled_without_root():
    store = CheckpointStore()
    assert not store.enabled
    assert store.save("k", "run", {}) is False
    assert store.load("k") is None
    assert store.peek("k") is None
    store.discard("k")                  # no-op, must not raise


def test_kind_mismatch_is_a_miss(tmp_path):
    store = _store(tmp_path)
    key = "cd" + "0" * 62
    store.save(key, "sampled", {"next_window": 3})
    assert store.load(key, kind="run") is None
    assert store.misses == 1
    # the file survives a kind mismatch (it is valid, just not ours)
    assert store.load(key, kind="sampled") == {"next_window": 3}


def test_key_mismatch_deletes_and_misses(tmp_path):
    store = _store(tmp_path)
    key, alias = "ef" + "0" * 62, "ef" + "1" * 62
    store.save(key, "run", {"drawn": 1})
    os.replace(store.path(key), store.path(alias))
    assert store.load(alias, kind="run") is None
    assert not os.path.exists(store.path(alias))


@pytest.mark.parametrize("scribble", [
    b"",                                 # empty file
    b"not a checkpoint at all",          # bad magic
    b"REPROCKPT1\n" + b"torn pickle",    # magic, garbage envelope
])
def test_corrupt_files_are_deleted_misses(tmp_path, scribble):
    store = _store(tmp_path)
    key = "12" + "0" * 62
    store.save(key, "run", {"drawn": 9})
    with open(store.path(key), "wb") as handle:
        handle.write(scribble)
    assert store.load(key, kind="run") is None
    assert store.misses == 1
    assert not os.path.exists(store.path(key))


def test_truncated_payload_fails_digest(tmp_path):
    store = _store(tmp_path)
    key = "34" + "0" * 62
    store.save(key, "run", {"drawn": 99, "blob": list(range(100))})
    blob = open(store.path(key), "rb").read()
    with open(store.path(key), "wb") as handle:
        handle.write(blob[:-20])
    assert store.load(key, kind="run") is None
    assert not os.path.exists(store.path(key))


def test_stale_version_is_a_miss(tmp_path, monkeypatch):
    store = _store(tmp_path)
    key = "56" + "0" * 62
    monkeypatch.setattr("repro.sim.checkpoint.CHECKPOINT_VERSION", 0)
    store.save(key, "run", {"drawn": 5})
    monkeypatch.undo()
    assert store.load(key, kind="run") is None
    assert not os.path.exists(store.path(key))


def test_saved_bytes_keep_the_envelope_format(tmp_path):
    """Magic prefix + pickled envelope, exactly as older trees wrote
    it, so existing checkpoint files keep reading back."""
    store = _store(tmp_path)
    key = "9a" + "0" * 62
    state = {"drawn": 11}
    store.save(key, "run", state, meta={"committed": 11})
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {"version": 1, "kind": "run", "key": key,
                "meta": {"committed": 11},
                "digest": hashlib.sha256(payload).hexdigest(),
                "payload": payload}
    expected = b"REPROCKPT1\n" + pickle.dumps(
        envelope, protocol=pickle.HIGHEST_PROTOCOL)
    with open(store.path(key), "rb") as handle:
        assert handle.read() == expected


def test_save_sweeps_stale_tmp_orphans(tmp_path):
    """A writer killed between open and replace leaves ``*.ckpt.tmp.*``
    behind; the next save into that directory removes it, but spares
    a fresh one (a live concurrent writer's)."""
    store = _store(tmp_path)
    key = "bc" + "0" * 62
    os.makedirs(os.path.dirname(store.path(key)))
    stale = store.path("bc" + "1" * 62) + ".tmp.99999"
    live = store.path("bc" + "2" * 62) + ".tmp.99998"
    for orphan in (stale, live):
        with open(orphan, "wb") as handle:
            handle.write(b"REPROCKPT1\ntorn")
    old = time.time() - STALE_TMP_SECONDS - 60
    os.utime(stale, (old, old))
    assert store.save(key, "run", {"drawn": 3})
    assert not os.path.exists(stale)
    assert os.path.exists(live)
    assert store.load(key, kind="run") == {"drawn": 3}


def test_unpicklable_state_is_dropped_not_raised(tmp_path):
    store = _store(tmp_path)
    assert store.save("78" + "0" * 62, "run",
                      {"gen": (x for x in range(3))}) is False
    assert store.dropped == 1


def test_checkpoint_chunk_env(monkeypatch):
    assert checkpoint_chunk() == DEFAULT_CHUNK
    monkeypatch.setenv(CHUNK_ENV_VAR, "1234")
    assert checkpoint_chunk() == 1234
    monkeypatch.setenv(CHUNK_ENV_VAR, "0")
    with pytest.raises(ValueError, match=CHUNK_ENV_VAR):
        checkpoint_chunk()


def test_spec_checkpoint_key_isolates_sample_plans():
    plain = _spec().key()
    sampled = _spec(sample="4x100").key()
    other = _spec(sample="5x100").key()
    assert len({plain, sampled, other}) == 3


def test_run_keys_are_pinned():
    """``RunSpec.key`` names cache entries, dedup keys and checkpoint
    files on disk: these values must never move."""
    assert RunSpec.resolve("gzip", "dcg", "baseline", 10_000).key() == \
        "cb47b8edf9ee2bcffb9a0b3487bcc40e0607811f81ea1b9e188a8b28cec77c92"
    assert RunSpec.resolve("gzip", "dcg", "baseline", 1_000_000,
                           sample="10x10000").key() == \
        "5b6ad2ef6d19cd4a4cc3e33615dcd706ecfc248eec093c55e4938901be6a81b9"


# -- PausableRun ------------------------------------------------------------

def test_straight_drive_matches_simulator():
    run = PausableRun("gzip", "dcg", INSTRUCTIONS)
    run.advance()
    direct = Simulator().run_benchmark(
        "gzip", "dcg", INSTRUCTIONS)
    assert result_to_dict(run.result()) == result_to_dict(direct)


def test_snapshot_resume_is_bit_identical():
    """Pause mid-run, pickle the state (the store's round-trip), resume
    in a 'fresh process', and finish: byte-identical to never pausing."""
    reference = PausableRun("gzip", "dcg", INSTRUCTIONS)
    reference.advance()

    paused = PausableRun("gzip", "dcg", INSTRUCTIONS)
    paused.advance(701)
    frozen = pickle.dumps(paused.state())
    del paused
    resumed = PausableRun.resume(pickle.loads(frozen))
    # the core commits up to its full width per cycle, so a chunk
    # boundary may overshoot the target by a few instructions
    assert 701 <= resumed.committed < 701 + 8
    resumed.advance(1400)               # a second pause point
    resumed = PausableRun.resume(pickle.loads(pickle.dumps(
        resumed.state())))
    resumed.advance()
    assert result_to_dict(resumed.result()) == \
        result_to_dict(reference.result())


def test_checkpoint_with_live_wake_entries_matches_uninterrupted():
    """Pause while the core's wake calendar holds entries (ops whose
    operands become ready later): the resumed run must still finish
    bit-identical to an uninterrupted one."""
    reference = PausableRun("mcf", "dcg", 3000)
    reference.advance()
    paused = PausableRun("mcf", "dcg", 3000)
    target = 0
    while not any(paused.pipeline._wake_ring):
        target += 50
        paused.advance(target)
        assert not paused.done
    resumed = PausableRun.resume(pickle.loads(pickle.dumps(
        paused.state(), protocol=pickle.HIGHEST_PROTOCOL)))
    assert any(resumed.pipeline._wake_ring)
    resumed.advance()
    assert result_to_dict(resumed.result()) == \
        result_to_dict(reference.result())


# -- the checkpointed driver ------------------------------------------------

@pytest.mark.parametrize("kind", ["run", "sampled"])
def test_driver_interrupt_then_resume(tmp_path, kind):
    """One driver, two run kinds: stop at a step boundary, resume from
    the checkpoint, and finish byte-identical to an uninterrupted run."""
    if kind == "run":
        spec = _spec()
    else:
        spec = _spec(instructions=4_000, sample="4x500")
    key = spec.key()
    store = _store(tmp_path)
    uninterrupted = run_checkpointed(spec, store=CheckpointStore(),
                                     chunk=600)
    events = tmp_path / "events.jsonl"
    configure_journal(path=str(events))
    try:
        with pytest.raises(SimulationInterrupted):
            run_checkpointed(spec, store=store, stop=StopAfter(2),
                             chunk=600)
        meta = store.peek(key)
        if kind == "run":
            assert set(meta) == {"kind", "committed", "instructions"}
            assert meta["kind"] == "run"
            assert meta["instructions"] == INSTRUCTIONS
            assert 1200 <= meta["committed"] < INSTRUCTIONS
        else:
            assert meta == {"kind": "sampled", "window": 2, "windows": 4}

        resumed = run_checkpointed(spec, store=store, chunk=600)
    finally:
        configure_journal()
    assert store.loads == 1
    assert result_to_dict(resumed) == result_to_dict(uninterrupted)
    # completion discards the checkpoint; a re-run starts cold
    assert store.peek(key) is None
    assert not os.path.exists(store.path(key))
    journal = [e for e in read_events(str(events))
               if e["kind"].startswith("checkpoint.")]
    assert {e["kind"] for e in journal} == {"checkpoint.save",
                                            "checkpoint.resume"}
    assert all(e["strategy"] == kind and e["key"] == key for e in journal)


def test_driver_without_store_matches_simulator(tmp_path):
    result = run_checkpointed(_spec(), store=CheckpointStore(), chunk=500)
    direct = Simulator().run_benchmark("gzip", "dcg", INSTRUCTIONS)
    assert result_to_dict(result) == result_to_dict(direct)
