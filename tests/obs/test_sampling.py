"""Per-cycle sampling: opt-in, result-invariant, coherent histograms."""

import json

from repro.obs import configure_journal, read_events
from repro.obs.cycle_sampler import sampling_enabled
from repro.service.jobs import make_spec
from repro.sim.parallel import simulate_spec

INSTRUCTIONS = 400


def test_sampling_enabled_env_parsing(monkeypatch):
    for off in ("", "0", "off", "false", "OFF", "False"):
        monkeypatch.setenv("REPRO_SAMPLE", off)
        assert not sampling_enabled()
    for on in ("1", "yes", "on", "true"):
        monkeypatch.setenv("REPRO_SAMPLE", on)
        assert sampling_enabled()
    monkeypatch.delenv("REPRO_SAMPLE")
    assert not sampling_enabled()


def test_sampling_does_not_change_results(tmp_path, monkeypatch):
    """The PR 3 bit-identity contract: an attached sampler observes the
    pipeline, it never influences it."""
    spec = make_spec("gzip", "dcg", instructions=INSTRUCTIONS)
    plain = simulate_spec(spec)
    monkeypatch.setenv("REPRO_SAMPLE", "1")
    configure_journal(path=str(tmp_path / "events.jsonl"))
    sampled = simulate_spec(spec)
    assert sampled.cycles == plain.cycles
    assert sampled.ipc == plain.ipc
    assert sampled.total_saving == plain.total_saving
    assert sampled.family_savings == plain.family_savings


def test_sample_event_histograms_are_coherent(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLE", "1")
    path = tmp_path / "events.jsonl"
    configure_journal(path=str(path))
    spec = make_spec("gzip", "dcg", instructions=INSTRUCTIONS)
    result = simulate_spec(spec)
    events = list(read_events(str(path)))
    (sample,) = [e for e in events if e["kind"] == "sim.sample"]
    assert sample["benchmark"] == "gzip" and sample["policy"] == "dcg"
    # every histogram partitions the same cycle count
    assert sample["cycles"] == result.cycles
    assert sum(sample["issued_hist"].values()) == result.cycles
    assert sum(sample["fu_busy_hist"].values()) == result.cycles
    assert sum(sample["window_occupancy_hist"].values()) == result.cycles
    assert sum(sample["lsq_occupancy_hist"].values()) == result.cycles
    # issued cycles account for every committed instruction (and
    # speculative issues on top)
    issued = sum(int(width) * count
                 for width, count in sample["issued_hist"].items())
    assert issued >= result.instructions
    assert sample["fetch_stall_cycles"] <= result.cycles
    gated = sample["gated_block_cycles"]
    assert set(gated) == {"fu", "latch", "dcache", "result_bus"}
    assert all(v >= 0 for v in gated.values())
    assert gated["fu"] > 0                       # DCG gates FUs on gzip
    json.dumps(sample)                           # JSON-encodable end to end


def test_no_sample_event_without_env(tmp_path):
    path = tmp_path / "events.jsonl"
    configure_journal(path=str(path))
    simulate_spec(make_spec("gzip", "dcg", instructions=INSTRUCTIONS))
    kinds = {e["kind"] for e in read_events(str(path))}
    assert "sim.start" in kinds and "sim.finish" in kinds
    assert "sim.sample" not in kinds
