"""Federation acceptance: a grid through the gateway over two shards
with a shared cache tier is bit-identical to a single-node run, each
spec simulates exactly once anywhere in the fleet, the whole fan-out
journals as one trace, and a chaos variant loses nothing.

The bit-identity reference is ``tests/integration/golden/
invariance.json`` — the same six pinned (benchmark, policy) cases the
single-node invariance suite replays, so "federated equals single-node"
reduces to "federated equals the golden capture".
"""

import json
import os
import time

from repro.faults import configure_faults, get_plan
from repro.obs import configure_journal, read_events, span
from repro.service import ServiceClient
from repro.service.jobs import make_spec
from repro.sim.cache import result_to_dict

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "integration", "golden", "invariance.json")

with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    CASES = json.load(_handle)["cases"]


def _specs():
    return [make_spec(case["benchmark"], case["policy"],
                      instructions=case["instructions"],
                      seed=case["seed"])
            for case in CASES]


def _settled_events(journal_path, completions, timeout=15.0):
    """Journal events once ``completions`` jobs have journaled done.

    Worker threads write ``job.complete`` moments *after* completing
    the job wakes the waiting client, so reading immediately races the
    trailing writes.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        events = list(read_events(journal_path))
        done = sum(e["kind"] == "job.complete" for e in events)
        if done >= completions:
            return events
        time.sleep(0.05)
    return list(read_events(journal_path))


def test_golden_grid_bit_identical_and_simulated_once(make_fleet):
    fleet = make_fleet(workers=2)
    client = ServiceClient(fleet.url, retries=3, backoff=0.05)
    specs = _specs()

    results = client.run_specs(specs, timeout=300)
    for case, result in zip(CASES, results):
        assert result_to_dict(result) == case["result"], (
            f"{case['benchmark']}/{case['policy']}: federated result "
            "drifted from the single-node golden")

    # each spec simulated exactly once, on the shard the ring names
    keys = [spec.key(fleet.gateway.calibration) for spec in specs]
    expected = fleet.gateway.ring.spread(keys)
    assert fleet.simulated() == [expected[server.url]
                                 for server in fleet.shard_servers]
    assert sum(fleet.simulated()) == len(specs)
    # the tier holds every result under its golden fingerprint
    for case in CASES:
        assert fleet.tier.cache.get(case["fingerprint"]) is not None

    # the whole grid again through a fresh client: every answer comes
    # from the fleet's caches — zero new simulations anywhere
    again = ServiceClient(fleet.url, retries=3,
                          backoff=0.05).run_specs(specs, timeout=300)
    assert [result_to_dict(r) for r in again] == [
        case["result"] for case in CASES]
    assert sum(fleet.simulated()) == len(specs)


def test_same_spec_on_two_shards_simulates_once(fleet):
    """Two shards asked *directly* (bypassing the gateway's routing)
    still simulate a spec once between them: the second shard reads
    the first's result from the shared tier."""
    spec = make_spec("gzip", "dcg", instructions=300)
    first = ServiceClient(fleet.shard_servers[0].url, retries=1,
                          backoff=0.05)
    second = ServiceClient(fleet.shard_servers[1].url, retries=1,
                           backoff=0.05)
    (result_a,) = first.run_specs([spec], timeout=120)
    (result_b,) = second.run_specs([spec], timeout=120)
    assert result_to_dict(result_a) == result_to_dict(result_b)
    assert sum(fleet.simulated()) == 1


def test_fanout_journals_as_one_trace(tmp_path, monkeypatch, make_fleet):
    log_dir = tmp_path / "log"
    monkeypatch.setenv("REPRO_LOG_DIR", str(log_dir))
    configure_journal()                  # re-resolve from the environment
    fleet = make_fleet(workers=2)
    client = ServiceClient(fleet.url, retries=3, backoff=0.05)
    specs = [make_spec("gzip", "dcg", instructions=300),
             make_spec("mcf", "base", instructions=300)]

    with span("fed.root") as root:
        results = client.run_specs(specs, timeout=120)
    assert len(results) == 2

    events = _settled_events(str(log_dir / "events.jsonl"),
                             completions=len(specs))
    lifecycle = [e for e in events
                 if e["kind"] in ("job.enqueue", "job.dequeue",
                                  "job.complete", "sim.start",
                                  "sim.finish")]
    assert lifecycle, "no job lifecycle events journaled"
    # one submission fanned out across the fleet, yet every event —
    # enqueue on a shard, simulation, completion — shares the caller's
    # trace id, stitched through gateway and shard HTTP headers
    assert {e["trace_id"] for e in lifecycle} == {root.trace_id}
    gateway_spans = [e for e in events if e["kind"] == "span"
                     and e.get("name") == "gateway.submit"]
    assert gateway_spans
    assert all(e["trace_id"] == root.trace_id for e in gateway_spans)


def test_chaos_federation_loses_nothing(make_fleet):
    """Worker crashes plus dropped HTTP requests across every hop
    (client->gateway, gateway->shards, shards->tier): the grid still
    completes everything, fails nothing, and stays bit-identical."""
    configure_faults("worker.crash:p=0.3,seed=7;http.drop:nth=5")
    fleet = make_fleet(workers=2, retries=5, backoff=0.05)
    client = ServiceClient(fleet.url, retries=5, backoff=0.05, seed=11)

    results = client.run_specs(_specs(), timeout=300)
    assert [result_to_dict(r) for r in results] == [
        case["result"] for case in CASES]

    counters = [shard.queue.counters() for shard in fleet.shards]
    assert sum(c["failed"] for c in counters) == 0
    assert (sum(c["done"] for c in counters)
            == sum(c["submitted"] for c in counters))
    # the chaos was real, not a no-op plan
    assert get_plan().counts().get(
        "http.drop", {}).get("injected", 0) >= 1
