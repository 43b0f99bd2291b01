"""Gateway routing: the hash ring, shard federation over real HTTP,
failover, and the order-preserving backpressure contract."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (BackpressureError, Gateway, GatewayServer,
                           HashRing, ServiceClient, ServiceClosed,
                           ServiceError, ServiceServer, SimulationService)
from repro.service.workers import ShutdownRequested
from repro.sim import ResultCache

from .conftest import (MALFORMED_FIELDS, MALFORMED_LENGTHS,
                       MALFORMED_TIMEOUTS, get_json, post_run_text,
                       raw_request)

INSTRUCTIONS = 300


# -- the hash ring ----------------------------------------------------------

KEYS = [f"{i:03d}" + "ab" * 30 for i in range(120)]


def test_ring_is_deterministic_and_order_insensitive():
    a = HashRing(["http://s1", "http://s2", "http://s3"])
    b = HashRing(["http://s3", "http://s1", "http://s2"])
    assert a.nodes == b.nodes
    for key in KEYS:
        assert a.node_for(key) == b.node_for(key)


def test_ring_spreads_keys_over_every_node():
    ring = HashRing(["http://s1", "http://s2", "http://s3"])
    spread = ring.spread(KEYS)
    assert sum(spread.values()) == len(KEYS)
    assert all(count > 0 for count in spread.values())


def test_preference_order_covers_all_nodes_once():
    ring = HashRing(["http://s1", "http://s2", "http://s3"])
    for key in KEYS[:10]:
        order = list(ring.preference(key))
        assert order[0] == ring.node_for(key)
        assert sorted(order) == sorted(ring.nodes)


def test_removing_a_node_only_remaps_its_own_keys():
    """The consistent-hashing property: keys owned by surviving nodes
    keep their owner when one node leaves the ring."""
    full = HashRing(["http://s1", "http://s2", "http://s3"])
    reduced = HashRing(["http://s1", "http://s2"])
    for key in KEYS:
        owner = full.node_for(key)
        if owner != "http://s3":
            assert reduced.node_for(key) == owner


def test_ring_rejects_bad_construction():
    with pytest.raises(ValueError, match="at least one node"):
        HashRing([])
    with pytest.raises(ValueError, match="duplicate"):
        HashRing(["http://s1", "http://s1"])
    with pytest.raises(ValueError, match="replicas"):
        HashRing(["http://s1"], replicas=0)


# -- the gateway over real shards (the `fleet` fixture, see conftest) -------

def test_same_spec_always_routes_to_the_same_shard(fleet):
    client = ServiceClient(fleet.url, retries=1, backoff=0.05)
    spec = {"benchmark": "gzip", "policy": "dcg"}
    # identical specs land on the same shard, where in-flight dedup
    # collapses them into one job — fleet-wide dedup through one door
    first, second = client.submit([spec, dict(spec)])
    assert second["id"] == first["id"]
    assert second["shard"] == first["shard"]
    assert second["deduped"] is True


def test_routing_matches_the_ring_and_results_roundtrip(fleet):
    client = ServiceClient(fleet.url, retries=1, backoff=0.05)
    batch = [{"benchmark": b, "policy": "dcg"}
             for b in ("gzip", "mcf", "gcc", "twolf")]
    jobs = client.submit(batch)
    assert len(jobs) == 4
    for fields, job in zip(batch, jobs):
        key = fleet.gateway._fingerprint(fields)
        assert job["shard"] == fleet.gateway.ring.node_for(key)
        assert job["benchmark"] == fields["benchmark"]
    result = client.result(jobs[0]["id"], timeout=60)
    assert result.benchmark == "gzip"
    assert result.instructions == INSTRUCTIONS
    status = client.status(jobs[0]["id"])
    assert status["state"] == "done"
    assert status["shard"] == jobs[0]["shard"]


@pytest.mark.parametrize("body", [{"runs": 5}, {"runs": ["x"]}],
                         ids=["runs-not-a-list", "run-not-an-object"])
def test_malformed_batch_is_a_json_400(fleet, body):
    request = urllib.request.Request(
        fleet.url + "/v1/runs", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert "runs" in json.loads(excinfo.value.read())["error"]
    assert fleet.simulated() == [0, 0]


def test_malformed_content_length_is_a_json_400(fleet):
    for length in MALFORMED_LENGTHS:
        status, payload = raw_request(fleet.url, "POST", "/v1/runs", length)
        assert status == 400
        assert "Content-Length" in payload["error"]
    assert fleet.simulated() == [0, 0]


@pytest.mark.parametrize("fields, message",
                         list(MALFORMED_FIELDS.values()),
                         ids=list(MALFORMED_FIELDS))
def test_non_integer_fields_are_a_json_400(fleet, fields, message):
    status, payload = post_run_text(fleet.url, fields)
    assert status == 400
    assert message in payload["error"]
    assert [shard.queue.submitted for shard in fleet.shards] == [0, 0]


def test_malformed_result_timeout_is_a_json_400(fleet):
    client = ServiceClient(fleet.url)
    job = client.submit_one(benchmark="gzip", policy="dcg",
                            instructions=INSTRUCTIONS)
    for value in MALFORMED_TIMEOUTS:
        status, payload = get_json(fleet.url, f"/v1/runs/{job['id']}/result"
                                              f"?timeout={value}")
        assert status == 400
        assert "invalid timeout" in payload["error"]
    assert client.result(job["id"]).instructions == INSTRUCTIONS


def test_unknown_job_is_a_404(fleet):
    client = ServiceClient(fleet.url, retries=1, backoff=0.05)
    with pytest.raises(ServiceError) as excinfo:
        client.status("feedfacecafe")
    assert excinfo.value.status == 404


def test_forgotten_route_is_recovered_by_probing(fleet):
    """A restarted gateway has no route table; status() still finds
    the job by probing every shard."""
    client = ServiceClient(fleet.url, retries=1, backoff=0.05)
    job = client.submit_one(benchmark="gzip", policy="dcg")
    client.result(job["id"], timeout=60)
    fleet.gateway._forget(job["id"])
    assert client.status(job["id"])["state"] == "done"


def test_health_and_metrics_aggregate_the_fleet(fleet):
    client = ServiceClient(fleet.url, retries=1, backoff=0.05)
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["role"] == "gateway"
    assert sorted(s["shard"] for s in health["shards"]) == [
        "shard0", "shard1"]
    jobs = client.submit([{"benchmark": "gzip", "policy": "dcg"},
                          {"benchmark": "mcf", "policy": "dcg"}])
    for job in jobs:
        client.result(job["id"], timeout=60)
    metrics = client.metrics()
    assert metrics["fleet"]["done"] == 2
    assert len(metrics["per_shard"]) == 2
    assert metrics["gateway"]["shards"] == 2
    assert sum(metrics["gateway"]["routed"].values()) == 2


def test_drain_fans_out_to_every_shard(fleet):
    client = ServiceClient(fleet.url, retries=1, backoff=0.05)
    status = client.drain()
    assert status["status"] == "draining"
    assert len(status["shards"]) == 2
    with pytest.raises(ServiceClosed):
        client.submit_one(benchmark="gzip", policy="dcg")


def test_dead_shard_fails_over_and_lookups_answer_404(fleet):
    client = ServiceClient(fleet.url, retries=1, backoff=0.05)
    batch = [{"benchmark": b, "policy": "dcg"}
             for b in ("gzip", "mcf", "gcc", "twolf", "equake", "ammp")]
    jobs = client.submit(batch)
    for job in jobs:
        client.result(job["id"], timeout=60)
    # kill whichever shard owns the first job
    dead_url = jobs[0]["shard"]
    fleet.kill_shard([s.url for s in fleet.shard_servers].index(dead_url))

    # a poll for a job the dead shard owned converts to a 404 ...
    with pytest.raises(ServiceError) as excinfo:
        client.status(jobs[0]["id"])
    assert excinfo.value.status == 404
    assert excinfo.value.payload["lost_shard"] == dead_url

    # ... and a resubmission fails over along the ring: the surviving
    # shard answers from the shared tier without re-simulating
    survivor = next(s for s, srv in zip(fleet.shards, fleet.shard_servers)
                    if srv.url != dead_url)
    simulated_before = survivor.pool.metrics()["simulated"]
    rejob = client.submit([batch[0]])[0]
    assert rejob["shard"] != dead_url
    result = client.result(rejob["id"], timeout=60)
    assert result.benchmark == batch[0]["benchmark"]
    assert fleet.gateway.failovers >= 1
    assert survivor.pool.metrics()["simulated"] == simulated_before


def test_backpressure_surfaces_an_in_order_prefix(tmp_path):
    """The contract ``ServiceClient._submit_riding_backpressure`` leans
    on: when a mid-batch 429 escapes the gateway, ``payload["jobs"]``
    is exactly an in-order prefix of the submitted batch."""
    release = threading.Event()

    def stuck(_spec):
        release.wait(timeout=30)
        raise ShutdownRequested("pool stopping")

    shards = []
    servers = []
    for _ in range(2):
        service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                    queue_depth=1, compute=stuck,
                                    cache=ResultCache(""))
        server = ServiceServer(service, port=0)
        server.start_background()
        shards.append(service)
        servers.append(server)
    gateway = Gateway([s.url for s in servers], retries=0, backoff=0.01)
    gateway_server = GatewayServer(gateway, port=0)
    gateway_server.start_background()
    try:
        client = ServiceClient(gateway_server.url, retries=0, backoff=0.01)
        batch = [{"benchmark": b, "policy": "dcg"}
                 for b in ("gzip", "mcf", "gcc", "twolf", "equake",
                           "ammp", "lucas", "art")]
        # each shard absorbs at most 2 jobs (1 running + 1 queued), so
        # 8 distinct specs over 2 shards must trip a 429 mid-batch
        with pytest.raises(BackpressureError) as excinfo:
            client.submit(batch)
        accepted = excinfo.value.payload["jobs"]
        assert 0 < len(accepted) < len(batch)
        for fields, job in zip(batch, accepted):
            assert job["benchmark"] == fields["benchmark"]
            assert job["shard"] in {server.url for server in servers}
    finally:
        release.set()
        gateway_server.shutdown()
        gateway_server.server_close()
        for service, server in zip(shards, servers):
            server.shutdown()
            server.server_close()
            service.stop()
