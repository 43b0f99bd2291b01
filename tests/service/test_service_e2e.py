"""End-to-end service tests over real HTTP on an ephemeral port."""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (BackpressureError, JobFailed, ServiceClient,
                           ServiceError, ServiceServer, SimulationService)
from repro.service.workers import ShutdownRequested
from repro.sim import ExperimentRunner, ResultCache, Simulator
from repro.sim.cache import result_to_dict

from .conftest import (MALFORMED_FIELDS, MALFORMED_LENGTHS,
                       MALFORMED_TIMEOUTS, get_json, post_run_text,
                       raw_request)

INSTRUCTIONS = 400

BATCH = [
    {"benchmark": "gzip", "policy": "dcg"},
    {"benchmark": "gzip", "policy": "base"},
    {"benchmark": "mcf", "policy": "dcg"},
]


@pytest.fixture
def service_url(tmp_path):
    """A running service + server on an ephemeral port; yields its URL."""
    service = SimulationService(instructions=INSTRUCTIONS, workers=2,
                                queue_depth=32,
                                cache=ResultCache(str(tmp_path / "cache")))
    server = ServiceServer(service, port=0)
    server.start_background()
    yield server.url, service
    server.shutdown()
    server.server_close()
    service.stop()


def test_healthz_and_metrics(service_url):
    url, _service = service_url
    client = ServiceClient(url)
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["workers"] == 2
    metrics = client.metrics()
    assert metrics["queue_max_depth"] == 32
    assert metrics["submitted"] == 0


def test_second_batch_served_entirely_from_cache(service_url):
    """The acceptance scenario: two identical batches over HTTP; the
    second triggers zero new simulations and /metrics shows the hits."""
    url, _service = service_url
    client = ServiceClient(url)

    jobs = client.submit(BATCH)
    assert len(jobs) == 3
    first = [client.result(job["id"], timeout=120) for job in jobs]
    metrics = client.metrics()
    assert metrics["simulated"] == 3
    assert metrics["done"] == 3

    again = client.submit(BATCH)
    second = [client.result(job["id"], timeout=120) for job in again]
    metrics = client.metrics()
    assert metrics["simulated"] == 3          # zero new simulations
    assert metrics["cache_hits_memory"] == 3  # ...and the hits are counted
    assert metrics["cache_hit_ratio"] == pytest.approx(0.5)
    for a, b in zip(first, second):
        assert a.cycles == b.cycles
        assert a.total_saving == b.total_saving
        assert a.ipc == b.ipc


def test_restarted_service_replays_from_disk(tmp_path):
    """A fresh service over the same cache dir serves disk hits only."""
    root = str(tmp_path / "cache")

    def boot():
        service = SimulationService(instructions=INSTRUCTIONS, workers=2,
                                    cache=ResultCache(root))
        server = ServiceServer(service, port=0)
        server.start_background()
        return service, server

    service, server = boot()
    try:
        client = ServiceClient(server.url)
        for job in client.submit(BATCH):
            client.result(job["id"], timeout=120)
        assert client.metrics()["simulated"] == 3
    finally:
        server.shutdown()
        server.server_close()
        service.stop()

    service, server = boot()                 # same disk, new everything
    try:
        client = ServiceClient(server.url)
        for job in client.submit(BATCH):
            client.result(job["id"], timeout=120)
        metrics = client.metrics()
        assert metrics["simulated"] == 0
        assert metrics["cache_hits_disk"] == 3
        assert metrics["cache_hit_ratio"] == 1.0
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def test_identical_inflight_submissions_share_a_job(service_url):
    url, _service = service_url
    client = ServiceClient(url)
    batch = [{"benchmark": "lucas", "policy": "dcg"}] * 3
    jobs = client.submit(batch)
    assert len({job["id"] for job in jobs}) == 1
    assert [job["deduped"] for job in jobs] == [False, True, True]
    result = client.result(jobs[0]["id"], timeout=120)
    assert result.benchmark == "lucas"


def test_bad_requests_are_400(service_url):
    url, _service = service_url
    client = ServiceClient(url)
    with pytest.raises(ServiceError, match="unknown benchmark") as excinfo:
        client.submit_one(benchmark="quake3")
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError, match="policy") as excinfo:
        client.submit_one(benchmark="gzip", policy="warp-drive")
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError, match="no such job") as excinfo:
        client.status("feedfacecafe")
    assert excinfo.value.status == 404


def _post_raw(url, body):
    """POST ``body`` (any JSON value) to /v1/runs; (status, payload)."""
    request = urllib.request.Request(
        url + "/v1/runs", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.parametrize("body, message", [
    ({"runs": 5}, "must be a list"),
    ({"runs": ["x"]}, r"runs\[0\] must be a JSON object"),
], ids=["runs-not-a-list", "run-not-an-object"])
def test_malformed_batch_is_a_json_400(service_url, body, message):
    url, service = service_url
    status, payload = _post_raw(url, body)
    assert status == 400
    assert re.search(message, payload["error"])
    assert service.queue.depth == 0
    # the connection survived: the server still answers
    assert ServiceClient(url).healthz()["status"] == "ok"


def test_malformed_content_length_is_a_json_400(service_url):
    url, service = service_url
    for length in MALFORMED_LENGTHS:
        status, payload = raw_request(url, "POST", "/v1/runs", length)
        assert status == 400
        assert "Content-Length" in payload["error"]
    assert service.queue.depth == 0
    assert ServiceClient(url).healthz()["status"] == "ok"


@pytest.mark.parametrize("fields, message",
                         list(MALFORMED_FIELDS.values()),
                         ids=list(MALFORMED_FIELDS))
def test_non_integer_fields_are_a_json_400(service_url, fields, message):
    url, service = service_url
    status, payload = post_run_text(url, fields)
    assert status == 400
    assert message in payload["error"]
    assert service.queue.submitted == 0


def test_malformed_result_timeout_is_a_json_400(service_url):
    url, _service = service_url
    client = ServiceClient(url)
    job = client.submit_one(benchmark="gzip", policy="dcg")
    for value in MALFORMED_TIMEOUTS:
        status, payload = get_json(url, f"/v1/runs/{job['id']}/result"
                                        f"?timeout={value}")
        assert status == 400
        assert "invalid timeout" in payload["error"]
    assert client.result(job["id"]).benchmark == "gzip"


def test_results_are_keyed_by_the_full_spec(service_url):
    """Requests differing only in budget or seed each get their own
    result, even once the first has been memoised by the pool."""
    url, _service = service_url
    client = ServiceClient(url)
    simulator = Simulator()
    for fields in ({"instructions": 1000}, {"instructions": 4000},
                   {"instructions": 1000, "seed": 5}):
        job = client.submit_one(benchmark="gzip", policy="dcg", **fields)
        served = client.result(job["id"], timeout=120)
        expected = simulator.run_benchmark("gzip", "dcg", **fields)
        assert result_to_dict(served) == result_to_dict(expected)


def test_backpressure_over_http(tmp_path):
    """A full queue answers 429; the client surfaces a typed error."""
    release = threading.Event()

    def stuck(_spec):
        if not release.wait(timeout=30):
            raise ShutdownRequested("pool stopping")
        raise ShutdownRequested("pool stopping")

    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                queue_depth=2, compute=stuck,
                                cache=ResultCache(""))
    server = ServiceServer(service, port=0)
    server.start_background()
    try:
        client = ServiceClient(server.url)
        # worker grabs the first job and blocks; the next two fill the
        # bounded queue; the fourth must be rejected with 429
        accepted = [client.submit_one(benchmark=b, policy="dcg")
                    for b in ("gzip", "mcf", "gcc")]
        assert len(accepted) == 3
        deadline = time.monotonic() + 10
        while service.queue.depth < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BackpressureError) as excinfo:
            client.submit_one(benchmark="lucas", policy="dcg")
        assert excinfo.value.status == 429
        assert "retry" in str(excinfo.value)
        assert excinfo.value.payload["queue_max_depth"] == 2
        metrics = client.metrics()
        assert metrics["rejected"] == 1
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        service.stop()


def test_failed_job_surfaces_as_typed_error(tmp_path):
    def explodes(_spec):
        raise RuntimeError("simulated meltdown")

    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                compute=explodes, cache=ResultCache(""))
    server = ServiceServer(service, port=0)
    server.start_background()
    try:
        client = ServiceClient(server.url)
        job = client.submit_one(benchmark="gzip", policy="dcg")
        with pytest.raises(JobFailed, match="meltdown") as excinfo:
            client.result(job["id"], timeout=30)
        assert excinfo.value.payload["job"]["state"] == "failed"
        assert client.status(job["id"])["state"] == "failed"
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def test_runner_remote_mode_routes_misses_to_server(service_url):
    """ExperimentRunner(remote=client): local misses travel over HTTP,
    local cache layers still answer repeats."""
    url, service = service_url
    client = ServiceClient(url)
    runner = ExperimentRunner(instructions=INSTRUCTIONS,
                              cache=ResultCache(""), remote=client)
    results = runner.run_many([("gzip", "dcg"), ("gzip", "base")])
    assert service.pool.simulated == 2       # work happened server-side
    local = ExperimentRunner(instructions=INSTRUCTIONS,
                             cache=ResultCache(""))
    expected = local.run("gzip", "dcg")
    assert results[0].cycles == expected.cycles
    assert results[0].total_saving == expected.total_saving
    # repeats are memory hits in the local runner — no extra HTTP jobs
    before = service.queue.submitted
    runner.run("gzip", "dcg")
    assert service.queue.submitted == before


def test_submit_cli_against_live_server(service_url, capsys):
    from repro.cli import main
    url, _service = service_url
    assert main(["submit", "gzip", "--policy", "dcg", "--server", url,
                 "--wait", "--timeout", "120"]) == 0
    captured = capsys.readouterr()
    assert "queued as job" in captured.err
    assert "gzip under dcg" in captured.out
    assert "saved" in captured.out
    # second submission: answered from the service's cache
    assert main(["submit", "gzip", "--policy", "dcg", "--server", url,
                 "--wait", "--timeout", "120"]) == 0
    assert "gzip under dcg" in capsys.readouterr().out
