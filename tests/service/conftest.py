"""Shared scaffolding for the service tests.

``Fleet`` boots a whole federation on ephemeral ports — a shared cache
tier, N shard servers that read and write it, and a gateway routing by
consistent hash — entirely in-process, so tests can reach into any
component (``fleet.shards[i].pool``, ``fleet.gateway.ring``) while the
traffic between them is real HTTP.

The autouse fixture keeps every test hermetic against inherited fault
plans and journal configuration, mirroring ``tests/faults/conftest.py``
— the chaos tests here reconfigure both globals.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.faults import configure_faults
from repro.obs import configure_journal
from repro.service import (CacheTierClient, CacheTierServer,
                           CacheTierService, Gateway, GatewayServer,
                           ServiceServer, SimulationService)
from repro.sim import ResultCache


@pytest.fixture(autouse=True)
def _isolated_globals(monkeypatch):
    """Each test starts with no fault plan and a clean journal."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_LOG_DIR", raising=False)
    monkeypatch.delenv("REPRO_LOG", raising=False)
    monkeypatch.delenv("REPRO_STATE_DIR", raising=False)
    # a stateful SimulationService exports its checkpoint dir into the
    # environment; scrub it so it can't leak across tests
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    configure_faults(None)
    configure_journal()
    yield
    configure_faults(None)
    configure_journal()


class Fleet:
    """Cache tier + shard servers + gateway, all on ephemeral ports."""

    def __init__(self, tmp_path, shards=2, workers=1, instructions=300,
                 retries=1, backoff=0.05):
        tier_cache = ResultCache(str(tmp_path / "tier"))
        self.tier = CacheTierService(tier_cache)
        self.tier_server = CacheTierServer(self.tier, port=0)
        self.tier_server.start_background()
        self.shards = []
        self.shard_servers = []
        for index in range(shards):
            service = SimulationService(
                instructions=instructions, workers=workers,
                cache=CacheTierClient(self.tier_server.url,
                                      retries=2, backoff=0.01),
                shard_id=f"shard{index}")
            server = ServiceServer(service, port=0)
            server.start_background()
            self.shards.append(service)
            self.shard_servers.append(server)
        self.gateway = Gateway([s.url for s in self.shard_servers],
                               retries=retries, backoff=backoff)
        self.gateway_server = GatewayServer(self.gateway, port=0)
        self.gateway_server.start_background()
        self.url = self.gateway_server.url

    def simulated(self):
        """Per-shard count of simulations actually performed."""
        return [s.pool.metrics()["simulated"] for s in self.shards]

    def kill_shard(self, index):
        """Hard-stop one shard's HTTP endpoint (simulated crash)."""
        self.shard_servers[index].shutdown()
        self.shard_servers[index].server_close()
        self.shards[index].stop()

    def close(self):
        self.gateway_server.shutdown()
        self.gateway_server.server_close()
        for index, server in enumerate(self.shard_servers):
            try:
                server.shutdown()
                server.server_close()
            except OSError:
                pass
            self.shards[index].stop()
        self.tier_server.shutdown()
        self.tier_server.server_close()


@pytest.fixture
def make_fleet(tmp_path):
    fleets = []

    def factory(**kwargs):
        fleet = Fleet(tmp_path, **kwargs)
        fleets.append(fleet)
        return fleet

    yield factory
    for fleet in fleets:
        fleet.close()


@pytest.fixture
def fleet(make_fleet):
    return make_fleet()


#: Content-Length values no handler may trust: a negative length used to
#: block the handler in ``rfile.read(-1)``, a non-integer one to drop
#: the connection with an uncaught ``ValueError``
MALFORMED_LENGTHS = ("-1", "abc")


def raw_request(url, method, path, content_length, timeout=5.0):
    """Send a bodyless request with a hand-written ``Content-Length``
    over a raw socket; ``(status, JSON payload)`` of the reply.

    Reads until the server closes the connection, so a handler that
    hangs fails the test with ``socket.timeout`` instead of wedging it.
    """
    parsed = urlparse(url)
    with socket.create_connection((parsed.hostname, parsed.port),
                                  timeout=timeout) as sock:
        sock.sendall((f"{method} {path} HTTP/1.1\r\n"
                      f"Host: {parsed.netloc}\r\n"
                      "Content-Type: application/json\r\n"
                      f"Content-Length: {content_length}\r\n"
                      "\r\n").encode("ascii"))
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


#: run-request fields the parser must refuse with a JSON 400, by test
#: id: ``(fields, text the error names)``.  ``true`` used to be read as
#: 1 and ``1e12`` as a trillion-instruction run; a non-string field
#: used to drop the connection; ``int_alus=0`` used to be accepted and
#: then deadlock its worker, ``int_alus=1000`` to exhaust its memory
MALFORMED_FIELDS = {
    "instructions-true": ('"instructions": true', "must be a JSON integer"),
    "instructions-1e12": ('"instructions": 1e12', "must be a JSON integer"),
    "instructions-string": ('"instructions": "5000"',
                            "must be a JSON integer"),
    "seed-true": ('"seed": true', "must be a JSON integer"),
    "priority-string": ('"priority": "5"', "must be a JSON integer"),
    "tag-integer": ('"tag": 5', "must be a JSON string"),
    "benchmark-list": ('"benchmark": ["gzip"]', "must be a JSON string"),
    "tag-zero-int-alus": ('"tag": "int_alus=0"', "count must be >= 1"),
    "tag-huge-int-alus": ('"tag": "int_alus=1000"', "count must be <= 16"),
}

#: ``?timeout=`` values a result poll must refuse with a JSON 400: a
#: non-number used to drop the connection on both tiers, ``nan`` at
#: the gateway
MALFORMED_TIMEOUTS = ("abc", "nan", "inf", "-1")


def post_run_text(url, fields_text, timeout=30.0):
    """POST ``{"benchmark": "gzip", <fields_text>}`` verbatim to
    ``/v1/runs``; ``(status, JSON payload)`` of the reply."""
    body = ('{"benchmark": "gzip", ' + fields_text + "}").encode("utf-8")
    request = urllib.request.Request(
        url + "/v1/runs", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    return _json_reply(request, timeout)


def get_json(url, path, timeout=30.0):
    """GET ``path``; ``(status, JSON payload)`` of the reply."""
    return _json_reply(url + path, timeout)


def _json_reply(request, timeout):
    """``(status, JSON payload)`` of ``request``, error replies included."""
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
