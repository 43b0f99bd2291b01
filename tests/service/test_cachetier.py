"""Cache tier service + client: HTTP roundtrip, read-through LRU,
corruption refusal, and outage degradation."""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.service import CacheTierClient, CacheTierServer, CacheTierService
from repro.sim import ResultCache, Simulator

from .conftest import MALFORMED_LENGTHS, raw_request

KEY_A = "aa" + "11" * 31
KEY_B = "bb" + "22" * 31
KEY_C = "cc" + "33" * 31

#: nothing listens here — connect() fails immediately
DEAD_URL = "http://127.0.0.1:1"


@pytest.fixture(scope="module")
def result():
    return Simulator().run_benchmark("gzip", "dcg", instructions=400)


@pytest.fixture()
def tier(tmp_path):
    service = CacheTierService(ResultCache(str(tmp_path)))
    server = CacheTierServer(service, port=0)
    server.start_background()
    yield service, server
    server.shutdown()
    server.server_close()


def test_malformed_content_length_is_a_json_400(tier):
    service, server = tier
    for length in MALFORMED_LENGTHS:
        status, payload = raw_request(server.url, "PUT",
                                      f"/v1/cache/{KEY_A}", length)
        assert status == 400
        assert "Content-Length" in payload["error"]
    assert service.cache.stores == 0


def test_requires_an_enabled_cache_root():
    with pytest.raises(ValueError, match="enabled ResultCache root"):
        CacheTierService(ResultCache(""))


def test_roundtrip_over_http(tier, result):
    service, server = tier
    writer = CacheTierClient(server.url)
    writer.put(KEY_A, result)
    assert writer.stores == 1
    assert service.cache.stores == 1
    # a *different* client (different shard) sees the entry
    reader = CacheTierClient(server.url)
    fetched = reader.get(KEY_A)
    assert fetched is not None
    assert fetched.cycles == result.cycles
    assert fetched.family_savings == result.family_savings
    assert reader.hits == 1


def test_miss_returns_none(tier):
    _service, server = tier
    client = CacheTierClient(server.url)
    assert client.get(KEY_B) is None
    assert client.misses == 1


def test_reads_fill_the_local_lru(tier, result):
    service, server = tier
    writer = CacheTierClient(server.url)
    writer.put(KEY_A, result)
    reader = CacheTierClient(server.url)
    reader.get(KEY_A)
    tier_hits = service.cache.hits
    # the repeat is answered locally — the tier sees no second lookup
    assert reader.get(KEY_A).cycles == result.cycles
    assert service.cache.hits == tier_hits
    assert reader.hits == 2


def test_put_stashes_locally_even_without_the_tier(result):
    client = CacheTierClient(DEAD_URL, retries=0, backoff=0.01)
    client.put(KEY_A, result)             # best-effort store: no raise
    assert client.stores == 0             # the tier never got it...
    assert client.get(KEY_A) is result    # ...but this shard remembers


def test_local_lru_is_bounded(tier, result):
    service, server = tier
    client = CacheTierClient(server.url, local_capacity=2)
    for key in (KEY_A, KEY_B, KEY_C):
        client.put(key, result)
    tier_hits = service.cache.hits
    # KEY_A was evicted locally, so this one goes back to the network
    assert client.get(KEY_A) is not None
    assert service.cache.hits == tier_hits + 1


def test_corrupt_upload_refused(tier):
    service, server = tier
    request = urllib.request.Request(
        f"{server.url}/v1/cache/{KEY_A}",
        data=json.dumps({"not": "a result"}).encode(), method="PUT",
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    # refused means never persisted
    assert not os.path.exists(service.cache._path(KEY_A))


def test_outage_degrades_to_miss():
    client = CacheTierClient(DEAD_URL, retries=0, backoff=0.01)
    assert client.get(KEY_A) is None
    assert client.misses == 1
    assert client.clear() == 0


def test_clear_empties_tier_and_counters(tier, result):
    service, server = tier
    client = CacheTierClient(server.url)
    client.put(KEY_A, result)
    assert client.clear() == 1
    assert (client.hits, client.misses, client.stores) == (0, 0, 0)
    assert service.cache.get(KEY_A) is None
    # the local LRU was dropped too: this goes to the tier and misses
    assert client.get(KEY_A) is None
