"""Shared result-cache tier: the disk cache promoted to a network
service.

A federation of shard servers must never simulate the same
:class:`~repro.sim.parallel.RunSpec` twice *anywhere in the fleet*.
Per-node disk caches can't give that guarantee — two shards with
separate ``REPRO_CACHE_DIR`` trees each simulate the fleet's first
sighting of a spec.  This module promotes the existing content-addressed
:class:`~repro.sim.cache.ResultCache` layout to a thin HTTP service all
shards read and write:

========================  ==================================================
``GET /v1/cache/<key>``   the stored result JSON, or 404 on a miss
``PUT /v1/cache/<key>``   store a result body (400 unless it round-trips
                          through the result schema — a corrupt upload is
                          refused, never persisted)
``POST /v1/clear``        drop every entry (and temp-file orphans)
``GET /healthz``          liveness
``GET /metrics``          hit/miss/store counters
========================  ==================================================

Keys are the same SHA-256 fingerprints the local cache uses, so a tier
rooted at an existing cache directory serves everything already in it.

:class:`CacheTierClient` is the shard-side half: it duck-types
:class:`~repro.sim.cache.ResultCache` (``get``/``put``/``clear``/
counters), so an :class:`~repro.sim.runner.ExperimentRunner` — and
therefore a whole shard's worker pool — uses the shared tier without
knowing it is remote.  Reads fill a bounded local LRU, so a shard asks
the network once per distinct spec per process; every network failure
degrades to a cache miss (the shard simulates locally) rather than an
error, because a cache must never be a single point of failure.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..faults import should_inject
from ..obs.events import get_journal
from ..sim.cache import ResultCache, result_from_dict, result_to_dict
from ..sim.simulator import SimulationResult
from .handler import JSONHandler, JSONServer, serve_until_interrupted

__all__ = ["CacheTierClient", "CacheTierServer", "CacheTierService",
           "DEFAULT_CACHE_TIER_PORT", "serve_cache_tier"]

#: default TCP port for ``repro cache-tier``
DEFAULT_CACHE_TIER_PORT = 8766

_KEY_PATH = re.compile(r"^/v1/cache/(?P<key>[0-9a-f]{8,64})$")


class CacheTierService:
    """The cache tier's behaviour, independent of HTTP plumbing."""

    def __init__(self, cache: ResultCache) -> None:
        if not cache.enabled:
            raise ValueError(
                "the cache tier needs an enabled ResultCache root "
                "(pass --root or set REPRO_CACHE_DIR)")
        self.cache = cache
        self.started_monotonic = time.monotonic()

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """Stored result dict for ``key``, or None.

        Goes through :meth:`ResultCache.get`, so a corrupt on-disk
        entry is dropped and reported as a miss — the tier never serves
        garbage to a shard.
        """
        result = self.cache.get(key)
        if result is None:
            return None
        return result_to_dict(result)

    def store(self, key: str, data: Dict[str, Any]) -> None:
        """Persist a result body; raises ``ValueError`` on a bad schema."""
        try:
            result = result_from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"body does not decode as a SimulationResult: {exc}"
            ) from None
        self.cache.put(key, result)

    def clear(self) -> int:
        return self.cache.clear()

    def metrics(self) -> Dict[str, Any]:
        return {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "stores": self.cache.stores,
            "root": self.cache.root,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
        }


class _TierHandler(JSONHandler):
    server: "CacheTierServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        tier = self.server.tier
        if self.path == "/healthz":
            self._send(200, {"status": "ok", "role": "cache-tier"})
            return
        if self.path == "/metrics":
            self._send(200, tier.metrics())
            return
        match = _KEY_PATH.match(self.path)
        if match is None:
            self._send(404, {"error": f"no such endpoint: {self.path}"})
            return
        data = tier.lookup(match.group("key"))
        if data is None:
            self._send(404, {"error": "cache miss", "miss": True})
            return
        self._send(200, data)

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        match = _KEY_PATH.match(self.path)
        if match is None:
            self._send(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            self.server.tier.store(match.group("key"), self._read_json())
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        self._send(200, {"stored": True})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/v1/clear":
            self._send(200, {"removed": self.server.tier.clear()})
            return
        self._send(404, {"error": f"no such endpoint: {self.path}"})


class CacheTierServer(JSONServer):
    """Threading HTTP server over a :class:`CacheTierService`.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.port``.
    """

    def __init__(self, tier: CacheTierService, host: str = "127.0.0.1",
                 port: int = DEFAULT_CACHE_TIER_PORT,
                 verbose: bool = False) -> None:
        self.tier = tier
        super().__init__((host, port), _TierHandler, verbose)


def serve_cache_tier(tier: CacheTierService, host: str = "127.0.0.1",
                     port: int = DEFAULT_CACHE_TIER_PORT,
                     verbose: bool = False,
                     ready: Optional[threading.Event] = None) -> None:
    """Run the cache tier until interrupted (``repro cache-tier``)."""
    serve_until_interrupted(
        CacheTierServer(tier, host=host, port=port, verbose=verbose),
        ready)


# ---------------------------------------------------------------------------
# shard-side client
# ---------------------------------------------------------------------------

class CacheTierClient:
    """``ResultCache``-shaped client over a remote cache tier.

    Drop-in for :class:`~repro.sim.cache.ResultCache` wherever the code
    expects one (``ExperimentRunner``, ``SimulationService``): same
    ``get``/``put``/``clear`` surface, same ``hits``/``misses``/
    ``stores`` counters, ``enabled`` always true.

    Reads fill a bounded in-process LRU (``local_capacity`` entries),
    so each shard's workers ask the network once per distinct spec —
    the "local read-through caching" half of the tier design.  Any
    transport failure counts as a miss and emits one
    ``cachetier.unreachable`` journal event; the caller simulates
    locally and the fleet keeps making progress without the tier.
    """

    def __init__(self, base_url: str, retries: int = 2,
                 backoff: float = 0.1, timeout: float = 10.0,
                 local_capacity: int = 256) -> None:
        self.base_url = base_url.rstrip("/")
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disabled_lookups = 0
        self._local: "OrderedDict[str, SimulationResult]" = OrderedDict()
        self._local_capacity = local_capacity
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return True

    @property
    def root(self) -> str:
        """Where results live — the tier URL (display parity with
        ``ResultCache.root``)."""
        return self.base_url

    # -- transport --------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None
                 ) -> Optional[Dict[str, Any]]:
        """One JSON round-trip; None on a 404, raises ``OSError`` on
        transport failure (after retries) and ``ValueError`` on a 4xx.
        """
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"})
        delay = self.backoff
        for attempt in range(self.retries + 1):
            try:
                # same injection site as ServiceClient: the chaos suite
                # drops tier traffic with the plain http.drop rule
                if should_inject("http.drop"):
                    raise ConnectionResetError("injected fault: http.drop")
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as reply:
                    return json.loads(reply.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return None
                raise ValueError(f"cache tier rejected {method} {path}: "
                                 f"HTTP {exc.code}") from exc
            except (urllib.error.URLError, ConnectionError, TimeoutError,
                    OSError) as exc:
                if attempt >= self.retries:
                    raise OSError(
                        f"cache tier {self.base_url} unreachable: {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
        raise AssertionError("unreachable")

    def _note_unreachable(self, op: str, error: Exception) -> None:
        get_journal().emit("cachetier.unreachable", op=op,
                           url=self.base_url, error=str(error))

    # -- local LRU --------------------------------------------------------

    def _local_get(self, key: str) -> Optional[SimulationResult]:
        with self._lock:
            result = self._local.get(key)
            if result is not None:
                self._local.move_to_end(key)
            return result

    def _local_put(self, key: str, result: SimulationResult) -> None:
        with self._lock:
            self._local[key] = result
            self._local.move_to_end(key)
            while len(self._local) > self._local_capacity:
                self._local.popitem(last=False)

    # -- the ResultCache surface ------------------------------------------

    def get(self, key: str) -> Optional[SimulationResult]:
        """Local LRU, then the tier; None on miss or tier outage."""
        local = self._local_get(key)
        if local is not None:
            self.hits += 1
            return local
        try:
            data = self._request("GET", f"/v1/cache/{key}")
        except (OSError, ValueError) as exc:
            self._note_unreachable("get", exc)
            self.misses += 1
            return None
        if data is None:
            self.misses += 1
            return None
        try:
            result = result_from_dict(data)
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self._local_put(key, result)
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Best-effort store to the tier; the local LRU always learns."""
        self._local_put(key, result)
        try:
            self._request("PUT", f"/v1/cache/{key}",
                          body=result_to_dict(result))
        except (OSError, ValueError) as exc:
            self._note_unreachable("put", exc)
            return
        self.stores += 1

    def clear(self) -> int:
        """Clear the tier and the local LRU; counters reset like
        :meth:`ResultCache.clear`."""
        with self._lock:
            self._local.clear()
        removed = 0
        try:
            reply = self._request("POST", "/v1/clear")
            removed = int((reply or {}).get("removed", 0))
        except (OSError, ValueError) as exc:
            self._note_unreachable("clear", exc)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disabled_lookups = 0
        return removed
