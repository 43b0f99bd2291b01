"""Federation gateway: one front door over N shard servers.

``repro gateway --shards URL,URL,...`` serves the *same* JSON API as a
single :class:`~repro.service.server.ServiceServer`, so a
:class:`~repro.service.client.ServiceClient` (and every ``--server``
CLI path built on it) points at the gateway unchanged.  Behind the
door, each submitted run is routed by the consistent hash of its
:meth:`~repro.sim.parallel.RunSpec.key` — the same content hash
the disk cache and the per-shard dedup use — so an identical spec
always lands on the same shard, from any client, through any gateway:
per-shard in-flight dedup becomes fleet-wide dedup.

Routing and failure semantics:

* **Order-preserving batching** — a batch is split into runs of
  consecutive same-shard specs and forwarded in submission order, so a
  mid-batch 429/503 leaves exactly a *prefix* of the batch accepted,
  which is the contract ``ServiceClient._submit_riding_backpressure``
  already relies on.
* **Failover** — a connection-dead primary shard fails over along the
  ring's deterministic successor order; the shared cache tier keeps
  the moved work deduplicated fleet-wide.
* **Lost shards answer 404** — a status/result poll whose owning shard
  is unreachable returns 404, which the client already treats as
  "resubmit this spec" (the shard-restart path); the resubmission
  re-routes, and the cache tier answers without re-simulation.
* **Trace propagation** — incoming ``X-Repro-Trace-Id``/
  ``X-Repro-Span-Id`` headers become the active context around every
  forwarded request, so one ``repro figure --server <gateway>`` fans
  out across shards yet journals as a single trace.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

from ..obs.events import get_journal
from ..obs.tracing import activate, context_from_headers, span
from ..power.budget import PowerCalibration
from .client import (DEADLINE_HEADER, BackpressureError, JobFailed,
                     ServiceClient, ServiceClosed, ServiceError,
                     ServiceTimeout)
from .handler import JSONHandler, JSONServer, serve_until_interrupted
from .hashring import HashRing
from .jobs import batch_requests, parse_run_request

__all__ = ["Gateway", "GatewayServer", "DEFAULT_GATEWAY_PORT",
           "serve_gateway"]

#: default TCP port for ``repro gateway``
DEFAULT_GATEWAY_PORT = 8700

_RUN_PATH = re.compile(r"^/v1/runs/(?P<id>[0-9a-f]+)(?P<result>/result)?$")

#: job-id -> shard routes remembered by one gateway process; bounded so
#: a long-lived gateway tracks its working set, not its history (an
#: evicted route falls back to probing every shard)
ROUTE_CAPACITY = 8192


class Gateway:
    """Routing logic over the shard fleet, independent of HTTP."""

    def __init__(self, shards: Sequence[str],
                 calibration: Optional[PowerCalibration] = None,
                 replicas: int = 64, retries: int = 2,
                 backoff: float = 0.1, timeout: float = 30.0) -> None:
        urls = [url.rstrip("/") for url in shards]
        self.ring = HashRing(urls, replicas=replicas)
        self.calibration = calibration or PowerCalibration()
        self._clients = {url: ServiceClient(url, retries=retries,
                                            backoff=backoff,
                                            timeout=timeout)
                         for url in urls}
        self._lock = threading.Lock()
        self._routes: "OrderedDict[str, str]" = OrderedDict()
        self.routed: Dict[str, int] = {url: 0 for url in urls}
        self.failovers = 0
        self.lost_lookups = 0
        self.started_monotonic = time.monotonic()

    @property
    def shards(self) -> Tuple[str, ...]:
        return self.ring.nodes

    def _client(self, shard: str) -> ServiceClient:
        return self._clients[shard]

    # -- route memory -----------------------------------------------------

    def _remember(self, job_id: str, shard: str) -> None:
        with self._lock:
            self._routes[job_id] = shard
            self._routes.move_to_end(job_id)
            while len(self._routes) > ROUTE_CAPACITY:
                self._routes.popitem(last=False)
            self.routed[shard] = self.routed.get(shard, 0) + 1

    def _route_of(self, job_id: str) -> Optional[str]:
        with self._lock:
            return self._routes.get(job_id)

    def _forget(self, job_id: str) -> None:
        with self._lock:
            self._routes.pop(job_id, None)

    # -- submission -------------------------------------------------------

    @staticmethod
    def _is_unreachable(exc: ServiceError) -> bool:
        """Connection-level failure (no HTTP answer), worth failover."""
        return exc.status == 0

    def _fingerprint(self, fields: Dict[str, Any]) -> str:
        return parse_run_request(fields)[0].key(self.calibration)

    def submit_runs(self, requests: Sequence[Dict[str, Any]],
                    deadline_seconds: Optional[float] = None
                    ) -> List[Dict[str, Any]]:
        """Route a batch to its shards; job records in submission order.

        Raises ``ValueError`` on any invalid spec (before anything is
        forwarded), and re-raises a shard's
        :class:`~repro.service.client.BackpressureError` /
        :class:`~repro.service.client.ServiceClosed` with
        ``payload["jobs"]`` rewritten to *every* job accepted so far —
        always an in-order prefix of the batch, because groups are
        consecutive runs forwarded in order.
        """
        keyed = [(dict(fields), self._fingerprint(fields))
                 for fields in requests]
        accepted: List[Dict[str, Any]] = []
        for primary, group in self._grouped(keyed):
            try:
                jobs = self._submit_group(primary, group, deadline_seconds)
            except (BackpressureError, ServiceClosed) as exc:
                partial = [self._note_job(job, primary)
                           for job in exc.payload.get("jobs", [])]
                exc.payload["jobs"] = accepted + partial
                raise
            accepted.extend(jobs)
        return accepted

    def _grouped(self, keyed: Sequence[Tuple[Dict[str, Any], str]]
                 ) -> List[Tuple[str, List[Tuple[Dict[str, Any], str]]]]:
        """Split into maximal runs of consecutive same-primary specs."""
        groups: List[Tuple[str, List[Tuple[Dict[str, Any], str]]]] = []
        for fields, key in keyed:
            primary = self.ring.node_for(key)
            if groups and groups[-1][0] == primary:
                groups[-1][1].append((fields, key))
            else:
                groups.append((primary, [(fields, key)]))
        return groups

    def _note_job(self, job: Dict[str, Any], shard: str) -> Dict[str, Any]:
        """Record the route and annotate the record with its shard."""
        self._remember(job["id"], shard)
        return dict(job, shard=shard)

    def _submit_group(self, primary: str,
                      group: List[Tuple[Dict[str, Any], str]],
                      deadline_seconds: Optional[float]
                      ) -> List[Dict[str, Any]]:
        client = self._client(primary)
        try:
            jobs = client.submit([fields for fields, _key in group],
                                 deadline_seconds=deadline_seconds)
            return [self._note_job(job, primary) for job in jobs]
        except ServiceError as exc:
            if not self._is_unreachable(exc):
                raise
        # the primary is down: place each run on its own ring successor
        return [self._submit_failover(fields, key, deadline_seconds,
                                      skip=primary)
                for fields, key in group]

    def _submit_failover(self, fields: Dict[str, Any], key: str,
                         deadline_seconds: Optional[float],
                         skip: str) -> Dict[str, Any]:
        for shard in self.ring.preference(key):
            if shard == skip:
                continue
            try:
                job = self._client(shard).submit(
                    [fields], deadline_seconds=deadline_seconds)[0]
            except ServiceError as exc:
                if self._is_unreachable(exc):
                    continue
                raise
            with self._lock:
                self.failovers += 1
            get_journal().emit("gateway.failover", key=key,
                               primary=skip, shard=shard,
                               benchmark=fields.get("benchmark"),
                               policy=fields.get("policy"))
            return self._note_job(job, shard)
        raise ServiceError(
            f"no shard reachable for key {key[:12]}... "
            f"(tried all {len(self.ring)} shards)")

    # -- lookups ----------------------------------------------------------

    def _locate(self, job_id: str) -> Optional[str]:
        """The shard owning ``job_id``: remembered route, else a probe
        of every shard (gateway restarts forget their route table)."""
        shard = self._route_of(job_id)
        if shard is not None:
            return shard
        for shard in self.shards:
            try:
                self._client(shard).status(job_id)
            except ServiceError:
                continue
            self._remember(job_id, shard)
            return shard
        return None

    def _lost(self, job_id: str, shard: str,
              exc: Exception) -> ServiceError:
        """Convert an unreachable owner into a 404 the client recovers
        from (its restart path resubmits the spec, which re-routes)."""
        self._forget(job_id)
        with self._lock:
            self.lost_lookups += 1
        get_journal().emit("gateway.lost_shard", job_id=job_id,
                           shard=shard, error=str(exc))
        return ServiceError(
            f"no such job: {job_id} (shard {shard} unreachable; "
            "resubmit to re-route)", 404, {"lost_shard": shard})

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job record, wherever it lives; 404-shaped errors when
        the id is unknown or its shard is gone."""
        shard = self._locate(job_id)
        if shard is None:
            raise ServiceError(f"no such job: {job_id}", 404, {})
        try:
            return dict(self._client(shard).status(job_id), shard=shard)
        except ServiceError as exc:
            if self._is_unreachable(exc):
                raise self._lost(job_id, shard, exc) from exc
            raise

    def result_payload(self, job_id: str,
                       timeout: float) -> Dict[str, Any]:
        """The shard's raw ``{"job":..., "result":...}`` payload."""
        shard = self._locate(job_id)
        if shard is None:
            raise ServiceError(f"no such job: {job_id}", 404, {})
        client = self._client(shard)
        try:
            payload = client.result_payload(job_id, timeout=timeout)
        except ServiceError as exc:
            if self._is_unreachable(exc):
                raise self._lost(job_id, shard, exc) from exc
            raise
        payload["job"] = dict(payload.get("job", {}), shard=shard)
        return payload

    # -- fleet-wide views -------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Aggregated liveness: ok only when every shard answers ok."""
        shards: List[Dict[str, Any]] = []
        status = "ok"
        for shard in self.shards:
            try:
                health = self._client(shard).healthz()
            except ServiceError as exc:
                if exc.payload:        # shard answered 503 with a body
                    health = dict(exc.payload)
                else:
                    health = {"status": "unreachable", "error": str(exc)}
            if health.get("status") != "ok":
                status = "degraded"
            shards.append(dict(health, url=shard))
        return {"status": status, "role": "gateway",
                "shards": shards,
                "uptime_seconds": time.monotonic() -
                self.started_monotonic}

    def metrics(self) -> Dict[str, Any]:
        """Fleet totals (numeric fields summed) plus per-shard detail."""
        totals: Dict[str, Any] = {}
        shards: List[Dict[str, Any]] = []
        for shard in self.shards:
            try:
                metrics = self._client(shard).metrics()
            except ServiceError as exc:
                shards.append({"url": shard, "error": str(exc)})
                continue
            shards.append(dict(metrics, url=shard))
            for name, value in metrics.items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                totals[name] = totals.get(name, 0) + value
        with self._lock:
            gateway = {
                "shards": len(self.ring),
                "routed": dict(self.routed),
                "failovers": self.failovers,
                "lost_lookups": self.lost_lookups,
                "known_routes": len(self._routes),
            }
        return {"fleet": totals, "per_shard": shards, "gateway": gateway}

    def drain(self) -> Dict[str, Any]:
        """Ask every shard to drain; per-shard outcomes plus totals."""
        shards: List[Dict[str, Any]] = []
        totals = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for shard in self.shards:
            try:
                status = self._client(shard).drain()
            except ServiceError as exc:
                shards.append({"url": shard, "error": str(exc)})
                continue
            shards.append(dict(status, url=shard))
            for name in totals:
                totals[name] += status.get(name, 0)
        return dict(totals, status="draining", shards=shards)


class _GatewayHandler(JSONHandler):
    server: "GatewayServer"

    def _deadline_seconds(self) -> Optional[float]:
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            return max(0.0, float(raw))
        except ValueError:
            return None

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        gateway = self.server.gateway
        # the client's trace context becomes the active context, so the
        # forwarded shard requests carry the same trace id onward
        with activate(context_from_headers(self.headers)):
            if path == "/v1/drain":
                with span("gateway.drain"):
                    self._send(200, gateway.drain())
                return
            if path != "/v1/runs":
                self._send(404, {"error": f"no such endpoint: {self.path}"})
                return
            try:
                requests = batch_requests(self._read_json())
            except ValueError as exc:
                self._send(400, {"error": str(exc)})
                return
            try:
                with span("gateway.submit", runs=len(requests)):
                    jobs = gateway.submit_runs(
                        requests,
                        deadline_seconds=self._deadline_seconds())
            except ValueError as exc:
                self._send(400, {"error": str(exc)})
                return
            except ServiceClosed as exc:
                self._send(503, dict(exc.payload, error=str(exc),
                                     closed=True))
                return
            except BackpressureError as exc:
                self._send(429, dict(exc.payload, error=str(exc)))
                return
            except ServiceError as exc:
                self._send(502, {"error": str(exc)})
                return
            self._send(202, {"jobs": jobs})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        gateway = self.server.gateway
        if parsed.path == "/healthz":
            health = gateway.health()
            self._send(200 if health["status"] == "ok" else 503, health)
            return
        if parsed.path == "/metrics":
            self._send(200, gateway.metrics())
            return
        match = _RUN_PATH.match(parsed.path)
        if match is None:
            self._send(404, {"error": f"no such endpoint: {parsed.path}"})
            return
        try:
            timeout = self._query_timeout(parsed.query)
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        job_id = match.group("id")
        with activate(context_from_headers(self.headers)):
            try:
                if not match.group("result"):
                    self._send(200, gateway.status(job_id))
                    return
                self._send(200, gateway.result_payload(job_id, timeout))
            except ServiceTimeout as exc:
                self._send(504, dict(exc.payload, error=str(exc)))
            except JobFailed as exc:
                self._send(500, dict(exc.payload, error=str(exc)))
            except ServiceError as exc:
                status = exc.status if exc.status else 502
                self._send(status, dict(exc.payload, error=str(exc)))


class GatewayServer(JSONServer):
    """Threading HTTP server bound to a :class:`Gateway`.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.port``.
    """

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1",
                 port: int = DEFAULT_GATEWAY_PORT,
                 verbose: bool = False) -> None:
        self.gateway = gateway
        super().__init__((host, port), _GatewayHandler, verbose)


def serve_gateway(gateway: Gateway, host: str = "127.0.0.1",
                  port: int = DEFAULT_GATEWAY_PORT, verbose: bool = False,
                  ready: Optional[threading.Event] = None) -> None:
    """Run the gateway until interrupted (``repro gateway``)."""
    serve_until_interrupted(
        GatewayServer(gateway, host=host, port=port, verbose=verbose),
        ready)
