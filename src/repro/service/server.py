"""Stdlib HTTP server for the simulation service.

:class:`SimulationService` bundles the queue, worker pool, and a
disk-backed :class:`~repro.sim.runner.ExperimentRunner`;
:class:`ServiceServer` exposes it as a small JSON API:

========================  ==================================================
``POST /v1/runs``         submit one spec or a ``{"runs": [...]}`` batch;
                          202 with job records, 429 when the queue is full,
                          400 on an invalid spec
``GET /v1/runs/<id>``     job status
``GET /v1/runs/<id>/result``  block (``?timeout=`` seconds) for the result
``POST /v1/drain``        stop accepting new work; in-flight and queued
                          jobs still complete and their results stay
                          fetchable (graceful drain before shutdown)
``GET /healthz``          liveness + queue/worker summary; 503 once the
                          service is degraded (dead workers, sustained
                          queue saturation)
``GET /metrics``          queue depth, done/failed counts, cache hit
                          ratio, p50/p95 job wall-clock;
                          ``?format=prom`` renders the same registry as
                          Prometheus text exposition
========================  ==================================================

Everything is standard library (``http.server``); the threading server
gives each request its own thread, so blocking result waits don't
starve status polls.
"""

from __future__ import annotations

import os
import re
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..faults import get_plan
from ..obs.events import get_journal
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import activate, context_from_headers, span
from ..power.budget import PowerCalibration
from ..sim.cache import ResultCache, result_to_dict
from ..sim.checkpoint import CHECKPOINT_DIR_ENV_VAR
from ..sim.runner import ExperimentRunner
from .client import DEADLINE_HEADER
from .handler import JSONHandler, JSONServer, serve_until_interrupted
from .jobs import (Job, JobQueue, QueueClosed, QueueFull, batch_requests,
                   parse_run_request)
from .persist import (QUEUE_JOURNAL_FILENAME, STATE_DIR_ENV_VAR,
                      QueueJournal)
from .workers import WorkerPool

__all__ = ["ServiceServer", "SimulationService", "serve"]

#: default TCP port for ``repro serve`` / ``repro submit``
DEFAULT_PORT = 8765

_RUN_PATH = re.compile(r"^/v1/runs/(?P<id>[0-9a-f]+)(?P<result>/result)?$")


class SimulationService:
    """Queue + worker pool + cached runner, independent of HTTP.

    Parameters mirror the CLI: ``workers`` simulation threads, a
    ``queue_depth`` backpressure bound, an optional per-job ``timeout``
    (enables subprocess isolation + crash retry), and the usual
    instruction budget / calibration / disk-cache knobs.
    ``degraded_after`` is how many seconds the queue may sit pinned at
    its depth bound before ``/healthz`` reports degraded.

    One :class:`~repro.obs.metrics.MetricsRegistry` is shared by the
    queue, the pool, and the service's own gauges; ``/metrics`` renders
    it as the original JSON dict and ``/metrics?format=prom`` as
    Prometheus text.
    """

    def __init__(self, instructions: Optional[int] = None,
                 calibration: Optional[PowerCalibration] = None,
                 cache: Optional[ResultCache] = None,
                 workers: int = 2, queue_depth: int = 64,
                 timeout: Optional[float] = None,
                 compute=None,
                 degraded_after: float = 30.0,
                 state_dir: Optional[str] = None,
                 shard_id: Optional[str] = None,
                 checkpoint_dir: Optional[str] = None) -> None:
        self.registry = MetricsRegistry()
        #: federation label (``repro serve --shard-of``); surfaces in
        #: /healthz and journal events so a multi-node trace names the
        #: shard that did the work
        self.shard_id = shard_id
        self.runner = ExperimentRunner(instructions=instructions,
                                       calibration=calibration, cache=cache)
        if state_dir is None:
            state_dir = os.environ.get(STATE_DIR_ENV_VAR) or None
        self.state_dir = state_dir
        # checkpointing rides on the state directory by default: a
        # stateful server snapshots long runs, a stateless one doesn't.
        # Exported through the environment (not passed object-to-object)
        # so forked compute children and pool workers inherit the store.
        if checkpoint_dir is None:
            checkpoint_dir = os.environ.get(CHECKPOINT_DIR_ENV_VAR) or None
        if checkpoint_dir is None and state_dir:
            checkpoint_dir = os.path.join(state_dir, "checkpoints")
        self.checkpoint_dir = checkpoint_dir
        if checkpoint_dir:
            os.environ[CHECKPOINT_DIR_ENV_VAR] = checkpoint_dir
        persist = None
        pending = []
        if state_dir:
            persist = QueueJournal(
                os.path.join(state_dir, QUEUE_JOURNAL_FILENAME))
            # replay what a previous life still owed, then compact the
            # journal down to exactly that outstanding set
            pending = persist.load()
            persist.compact(pending)
        self.queue = JobQueue(maxsize=queue_depth,
                              calibration=self.runner.calibration,
                              registry=self.registry,
                              persist=persist)
        if pending:
            restored = self.queue.restore(pending)
            get_journal().emit("service.restore", restored=restored,
                               replayed=len(pending))
        self.pool = WorkerPool(self.queue, self.runner, workers=workers,
                               timeout=timeout, compute=compute,
                               registry=self.registry)
        # injected-fault counts scrape alongside everything else
        get_plan().bind(self.registry)
        self.degraded_after = degraded_after
        # wall-clock is display-only; uptime (and any rate derived from
        # it) anchors on the monotonic clock so an NTP step can't skew it
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.registry.gauge("repro_service_uptime_seconds",
                            "seconds since the service started",
                            fn=lambda: self.uptime_seconds)
        self.registry.gauge("repro_service_workers",
                            "configured worker threads",
                            fn=lambda: self.pool.workers)
        self.registry.gauge("repro_jobs_running",
                            "jobs currently being computed",
                            fn=lambda: self.queue.running)

    @property
    def uptime_seconds(self) -> float:
        """Monotonic seconds since construction (NTP-step immune)."""
        return time.monotonic() - self._started_monotonic

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self.pool.start()

    def stop(self) -> None:
        """Stop workers; in-flight jobs are re-queued, none are lost."""
        self.pool.stop()
        self.queue.close()

    # -- request handling -------------------------------------------------

    def submit(self, fields: Dict[str, Any],
               deadline_at: Optional[float] = None) -> Tuple[Job, bool]:
        """Accept one loose request dict; (job, created).

        Raises ``ValueError`` on a bad spec,
        :class:`~repro.service.jobs.QueueFull` under backpressure, and
        :class:`~repro.service.jobs.QueueClosed` once draining.
        """
        spec, priority = parse_run_request(fields, self.runner.instructions)
        return self.queue.submit(spec, priority=priority,
                                 deadline_at=deadline_at)

    def drain(self) -> Dict[str, Any]:
        """Stop accepting new work; what's accepted still completes.

        The queue closes (new submissions get :class:`QueueClosed` →
        503), workers finish the backlog and then exit, and finished
        results remain fetchable until the process exits.
        """
        already = self.queue.closed
        self.queue.close()
        if not already:
            get_journal().emit("service.drain",
                               queued=self.queue.depth,
                               running=self.queue.running)
        return {
            "status": "draining",
            "queued": self.queue.depth,
            "running": self.queue.running,
            "done": self.queue.done,
            "failed": self.queue.failed,
        }

    def metrics(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "queue_depth": self.queue.depth,
            "queue_max_depth": self.queue.maxsize,
            "running": self.queue.running,
            "workers": self.pool.workers,
            "uptime_seconds": self.uptime_seconds,
            "started_at": self.started_at,
        }
        data.update(self.queue.counters())
        data.update(self.pool.metrics())
        return data

    def prom_metrics(self) -> str:
        """Prometheus text exposition of the shared registry."""
        return self.registry.render_prom()

    def health(self) -> Dict[str, Any]:
        """Liveness summary; ``status`` is ``"ok"`` or ``"degraded"``.

        Degraded (the handler turns it into a 503) when every worker
        thread has died under a started pool, or when the queue has
        been pinned at its depth bound for more than
        ``degraded_after`` seconds — both mean accepted work is no
        longer draining.
        """
        reasons: List[str] = []
        draining = self.queue.closed
        # workers exit by design once a drained queue empties — that is
        # the drain completing, not a degradation
        if (self.pool.started and self.pool.alive_workers == 0
                and not draining):
            reasons.append("all worker threads are dead")
        saturated = self.queue.saturated_seconds
        if saturated > self.degraded_after:
            reasons.append(
                f"queue saturated for {saturated:.0f}s "
                f"(bound {self.degraded_after:g}s)")
        payload: Dict[str, Any] = {
            "status": "degraded" if reasons else "ok",
            "workers": self.pool.workers,
            "alive_workers": self.pool.alive_workers,
            "queue_depth": self.queue.depth,
            "draining": draining,
            "uptime_seconds": self.uptime_seconds,
            "started_at": self.started_at,
        }
        if self.shard_id is not None:
            payload["shard"] = self.shard_id
        if reasons:
            payload["reasons"] = reasons
        return payload


class _Handler(JSONHandler):
    """Routes the five endpoints onto the owning service."""

    server: "ServiceServer"

    # -- endpoints --------------------------------------------------------

    def _deadline_at(self) -> Optional[float]:
        """Absolute monotonic deadline from the client's relative header.

        The header carries *remaining seconds* rather than a wall-clock
        instant, so client and server clocks never need to agree; an
        absent or malformed header means "wait forever".
        """
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            seconds = float(raw)
        except ValueError:
            return None
        return time.monotonic() + max(0.0, seconds)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        service = self.server.service
        if path == "/v1/drain":
            self._send(200, service.drain())
            return
        if path != "/v1/runs":
            self._send(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            requests = batch_requests(self._read_json())
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        deadline_at = self._deadline_at()
        jobs: List[Tuple[Job, bool]] = []
        try:
            # the client's trace context (X-Repro-Trace-Id headers)
            # becomes the active context, so the accepted jobs — and
            # every worker-side event about them — join its trace
            with activate(context_from_headers(self.headers)):
                with span("http.submit", runs=len(requests)):
                    for fields in requests:
                        jobs.append(service.submit(
                            fields, deadline_at=deadline_at))
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        except QueueClosed as exc:
            # "closed" tells the client this is fatal-for-this-server,
            # not a 429-style "try again in a moment"
            self._send(503, {
                "error": str(exc),
                "closed": True,
                "jobs": [dict(job.to_dict(), deduped=not created)
                         for job, created in jobs],
            })
            return
        except QueueFull as exc:
            # batch semantics: all-or-nothing is impossible once some
            # jobs are queued, so report what was accepted alongside
            # the rejection — the client retries the remainder
            self._send(429, {
                "error": str(exc),
                "queue_depth": service.queue.depth,
                "queue_max_depth": service.queue.maxsize,
                "jobs": [dict(job.to_dict(), deduped=not created)
                         for job, created in jobs],
            })
            return
        self._send(202, {
            "jobs": [dict(job.to_dict(), deduped=not created)
                     for job, created in jobs],
        })

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        service = self.server.service
        if parsed.path == "/healthz":
            health = service.health()
            self._send(200 if health["status"] == "ok" else 503, health)
            return
        if parsed.path == "/metrics":
            query = parse_qs(parsed.query)
            if query.get("format", [""])[0] == "prom":
                self._send_text(200, service.prom_metrics())
            else:
                self._send(200, service.metrics())
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
        job = service.queue.get(match.group("id"))
        if job is None:
            self._send(404, {"error": f"no such job: {match.group('id')}"})
            return
        if not match.group("result"):
            self._send(200, job.to_dict())
            return
        if not job.wait(timeout=timeout):
            self._send(504, {"error": "timed out waiting for the result",
                             "job": job.to_dict()})
            return
        if job.error is not None:
            self._send(500, {"error": job.error, "job": job.to_dict()})
            return
        self._send(200, {"job": job.to_dict(),
                         "result": result_to_dict(job.result)})


class ServiceServer(JSONServer):
    """Threading HTTP server bound to a :class:`SimulationService`.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.port``.  :meth:`ServiceServer.shutdown` stops the HTTP
    loop only — call :meth:`SimulationService.stop` for the workers.
    """

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 verbose: bool = False) -> None:
        self.service = service
        super().__init__((host, port), _Handler, verbose)

    def start_background(self) -> threading.Thread:
        """Start the service's workers, then serve on a daemon thread."""
        self.service.start()
        return super().start_background()


def serve(service: SimulationService, host: str = "127.0.0.1",
          port: int = DEFAULT_PORT, verbose: bool = False,
          ready: Optional[threading.Event] = None) -> int:
    """Run the service until interrupted; returns accepted-job count.

    Ctrl-C / SIGTERM stop the HTTP loop, then shut the pool down
    gracefully: running jobs are re-queued, so every accepted job ends
    the session either done or still queued — never lost.
    """
    server = ServiceServer(service, host=host, port=port, verbose=verbose)
    service.start()
    try:
        serve_until_interrupted(server, ready)
    finally:
        service.stop()
    return service.queue.submitted
