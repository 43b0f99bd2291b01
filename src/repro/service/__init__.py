"""Simulation service: job queue, worker pool, HTTP server, client.

The serving layer over the cached parallel runner — accept simulation
requests over the network, dedup and queue them, drain them through the
memory -> disk -> simulate resolution path, and answer repeats straight
from the cache.  ``python -m repro serve`` boots it; ``python -m repro
submit`` and :class:`ServiceClient` talk to it.
"""

from .cachetier import (CacheTierClient, CacheTierServer, CacheTierService,
                        serve_cache_tier)
from .client import (DEADLINE_HEADER, BackpressureError, JobFailed,
                     ServiceClient, ServiceClosed, ServiceError,
                     ServiceTimeout, default_server_url)
from .gateway import Gateway, GatewayServer, serve_gateway
from .hashring import HashRing
from .jobs import (Job, JobQueue, JobState, QueueClosed, QueueFull,
                   make_spec, parse_run_request, validate_spec)
from .persist import (STATE_DIR_ENV_VAR, PendingJob, QueueJournal)
from .server import ServiceServer, SimulationService, serve
from .workers import JobTimeout, ShutdownRequested, WorkerCrash, WorkerPool

__all__ = [
    "BackpressureError",
    "CacheTierClient",
    "CacheTierServer",
    "CacheTierService",
    "DEADLINE_HEADER",
    "Gateway",
    "GatewayServer",
    "HashRing",
    "Job",
    "JobFailed",
    "JobQueue",
    "JobState",
    "JobTimeout",
    "PendingJob",
    "QueueClosed",
    "QueueFull",
    "QueueJournal",
    "STATE_DIR_ENV_VAR",
    "ServiceClient",
    "ServiceClosed",
    "ServiceError",
    "ServiceServer",
    "ServiceTimeout",
    "ShutdownRequested",
    "SimulationService",
    "WorkerCrash",
    "WorkerPool",
    "default_server_url",
    "make_spec",
    "parse_run_request",
    "serve",
    "serve_cache_tier",
    "serve_gateway",
    "validate_spec",
]
