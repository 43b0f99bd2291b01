"""Unified observability layer: journal, tracing, metrics, sampling.

The subsystem the rest of the repo reports through:

* :mod:`~repro.obs.events` — structured JSON-lines run journal
  (``REPRO_LOG_DIR`` / ``REPRO_LOG=stderr``; disabled by default).
* :mod:`~repro.obs.tracing` — trace/span IDs propagated CLI → HTTP
  service → worker subprocess, so one command yields one trace.
* :mod:`~repro.obs.metrics` — Prometheus-style registry (counters,
  gauges, bounded-reservoir histograms) behind the service's
  ``/metrics`` and ``/metrics?format=prom``.
* :mod:`~repro.obs.cycle_sampler` — opt-in per-cycle occupancy/gating
  histograms (``REPRO_SAMPLE=1``), off the hot path when disabled.
* :mod:`~repro.obs.summary` — journal post-processing for
  ``repro events tail|summarize``.

Everything is standard library; with no environment configuration the
whole layer is inert.
"""

from .events import (EventJournal, JOURNAL_FILENAME, LOG_DIR_ENV_VAR,
                     LOG_ENV_VAR, SCHEMA_VERSION, configure_journal,
                     get_journal, journal_path_from_env, read_events)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      validate_prom_text)
from .cycle_sampler import PipelineSampler, SAMPLE_ENV_VAR, sampling_enabled
from .summary import (format_event_line, format_summary, summarize_events,
                      summarize_journal, tail_events)
from .tracing import (SPAN_HEADER, SpanContext, TRACE_HEADER, activate,
                      context_from_headers, current_context, new_span_id,
                      new_trace_id, span, trace_headers)

__all__ = [
    "Counter",
    "EventJournal",
    "Gauge",
    "Histogram",
    "JOURNAL_FILENAME",
    "LOG_DIR_ENV_VAR",
    "LOG_ENV_VAR",
    "MetricsRegistry",
    "PipelineSampler",
    "SAMPLE_ENV_VAR",
    "SCHEMA_VERSION",
    "SPAN_HEADER",
    "SpanContext",
    "TRACE_HEADER",
    "activate",
    "configure_journal",
    "context_from_headers",
    "current_context",
    "format_event_line",
    "format_summary",
    "get_journal",
    "journal_path_from_env",
    "new_span_id",
    "new_trace_id",
    "read_events",
    "sampling_enabled",
    "span",
    "summarize_events",
    "summarize_journal",
    "tail_events",
    "trace_headers",
    "validate_prom_text",
]
