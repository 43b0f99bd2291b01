"""The ``service`` workload: ``repro serve --jobs 1`` driven closed-loop.

One client (``ServiceClient``, as ``submit --wait`` and ``compare
--server`` use it) sends one request at a time and waits for its
result.  The traffic is a seeded, shuffled stream over benchmark x
policy x budget x seed in which every spec appears :data:`COPIES`
times, so cache reads come alongside simulate-and-write.  Each pass starts a fresh server on a
fresh cache directory; passes repeat until ``--seconds`` are spent and
at least :data:`MIN_LATENCIES` answers were correct.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

import common
import layers

#: four integer and four floating-point profiles, so each pass holds
#: enough distinct simulations for a steady p95
BENCHMARKS = ("gzip", "gcc", "mcf", "twolf", "applu", "swim", "art",
              "lucas")
BUDGETS = (1_000, 4_000)
COPIES = 4

#: replayed for per-layer attribution: the first simulated specs
REPLAY_LIMIT = 12

#: correct answers needed so that ten lie beyond p95
MIN_LATENCIES = 200

#: stop adding passes after this long, even short of MIN_LATENCIES
MAX_SECONDS = 100.0

#: seconds one request (its result wait included) may take
REQUEST_TIMEOUT = 60.0

#: seconds a server may take to answer /healthz after launch
START_TIMEOUT = 60.0


def stream(seed: int) -> List[Dict[str, Any]]:
    """The request stream: :data:`COPIES` blocks, each a seeded shuffle
    of every spec; the seed also picks the specs' generator seeds.

    The first request for each benchmark x policy pair alternates
    between the two budgets in a fixed pattern.  A memo keyed by that
    pair alone simulates only those first requests, so this keeps the
    simulated work the same for every seed; with per-spec keys it
    changes nothing.
    """
    rng = random.Random(seed)
    spec_seeds = (1_000 + 2 * (seed % 100_000), 1_001 + 2 * (seed % 100_000))
    pairs = [(b, p) for b in BENCHMARKS for p in common.POLICIES]
    specs = [{"benchmark": b, "policy": p, "instructions": n, "seed": s}
             for b, p in pairs for n in BUDGETS for s in spec_seeds]
    blocks = []
    for _ in range(COPIES):
        block = [dict(spec) for spec in specs]
        rng.shuffle(block)
        blocks.append(block)
    first = blocks[0]
    for index, pair in enumerate(pairs):
        slots = [i for i, spec in enumerate(first)
                 if (spec["benchmark"], spec["policy"]) == pair]
        budget = BUDGETS[index % len(BUDGETS)]
        swap = next(i for i in slots if first[i]["instructions"] == budget)
        first[slots[0]], first[swap] = first[swap], first[slots[0]]
    return [spec for block in blocks for spec in block]


def _key(spec: Dict[str, Any]) -> str:
    return common.cell_key(spec["benchmark"], spec["policy"],
                           spec["instructions"], spec["seed"])


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _Server:
    """One server process on a fresh cache directory."""

    def __init__(self, traced: bool) -> None:
        from repro.service.client import ServiceClient, ServiceError
        self.port = _free_port()
        env = common.hermetic_environ()
        env["REPRO_CACHE_DIR"] = common.fresh_dir("cache-")
        self.spans_path = None
        self.journal_dir = None
        if traced:
            self.journal_dir = common.fresh_dir("journal-")
            env["REPRO_LOG_DIR"] = self.journal_dir
            self.spans_path = os.path.join(self.journal_dir, "cache.jsonl")
            cmd = [sys.executable, common.CHILD, "server"]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--jobs", "1",
                   "--port", str(self.port)]
        launch = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=common.ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, text=True)
        if traced:
            self.proc.stdin.write(json.dumps(
                {"port": self.port, "spans_path": self.spans_path}))
        self.proc.stdin.close()
        self.url = f"http://127.0.0.1:{self.port}"
        probe = ServiceClient(self.url, retries=0, timeout=5.0)
        while True:
            try:
                probe.healthz()
                break
            except ServiceError:
                if (self.proc.poll() is not None
                        or time.monotonic() - launch > START_TIMEOUT):
                    self.stop()
                    raise RuntimeError("simulation server did not start")
                time.sleep(0.01)
        self.setup_s = time.monotonic() - launch

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _pass(requests: List[Dict[str, Any]], traced: bool,
          spans: Optional[common.Spans] = None) -> Dict[str, Any]:
    """One fresh server, the whole stream, then shutdown."""
    from repro.obs.tracing import (SpanContext, activate, new_span_id,
                                   new_trace_id)
    from repro.service.client import ServiceClient, ServiceError
    server = _Server(traced)
    client = ServiceClient(server.url, timeout=REQUEST_TIMEOUT)
    answers = []
    try:
        began = time.perf_counter()
        for spec in requests:
            trace_id = new_trace_id()
            answer = {"key": _key(spec), "trace_id": trace_id}
            context = SpanContext(trace_id, new_span_id())
            start = time.perf_counter()
            try:
                with activate(context if traced else None):
                    job = client.submit_one(**spec)
                    submitted = time.perf_counter()
                    reply = client.result_payload(job["id"],
                                                  timeout=REQUEST_TIMEOUT)
            except ServiceError as exc:
                answer.update(ok=False, error=str(exc),
                              latency=time.perf_counter() - start)
            else:
                end = time.perf_counter()
                answer.update(
                    ok=True, latency=end - start,
                    submit=submitted - start,
                    seconds=reply["job"]["seconds"] or 0.0,
                    source=reply["job"]["source"],
                    result=common.summarize(reply["result"]))
                if spans is not None:
                    spans.add("service.submit", trace_id, start, submitted,
                              key=answer["key"])
                    spans.add("service.result", trace_id, submitted, end,
                              key=answer["key"], source=answer["source"])
            answers.append(answer)
        wall = time.perf_counter() - began
        metrics = client.metrics()
    finally:
        server.stop()
    return {"answers": answers, "wall": wall, "setup_s": server.setup_s,
            "server_metrics": metrics, "spans_path": server.spans_path,
            "journal_dir": server.journal_dir}


def _references(requests: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Direct in-process ``Simulator`` results for every distinct spec."""
    distinct = {_key(spec): spec for spec in requests}
    return common.references([dict(spec, sample=None)
                              for spec in distinct.values()])


def _score(passes: List[Dict[str, Any]], reference: Dict[str, Any]
           ) -> Dict[str, Any]:
    """Correctness, pooled latencies of correct answers, and per pass
    their p50 and throughput (instructions and answers per second)."""
    attempted = failed = 0
    latencies: List[float] = []
    per_pass = []
    for one in passes:
        mine = []
        instr = 0
        for answer in one["answers"]:
            attempted += 1
            answer["correct"] = (answer["ok"] and answer["result"]
                                 == reference[answer["key"]])
            if not answer["correct"]:
                failed += 1
                continue
            mine.append(answer["latency"] * 1e3)
            instr += answer["result"]["instructions"]
        latencies.extend(mine)
        if mine:
            per_pass.append({"p50_ms": statistics.median(mine),
                             "instr_per_s": instr / one["wall"],
                             "answers_per_s": len(mine) / one["wall"]})
    return {"attempted": attempted, "failed": failed,
            "latencies": latencies, "passes": per_pass}


def run_untraced(seed: int, seconds: int) -> Dict[str, Any]:
    """Passes until ``seconds`` and :data:`MIN_LATENCIES` are reached.

    Short bursts of host interference slow whole passes (each request
    is a chain of cross-process wake-ups), so p50 and throughput come
    from the least-disturbed pass; p95 pools every pass, because one
    pass holds too few answers beyond it.
    """
    requests = stream(seed)
    reference = _references(requests)
    passes = []
    began = time.monotonic()
    latencies: List[float] = []
    while (not passes or time.monotonic() - began < seconds
           or len(latencies) < MIN_LATENCIES):
        if time.monotonic() - began > MAX_SECONDS:
            break
        passes.append(_pass(requests, traced=False))
        score = _score(passes, reference)
        latencies = score["latencies"]
    if not latencies:
        raise RuntimeError("no request was answered correctly")
    p95 = common.percentile(latencies, 0.95)
    per_pass = score["passes"]
    return {
        "attempted": score["attempted"], "failed": score["failed"],
        "metrics": {
            "setup_s": statistics.median([p["setup_s"] for p in passes]),
            "sim_instr_per_s": max(p["instr_per_s"] for p in per_pass),
            "req_p50_ms": min(p["p50_ms"] for p in per_pass),
            "req_p95_ms": p95,
            "req_per_s": max(p["answers_per_s"] for p in per_pass),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "details": {"requests": len(requests), "passes": score["passes"],
                    "latency_samples": len(latencies),
                    "beyond_p95": sum(1 for v in latencies if v > p95),
                    "sources": _sources(passes),
                    "server_metrics": passes[-1]["server_metrics"]},
    }


def _sources(passes: List[Dict[str, Any]]) -> Dict[str, int]:
    """Answered jobs by ``source`` (run, memory, disk)."""
    return dict(Counter(answer["source"] for one in passes
                        for answer in one["answers"] if answer["ok"]))


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    if not path or not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def run_traced(seed: int, spans: common.Spans) -> Dict[str, Any]:
    """An untraced pass for the overhead baseline, a traced pass (client
    spans, server journal, timed result cache) and a replay of the
    first simulated specs for the simulation layers."""
    requests = stream(seed)
    untraced = _pass(requests, traced=False)
    traced = _pass(requests, traced=True, spans=spans)
    reference = _references(requests)
    score = _score([traced], reference)
    base = _score([untraced], reference)

    cache_spans = _read_jsonl(traced["spans_path"])
    for record in cache_spans:
        spans.add(record["name"], record["id"], record["start"],
                  record["end"], process="server")
    journal = _read_jsonl(os.path.join(traced["journal_dir"],
                                       "events.jsonl"))
    for event in journal:
        if event.get("kind") == "span":
            # journal spans carry a duration and a wall-clock end time
            spans.records.append({"name": event.get("name"),
                                  "id": event.get("trace_id"),
                                  "seconds": event.get("seconds"),
                                  "ts": event.get("ts"),
                                  "process": "server-journal"})

    answered = [a for a in traced["answers"] if a["ok"]]
    simulated = list(dict.fromkeys(a["key"] for a in answered
                                   if a["source"] == "run"))
    by_key = {_key(spec): spec for spec in requests}
    replayed = layers.full_cells(
        [by_key[key] for key in simulated[:REPLAY_LIMIT]], spans)
    compute = sum(a["seconds"] for a in answered if a["source"] == "run")
    return {
        "attempted": score["attempted"], "failed": score["failed"],
        "cells": replayed,
        "sources": _sources([traced]),
        "server_metrics": traced["server_metrics"],
        "cache_get_s": sum(r["end"] - r["start"] for r in cache_spans
                           if r["name"] == "sim.cache.get"),
        "cache_put_s": sum(r["end"] - r["start"] for r in cache_spans
                           if r["name"] == "sim.cache.put"),
        "submit_ms": statistics.median([a["submit"] * 1e3 for a in answered]),
        "wait_ms": statistics.median([(a["latency"] - a["seconds"]) * 1e3
                                  for a in answered]),
        "compute_s": compute,
        "idle_frac": 1.0 - sum(a["seconds"] for a in answered)
        / traced["wall"],
        "traced_rate": score["passes"][0]["instr_per_s"],
        "untraced_rate": base["passes"][0]["instr_per_s"],
    }
