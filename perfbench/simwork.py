"""The ``grid`` and ``sampled`` workloads: cold ``run_many`` batches.

Each round is a fresh interpreter (``child.py round``) with a fresh
result-cache directory, so every round pays set-up and simulates every
cell: nothing is warm but the host.  Rounds repeat until the run's
``--seconds`` are spent; metrics are medians over rounds, except p95,
which pools every round's cells.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Dict, List

import common
import layers

GOLDEN = os.path.join(common.HERE, "golden.json")

#: the paper's figure grid: two high-IPC and two memory-bound programs
GRID_BENCHMARKS = ("gzip", "applu", "mcf", "lucas")

#: the seed whose results are pinned in golden.json
DEFAULT_SEED = 0

#: worker processes (`run_many(jobs=2)`), sized for a two-core host
JOBS = 2

#: fewest set-ups behind the setup_s median
MIN_SETUPS = 5


def plan(workload: str, seed: int) -> Dict[str, Any]:
    """Budget, sampling plan and requests; the seed picks the budget
    (the default seed gives the budgets golden.json was recorded at)."""
    from repro.workloads.profiles import get_profile
    if workload == "grid":
        instructions = 10_000 + (seed % 128)
        sample = None
        requests = [(b, p) for b in GRID_BENCHMARKS
                    for p in common.POLICIES]
    else:
        instructions = 1_000_000 + 100 * (seed % 128)
        sample = "10x10000"
        requests = [("gzip", "dcg"), ("applu", "dcg")]
    cells = [{"benchmark": b, "policy": p, "instructions": instructions,
              "seed": get_profile(b).seed, "sample": sample}
             for b, p in requests]
    for cell in cells:
        cell["key"] = common.cell_key(cell["benchmark"], cell["policy"],
                                      instructions, cell["seed"], sample)
    return {"instructions": instructions, "sample": sample,
            "requests": requests, "cells": cells}


def _round_payload(work: Dict[str, Any]) -> Dict[str, Any]:
    return {"instructions": work["instructions"],
            "sample": work["sample"], "requests": work["requests"],
            "jobs": JOBS, "cache_dir": common.fresh_dir("cache-")}


def _round(work: Dict[str, Any]) -> Dict[str, Any]:
    launch = time.monotonic()
    reply = common.finish_child(common.start_child(
        "round", _round_payload(work)))
    reply["setup_s"] = reply["ready_at"] - launch
    return reply


def _setup_probe(work: Dict[str, Any]) -> float:
    launch = time.monotonic()
    reply = common.finish_child(common.start_child(
        "setup", _round_payload(work)))
    return reply["ready_at"] - launch


def expected(workload: str, seed: int, work: Dict[str, Any]
             ) -> Dict[str, Dict[str, Any]]:
    """Reference statistics per cell key: golden.json on the default
    seed, else direct in-process results from two child processes."""
    if seed == DEFAULT_SEED:
        with open(GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)[workload]
    return common.references(work["cells"], JOBS)


def record_golden() -> Dict[str, Any]:
    """golden.json's content: default-seed references of both
    workloads."""
    return {workload: common.references(
        plan(workload, DEFAULT_SEED)["cells"], JOBS)
        for workload in ("grid", "sampled")}


def _wrong(cells: List[Dict[str, Any]], work: Dict[str, Any],
           reference: Dict[str, Dict[str, Any]]) -> List[bool]:
    """Per cell: wrong against the reference, or breaking DCG's
    zero-performance-loss invariant (same cycles as ``base``)."""
    base_cycles = {cell["benchmark"]: cell["cycles"] for cell in cells
                   if cell["policy"] == "base"}
    flags = []
    for cell, spec in zip(cells, work["cells"]):
        wrong = reference.get(spec["key"]) != cell
        if cell["policy"] == "dcg" and cell["benchmark"] in base_cycles:
            wrong = wrong or cell["cycles"] != base_cycles[cell["benchmark"]]
        flags.append(wrong)
    return flags


def run_untraced(workload: str, seed: int, seconds: int
                 ) -> Dict[str, Any]:
    work = plan(workload, seed)
    rounds = []
    began = time.monotonic()
    while not rounds or time.monotonic() - began < seconds:
        rounds.append(_round(work))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(_setup_probe(work))
    reference = expected(workload, seed, work)

    # per round: instructions and cells of correct results per second
    # of body, and the median cell latency.  Medians over rounds shrug
    # off a round slowed by the host; half the cells are fast and half
    # slow, so a pooled p50 would sit between the slowest fast cell and
    # the fastest slow cell of the run and follow single outliers.
    attempted = failed = 0
    latencies = []
    instr_rates, cell_rates, p50s = [], [], []
    for r in rounds:
        flags = _wrong(r["cells"], work, reference)
        attempted += len(flags)
        failed += sum(flags)
        body = r["end"] - r["start"]
        done = {rep["key"]: rep["done"] for rep in r["reports"]}
        mine = [(done[spec["key"]] - r["start"]) * 1e3
                for spec, wrong in zip(work["cells"], flags) if not wrong]
        instr = sum(cell["instructions"] for cell, wrong
                    in zip(r["cells"], flags) if not wrong)
        instr_rates.append(instr / body)
        cell_rates.append(len(mine) / body)
        if mine:
            p50s.append(statistics.median(mine))
        latencies.extend(mine)
    if not latencies:
        raise RuntimeError("no cell was simulated correctly")
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "sim_instr_per_s": statistics.median(instr_rates),
            "req_p50_ms": statistics.median(p50s),
            "req_p95_ms": common.percentile(latencies, 0.95),
            "req_per_s": statistics.median(cell_rates),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "details": {"instructions": work["instructions"],
                    "sample": work["sample"], "rounds": len(rounds),
                    "setups_s": setups,
                    "round_seconds": [r["end"] - r["start"] for r in rounds],
                    "latency_samples": len(latencies),
                    "cells": rounds[0]["cells"]},
    }


def run_traced(workload: str, seed: int, spans: common.Spans
               ) -> Dict[str, Any]:
    """One untraced round for the overhead baseline, one traced round
    in this process (journal on, cache calls timed), then per-cell
    attribution; pool results must equal the in-process ones."""
    from repro.sim.cache import ResultCache, fingerprint, result_to_dict
    from repro.sim.configs import baseline_config
    from repro.sim.runner import ExperimentRunner
    from repro.workloads.profiles import get_profile
    work = plan(workload, seed)
    untraced = _round(work)
    untraced_rate = (sum(c["instructions"] for c in untraced["cells"])
                     / (untraced["end"] - untraced["start"]))

    os.environ["REPRO_LOG_DIR"] = common.fresh_dir("journal-")
    runner = ExperimentRunner(instructions=work["instructions"],
                              cache=ResultCache(common.fresh_dir("cache-")),
                              jobs=JOBS, sample=work["sample"])
    owner = {fingerprint(baseline_config(), get_profile(c["benchmark"]),
                         c["policy"], c["instructions"], runner.calibration,
                         c["seed"], sample=c["sample"]): c["key"]
             for c in work["cells"]}
    cache_acc = {name: common.timed_method(
        runner.cache, name, spans, f"sim.cache.{name}",
        lambda key, *_: owner.get(key, key)) for name in ("get", "put")}
    reports = []
    runner.progress = lambda report: reports.append(
        (report, time.perf_counter()))
    with spans.span("sim.runner.run_many", f"{workload}/s{seed}") as rec:
        pool_results = runner.run_many(work["requests"])
    del os.environ["REPRO_LOG_DIR"]
    start = rec["start"]
    wall = rec["end"] - start
    for report, done in reports:
        spans.add("sim.parallel.cell", common.spec_key(report.spec),
                  done - report.seconds, done, source=report.source)
    traced_rate = sum(r.instructions for r in pool_results) / wall
    busy = sum(report.seconds for report, _ in reports)

    if workload == "grid":
        attributed = layers.full_cells(work["cells"], spans)
    else:
        attributed = [layers.sampled_cell(cell, spans)
                      for cell in work["cells"]]
    by_key = {cell["key"]: cell for cell in attributed}
    pool = [common.summarize(result_to_dict(r)) for r in pool_results]
    reference = {spec["key"]: by_key[spec["key"]]["result"]
                 for spec in work["cells"]}
    flags = _wrong(pool, work, reference)
    if seed == DEFAULT_SEED:
        golden = expected(workload, seed, work)
        flags = [wrong or golden.get(spec["key"]) != reference[spec["key"]]
                 for wrong, spec in zip(flags, work["cells"])]
    return {
        "attempted": len(flags), "failed": sum(flags),
        "cells": attributed,
        "cache_get_s": cache_acc["get"]["seconds"],
        "cache_put_s": cache_acc["put"]["seconds"],
        "idle_frac": 1.0 - busy / (JOBS * wall),
        "traced_rate": traced_rate, "untraced_rate": untraced_rate,
    }
