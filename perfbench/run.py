"""Repository benchmark: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``.

Workloads (see README.md): ``grid`` and ``sampled``, which
BENCHMARK.json lists, and ``service``, which it leaves out while the
server returns stale results.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones (plus the service layers on ``service``); every output is
checked, and the last stdout line is one JSON object ``{correct,
attempted, failed, metrics}``.  A result file (with the host score)
and, for traced runs, a span file are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict

import common
import layers
import service
import simwork

WORKLOADS = ("grid", "sampled", "service")

END_TO_END_UNITS = {
    "setup_s": "s", "sim_instr_per_s": "1/s", "req_p50_ms": "ms",
    "req_p95_ms": "ms", "req_per_s": "1/s", "peak_rss_mb": "MB",
}


def _per_layer(traced: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics; 0 where the workload's path skips a layer.
    The service layers only exist on ``service``."""
    cells = traced["cells"]

    def total(layer: str, policy: str = None) -> float:
        return sum(c["layers"].get(layer, 0.0) for c in cells
                   if policy is None or c["policy"] == policy)

    results = [c["result"] for c in cells]
    core_s = total("core_s")
    core_cycles = sum(c.get("core_cycles", 0) for c in cells)
    metrics = {
        "workloads.gen_s": (total("gen_s"), "s"),
        "workloads.prewarm_s": (total("prewarm_s"), "s"),
        "pipeline.core_s": (core_s, "s"),
        "pipeline.ns_per_cycle": (core_s / core_cycles * 1e9
                                  if core_cycles else 0.0, "ns"),
        "core.dcg_s": (total("policy_s", "dcg"), "s"),
        "core.plb_s": (total("policy_s", "plb-ext"), "s"),
        "power.observe_s": (total("observe_s"), "s"),
        "memory.ff_s": (total("memory_ff_s"), "s"),
        "sim.sampling.ff_s": (total("ff_s"), "s"),
        "sim.sampling.window_s": (total("window_s"), "s"),
        "sim.parallel.idle_frac": (traced["idle_frac"], "fraction"),
        "sim.cache.get_s": (traced["cache_get_s"], "s"),
        "sim.cache.put_s": (traced["cache_put_s"], "s"),
        "trace.overhead_frac": (traced["untraced_rate"]
                                / traced["traced_rate"] - 1.0, "fraction"),
        "layers.sum_error_frac": (_sum_error(cells), "fraction"),
        "sim.cycles": (sum(r["sim_cycles"] for r in results), "count"),
        "sim.committed": (sum(r["sim_committed"] for r in results),
                          "count"),
        "core.dcg_toggles": (sum(r["fu_toggles"] for r in results),
                             "count"),
        "core.plb_mode6_cycles": (sum(r["mode_cycles"].get("6", 0)
                                      for r in results), "count"),
        "core.plb_mode4_cycles": (sum(r["mode_cycles"].get("4", 0)
                                      for r in results), "count"),
    }
    if "server_metrics" in traced:
        sources = dict({"run": 0, "memory": 0, "disk": 0},
                       **traced["sources"])
        server = traced["server_metrics"]
        metrics.update({
            "service.submit_ms": (traced["submit_ms"], "ms"),
            "service.wait_ms": (traced["wait_ms"], "ms"),
            "service.compute_s": (traced["compute_s"], "s"),
            "service.source_run": (sources["run"], "count"),
            "service.source_memory": (sources["memory"], "count"),
            "service.source_disk": (sources["disk"], "count"),
            "service.deduped": (server.get("deduped", 0), "count"),
            "service.rejected": (server.get("rejected", 0), "count"),
        })
    return metrics


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    if not args.trace:
        if args.workload == "service":
            out = service.run_untraced(args.seed, args.seconds)
        else:
            out = simwork.run_untraced(args.workload, args.seed,
                                       args.seconds)
        out["metrics"] = {name: (value, END_TO_END_UNITS[name])
                          for name, value in out["metrics"].items()}
        return out
    spans = common.Spans()
    if args.workload == "service":
        traced = service.run_traced(args.seed, spans)
    else:
        traced = simwork.run_traced(args.workload, args.seed, spans)
    spans.write(os.path.join(
        common.OUT, f"trace-{args.workload}-s{args.seed}.jsonl"))
    cells = traced["cells"]
    error = _sum_error(cells)
    return {"attempted": traced["attempted"], "failed": traced["failed"],
            "metrics": _per_layer(traced),
            "details": {
                "self_check": {
                    "tolerance": layers.SUM_TOLERANCE,
                    "sum_error": error,
                    "passed": error <= layers.SUM_TOLERANCE,
                    "replays_match": all(c["replay_matches"]
                                         for c in cells),
                    "cells": {c["key"]: {"layers": c["layers"],
                                         "layer_sum_s": c["layer_sum_s"],
                                         "cell_s": c["cell_s"]}
                              for c in cells}},
                "counts": {c["key"]: c["result"] for c in cells}}}


def _sum_error(cells) -> float:
    """|sum of layer times - untraced cell times| / untraced, over all
    attributed cells (the traced run's self-check)."""
    cell_s = sum(c["cell_s"] for c in cells)
    return abs(sum(c["layer_sum_s"] for c in cells) - cell_s) / cell_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from direct in-process "
                             "runs at the default seed, then exit")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    try:
        common.prepare_process()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.record_golden:
            with open(simwork.GOLDEN, "w", encoding="utf-8") as handle:
                json.dump(simwork.record_golden(), handle, indent=1,
                          sort_keys=True)
                handle.write("\n")
            return 0
        score = common.host_score()
        began = time.monotonic()
        out = _run(args)
        elapsed = time.monotonic() - began
    finally:
        common.remove_scratch()

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in out["metrics"].items()}
    attempted, failed = out["attempted"], out["failed"]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host_score_mops": score, "elapsed_s": elapsed,
              "correct": failed == 0, "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted,
              "metrics": metrics, "details": out.get("details", {})}
    os.makedirs(common.OUT, exist_ok=True)
    path = os.path.join(common.OUT, f"result-{args.workload}-s{args.seed}"
                                    f"-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"host_score {score:.2f} Mops/s  elapsed {elapsed:.1f} s")
    for name, metric in metrics.items():
        print(f"  {name:26s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':26s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} outputs wrong or failed)")
    if args.trace:
        check = report["details"]["self_check"]
        print(f"  layer-sum self-check: "
              f"{'pass' if check['passed'] else 'FAIL'} "
              f"({check['sum_error']:.1%} off, tolerance "
              f"{check['tolerance']:.0%}); replays match facade: "
              f"{check['replays_match']}")
    print(f"  result file {os.path.relpath(path, common.ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
