"""Child-process entry points of the benchmark.

``python3 perfbench/child.py <mode>`` reads one JSON payload on stdin
and, except for ``server``, prints one JSON line on stdout:

``setup``      import the package and build an ``ExperimentRunner``
``round``      the same, then one cold ``run_many`` batch
``reference``  direct in-process ``Simulator``/``SampledRun`` results
``server``     the simulation service with ``ResultCache`` timed
               (traced service runs); writes its spans on shutdown
"""

from __future__ import annotations

import json
import sys
import time

import common


def _ready_runner(payload):
    from repro.sim.cache import ResultCache
    from repro.sim.runner import ExperimentRunner
    runner = ExperimentRunner(instructions=payload["instructions"],
                              cache=ResultCache(payload["cache_dir"]),
                              jobs=payload["jobs"],
                              sample=payload.get("sample"))
    return runner, time.monotonic()


def setup(payload):
    _runner, ready_at = _ready_runner(payload)
    return {"ready_at": ready_at}


def round_(payload):
    from repro.sim.cache import result_to_dict
    runner, ready_at = _ready_runner(payload)
    reports = []

    def progress(report):
        reports.append({"key": common.spec_key(report.spec),
                        "seconds": report.seconds, "source": report.source,
                        "done": time.perf_counter()})

    runner.progress = progress
    requests = [tuple(request) for request in payload["requests"]]
    start = time.perf_counter()
    results = runner.run_many(requests)
    end = time.perf_counter()
    return {"ready_at": ready_at, "start": start, "end": end,
            "cells": [common.summarize(result_to_dict(result))
                      for result in results],
            "reports": reports}


def reference(payload):
    from repro.sim.cache import result_to_dict
    cells = []
    for cell in payload["cells"]:
        cells.append(dict(common.summarize(result_to_dict(
            direct_result(cell))), key=cell_id(cell)))
    return {"cells": cells}


def cell_id(cell):
    return common.cell_key(cell["benchmark"], cell["policy"],
                           cell["instructions"], cell["seed"],
                           cell.get("sample"))


def direct_result(cell):
    """One cell simulated in-process without runner, pool or cache."""
    if cell.get("sample"):
        from repro.sim.sampling import SampledRun
        return SampledRun(cell["benchmark"], cell["policy"],
                          cell["instructions"], cell["sample"],
                          seed=cell["seed"]).run()
    from repro.sim.simulator import Simulator
    return Simulator().run_benchmark(cell["benchmark"], cell["policy"],
                                     instructions=cell["instructions"],
                                     seed=cell["seed"])


def server(payload):
    """``repro serve --jobs 1`` with the result cache's calls timed.

    Each ``get``/``put`` is recorded as a span under the trace id the
    client sent with the request, so it joins that request's spans.
    """
    from repro.obs.tracing import current_context
    from repro.service.server import SimulationService, serve

    spans = common.Spans()
    service = SimulationService(workers=1)

    def trace_id(*_args):
        context = current_context()
        return context.trace_id if context else ""

    for name in ("get", "put"):
        common.timed_method(service.runner.cache, name, spans,
                            f"sim.cache.{name}", trace_id)
    try:
        serve(service, port=payload["port"])
    finally:
        spans.write(payload["spans_path"])


MODES = {"setup": setup, "round": round_, "reference": reference,
         "server": server}


def main() -> int:
    mode = sys.argv[1]
    payload = json.loads(sys.stdin.read())
    common.prepare_process(hermetic=False)
    reply = MODES[mode](payload)
    if reply is not None:
        sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
