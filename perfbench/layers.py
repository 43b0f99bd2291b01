"""Per-layer attribution for traced runs, in the benchmark's process.

Full runs are split by subtraction on a materialized trace, because
timing inside the cycle loop would need a hook in it: the same trace
is replayed through the cycle core alone (no gating, no observers),
then with the power accountant attached, then with each gating
policy bound; trace generation and ``prewarm`` are timed as direct
calls.  The facade (``Simulator.run_benchmark``) is timed untraced on
the same cell; over a run's cells the layers must add up to it
within :data:`SUM_TOLERANCE`.

Sampled runs are split into generation, ``prewarm``, fast-forward and
windows: ``SampledRun.run_window`` is timed per window, and a plan
with one-instruction windows ("Kx1") times the fast-forward alone.
Their sum (construction + windows + aggregation) is checked against
an untraced ``SampledRun.run()`` of the same cell.
"""

from __future__ import annotations

import gc
import math
import time
from collections import deque
from itertools import islice
from typing import Any, Dict, List, Sequence

import common

#: |sum of layer times - untraced cell time| / untraced cell time,
#: summed over a run's cells
SUM_TOLERANCE = 0.15

#: replays per step of a full-run cell; each step's fastest is kept
REPEATS = 3

#: repeats of a sampled cell's traced and untraced runs (seconds each)
SAMPLED_REPEATS = 3


class _Replay:
    """One materialized trace replayed with pieces added in turn."""

    def __init__(self, benchmark: str, instructions: int, seed: int,
                 spans: common.Spans, ident: str) -> None:
        from repro.pipeline.arraycore import ArrayPipeline
        from repro.pipeline.core import Pipeline
        from repro.sim.simulator import Simulator, resolve_backend
        from repro.trace.stream import materialize
        from repro.workloads.profiles import get_profile
        from repro.workloads.synthetic import SyntheticTraceGenerator
        self.profile = get_profile(benchmark)
        self.instructions = instructions
        self.seed = seed
        self.spans = spans
        self.ident = ident
        self.simulator = Simulator()
        # the facade's own default, so a change of default shows here
        self.core = (ArrayPipeline if resolve_backend() == "array"
                     else Pipeline)
        with spans.span("workloads.gen", ident) as record:
            generator = SyntheticTraceGenerator(self.profile, seed=seed)
            self.ops = materialize(iter(generator), instructions)
        self.gen_s = record["end"] - record["start"]

    def step(self, policy: str, observe: bool):
        """(core+observer+policy seconds, prewarm seconds, result)."""
        from repro.power.accounting import PowerAccountant
        from repro.sim.simulator import build_result, make_policy
        from repro.trace.stream import TraceStream
        from repro.workloads.synthetic import SyntheticTraceGenerator
        warmer = SyntheticTraceGenerator(self.profile, seed=self.seed)
        gc.collect()
        name = f"replay.{policy}{'+observe' if observe else ''}"
        with self.spans.span(name, self.ident):
            start = time.perf_counter()
            policy_obj = make_policy(policy)
            pipeline = self.core(self.simulator.config,
                                 TraceStream(self.ops,
                                             limit=self.instructions),
                                 policy_obj)
            built = time.perf_counter()
            with self.spans.span("workloads.prewarm", self.ident):
                warmer.prewarm(pipeline.hierarchy)
            warmed = time.perf_counter()
            accountant = None
            if observe:
                accountant = PowerAccountant(self.simulator.blocks)
                pipeline.add_observer(accountant.observe)
            stats = pipeline.run(max_instructions=self.instructions)
            end = time.perf_counter()
        result = (build_result(self.profile.name, policy_obj, accountant,
                               stats) if accountant else None)
        return (built - start) + (end - warmed), warmed - built, \
            stats, result

    def facade(self, policy: str):
        ident = common.cell_key(self.profile.name, policy,
                                self.instructions, self.seed)
        gc.collect()
        with self.spans.span("facade.run_benchmark", ident) as record:
            result = self.simulator.run_benchmark(
                self.profile.name, policy, instructions=self.instructions,
                seed=self.seed)
        return record["end"] - record["start"], result


def full_cells(cells: Sequence[Dict[str, Any]], spans: common.Spans
               ) -> List[Dict[str, Any]]:
    """Layer times for full-run cells ``{benchmark, policy,
    instructions, seed}``; cells sharing a trace share its replays."""
    from repro.sim.cache import result_to_dict
    groups: Dict[tuple, List[str]] = {}
    for cell in cells:
        key = (cell["benchmark"], cell["instructions"], cell["seed"])
        groups.setdefault(key, [])
        if cell["policy"] not in groups[key]:
            groups[key].append(cell["policy"])
    out = []
    for (benchmark, instructions, seed), policies in groups.items():
        ident = common.cell_key(benchmark, "*", instructions, seed)
        replay = _Replay(benchmark, instructions, seed, spans, ident)
        best: Dict[str, float] = {}
        prewarm = math.inf
        cycles = 0
        replayed: Dict[str, Any] = {}
        facade: Dict[str, Any] = {}

        def keep(name: str, seconds: float) -> None:
            best[name] = min(best.get(name, math.inf), seconds)

        # the materialized trace stays alive through every step; freeze
        # it so the collector does not rescan it (the facade never
        # holds a whole trace)
        gc.collect()
        gc.freeze()
        # interleave the steps so host noise hits each of them alike
        for _ in range(REPEATS):
            seconds, warm, stats, _ = replay.step("base", observe=False)
            keep("core", seconds)
            prewarm = min(prewarm, warm)
            cycles = stats.cycles
            seconds, _, _, result = replay.step("base", observe=True)
            keep("observe", seconds)
            replayed["base"] = result
            for policy in policies:
                if policy != "base":
                    seconds, _, _, result = replay.step(policy, True)
                    keep(policy, seconds)
                    replayed[policy] = result
                seconds, facade[policy] = replay.facade(policy)
                keep("facade:" + policy, seconds)
        gc.unfreeze()
        for policy in policies:
            policy_s = (best[policy] - best["observe"]
                        if policy != "base" else 0.0)
            layers = {"gen_s": replay.gen_s, "prewarm_s": prewarm,
                      "core_s": best["core"],
                      "observe_s": best["observe"] - best["core"],
                      "policy_s": policy_s}
            cell_s = best["facade:" + policy]
            total = sum(layers.values())
            facade_dict = result_to_dict(facade[policy])
            out.append({
                "key": common.cell_key(benchmark, policy, instructions,
                                       seed),
                "benchmark": benchmark, "policy": policy,
                "layers": layers, "core_cycles": cycles,
                "cell_s": cell_s, "layer_sum_s": total,
                # the replay must simulate exactly what the facade did
                "replay_matches": (common.digest(result_to_dict(
                    replayed[policy])) == common.digest(facade_dict)),
                "result": common.summarize(facade_dict)})
    return out


def sampled_cell(cell: Dict[str, Any], spans: common.Spans
                 ) -> Dict[str, Any]:
    """Layer times for one sampled cell ``{benchmark, policy,
    instructions, seed, sample}``."""
    from repro.memory.hierarchy import CacheHierarchy
    from repro.sim.cache import result_to_dict
    from repro.sim.configs import baseline_config
    from repro.sim.sampling import SampledRun, SampleSpec
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import SyntheticTraceGenerator
    benchmark, policy = cell["benchmark"], cell["policy"]
    instructions, seed = cell["instructions"], cell["seed"]
    plan = SampleSpec.parse(cell["sample"])
    ident = common.cell_key(benchmark, policy, instructions, seed,
                            cell["sample"])
    profile = get_profile(benchmark)

    with spans.span("workloads.gen", ident) as record:
        generator = SyntheticTraceGenerator(profile, seed=seed)
        deque(islice(iter(generator), instructions), maxlen=0)
    gen_s = record["end"] - record["start"]
    with spans.span("workloads.prewarm", ident) as record:
        generator.prewarm(CacheHierarchy(baseline_config().hierarchy))
    prewarm_s = record["end"] - record["start"]

    def make(sample: str) -> SampledRun:
        return SampledRun(benchmark, policy, instructions, sample,
                          seed=seed)

    # time spent inside the memory and predictor calls of a
    # fast-forward; the wrappers slow it, so it is timed apart
    ff_plan = f"{plan.windows}x1"
    wrapped = make(ff_plan)
    accs = []
    for owner, names in ((wrapped.hierarchy, ("fetch", "load", "store")),
                         (wrapped.predictor, ("predict", "resolve"))):
        for name in names:
            # millions of calls: accumulate, no span per call
            accs.append(common.timed_method(owner, name, None, "", None))
    wrapped.run()
    del wrapped      # live simulator state slows later runs' collections
    memory_calls_s = sum(acc["seconds"] for acc in accs)
    # the one-instruction-window plan fast-forwards all but K
    # instructions; scale it to the real plan's fast-forward length
    scale = ((instructions - plan.measured)
             / (instructions - plan.windows))

    best = {"ff": math.inf, "construct": math.inf, "windows": math.inf,
            "aggregate": math.inf, "cell": math.inf}
    results = {}

    def keep(name: str, record: Dict[str, Any]) -> None:
        best[name] = min(best[name], record["end"] - record["start"])

    def fast_forward() -> None:
        with spans.span("sim.sampling.fast_forward", ident) as record:
            make(ff_plan).run()
        keep("ff", record)

    def traced() -> None:
        with spans.span("sim.sampling.construct", ident) as record:
            run = make(cell["sample"])
        keep("construct", record)
        windows_s = 0.0
        for index in range(plan.windows):
            with spans.span("sim.sampling.run_window", ident,
                            window=index) as record:
                run.run_window()
            windows_s += record["end"] - record["start"]
        best["windows"] = min(best["windows"], windows_s)
        with spans.span("sim.sampling.aggregate", ident) as record:
            results["traced"] = result_to_dict(run.result())
        keep("aggregate", record)

    def untraced() -> None:
        with spans.span("facade.sampled_run", ident) as record:
            results["untraced"] = result_to_dict(make(cell["sample"]).run())
        keep("cell", record)

    gc.collect()
    fast_forward()
    # the order flips each repeat, so neither side always runs first
    for repeat in range(SAMPLED_REPEATS):
        for step in ((traced, untraced) if repeat % 2 == 0
                     else (untraced, traced)):
            gc.collect()
            step()

    ff_s = best["ff"] * scale
    layers = {"gen_s": gen_s, "prewarm_s": prewarm_s,
              "ff_s": ff_s, "memory_ff_s": memory_calls_s * scale,
              "window_s": best["windows"] - ff_s}
    total = best["construct"] + best["windows"] + best["aggregate"]
    return {"key": ident, "benchmark": benchmark, "policy": policy,
            "layers": layers, "cell_s": best["cell"],
            "layer_sum_s": total,
            "replay_matches": (common.digest(results["traced"])
                               == common.digest(results["untraced"])),
            "result": common.summarize(results["traced"])}
