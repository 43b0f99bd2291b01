"""Command-line interface (``python -m repro``).

Subcommands
-----------
``run``      simulate one benchmark under one policy and print a summary
``compare``  run every policy on one benchmark, side by side
``figure``   regenerate one of the paper's tables/figures
``report``   regenerate every experiment and write EXPERIMENTS.md
``budget``   print the per-structure power budget of a configuration
``bench``    list the available benchmark profiles
``serve``    run the simulation service (job queue + HTTP API)
``gateway``  front N shard servers behind one consistent-hash router
``cache-tier``  serve a shared result cache all shards read/write
``drain``    ask a running service to stop accepting new work
``submit``   submit one run to a running service
``events``   tail or summarize a run journal (``REPRO_LOG_DIR``)

Every command except ``events`` runs inside a root ``cli.<command>``
span, so setting ``REPRO_LOG_DIR`` makes one invocation produce one
correlated trace across the CLI, the service, and worker subprocesses.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.experiments import (
    fig10_total_power,
    fig11_power_delay,
    fig12_int_units,
    fig13_fp_units,
    fig14_latches,
    fig15_dcache,
    fig16_result_bus,
    fig17_deep_pipeline,
    policy_comparison,
    sec44_int_alu_sweep,
)
from .analysis.report import write_experiments_md
from .power import BlockPowers
from .sim import (ExperimentRunner, Simulator, baseline_config,
                  deep_pipeline_config, default_jobs)
from .sim.parallel import RunReport
from .workloads import ALL_BENCHMARKS, SPEC2000

_FIGURES = {
    "table1": None,
    "sec4.4": sec44_int_alu_sweep,
    "fig10": fig10_total_power,
    "fig11": fig11_power_delay,
    "fig12": fig12_int_units,
    "fig13": fig13_fp_units,
    "fig14": fig14_latches,
    "fig15": fig15_dcache,
    "fig16": fig16_result_bus,
    "fig17": fig17_deep_pipeline,
}

_POLICIES = ("base", "dcg", "dcg-delayed-store", "dcg+iq",
              "plb-orig", "plb-ext")


def _positive_int(text: str) -> int:
    """argparse type for budgets/worker counts: integer >= 1.

    Rejecting non-positive values at the parser keeps them from ever
    reaching :class:`ExperimentRunner` (which would raise) or a worker
    pool (which would hang on zero workers)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})")
    return value


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="worker processes for the simulation grid "
                             "(default: $REPRO_JOBS or 1)")


def _add_server_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--server", default=None, metavar="URL",
                        help="route cache misses to a shared simulation "
                             "service (e.g. http://host:8765)")


def _add_sample_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sample", default=None, metavar="KxL",
                        help="interval sampling: cycle-simulate K windows "
                             "of L instructions (fast-forwarding "
                             "functionally between them) and report a "
                             "weighted aggregate with 95%% confidence "
                             "intervals, e.g. --sample 10x5000")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deterministic Clock Gating (HPCA 2003) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one benchmark")
    run.add_argument("benchmark", choices=sorted(ALL_BENCHMARKS))
    run.add_argument("--policy", choices=_POLICIES, default="dcg")
    run.add_argument("--instructions", type=_positive_int, default=10_000)
    run.add_argument("--deep", action="store_true",
                     help="use the 20-stage machine")
    _add_sample_flag(run)

    compare = sub.add_parser("compare", help="all policies on one benchmark")
    compare.add_argument("benchmark", choices=sorted(ALL_BENCHMARKS))
    compare.add_argument("--instructions", type=_positive_int,
                         default=10_000)
    _add_jobs_flag(compare)
    _add_server_flag(compare)
    _add_sample_flag(compare)

    figure = sub.add_parser("figure", help="regenerate a table/figure")
    figure.add_argument("id", choices=sorted(k for k, v in _FIGURES.items()
                                             if v is not None))
    figure.add_argument("--instructions", type=_positive_int, default=None)
    _add_jobs_flag(figure)
    _add_server_flag(figure)

    report = sub.add_parser("report", help="write EXPERIMENTS.md")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--instructions", type=_positive_int, default=None)
    _add_jobs_flag(report)
    _add_server_flag(report)

    budget = sub.add_parser("budget", help="print the power budget")
    budget.add_argument("--deep", action="store_true")

    sub.add_parser("bench", help="list benchmark profiles")

    serve = sub.add_parser(
        "serve", help="run the simulation service (queue + HTTP API)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker threads (default: $REPRO_JOBS or 2)")
    serve.add_argument("--queue-depth", type=_positive_int, default=64,
                       help="queued-job bound before 429 backpressure")
    serve.add_argument("--instructions", type=_positive_int, default=None,
                       help="default per-run budget for submitted jobs")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock limit; enables subprocess "
                            "isolation and one crash retry")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="directory for the crash-safe queue journal "
                            "(default: $REPRO_STATE_DIR); a restarted "
                            "server replays its outstanding jobs from it")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for mid-run simulation snapshots "
                            "(default: $REPRO_CHECKPOINT_DIR, else "
                            "<state-dir>/checkpoints when --state-dir is "
                            "set); long and sampled runs resume from "
                            "their last checkpoint after a crash/drain")
    serve.add_argument("--shard-of", default=None, metavar="LABEL",
                       help="federation shard label (e.g. shard0); "
                            "surfaces in /healthz and journal events so "
                            "a multi-node trace names the shard")
    serve.add_argument("--cache-tier", default=None, metavar="URL",
                       help="shared cache-tier URL (repro cache-tier); "
                            "replaces the local disk cache so results "
                            "dedup fleet-wide")

    gateway = sub.add_parser(
        "gateway",
        help="front N shard servers behind one consistent-hash router")
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=8700)
    gateway.add_argument("--shards", required=True, metavar="URLS",
                         help="comma-separated shard URLs "
                              "(e.g. http://h1:8765,http://h2:8765)")
    gateway.add_argument("--replicas", type=_positive_int, default=64,
                         help="virtual nodes per shard on the hash ring")
    gateway.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")

    cache_tier = sub.add_parser(
        "cache-tier",
        help="serve a shared result cache all shards read/write")
    cache_tier.add_argument("--host", default="127.0.0.1")
    cache_tier.add_argument("--port", type=int, default=8766)
    cache_tier.add_argument("--root", default=None, metavar="DIR",
                            help="cache directory "
                                 "(default: $REPRO_CACHE_DIR)")
    cache_tier.add_argument("--verbose", action="store_true",
                            help="log every HTTP request")

    drain = sub.add_parser(
        "drain", help="ask a running service to stop accepting new work")
    drain.add_argument("--server", default=None, metavar="URL",
                       help="service URL (default: $REPRO_SERVICE_URL or "
                            "http://127.0.0.1:8765)")

    submit = sub.add_parser(
        "submit", help="submit one run to a running service")
    submit.add_argument("benchmark", choices=sorted(ALL_BENCHMARKS))
    submit.add_argument("--policy", choices=_POLICIES, default="dcg")
    submit.add_argument("--tag", default="baseline",
                        help="machine configuration tag (see sim.configs)")
    submit.add_argument("--instructions", type=_positive_int, default=None)
    _add_sample_flag(submit)
    submit.add_argument("--server", default=None, metavar="URL",
                        help="service URL (default: $REPRO_SERVICE_URL or "
                             "http://127.0.0.1:8765)")
    submit.add_argument("--wait", action="store_true",
                        help="block for the result and print a summary")
    submit.add_argument("--timeout", type=float, default=300.0, metavar="S",
                        help="how long --wait waits before giving up")

    events = sub.add_parser(
        "events", help="inspect a run journal (events.jsonl)")
    events.add_argument("action", choices=("tail", "summarize"),
                        help="tail: last N events; summarize: aggregate "
                             "the whole journal")
    events.add_argument("journal", nargs="?", default=None,
                        help="journal path (default: "
                             "$REPRO_LOG_DIR/events.jsonl)")
    events.add_argument("-n", "--lines", type=_positive_int, default=20,
                        help="events shown by tail (default 20)")
    return parser


class _ProgressPrinter:
    """Per-run progress lines for grid commands (written to stderr)."""

    def __init__(self) -> None:
        self.completed = 0
        self.simulated = 0
        self.disk_hits = 0
        self.remote = 0

    def __call__(self, report: RunReport) -> None:
        self.completed += 1
        spec = report.spec
        where = f"{spec.benchmark}/{spec.policy}"
        if spec.tag != "baseline":
            where += f"@{spec.tag}"
        if report.source == "disk":
            self.disk_hits += 1
            detail = "cache hit (disk)"
        elif report.source == "remote":
            self.remote += 1
            if report.batch_size > 1:
                detail = (f"{report.seconds:6.2f}s  batch of "
                          f"{report.batch_size} served by remote service")
            else:
                detail = f"{report.seconds:6.2f}s  served by remote service"
        else:
            self.simulated += 1
            rate = report.instructions_per_second
            detail = (f"{report.seconds:6.2f}s  "
                      f"{rate / 1000.0:7.1f}k instr/s  cache miss")
        print(f"[{self.completed:4d}] {where:32s} {detail}",
              file=sys.stderr)

    def summary(self) -> str:
        line = (f"{self.completed} runs: {self.simulated} simulated, "
                f"{self.disk_hits} disk-cache hits")
        if self.remote:
            line += f", {self.remote} remote"
        return line


def _jobs_or_exit(args: argparse.Namespace, default: int = 1) -> int:
    """--jobs (argparse-validated) or $REPRO_JOBS, validated here.

    The environment variable bypasses argparse, so it gets the same
    positive-integer check at the CLI boundary instead of surfacing as
    a traceback from deep inside the pool."""
    if args.jobs is not None:
        return args.jobs
    try:
        return default_jobs(default)
    except ValueError:
        raise SystemExit(
            "REPRO_JOBS must be a positive integer "
            f"(got {os.environ.get('REPRO_JOBS')!r})") from None


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    """Runner for grid commands: --jobs / $REPRO_JOBS, progress, and
    an optional --server remote executor."""
    remote = None
    if getattr(args, "server", None):
        from .service.client import ServiceClient
        remote = ServiceClient(args.server)
    try:
        return ExperimentRunner(instructions=args.instructions,
                                jobs=_jobs_or_exit(args),
                                progress=_ProgressPrinter(), remote=remote,
                                sample=getattr(args, "sample", None))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = deep_pipeline_config() if args.deep else baseline_config()
    if args.sample:
        from .sim.sampling import SampledRun, SampleSpec
        try:
            SampleSpec.parse(args.sample).validate(args.instructions)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None

        def simulate(policy: str):
            return SampledRun(args.benchmark, policy, args.instructions,
                              args.sample, config=config).run()
    else:
        sim = Simulator(config)

        def simulate(policy: str):
            return sim.run_benchmark(args.benchmark, policy,
                                     instructions=args.instructions)

    base = simulate("base")
    # the baseline doubles as the result when it is the requested
    # policy — don't simulate the same run twice
    result = base if args.policy == "base" else simulate(args.policy)
    print(f"{args.benchmark} under {args.policy}: "
          f"{result.cycles} cycles, IPC {result.ipc:.2f}")
    if result.sample:
        print(f"sampled {result.sample}: {result.sampled_instructions} of "
              f"{result.instructions} instructions cycle-simulated")
    print(f"power: {result.average_power:.2f} W of "
          f"{result.base_power:.2f} W base "
          f"({result.total_saving:.1%} saved)")
    bounds = result.confidence.get("total_saving")
    if bounds and not any(b != b for b in bounds):   # NaN-free interval
        print(f"  saving 95% CI: [{bounds[0]:.1%}, {bounds[1]:.1%}] "
              "across windows")
    print(f"performance vs base: {result.performance_relative(base):.1%}")
    for family, saving in sorted(result.family_savings.items()):
        print(f"  {family:12s} {saving:6.1%}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # batched through the runner so compare shares the disk cache,
    # --jobs fan-out, and progress lines with figure/report
    runner = _make_runner(args)
    table = policy_comparison(runner, args.benchmark)
    print(runner.progress.summary(), file=sys.stderr)
    print(table.render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    result = _FIGURES[args.id](runner)
    print(runner.progress.summary(), file=sys.stderr)
    print(result.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import time
    runner = _make_runner(args)
    print(f"running the full grid at {runner.instructions} "
          f"instructions per run, {runner.jobs} job(s)...",
          file=sys.stderr)
    start = time.perf_counter()
    write_experiments_md(args.output, runner)
    elapsed = time.perf_counter() - start
    print(f"{runner.progress.summary()}, {elapsed:.1f}s wall-clock",
          file=sys.stderr)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    config = deep_pipeline_config() if args.deep else baseline_config()
    blocks = BlockPowers(config)
    label = "20-stage" if args.deep else "8-stage"
    print(f"{label} machine, {blocks.total:.1f} W total:")
    for name, watts in sorted(blocks.breakdown().items(),
                              key=lambda kv: -kv[1]):
        print(f"  {name:18s} {watts:6.2f} W  {watts / blocks.total:6.1%}")
    return 0


def _cmd_bench(_args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'suite':5s} {'branch':>7s} {'mem':>6s} "
          f"{'cold':>6s} notes")
    for name, profile in sorted(SPEC2000.items()):
        from .trace.uop import MEM_OP_CLASSES
        mem = sum(profile.mix.get(c, 0.0) for c in MEM_OP_CLASSES)
        note = ("miss-bound" if profile.cold_fraction >= 0.4 else
                "pointer-chasing" if profile.pointer_chase_fraction > 0.2
                else "")
        print(f"{name:10s} {profile.suite:5s} "
              f"{profile.branch_fraction:7.1%} {mem:6.1%} "
              f"{profile.cold_fraction:6.1%} {note}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .faults import get_plan
    from .service import CacheTierClient, SimulationService
    from .service.server import serve as serve_service
    workers = _jobs_or_exit(args, default=2)
    cache = CacheTierClient(args.cache_tier) if args.cache_tier else None
    service = SimulationService(instructions=args.instructions,
                                workers=workers,
                                queue_depth=args.queue_depth,
                                timeout=args.timeout,
                                cache=cache,
                                state_dir=args.state_dir,
                                shard_id=args.shard_of,
                                checkpoint_dir=args.checkpoint_dir)
    cache_note = service.runner.cache.root or "off (set REPRO_CACHE_DIR)"
    state_note = service.state_dir or "off (set REPRO_STATE_DIR)"
    ckpt_note = service.checkpoint_dir or "off"
    shard_note = f", shard {args.shard_of}" if args.shard_of else ""
    print(f"repro service on http://{args.host}:{args.port}  "
          f"[{workers} worker(s), queue depth {args.queue_depth}, "
          f"disk cache {cache_note}, state {state_note}, "
          f"checkpoints {ckpt_note}, "
          f"faults {get_plan().describe()}{shard_note}]", file=sys.stderr)
    if service.queue.restored:
        print(f"restored {service.queue.restored} outstanding job(s) "
              "from the queue journal", file=sys.stderr)
    accepted = serve_service(service, host=args.host, port=args.port,
                             verbose=args.verbose)
    counters = service.queue.counters()
    print(f"shutdown: {accepted} jobs accepted, {counters['done']} done, "
          f"{counters['failed']} failed, {counters['requeued']} re-queued, "
          f"{service.queue.depth} still queued", file=sys.stderr)
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    from .service.gateway import Gateway, serve_gateway
    shards = [url for url in
              (part.strip() for part in args.shards.split(","))
              if url]
    if not shards:
        raise SystemExit("--shards needs at least one URL")
    try:
        gateway = Gateway(shards, replicas=args.replicas)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"repro gateway on http://{args.host}:{args.port}  "
          f"[{len(shards)} shard(s): {', '.join(gateway.shards)}]",
          file=sys.stderr)
    serve_gateway(gateway, host=args.host, port=args.port,
                  verbose=args.verbose)
    metrics = gateway.metrics()["gateway"]
    print(f"shutdown: {sum(metrics['routed'].values())} jobs routed, "
          f"{metrics['failovers']} failover(s), "
          f"{metrics['lost_lookups']} lost lookup(s)", file=sys.stderr)
    return 0


def _cmd_cache_tier(args: argparse.Namespace) -> int:
    from .service.cachetier import CacheTierService, serve_cache_tier
    from .sim import ResultCache
    try:
        tier = CacheTierService(ResultCache(args.root))
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"repro cache tier on http://{args.host}:{args.port}  "
          f"[root {tier.cache.root}]", file=sys.stderr)
    serve_cache_tier(tier, host=args.host, port=args.port,
                     verbose=args.verbose)
    metrics = tier.metrics()
    print(f"shutdown: {metrics['hits']} hits, {metrics['misses']} misses, "
          f"{metrics['stores']} stores", file=sys.stderr)
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError
    client = ServiceClient(args.server)
    try:
        status = client.drain()
    except ServiceError as exc:
        raise SystemExit(f"drain failed: {exc}")
    print(f"{client.base_url} draining: {status['queued']} queued, "
          f"{status['running']} running, {status['done']} done, "
          f"{status['failed']} failed", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import (BackpressureError, JobFailed,
                                 ServiceClient, ServiceClosed, ServiceError)
    client = ServiceClient(args.server)
    fields = {"benchmark": args.benchmark, "policy": args.policy,
              "tag": args.tag}
    if args.instructions is not None:
        fields["instructions"] = args.instructions
    if args.sample is not None:
        fields["sample"] = args.sample
    deadline = args.timeout if args.wait else None
    try:
        job = client.submit_one(deadline_seconds=deadline, **fields)
    except ServiceClosed as exc:
        # draining is fatal for this server: retrying cannot succeed
        raise SystemExit(f"server is draining, not retrying: {exc}")
    except BackpressureError as exc:
        raise SystemExit(f"server queue is full, retry later: {exc}")
    except ServiceError as exc:
        raise SystemExit(f"submit failed: {exc}")
    verb = "joined in-flight" if job.get("deduped") else "queued as"
    print(f"{args.benchmark}/{args.policy} {verb} job {job['id']}",
          file=sys.stderr)
    if not args.wait:
        print(job["id"])
        return 0
    try:
        result = client.result(job["id"], timeout=args.timeout)
    except JobFailed as exc:
        # surface the worker-side traceback the failure payload carries
        trace = exc.payload.get("job", {}).get("traceback")
        if trace:
            print(trace.rstrip("\n"), file=sys.stderr)
        raise SystemExit(f"job {job['id']} failed: {exc}")
    except ServiceError as exc:
        raise SystemExit(f"job {job['id']}: {exc}")
    print(f"{result.benchmark} under {result.policy}: "
          f"{result.cycles} cycles, IPC {result.ipc:.2f}")
    print(f"power: {result.average_power:.2f} W of "
          f"{result.base_power:.2f} W base "
          f"({result.total_saving:.1%} saved)")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    from .obs import (format_event_line, format_summary,
                      journal_path_from_env, summarize_journal, tail_events)
    journal = args.journal or journal_path_from_env()
    if journal is None:
        raise SystemExit("no journal given and REPRO_LOG_DIR is not set")
    if not os.path.exists(journal):
        raise SystemExit(f"no journal at {journal}")
    if args.action == "tail":
        for event in tail_events(journal, args.lines):
            print(format_event_line(event))
        return 0
    print(format_summary(summarize_journal(journal)))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "report": _cmd_report,
    "budget": _cmd_budget,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "gateway": _cmd_gateway,
    "cache-tier": _cmd_cache_tier,
    "drain": _cmd_drain,
    "submit": _cmd_submit,
    "events": _cmd_events,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "events":
        # reading a journal must not append to it
        return _COMMANDS[args.command](args)
    from .obs import span
    with span(f"cli.{args.command}"):
        return _COMMANDS[args.command](args)


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
