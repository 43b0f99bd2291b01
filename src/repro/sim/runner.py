"""Experiment runner with in-memory and on-disk result caching.

Every figure in §5 is computed from the same small set of
(machine-config, benchmark, policy) simulations; the runner memoises
them in-process so the per-figure harnesses in :mod:`repro.analysis`
can be run in any order without re-simulating, persists them through a
:class:`~repro.sim.cache.ResultCache` so later *processes* don't
re-simulate either, and fans grid batches out across worker processes
via :func:`~repro.sim.parallel.execute_specs`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.interface import GatingPolicy
from ..obs.events import get_journal
from ..power.budget import PowerCalibration
from .cache import ResultCache
from .configs import config_from_tag, default_instructions
from .parallel import (ProgressFn, RunReport, RunSpec, execute_specs,
                       simulate_spec)
from .simulator import BUILTIN_POLICIES, SimulationResult, Simulator

__all__ = ["ExperimentRunner"]

#: (benchmark, policy) or (benchmark, policy, tag) — the loose request
#: form accepted by :meth:`ExperimentRunner.run_many` / ``prefetch``
Request = Union[Tuple[str, str], Tuple[str, str, str]]


class ExperimentRunner:
    """Memoising, disk-backed, optionally parallel façade over
    :class:`Simulator`.

    Parameters
    ----------
    instructions:
        Per-run instruction budget (defaults to
        :func:`~repro.sim.configs.default_instructions`, which honours
        ``REPRO_SIM_INSTRUCTIONS``); must be positive when given.
    calibration:
        Power calibration shared by all configurations.
    cache:
        On-disk result cache; defaults to a :class:`ResultCache` rooted
        at ``$REPRO_CACHE_DIR`` (disabled when the variable is unset).
    jobs:
        Worker processes for :meth:`run_many`/:meth:`prefetch` batches
        (single :meth:`run` calls are always in-process).
    progress:
        Callback receiving a :class:`~repro.sim.parallel.RunReport` per
        completed lookup or simulation; the CLI uses it for per-run
        timing and cache hit/miss lines.
    remote:
        Remote executor — any object with
        ``run_specs(specs) -> List[SimulationResult]`` (a
        :class:`~repro.service.client.ServiceClient`).  When set, cache
        misses are submitted to a shared simulation server instead of
        simulated in-process; hits are still answered locally.
    sample:
        Optional "KxL" interval-sampling plan applied to every run this
        runner issues (see :mod:`repro.sim.sampling`).  Sampled results
        are cached under their own fingerprints, so sampled and full
        studies never alias each other.
    """

    def __init__(self, instructions: Optional[int] = None,
                 calibration: Optional[PowerCalibration] = None,
                 cache: Optional[ResultCache] = None,
                 jobs: int = 1,
                 progress: Optional[ProgressFn] = None,
                 remote: Optional[object] = None,
                 sample: Optional[str] = None) -> None:
        if instructions is None:
            instructions = default_instructions()
        elif instructions <= 0:
            raise ValueError("instructions must be positive")
        self.instructions = instructions
        self.calibration = calibration or PowerCalibration()
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = jobs
        self.progress = progress
        self.remote = remote
        if sample is not None:
            from .sampling import SampleSpec
            SampleSpec.parse(sample).validate(self.instructions)
        self.sample = sample
        self._simulators: Dict[str, Simulator] = {}
        #: the one result memo, keyed by the exact spec (budget, seed
        #: and sample plan included), so a lookup can only ever answer
        #: the run that was asked for
        self._memo: Dict[RunSpec, SimulationResult] = {}

    # -- configurations ---------------------------------------------------

    def simulator(self, tag: str = "baseline") -> Simulator:
        if tag not in self._simulators:
            self._simulators[tag] = Simulator(
                config_from_tag(tag), self.calibration)
        return self._simulators[tag]

    # -- cache plumbing ---------------------------------------------------

    def _spec(self, benchmark: str, policy: str, tag: str) -> RunSpec:
        """This runner's spec for one grid cell."""
        return RunSpec.resolve(benchmark, policy, tag, self.instructions,
                               sample=self.sample)

    def _report(self, spec: RunSpec, seconds: float, source: str,
                batch_size: int = 1) -> None:
        if self.progress is not None:
            self.progress(RunReport(spec, seconds, source, batch_size))

    @staticmethod
    def _emit_cache(kind: str, spec: RunSpec,
                    layer: Optional[str] = None) -> None:
        """``cache.hit``/``cache.miss`` journal event for one lookup."""
        get_journal().emit(kind, layer=layer, benchmark=spec.benchmark,
                           policy=spec.policy, tag=spec.tag)

    def _lookup(self, spec: RunSpec, disk: bool = True
                ) -> Optional[Tuple[SimulationResult, str]]:
        """Memory-then-disk lookup of exactly ``spec``.

        Returns ``(result, source)`` with source ``"memory"`` or
        ``"disk"`` (disk hits are promoted into memory and reported to
        ``progress``; memory hits are free and stay silent), or None on
        a miss.  ``disk=False`` consults memory only, for factory runs
        whose configuration no fingerprint can see.
        """
        result = self._memo.get(spec)
        if result is not None:
            if get_journal().enabled:
                self._emit_cache("cache.hit", spec, "memory")
            return result, "memory"
        if not disk:
            return None
        result = self.cache.get(spec.key(self.calibration))
        if result is None:
            self._emit_cache("cache.miss", spec)
            return None
        self._memo[spec] = result
        self._emit_cache("cache.hit", spec, "disk")
        self._report(spec, 0.0, "disk")
        return result, "disk"

    def cached_spec(self, spec: RunSpec
                    ) -> Optional[Tuple[SimulationResult, str]]:
        """Memory-then-disk lookup of exactly ``spec``, whatever its
        budget, seed or sample plan, without simulating.

        The service's worker pool — which serves specs of any budget —
        asks through here, so it never answers one request with
        another's result.
        """
        return self._lookup(spec)

    def memoise_spec(self, spec: RunSpec, result: SimulationResult) -> None:
        """Record a computed result in memory and on disk under the
        spec (see :meth:`cached_spec`)."""
        self._memo[spec] = result
        self.cache.put(spec.key(self.calibration), result)

    def _execute(self, specs: Sequence[RunSpec],
                 jobs: int) -> List[SimulationResult]:
        """Simulate cache misses: remote server if bound, else local."""
        if self.remote is not None:
            start = time.perf_counter()
            results = self.remote.run_specs(specs)
            elapsed = time.perf_counter() - start
            # one round-trip served the whole batch: report the batch
            # total with its size, not a fabricated per-spec average
            batch = len(specs)
            for spec in specs:
                self._report(spec, elapsed, "remote", batch_size=batch)
            return results
        return execute_specs(specs, self.calibration, jobs=jobs,
                             progress=self.progress)

    # -- runs -------------------------------------------------------------

    def run(self, benchmark: str, policy: str = "base",
            tag: str = "baseline",
            policy_factory: Optional[Callable[[], GatingPolicy]] = None
            ) -> SimulationResult:
        """Cached simulation of ``benchmark`` under ``policy``.

        ``policy`` is the cache key; pass ``policy_factory`` to run a
        custom-configured policy object under a distinct name (ablation
        studies do this).  Rebinding a built-in policy name to a custom
        factory is rejected — it would poison every cached figure that
        shares the key.  Factory runs stay out of the disk cache: a
        fingerprint cannot see a closure's configuration.
        """
        if policy_factory is not None and policy in BUILTIN_POLICIES:
            raise ValueError(
                f"policy name {policy!r} is reserved for the built-in "
                "policy; run a custom factory under a distinct name")
        spec = self._spec(benchmark, policy, tag)
        hit = self._lookup(spec, disk=policy_factory is None)
        if hit is not None:
            return hit[0]
        if self.remote is not None and policy_factory is None:
            result = self._execute([spec], jobs=1)[0]
            self.memoise_spec(spec, result)
            return result
        sim = self.simulator(tag)
        start = time.perf_counter()
        if policy_factory is None:
            # simulate_spec is the instrumented sim chokepoint (span +
            # sim.* journal events); it runs the same simulator object
            result = simulate_spec(spec, simulator=sim)
        else:
            result = sim.run_benchmark(benchmark, policy_factory(),
                                       instructions=self.instructions,
                                       seed=spec.seed)
        self._report(spec, time.perf_counter() - start, "run")
        if policy_factory is None:
            self.memoise_spec(spec, result)
        else:
            self._memo[spec] = result
        return result

    # -- batched runs -----------------------------------------------------

    @staticmethod
    def _normalise(request: Request) -> Tuple[str, str, str]:
        if len(request) == 2:
            benchmark, policy = request  # type: ignore[misc]
            return benchmark, policy, "baseline"
        benchmark, policy, tag = request  # type: ignore[misc]
        return benchmark, policy, tag

    def run_many(self, requests: Sequence[Request],
                 jobs: Optional[int] = None) -> List[SimulationResult]:
        """Results for a whole batch, simulating only the misses.

        Memory hits are returned as-is, disk hits are loaded, and the
        remaining runs are fanned out across ``jobs`` worker processes
        (``self.jobs`` by default, serial when 1).  Results come back
        in request order regardless of worker scheduling; a request
        repeated within the batch is looked up and simulated once.
        """
        jobs = self.jobs if jobs is None else jobs
        specs = [self._spec(*self._normalise(r)) for r in requests]
        misses = [spec for spec in dict.fromkeys(specs)
                  if self._lookup(spec) is None]
        if misses:
            for spec, result in zip(misses,
                                    self._execute(misses, jobs=jobs)):
                self.memoise_spec(spec, result)
        return [self._memo[spec] for spec in specs]

    def prefetch(self, requests: Sequence[Request],
                 jobs: Optional[int] = None) -> None:
        """Warm the cache for a batch; later :meth:`run` calls all hit."""
        self.run_many(requests, jobs=jobs)

    # -- named shortcuts --------------------------------------------------

    def base(self, benchmark: str, tag: str = "baseline") -> SimulationResult:
        return self.run(benchmark, "base", tag)

    def dcg(self, benchmark: str, tag: str = "baseline") -> SimulationResult:
        return self.run(benchmark, "dcg", tag)

    def plb_orig(self, benchmark: str,
                 tag: str = "baseline") -> SimulationResult:
        return self.run(benchmark, "plb-orig", tag)

    def plb_ext(self, benchmark: str,
                tag: str = "baseline") -> SimulationResult:
        return self.run(benchmark, "plb-ext", tag)
