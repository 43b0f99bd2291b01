"""High-level simulation facade.

:class:`Simulator` wires together a workload, the timing pipeline, a
gating policy, and the power accountant, and returns a single
:class:`SimulationResult` carrying both performance and power numbers —
everything §5's figures are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

from ..core.dcg import DCGPolicy
from ..core.interface import GatingPolicy, NoGatingPolicy
from ..core.plb import PLBPolicy
from ..frontend.branch_predictor import BranchPredictor
from ..memory.hierarchy import CacheHierarchy
from ..pipeline.arraycore import ArrayPipeline
from ..pipeline.config import MachineConfig
from ..pipeline.stats import SimStats
from ..power.accounting import PowerAccountant
from ..power.budget import BlockPowers, PowerCalibration
from ..trace.stream import TraceStream
from ..trace.uop import MicroOp
from ..workloads.profiles import BenchmarkProfile, get_profile
from ..workloads.synthetic import SyntheticTraceGenerator
from .configs import baseline_config, default_instructions

__all__ = ["SimulationResult", "Simulator", "assemble", "build_result",
           "make_policy", "BUILTIN_POLICIES", "resolve_backend"]


def resolve_backend() -> str:
    """Name of the cycle core every run uses.

    There is one production core; this stays because the repository
    benchmark (``perfbench/layers.py``) reads it to pick the core it
    replays traces through.
    """
    return "array"


#: policy names :func:`make_policy` understands; these are reserved as
#: cache keys and may not be rebound to custom policy factories
BUILTIN_POLICIES = ("base", "dcg", "dcg-delayed-store", "dcg+iq",
                    "plb-orig", "plb-ext")


@dataclass
class SimulationResult:
    """Outcome of one (workload, policy) simulation."""

    benchmark: str
    policy: str
    instructions: int
    cycles: int
    ipc: float
    base_power: float              #: watts of the no-gating machine
    average_power: float           #: watts under the policy
    total_saving: float            #: fraction of total power saved
    family_savings: Dict[str, float] = field(default_factory=dict)
    stats: Optional[SimStats] = None
    mode_cycles: Dict[int, int] = field(default_factory=dict)  #: PLB only
    fu_toggles: int = 0                                        #: DCG only
    #: "KxL" when this result is a sampled-run aggregate, else None
    sample: Optional[str] = None
    #: instructions actually cycle-simulated (== ``instructions`` for a
    #: full run; K*L for a sampled one)
    sampled_instructions: int = 0
    #: per-metric 95% confidence intervals across sample windows,
    #: e.g. ``{"total_saving": (lo, hi)}``; empty for full runs
    confidence: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def power_delay(self) -> float:
        """Average power x cycle count (relative units)."""
        return self.average_power * self.cycles

    def power_delay_saving(self, base: "SimulationResult") -> float:
        """Power-delay saving vs a base run (Fig 11's metric)."""
        base_pd = base.base_power * base.cycles
        return 1.0 - self.power_delay / base_pd

    def performance_relative(self, base: "SimulationResult") -> float:
        """This run's performance as a fraction of the base run's."""
        return base.cycles / self.cycles if self.cycles else 0.0


def build_result(name: str, policy_obj: GatingPolicy,
                 accountant: PowerAccountant,
                 stats: SimStats) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a finished pipeline.

    Shared by :class:`Simulator`, the checkpointable
    :class:`~repro.sim.checkpoint.PausableRun`, and the per-window
    results of :class:`~repro.sim.sampling.SampledRun`, so all three
    produce byte-identical results from identical pipeline state.
    """
    family_savings = {
        fam: accountant.family_saving(fam)
        for fam in accountant.families}
    family_savings["exec_units"] = accountant.exec_units_saving()
    result = SimulationResult(
        benchmark=name,
        policy=policy_obj.name,
        instructions=stats.committed,
        cycles=stats.cycles,
        ipc=stats.ipc,
        base_power=accountant.base_power,
        average_power=accountant.average_power,
        total_saving=accountant.total_saving_fraction,
        family_savings=family_savings,
        stats=stats,
    )
    if isinstance(policy_obj, PLBPolicy):
        result.mode_cycles = dict(policy_obj.mode_cycles)
    if isinstance(policy_obj, DCGPolicy):
        result.fu_toggles = policy_obj.toggle_count
    return result


def assemble(config: MachineConfig, stream: TraceStream,
             policy: GatingPolicy, blocks: BlockPowers, *,
             hierarchy: Optional[CacheHierarchy] = None,
             predictor: Optional[BranchPredictor] = None,
             prewarm_source: Optional[SyntheticTraceGenerator] = None
             ) -> Tuple[ArrayPipeline, PowerAccountant]:
    """Wire one run: the cycle core, its prewarm, and the §4.2 power
    accountant observing every cycle.

    :class:`Simulator`, :class:`~repro.sim.checkpoint.PausableRun` and
    each window of :class:`~repro.sim.sampling.SampledRun` all build
    their runs here, so they step the same core wired the same way.
    ``hierarchy``/``predictor`` inject warmed state (sampling shares
    them across windows); ``prewarm_source`` installs a generator's
    working set into the core's caches before cycle 0.
    """
    pipeline = ArrayPipeline(config, stream, policy, hierarchy=hierarchy,
                             predictor=predictor)
    if prewarm_source is not None:
        prewarm_source.prewarm(pipeline.hierarchy)
    accountant = PowerAccountant(blocks)
    pipeline.add_observer(accountant.observe)
    return pipeline, accountant


def make_policy(name: str) -> GatingPolicy:
    """Policy factory: ``base``, ``dcg``, ``dcg-delayed-store``,
    ``dcg+iq`` (DCG composed with [6]'s deterministic issue-queue
    gating), ``plb-orig``, ``plb-ext``."""
    if name == "base":
        return NoGatingPolicy()
    if name == "dcg":
        return DCGPolicy()
    if name == "dcg-delayed-store":
        return DCGPolicy(store_policy="delayed")
    if name == "dcg+iq":
        return DCGPolicy(gate_issue_queue=True)
    if name == "plb-orig":
        return PLBPolicy(extended=False)
    if name == "plb-ext":
        return PLBPolicy(extended=True)
    raise ValueError(f"unknown policy {name!r}")


class Simulator:
    """Runs (workload, policy) pairs on a fixed machine configuration.

    Parameters
    ----------
    config:
        Machine configuration; Table 1 baseline by default.
    calibration:
        Power-model calibration; Wattch-era defaults.

    Every run steps the one production cycle core, wired by
    :func:`assemble`.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 calibration: Optional[PowerCalibration] = None) -> None:
        self.config = config or baseline_config()
        self.calibration = calibration or PowerCalibration()
        self.blocks = BlockPowers(self.config, self.calibration)

    def run_benchmark(self, benchmark: Union[str, BenchmarkProfile],
                      policy: Union[str, GatingPolicy] = "base",
                      instructions: Optional[int] = None,
                      seed: Optional[int] = None,
                      prewarm: bool = True,
                      observers: Optional[Iterable] = None
                      ) -> SimulationResult:
        """Simulate one SPEC2000-like benchmark under one policy.

        ``observers`` are extra per-cycle callbacks (see
        :data:`~repro.pipeline.arraycore.CycleObserver`) attached after the
        power accountant — the opt-in sampling hook.
        """
        profile = (get_profile(benchmark) if isinstance(benchmark, str)
                   else benchmark)
        count = instructions or default_instructions()
        generator = SyntheticTraceGenerator(profile, seed=seed)
        stream = TraceStream(iter(generator), limit=count)
        return self._run(profile.name, stream, policy, count,
                         prewarm_source=generator if prewarm else None,
                         observers=observers)

    def run_trace(self, source: Iterable[MicroOp], policy:
                  Union[str, GatingPolicy] = "base",
                  instructions: Optional[int] = None,
                  name: str = "trace") -> SimulationResult:
        """Simulate an arbitrary micro-op trace (e.g. from the ISA
        functional tracer) under one policy."""
        stream = TraceStream(source, limit=instructions)
        return self._run(name, stream, policy, instructions)

    def _run(self, name: str, stream: TraceStream,
             policy: Union[str, GatingPolicy],
             instructions: Optional[int],
             prewarm_source: Optional[SyntheticTraceGenerator] = None,
             observers: Optional[Iterable] = None) -> SimulationResult:
        policy_obj = make_policy(policy) if isinstance(policy, str) else policy
        pipeline, accountant = assemble(self.config, stream, policy_obj,
                                        self.blocks,
                                        prewarm_source=prewarm_source)
        if observers:
            for observer in observers:
                pipeline.add_observer(observer)
        stats = pipeline.run(max_instructions=instructions)
        return build_result(name, policy_obj, accountant, stats)
