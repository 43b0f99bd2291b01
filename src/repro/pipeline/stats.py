"""Simulation statistics."""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict

from ..trace.uop import FUClass, MicroOp, OpClass

if TYPE_CHECKING:  # pragma: no cover
    from .arraycore import ArrayPipeline

__all__ = ["SimStats"]


class SimStats:
    """Counters accumulated over a pipeline run.

    ``finalize`` copies in derived numbers (predictor accuracy, cache
    miss rates, functional-unit utilisation) from the pipeline so the
    object is self-contained after the run.
    """

    def __init__(self) -> None:
        self.cycles = 0
        self.committed = 0
        self.fetched = 0
        self.loads = 0
        self.stores = 0
        self.forwarded_loads = 0
        self.mispredicts = 0
        self.wrong_path_fetched = 0
        self.wrong_path_squashed = 0
        self.commit_class_counts: Counter = Counter()
        # filled by finalize()
        self.mispredict_rate = 0.0
        self.cache_stats: Dict[str, Dict[str, float]] = {}
        self.fu_utilization: Dict[FUClass, float] = {}
        self.dcache_port_utilization = 0.0
        self.result_bus_utilization = 0.0
        self.issue_ipc = 0.0
        self.fetch_stall_fraction = 0.0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def note_commit(self, uop: MicroOp) -> None:
        self.commit_class_counts[uop.op_class] += 1

    def class_fraction(self, op_class: OpClass) -> float:
        if self.committed == 0:
            return 0.0
        return self.commit_class_counts.get(op_class, 0) / self.committed

    def finalize(self, pipeline: "ArrayPipeline") -> None:
        predictor = pipeline.predictor.stats
        self.mispredict_rate = predictor.mispredict_rate
        self.cache_stats = pipeline.hierarchy.stats_table()
        totals = pipeline.totals
        self.issue_ipc = totals.issue_ipc
        for fu_class in FUClass:
            if fu_class in totals.fu_capacity_cycles:
                self.fu_utilization[fu_class] = totals.fu_utilization(fu_class)
        ports = pipeline.config.dcache_ports
        if self.cycles and ports:
            self.dcache_port_utilization = (
                totals.dcache_port_cycles / (self.cycles * ports))
        buses = pipeline.config.result_buses
        if self.cycles and buses:
            self.result_bus_utilization = (
                totals.result_bus_cycles / (self.cycles * buses))
        if self.cycles:
            self.fetch_stall_fraction = (
                totals.fetch_stall_cycles / self.cycles)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"cycles:            {self.cycles}",
            f"committed:         {self.committed}",
            f"IPC:               {self.ipc:.3f}",
            f"issue IPC:         {self.issue_ipc:.3f}",
            f"mispredict rate:   {self.mispredict_rate:.4f}",
            f"loads/stores:      {self.loads}/{self.stores}"
            f" (forwarded {self.forwarded_loads})",
            f"fetch stalls:      {self.fetch_stall_fraction:.3f}",
            f"D-cache port util: {self.dcache_port_utilization:.3f}",
            f"result bus util:   {self.result_bus_utilization:.3f}",
        ]
        for fu_class, util in sorted(self.fu_utilization.items()):
            lines.append(f"util {fu_class.name:9s}    {util:.3f}")
        for level, stats in self.cache_stats.items():
            if "miss_rate" in stats:
                lines.append(
                    f"{level}: accesses={int(stats['accesses'])} "
                    f"miss_rate={stats['miss_rate']:.4f}")
        return "\n".join(lines)
