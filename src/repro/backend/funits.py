"""Functional-unit counts, latencies and the instance-allocation policy.

The paper's Table 1 machine has 6 integer ALUs, 2 integer
multiply/divide units, 4 FP ALUs, and 4 FP multiply/divide units, plus
2 D-cache ports.  DCG's §3.1 allocates instructions to unit *instances*
with a static sequential-priority policy so low-index units stay busy
and high-index units stay gated, minimising clock-gate toggling (the
round-robin alternative is kept for the ablation study).  The cycle
core (:mod:`repro.pipeline.arraycore`) does the allocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from ..trace.uop import FUClass, OpClass

__all__ = ["AllocationPolicy", "FUSpec", "FU_LATENCY", "DEFAULT_FU_COUNTS"]


class AllocationPolicy(enum.Enum):
    """How instructions are matched to same-class unit instances."""

    SEQUENTIAL_PRIORITY = "sequential"   #: paper's choice (§3.1)
    ROUND_ROBIN = "round-robin"          #: ablation baseline


@dataclass(frozen=True)
class FUSpec:
    """Latency/pipelining behaviour of one op class on its unit."""

    latency: int          #: cycles from operand arrival to result
    pipelined: bool = True  #: can a new op start every cycle?


#: op-class execution behaviour (sim-outorder-like latencies)
FU_LATENCY: Dict[OpClass, FUSpec] = {
    OpClass.IALU: FUSpec(1),
    OpClass.IMUL: FUSpec(3),
    OpClass.IDIV: FUSpec(20, pipelined=False),
    OpClass.FPALU: FUSpec(2),
    OpClass.FPMUL: FUSpec(4),
    OpClass.FPDIV: FUSpec(12, pipelined=False),
    OpClass.BRANCH: FUSpec(1),
    OpClass.NOP: FUSpec(1),
    # LOAD/STORE occupy a MEM_PORT for address generation; the cache
    # access latency is added by the pipeline's memory stage.
    OpClass.LOAD: FUSpec(1),
    OpClass.STORE: FUSpec(1),
}

#: Table 1 functional-unit counts
DEFAULT_FU_COUNTS: Dict[FUClass, int] = {
    FUClass.INT_ALU: 6,
    FUClass.INT_MULT: 2,
    FUClass.FP_ALU: 4,
    FUClass.FP_MULT: 4,
    FUClass.MEM_PORT: 2,
}
