"""Cycle-level out-of-order superscalar pipeline."""

from .config import BASELINE_DEPTH, DEEP_DEPTH, DepthConfig, MachineConfig
from .arraycore import ArrayPipeline as Pipeline
from .pipetrace import OpRecord, render_pipetrace
from .stats import SimStats
from .usage import CycleUsage, UsageTotals
from .verification import InvariantChecker, InvariantViolation

__all__ = [
    "BASELINE_DEPTH",
    "DEEP_DEPTH",
    "CycleUsage",
    "DepthConfig",
    "InvariantChecker",
    "InvariantViolation",
    "MachineConfig",
    "OpRecord",
    "Pipeline",
    "render_pipetrace",
    "SimStats",
    "UsageTotals",
]
