"""Back-end components: functional units."""

from .funits import (
    AllocationPolicy,
    DEFAULT_FU_COUNTS,
    FU_LATENCY,
    FUSpec,
)

__all__ = [
    "AllocationPolicy",
    "DEFAULT_FU_COUNTS",
    "FU_LATENCY",
    "FUSpec",
]
