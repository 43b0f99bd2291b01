"""Shared fixtures.

Simulation runs are the expensive part of this suite, so results that
many tests inspect are produced once per session through a memoised
:class:`~repro.sim.runner.ExperimentRunner` at a reduced instruction
budget.  The shapes the paper's claims rest on (orderings, zero DCG
performance loss, per-family saving bands) are stable well below the
default budget.
"""

from __future__ import annotations

import pytest

from repro.sim import ExperimentRunner, ResultCache, Simulator

#: instruction budget for session-scoped simulation fixtures
QUICK_INSTRUCTIONS = 2_500


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Session-wide memoising experiment runner (small runs).

    The disk cache is explicitly disabled so the suite is hermetic even
    when the developer has ``REPRO_CACHE_DIR`` exported.
    """
    return ExperimentRunner(instructions=QUICK_INSTRUCTIONS,
                            cache=ResultCache(""))


@pytest.fixture(scope="session")
def simulator() -> Simulator:
    """Baseline-configuration simulator."""
    return Simulator()
