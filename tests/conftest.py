"""Shared fixtures.

Simulation runs are the expensive part of this suite, so results that
many tests inspect are produced once per session through a memoised
:class:`~repro.sim.runner.ExperimentRunner` at a reduced instruction
budget.  The shapes the paper's claims rest on (orderings, zero DCG
performance loss, per-family saving bands) are stable well below the
default budget.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.pipeline.core import Pipeline
from repro.sim import ExperimentRunner, ResultCache, Simulator
from repro.sim import simulator as simulator_module

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


@pytest.fixture
def object_core(monkeypatch):
    """Context manager running the production wiring on the object core.

    Inside ``with object_core():`` every run built by
    :func:`repro.sim.simulator.assemble` — ``Simulator``,
    ``PausableRun`` and ``SampledRun`` windows alike — steps the
    reference :class:`~repro.pipeline.core.Pipeline` instead of the
    struct-of-arrays core.  Outside it, runs use the production core,
    so one test can compare both.
    """
    @contextmanager
    def use():
        with monkeypatch.context() as patch:
            patch.setattr(simulator_module, "ArrayPipeline", Pipeline)
            yield

    return use


@pytest.fixture(params=["array", "object"])
def each_core(request, object_core):
    """Run the test once per cycle core; yields the core's name."""
    if request.param == "object":
        with object_core():
            yield request.param
    else:
        yield request.param
