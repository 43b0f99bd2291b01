"""Cross-core bit-identity: struct-of-arrays core vs object core.

The production struct-of-arrays core is a pure re-layout of the
reference object core: for any workload, policy, and machine
configuration it must produce the same :class:`SimulationResult` down
to the last float, and the same per-cycle usage stream.  These tests
pin that equivalence directly (the ``object_core`` fixture runs the
production wiring on the reference core); the golden invariance suite
additionally pins each core against the frozen pre-optimisation
reference.
"""

import pickle

import pytest

from repro.core import NoGatingPolicy
from repro.pipeline import MachineConfig, Pipeline
from repro.pipeline.arraycore import ArrayPipeline
from repro.pipeline.usage import CycleUsage, UsageTotals
from repro.sim import PausableRun, Simulator
from repro.sim.cache import result_to_dict
from repro.sim.configs import deep_pipeline_config
from repro.trace import TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile

#: one case per structurally distinct policy hot path
CASES = [
    ("gzip", "base"),
    ("gzip", "dcg"),
    ("applu", "dcg-delayed-store"),
    ("mcf", "plb-ext"),
]


def _result(benchmark, policy, config=None):
    sim = Simulator(config)
    return result_to_dict(sim.run_benchmark(benchmark, policy,
                                            instructions=2000, seed=7))


def _both(object_core, benchmark, policy, config=None):
    """(object core result, production core result) of one run."""
    with object_core():
        reference = _result(benchmark, policy, config)
    return reference, _result(benchmark, policy, config)


@pytest.mark.parametrize("bench, policy", CASES,
                         ids=[f"{b}/{p}" for b, p in CASES])
def test_backends_bit_identical(object_core, bench, policy):
    reference, produced = _both(object_core, bench, policy)
    assert reference == produced


def test_backends_bit_identical_with_wrong_path(object_core):
    config = MachineConfig(model_wrong_path=True)
    reference, produced = _both(object_core, "gcc", "dcg", config)
    assert reference == produced


def test_backends_bit_identical_with_restricted_buses(object_core):
    # a 2-bus machine keeps _do_complete's overflow spill hot all run
    config = MachineConfig(result_buses=2)
    reference, produced = _both(object_core, "gzip", "base", config)
    assert reference == produced


def _usage_stream(core_cls, config, n=3000):
    """Every CycleUsage field of every cycle, as comparable values."""
    generator = SyntheticTraceGenerator(get_profile("gcc"))
    pipe = core_cls(config, TraceStream(iter(generator), limit=n),
                    NoGatingPolicy())
    generator.prewarm(pipe.hierarchy)
    snapshots = []

    def observe(usage, decision):
        snapshots.append(tuple(
            dict(value) if isinstance(value, dict) else value
            for value in (getattr(usage, name)
                          for name in CycleUsage.__slots__)))

    pipe.add_observer(observe)
    pipe.run(max_instructions=n)
    return snapshots


def test_per_cycle_usage_streams_identical():
    """Lockstep equivalence: under bus pressure *and* wrong-path
    squashes, both cores must report identical usage every cycle —
    this pins spill drain order, not just end-of-run totals."""
    config = MachineConfig(result_buses=2, model_wrong_path=True)
    assert _usage_stream(Pipeline, config) == \
        _usage_stream(ArrayPipeline, config)


def _totals(core_cls, config, chunks):
    """Every UsageTotals field after a run driven in ``chunks``."""
    generator = SyntheticTraceGenerator(get_profile("gcc"))
    pipe = core_cls(config, TraceStream(iter(generator), limit=chunks[-1]),
                    NoGatingPolicy())
    generator.prewarm(pipe.hierarchy)
    for target in chunks:
        pipe.run(max_instructions=target)
    return {name: getattr(pipe.totals, name)
            for name in UsageTotals.__slots__}


def test_usage_totals_identical_including_chunked_runs():
    """The array core folds its totals from running sums at the end of
    run(); every field — latch slots and FU activity included, which no
    result field exposes directly — must match the object core's
    per-cycle sums, however the run is chunked."""
    config = MachineConfig(result_buses=2, model_wrong_path=True)
    expected = _totals(Pipeline, config, [3000])
    assert expected["fetched"] > expected["committed"]   # wrong path ran
    assert _totals(ArrayPipeline, config, [3000]) == expected
    assert _totals(ArrayPipeline, config, [700, 1900, 3000]) == expected


# -- the array core's wake calendar -------------------------------------------
#
# The array core issues from a wake calendar (ops enter it once their
# last operand's ready cycle is known) instead of rescanning every
# waiting op.  These cases aim at the calendar's edges: squashes with
# live entries, policy-driven width changes, the deepest ring horizon,
# and a checkpoint taken with entries still pending.


def test_backends_bit_identical_wrong_path_high_mispredict(object_core):
    # mcf has the suite's highest random-branch fraction, so wrong-path
    # ops are squashed while their wake entries are still in the ring
    config = MachineConfig(model_wrong_path=True)
    reference, produced = _both(object_core, "mcf", "dcg", config)
    assert reference["stats"]["wrong_path_squashed"] > 0
    assert reference == produced


def test_backends_bit_identical_plb_ext_mode_switching(object_core):
    def run():
        return Simulator().run_benchmark("mcf", "plb-ext",
                                         instructions=6000, seed=3)

    with object_core():
        reference = run()
    produced = run()
    # more than one PLB mode held the machine: width changes happened
    assert sum(1 for cycles in produced.mode_cycles.values()
               if cycles) > 1
    assert result_to_dict(reference) == result_to_dict(produced)


@pytest.mark.parametrize("bench, policy", [("gzip", "dcg"),
                                           ("lucas", "plb-ext")])
def test_backends_bit_identical_deep_pipeline(object_core, bench, policy):
    # the fig-17 machine has the largest event-ring horizon
    config = deep_pipeline_config()
    reference, produced = _both(object_core, bench, policy, config)
    assert reference == produced


def test_checkpoint_with_live_wake_entries_matches_uninterrupted(
        object_core):
    reference = PausableRun("mcf", "dcg", 3000)
    reference.advance()
    paused = PausableRun("mcf", "dcg", 3000)
    target = 0
    while not any(paused.pipeline._wake_ring):
        target += 50
        paused.advance(target)
        assert not paused.done
    resumed = PausableRun.resume(pickle.loads(pickle.dumps(
        paused.state(), protocol=pickle.HIGHEST_PROTOCOL)))
    assert any(resumed.pipeline._wake_ring)
    resumed.advance()
    expected = result_to_dict(reference.result())
    assert result_to_dict(resumed.result()) == expected
    with object_core():
        object_run = PausableRun("mcf", "dcg", 3000)
    assert isinstance(object_run.pipeline, Pipeline)
    object_run.advance()
    assert result_to_dict(object_run.result()) == expected
