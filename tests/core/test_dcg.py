"""Deterministic clock gating mechanism.

Whole-run checks step both cycle cores: the production struct-of-arrays
core and the reference object core.
"""

import pytest

from repro.core import DCGPolicy, NoGatingPolicy
from repro.pipeline import CycleUsage, MachineConfig, Pipeline
from repro.pipeline.arraycore import ArrayPipeline
from repro.trace import FUClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile


CORES = (ArrayPipeline, Pipeline)


def _pipeline(core, policy, benchmark="gzip", n=3000, config=None):
    generator = SyntheticTraceGenerator(get_profile(benchmark))
    pipe = core(config or MachineConfig(),
                TraceStream(iter(generator), limit=n), policy)
    generator.prewarm(pipe.hierarchy)
    return pipe


def test_validation():
    with pytest.raises(ValueError):
        DCGPolicy(store_policy="psychic")


def test_no_constraints_in_advance_mode():
    policy = DCGPolicy()
    policy.bind(MachineConfig())
    cons = policy.constraints(0)
    assert cons.issue_width == 8
    assert cons.store_extra_delay == 0
    assert cons.disabled_fus == {}


def test_delayed_store_policy_adds_one_cycle():
    policy = DCGPolicy(store_policy="delayed")
    policy.bind(MachineConfig())
    assert policy.constraints(0).store_extra_delay == 1


def test_grant_calendar_matches_actual_activity():
    """The paper's core claim: GRANT signals known at issue fully
    determine execution-unit usage two cycles later.  verify=True makes
    DCGPolicy raise on any disagreement; a full run must be silent."""
    for core in CORES:
        pipe = _pipeline(core, DCGPolicy(verify=True))
        stats = pipe.run(max_instructions=3000)
        assert stats.committed == 3000


def test_determinism_check_catches_fabricated_activity():
    policy = DCGPolicy(verify=True)
    policy.bind(MachineConfig())
    # a unit is active without any grant having predicted it
    usage = CycleUsage(cycle=0)
    usage.fu_active[FUClass.INT_ALU] = (True,) + (False,) * 5
    for cls in (FUClass.INT_MULT, FUClass.FP_ALU, FUClass.FP_MULT):
        usage.fu_active[cls] = (False,) * MachineConfig().fu_counts[cls]
    with pytest.raises(AssertionError, match="determinism violated"):
        policy.observe(usage)


def test_gates_exactly_the_unused_blocks():
    """Over a real run, every gate decision must complement observed
    usage exactly: gated + used == capacity for each family."""
    for core in CORES:
        _check_gates_complement_usage(_pipeline(core, DCGPolicy()))


def _check_gates_complement_usage(pipe):
    config = pipe.config
    records = []
    pipe.add_observer(lambda u, d: records.append((u, d)))
    pipe.run(max_instructions=2000)
    gated_stage_slots = config.depth.gated_latch_stages * config.issue_width
    for usage, decision in records:
        for fu_class in (FUClass.INT_ALU, FUClass.INT_MULT,
                         FUClass.FP_ALU, FUClass.FP_MULT):
            used = usage.fu_used_count(fu_class)
            gated = decision.fu_gated[fu_class]
            assert used + gated == config.fu_counts[fu_class]
        used_slots = sum(usage.latch_slots.values())
        assert decision.latch_gated_slots == gated_stage_slots - used_slots
        assert (decision.dcache_ports_gated
                == config.dcache_ports - usage.dcache_ports_used)
        assert (decision.result_buses_gated
                == config.result_buses - usage.result_bus_used)
        assert decision.control_always_on


def test_zero_performance_loss():
    """DCG must not change the cycle count at all (advance store
    policy imposes no constraints)."""
    for core in CORES:
        base_stats = _pipeline(core, NoGatingPolicy()).run(
            max_instructions=3000)
        dcg_stats = _pipeline(core, DCGPolicy()).run(max_instructions=3000)
        assert dcg_stats.cycles == base_stats.cycles
        assert dcg_stats.committed == base_stats.committed


def test_delayed_store_policy_costs_almost_nothing():
    """§3.3: delaying stores by one cycle for gate-control set-up has
    virtually no performance impact."""
    for core in CORES:
        base_stats = _pipeline(core, NoGatingPolicy(), "vortex").run(
            max_instructions=3000)
        delayed_stats = _pipeline(core, DCGPolicy(store_policy="delayed"),
                                  "vortex").run(max_instructions=3000)
        slowdown = delayed_stats.cycles / base_stats.cycles
        assert slowdown < 1.02


def _decisions(pipe, n):
    records = []
    pipe.add_observer(lambda u, d: records.append(d))
    pipe.run(max_instructions=n)
    return records


def test_component_disable_flags():
    for core in CORES:
        policy = DCGPolicy(gate_units=False, gate_latches=False,
                           gate_dcache=False, gate_result_bus=False)
        for decision in _decisions(_pipeline(core, policy), 500):
            assert decision.fu_gated == {}
            assert decision.latch_gated_slots == 0
            assert decision.dcache_ports_gated == 0
            assert decision.result_buses_gated == 0


def test_sequential_priority_toggles_less_than_round_robin():
    """§3.1: static unit priorities keep gate controls stable."""
    from repro.backend import AllocationPolicy
    rr_config = MachineConfig(fu_policy=AllocationPolicy.ROUND_ROBIN)
    for core in CORES:
        seq_policy = DCGPolicy()
        _pipeline(core, seq_policy).run(max_instructions=3000)
        rr_policy = DCGPolicy()
        _pipeline(core, rr_policy, config=rr_config).run(
            max_instructions=3000)
        assert seq_policy.toggle_count < rr_policy.toggle_count


def test_dcg_never_gates_issue_queue():
    """§2.2.2: DCG leaves the issue queue to [6]'s technique."""
    for core in CORES:
        records = _decisions(_pipeline(core, DCGPolicy()), 500)
        assert all(d.issue_queue_gated_fraction == 0.0 for d in records)


def test_issue_queue_extension_gates_empty_entries():
    """Extension: composing DCG with [6]'s deterministic issue-queue
    gating saves strictly more power at identical cycle counts."""
    assert DCGPolicy(gate_issue_queue=True).name == "dcg+iq"
    window = MachineConfig().window_size
    for core in CORES:
        plain_pipe = _pipeline(core, DCGPolicy())
        records_plain = _decisions(plain_pipe, 2000)

        combined_pipe = _pipeline(core, DCGPolicy(gate_issue_queue=True))
        records = []
        combined_pipe.add_observer(lambda u, d: records.append((u, d)))
        combined_stats = combined_pipe.run(max_instructions=2000)

        assert combined_stats.cycles == plain_pipe.stats.cycles
        assert all(d.issue_queue_gated_fraction == 0.0
                   for d in records_plain)
        for usage, decision in records:
            expected = (window - usage.window_occupancy) / window
            assert decision.issue_queue_gated_fraction == expected
