"""Per-cycle usage records and running totals."""

from repro.core import NoGatingPolicy
from repro.pipeline import CycleUsage, MachineConfig, Pipeline, UsageTotals
from repro.trace import FUClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile


def test_cycle_usage_defaults():
    usage = CycleUsage(cycle=5)
    assert usage.cycle == 5
    assert usage.dcache_ports_used == 0
    assert usage.fu_used_count(FUClass.INT_ALU) == 0
    assert usage.grants == []


def test_ports_used_sums_loads_and_stores():
    usage = CycleUsage(dcache_load_ports=1, dcache_store_ports=1)
    assert usage.dcache_ports_used == 2


def test_fu_used_count():
    usage = CycleUsage()
    usage.fu_active[FUClass.FP_ALU] = (True, False, True, False)
    assert usage.fu_used_count(FUClass.FP_ALU) == 2


def test_totals_accumulate():
    totals = UsageTotals()
    for i in range(4):
        usage = CycleUsage(cycle=i, issued=2, committed=2, fetched=3)
        usage.fu_active[FUClass.INT_ALU] = (True, True, False, False,
                                            False, False)
        usage.latch_slots["regread"] = 2
        usage.dcache_load_ports = 1
        usage.result_bus_used = 2
        usage.fetch_stalled = (i % 2 == 0)
        totals.add(usage)
    assert totals.cycles == 4
    assert totals.issued == 8
    assert totals.ipc == 2.0
    assert totals.issue_ipc == 2.0
    assert totals.fu_utilization(FUClass.INT_ALU) == 2 / 6
    assert totals.latch_slot_cycles["regread"] == 8
    assert totals.dcache_port_cycles == 4
    assert totals.result_bus_cycles == 8
    assert totals.fetch_stall_cycles == 2


def test_totals_unknown_fu_utilization_zero():
    totals = UsageTotals()
    assert totals.fu_utilization(FUClass.FP_MULT) == 0.0
    assert totals.ipc == 0.0


def _totals(chunks):
    """(core's folded totals, UsageTotals.add over its cycle stream)
    after a wrong-path, 2-bus run driven in ``chunks``."""
    generator = SyntheticTraceGenerator(get_profile("gcc"))
    pipe = Pipeline(MachineConfig(result_buses=2, model_wrong_path=True),
                    TraceStream(iter(generator), limit=chunks[-1]),
                    NoGatingPolicy())
    generator.prewarm(pipe.hierarchy)
    oracle = UsageTotals()
    pipe.add_observer(lambda usage, decision: oracle.add(usage))
    for target in chunks:
        pipe.run(max_instructions=target)
    return [{name: getattr(totals, name) for name in UsageTotals.__slots__}
            for totals in (pipe.totals, oracle)]


def test_usage_totals_identical_including_chunked_runs():
    """The core folds its totals from integer running sums when run()
    returns; every field — latch slots and FU activity included, which
    no result field exposes directly — must equal the per-cycle sums of
    UsageTotals.add, however the run is chunked."""
    folded, expected = _totals([3000])
    assert expected["fetched"] > expected["committed"]   # wrong path ran
    assert folded == expected
    assert _totals([700, 1900, 3000]) == [expected, expected]

