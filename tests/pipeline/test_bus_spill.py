"""Result-bus overflow in ``_do_complete``: spill, squash, drain order.

When more results finish in a cycle than there are enabled result buses
(PLB's disabled buses, or a narrow machine), the excess spills to the
next cycle.  Spilled ops must drain in submission order, be re-filtered
for wrong-path squashes at the cycle they actually drain, and never
push bus usage over the constraint — on both cycle-core backends.
"""

import pytest

from repro.core import NoGatingPolicy
from repro.pipeline import MachineConfig, Pipeline
from repro.pipeline.arraycore import ArrayPipeline
from repro.sim import Simulator
from repro.trace import MicroOp, OpClass, TraceStream

CORES = [Pipeline, ArrayPipeline]
CORE_IDS = ["object", "array"]


def _ops_independent(n, start_pc=0x1000):
    return [MicroOp(i, start_pc + 4 * i, OpClass.IALU,
                    dest=4 + (i % 20)) for i in range(n)]


def _run(core_cls, ops, config):
    pipe = core_cls(config, TraceStream(ops), NoGatingPolicy())
    for op in ops:
        pipe.hierarchy.l1i.preload(op.pc)
    usages = []
    pipe.add_observer(lambda u, d: usages.append(
        (u.cycle, u.result_bus_used, u.committed)))
    stats = pipe.run()
    return stats, usages


@pytest.mark.parametrize("core_cls", CORES, ids=CORE_IDS)
def test_single_bus_serialises_writeback(core_cls):
    """120 independent ALU ops on a 1-bus machine: the bus never
    carries more than one result per cycle, every op still gets its
    writeback slot, and the drain itself bounds throughput."""
    stats, usages = _run(core_cls, _ops_independent(120),
                         MachineConfig(result_buses=1))
    assert stats.committed == 120
    assert max(used for _, used, _c in usages) == 1
    # every result-carrying op crosses the single bus exactly once
    assert sum(used for _, used, _c in usages) == 120
    assert stats.cycles >= 120


@pytest.mark.parametrize("core_cls", CORES, ids=CORE_IDS)
def test_spill_drains_in_submission_order(core_cls):
    """With one bus, completion (and therefore in-order commit) must
    advance one op per cycle once the spill queue is primed: the
    committed-per-cycle stream may never burst above what a
    one-result-per-cycle drain can feed."""
    stats, usages = _run(core_cls, _ops_independent(60),
                         MachineConfig(result_buses=1))
    assert stats.committed == 60
    drained = committed = 0
    for _cycle, used, done in usages:
        drained += used
        committed += done
        # commit can never outrun the serialised drain
        assert committed <= drained
    assert drained == committed == 60


def test_spill_identical_across_backends_under_squash(object_core):
    """Wrong-path ops that spilled to c+1 and were squashed before
    draining must be re-filtered when the spill drains.  Run a real
    branchy workload with wrong-path modeling on a 1-bus machine and
    require the full per-cycle bus/commit stream to match between
    the production core and the object core."""
    config = MachineConfig(result_buses=1, model_wrong_path=True)

    def bus_stream():
        seen = []
        result = Simulator(config).run_benchmark(
            "gcc", "base", instructions=2000,
            observers=[lambda u, d: seen.append(
                (u.cycle, u.result_bus_used, u.committed))])
        assert result.stats.wrong_path_squashed > 0
        return seen

    with object_core():
        reference = bus_stream()
    assert bus_stream() == reference
