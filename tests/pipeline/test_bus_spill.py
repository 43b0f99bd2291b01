"""Result-bus overflow at completion: spill and drain order.

When more results finish in a cycle than there are enabled result buses
(PLB's disabled buses, or a narrow machine), the excess spills to the
next cycle.  Spilled ops must drain in submission order and never push
bus usage over the constraint.  Spilled wrong-path ops squashed before
they drain are covered by the frozen usage digests
(``tests/integration/test_usage_digests.py``, the ``1-bus`` and
``2-buses`` wrong-path cases).
"""

from repro.core import NoGatingPolicy
from repro.pipeline import MachineConfig, Pipeline
from repro.trace import MicroOp, OpClass, TraceStream


def _ops_independent(n, start_pc=0x1000):
    return [MicroOp(i, start_pc + 4 * i, OpClass.IALU,
                    dest=4 + (i % 20)) for i in range(n)]


def _run(ops, config):
    pipe = Pipeline(config, TraceStream(ops), NoGatingPolicy())
    for op in ops:
        pipe.hierarchy.l1i.preload(op.pc)
    usages = []
    pipe.add_observer(lambda u, d: usages.append(
        (u.cycle, u.result_bus_used, u.committed)))
    stats = pipe.run()
    return stats, usages


def test_single_bus_serialises_writeback():
    """120 independent ALU ops on a 1-bus machine: the bus never
    carries more than one result per cycle, every op still gets its
    writeback slot, and the drain itself bounds throughput."""
    stats, usages = _run(_ops_independent(120),
                         MachineConfig(result_buses=1))
    assert stats.committed == 120
    assert max(used for _, used, _c in usages) == 1
    # every result-carrying op crosses the single bus exactly once
    assert sum(used for _, used, _c in usages) == 120
    assert stats.cycles >= 120


def test_spill_drains_in_submission_order():
    """With one bus, completion (and therefore in-order commit) must
    advance one op per cycle once the spill queue is primed: the
    committed-per-cycle stream may never burst above what a
    one-result-per-cycle drain can feed."""
    stats, usages = _run(_ops_independent(60),
                         MachineConfig(result_buses=1))
    assert stats.committed == 60
    drained = committed = 0
    for _cycle, used, done in usages:
        drained += used
        committed += done
        # commit can never outrun the serialised drain
        assert committed <= drained
    assert drained == committed == 60
