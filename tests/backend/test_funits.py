"""Functional-unit tables and instance allocation.

Allocation lives in the cycle core, so each behaviour is checked on
what the core reports: the GRANT signals of the cycle an op issues in
(``usage.grants``, as ``(class, instance, occupancy)``) and the
per-instance activity of each cycle (``usage.fu_active``).  An op
issued at cycle ``X`` occupies its unit from ``X+2``.
"""

from dataclasses import replace

import pytest

from repro.backend import AllocationPolicy, DEFAULT_FU_COUNTS, FU_LATENCY
from repro.core import NoGatingPolicy
from repro.core.interface import CycleConstraints, GatingPolicy
from repro.pipeline import MachineConfig, Pipeline
from repro.trace import FUClass, MicroOp, OpClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile

#: cycles from selection to the first execute stage
ISSUE_TO_EXECUTE = 2


class _DisableUnits(GatingPolicy):
    """Disables ``count`` units of ``fu_class`` before cycle ``until``
    (for good when ``until`` is None), as PLB's low-power modes do."""

    constraints_static = False

    def __init__(self, fu_class, count, until=None):
        self.fu_class = fu_class
        self.count = count
        self.until = until

    def bind(self, config):
        super().bind(config)
        self._restricted = CycleConstraints(
            config.issue_width, config.decode_width, config.dcache_ports,
            config.result_buses, disabled_fus={self.fu_class: self.count})

    def constraints(self, cycle):
        if self.until is None or cycle < self.until:
            return self._restricted
        return self._full_machine_constraints


def _run(ops, config=None, policy=None):
    """Per-cycle ``(grants, fu_active)`` of a run over ``ops``."""
    config = config or MachineConfig()
    pipe = Pipeline(config, TraceStream(ops), policy or NoGatingPolicy())
    for op in ops:
        pipe.hierarchy.l1i.preload(op.pc)
    cycles = []
    pipe.add_observer(lambda usage, decision: cycles.append(
        (list(usage.grants), dict(usage.fu_active))))
    stats = pipe.run()
    assert stats.committed == len(ops)
    return cycles


def _issues(cycles, fu_class):
    """``[(issue cycle, instance, occupancy)]`` of ``fu_class`` grants."""
    return [(cycle, index, occupancy)
            for cycle, (grants, _) in enumerate(cycles)
            for cls, index, occupancy in grants if cls is fu_class]


def _active(cycles, fu_class):
    """Active instance indices of ``fu_class``, per cycle."""
    return [{i for i, on in enumerate(active[fu_class]) if on}
            for _, active in cycles]


def _op(seq, op_class, dest, srcs=()):
    return MicroOp(seq, 0x1000 + 4 * seq, op_class, srcs=srcs, dest=dest)


def _long_op(seq):
    """A 20-cycle divide: keeps the run going past a short op's end."""
    return _op(seq, OpClass.IDIV, 60)


def _counts(**overrides):
    counts = dict(DEFAULT_FU_COUNTS)
    for name, count in overrides.items():
        counts[FUClass[name.upper()]] = count
    return replace(MachineConfig(), fu_counts=counts)


def test_default_counts_match_table1():
    assert MachineConfig().fu_counts == DEFAULT_FU_COUNTS
    assert sum(DEFAULT_FU_COUNTS.values()) == 18
    _, active = _run([_op(0, OpClass.IALU, 4)])[0]
    assert {cls: len(mask) for cls, mask in active.items()} == {
        FUClass.INT_ALU: 6, FUClass.INT_MULT: 2,
        FUClass.FP_ALU: 4, FUClass.FP_MULT: 4}


def test_sequential_priority_prefers_lowest_index():
    # ops 0 and 1 issue together; op 2 waits one cycle for op 0
    cycles = _run([_op(0, OpClass.IALU, 4), _op(1, OpClass.IALU, 5),
                   _op(2, OpClass.IALU, 6, srcs=(4,))])
    (x, first, _), (_, second, _), (y, third, _) = _issues(
        cycles, FUClass.INT_ALU)
    assert (first, second) == (0, 1)
    # next cycle: unit 0 is free again and must be chosen first
    assert (y, third) == (x + 1, 0)
    active = _active(cycles, FUClass.INT_ALU)
    assert active[x + ISSUE_TO_EXECUTE] == {0, 1}
    assert active[y + ISSUE_TO_EXECUTE] == {0}


def test_round_robin_rotates():
    chain = [_op(0, OpClass.IALU, 4), _op(1, OpClass.IALU, 5, srcs=(4,)),
             _op(2, OpClass.IALU, 6, srcs=(5,))]
    cycles = _run(chain, replace(MachineConfig(),
                                 fu_policy=AllocationPolicy.ROUND_ROBIN))
    issues = _issues(cycles, FUClass.INT_ALU)
    assert [index for _, index, _ in issues] == [0, 1, 2]
    active = _active(cycles, FUClass.INT_ALU)
    assert [active[cycle + ISSUE_TO_EXECUTE] for cycle, _, _ in issues] \
        == [{0}, {1}, {2}]


def test_allocation_exhaustion():
    cycles = _run([_op(i, OpClass.IALU, 4 + i) for i in range(3)],
                  _counts(int_alu=2))
    (x, a, _), (x2, b, _), (y, c, _) = _issues(cycles, FUClass.INT_ALU)
    # both units taken at x: the third ready op waits a cycle
    assert (x2, a, b) == (x, 0, 1)
    assert (y, c) == (x + 1, 0)


def test_pipelined_unit_accepts_next_cycle():
    # one 4-cycle pipelined multiplier takes a new op every cycle
    cycles = _run([_op(0, OpClass.FPMUL, 40), _op(1, OpClass.FPMUL, 41),
                   _long_op(2)], _counts(fp_mult=1))
    (x, a, occupancy), (y, b, _) = _issues(cycles, FUClass.FP_MULT)
    assert occupancy == FU_LATENCY[OpClass.FPMUL].latency == 4
    assert (y, a, b) == (x + 1, 0, 0)   # same unit, new op next cycle
    active = _active(cycles, FUClass.FP_MULT)
    start = x + ISSUE_TO_EXECUTE
    assert all(active[c] == {0} for c in range(start, start + 5))
    assert active[start + 5] == set()


def test_unpipelined_divide_blocks():
    # a 20-cycle unpipelined divide holds the only int-mult unit
    cycles = _run([_op(0, OpClass.IDIV, 4), _op(1, OpClass.IMUL, 5)],
                  _counts(int_mult=1))
    (x, _, occupancy), (y, index, _) = _issues(cycles, FUClass.INT_MULT)
    assert occupancy == 20
    assert (y, index) == (x + 20, 0)
    active = _active(cycles, FUClass.INT_MULT)
    start = x + ISSUE_TO_EXECUTE
    assert all(active[c] == {0} for c in range(start, start + 20 + 3))


def test_no_unit_is_double_booked():
    """Over a real FP-heavy run: one grant per unit per cycle, and no
    grant to an unpipelined unit while it still holds an op."""
    generator = SyntheticTraceGenerator(get_profile("applu"))
    pipe = Pipeline(MachineConfig(), TraceStream(iter(generator),
                                                 limit=3000),
                    NoGatingPolicy())
    generator.prewarm(pipe.hierarchy)
    unpipelined = {spec.latency for spec in FU_LATENCY.values()
                   if not spec.pipelined}
    busy_until = {}
    granted = 0

    def check(usage, decision):
        nonlocal granted
        units = [(cls, index) for cls, index, _ in usage.grants]
        assert len(units) == len(set(units)), usage.cycle
        for cls, index, occupancy in usage.grants:
            granted += 1
            assert busy_until.get((cls, index), -1) < usage.cycle
            if occupancy in unpipelined:
                busy_until[cls, index] = usage.cycle + occupancy - 1

    pipe.add_observer(check)
    pipe.run(max_instructions=3000)
    assert granted > 3000 // 2
    assert busy_until        # the run held unpipelined divides


def test_disable_removes_highest_index():
    # PLB-style: 3 of 6 ALUs off; six ready ops go out 3 per cycle
    cycles = _run([_op(i, OpClass.IALU, 4 + i) for i in range(6)],
                  policy=_DisableUnits(FUClass.INT_ALU, 3))
    issues = _issues(cycles, FUClass.INT_ALU)
    x = issues[0][0]
    assert [(cycle - x, index) for cycle, index, _ in issues] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    # allocation never lands on a disabled instance
    assert set().union(*_active(cycles, FUClass.INT_ALU)) == {0, 1, 2}


def test_disable_validation():
    with pytest.raises(ValueError, match="cannot disable 7 of 6 INT_ALU"):
        _run([_op(0, OpClass.IALU, 4)],
             policy=_DisableUnits(FUClass.INT_ALU, 7))
    _run([_op(0, OpClass.IALU, 4)],
         policy=_DisableUnits(FUClass.INT_ALU, 0))   # no-op allowed


def test_disable_all_blocks_class():
    # every FP ALU off until cycle 30: the FP add waits for the mode
    cycles = _run([_op(0, OpClass.FPALU, 40)],
                  policy=_DisableUnits(FUClass.FP_ALU, 4, until=30))
    assert [cycle for cycle, _, _ in _issues(cycles, FUClass.FP_ALU)] \
        == [30]


def test_active_mask():
    cycles = _run([_op(0, OpClass.FPALU, 40), _long_op(1)])   # 2-cycle
    (x, _, _), = _issues(cycles, FUClass.FP_ALU)
    start = x + ISSUE_TO_EXECUTE
    masks = [cycles[c][1][FUClass.FP_ALU] for c in (start, start + 1,
                                                     start + 2)]
    assert masks == [(True, False, False, False),
                     (True, False, False, False),
                     (False, False, False, False)]


def test_latency_table_covers_all_op_classes():
    for op_class in OpClass:
        assert op_class in FU_LATENCY


def test_uses_counter():
    # a dependent pair issues on consecutive cycles: unit 0 twice
    cycles = _run([_op(0, OpClass.IALU, 4),
                   _op(1, OpClass.IALU, 5, srcs=(4,))])
    assert [index for _, index, _ in _issues(cycles, FUClass.INT_ALU)] \
        == [0, 0]


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        _counts(int_alu=-1)
