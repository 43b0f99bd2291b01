"""Cycle-level out-of-order superscalar pipeline.

The model follows the paper's Figure 3 organisation: fetch, decode,
rename, issue (wakeup/select over a 128-entry window), register read,
execute, memory access, writeback, with in-order commit from the window.
Relative timing matches the paper's DCG discussion:

* instructions selected at issue in cycle ``X`` read registers at
  ``X+1`` and use their execution unit from ``X+2``;
* loads issued at ``X`` access the D-cache at ``X+3``;
* results write back over the result buses at ``X+2+latency-1`` (one
  cycle after the value becomes available to consumers);
* stores access the D-cache at commit, optionally one cycle later when
  the gating policy asks for DCG's store-delay variant (§3.3).

Each simulated cycle produces a :class:`~repro.pipeline.usage.CycleUsage`
that is handed to the gating policy and any registered observers (the
power accountant).

This object core is the reference implementation.  Production runs
step :class:`~repro.pipeline.arraycore.ArrayPipeline`; the equivalence
tests pin that core against this one, and pipetrace capture (which
needs real ``InflightOp`` records) runs here.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..backend.funits import FU_LATENCY, FUPool
from ..core.interface import CycleConstraints, GateDecision, GatingPolicy
from ..frontend.branch_predictor import BranchPredictor
from ..memory.hierarchy import CacheHierarchy
from ..trace.uop import FUClass, MicroOp, OpClass
from ..trace.stream import TraceStream
from .config import MachineConfig
from .inflight import InflightOp
from .stats import SimStats
from .usage import CycleUsage, UsageTotals

__all__ = ["Pipeline", "CycleObserver"]

#: callback invoked after every cycle with (usage, gate decision)
CycleObserver = Callable[[CycleUsage, GateDecision], None]

_FU_EXEC_CLASSES = (FUClass.INT_ALU, FUClass.INT_MULT,
                    FUClass.FP_ALU, FUClass.FP_MULT)

#: abort if the machine makes no forward progress for this many cycles
_DEADLOCK_LIMIT = 50_000


class _FrontendEntry:
    __slots__ = ("uop", "ready_cycle", "prediction", "wrong_path",
                 "is_mispredicted_branch")

    def __init__(self, uop: MicroOp, ready_cycle: int) -> None:
        self.uop = uop
        self.ready_cycle = ready_cycle
        self.prediction: Tuple[bool, Optional[int]] = (False, None)
        self.wrong_path = False
        self.is_mispredicted_branch = False


class Pipeline:
    """Trace-driven out-of-order core.

    Parameters
    ----------
    config:
        Machine configuration (Table 1 by default).
    stream:
        Micro-op source.
    policy:
        Gating policy; :class:`~repro.core.interface.NoGatingPolicy`
        reproduces the paper's base case.
    hierarchy / predictor:
        Optional pre-built memory system and branch predictor (built
        from ``config`` when omitted).
    """

    def __init__(self, config: MachineConfig, stream: TraceStream,
                 policy: GatingPolicy,
                 hierarchy: Optional[CacheHierarchy] = None,
                 predictor: Optional[BranchPredictor] = None) -> None:
        self.config = config
        self.stream = stream
        self.policy = policy
        policy.bind(config)
        self.hierarchy = hierarchy or CacheHierarchy(config.hierarchy)
        self.predictor = predictor or BranchPredictor(
            l1_entries=config.bpred_l1_entries,
            l2_entries=config.bpred_l2_entries,
            history_bits=config.bpred_history_bits,
            btb_entries=config.btb_entries,
            btb_assoc=config.btb_assoc,
            ras_depth=config.ras_depth)
        self.fupool = FUPool(config.fu_counts, policy=config.fu_policy)
        self.observers: List[CycleObserver] = []
        self.stats = SimStats()
        self.totals = UsageTotals()

        depth = config.depth
        self._front_latency = depth.front_latency
        self._issue_to_execute = depth.issue_to_execute
        self._issue_to_mem = depth.issue_to_mem

        # per-cycle loop constants, hoisted out of the hot path
        self._fetch_width = config.fetch_width
        self._commit_width = config.commit_width
        self._issue_width_cfg = config.issue_width
        self._decode_width = config.decode_width
        self._window_size = config.window_size
        self._lsq_size = config.lsq_size
        self._writeback_depth = depth.writeback
        self._rename_depth = depth.rename
        self._line_bytes = self.hierarchy.l1i.line_bytes
        self._l1i_hit_latency = self.hierarchy.config.l1i.hit_latency
        self._l1d_hit_latency = self.hierarchy.config.l1d.hit_latency
        # latch one-hot delay offsets (§3.2): slots the issue count of
        # cycle ``c - off`` clocks at cycle ``c``, per gated stage
        regread, execute, mem = depth.regread, depth.execute, depth.mem
        self._rf_offsets = tuple(range(1, regread + 1))
        self._ex_offsets = tuple(range(regread + 1, regread + execute + 1))
        self._mem_offsets = tuple(range(regread + execute + 1,
                                        regread + execute + mem + 1))
        # issue-count history lives in a ring buffer: the deepest
        # look-back is regread+execute+mem cycles, and each slot is
        # rewritten before it can be read again
        self._ring_size = regread + execute + mem + 1
        self._issued_ring = [0] * self._ring_size
        # per-class activity-mask rows: (class, all-False mask, indices)
        self._fu_rows: Tuple[Tuple[FUClass, Tuple[bool, ...],
                                   Tuple[int, ...]], ...] = tuple(
            (cls, (False,) * count, tuple(range(count)))
            for cls in _FU_EXEC_CLASSES
            for count in (self.fupool.counts.get(cls, 0),))
        self._last_cons: Optional[CycleConstraints] = None

        # machine state
        self.cycle = 0
        self._window: Deque[InflightOp] = deque()
        self._pending_issue: List[InflightOp] = []
        self._frontend: Deque[_FrontendEntry] = deque()
        self._frontend_cap = config.fetch_width * (self._front_latency + 2)
        self._lsq_count = 0
        self._reg_producer: Dict[int, InflightOp] = {}
        self._store_map: Dict[int, InflightOp] = {}

        # event calendars (cycle -> payload)
        self._bus_complete: Dict[int, List[InflightOp]] = {}
        self._other_complete: Dict[int, List[InflightOp]] = {}
        self._resolve_at: Dict[int, List[InflightOp]] = {}
        self._fu_activity: Dict[int, Dict[FUClass, Set[int]]] = {}
        self._port_loads: Dict[int, int] = {}
        self._port_stores: Dict[int, int] = {}

        # fetch state
        self._fetch_blocked_until = 0
        self._fetch_frozen = False
        self._last_fetch_line = -1

        # wrong-path modeling (config.model_wrong_path)
        self._wp_rng = random.Random(0x0D15EA5E)
        self._wp_active = False
        self._wp_pc = 0
        self._wp_seq = 0
        self._wp_dest = 0
        self._last_mem_addr = 0x1000_0000
        self._checkpoint: Optional[Tuple[InflightOp,
                                         Dict[int, InflightOp]]] = None

        self._last_commit_cycle = 0

        # optional per-op capture for pipetrace rendering
        self._capture_limit = 0
        self.captured_ops: List[InflightOp] = []

    def add_observer(self, observer: CycleObserver) -> None:
        self.observers.append(observer)

    def capture_ops(self, limit: int) -> None:
        """Record the first ``limit`` dispatched ops (wrong-path
        included) for :func:`repro.pipeline.pipetrace.render_pipetrace`."""
        if limit < 0:
            raise ValueError("limit must be non-negative")
        self._capture_limit = limit

    # ------------------------------------------------------------------
    # top-level loop
    # ------------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> SimStats:
        """Simulate until ``max_instructions`` commit (or the trace ends
        and the pipeline drains).  Returns the statistics object."""
        target = max_instructions
        stats = self.stats
        stream = self.stream
        window = self._window
        step = self._step
        while True:
            if target is not None and stats.committed >= target:
                break
            # the empty-machine checks go first: ``stream.exhausted``
            # costs a lookahead fill, and the window is non-empty on
            # almost every mid-run cycle
            if (not window and not self._frontend and stream.exhausted):
                break
            step()
            if self.cycle - self._last_commit_cycle > _DEADLOCK_LIMIT:
                raise RuntimeError(
                    f"pipeline deadlock: no commit since cycle "
                    f"{self._last_commit_cycle} (now {self.cycle})")
        self.stats.finalize(self)
        return self.stats

    def _step(self) -> None:
        c = self.cycle
        cons = self.policy.constraints(c)
        if cons is not self._last_cons:
            # policies return a cached constraints object per (piecewise-)
            # constant regime, so the FU disable counts only need
            # re-applying when the object changes (PLB mode switches)
            self._apply_fu_constraints(cons)
            self._last_cons = cons
        usage = CycleUsage(cycle=c)

        if self._resolve_at:
            self._do_resolve(c)
        self._do_complete(c, cons, usage)
        self._do_commit(c, cons, usage)
        self._do_issue(c, cons, usage)
        self._do_dispatch(c, cons, usage)
        self._do_fetch(c, usage)
        self._finish_cycle(c, usage)

        decision = self.policy.observe(usage)
        for observer in self.observers:
            observer(usage, decision)
        self.totals.add(usage)
        self.cycle = c + 1

    def _apply_fu_constraints(self, cons: CycleConstraints) -> None:
        for fu_class in _FU_EXEC_CLASSES:
            self.fupool.set_disabled(
                fu_class, cons.disabled_fus.get(fu_class, 0))

    # ------------------------------------------------------------------
    # branch resolution
    # ------------------------------------------------------------------

    def _do_resolve(self, c: int) -> None:
        for op in self._resolve_at.pop(c, ()):
            uop = op.uop
            mispredicted = self.predictor.resolve(
                uop.pc, op.predicted_taken, op.predicted_target,
                uop.taken, uop.target)
            op.mispredicted = mispredicted
            if mispredicted:
                self.stats.mispredicts += 1
                self._fetch_frozen = False
                self._fetch_blocked_until = max(
                    self._fetch_blocked_until,
                    c + self.config.mispredict_redirect)
                if self.config.model_wrong_path:
                    self._squash_wrong_path(op)

    def _squash_wrong_path(self, branch: InflightOp) -> None:
        """Discard everything fetched past a mispredicted branch and
        restore the rename state captured when the branch dispatched."""
        self._wp_active = False
        if self._frontend:
            # FIFO order guarantees anything behind the dispatched
            # branch is wrong-path, but filter defensively
            self._frontend = deque(e for e in self._frontend
                                   if not e.wrong_path)
        while self._window and self._window[-1].wrong_path:
            op = self._window.pop()
            op.squashed = True
            self.stats.wrong_path_squashed += 1
            if op.uop.is_mem:
                self._lsq_count -= 1
        if self._pending_issue and any(op.squashed
                                       for op in self._pending_issue):
            self._pending_issue = [op for op in self._pending_issue
                                   if not op.squashed]
        if self._checkpoint is not None:
            chk_branch, producers = self._checkpoint
            if chk_branch is branch:
                self._reg_producer = producers
                self._checkpoint = None

    # ------------------------------------------------------------------
    # completion / writeback
    # ------------------------------------------------------------------

    def _do_complete(self, c: int, cons: CycleConstraints,
                     usage: CycleUsage) -> None:
        model_wrong_path = self.config.model_wrong_path
        bus_writers = self._bus_complete.pop(c, ())
        if bus_writers:
            if model_wrong_path:
                bus_writers = [op for op in bus_writers if not op.squashed]
            if len(bus_writers) > cons.result_buses:
                # more results than enabled buses: spill the excess to the
                # next cycle (PLB's disabled result buses cause this)
                overflow = bus_writers[cons.result_buses:]
                bus_writers = bus_writers[:cons.result_buses]
                self._bus_complete.setdefault(c + 1, []).extend(overflow)
            for op in bus_writers:
                op.completed = True
                op.complete_cycle = c
        others = self._other_complete.pop(c, ())
        if others:
            if model_wrong_path:
                others = [op for op in others if not op.squashed]
            for op in others:
                op.completed = True
                op.complete_cycle = c
        buses_used = len(bus_writers)
        usage.result_bus_used = buses_used
        # only result-carrying ops clock the writeback latches; stores
        # and resolved branches complete through ROB bookkeeping alone
        usage.latch_slots["writeback"] = buses_used * self._writeback_depth

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _do_commit(self, c: int, cons: CycleConstraints,
                   usage: CycleUsage) -> None:
        committed = 0
        window = self._window
        if window:
            commit_width = self._commit_width
            stats = self.stats
            commit_counts = stats.commit_class_counts
            port_loads = self._port_loads
            port_stores = self._port_stores
            store_map = self._store_map
            reg_producer = self._reg_producer
            while window and committed < commit_width:
                op = window[0]
                if not op.completed:
                    break
                uop = op.uop
                if uop.is_store:
                    access_cycle = c + cons.store_extra_delay
                    stores_now = port_stores.get(access_cycle, 0)
                    used = port_loads.get(access_cycle, 0) + stores_now
                    if used >= cons.dcache_ports:
                        break  # no D-cache port for the store this cycle
                    port_stores[access_cycle] = stores_now + 1
                    self.hierarchy.store(uop.mem_addr)
                    stats.stores += 1
                    if store_map.get(uop.mem_addr) is op:
                        del store_map[uop.mem_addr]
                window.popleft()
                op.committed = True
                op.commit_cycle = c
                committed += 1
                stats.committed += 1
                commit_counts[uop.op_class] += 1
                if uop.is_mem:
                    self._lsq_count -= 1
                dest = uop.dest
                if dest is not None and reg_producer.get(dest) is op:
                    del reg_producer[dest]
            if committed:
                self._last_commit_cycle = c
        usage.committed = committed

    # ------------------------------------------------------------------
    # issue (wakeup / select)
    # ------------------------------------------------------------------

    def _do_issue(self, c: int, cons: CycleConstraints,
                  usage: CycleUsage) -> None:
        pending = self._pending_issue
        issued = 0
        if pending:
            width = cons.issue_width
            if self._issue_width_cfg < width:
                width = self._issue_width_cfg
            # single select pass: the kept-ops list is only built from
            # the first successful issue on, so a cycle that issues
            # nothing costs one scan and no allocation
            keep: Optional[List[InflightOp]] = None
            for i, op in enumerate(pending):
                if issued >= width:
                    if keep is not None:
                        keep.extend(pending[i:])
                    break
                if (op.issued_cycle is None and op.unresolved == 0
                        and op.ready_cycle <= c
                        and self._try_issue_one(op, c, cons, usage)):
                    issued += 1
                    if keep is None:
                        keep = pending[:i]
                elif keep is not None:
                    keep.append(op)
            if keep is not None:
                self._pending_issue = keep
        usage.issued = issued
        self._issued_ring[c % self._ring_size] = issued

    def _try_issue_one(self, op: InflightOp, c: int,
                       cons: CycleConstraints, usage: CycleUsage) -> bool:
        uop = op.uop
        if uop.is_load:
            return self._issue_load(op, c, cons, usage)
        if uop.is_store:
            return self._issue_store(op, c, usage)
        return self._issue_exec(op, c, usage)

    def _issue_exec(self, op: InflightOp, c: int, usage: CycleUsage) -> bool:
        uop = op.uop
        spec = FU_LATENCY[uop.op_class]
        ex_start = c + self._issue_to_execute
        unit = self.fupool.try_allocate(uop.op_class, ex_start)
        if unit is None:
            return False
        latency = spec.latency
        fu_class = unit.fu_class
        index = unit.index
        activity = self._fu_activity
        for cc in range(ex_start, ex_start + latency):
            per_cycle = activity.get(cc)
            if per_cycle is None:
                activity[cc] = {fu_class: {index}}
            else:
                claimed = per_cycle.get(fu_class)
                if claimed is None:
                    per_cycle[fu_class] = {index}
                else:
                    claimed.add(index)
        usage.grants.append((fu_class, index, latency))
        op.issued_cycle = c
        op.schedule(c + latency)
        complete = c + 1 + latency
        calendar = (self._bus_complete if uop.dest is not None
                    else self._other_complete)
        waiting = calendar.get(complete)
        if waiting is None:
            calendar[complete] = [op]
        else:
            waiting.append(op)
        if uop.is_branch:
            resolve = self._resolve_at
            waiting = resolve.get(ex_start)
            if waiting is None:
                resolve[ex_start] = [op]
            else:
                waiting.append(op)
        if uop.is_fp:
            usage.issued_fp += 1
        return True

    def _issue_load(self, op: InflightOp, c: int, cons: CycleConstraints,
                    usage: CycleUsage) -> bool:
        uop = op.uop
        addr = uop.mem_addr
        store = self._store_map.get(addr)
        forwarding_from: Optional[InflightOp] = None
        if store is not None and store.seq < op.seq and not store.committed:
            if not store.issued:
                return False  # wait for the older store's address/data
            forwarding_from = store
        mem_cycle = c + self._issue_to_mem
        port_loads = self._port_loads
        loads_now = port_loads.get(mem_cycle, 0)
        port_used = loads_now + self._port_stores.get(mem_cycle, 0)
        if port_used >= cons.dcache_ports:
            return False
        if self.fupool.try_allocate(uop.op_class, mem_cycle) is None:
            return False  # all memory-issue ports busy
        port_loads[mem_cycle] = loads_now + 1
        self._last_mem_addr = addr
        raw_latency = self.hierarchy.load(addr)
        hit_latency = self._l1d_hit_latency
        if forwarding_from is not None:
            data_ready = (forwarding_from.issued_cycle
                          + self._issue_to_execute)
            latency = hit_latency
            ready = max(c + 1 + latency, data_ready + 1)
            op.forwarded = True
            self.stats.forwarded_loads += 1
        else:
            latency = raw_latency
            ready = c + 1 + latency
        op.mem_latency = latency
        op.issued_cycle = c
        op.schedule(ready)
        self._bus_complete.setdefault(ready + 1, []).append(op)
        usage.issued_loads += 1
        self.stats.loads += 1
        return True

    def _issue_store(self, op: InflightOp, c: int, usage: CycleUsage) -> bool:
        # stores compute address+data in EX and wait in the LSQ; the
        # cache access happens at commit
        mem_cycle = c + self._issue_to_mem
        if self.fupool.try_allocate(op.uop.op_class, mem_cycle) is None:
            return False
        op.issued_cycle = c
        op.schedule(c + 1)  # stores produce no register value
        self._other_complete.setdefault(
            c + self._issue_to_execute, []).append(op)
        usage.issued_stores += 1
        return True

    # ------------------------------------------------------------------
    # dispatch (rename -> window)
    # ------------------------------------------------------------------

    def _do_dispatch(self, c: int, cons: CycleConstraints,
                     usage: CycleUsage) -> None:
        dispatched = 0
        frontend = self._frontend
        if frontend:
            width = self._decode_width
            if cons.rename_width < width:
                width = cons.rename_width
            window = self._window
            window_size = self._window_size
            lsq_size = self._lsq_size
            reg_producer = self._reg_producer
            pending_issue = self._pending_issue
            capturing = len(self.captured_ops) < self._capture_limit
            next_ready = c + 1
            while (frontend and dispatched < width
                   and len(window) < window_size):
                entry = frontend[0]
                if entry.ready_cycle > c:
                    break
                uop = entry.uop
                if uop.is_mem and self._lsq_count >= lsq_size:
                    break
                frontend.popleft()
                op = InflightOp(uop, c)
                op.ready_cycle = next_ready
                op.wrong_path = entry.wrong_path
                if uop.is_branch:
                    op.predicted_taken, op.predicted_target = entry.prediction
                    if entry.is_mispredicted_branch:
                        # checkpoint the rename map so the wrong path the
                        # fetch stage is about to inject can be undone
                        self._checkpoint = (op, dict(reg_producer))
                for src in uop.srcs:
                    producer = reg_producer.get(src)
                    if producer is not None and not producer.committed:
                        op.add_producer(producer)
                if uop.dest is not None:
                    reg_producer[uop.dest] = op
                if uop.is_mem:
                    self._lsq_count += 1
                    if uop.is_store:
                        self._store_map[uop.mem_addr] = op
                window.append(op)
                pending_issue.append(op)
                if capturing and len(self.captured_ops) < self._capture_limit:
                    self.captured_ops.append(op)
                dispatched += 1
        usage.dispatched = dispatched
        usage.renamed = dispatched

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _do_fetch(self, c: int, usage: CycleUsage) -> None:
        if self._fetch_frozen or c < self._fetch_blocked_until:
            if (self._wp_active and not (c < self._fetch_blocked_until)
                    and self.config.model_wrong_path):
                self._fetch_wrong_path(c, usage)
            else:
                usage.fetch_stalled = True
            return
        fetched = 0
        line_bytes = self._line_bytes
        stream = self.stream
        frontend = self._frontend
        fetch_width = self._fetch_width
        cap = self._frontend_cap
        ready = c + self._front_latency
        while fetched < fetch_width and len(frontend) < cap:
            uop = stream.peek()
            if uop is None:
                break
            line = uop.pc // line_bytes
            if line != self._last_fetch_line:
                latency = self.hierarchy.fetch(uop.pc)
                self._last_fetch_line = line
                if latency > self._l1i_hit_latency:
                    self._fetch_blocked_until = c + latency
                    break
            uop = stream.next()
            entry = _FrontendEntry(uop, ready)
            frontend.append(entry)
            fetched += 1
            self.stats.fetched += 1
            if uop.is_branch:
                stop = self._fetch_branch(uop, entry)
                if stop:
                    break
        usage.fetched = fetched
        usage.decoded = fetched  # decode keeps pace with fetch
        if fetched == 0:
            usage.fetch_stalled = True

    def _fetch_branch(self, uop: MicroOp, entry: _FrontendEntry) -> bool:
        """Predict a fetched branch; returns True when fetch must stop
        (taken branch ends the fetch block; mispredict freezes fetch)."""
        predicted_taken, predicted_target = self.predictor.predict(uop.pc)
        mispredicted = (predicted_taken != uop.taken
                        or (uop.taken and predicted_target != uop.target))
        entry.prediction = (predicted_taken, predicted_target)
        if mispredicted:
            self._fetch_frozen = True
            if self.config.model_wrong_path:
                entry.is_mispredicted_branch = True
                self._wp_active = True
                # the path the front end believes in: the predicted
                # target if it predicted taken, else the fall-through
                self._wp_pc = (predicted_target if predicted_taken
                               and predicted_target is not None
                               else uop.pc + 4)
                self._wp_seq = uop.seq + 1
            return True
        return uop.taken

    def _fetch_wrong_path(self, c: int, usage: CycleUsage) -> None:
        """Inject synthetic wrong-path micro-ops while a mispredicted
        branch is unresolved.  They fetch, decode, dispatch, and issue
        like real work — burning front-end bandwidth and back-end
        resources — and are squashed at resolution."""
        fetched = 0
        line_bytes = self._line_bytes
        while (fetched < self._fetch_width
               and len(self._frontend) < self._frontend_cap):
            line = self._wp_pc // line_bytes
            if line != self._last_fetch_line:
                latency = self.hierarchy.fetch(self._wp_pc)
                self._last_fetch_line = line
                if latency > self._l1i_hit_latency:
                    self._fetch_blocked_until = c + latency
                    break
            uop = self._synth_wrong_path_op()
            entry = _FrontendEntry(uop, c + self._front_latency)
            entry.wrong_path = True
            self._frontend.append(entry)
            fetched += 1
            self.stats.wrong_path_fetched += 1
        usage.fetched = fetched
        usage.decoded = fetched
        if fetched == 0:
            usage.fetch_stalled = True

    def _synth_wrong_path_op(self) -> MicroOp:
        pc = self._wp_pc
        self._wp_pc += 4
        seq = self._wp_seq
        self._wp_seq += 1
        dest = 20 + (self._wp_dest % 8)
        self._wp_dest += 1
        if self._wp_rng.random() < 0.25:
            # wrong-path loads pollute the D-cache near recent traffic
            offset = 8 * self._wp_rng.randrange(-64, 64)
            addr = max(0, (self._last_mem_addr & ~7) + offset)
            return MicroOp(seq, pc, OpClass.LOAD, dest=dest, mem_addr=addr)
        return MicroOp(seq, pc, OpClass.IALU, dest=dest)

    # ------------------------------------------------------------------
    # per-cycle bookkeeping
    # ------------------------------------------------------------------

    def _finish_cycle(self, c: int, usage: CycleUsage) -> None:
        # gated-stage latch usage from the delayed issue one-hots; the
        # ring holds the last ring_size issue counts and unwritten slots
        # are still zero, matching the "before cycle 0" ground state
        ring = self._issued_ring
        size = self._ring_size
        rf = 0
        for off in self._rf_offsets:
            rf += ring[(c - off) % size]
        ex = 0
        for off in self._ex_offsets:
            ex += ring[(c - off) % size]
        mem = 0
        for off in self._mem_offsets:
            mem += ring[(c - off) % size]
        latch_slots = usage.latch_slots
        latch_slots["regread"] = rf
        latch_slots["execute"] = ex
        latch_slots["mem"] = mem
        latch_slots["rename"] = usage.renamed * self._rename_depth

        activity = self._fu_activity.pop(c, None)
        fu_active = usage.fu_active
        if activity is None:
            for fu_class, all_idle, _indices in self._fu_rows:
                fu_active[fu_class] = all_idle
        else:
            for fu_class, all_idle, indices in self._fu_rows:
                claimed = activity.get(fu_class)
                if claimed is None:
                    fu_active[fu_class] = all_idle
                else:
                    fu_active[fu_class] = tuple(
                        i in claimed for i in indices)
        usage.dcache_load_ports = self._port_loads.pop(c, 0)
        usage.dcache_store_ports = self._port_stores.pop(c, 0)
        usage.window_occupancy = len(self._window)
        usage.lsq_occupancy = self._lsq_count
        self.stats.cycles = c + 1
