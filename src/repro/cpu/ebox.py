"""The EBOX: the 11/780's microcoded execution engine.

Every cycle the EBOX spends is charged to a control-store address and
strobed into the micro-PC monitor, faithfully reproducing the paper's
measurement channel:

* non-stalled microinstruction executions count in the normal bank;
* read- and write-stall cycles count in the *stalled* bank at the address
  of the read/write microinstruction that incurred them (Section 4.3);
* IB stalls are executions of the "insufficient bytes" dispatch target in
  whichever activity requested the bytes;
* a TB miss costs one abort cycle (the microtrap) plus the miss-service
  routine in the memory-management region;
* unaligned references detour through the alignment microcode.

The EBOX is also where instruction semantics happen: specifier processing
reads operands, execute handlers (:mod:`repro.cpu.semantics`) do the
work, and result stores charge the destination specifier's write slot —
"a simple integer Move ... is accomplished entirely by specifier
microcode: first a read, then a write" (Section 3.2).

An instruction runs on one of two paths that must count bit-identically:
the per-microcycle interpreter (:meth:`EBox._step_interpreted`) or the
replay of a compiled record (:func:`repro.core.compile.execute_record`).
Both run inside one instruction frame owned here —
:meth:`EBox._begin_instruction` before the specifiers, :meth:`EBox._retire`
around the execute handler — and share one clock (cycles, monitor and
prefetcher advance together), one decode-cycle rule, and one
memory-reference charge (:meth:`EBox._reference`).  The replay differs
only in batching a record's static charges.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.datatypes import DataType
from repro.isa.opcodes import OPCODES, Opcode
from repro.isa.psl import AccessMode, ProcessorStatus
from repro.isa.registers import RegisterFile
from repro.isa.specifiers import AccessType, OperandSpec
from repro.memory.subsystem import MemorySubsystem, PageFault
from repro.memory.tb import TBMiss
from repro.cpu.events import EventCounters
from repro.cpu.ibuffer import InstructionBuffer
from repro.cpu.operands import (
    IllegalInstruction,
    OperandRef,
    decode_branch_displacement,
    decode_specifier,
    merges_execute,
    plan_specifier,
    resolve_operand,
)
from repro.ucode.costs import (
    EXCEPTION_ENTRY_COMPUTE_CYCLES,
    EXCEPTION_ENTRY_WRITES,
    INTERRUPT_ENTRY_COMPUTE_CYCLES,
    TB_MISS_COMPUTE_CYCLES,
    UNALIGNED_EXTRA_CYCLES,
    exec_profile,
)
from repro.ucode.microword import MicroSlot
from repro.ucode.routines import MicrocodeLayout, build_layout

#: Safety valve: a single instruction stalled this long means a modelling
#: bug, not a slow memory.
_STALL_WATCHDOG_CYCLES = 100_000

# Slot indices into Routine.slot_addrs.  The cycle-charging path runs
# once per simulated microcycle; plain ints avoid enum hashing there.
_COMPUTE_A = MicroSlot.COMPUTE_A.value
_COMPUTE_B = MicroSlot.COMPUTE_B.value
_READ = MicroSlot.READ.value
_WRITE = MicroSlot.WRITE.value
_IB_WAIT = MicroSlot.IB_WAIT.value


class HaltExecution(Exception):
    """Raised when the processor halts (HALT opcode or fatal fault)."""


class EBox:
    """The microcoded EBOX plus the I-Fetch and I-Decode stages it drives."""

    def __init__(
        self,
        memory: MemorySubsystem,
        layout: Optional[MicrocodeLayout] = None,
        monitor=None,
        events: Optional[EventCounters] = None,
        machine=None,
        tracer=None,
    ):
        self.memory = memory
        self.layout = layout if layout is not None else build_layout()
        self.monitor = monitor  # UPCMonitor or None
        self.events = events if events is not None else EventCounters()
        self.machine = machine  # VAX780 back-reference (hooks)
        self.regs = RegisterFile()
        self.psl = ProcessorStatus()
        self.ib = InstructionBuffer(memory)
        self.cycle_count = 0
        self.halted = False
        #: per-access-mode stack pointers (kernel..user); the active one
        #: lives in R14 and is swapped on mode change.
        self.mode_sps = [0, 0, 0, 0]
        #: processor registers (MTPR/MFPR space)
        self.pr: Dict[int, int] = {}
        #: ablation knobs: overlap the decode cycle with the previous
        #: instruction (what the later 11/750 did), and the float-execute
        #: slowdown applied when no Floating Point Accelerator is fitted.
        self.decode_overlap = False
        self.float_slowdown = 1
        # per-instruction state
        self.current_opcode: Optional[Opcode] = None
        self.branch_displacement: Optional[int] = None
        self._exec_routine = None
        self._exec_a_used = False
        self._merge_pending = False
        self._last_source_routine = None
        self._instruction_start_cycle = 0
        self._last_instruction_redirected = True
        # Observability: a passive event tracer (repro.obs.trace.Tracer)
        # or None.  Guards sit on per-instruction / per-episode paths
        # only — never inside the per-microcycle tick itself.
        self._tracer = tracer
        self._bind_transients()

    def _bind_transients(self) -> None:
        """(Re)create everything pickling drops.

        Hot-path bindings (the monitor's board and bucket fold, the
        dispatch entry point and the replay compiler's entry points are
        bound once instead of re-resolved every cycle), the replay
        compiler's per-machine state, and the tracer wiring.  Runs from
        ``__init__``, ``__setstate__`` and ``set_tracer`` so fresh,
        restored and re-traced machines are indistinguishable.
        """
        monitor = self.monitor
        tracer = self._tracer
        self._board = monitor.board if monitor is not None else None
        self._bucket_map = monitor._bucket_map if monitor is not None else None
        from repro.core import compile as replay  # deferred imports break the cycle
        from repro.core.monitor import HISTOGRAM_BUCKETS
        from repro.cpu.semantics import dispatch

        self._dispatch = dispatch
        self.ib.tracer = tracer
        # The compiled hot path (repro.core.compile).  Active only when
        # nothing needs the per-cycle interpreted path: no tracer (the
        # tracer's spans narrate individual specifiers and stalls), the
        # standard 16,000-bucket board, and no REPRO_NO_COMPILE=1.
        self._resolve_record = replay.resolve
        self._execute_record = replay.execute_record
        self._peek_image = replay.peek_image
        # Preserved across tracer swaps (records and diagnostics are
        # mode-independent); created fresh on construction and restore.
        if "_record_cache" not in self.__dict__:
            # Replay caches are keyed by decode VA, and a VA only names
            # code *within one address space*: at a context switch the
            # same VA maps to a different process's bytes.  One record
            # cache per P0 page table, swapped when dispatch notices the
            # table changed, keeps a process's records warm across
            # switches instead of letting processes evict each other's
            # entries forever.
            self._record_cache = {}
            self._space_caches = {None: self._record_cache}
            self._cache_space = None
        if "compile_stats" not in self.__dict__:
            self.compile_stats = replay.CompileStats()
        # The costs.skew fault site (repro.testing.faults): when armed,
        # the named micro-routine overcharges compute cycles — the
        # seeded model error the refutation suite exists to catch.  The
        # compiled path replays charges from specialized programs that
        # never consult the skew, so an armed skew forces the
        # interpreted path in every mode: both arms then disagree
        # with the analytic model identically instead of disagreeing
        # with each other.
        from repro.testing.faults import cost_skew

        self._cost_skew = cost_skew()
        would_compile = (
            self._cost_skew is None
            and not replay.compile_disabled_by_env()
            and (self._board is None or self._board.buckets == HISTOGRAM_BUCKETS)
        )
        self._compile_active = tracer is None and would_compile
        #: True when an attached tracer — and nothing else — is what
        #: keeps the compiled path off.  Surfaced as the
        #: ``sim.compile.disabled_by_tracer`` metric and warned about
        #: once per machine: a silent 1.6x mode switch poisons A/B
        #: numbers.
        self._compile_disabled_by_tracer = tracer is not None and would_compile
        if self._compile_disabled_by_tracer and not self.__dict__.get(
            "_tracer_fallback_warned"
        ):
            self._tracer_fallback_warned = True
            from repro.obs.log import get_logger

            get_logger("compile").warn(
                "tracer attached: compiled hot path disabled, "
                "running interpreted (timings are not comparable to "
                "untraced runs; counted results are bit-identical)"
            )
        # The compile-lifecycle event channel (repro.obs.channel).
        # Unlike the tracer it does not change which path runs; it is
        # preserved across rebinds so attach order never matters.
        if "_compile_events" not in self.__dict__:
            self._compile_events = None
        if self._compile_active:
            self.compile_stats.routines_specialized = len(
                replay.specialize_layout(self.layout)
            )

    #: attributes _bind_transients owns; dropped from pickles so machine
    #: snapshots are byte-identical whether the run that produced them
    #: was compiled or interpreted (and so bound methods, replay caches
    #: and diagnostics never bloat the snapshot).
    _TRANSIENTS = (
        "_cost_skew",
        "_board",
        "_bucket_map",
        "_dispatch",
        "_tracer",
        "_resolve_record",
        "_execute_record",
        "_peek_image",
        "_record_cache",
        "_space_caches",
        "_cache_space",
        "compile_stats",
        "_compile_active",
        "_compile_disabled_by_tracer",
        "_tracer_fallback_warned",
        "_compile_events",
    )

    def set_compile_events(self, channel) -> None:
        """Attach (``None``: detach) the compile-lifecycle event
        channel (:class:`repro.obs.channel.EventChannel`).  Strictly
        passive *and* path-neutral: unlike a tracer, an attached
        channel leaves the compiled path enabled — that is its whole
        point."""
        self._compile_events = channel

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in self._TRANSIENTS:
            state.pop(name, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        # Tracers are deliberately not carried through pickles; snapshot
        # restore wires one (or none) via machine.attach_tracer.
        self._tracer = None
        self._bind_transients()

    def set_tracer(self, tracer) -> None:
        """(Re)bind the passive tracer, keeping the fast paths honest.

        Snapshot capture detaches the tracer before pickling and restore
        attaches the caller's (or none); the IB's tracer and the
        compiled-path gate must track the tracer, so all tracer swaps go
        through here."""
        self._tracer = tracer
        self._bind_transients()

    # ------------------------------------------------------------------
    # cycle accounting
    # ------------------------------------------------------------------

    def _tick_slot(self, routine, slot: int, count: int = 1, stalled: bool = False) -> None:
        """Spend ``count`` cycles at slot index ``slot`` of ``routine``.

        The one clock: the monitor's count-board step, then the EBOX
        cycle count, then the same number of background cycles for the
        I-Fetch hardware — prefetch proceeds underneath computation and
        stalls alike.  The replay's batched ADVANCE ops do the same
        three steps over a whole burst.
        """
        if count <= 0:
            return
        if routine.patched and slot == _COMPUTE_A:
            # A patched entry microinstruction costs one abort cycle per
            # execution (the microsequencer detours through the patch
            # area), in addition to its normal cycle.  The abort routine
            # is allocated after the patch markers, so it is never
            # patched itself.
            self._tick_slot(self.layout.abort, _COMPUTE_A)
        board = self._board
        if board is not None and board._collecting:
            bucket = self._bucket_map[routine.slot_addrs[slot]]
            if stalled:
                board._stalled_counts[bucket] += count
            else:
                board._counts[bucket] += count
        self.cycle_count += count
        ib = self.ib
        end = ib._now + count
        if end < ib._wake:
            ib._now = end  # nothing is due: the IB's run() in one comparison
        else:
            ib.run(count)

    def _charge_compute(self, routine, cycles: int) -> None:
        """Spend compute cycles: first at COMPUTE_A, the rest at COMPUTE_B."""
        skew = self._cost_skew
        if skew is not None and routine.name == skew[0]:
            cycles += skew[1]
        if cycles <= 0:
            return
        self._tick_slot(routine, _COMPUTE_A)
        if cycles > 1:
            self._tick_slot(routine, _COMPUTE_B, count=cycles - 1)

    # ------------------------------------------------------------------
    # memory references with microtrap handling
    # ------------------------------------------------------------------

    def data_read(self, va: int, size: int, routine, source: str) -> int:
        """One D-stream read, with TB-miss/page-fault service and charging."""
        # The fused all-hit path: no stall, no unaligned detour, no
        # outcome object.  Identical counters and ticks to a zero-stall
        # aligned hit on the general path below.
        value = self.memory.read_fast(va, size)
        if value is not None:
            self._tick_slot(routine, _READ)
            self.events.reads_by_source[source] += 1
            return value
        while True:
            try:
                outcome = self.memory.read(va, size, now=self.cycle_count)
                break
            except TBMiss as miss:
                self._service_tb_miss(miss.va, write=False)
            except PageFault as fault:
                self._deliver_page_fault(fault)
        self._reference(routine, _READ, outcome.stall_cycles, "va", va)
        if outcome.unaligned:
            self._charge_unaligned(read=True)
        self.events.reads_by_source[source] += 1
        return outcome.value

    def data_write(self, va: int, size: int, value: int, routine, source: str) -> None:
        """One D-stream write, with TB-miss/page-fault service and charging."""
        # Fused aligned path: a write proceeds whether the cache hit or
        # not, so only a TB miss (microtrap), a straddling span or a
        # trace hook falls through to the general loop.
        stall = self.memory.write_fast(va, size, value, self.cycle_count)
        if stall is not None:
            self._reference(routine, _WRITE, stall, "va", va)
            self.events.writes_by_source[source] += 1
            return
        while True:
            try:
                outcome = self.memory.write(va, size, value, now=self.cycle_count)
                break
            except TBMiss as miss:
                self._service_tb_miss(miss.va, write=True)
            except PageFault as fault:
                self._deliver_page_fault(fault)
        self._reference(routine, _WRITE, outcome.stall_cycles, "va", va)
        if outcome.unaligned:
            self._charge_unaligned(read=False)
        self.events.writes_by_source[source] += 1

    def _reference(self, routine, slot: int, stall: int, key: str, address: int) -> None:
        """Charge one memory reference at ``routine``'s read or write slot.

        The reference's own cycle, then its ``stall`` cycles in the
        stalled bank at the same microinstruction (Section 4.3), then —
        when traced — a MEM stall span naming the address (``key`` is
        ``"va"`` or ``"pa"``) and the routine.
        """
        self._tick_slot(routine, slot)
        if stall:
            stall_start = self.cycle_count
            self._tick_slot(routine, slot, count=stall, stalled=True)
            tracer = self._tracer
            if tracer is not None:
                tracer.complete(
                    "MEM",
                    stall_start,
                    "read stall" if slot == _READ else "write stall",
                    stall,
                    {key: address, "routine": routine.name},
                )

    def _charge_unaligned(self, read: bool) -> None:
        """The alignment microcode's extra work for a straddling reference."""
        alignment = self.layout.alignment
        self._charge_compute(alignment, UNALIGNED_EXTRA_CYCLES)
        slot = _READ if read else _WRITE
        self._tick_slot(alignment, slot)

    def _service_tb_miss(self, va: int, write: bool) -> None:
        """Microtrap into the TB-miss service routine.

        One abort cycle (the trap), then the service routine: compute
        cycles plus the PTE read, whose own cache miss shows up as read
        stall inside memory management — the paper's 21.6-cycle average
        with 3.5 stall cycles.
        """
        tracer = self._tracer
        if tracer is not None:
            tracer.begin("UCODE", self.cycle_count, "tb miss service", {"va": va, "write": write})
        self._tick_slot(self.layout.abort, _COMPUTE_A)
        routine = self.layout.tb_miss
        self._charge_compute(routine, TB_MISS_COMPUTE_CYCLES)
        while True:
            try:
                fill = self.memory.service_tb_miss(va, write=write, now=self.cycle_count)
                break
            except PageFault as fault:
                self._deliver_page_fault(fault)
        self._tick_slot(routine, _READ)
        if fill.pte_read_stall_cycles:
            self._tick_slot(
                routine, _READ, count=fill.pte_read_stall_cycles, stalled=True
            )
        if tracer is not None:
            tracer.end("UCODE", self.cycle_count)

    def _deliver_page_fault(self, fault: PageFault) -> None:
        """Exception entry plus the pager's work.

        The reproduction services faults inline (map the page, charge the
        delivery microcode and the pager's kernel activity) rather than
        aborting and restarting the instruction; DESIGN.md documents this
        simplification — frequencies and cycle accounting are preserved.
        """
        self.events.page_faults += 1
        if self._tracer is not None:
            self._tracer.instant(
                "VMS",
                self.cycle_count,
                "page fault",
                {"va": fault.va, "write": fault.write},
            )
        routine = self.layout.exception
        self._charge_compute(routine, EXCEPTION_ENTRY_COMPUTE_CYCLES)
        self._tick_slot(routine, _WRITE, count=EXCEPTION_ENTRY_WRITES)
        for _ in range(EXCEPTION_ENTRY_WRITES):
            self.events.writes_by_source["other"] += 1
        if self.machine is None or not self.machine.handle_page_fault(fault.va, fault.write):
            raise HaltExecution(
                "unrecoverable page fault at {:#010x}".format(fault.va)
            )

    # ------------------------------------------------------------------
    # I-stream consumption
    # ------------------------------------------------------------------

    def _take_bytes(self, count: int, wait_routine) -> bytes:
        """Consume I-stream bytes, spending IB-stall cycles as needed."""
        ib = self.ib
        waited = 0
        while True:
            data = ib.try_consume(count)
            if data is not None:
                if waited and self._tracer is not None:
                    self._tracer.instant(
                        "IFETCH",
                        self.cycle_count,
                        "ib stall",
                        {"cycles": waited, "routine": wait_routine.name},
                    )
                return data
            if ib.tb_miss_pending:
                self._service_istream_tb_miss()
                continue
            # No byte can arrive before the IB's next event: stall until
            # it in one charge (never past the watchdog).
            stall = ib._wake - ib._now
            if waited + stall > _STALL_WATCHDOG_CYCLES:
                stall = _STALL_WATCHDOG_CYCLES + 1 - waited
            self._tick_slot(wait_routine, _IB_WAIT, count=stall)
            waited += stall
            if waited > _STALL_WATCHDOG_CYCLES:
                raise HaltExecution(
                    "IB stall watchdog at va {:#010x}".format(ib.decode_va)
                )

    def _service_istream_tb_miss(self) -> None:
        """The deferred I-stream TB miss, noticed when bytes ran out."""
        self._service_tb_miss(self.ib.fetch_va, write=False)
        self.ib.clear_tb_miss()

    # ------------------------------------------------------------------
    # specifier processing
    # ------------------------------------------------------------------

    def _process_specifier(self, position: int, spec: OperandSpec) -> OperandRef:
        """Decode, plan, charge and resolve one operand specifier."""
        tracer = self._tracer
        if tracer is not None:
            # The span opens before any bytes are consumed (nested
            # IB-stall / TB-miss events must fall inside it); the
            # addressing mode is only known at the close, so it rides on
            # the end event's args.
            tracer.begin("UCODE", self.cycle_count, "spec1" if position == 0 else "spec26")
        layout = self.layout
        wait_routine = layout.spec1_wait if position == 0 else layout.spec26_wait
        decoded = decode_specifier(
            lambda n: self._take_bytes(n, wait_routine), spec.dtype
        )
        plan = plan_specifier(layout, position, spec, decoded)
        for routine, cycles in plan.charges:
            self._charge_compute(routine, cycles)
        operand = resolve_operand(self, plan)
        if spec.access is AccessType.READ:
            # The last source specifier, for the literal/register
            # execute merge (see merges_execute).
            self._last_source_routine = plan.routine
        if tracer is not None:
            tracer.end("UCODE", self.cycle_count, {"mode": operand.mode.name})
        return operand

    # ------------------------------------------------------------------
    # execute-phase services for semantics handlers
    # ------------------------------------------------------------------

    def exec_compute(self, cycles: int = 1) -> None:
        """Spend execute-phase compute cycles at the current opcode's routine."""
        skew = self._cost_skew
        if skew is not None and self._exec_routine.name == skew[0]:
            cycles += skew[1]
        if cycles <= 0:
            return
        if self._merge_pending:
            # The literal/register optimization: the first execute cycle
            # is combined with the last specifier cycle (already charged
            # in the specifier row).
            self._merge_pending = False
            cycles -= 1
            if cycles <= 0:
                return
        routine = self._exec_routine
        if not self._exec_a_used:
            self._tick_slot(routine, _COMPUTE_A)
            self._exec_a_used = True
            cycles -= 1
        if cycles > 0:
            self._tick_slot(routine, _COMPUTE_B, count=cycles)

    def exec_loop(self, cycles: int) -> None:
        """Loop-body compute cycles (always the COMPUTE_B slot)."""
        if cycles > 0:
            self._tick_slot(self._exec_routine, _COMPUTE_B, count=cycles)

    def exec_read(self, va: int, size: int) -> int:
        """An execute-phase memory read (stack pops, string loops ...)."""
        return self.data_read(va, size, self._exec_routine, self.current_opcode.group_name)

    def exec_write(self, va: int, size: int, value: int) -> None:
        """An execute-phase memory write (stack pushes, string stores ...)."""
        self.data_write(va, size, value, self._exec_routine, self.current_opcode.group_name)

    def exec_read_physical(self, pa: int, size: int) -> int:
        """A physically-addressed execute-phase read (PCB traffic)."""
        outcome = self.memory.read_physical(pa, size, now=self.cycle_count)
        self._reference(self._exec_routine, _READ, outcome.stall_cycles, "pa", pa)
        self.events.reads_by_source[self.current_opcode.group_name] += 1
        return outcome.value

    def exec_write_physical(self, pa: int, size: int, value: int) -> None:
        """A physically-addressed execute-phase write (PCB traffic)."""
        outcome = self.memory.write_physical(pa, size, value, now=self.cycle_count)
        self._reference(self._exec_routine, _WRITE, outcome.stall_cycles, "pa", pa)
        self.events.writes_by_source[self.current_opcode.group_name] += 1

    def push(self, value: int) -> None:
        """Push one longword onto the current stack."""
        sp = (self.regs.sp - 4) & 0xFFFFFFFF
        self.regs.sp = sp
        self.exec_write(sp, 4, value)

    def pop(self) -> int:
        """Pop one longword from the current stack."""
        sp = self.regs.sp
        value = self.exec_read(sp, 4)
        self.regs.sp = (sp + 4) & 0xFFFFFFFF
        return value

    def store(self, operand: OperandRef, value: int) -> None:
        """Store an instruction result through its destination specifier.

        Register stores ride on cycles already charged; memory stores
        execute the specifier routine's write microinstruction.
        """
        dtype = operand.dtype
        if operand.is_register:
            if dtype is DataType.QUAD:
                self.regs.write(operand.register, value & 0xFFFFFFFF)
                self.regs.write((operand.register + 1) & 0xF, (value >> 32) & 0xFFFFFFFF)
            else:
                size = operand.size
                if size < 4:
                    # Sub-longword register writes merge into the low bits.
                    old = self.regs.read(operand.register)
                    mask = (1 << (8 * size)) - 1
                    value = (old & ~mask) | (value & mask)
                self.regs.write(operand.register, value & 0xFFFFFFFF)
            return
        if operand.address is None:
            raise IllegalInstruction("store to a valueless operand")
        size = operand.size
        table5_row = "spec1" if operand.position_class == "spec1" else "spec2_6"
        self.data_write(operand.address, size, value, operand.routine, table5_row)

    # -- branching ---------------------------------------------------------

    def branch_with_displacement(self, taken: bool) -> None:
        """Resolve a branch-displacement branch (Table 2 accounting is the
        caller's job).  When taken: one B-DISP compute cycle to form the
        target, one execute cycle to redirect the IB."""
        opcode = self.current_opcode
        if not taken:
            return
        self._tick_slot(self.layout.bdisp, _COMPUTE_A)
        target = (self.ib.decode_va + self.branch_displacement) & 0xFFFFFFFF
        self._redirect(target)

    def jump(self, target: int) -> None:
        """Redirect to a target from a specifier or implicit source."""
        self._redirect(target)

    def _redirect(self, target: int) -> None:
        profile = exec_profile(self.current_opcode)
        if profile.taken_extra_cycles:
            self.exec_loop(profile.taken_extra_cycles)
        self.ib.redirect(target)

    def record_branch(self, taken: bool) -> None:
        """Table 2 accounting for the current PC-changing instruction."""
        branch_class = self.current_opcode.branch_class
        if branch_class is not None:
            self.events.record_branch(branch_class.value, taken)

    # -- mode/stack plumbing -------------------------------------------------

    def switch_mode(self, new_mode: AccessMode) -> None:
        """Change access mode, swapping the per-mode stack pointers."""
        old_mode = self.psl.current_mode
        if new_mode is old_mode:
            return
        self.mode_sps[int(old_mode)] = self.regs.sp
        self.psl.previous_mode = old_mode
        self.psl.current_mode = new_mode
        self.regs.sp = self.mode_sps[int(new_mode)]

    # ------------------------------------------------------------------
    # the instruction loop
    # ------------------------------------------------------------------

    def reset(self, start_va: int, sp: int = 0, mode: AccessMode = AccessMode.KERNEL) -> None:
        """Point the machine at ``start_va`` with a fresh pipeline."""
        self.psl.current_mode = mode
        self.regs.sp = sp
        self.regs.pc = start_va
        self.ib.redirect(start_va)
        self.halted = False

    def step(self) -> bool:
        """Run one instruction (or deliver one interrupt).

        Returns False once halted.
        """
        if self.halted:
            return False

        machine = self.machine
        if machine is not None and machine.interrupts.requests:
            pending = machine.pending_interrupt(self.psl.ipl)
            if pending is not None:
                self._deliver_interrupt(*pending)
                return True

        if self._compile_active:
            return self._step_compiled()
        return self._step_interpreted()

    def _switch_space(self, space) -> None:
        """Activate the replay caches for the current P0 address space.

        Keyed by page-table object identity; tables live as long as
        their process, so an entry here never outlives the code it
        caches.
        """
        cache = self._space_caches.get(space)
        if cache is None:
            cache = self._space_caches[space] = {}
        self._record_cache = cache
        self._cache_space = space

    def _step_compiled(self) -> bool:
        """Replay the next instruction from its compiled record.

        Anything without a valid record — bytes not fully buffered yet,
        permanently uncompilable instructions, a stale cache entry —
        falls through to :meth:`_interpret` for this execution.
        """
        space = self.memory.page_tables["p0"]
        if space is not self._cache_space:
            self._switch_space(space)
        ib = self.ib
        va = ib._decode_va
        stats = self.compile_stats
        record = self._record_cache.get(va)
        if record is None:
            cause = "unresolved"
        elif self._try_replay(record, stats):
            return not self.halted
        elif record.never and ib._bytes.startswith(record.raw):
            return self._interpret(stats, "uncompilable", va)
        else:
            # Bytes at this address changed (process aliasing or a
            # rewritten program): re-resolve against the buffer.
            stats.byte_fallbacks += 1
            cause = "byte_mismatch"
        probe = ib._bytes
        if len(probe) < 8:
            # The IB was flushed (taken branch) or is still filling:
            # resolve against the side-effect-free lookahead image of
            # what the prefetcher will deliver.
            image = self._peek_image(self)
            if image is not None and len(image) > len(probe):
                probe = image
        compiled_before = stats.records_compiled
        record = self._resolve_record(self.layout, probe, stats) if probe else None
        if record is None and len(probe) >= 8:
            # A full IB that still would not resolve usually means an
            # instruction longer than the buffer: extend the probe by
            # lookahead up to the record image cap.
            image = self._peek_image(self)
            if image is not None and len(image) > len(probe):
                record = self._resolve_record(self.layout, image, stats)
        if record is None:
            return self._interpret(stats, cause, va)
        self._record_cache[va] = record
        channel = self._compile_events
        if channel is not None and stats.records_compiled > compiled_before:
            channel.emit(
                self.cycle_count, "record formed", record.mnemonic, len(record.raw)
            )
        if self._try_replay(record, stats):
            return not self.halted
        return self._interpret(
            stats, "uncompilable" if record.never else "byte_mismatch", va
        )

    def _try_replay(self, record, stats) -> bool:
        """Replay ``record`` if it is real and its bytes are (provably)
        there, counting the hit; False with nothing mutated otherwise."""
        if record.never or not self._execute_record(record, self):
            return False
        stats.jit_hits += 1
        stats.fast_cycles += self.cycle_count - self._instruction_start_cycle
        return True

    def _interpret(self, stats, cause: str, va: int) -> bool:
        """Interpret one instruction while compilation is on, counting
        the fallback and its cause (and emitting it on the channel)."""
        start = self.cycle_count
        result = self._step_interpreted()
        stats.jit_misses += 1
        stats.slow_cycles += self.cycle_count - start
        stats.note_fallback(cause)
        channel = self._compile_events
        if channel is not None:
            channel.emit(start, "fallback", cause, va)
        return result

    # -- the instruction frame both paths run through ----------------------

    def _begin_instruction(self, opcode: Opcode, exec_routine) -> None:
        """Reset the per-instruction state for a decoded ``opcode``."""
        self.current_opcode = opcode
        self._exec_routine = exec_routine
        self._exec_a_used = False
        self._last_source_routine = None
        self.branch_displacement = None

    def _retire(
        self, handler, operands, merge_pending: bool, start_va: int, redirects_before: int
    ) -> None:
        """Execute and retire the current instruction.

        Counts its bytes and opcode, runs the execute ``handler``
        (closing the UCODE and EBOX spans when traced), then retires:
        instruction count, PC, and whether the IB was redirected — the
        next instruction's decode-cycle rule reads that.
        """
        opcode = self.current_opcode
        ib = self.ib
        self._merge_pending = merge_pending
        self.events.instruction_bytes += ib._decode_va - start_va
        self.events.opcode_counts[opcode.mnemonic] += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.begin("UCODE", self.cycle_count, self._exec_routine.name)
            handler(self, opcode, operands)
            tracer.end("UCODE", self.cycle_count)
            tracer.end("EBOX", self.cycle_count)
        else:
            handler(self, opcode, operands)
        # Re-read self.events: the handler may have swapped it (LDPCTX
        # measurement gating).
        self.events.instructions += 1
        self.regs.pc = ib._decode_va
        self._merge_pending = False
        self._last_instruction_redirected = ib.stats.redirects != redirects_before

    def _step_interpreted(self) -> bool:
        """The per-microcycle interpreted path (the replay's oracle)."""
        ib = self.ib
        start_va = ib._decode_va
        self._instruction_start_cycle = self.cycle_count
        redirects_before = ib.stats.redirects
        opcode_byte = self._take_bytes(1, self.layout.decode)[0]
        # The 780's first I-Decode for an instruction cannot start until
        # the previous instruction completes: one non-overlapped decode
        # cycle each.  With decode_overlap (the 11/750's improvement) the
        # cycle is hidden except after a taken branch.  The replay's
        # DECODE_TICK op applies the same test.
        if not self.decode_overlap or self._last_instruction_redirected:
            self._tick_slot(self.layout.decode, _COMPUTE_A)
        opcode = OPCODES.get(opcode_byte)
        if opcode is None:
            raise IllegalInstruction(
                "undecodable opcode {:#04x} at {:#010x}".format(opcode_byte, start_va)
            )
        self._begin_instruction(opcode, self.layout.execute[opcode.mnemonic])
        if self._tracer is not None:
            # ts is the instruction's first cycle; emitted only now
            # because the span is named after the decoded opcode.
            self._tracer.begin(
                "EBOX", self._instruction_start_cycle, opcode.mnemonic, {"va": start_va}
            )

        operands: List[OperandRef] = []
        for position, spec in enumerate(opcode.operands):
            if spec.access is AccessType.BRANCH:
                width, self.branch_displacement = decode_branch_displacement(
                    lambda n: self._take_bytes(n, self.layout.bdisp), spec.dtype
                )
                self.events.branch_displacements += 1
                self.events.displacement_bytes += width
            else:
                operands.append(self._process_specifier(position, spec))

        merge_pending = merges_execute(
            opcode,
            self._last_source_routine,
            operands[-1].mode if operands else None,
        )
        self._retire(self._dispatch, operands, merge_pending, start_va, redirects_before)
        return not self.halted

    def run(self, max_instructions: int = 1_000_000, max_cycles: Optional[int] = None) -> int:
        """Run until halt or a budget runs out; returns instructions run."""
        executed = 0
        while executed < max_instructions:
            if max_cycles is not None and self.cycle_count >= max_cycles:
                break
            if not self.step():
                break
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # interrupts
    # ------------------------------------------------------------------

    def _deliver_interrupt(self, ipl: int, vector_va: int) -> None:
        """Interrupt delivery microcode: save state, raise IPL, vector."""
        tracer = self._tracer
        if tracer is not None:
            tracer.begin(
                "VMS", self.cycle_count, "interrupt", {"ipl": ipl, "vector": vector_va}
            )
        routine = self.layout.interrupt
        self._charge_compute(routine, INTERRUPT_ENTRY_COMPUTE_CYCLES)
        return_pc = self.ib.decode_va
        saved_psl = self.psl.pack()
        self.switch_mode(AccessMode.KERNEL)
        for value in (saved_psl, return_pc):
            sp = (self.regs.sp - 4) & 0xFFFFFFFF
            self.regs.sp = sp
            self.data_write(sp, 4, value, routine, "other")
        self.psl.ipl = ipl
        self.ib.redirect(vector_va)
        self.regs.pc = vector_va
        self.events.interrupts_delivered += 1
        if tracer is not None:
            tracer.end("VMS", self.cycle_count)
        if self.machine is not None:
            self.machine.acknowledge_interrupt()
