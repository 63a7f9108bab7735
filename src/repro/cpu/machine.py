"""The assembled VAX-11/780 — Figure 1 in code.

Two major subsystems: the CPU pipeline (I-Fetch / I-Decode / EBOX, with
the EBOX's control store tapped by the micro-PC monitor) and the memory
subsystem (TB, write-through cache, write buffer, SBI, 8 MB of memory).

The machine exposes the hook surface the operating-system layer plugs
into: interrupt sources, the SCB vector table, the pager, and context
switching.  Defaults are self-contained so the bare machine runs user
programs without an OS (the quickstart example does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.ebox import EBox
from repro.cpu.events import EventCounters
from repro.memory.pagetable import PAGE_SHIFT, PAGE_SIZE, PageTable, region_of, vpn_of
from repro.memory.subsystem import MemorySubsystem
from repro.memory.physical import PhysicalMemory, DEFAULT_MEMORY_BYTES
from repro.ucode.routines import MicrocodeLayout, build_layout


@dataclass
class InterruptRequest:
    """One posted interrupt: priority level plus service-routine address."""

    ipl: int
    vector_va: int
    software: bool = False


class InterruptController:
    """Pending-interrupt bookkeeping (the machine's request lines)."""

    def __init__(self):
        #: posted, unacknowledged requests, oldest first.  The EBOX tests
        #: it for emptiness before every instruction and asks for the
        #: highest deliverable one only when it is not.
        self.requests: List[InterruptRequest] = []

    def post(self, request: InterruptRequest) -> None:
        self.requests.append(request)

    def highest_above(self, current_ipl: int) -> Optional[InterruptRequest]:
        deliverable = [r for r in self.requests if r.ipl > current_ipl]
        if not deliverable:
            return None
        return max(deliverable, key=lambda r: r.ipl)

    def acknowledge(self, request: InterruptRequest) -> None:
        self.requests.remove(request)

    @property
    def pending_count(self) -> int:
        return len(self.requests)


class FrameAllocator:
    """Hands out physical page frames above a reserved boundary."""

    def __init__(self, memory_bytes: int, reserved_bytes: int):
        self._next = reserved_bytes >> PAGE_SHIFT
        self._limit = memory_bytes >> PAGE_SHIFT

    def allocate(self) -> int:
        if self._next >= self._limit:
            raise MemoryError("out of physical page frames")
        frame = self._next
        self._next += 1
        return frame

    @property
    def frames_remaining(self) -> int:
        return self._limit - self._next


class VAX780:
    """The simulated machine, with an optional micro-PC monitor attached."""

    #: Physical layout: page tables, PCBs and other OS structures live in
    #: low memory below this boundary; allocatable frames start here.
    RESERVED_PHYSICAL = 2 * 1024 * 1024

    #: Physical addresses of the built-in page tables.
    P0_TABLE_PA = 0x10000
    P1_TABLE_PA = 0x30000
    SYSTEM_TABLE_PA = 0x50000
    TABLE_LENGTH = 8192  # pages mappable per region (4 MB)

    def __init__(
        self,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
        monitor=None,
        layout: Optional[MicrocodeLayout] = None,
        tracer=None,
    ):
        self.physical = PhysicalMemory(memory_bytes)
        self.memory = MemorySubsystem(physical=self.physical)
        self.layout = layout if layout is not None else build_layout()
        self.events = EventCounters()
        self.monitor = monitor
        #: Optional repro.obs.trace.Tracer.  Like the monitor it is
        #: strictly passive; None (the default) leaves only is-not-None
        #: guards on event paths.
        self.tracer = tracer
        self.memory.tracer = tracer
        self.ebox = EBox(
            memory=self.memory,
            layout=self.layout,
            monitor=monitor,
            events=self.events,
            machine=self,
            tracer=tracer,
        )
        self.interrupts = InterruptController()
        self.frames = FrameAllocator(memory_bytes, self.RESERVED_PHYSICAL)
        self._delivering: Optional[InterruptRequest] = None
        #: SCB: name -> kernel virtual address of the service routine.
        self.scb: Dict[str, int] = {}
        #: OS hooks (the VMS layer overrides these).
        self.pager: Optional[Callable[[int, bool], bool]] = None
        self.context_load_hook: Optional[Callable[[int], None]] = None
        self.rei_hook: Optional[Callable[[], None]] = None
        #: MTPR register number -> callback(value)
        self.mtpr_hooks: Dict[int, Callable[[int], None]] = {}

        self.p0_table = PageTable(self.physical, self.P0_TABLE_PA, self.TABLE_LENGTH)
        self.p1_table = PageTable(self.physical, self.P1_TABLE_PA, self.TABLE_LENGTH)
        self.system_table = PageTable(self.physical, self.SYSTEM_TABLE_PA, self.TABLE_LENGTH)
        self.memory.set_page_table("p0", self.p0_table)
        self.memory.set_page_table("p1", self.p1_table)
        self.memory.set_page_table("system", self.system_table)

    # ------------------------------------------------------------------
    # EBOX hook surface
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach (``None``: detach) the passive event tracer everywhere.

        The tracer is referenced from the machine, the memory subsystem
        and the EBOX (which also rebinds a fast path on it); snapshot
        capture/restore uses this to take the tracer out of the pickled
        graph and to wire a live one onto a restored machine."""
        self.tracer = tracer
        self.memory.tracer = tracer
        self.ebox.set_tracer(tracer)

    def attach_compile_events(self, channel) -> None:
        """Attach (``None``: detach) a compile-lifecycle
        :class:`~repro.obs.channel.EventChannel`.  Passive and
        path-neutral — the compiled hot path stays enabled, which is
        the channel's reason to exist (a tracer would turn it off).
        Held only on the EBOX transient state, so snapshots stay
        byte-identical with or without a channel attached."""
        self.ebox.set_compile_events(channel)

    @property
    def compile_events(self):
        return self.ebox._compile_events

    def pending_interrupt(self, current_ipl: int) -> Optional[Tuple[int, int]]:
        request = self.interrupts.highest_above(current_ipl)
        if request is None:
            return None
        self._delivering = request
        return (request.ipl, request.vector_va)

    def acknowledge_interrupt(self) -> None:
        if self._delivering is not None:
            self.interrupts.acknowledge(self._delivering)
            self._delivering = None

    def request_software_interrupt(self, level: int) -> None:
        """MTPR to SIRR: post a software interrupt at ``level``."""
        vector = self.scb.get("software", 0)
        if vector:
            self.interrupts.post(InterruptRequest(ipl=level, vector_va=vector, software=True))

    def scb_vector(self, name: str) -> int:
        return self.scb.get(name, 0)

    def on_mtpr(self, register: int, value: int) -> None:
        """Implementation-defined MTPR targets (OS layer callbacks)."""
        hook = self.mtpr_hooks.get(register)
        if hook is not None:
            hook(value)

    def on_context_load(self, pcb: int) -> None:
        if self.context_load_hook is not None:
            self.context_load_hook(pcb)

    def after_rei(self) -> None:
        if self.rei_hook is not None:
            self.rei_hook()

    def handle_page_fault(self, va: int, write: bool) -> bool:
        """Resolve a page fault; the default pager maps a fresh zero frame."""
        self.events.page_faults += 0  # counted by the EBOX already
        if self.pager is not None:
            return self.pager(va, write)
        return self.map_new_frame(va)

    # ------------------------------------------------------------------
    # mapping and loading helpers
    # ------------------------------------------------------------------

    def _table_for(self, va: int) -> PageTable:
        """The *active* page table for ``va``'s region (after a context
        switch this is the current process's table, not the boot table)."""
        table = self.memory.page_tables[region_of(va)]
        if table is None:
            raise ValueError("no page table active for region of {:#x}".format(va))
        return table

    def map_new_frame(self, va: int, writable: bool = True) -> bool:
        """Map the page containing ``va`` to a newly allocated frame."""
        table = self._table_for(va)
        table.map(vpn_of(va), self.frames.allocate(), writable=writable)
        return True

    def map_range(self, va: int, length: int, writable: bool = True) -> None:
        """Ensure every page of [va, va+length) is mapped."""
        page = va & ~(PAGE_SIZE - 1)
        end = va + length
        while page < end:
            table = self._table_for(page)
            vpn = vpn_of(page)
            if not table.lookup(vpn).valid:
                table.map(vpn, self.frames.allocate(), writable=writable)
            page += PAGE_SIZE

    def write_virtual(self, va: int, payload: bytes) -> None:
        """Store bytes at a virtual address, mapping pages as needed.

        A loader-side backdoor (no cycle accounting): used to install
        programs and initialised data before measurement starts.
        """
        self.map_range(va, len(payload))
        offset = 0
        while offset < len(payload):
            page_va = (va + offset) & ~(PAGE_SIZE - 1)
            entry = self._table_for(page_va).lookup(vpn_of(page_va))
            in_page = min(len(payload) - offset, PAGE_SIZE - ((va + offset) & (PAGE_SIZE - 1)))
            pa = (entry.pfn << PAGE_SHIFT) | ((va + offset) & (PAGE_SIZE - 1))
            self.physical.load(pa, payload[offset : offset + in_page])
            offset += in_page

    def read_virtual(self, va: int, size: int) -> int:
        """Loader-side read (no cycle accounting), little-endian."""
        result = 0
        for index in range(size):
            page_va = (va + index) & ~(PAGE_SIZE - 1)
            entry = self._table_for(page_va).lookup(vpn_of(page_va))
            if not entry.valid:
                raise ValueError("read_virtual of unmapped page {:#x}".format(page_va))
            pa = (entry.pfn << PAGE_SHIFT) | ((va + index) & (PAGE_SIZE - 1))
            result |= self.physical.read(pa, 1) << (8 * index)
        return result

    #: Default user stack top: near the top of the 4 MB the built-in P0
    #: table maps.
    DEFAULT_STACK_TOP = 0x003F_0000

    def load_program(self, image: bytes, origin: int, stack_top: int = DEFAULT_STACK_TOP) -> None:
        """Install ``image`` at virtual ``origin`` and point the CPU at it."""
        self.write_virtual(origin, image)
        self.map_range(stack_top - 8 * PAGE_SIZE, 8 * PAGE_SIZE)
        self.ebox.reset(origin, sp=stack_top)

    def run(self, max_instructions: int = 1_000_000, max_cycles: Optional[int] = None) -> int:
        return self.ebox.run(max_instructions=max_instructions, max_cycles=max_cycles)

    # ------------------------------------------------------------------
    # Figure 1
    # ------------------------------------------------------------------

    def components(self) -> Dict[str, object]:
        """The machine's structural inventory (Figure 1's boxes)."""
        return {
            "i_fetch": self.ebox.ib,
            "i_decode": self.ebox,  # tightly coupled to the EBOX, as in 2.1
            "ebox": self.ebox,
            "control_store": self.layout.store,
            "translation_buffer": self.memory.tb,
            "cache": self.memory.cache,
            "write_buffer": self.memory.write_buffer,
            "sbi": self.memory.sbi,
            "memory": self.physical,
            "monitor": self.monitor,
        }

    def block_diagram(self) -> str:
        """Render Figure 1 (the VAX-11/780 block diagram) as ASCII art."""
        cache = self.memory.cache
        monitor_note = "uPC monitor: attached" if self.monitor else "uPC monitor: (none)"
        return "\n".join(
            [
                "                 VAX-11/780 Block Diagram (Figure 1)",
                "  +---------------------- CPU pipeline ----------------------+",
                "  |  +---------+    +----------+    +---------------------+  |",
                "  |  | I-Fetch |--->| I-Decode |--->|        EBOX         |  |",
                "  |  | (8-byte |    | (dispatch|    | 16K ucontrol store  |  |",
                "  |  |   IB)   |<---|  to EBOX)|<---|  200ns microcycle   |  |",
                "  |  +----+----+    +----------+    +----+----------+----+  |",
                "  |       |                              |          |       |",
                "  +-------|------------------------------|----------|-------+",
                "          | I-stream reads        D-reads|          | writes",
                "          v                              v          v",
                "  +-------+------------------------------+---+  +---+------+",
                "  |        Translation Buffer (128 entries,  |  |  4-byte  |",
                "  |        64 system + 64 process)           |  |  write   |",
                "  +-------------------+-----------------------+  | buffer  |",
                "                      | physical address        +---+------+",
                "                      v                              |",
                "  +-------------------+-------------------------+    |",
                "  |  Cache: {:d} KB, {}-way, {}-byte blocks,       |    |".format(
                    cache.sets * cache.ways * cache.block_size // 1024,
                    cache.ways,
                    cache.block_size,
                ),
                "  |  write-through, no write-allocate           |    |",
                "  +-------------------+-------------------------+    |",
                "                      | read/write SBI data          |",
                "                      v                              v",
                "  +--------------------------------------------------------+",
                "  |           SBI (Synchronous Backplane Interconnect)     |",
                "  +---------------------------+----------------------------+",
                "                              |",
                "                  +-----------+-----------+",
                "                  |  Memory ({:d} MB)        |".format(
                    self.physical.size // (1024 * 1024)
                ),
                "                  +-----------------------+",
                "  [{}]".format(monitor_note),
            ]
        )
