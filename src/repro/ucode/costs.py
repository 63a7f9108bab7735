"""Microroutine cycle costs.

These tables say how many microcycles each piece of microcode spends in
each activity.  They are the implementation-model knobs of the
reproduction: the *structure* (who reads, who writes, what can stall)
comes from the architecture, while the cycle counts approximate the
11/780 microcode.  The ablation benches sweep several of them.

Specifier costs follow the division of labour of Section 3.2: specifier
microcode owns scalar data reads/writes and the address calculation of
non-scalar data; execute microcode owns the instruction's own work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import Opcode
from repro.isa.specifiers import AddressingMode


@dataclass(frozen=True)
class SpecCost:
    """Cycle cost of processing one operand specifier.

    ``address_cycles`` are the compute cycles spent decoding and
    computing the effective address; ``pointer_reads`` are memory reads
    performed *during* address calculation (deferred modes); data reads
    and writes are charged as they happen per the operand's access type.
    """

    address_cycles: int
    pointer_reads: int = 0


SPEC_COSTS = {
    AddressingMode.SHORT_LITERAL: SpecCost(address_cycles=1),
    AddressingMode.REGISTER: SpecCost(address_cycles=1),
    AddressingMode.REGISTER_DEFERRED: SpecCost(address_cycles=1),
    AddressingMode.AUTOINCREMENT: SpecCost(address_cycles=2),
    AddressingMode.AUTODECREMENT: SpecCost(address_cycles=2),
    AddressingMode.AUTOINCREMENT_DEFERRED: SpecCost(address_cycles=3, pointer_reads=1),
    AddressingMode.BYTE_DISPLACEMENT: SpecCost(address_cycles=1),
    AddressingMode.WORD_DISPLACEMENT: SpecCost(address_cycles=2),
    AddressingMode.LONG_DISPLACEMENT: SpecCost(address_cycles=2),
    AddressingMode.BYTE_DISPLACEMENT_DEFERRED: SpecCost(address_cycles=3, pointer_reads=1),
    AddressingMode.WORD_DISPLACEMENT_DEFERRED: SpecCost(address_cycles=3, pointer_reads=1),
    AddressingMode.LONG_DISPLACEMENT_DEFERRED: SpecCost(address_cycles=3, pointer_reads=1),
    AddressingMode.IMMEDIATE: SpecCost(address_cycles=1),
    AddressingMode.ABSOLUTE: SpecCost(address_cycles=2),
    AddressingMode.BYTE_RELATIVE: SpecCost(address_cycles=1),
    AddressingMode.WORD_RELATIVE: SpecCost(address_cycles=2),
    AddressingMode.LONG_RELATIVE: SpecCost(address_cycles=2),
    AddressingMode.BYTE_RELATIVE_DEFERRED: SpecCost(address_cycles=3, pointer_reads=1),
    AddressingMode.WORD_RELATIVE_DEFERRED: SpecCost(address_cycles=3, pointer_reads=1),
    AddressingMode.LONG_RELATIVE_DEFERRED: SpecCost(address_cycles=3, pointer_reads=1),
}

#: Extra compute cycles charged by the shared index microcode when a
#: specifier carries an index prefix.  Microcode sharing puts this work at
#: SPEC2-6 addresses even for first specifiers (a quirk the paper calls
#: out and we reproduce).
INDEX_EXTRA_CYCLES = 2


@dataclass(frozen=True)
class ExecProfile:
    """Execute-phase cycle model for one opcode.

    ``base_cycles``: compute cycles every execution spends.
    ``taken_extra_cycles``: additional compute when a branch is taken
    (the cycle that redirects the IB lives here).
    ``per_item_cycles``: compute cycles per dynamic work item (register
    pushed, longword moved, digit processed ...), ticked at the routine's
    loop slot.
    """

    base_cycles: int
    taken_extra_cycles: int = 0
    per_item_cycles: int = 0


# Execute-phase profiles by mnemonic, with group defaults below.  Values
# approximate the 11/780 microcode lengths; Table 9's within-group costs
# are the observable these produce.
_EXEC_PROFILES = {
    # Simple moves do most of their data work in specifier microcode;
    # the execute phase is the one store-dispatch cycle (merged away by
    # the literal/register optimization when it applies).
    "MOVB": ExecProfile(1), "MOVW": ExecProfile(1), "MOVL": ExecProfile(1),
    "MOVQ": ExecProfile(2),
    "MOVZBW": ExecProfile(1), "MOVZBL": ExecProfile(1), "MOVZWL": ExecProfile(1),
    "MOVAB": ExecProfile(1), "MOVAW": ExecProfile(1), "MOVAL": ExecProfile(1),
    "MOVAQ": ExecProfile(1),
    "PUSHL": ExecProfile(1), "PUSHAB": ExecProfile(1), "PUSHAW": ExecProfile(1),
    "PUSHAL": ExecProfile(1),
    "CLRB": ExecProfile(1), "CLRW": ExecProfile(1), "CLRL": ExecProfile(1),
    "CLRQ": ExecProfile(1),
    "NOP": ExecProfile(1),
    # ALU operations: one pass through the ALU.
    # (Two-operand and three-operand forms share microcode on the 780.)
    # Arithmetic/logic default comes from the group default below.
    "ASHL": ExecProfile(3), "ROTL": ExecProfile(3),
    "ADWC": ExecProfile(2), "SBWC": ExecProfile(2),
    "CVTBW": ExecProfile(2), "CVTBL": ExecProfile(2), "CVTWL": ExecProfile(2),
    "CVTWB": ExecProfile(2), "CVTLB": ExecProfile(2), "CVTLW": ExecProfile(2),
    # Branches: test, then redirect when taken.
    "BNEQ": ExecProfile(1, taken_extra_cycles=1),
    "BEQL": ExecProfile(1, taken_extra_cycles=1),
    "BGTR": ExecProfile(1, taken_extra_cycles=1),
    "BLEQ": ExecProfile(1, taken_extra_cycles=1),
    "BGEQ": ExecProfile(1, taken_extra_cycles=1),
    "BLSS": ExecProfile(1, taken_extra_cycles=1),
    "BGTRU": ExecProfile(1, taken_extra_cycles=1),
    "BLEQU": ExecProfile(1, taken_extra_cycles=1),
    "BVC": ExecProfile(1, taken_extra_cycles=1),
    "BVS": ExecProfile(1, taken_extra_cycles=1),
    "BCC": ExecProfile(1, taken_extra_cycles=1),
    "BCS": ExecProfile(1, taken_extra_cycles=1),
    "BRB": ExecProfile(1, taken_extra_cycles=1),
    "BRW": ExecProfile(1, taken_extra_cycles=1),
    "AOBLSS": ExecProfile(2, taken_extra_cycles=1),
    "AOBLEQ": ExecProfile(2, taken_extra_cycles=1),
    "SOBGEQ": ExecProfile(2, taken_extra_cycles=1),
    "SOBGTR": ExecProfile(2, taken_extra_cycles=1),
    "ACBB": ExecProfile(3, taken_extra_cycles=1),
    "ACBW": ExecProfile(3, taken_extra_cycles=1),
    "ACBL": ExecProfile(3, taken_extra_cycles=1),
    "BLBS": ExecProfile(1, taken_extra_cycles=1),
    "BLBC": ExecProfile(1, taken_extra_cycles=1),
    "BSBB": ExecProfile(2, taken_extra_cycles=1),
    "BSBW": ExecProfile(2, taken_extra_cycles=1),
    "JSB": ExecProfile(2, taken_extra_cycles=1),
    "RSB": ExecProfile(2, taken_extra_cycles=1),
    "JMP": ExecProfile(1, taken_extra_cycles=1),
    "CASEB": ExecProfile(4, taken_extra_cycles=1),
    "CASEW": ExecProfile(4, taken_extra_cycles=1),
    "CASEL": ExecProfile(4, taken_extra_cycles=1),
    # Field group.
    "EXTV": ExecProfile(6), "EXTZV": ExecProfile(6), "INSV": ExecProfile(7),
    "CMPV": ExecProfile(6), "CMPZV": ExecProfile(6),
    "FFS": ExecProfile(8), "FFC": ExecProfile(8),
    "BBS": ExecProfile(3, taken_extra_cycles=1),
    "BBC": ExecProfile(3, taken_extra_cycles=1),
    "BBSS": ExecProfile(4, taken_extra_cycles=1),
    "BBCS": ExecProfile(4, taken_extra_cycles=1),
    "BBSC": ExecProfile(4, taken_extra_cycles=1),
    "BBCC": ExecProfile(4, taken_extra_cycles=1),
    "BBSSI": ExecProfile(5, taken_extra_cycles=1),
    "BBCCI": ExecProfile(5, taken_extra_cycles=1),
    # Float group (all measured machines had the FPA).
    "ADDF2": ExecProfile(5), "ADDF3": ExecProfile(5),
    "SUBF2": ExecProfile(5), "SUBF3": ExecProfile(5),
    "MULF2": ExecProfile(7), "MULF3": ExecProfile(7),
    "DIVF2": ExecProfile(13), "DIVF3": ExecProfile(13),
    "MOVF": ExecProfile(1), "CMPF": ExecProfile(3), "MNEGF": ExecProfile(2),
    "TSTF": ExecProfile(2),
    "CVTBF": ExecProfile(5), "CVTWF": ExecProfile(5), "CVTLF": ExecProfile(5),
    "CVTFB": ExecProfile(5), "CVTFW": ExecProfile(5), "CVTFL": ExecProfile(5),
    "CVTRFL": ExecProfile(5),
    "MULB2": ExecProfile(9), "MULB3": ExecProfile(9),
    "MULW2": ExecProfile(10), "MULW3": ExecProfile(10),
    "MULL2": ExecProfile(11), "MULL3": ExecProfile(11),
    "DIVB2": ExecProfile(17), "DIVB3": ExecProfile(17),
    "DIVW2": ExecProfile(19), "DIVW3": ExecProfile(19),
    "DIVL2": ExecProfile(21), "DIVL3": ExecProfile(21),
    "EMUL": ExecProfile(13), "EDIV": ExecProfile(25),
    "POLYF": ExecProfile(6, per_item_cycles=8),  # per polynomial degree
    "EMODF": ExecProfile(11),
    "ACBF": ExecProfile(6, taken_extra_cycles=1),
    # Call/Ret: heavy state save/restore; per_item covers each register
    # moved, with interleaved computation spacing the stack writes.
    "CALLS": ExecProfile(17, per_item_cycles=4),
    "CALLG": ExecProfile(17, per_item_cycles=4),
    "RET": ExecProfile(15, per_item_cycles=4),
    "PUSHR": ExecProfile(4, per_item_cycles=3),
    "POPR": ExecProfile(4, per_item_cycles=3),
    # System group.
    "CHMK": ExecProfile(15, taken_extra_cycles=1),
    "CHME": ExecProfile(15, taken_extra_cycles=1),
    "REI": ExecProfile(11, taken_extra_cycles=1),
    "SVPCTX": ExecProfile(12, per_item_cycles=2),
    "LDPCTX": ExecProfile(16, per_item_cycles=2),
    "PROBER": ExecProfile(6), "PROBEW": ExecProfile(6),
    "MTPR": ExecProfile(4), "MFPR": ExecProfile(4),
    "INSQUE": ExecProfile(8), "REMQUE": ExecProfile(8),
    "BISPSW": ExecProfile(2), "BICPSW": ExecProfile(2),
    # Character group: setup plus a per-longword (or per-byte) loop.  The
    # move loops space their writes to dodge write stalls, as the real
    # microcode did.
    "MOVC3": ExecProfile(16, per_item_cycles=5),
    "MOVC5": ExecProfile(18, per_item_cycles=5),
    "CMPC3": ExecProfile(16, per_item_cycles=4),
    "CMPC5": ExecProfile(18, per_item_cycles=4),
    "LOCC": ExecProfile(10, per_item_cycles=2),
    "SKPC": ExecProfile(10, per_item_cycles=2),
    "SCANC": ExecProfile(12, per_item_cycles=3),
    "SPANC": ExecProfile(12, per_item_cycles=3),
    "MOVTC": ExecProfile(16, per_item_cycles=5),
    "MATCHC": ExecProfile(14, per_item_cycles=3),
    "CRC": ExecProfile(12, per_item_cycles=6),
    # Decimal group: digit-serial BCD arithmetic.
    "ADDP4": ExecProfile(16, per_item_cycles=6),
    "SUBP4": ExecProfile(16, per_item_cycles=6),
    "MOVP": ExecProfile(12, per_item_cycles=4),
    "CMPP3": ExecProfile(12, per_item_cycles=4),
    "CVTLP": ExecProfile(16, per_item_cycles=6),
    "CVTPL": ExecProfile(14, per_item_cycles=5),
    "ASHP": ExecProfile(18, per_item_cycles=6),
}

#: Fallback execute cost per group (by ``Opcode.group_name``) for
#: opcodes not listed above (plain ALU operations and the like).
_GROUP_DEFAULTS = {
    "simple": ExecProfile(1),
    "field": ExecProfile(5),
    "float": ExecProfile(4),
    "callret": ExecProfile(8),
    "system": ExecProfile(8),
    "character": ExecProfile(8, per_item_cycles=3),
    "decimal": ExecProfile(12, per_item_cycles=4),
}


def exec_profile(opcode: Opcode) -> ExecProfile:
    """The execute-phase cycle profile for ``opcode``."""
    profile = _EXEC_PROFILES.get(opcode.mnemonic)
    if profile is not None:
        return profile
    return _GROUP_DEFAULTS[opcode.group_name]


#: TB-miss service routine: compute cycles beside the PTE read.  With the
#: read cycle itself and the average PTE-fetch stall this lands near the
#: paper's 21.6 cycles per miss.
TB_MISS_COMPUTE_CYCLES = 17

#: Alignment microcode: extra memory-management compute per unaligned ref.
UNALIGNED_EXTRA_CYCLES = 4

#: Interrupt delivery microcode (entry through the SCB, stack switch).
INTERRUPT_ENTRY_COMPUTE_CYCLES = 14
INTERRUPT_ENTRY_WRITES = 2  # pushed PC and PSL

#: Exception (page-fault style) delivery.
EXCEPTION_ENTRY_COMPUTE_CYCLES = 16
EXCEPTION_ENTRY_WRITES = 3
