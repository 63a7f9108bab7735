"""I-Decode specifier decoding, specifier plans, and the operand
references handed to execute-phase semantics.

This module is the one statement of what a specifier costs and means.
``decode_specifier`` consumes specifier bytes through a caller-supplied
byte source and resolves the addressing mode, including the PC
pseudo-modes (immediate, absolute, relative) and index prefixes.
:func:`plan_specifier` turns the decoded specifier into a
:class:`SpecPlan`: its SPEC1/SPEC2-6 micro-routine, the compute charges
it owes (Tables 4 and 8), its event keys and everything else that does
not depend on machine state.  :func:`resolve_operand` carries a plan out
on a live EBOX — event counts, effective address, data reads — and
returns the :class:`OperandRef` the execute phase sees: the loaded value
for read/modify operands, the effective address for memory operands,
and the control-store routine where a result store must charge its
write cycle.  The interpreter plans every execution; the replay
compiler plans once per instruction record and resolves per execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.isa.datatypes import (
    MASK32,
    DataType,
    f_floating_encode,
    sign_extend,
    to_signed,
)
from repro.isa.opcodes import OpcodeGroup
from repro.isa.specifiers import (
    TABLE4_ROW_FOR_MODE,
    AccessType,
    AddressingMode,
    DecodedSpecifier,
    OperandSpec,
)
from repro.ucode.control_store import Routine
from repro.ucode.costs import INDEX_EXTRA_CYCLES, SPEC_COSTS

_PC = 15

#: Bytes one operand of each data type occupies as specifier processing
#: sees it.  A packed-decimal specifier addresses the string's first
#: byte, so PACKED is 1 here where ``DataType.size`` says 0.
OPERAND_SIZE = {
    DataType.BYTE: 1,
    DataType.WORD: 2,
    DataType.LONG: 4,
    DataType.QUAD: 8,
    DataType.F_FLOAT: 4,
    DataType.PACKED: 1,
    DataType.VARIABLE_FIELD: 4,
}

_BASE_MODES = {
    0x5: AddressingMode.REGISTER,
    0x6: AddressingMode.REGISTER_DEFERRED,
    0x7: AddressingMode.AUTODECREMENT,
    0x8: AddressingMode.AUTOINCREMENT,
    0x9: AddressingMode.AUTOINCREMENT_DEFERRED,
    0xA: AddressingMode.BYTE_DISPLACEMENT,
    0xB: AddressingMode.BYTE_DISPLACEMENT_DEFERRED,
    0xC: AddressingMode.WORD_DISPLACEMENT,
    0xD: AddressingMode.WORD_DISPLACEMENT_DEFERRED,
    0xE: AddressingMode.LONG_DISPLACEMENT,
    0xF: AddressingMode.LONG_DISPLACEMENT_DEFERRED,
}

_PC_MODES = {
    0x8: AddressingMode.IMMEDIATE,
    0x9: AddressingMode.ABSOLUTE,
    0xA: AddressingMode.BYTE_RELATIVE,
    0xB: AddressingMode.BYTE_RELATIVE_DEFERRED,
    0xC: AddressingMode.WORD_RELATIVE,
    0xD: AddressingMode.WORD_RELATIVE_DEFERRED,
    0xE: AddressingMode.LONG_RELATIVE,
    0xF: AddressingMode.LONG_RELATIVE_DEFERRED,
}


class IllegalSpecifier(Exception):
    """Specifier bytes the architecture leaves undefined (an unknown
    mode byte, or an index prefix on a base mode that cannot take one)."""


class IllegalInstruction(Exception):
    """An undecodable opcode, or an addressing mode its operand's access
    type forbids (a literal written to, a register used as an address)."""


def decode_specifier(take: Callable[[int], bytes], dtype: DataType) -> DecodedSpecifier:
    """Decode one operand specifier, consuming bytes via ``take``.

    ``dtype`` sizes immediate extensions.  Returns a
    :class:`~repro.isa.specifiers.DecodedSpecifier`.
    """
    first = take(1)[0]
    length = 1
    nibble = first >> 4
    low = first & 0xF

    index_register: Optional[int] = None
    if nibble == 0x4:
        index_register = low
        first = take(1)[0]
        length += 1
        nibble = first >> 4
        low = first & 0xF
        if nibble in (0x0, 0x1, 0x2, 0x3, 0x4, 0x5) or (nibble == 0x8 and low == _PC):
            raise IllegalSpecifier("base mode {:#x} cannot follow an index prefix".format(nibble))

    if nibble <= 0x3:
        # Short literal: six bits packed into the specifier byte.
        return DecodedSpecifier(
            mode=AddressingMode.SHORT_LITERAL,
            register=None,
            extension=first & 0x3F,
            length=length,
            index_register=index_register,
        )

    if low == _PC and nibble in _PC_MODES:
        mode = _PC_MODES[nibble]
        if mode is AddressingMode.IMMEDIATE:
            size = OPERAND_SIZE[dtype]
            raw = int.from_bytes(take(size), "little")
            return DecodedSpecifier(mode, None, raw, length + size, index_register)
        if mode is AddressingMode.ABSOLUTE:
            raw = int.from_bytes(take(4), "little")
            return DecodedSpecifier(mode, None, raw, length + 4, index_register)
        disp_size = mode.displacement_size
        raw = int.from_bytes(take(disp_size), "little")
        extension = sign_extend(raw, 8 * disp_size)
        return DecodedSpecifier(mode, None, extension, length + disp_size, index_register)

    mode = _BASE_MODES.get(nibble)
    if mode is None:
        raise IllegalSpecifier("unknown specifier byte {:#04x}".format(first))
    disp_size = mode.displacement_size
    extension = 0
    if disp_size:
        raw = int.from_bytes(take(disp_size), "little")
        extension = sign_extend(raw, 8 * disp_size)
    return DecodedSpecifier(mode, low, extension, length + disp_size, index_register)


def expand_float_literal(bits: int) -> float:
    """Expand a 6-bit short literal into its F_floating value.

    The six bits split into a 3-bit exponent and 3-bit fraction, giving
    the values 0.5, 0.5625, ... up to 120.0.
    """
    exponent = (bits >> 3) & 7
    fraction = bits & 7
    return 0.5 * (1.0 + fraction / 8.0) * (2.0 ** exponent)


@dataclass(slots=True)
class OperandRef:
    """A fully processed operand, as the execute phase sees it.

    ``value`` is populated for READ and MODIFY access (raw unsigned form
    of the operand's data type); ``address`` for memory operands;
    ``register`` for register-mode operands.  ``routine`` is the
    specifier microroutine whose WRITE slot a result store charges.
    """

    spec: OperandSpec
    mode: AddressingMode
    register: Optional[int]
    address: Optional[int]
    value: Optional[int]
    routine: Routine
    position_class: str  # 'spec1' | 'spec26'

    @property
    def is_register(self) -> bool:
        return self.mode is AddressingMode.REGISTER

    @property
    def dtype(self) -> DataType:
        return self.spec.dtype

    @property
    def access(self) -> AccessType:
        return self.spec.access


# Effective-address kinds (SpecPlan.ea_kind).  The two below EA_MEMORY
# name no address; the memory kinds are ordered by how often workloads
# use them, which is the order resolve_operand tests them in.
EA_VALUE = 0  # short literal / immediate: the value is in the plan
EA_REGISTER = 1
EA_MEMORY = EA_DISPLACEMENT = 2  # register + extension
EA_AUTOINCREMENT = 3
EA_AUTODECREMENT = 4
EA_RELATIVE = 5  # PC + extension
EA_ABSOLUTE = 6

#: mode -> (ea_kind, deferred): how the address forms, and whether it
#: then points at the operand's address rather than the operand.
_EA_FOR_MODE = {
    AddressingMode.SHORT_LITERAL: (EA_VALUE, False),
    AddressingMode.IMMEDIATE: (EA_VALUE, False),
    AddressingMode.REGISTER: (EA_REGISTER, False),
    AddressingMode.REGISTER_DEFERRED: (EA_DISPLACEMENT, False),  # extension 0
    AddressingMode.AUTOINCREMENT: (EA_AUTOINCREMENT, False),
    AddressingMode.AUTODECREMENT: (EA_AUTODECREMENT, False),
    AddressingMode.AUTOINCREMENT_DEFERRED: (EA_AUTOINCREMENT, True),
    AddressingMode.BYTE_DISPLACEMENT: (EA_DISPLACEMENT, False),
    AddressingMode.WORD_DISPLACEMENT: (EA_DISPLACEMENT, False),
    AddressingMode.LONG_DISPLACEMENT: (EA_DISPLACEMENT, False),
    AddressingMode.BYTE_DISPLACEMENT_DEFERRED: (EA_DISPLACEMENT, True),
    AddressingMode.WORD_DISPLACEMENT_DEFERRED: (EA_DISPLACEMENT, True),
    AddressingMode.LONG_DISPLACEMENT_DEFERRED: (EA_DISPLACEMENT, True),
    AddressingMode.ABSOLUTE: (EA_ABSOLUTE, False),
    AddressingMode.BYTE_RELATIVE: (EA_RELATIVE, False),
    AddressingMode.WORD_RELATIVE: (EA_RELATIVE, False),
    AddressingMode.LONG_RELATIVE: (EA_RELATIVE, False),
    AddressingMode.BYTE_RELATIVE_DEFERRED: (EA_RELATIVE, True),
    AddressingMode.WORD_RELATIVE_DEFERRED: (EA_RELATIVE, True),
    AddressingMode.LONG_RELATIVE_DEFERRED: (EA_RELATIVE, True),
}

_READ_ACCESS = (AccessType.READ, AccessType.VFIELD)
_REGISTER_READ_ACCESS = (AccessType.READ, AccessType.MODIFY, AccessType.VFIELD)
_MEMORY_READ_ACCESS = (AccessType.READ, AccessType.MODIFY)


#: Charge tuples shared by every plan that owes them, so the plans
#: replay records keep do not each hold a copy.  Keyed by routine
#: identity; each value holds its routine, which keeps the id unique.
_CHARGES = {}


class SpecPlan:
    """One operand specifier, resolved as far as its bytes allow.

    Everything that does not depend on register contents or memory:
    the micro-routine, the compute ``charges`` it owes as ``(routine,
    cycles)`` pairs in charging order, the Table 4/5 event keys, the
    literal or immediate value, and how to read a register operand.
    Never mutated once built, so replay records share plans freely.
    """

    __slots__ = (
        "spec",
        "mode",
        "ea_kind",
        "deferred",
        "register",
        "extension",
        "size",
        "routine",
        "charges",
        "row",
        "position_class",
        "count_key",
        "length",
        "is_indexed",
        "index_register",
        "value",
        "read_value",
        "reg_quad",
        "reg_mask",
    )


def plan_specifier(layout, position: int, spec: OperandSpec, decoded) -> SpecPlan:
    """Plan operand ``position`` (0 = first specifier) of an instruction.

    ``layout`` is the :class:`~repro.ucode.routines.MicrocodeLayout`
    whose routines the specifier charges.  Raises
    :class:`IllegalInstruction` when the mode cannot serve the operand's
    access type.
    """
    mode = decoded.mode
    access = spec.access
    ea_kind, deferred = _EA_FOR_MODE[mode]
    if ea_kind == EA_VALUE and access not in _READ_ACCESS:
        raise IllegalInstruction("{} used for non-read access".format(mode.name))
    if ea_kind == EA_REGISTER and access is AccessType.ADDRESS:
        raise IllegalInstruction("address access to a register operand")

    is_first = position == 0
    position_class = "spec1" if is_first else "spec26"
    address_cycles = SPEC_COSTS[mode].address_cycles
    is_indexed = decoded.index_register is not None
    # Microcode sharing: indexed specifiers run the shared index
    # microcode in the SPEC2-6 region, even for first specifiers.
    routine = (layout.spec1 if is_first and not is_indexed else layout.spec26)[mode]
    key = (id(routine), address_cycles, is_indexed)
    charges = _CHARGES.get(key)
    if charges is None:
        charges = ((routine, address_cycles),)
        if is_indexed:
            charges = ((layout.index_shared, INDEX_EXTRA_CYCLES),) + charges
        _CHARGES[key] = charges

    plan = SpecPlan()
    plan.spec = spec
    plan.mode = mode
    plan.ea_kind = ea_kind
    plan.deferred = deferred
    plan.register = decoded.register
    plan.extension = decoded.extension
    plan.size = OPERAND_SIZE[spec.dtype]
    plan.routine = routine
    plan.charges = charges
    plan.row = "spec1" if is_first else "spec2_6"
    plan.position_class = position_class
    plan.count_key = (position_class, TABLE4_ROW_FOR_MODE[mode])
    plan.length = decoded.length
    plan.is_indexed = is_indexed
    plan.index_register = decoded.index_register
    plan.value = None
    plan.read_value = False
    plan.reg_quad = False
    plan.reg_mask = 0
    if ea_kind == EA_VALUE:
        if mode is AddressingMode.SHORT_LITERAL and spec.dtype is DataType.F_FLOAT:
            plan.value = f_floating_encode(expand_float_literal(decoded.extension))
        else:
            plan.value = decoded.extension
    elif ea_kind == EA_REGISTER:
        if access in _REGISTER_READ_ACCESS:
            plan.read_value = True
            # A field base in a register means the field lives in the
            # register itself: the whole longword, whatever the dtype.
            dtype = DataType.LONG if access is AccessType.VFIELD else spec.dtype
            if dtype is DataType.QUAD:
                plan.reg_quad = True
            else:
                plan.reg_mask = (1 << (8 * OPERAND_SIZE[dtype])) - 1
    else:
        plan.read_value = access in _MEMORY_READ_ACCESS
    return plan


def resolve_operand(ebox, plan: SpecPlan) -> OperandRef:
    """Carry ``plan`` out on ``ebox`` once its bytes are consumed and its
    compute charged: count the specifier's events, form the effective
    address, read the data, and build the operand.

    Relative modes read the IB's decode VA, which on either path is by
    now the address just past the specifier.  Event counts precede the
    specifier's memory traffic, so a fault serviced during a data read
    sees them already counted.
    """
    events = ebox.events
    if plan.is_indexed:
        events.indexed_specifiers[plan.position_class] += 1
    events.specifier_counts[plan.count_key] += 1
    events.specifier_bytes += plan.length
    ea_kind = plan.ea_kind
    regs = ebox.regs
    if ea_kind < EA_MEMORY:
        address = None
        value = plan.value
        if plan.read_value:
            if plan.reg_quad:
                low = regs.read(plan.register)
                high = regs.read((plan.register + 1) & 0xF)
                value = low | (high << 32)
            else:
                value = regs.read(plan.register) & plan.reg_mask
    else:
        register = plan.register
        if ea_kind == EA_DISPLACEMENT:
            address = (regs.read(register) + plan.extension) & MASK32
        elif ea_kind == EA_AUTOINCREMENT:
            address = regs.read(register)
            # Autoincrement deferred steps over a longword pointer.
            regs.write(register, address + (4 if plan.deferred else plan.size))
        elif ea_kind == EA_AUTODECREMENT:
            address = (regs.read(register) - plan.size) & MASK32
            regs.write(register, address)
        elif ea_kind == EA_RELATIVE:
            address = (ebox.ib._decode_va + plan.extension) & MASK32
        else:  # EA_ABSOLUTE
            address = plan.extension & MASK32
        if plan.deferred:
            address = ebox.data_read(address, 4, plan.routine, plan.row)
        if plan.is_indexed:
            address = (address + regs.read(plan.index_register) * plan.size) & MASK32
        value = None
        if plan.read_value:
            value = ebox.data_read(address, plan.size, plan.routine, plan.row)
    return OperandRef(
        plan.spec,
        plan.mode,
        plan.register,
        address,
        value,
        plan.routine,
        plan.position_class,
    )


def decode_branch_displacement(
    take: Callable[[int], bytes], dtype: DataType
) -> Tuple[int, int]:
    """Consume a branch displacement via ``take``: ``(width, signed value)``."""
    width = OPERAND_SIZE[dtype]
    return width, to_signed(int.from_bytes(take(width), "little"), 8 * width)


_MERGE_GROUPS = (OpcodeGroup.SIMPLE, OpcodeGroup.FIELD)
_MERGE_MODES = (AddressingMode.REGISTER, AddressingMode.SHORT_LITERAL)


def merges_execute(opcode, last_source_routine, last_mode) -> bool:
    """Section 5's literal/register optimization: a simple or field
    instruction that read a source and whose last operand (mode
    ``last_mode``; None without operands) is a register or short literal
    folds its first execute cycle into the last specifier cycle."""
    return (
        last_source_routine is not None
        and last_mode in _MERGE_MODES
        and opcode.group in _MERGE_GROUPS
    )
