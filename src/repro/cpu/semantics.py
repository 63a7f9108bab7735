"""Execute-phase semantics for the VAX opcode subset.

Each handler does three jobs: perform the instruction's architectural
work (registers, memory, condition codes, PC), spend its execute-phase
microcycles through :meth:`EBox.exec_compute` / :meth:`EBox.exec_loop`,
and perform its execute-phase memory traffic through
:meth:`EBox.exec_read` / :meth:`EBox.exec_write` (which charge the read/
write slots of the opcode's routine and so populate Table 8's columns).

Operand reads and result stores happen through the operand machinery and
charge *specifier* microcode, per the paper's division of labour.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.isa.datatypes import (
    add_with_flags,
    div_with_flags,
    f_floating_decode,
    f_floating_encode,
    mul_with_flags,
    packed_decimal_decode,
    packed_decimal_encode,
    packed_size,
    sign_extend,
    sub_with_flags,
    to_signed,
    truncate,
)
from repro.isa.opcodes import Opcode, OpcodeGroup
from repro.isa.psl import AccessMode
from repro.cpu.operands import OperandRef
from repro.ucode.costs import exec_profile

HANDLERS: Dict[str, Callable] = {}


def handler(*mnemonics):
    def register(fn):
        for mnemonic in mnemonics:
            if mnemonic in HANDLERS:
                raise ValueError("duplicate handler for {}".format(mnemonic))
            HANDLERS[mnemonic] = fn
        return fn

    return register


def dispatch(ebox, opcode: Opcode, operands: List[OperandRef]) -> None:
    """Run the execute phase of ``opcode``."""
    try:
        fn = HANDLERS[opcode.mnemonic]
    except KeyError:
        raise NotImplementedError(
            "no execute semantics for {}".format(opcode.mnemonic)
        ) from None
    fn(ebox, opcode, operands)


def _base_cycles(ebox) -> int:
    cycles = exec_profile(ebox.current_opcode).base_cycles
    if ebox.current_opcode.group is OpcodeGroup.FLOAT and ebox.float_slowdown > 1:
        # Without the Floating Point Accelerator the float microcode
        # grinds through the fraction datapath serially.
        cycles *= ebox.float_slowdown
    return cycles


def _per_item(ebox) -> int:
    return exec_profile(ebox.current_opcode).per_item_cycles


# ---------------------------------------------------------------------------
# moves and simple unary operations
# ---------------------------------------------------------------------------


@handler("MOVB", "MOVW", "MOVL", "MOVQ")
def _move(ebox, opcode, ops):
    value = ops[0].value
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc.set_nz(value, ops[0].spec.dtype.bits)
    ebox.store(ops[1], value)


@handler("MOVZBW", "MOVZBL", "MOVZWL")
def _move_zero_extended(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc.set_nz(ops[0].value, ops[1].spec.dtype.bits)
    ebox.store(ops[1], ops[0].value)


@handler("MOVAB", "MOVAW", "MOVAL", "MOVAQ")
def _move_address(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    address = ops[0].address
    ebox.psl.cc.set_nz(address, 32)
    ebox.store(ops[1], address)


@handler("PUSHAB", "PUSHAW", "PUSHAL")
def _push_address(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    address = ops[0].address
    ebox.psl.cc.set_nz(address, 32)
    ebox.push(address)


@handler("PUSHL")
def _pushl(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc.set_nz(ops[0].value, 32)
    ebox.push(ops[0].value)


@handler("CLRB", "CLRW", "CLRL", "CLRQ")
def _clear(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc.set_nz(0, 32)
    ebox.store(ops[0], 0)


@handler("MCOMB", "MCOMW", "MCOML")
def _complement(ebox, opcode, ops):
    bits = ops[0].spec.dtype.bits
    value = (~ops[0].value) & ((1 << bits) - 1)
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    ebox.psl.cc.set_nz(value, bits)
    ebox.store(ops[1], value)


@handler("MNEGB", "MNEGW", "MNEGL")
def _negate(ebox, opcode, ops):
    bits = ops[0].spec.dtype.bits
    result, cc = sub_with_flags(0, ops[0].value, bits)
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    ebox.psl.cc = cc
    ebox.store(ops[1], result)


@handler("CVTBW", "CVTBL", "CVTWL", "CVTWB", "CVTLB", "CVTLW")
def _convert_integer(ebox, opcode, ops):
    src_bits = ops[0].spec.dtype.bits
    dst_bits = ops[1].spec.dtype.bits
    ebox.exec_compute(_base_cycles(ebox))
    extended = sign_extend(ops[0].value, src_bits)
    signed = to_signed(extended, 32)
    result = truncate(extended, dst_bits)
    ebox.psl.cc.set_nz(result, dst_bits)
    limit = 1 << (dst_bits - 1)
    ebox.psl.cc.v = not (-limit <= signed < limit) if dst_bits < src_bits else False
    if ebox.psl.cc.v:
        ebox.events.arithmetic_exceptions += 1
    ebox.store(ops[1], result)


@handler("NOP")
def _nop(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))


# ---------------------------------------------------------------------------
# integer ALU
# ---------------------------------------------------------------------------


def _alu_binary(ebox, opcode, ops, operation):
    """Shared body for two- and three-operand ALU forms."""
    bits = ops[0].spec.dtype.bits
    a = ops[0].value
    b = ops[1].value  # destination's old value for 2-op (modify access)
    result, cc = operation(a, b, bits)
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    ebox.psl.cc = cc
    ebox.store(ops[-1], result)
    if cc.v:
        ebox.events.arithmetic_exceptions += 1


@handler("ADDB2", "ADDW2", "ADDL2", "ADDB3", "ADDW3", "ADDL3")
def _add(ebox, opcode, ops):
    _alu_binary(ebox, opcode, ops, lambda a, b, bits: add_with_flags(b, a, bits))


@handler("SUBB2", "SUBW2", "SUBL2", "SUBB3", "SUBW3", "SUBL3")
def _sub(ebox, opcode, ops):
    _alu_binary(ebox, opcode, ops, lambda a, b, bits: sub_with_flags(b, a, bits))


@handler("ADWC")
def _adwc(ebox, opcode, ops):
    carry = 1 if ebox.psl.cc.c else 0
    result, cc = add_with_flags(ops[1].value, ops[0].value, 32, carry_in=carry)
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc = cc
    ebox.store(ops[1], result)


@handler("SBWC")
def _sbwc(ebox, opcode, ops):
    borrow = 1 if ebox.psl.cc.c else 0
    result, cc = sub_with_flags(ops[1].value, (ops[0].value + borrow) & 0xFFFFFFFF, 32)
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc = cc
    ebox.store(ops[1], result)


@handler("INCB", "INCW", "INCL")
def _increment(ebox, opcode, ops):
    bits = ops[0].spec.dtype.bits
    result, cc = add_with_flags(ops[0].value, 1, bits)
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    ebox.psl.cc = cc
    ebox.store(ops[0], result)


@handler("DECB", "DECW", "DECL")
def _decrement(ebox, opcode, ops):
    bits = ops[0].spec.dtype.bits
    result, cc = sub_with_flags(ops[0].value, 1, bits)
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    ebox.psl.cc = cc
    ebox.store(ops[0], result)


@handler("CMPB", "CMPW", "CMPL")
def _compare(ebox, opcode, ops):
    bits = ops[0].spec.dtype.bits
    _, cc = sub_with_flags(ops[0].value, ops[1].value, bits)
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    cc.v = False
    ebox.psl.cc = cc


@handler("TSTB", "TSTW", "TSTL")
def _test(ebox, opcode, ops):
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    ebox.psl.cc.set_nz(ops[0].value, ops[0].spec.dtype.bits)
    ebox.psl.cc.c = False


@handler("BITB", "BITW", "BITL")
def _bit_test(ebox, opcode, ops):
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    ebox.psl.cc.set_nz(ops[0].value & ops[1].value, ops[0].spec.dtype.bits)


def _logical(ebox, ops, combine):
    bits = ops[0].spec.dtype.bits
    result = combine(ops[0].value, ops[1].value) & ((1 << bits) - 1)
    ebox.exec_compute(max(1, _base_cycles(ebox)))
    ebox.psl.cc.set_nz(result, bits)
    ebox.store(ops[-1], result)


@handler("BICB2", "BICW2", "BICL2", "BICB3", "BICW3", "BICL3")
def _bit_clear(ebox, opcode, ops):
    _logical(ebox, ops, lambda mask, value: value & ~mask)


@handler("BISB2", "BISW2", "BISL2", "BISB3", "BISW3", "BISL3")
def _bit_set(ebox, opcode, ops):
    _logical(ebox, ops, lambda mask, value: value | mask)


@handler("XORB2", "XORW2", "XORL2", "XORB3", "XORW3", "XORL3")
def _xor(ebox, opcode, ops):
    _logical(ebox, ops, lambda mask, value: value ^ mask)


@handler("ASHL")
def _arithmetic_shift(ebox, opcode, ops):
    count = to_signed(ops[0].value, 8)
    value = to_signed(ops[1].value, 32)
    ebox.exec_compute(_base_cycles(ebox))
    if count >= 0:
        shifted = value << min(count, 32)
    else:
        shifted = value >> min(-count, 31)
    result = truncate(shifted, 32)
    ebox.psl.cc.set_nz(result, 32)
    ebox.psl.cc.v = to_signed(result, 32) != shifted
    ebox.store(ops[2], result)


@handler("ROTL")
def _rotate(ebox, opcode, ops):
    count = to_signed(ops[0].value, 8) % 32
    value = ops[1].value & 0xFFFFFFFF
    ebox.exec_compute(_base_cycles(ebox))
    result = ((value << count) | (value >> (32 - count))) & 0xFFFFFFFF if count else value
    ebox.psl.cc.set_nz(result, 32)
    ebox.store(ops[2], result)


@handler("MULB2", "MULW2", "MULL2", "MULB3", "MULW3", "MULL3")
def _multiply(ebox, opcode, ops):
    _alu_binary(ebox, opcode, ops, lambda a, b, bits: mul_with_flags(b, a, bits))


@handler("DIVB2", "DIVW2", "DIVL2", "DIVB3", "DIVW3", "DIVL3")
def _divide(ebox, opcode, ops):
    _alu_binary(ebox, opcode, ops, lambda a, b, bits: div_with_flags(b, a, bits))


@handler("EMUL")
def _extended_multiply(ebox, opcode, ops):
    product = to_signed(ops[0].value, 32) * to_signed(ops[1].value, 32)
    product += to_signed(ops[2].value, 32)
    ebox.exec_compute(_base_cycles(ebox))
    result = product & 0xFFFFFFFFFFFFFFFF
    ebox.psl.cc.set_nz(result, 64)
    ebox.store(ops[3], result)


@handler("EDIV")
def _extended_divide(ebox, opcode, ops):
    divisor = to_signed(ops[0].value, 32)
    dividend = to_signed(ops[1].value, 64)
    ebox.exec_compute(_base_cycles(ebox))
    if divisor == 0:
        ebox.psl.cc.v = True
        ebox.events.arithmetic_exceptions += 1
        ebox.store(ops[2], 0)
        ebox.store(ops[3], 0)
        return
    quotient = int(dividend / divisor)
    remainder = dividend - quotient * divisor
    ebox.psl.cc.set_nz(truncate(quotient, 32), 32)
    ebox.psl.cc.v = not (-(1 << 31) <= quotient < (1 << 31))
    ebox.store(ops[2], truncate(quotient, 32))
    ebox.store(ops[3], truncate(remainder, 32))


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

_CONDITIONS = {
    "BNEQ": lambda cc: not cc.z,
    "BEQL": lambda cc: cc.z,
    "BGTR": lambda cc: not (cc.n or cc.z),
    "BLEQ": lambda cc: cc.n or cc.z,
    "BGEQ": lambda cc: not cc.n,
    "BLSS": lambda cc: cc.n,
    "BGTRU": lambda cc: not (cc.c or cc.z),
    "BLEQU": lambda cc: cc.c or cc.z,
    "BVC": lambda cc: not cc.v,
    "BVS": lambda cc: cc.v,
    "BCC": lambda cc: not cc.c,
    "BCS": lambda cc: cc.c,
    "BRB": lambda cc: True,
    "BRW": lambda cc: True,
}


@handler(*_CONDITIONS)
def _conditional_branch(ebox, opcode, ops):
    taken = _CONDITIONS[opcode.mnemonic](ebox.psl.cc)
    ebox.exec_compute(1)
    ebox.record_branch(taken)
    ebox.branch_with_displacement(taken)


@handler("AOBLSS", "AOBLEQ")
def _add_one_branch(ebox, opcode, ops):
    limit = to_signed(ops[0].value, 32)
    index, cc = add_with_flags(ops[1].value, 1, 32)
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc.n, ebox.psl.cc.z, ebox.psl.cc.v = cc.n, cc.z, cc.v
    ebox.store(ops[1], index)
    signed = to_signed(index, 32)
    taken = signed < limit if opcode.mnemonic == "AOBLSS" else signed <= limit
    ebox.record_branch(taken)
    ebox.branch_with_displacement(taken)


@handler("SOBGEQ", "SOBGTR")
def _subtract_one_branch(ebox, opcode, ops):
    index, cc = sub_with_flags(ops[0].value, 1, 32)
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc.n, ebox.psl.cc.z, ebox.psl.cc.v = cc.n, cc.z, cc.v
    ebox.store(ops[0], index)
    signed = to_signed(index, 32)
    taken = signed >= 0 if opcode.mnemonic == "SOBGEQ" else signed > 0
    ebox.record_branch(taken)
    ebox.branch_with_displacement(taken)


@handler("ACBB", "ACBW", "ACBL")
def _add_compare_branch(ebox, opcode, ops):
    bits = ops[0].spec.dtype.bits
    limit = to_signed(sign_extend(ops[0].value, bits), 32)
    addend = to_signed(sign_extend(ops[1].value, bits), 32)
    index, cc = add_with_flags(ops[2].value, ops[1].value, bits)
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc.n, ebox.psl.cc.z, ebox.psl.cc.v = cc.n, cc.z, cc.v
    ebox.store(ops[2], index)
    signed = to_signed(sign_extend(index, bits), 32)
    taken = signed <= limit if addend >= 0 else signed >= limit
    ebox.record_branch(taken)
    ebox.branch_with_displacement(taken)


@handler("BLBS", "BLBC")
def _low_bit_branch(ebox, opcode, ops):
    bit = ops[0].value & 1
    ebox.exec_compute(_base_cycles(ebox))
    taken = bool(bit) if opcode.mnemonic == "BLBS" else not bit
    ebox.record_branch(taken)
    ebox.branch_with_displacement(taken)


@handler("BSBB", "BSBW")
def _branch_subroutine(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    ebox.push(ebox.ib.decode_va)
    ebox.record_branch(True)
    ebox.branch_with_displacement(True)


@handler("JSB")
def _jump_subroutine(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    ebox.push(ebox.ib.decode_va)
    ebox.record_branch(True)
    ebox.jump(ops[0].address)


@handler("RSB")
def _return_subroutine(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    target = ebox.pop()
    ebox.record_branch(True)
    ebox.jump(target)


@handler("JMP")
def _jump(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    ebox.record_branch(True)
    ebox.jump(ops[0].address)


@handler("CASEB", "CASEW", "CASEL")
def _case(ebox, opcode, ops):
    bits = ops[0].spec.dtype.bits
    selector = to_signed(sign_extend(ops[0].value, bits), 32)
    base = to_signed(sign_extend(ops[1].value, bits), 32)
    limit = to_signed(sign_extend(ops[2].value, bits), 32)
    index = selector - base
    table_va = ebox.ib.decode_va
    ebox.exec_compute(_base_cycles(ebox))
    ebox.record_branch(True)  # CASE always redirects (Table 2: 100%)
    if 0 <= index <= limit:
        raw = ebox.exec_read((table_va + 2 * index) & 0xFFFFFFFF, 2)
        displacement = to_signed(raw, 16)
        ebox.jump((table_va + displacement) & 0xFFFFFFFF)
    else:
        ebox.jump((table_va + 2 * (limit + 1)) & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# bit fields
# ---------------------------------------------------------------------------


def _field_fetch(ebox, pos: int, size: int, base: OperandRef) -> int:
    """Extract ``size`` bits at bit offset ``pos`` from a field base."""
    if size == 0:
        return 0
    if base.is_register:
        surrounding = base.value | (
            ebox.regs.read((base.register + 1) & 0xF) << 32
        )
        return (surrounding >> pos) & ((1 << size) - 1)
    byte_va = (base.address + (pos >> 3)) & 0xFFFFFFFF
    bit = pos & 7
    span = (bit + size + 7) // 8
    raw = ebox.exec_read(byte_va, min(span, 4))
    if span > 4:
        raw |= ebox.exec_read((byte_va + 4) & 0xFFFFFFFF, span - 4) << 32
    return (raw >> bit) & ((1 << size) - 1)


def _field_store(ebox, pos: int, size: int, base: OperandRef, value: int) -> None:
    """Insert ``size`` bits at bit offset ``pos`` into a field base."""
    if size == 0:
        return
    mask = (1 << size) - 1
    value &= mask
    if base.is_register:
        low = ebox.regs.read(base.register)
        high = ebox.regs.read((base.register + 1) & 0xF)
        surrounding = low | (high << 32)
        surrounding = (surrounding & ~(mask << pos)) | (value << pos)
        ebox.regs.write(base.register, surrounding & 0xFFFFFFFF)
        if pos + size > 32:
            ebox.regs.write((base.register + 1) & 0xF, (surrounding >> 32) & 0xFFFFFFFF)
        return
    byte_va = (base.address + (pos >> 3)) & 0xFFFFFFFF
    bit = pos & 7
    span = (bit + size + 7) // 8
    span = min(span, 4)
    raw = ebox.exec_read(byte_va, span)
    raw = (raw & ~(mask << bit)) | (value << bit)
    ebox.exec_write(byte_va, span, raw)


@handler("EXTV", "EXTZV")
def _extract_field(ebox, opcode, ops):
    pos = ops[0].value & 0xFFFFFFFF
    size = ops[1].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    field = _field_fetch(ebox, pos, size, ops[2])
    if opcode.mnemonic == "EXTV" and size:
        field = sign_extend(field, size)
    ebox.psl.cc.set_nz(field, 32)
    ebox.store(ops[3], field)


@handler("INSV")
def _insert_field(ebox, opcode, ops):
    value = ops[0].value
    pos = ops[1].value & 0xFFFFFFFF
    size = ops[2].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    _field_store(ebox, pos, size, ops[3], value)


@handler("CMPV", "CMPZV")
def _compare_field(ebox, opcode, ops):
    pos = ops[0].value & 0xFFFFFFFF
    size = ops[1].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    field = _field_fetch(ebox, pos, size, ops[2])
    if opcode.mnemonic == "CMPV" and size:
        field = sign_extend(field, size)
    _, cc = sub_with_flags(field, ops[3].value, 32)
    cc.v = False
    ebox.psl.cc = cc


@handler("FFS", "FFC")
def _find_first(ebox, opcode, ops):
    start = ops[0].value & 0xFFFFFFFF
    size = ops[1].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    field = _field_fetch(ebox, start, size, ops[2])
    if opcode.mnemonic == "FFC":
        field = (~field) & ((1 << size) - 1) if size else 0
    position = start + size  # default: not found
    found = False
    for bit in range(size):
        if field & (1 << bit):
            position = start + bit
            found = True
            break
    ebox.psl.cc.z = not found
    ebox.psl.cc.n = ebox.psl.cc.v = ebox.psl.cc.c = False
    ebox.store(ops[3], position & 0xFFFFFFFF)


@handler("BBS", "BBC", "BBSS", "BBCS", "BBSC", "BBCC", "BBSSI", "BBCCI")
def _bit_branch(ebox, opcode, ops):
    pos = ops[0].value & 0xFFFFFFFF
    base = ops[1]
    if base.is_register:
        pos &= 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    bit = _field_fetch(ebox, pos, 1, base)
    mnemonic = opcode.mnemonic
    branch_on_set = mnemonic[2] == "S"
    taken = bool(bit) == branch_on_set
    if len(mnemonic) >= 4 and mnemonic[3] in ("S", "C"):
        new_bit = 1 if mnemonic[3] == "S" else 0
        _field_store(ebox, pos, 1, base, new_bit)
    ebox.record_branch(taken)
    ebox.branch_with_displacement(taken)


# ---------------------------------------------------------------------------
# floating point (FPA-assisted)
# ---------------------------------------------------------------------------


def _float_cc(ebox, value: float) -> None:
    ebox.psl.cc.n = value < 0
    ebox.psl.cc.z = value == 0
    ebox.psl.cc.v = False
    ebox.psl.cc.c = False


def _float_binary(ebox, ops, combine):
    a = f_floating_decode(ops[0].value)
    b = f_floating_decode(ops[1].value)
    ebox.exec_compute(_base_cycles(ebox))
    result = combine(a, b)
    _float_cc(ebox, result)
    ebox.store(ops[-1], f_floating_encode(result))


@handler("ADDF2", "ADDF3")
def _float_add(ebox, opcode, ops):
    _float_binary(ebox, ops, lambda a, b: b + a)


@handler("SUBF2", "SUBF3")
def _float_sub(ebox, opcode, ops):
    _float_binary(ebox, ops, lambda a, b: b - a)


@handler("MULF2", "MULF3")
def _float_mul(ebox, opcode, ops):
    _float_binary(ebox, ops, lambda a, b: b * a)


@handler("DIVF2", "DIVF3")
def _float_div(ebox, opcode, ops):
    def divide(a, b):
        if a == 0.0:
            ebox.events.arithmetic_exceptions += 1
            return 0.0
        return b / a

    _float_binary(ebox, ops, divide)


@handler("MOVF")
def _float_move(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    _float_cc(ebox, f_floating_decode(ops[0].value))
    ebox.store(ops[1], ops[0].value)


@handler("MNEGF")
def _float_negate(ebox, opcode, ops):
    value = -f_floating_decode(ops[0].value)
    ebox.exec_compute(_base_cycles(ebox))
    _float_cc(ebox, value)
    ebox.store(ops[1], f_floating_encode(value))


@handler("CMPF")
def _float_compare(ebox, opcode, ops):
    a = f_floating_decode(ops[0].value)
    b = f_floating_decode(ops[1].value)
    ebox.exec_compute(_base_cycles(ebox))
    ebox.psl.cc.n = a < b
    ebox.psl.cc.z = a == b
    ebox.psl.cc.v = ebox.psl.cc.c = False


@handler("TSTF")
def _float_test(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    _float_cc(ebox, f_floating_decode(ops[0].value))


@handler("CVTBF", "CVTWF", "CVTLF")
def _int_to_float(ebox, opcode, ops):
    bits = ops[0].spec.dtype.bits
    value = float(to_signed(sign_extend(ops[0].value, bits), 32))
    ebox.exec_compute(_base_cycles(ebox))
    _float_cc(ebox, value)
    ebox.store(ops[1], f_floating_encode(value))


@handler("CVTFB", "CVTFW", "CVTFL", "CVTRFL")
def _float_to_int(ebox, opcode, ops):
    value = f_floating_decode(ops[0].value)
    ebox.exec_compute(_base_cycles(ebox))
    if opcode.mnemonic == "CVTRFL":
        converted = int(round(value))
    else:
        converted = int(value)  # truncate toward zero
    bits = ops[1].spec.dtype.bits
    result = truncate(converted, bits)
    ebox.psl.cc.set_nz(result, bits)
    limit = 1 << (bits - 1)
    ebox.psl.cc.v = not (-limit <= converted < limit)
    ebox.store(ops[1], result)


@handler("ACBF")
def _float_add_compare_branch(ebox, opcode, ops):
    limit = f_floating_decode(ops[0].value)
    addend = f_floating_decode(ops[1].value)
    index = f_floating_decode(ops[2].value) + addend
    ebox.exec_compute(_base_cycles(ebox))
    _float_cc(ebox, index)
    ebox.store(ops[2], f_floating_encode(index))
    taken = index <= limit if addend >= 0 else index >= limit
    ebox.record_branch(taken)
    ebox.branch_with_displacement(taken)


@handler("POLYF")
def _polynomial_evaluate(ebox, opcode, ops):
    """POLYF: Horner evaluation of a degree-d polynomial whose
    coefficients live in a memory table — a per-degree multiply-add loop
    through the FPA."""
    argument = f_floating_decode(ops[0].value)
    degree = ops[1].value & 0x1F
    table = ops[2].address
    ebox.exec_compute(_base_cycles(ebox))
    per_item = _per_item(ebox)
    result = f_floating_decode(ebox.exec_read(table, 4))
    for term in range(degree):
        coefficient = f_floating_decode(
            ebox.exec_read((table + 4 * (term + 1)) & 0xFFFFFFFF, 4)
        )
        ebox.exec_loop(per_item)
        result = result * argument + coefficient
    _float_cc(ebox, result)
    ebox.regs.write(0, f_floating_encode(result))
    ebox.regs.write(1, 0)
    ebox.regs.write(2, 0)
    ebox.regs.write(3, (table + 4 * (degree + 1)) & 0xFFFFFFFF)


@handler("EMODF")
def _extended_modulus(ebox, opcode, ops):
    """EMODF: extended-precision multiply, separating the integer and
    fraction parts of the product."""
    multiplier = f_floating_decode(ops[0].value)
    extension = ops[1].value & 0xFF  # extra multiplier fraction bits
    multiplicand = f_floating_decode(ops[2].value)
    ebox.exec_compute(_base_cycles(ebox))
    product = multiplier * multiplicand * (1.0 + extension / 65536.0 / 256.0)
    integer_part = int(product)
    fraction = product - integer_part
    ebox.psl.cc.n = product < 0
    ebox.psl.cc.z = product == 0
    ebox.psl.cc.v = not (-(1 << 31) <= integer_part < (1 << 31))
    ebox.store(ops[3], truncate(integer_part, 32))
    ebox.store(ops[4], f_floating_encode(fraction))


# ---------------------------------------------------------------------------
# procedure call / return, register push / pop
# ---------------------------------------------------------------------------

_SAVED_MASK_S_BIT = 1 << 15  # our frame's "called with CALLS" flag


def _push_call_frame(ebox, target: int, arg_pointer: int, calls_flag: bool) -> None:
    """Push the CALL frame and transfer control (shared CALLS/CALLG tail)."""
    mask = ebox.exec_read(target, 2) & 0x0FFF
    per_item = _per_item(ebox)
    saved_psw = (mask << 16) | (_SAVED_MASK_S_BIT if calls_flag else 0)
    cc = ebox.psl.cc
    saved_psw |= (1 if cc.c else 0) | (2 if cc.v else 0) | (4 if cc.z else 0) | (8 if cc.n else 0)
    # Registers named in the entry mask, highest first (real stack order).
    for register in range(11, -1, -1):
        if mask & (1 << register):
            ebox.exec_loop(per_item)
            ebox.push(ebox.regs.read(register))
    ebox.push(ebox.ib.decode_va)  # return PC
    ebox.push(ebox.regs.fp)
    ebox.push(ebox.regs.ap)
    ebox.push(saved_psw)
    ebox.push(0)  # condition handler
    ebox.regs.fp = ebox.regs.sp
    ebox.regs.ap = arg_pointer
    ebox.record_branch(True)
    ebox.jump((target + 2) & 0xFFFFFFFF)


@handler("CALLS")
def _call_with_stack(ebox, opcode, ops):
    count = ops[0].value & 0xFF
    ebox.exec_compute(_base_cycles(ebox))
    ebox.push(count)
    _push_call_frame(ebox, ops[1].address, arg_pointer=ebox.regs.sp, calls_flag=True)


@handler("CALLG")
def _call_general(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    _push_call_frame(ebox, ops[1].address, arg_pointer=ops[0].address, calls_flag=False)


@handler("RET")
def _return_procedure(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    frame = ebox.regs.fp
    ebox.regs.sp = frame
    _handler_slot = ebox.pop()  # condition handler
    saved_psw = ebox.pop()
    ebox.regs.ap = ebox.pop()
    ebox.regs.fp = ebox.pop()
    return_pc = ebox.pop()
    mask = (saved_psw >> 16) & 0x0FFF
    per_item = _per_item(ebox)
    for register in range(0, 12):
        if mask & (1 << register):
            ebox.exec_loop(per_item)
            ebox.regs.write(register, ebox.pop())
    if saved_psw & _SAVED_MASK_S_BIT:
        count = ebox.exec_read(ebox.regs.sp, 4) & 0xFF
        ebox.regs.sp = (ebox.regs.sp + 4 * (count + 1)) & 0xFFFFFFFF
    cc = ebox.psl.cc
    cc.c, cc.v, cc.z, cc.n = (
        bool(saved_psw & 1),
        bool(saved_psw & 2),
        bool(saved_psw & 4),
        bool(saved_psw & 8),
    )
    ebox.record_branch(True)
    ebox.jump(return_pc)


@handler("PUSHR")
def _push_registers(ebox, opcode, ops):
    mask = ops[0].value & 0x7FFF
    ebox.exec_compute(_base_cycles(ebox))
    per_item = _per_item(ebox)
    for register in range(14, -1, -1):
        if mask & (1 << register):
            ebox.exec_loop(per_item)
            ebox.push(ebox.regs.read(register))


@handler("POPR")
def _pop_registers(ebox, opcode, ops):
    mask = ops[0].value & 0x7FFF
    ebox.exec_compute(_base_cycles(ebox))
    per_item = _per_item(ebox)
    for register in range(0, 15):
        if mask & (1 << register):
            ebox.exec_loop(per_item)
            ebox.regs.write(register, ebox.pop())


# ---------------------------------------------------------------------------
# system instructions
# ---------------------------------------------------------------------------


@handler("HALT")
def _halt(ebox, opcode, ops):
    ebox.exec_compute(1)
    ebox.halted = True


@handler("CHMK", "CHME")
def _change_mode(ebox, opcode, ops):
    code = sign_extend(ops[0].value, 16)
    ebox.exec_compute(_base_cycles(ebox))
    target_mode = AccessMode.KERNEL if opcode.mnemonic == "CHMK" else AccessMode.EXECUTIVE
    saved_psl = ebox.psl.pack()
    return_pc = ebox.ib.decode_va
    ebox.switch_mode(target_mode)
    ebox.push(saved_psl)
    ebox.push(return_pc)
    ebox.push(code)
    vector = 0
    if ebox.machine is not None:
        vector = ebox.machine.scb_vector(opcode.mnemonic.lower())
    ebox.record_branch(True)
    ebox.jump(vector)


@handler("REI")
def _return_from_exception(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    return_pc = ebox.pop()
    new_psl = ebox.pop()
    target_mode = AccessMode((new_psl >> 24) & 3)
    ebox.switch_mode(target_mode)
    ebox.psl.unpack(new_psl)
    # switch_mode already updated current_mode/stack; unpack restored the
    # same mode bits, so state is coherent.
    ebox.record_branch(True)
    ebox.jump(return_pc)
    if ebox.machine is not None:
        ebox.machine.after_rei()


# PCB layout (longword offsets): 0..13 = R0..R13, 14..17 = KSP/ESP/SSP/USP,
# 18 = PC, 19 = PSL.
_PCB_SP_BASE = 14
_PCB_PC = 18
_PCB_PSL = 19


@handler("SVPCTX")
def _save_process_context(ebox, opcode, ops):
    """Save the current process context.

    As on the real VAX, SVPCTX *pops the PC and PSL that the interrupt or
    exception pushed* from the current stack into the PCB — that is what
    makes LDPCTX+REI resume the interrupted code directly.
    """
    ebox.exec_compute(_base_cycles(ebox))
    pcb = ebox.pr.get(PR_PCBB, 0)
    per_item = _per_item(ebox)
    saved_pc = ebox.pop()
    saved_psl = ebox.pop()
    # Snapshot general registers and the four per-mode stack pointers.
    ebox.mode_sps[int(ebox.psl.current_mode)] = ebox.regs.sp
    for index in range(14):
        ebox.exec_loop(per_item)
        ebox.exec_write_physical((pcb + 4 * index) & 0xFFFFFFFF, 4, ebox.regs.read(index))
    for mode in range(4):
        ebox.exec_write_physical((pcb + 4 * (_PCB_SP_BASE + mode)) & 0xFFFFFFFF, 4, ebox.mode_sps[mode])
    ebox.exec_write_physical((pcb + 4 * _PCB_PC) & 0xFFFFFFFF, 4, saved_pc)
    ebox.exec_write_physical((pcb + 4 * _PCB_PSL) & 0xFFFFFFFF, 4, saved_psl)


@handler("LDPCTX")
def _load_process_context(ebox, opcode, ops):
    """Load a process context from the PCB named by the PCBB register.

    Flushes the process half of the TB (the paper's Section 3.4 points at
    context-switch headway as the TB "flush interval") and leaves the
    saved PC/PSL on the kernel stack for the REI that follows.
    """
    ebox.exec_compute(_base_cycles(ebox))
    pcb = ebox.pr.get(PR_PCBB, 0)
    per_item = _per_item(ebox)
    for index in range(14):
        ebox.exec_loop(per_item)
        ebox.regs.write(index, ebox.exec_read_physical((pcb + 4 * index) & 0xFFFFFFFF, 4))
    for mode in range(4):
        ebox.mode_sps[mode] = ebox.exec_read_physical(
            (pcb + 4 * (_PCB_SP_BASE + mode)) & 0xFFFFFFFF, 4
        )
    saved_pc = ebox.exec_read_physical((pcb + 4 * _PCB_PC) & 0xFFFFFFFF, 4)
    saved_psl = ebox.exec_read_physical((pcb + 4 * _PCB_PSL) & 0xFFFFFFFF, 4)
    # The kernel stack becomes the loaded process's kernel stack.
    ebox.regs.sp = ebox.mode_sps[int(ebox.psl.current_mode)]
    ebox.memory.tb.flush_process()
    if ebox.machine is not None:
        ebox.machine.on_context_load(pcb)
    ebox.events.context_switches += 1
    ebox.push(saved_psl)
    ebox.push(saved_pc)


# Processor register numbers (the architectural ones we use).
PR_KSP = 0
PR_PCBB = 16
PR_SCBB = 17
PR_IPL = 18
PR_SIRR = 20
PR_SISR = 21
PR_TBIA = 57
PR_TBIS = 58


@handler("MTPR")
def _move_to_processor_register(ebox, opcode, ops):
    value = ops[0].value
    register = ops[1].value & 0xFF
    ebox.exec_compute(_base_cycles(ebox))
    if register == PR_TBIA:
        ebox.memory.tb.flush_all()
        return
    if register == PR_TBIS:
        ebox.memory.tb.invalidate(value)
        return
    if register == PR_IPL:
        ebox.psl.ipl = value & 0x1F
        return
    ebox.pr[register] = value & 0xFFFFFFFF
    if register == PR_SIRR:
        ebox.events.software_interrupt_requests += 1
        if ebox.machine is not None:
            ebox.machine.request_software_interrupt(value & 0xF)
    elif ebox.machine is not None:
        # Implementation-defined processor registers: the OS layer may
        # attach behaviour (scheduler pick, process block/wake).
        ebox.machine.on_mtpr(register, value)


@handler("MFPR")
def _move_from_processor_register(ebox, opcode, ops):
    register = ops[0].value & 0xFF
    ebox.exec_compute(_base_cycles(ebox))
    if register == PR_IPL:
        value = ebox.psl.ipl
    else:
        value = ebox.pr.get(register, 0)
    ebox.psl.cc.set_nz(value, 32)
    ebox.store(ops[1], value)


@handler("PROBER", "PROBEW")
def _probe(ebox, opcode, ops):
    base = ops[2].address
    ebox.exec_compute(_base_cycles(ebox))
    try:
        entry = ebox.memory.pte_lookup(base)
        accessible = entry.valid and (opcode.mnemonic == "PROBER" or entry.writable)
    except Exception:
        accessible = False
    # Z set when the access would NOT be allowed (branch-on-equal fails).
    ebox.psl.cc.z = not accessible
    ebox.psl.cc.n = ebox.psl.cc.v = ebox.psl.cc.c = False


@handler("INSQUE")
def _insert_queue(ebox, opcode, ops):
    entry = ops[0].address
    predecessor = ops[1].address
    ebox.exec_compute(_base_cycles(ebox))
    successor = ebox.exec_read(predecessor, 4)
    ebox.exec_write(entry, 4, successor)  # entry.flink
    ebox.exec_write((entry + 4) & 0xFFFFFFFF, 4, predecessor)  # entry.blink
    ebox.exec_write(predecessor, 4, entry)  # pred.flink
    ebox.exec_write((successor + 4) & 0xFFFFFFFF, 4, entry)  # succ.blink
    ebox.psl.cc.z = successor == predecessor  # queue was empty


@handler("REMQUE")
def _remove_queue(ebox, opcode, ops):
    entry = ops[0].address
    ebox.exec_compute(_base_cycles(ebox))
    successor = ebox.exec_read(entry, 4)
    predecessor = ebox.exec_read((entry + 4) & 0xFFFFFFFF, 4)
    ebox.exec_write(predecessor, 4, successor)
    ebox.exec_write((successor + 4) & 0xFFFFFFFF, 4, predecessor)
    ebox.psl.cc.z = successor == predecessor  # queue now empty
    ebox.store(ops[1], entry)


@handler("BISPSW")
def _bis_psw(ebox, opcode, ops):
    mask = ops[0].value & 0xF
    ebox.exec_compute(_base_cycles(ebox))
    cc = ebox.psl.cc
    cc.c = cc.c or bool(mask & 1)
    cc.v = cc.v or bool(mask & 2)
    cc.z = cc.z or bool(mask & 4)
    cc.n = cc.n or bool(mask & 8)


@handler("BICPSW")
def _bic_psw(ebox, opcode, ops):
    mask = ops[0].value & 0xF
    ebox.exec_compute(_base_cycles(ebox))
    cc = ebox.psl.cc
    cc.c = cc.c and not (mask & 1)
    cc.v = cc.v and not (mask & 2)
    cc.z = cc.z and not (mask & 4)
    cc.n = cc.n and not (mask & 8)


# ---------------------------------------------------------------------------
# character strings
# ---------------------------------------------------------------------------


def _string_move(ebox, length: int, src: int, dst: int, fill: int = 0, src_len=None) -> None:
    """The MOVC copy loop: longword moves with writes spaced to dodge the
    write buffer, byte moves for the tail."""
    per_item = _per_item(ebox)
    copy_len = length if src_len is None else min(length, src_len)
    offset = 0
    while copy_len - offset >= 4:
        value = ebox.exec_read((src + offset) & 0xFFFFFFFF, 4)
        ebox.exec_loop(per_item)
        ebox.exec_write((dst + offset) & 0xFFFFFFFF, 4, value)
        offset += 4
    while offset < copy_len:
        value = ebox.exec_read((src + offset) & 0xFFFFFFFF, 1)
        ebox.exec_loop(max(1, per_item - 2))
        ebox.exec_write((dst + offset) & 0xFFFFFFFF, 1, value)
        offset += 1
    while offset < length:  # MOVC5 fill
        ebox.exec_loop(max(1, per_item - 2))
        ebox.exec_write((dst + offset) & 0xFFFFFFFF, 1, fill)
        offset += 1


@handler("MOVC3")
def _movc3(ebox, opcode, ops):
    length = ops[0].value & 0xFFFF
    src, dst = ops[1].address, ops[2].address
    ebox.exec_compute(_base_cycles(ebox))
    _string_move(ebox, length, src, dst)
    regs = ebox.regs
    regs.write(0, 0)
    regs.write(1, (src + length) & 0xFFFFFFFF)
    regs.write(2, 0)
    regs.write(3, (dst + length) & 0xFFFFFFFF)
    regs.write(4, 0)
    regs.write(5, 0)
    ebox.psl.cc.set_nz(0, 32)


@handler("MOVC5")
def _movc5(ebox, opcode, ops):
    src_len = ops[0].value & 0xFFFF
    src = ops[1].address
    fill = ops[2].value & 0xFF
    dst_len = ops[3].value & 0xFFFF
    dst = ops[4].address
    ebox.exec_compute(_base_cycles(ebox))
    _string_move(ebox, dst_len, src, dst, fill=fill, src_len=src_len)
    _, cc = sub_with_flags(src_len, dst_len, 16)
    ebox.psl.cc = cc
    ebox.regs.write(0, max(0, src_len - dst_len))
    ebox.regs.write(1, (src + min(src_len, dst_len)) & 0xFFFFFFFF)
    ebox.regs.write(3, (dst + dst_len) & 0xFFFFFFFF)


def _string_compare(ebox, len1: int, addr1: int, len2: int, addr2: int) -> None:
    per_item = _per_item(ebox)
    count = min(len1, len2)
    byte1 = byte2 = 0
    index = 0
    while index < count:
        if index % 4 == 0:
            remaining = min(4, count - index)
            word1 = ebox.exec_read((addr1 + index) & 0xFFFFFFFF, remaining)
            word2 = ebox.exec_read((addr2 + index) & 0xFFFFFFFF, remaining)
        shift = 8 * (index % 4)
        byte1 = (word1 >> shift) & 0xFF
        byte2 = (word2 >> shift) & 0xFF
        ebox.exec_loop(per_item)
        if byte1 != byte2:
            break
        index += 1
    if index >= count:
        _, cc = sub_with_flags(len1, len2, 16)
    else:
        _, cc = sub_with_flags(byte1, byte2, 8)
    ebox.psl.cc = cc
    ebox.regs.write(0, (len1 - index) & 0xFFFF)
    ebox.regs.write(1, (addr1 + index) & 0xFFFFFFFF)
    ebox.regs.write(2, (len2 - index) & 0xFFFF)
    ebox.regs.write(3, (addr2 + index) & 0xFFFFFFFF)


@handler("CMPC3")
def _cmpc3(ebox, opcode, ops):
    length = ops[0].value & 0xFFFF
    ebox.exec_compute(_base_cycles(ebox))
    _string_compare(ebox, length, ops[1].address, length, ops[2].address)


@handler("CMPC5")
def _cmpc5(ebox, opcode, ops):
    ebox.exec_compute(_base_cycles(ebox))
    _string_compare(
        ebox,
        ops[0].value & 0xFFFF,
        ops[1].address,
        ops[3].value & 0xFFFF,
        ops[4].address,
    )


def _string_scan(ebox, char: int, length: int, addr: int, want_match: bool):
    """Shared LOCC/SKPC loop; returns the index found or ``length``."""
    per_item = _per_item(ebox)
    index = 0
    word = 0
    while index < length:
        if index % 4 == 0:
            word = ebox.exec_read((addr + index) & 0xFFFFFFFF, min(4, length - index))
        byte = (word >> (8 * (index % 4))) & 0xFF
        ebox.exec_loop(per_item)
        if (byte == char) == want_match:
            break
        index += 1
    return index


@handler("LOCC", "SKPC")
def _locate_character(ebox, opcode, ops):
    char = ops[0].value & 0xFF
    length = ops[1].value & 0xFFFF
    addr = ops[2].address
    ebox.exec_compute(_base_cycles(ebox))
    index = _string_scan(ebox, char, length, addr, want_match=(opcode.mnemonic == "LOCC"))
    ebox.regs.write(0, (length - index) & 0xFFFF)
    ebox.regs.write(1, (addr + index) & 0xFFFFFFFF)
    ebox.psl.cc.z = index >= length

@handler("SCANC", "SPANC")
def _scan_characters(ebox, opcode, ops):
    length = ops[0].value & 0xFFFF
    addr = ops[1].address
    table = ops[2].address
    mask = ops[3].value & 0xFF
    ebox.exec_compute(_base_cycles(ebox))
    per_item = _per_item(ebox)
    index = 0
    word = 0
    while index < length:
        if index % 4 == 0:
            word = ebox.exec_read((addr + index) & 0xFFFFFFFF, min(4, length - index))
        byte = (word >> (8 * (index % 4))) & 0xFF
        table_entry = ebox.exec_read((table + byte) & 0xFFFFFFFF, 1)
        ebox.exec_loop(per_item)
        hit = bool(table_entry & mask)
        if hit == (opcode.mnemonic == "SCANC"):
            break
        index += 1
    ebox.regs.write(0, (length - index) & 0xFFFF)
    ebox.regs.write(1, (addr + index) & 0xFFFFFFFF)
    ebox.psl.cc.z = index >= length


@handler("MOVTC")
def _move_translated(ebox, opcode, ops):
    """MOVTC: copy with per-byte translation through a 256-byte table."""
    src_len = ops[0].value & 0xFFFF
    src = ops[1].address
    fill = ops[2].value & 0xFF
    table = ops[3].address
    dst_len = ops[4].value & 0xFFFF
    dst = ops[5].address
    ebox.exec_compute(_base_cycles(ebox))
    per_item = _per_item(ebox)
    for index in range(dst_len):
        if index < src_len:
            byte = ebox.exec_read((src + index) & 0xFFFFFFFF, 1)
            translated = ebox.exec_read((table + byte) & 0xFFFFFFFF, 1)
        else:
            translated = fill
        ebox.exec_loop(per_item)
        ebox.exec_write((dst + index) & 0xFFFFFFFF, 1, translated)
    _, cc = sub_with_flags(src_len, dst_len, 16)
    ebox.psl.cc = cc
    ebox.regs.write(0, max(0, src_len - dst_len))
    ebox.regs.write(1, (src + min(src_len, dst_len)) & 0xFFFFFFFF)
    ebox.regs.write(3, table & 0xFFFFFFFF)
    ebox.regs.write(5, (dst + dst_len) & 0xFFFFFFFF)


@handler("MATCHC")
def _match_characters(ebox, opcode, ops):
    """MATCHC: find a substring; Z set when the pattern is found."""
    pattern_len = ops[0].value & 0xFFFF
    pattern = ops[1].address
    string_len = ops[2].value & 0xFFFF
    string = ops[3].address
    ebox.exec_compute(_base_cycles(ebox))
    per_item = _per_item(ebox)
    pattern_bytes = bytes(
        ebox.exec_read((pattern + i) & 0xFFFFFFFF, 1) for i in range(pattern_len)
    )
    found_at = None
    limit = string_len - pattern_len
    index = 0
    while index <= limit:
        ebox.exec_loop(per_item)
        window = bytes(
            ebox.exec_read((string + index + j) & 0xFFFFFFFF, 1)
            for j in range(pattern_len)
        )
        if window == pattern_bytes:
            found_at = index
            break
        index += 1
    ebox.psl.cc.z = found_at is not None
    if found_at is not None:
        ebox.regs.write(0, 0)
        ebox.regs.write(1, (pattern + pattern_len) & 0xFFFFFFFF)
        ebox.regs.write(3, (string + found_at + pattern_len) & 0xFFFFFFFF)
    else:
        ebox.regs.write(0, pattern_len)
        ebox.regs.write(1, pattern & 0xFFFFFFFF)
        ebox.regs.write(3, (string + string_len) & 0xFFFFFFFF)


@handler("CRC")
def _cyclic_redundancy(ebox, opcode, ops):
    """CRC: table-driven cyclic redundancy check over a byte string."""
    table = ops[0].address
    initial = ops[1].value & 0xFFFFFFFF
    length = ops[2].value & 0xFFFF
    stream = ops[3].address
    ebox.exec_compute(_base_cycles(ebox))
    per_item = _per_item(ebox)
    crc = initial
    for index in range(length):
        byte = ebox.exec_read((stream + index) & 0xFFFFFFFF, 1)
        entry_index = (crc ^ byte) & 0x0F
        entry = ebox.exec_read((table + 4 * entry_index) & 0xFFFFFFFF, 4)
        ebox.exec_loop(per_item)
        crc = ((crc >> 4) ^ entry) & 0xFFFFFFFF
        entry_index = (crc ^ (byte >> 4)) & 0x0F
        entry = ebox.exec_read((table + 4 * entry_index) & 0xFFFFFFFF, 4)
        crc = ((crc >> 4) ^ entry) & 0xFFFFFFFF
    ebox.psl.cc.set_nz(crc, 32)
    ebox.regs.write(0, crc)
    ebox.regs.write(1, 0)
    ebox.regs.write(2, 0)
    ebox.regs.write(3, (stream + length) & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# packed decimal
# ---------------------------------------------------------------------------


def _read_packed(ebox, digits: int, addr: int) -> int:
    data = bytearray()
    for offset in range(packed_size(digits)):
        data.append(ebox.exec_read((addr + offset) & 0xFFFFFFFF, 1))
        ebox.exec_loop(1)
    return packed_decimal_decode(bytes(data), digits)


def _write_packed(ebox, value: int, digits: int, addr: int) -> None:
    data = packed_decimal_encode(value, digits)
    for offset, byte in enumerate(data):
        ebox.exec_loop(1)
        ebox.exec_write((addr + offset) & 0xFFFFFFFF, 1, byte)


def _decimal_cc(ebox, value: int) -> None:
    ebox.psl.cc.n = value < 0
    ebox.psl.cc.z = value == 0
    ebox.psl.cc.v = False
    ebox.psl.cc.c = False


@handler("ADDP4", "SUBP4")
def _decimal_add(ebox, opcode, ops):
    src_digits = ops[0].value & 0x1F
    dst_digits = ops[2].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    src = _read_packed(ebox, src_digits, ops[1].address)
    dst = _read_packed(ebox, dst_digits, ops[3].address)
    per_item = _per_item(ebox)
    ebox.exec_loop(per_item * max(1, dst_digits // 2))
    result = dst + src if opcode.mnemonic == "ADDP4" else dst - src
    limit = 10 ** dst_digits
    if abs(result) >= limit:
        result %= limit if result >= 0 else -limit
        ebox.psl.cc.v = True
        ebox.events.arithmetic_exceptions += 1
    _write_packed(ebox, result, dst_digits, ops[3].address)
    _decimal_cc(ebox, result)


@handler("MOVP")
def _decimal_move(ebox, opcode, ops):
    digits = ops[0].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    value = _read_packed(ebox, digits, ops[1].address)
    _write_packed(ebox, value, digits, ops[2].address)
    _decimal_cc(ebox, value)


@handler("CMPP3")
def _decimal_compare(ebox, opcode, ops):
    digits = ops[0].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    a = _read_packed(ebox, digits, ops[1].address)
    b = _read_packed(ebox, digits, ops[2].address)
    ebox.psl.cc.n = a < b
    ebox.psl.cc.z = a == b
    ebox.psl.cc.v = ebox.psl.cc.c = False


@handler("CVTLP")
def _convert_long_to_packed(ebox, opcode, ops):
    value = to_signed(ops[0].value, 32)
    digits = ops[1].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    ebox.exec_loop(_per_item(ebox) * max(1, digits // 2))
    limit = 10 ** digits
    if abs(value) >= limit:
        value = value % limit if value >= 0 else -(-value % limit)
        ebox.psl.cc.v = True
        ebox.events.arithmetic_exceptions += 1
    _write_packed(ebox, value, digits, ops[2].address)
    _decimal_cc(ebox, value)


@handler("CVTPL")
def _convert_packed_to_long(ebox, opcode, ops):
    digits = ops[0].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    value = _read_packed(ebox, digits, ops[1].address)
    ebox.exec_loop(_per_item(ebox) * max(1, digits // 2))
    result = truncate(value, 32)
    _decimal_cc(ebox, to_signed(result, 32))
    ebox.store(ops[2], result)


@handler("ASHP")
def _decimal_shift(ebox, opcode, ops):
    count = to_signed(ops[0].value, 8)
    src_digits = ops[1].value & 0x1F
    dst_digits = ops[4].value & 0x1F
    ebox.exec_compute(_base_cycles(ebox))
    value = _read_packed(ebox, src_digits, ops[2].address)
    ebox.exec_loop(_per_item(ebox) * max(1, abs(count)))
    shifted = value * (10 ** count) if count >= 0 else int(value / (10 ** -count))
    limit = 10 ** dst_digits
    if abs(shifted) >= limit:
        shifted = shifted % limit if shifted >= 0 else -(-shifted % limit)
        ebox.psl.cc.v = True
    _write_packed(ebox, shifted, dst_digits, ops[5].address)
    _decimal_cc(ebox, shifted)
