"""Synthesize executable VAX programs from a workload profile.

The generator emits a *ring* of basic blocks (the program runs until its
quantum ends or the measurement stops — there is no exit), each filled
with slots drawn from the profile's category mix:

* scalar data operations with operand specifiers drawn from a Table 4-
  like addressing-mode distribution over a process-private data region;
* conditional branches with ~50 % taken rate (entropy from a counter
  register), loop branches iterating ~10 times, subroutine and procedure
  calls, CASE dispatches, bit-field and bit-branch work;
* F_floating and integer multiply/divide kernels;
* character-string and packed-decimal operations on 36-44 byte strings
  and 5-15 digit numbers (the shapes the paper reports);
* CHMK system services, including blocking terminal QIOs that hand the
  CPU to another process — the multiprogramming behaviour the monitor
  was built to capture.

Register conventions: R0-R3 scratch, R4 entropy counter, R5 pointer
scratch, R6 scalar base, R7 pointer-table base, R8 string/decimal base,
R9 queue base, R10 loop counter, R11 index register.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.asm import Assembler
from repro.isa.datatypes import packed_decimal_encode, packed_size
from repro.workloads.profiles import WorkloadProfile

CODE_ORIGIN = 0x1000
DATA_ORIGIN = 0x40000

# Data-region layout (offsets from DATA_ORIGIN).
_QUEUE_OFF = 0x000  # header + entries (64 bytes)
_SCALAR_OFF = 0x100  # 1 KB of longwords
_PTR_OFF = 0x500  # 64 pointers into the scalar area
_STRING_OFF = 0x600  # four 64-byte string buffers
_PACKED_OFF = 0x700  # four 16-byte packed-decimal slots
_FLOAT_OFF = 0x740  # a few F_floating cells
_MASK_FC_OFF = 0x760  # byte mask 0xFC (CASE selector extraction)
_MASK_FF00_OFF = 0x764  # longword mask 0xFFFFFF00 (mul/div operand bounding)
_CRC_TABLE_OFF = 0x780  # 16-entry CRC-32 nibble table
_EXTENT_OFF = 0x800  # start of the far-scatter area


@dataclass
class GeneratedProgram:
    """An assembled workload program plus its initialised data image."""

    name: str
    code: bytes
    code_origin: int
    data: bytes
    data_origin: int
    #: generator bookkeeping: slots emitted per category
    slot_counts: Dict[str, int]

    @property
    def entry(self) -> int:
        return self.code_origin


class _Emitter:
    """Emits one program; holds the RNG and label numbering."""

    def __init__(self, profile: WorkloadProfile, variant: int):
        self.profile = profile
        self.rng = random.Random((profile.seed << 8) ^ variant)
        self.asm = Assembler(origin=CODE_ORIGIN)
        self.label_counter = 0
        self.slot_counts: Dict[str, int] = {}
        self.procedures: List[str] = []
        self.subroutines: List[str] = []

    # -- helpers ---------------------------------------------------------

    def _fresh(self, stem: str) -> str:
        self.label_counter += 1
        return "{}_{}".format(stem, self.label_counter)

    def _scalar_disp(self) -> int:
        """A displacement into the scalar/extent area off R6.

        Mostly near (byte displacement, good locality), with a tail
        spread over the whole data extent — the knob that sets D-stream
        cache behaviour.
        """
        rng = self.rng
        limit = self.profile.data_pages * 512 - 4
        if rng.random() < 0.38:
            offset = _SCALAR_OFF + 4 * rng.randrange(0, 32)
        elif rng.random() < 0.38:
            offset = _SCALAR_OFF + 4 * rng.randrange(0, 256)
        else:
            offset = _EXTENT_OFF + 4 * rng.randrange(0, max(1, (limit - _EXTENT_OFF) // 4))
        return min(offset, limit) & ~3

    def _pointer_disp(self) -> int:
        return _PTR_OFF + 4 * self.rng.randrange(0, 64)

    def _string_base(self, which: int) -> int:
        return _STRING_OFF + 64 * (which & 3)

    def _packed_base(self, which: int) -> int:
        return _PACKED_OFF + 16 * (which & 3)

    def _scratch(self) -> str:
        return "R{}".format(self.rng.randrange(0, 4))

    def _read_operand(self) -> str:
        """Draw a source operand with a Table 4-like mode distribution."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            return self._scratch()
        if roll < 0.45:
            return "#{}".format(rng.randrange(0, 64))  # short literal
        if roll < 0.475:
            return "I^#{}".format(rng.randrange(64, 100000))  # immediate
        if roll < 0.67:
            return "{}(R6)".format(self._scalar_disp())  # displacement
        if roll < 0.75:
            return "(R7)"  # register deferred (points at the pointer table)
        if roll < 0.80:
            return "@{}(R7)".format(self._pointer_disp())  # disp deferred
        if roll < 0.83:
            return "@#{:#x}".format(DATA_ORIGIN + self._scalar_disp())  # absolute
        if roll < 0.95:
            return "{}(R6)[R11]".format(_SCALAR_OFF)  # indexed
        return "{}(R6)".format(self._scalar_disp())

    def _write_operand(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            return self._scratch()
        if roll < 0.85:
            return "{}(R6)".format(self._scalar_disp())
        if roll < 0.91:
            return "{}(R6)[R11]".format(_SCALAR_OFF + 128)
        return "(R7)"

    # -- slot emitters ------------------------------------------------------

    def emit_data(self) -> None:
        rng = self.rng
        asm = self.asm
        choice = rng.random()
        if choice < 0.40:
            width = rng.choice(["MOVL", "MOVL", "MOVL", "MOVB", "MOVW"])
            asm.instr(width, self._read_operand(), self._write_operand())
        elif choice < 0.56:
            op = rng.choice(["ADDL2", "SUBL2", "BISL2", "BICL2", "XORL2"])
            if rng.random() < 0.62:
                destination = self._scratch()
            else:
                destination = "{}(R6)".format(self._scalar_disp())  # memory modify
            asm.instr(op, self._read_operand(), destination)
        elif choice < 0.68:
            op = rng.choice(["ADDL3", "SUBL3"])
            asm.instr(op, self._read_operand(), self._read_operand(), self._write_operand())
        elif choice < 0.76:
            op = rng.choice(["CMPL", "TSTL", "BITL"])
            if op == "TSTL":
                asm.instr(op, self._read_operand())
            else:
                asm.instr(op, self._read_operand(), self._scratch())
        elif choice < 0.82:
            target = self._scratch() if rng.random() < 0.7 else "{}(R6)".format(self._scalar_disp())
            asm.instr(rng.choice(["INCL", "DECL"]), target)
        elif choice < 0.86:
            asm.instr("MOVZBL", self._read_operand_byte(), self._scratch())
        elif choice < 0.90:
            asm.instr("MOVAL", "{}(R6)".format(self._scalar_disp()), self._scratch())
        elif choice < 0.92:
            # autodecrement push / autoincrement pop (stack stays balanced)
            asm.instr("MOVL", self._read_operand(), "-(SP)")
            asm.instr("MOVL", "(SP)+", self._scratch())
        else:
            # an autoincrement walk over the scalar area
            asm.instr("MOVAL", "{}(R6)".format(_SCALAR_OFF), "R5")
            for _ in range(rng.randrange(2, 4)):
                asm.instr("MOVL", "(R5)+", self._scratch())

    def _read_operand_byte(self) -> str:
        if self.rng.random() < 0.5:
            return "#{}".format(self.rng.randrange(0, 64))
        return "{}(R6)".format(self._scalar_disp())

    def emit_branch(self) -> None:
        """One PC-changing instruction.

        Conditional branches test whatever condition codes the preceding
        data operations left — pseudo-random data gives the 50-60 %
        taken rates the paper reports for simple conditionals, while
        low-bit tests on scalar scratch registers land near 50 %.
        """
        rng = self.rng
        asm = self.asm
        skip = self._fresh("skip")
        roll = rng.random()
        if roll < 0.07:
            asm.instr("BRB", skip)  # unconditional (shares ucode with Bcc)
        elif roll < 0.16:
            asm.instr(rng.choice(["BLBS", "BLBC"]), self._scratch(), skip)
        else:
            asm.instr(
                rng.choice(["BNEQ", "BEQL", "BGTR", "BLEQ", "BGEQ", "BLSS", "BCC", "BCS"]),
                skip,
            )
        if rng.random() < 0.6:
            asm.instr("MOVL", self._read_operand(), self._scratch())
        asm.label(skip)

    def emit_loop(self) -> None:
        rng = self.rng
        asm = self.asm
        top = self._fresh("loop")
        low, high = self.profile.loop_iterations
        asm.instr("MOVL", "#{}".format(rng.randrange(low, high + 1)), "R10")
        asm.label(top)
        asm.instr("ADDL2", self._read_operand(), self._scratch())
        if rng.random() < 0.6:
            asm.instr("MOVL", self._read_operand(), self._write_operand())
        asm.instr("SOBGTR", "R10", top)

    def emit_call(self) -> None:
        if not self.procedures:
            return
        asm = self.asm
        asm.instr("PUSHL", self._read_operand())
        asm.instr("CALLS", "#1", self.rng.choice(self.procedures))

    def emit_bsb(self) -> None:
        if not self.subroutines:
            return
        self.asm.instr("BSBW", self.rng.choice(self.subroutines))

    def emit_case(self) -> None:
        asm = self.asm
        base = self._fresh("case_table")
        join = self._fresh("case_join")
        targets = [self._fresh("case_arm") for _ in range(4)]
        asm.instr("BICB3", "{}(R6)".format(_MASK_FC_OFF), "R4", "R3")
        asm.instr("CASEB", "R3", "#0", "#3")
        asm.label(base)
        for target in targets:
            asm.word_ref(target, base)
        for index, target in enumerate(targets):
            asm.label(target)
            asm.instr("MOVL", "#{}".format(index), "R2")
            if index != len(targets) - 1:
                asm.instr("BRB", join)
        asm.label(join)

    def emit_fieldop(self) -> None:
        rng = self.rng
        asm = self.asm
        roll = rng.random()
        pos = rng.randrange(0, 20)
        size = rng.randrange(1, 12)
        if roll < 0.45:
            asm.instr("EXTZV", "#{}".format(pos), "#{}".format(size), self._scratch(), "R2")
        elif roll < 0.65:
            asm.instr(
                "EXTV", "#{}".format(pos), "#{}".format(size),
                "{}(R6)".format(self._scalar_disp()), "R2",
            )
        elif roll < 0.85:
            asm.instr("INSV", "R2", "#{}".format(pos), "#{}".format(size), "R3")
        else:
            asm.instr("FFS", "#0", "#31", "R4", "R2")

    def emit_bitbranch(self) -> None:
        rng = self.rng
        asm = self.asm
        skip = self._fresh("bb")
        bit = rng.randrange(0, 8)
        if rng.random() < 0.75:
            asm.instr(rng.choice(["BBS", "BBC"]), "#{}".format(bit), self._scratch(), skip)
        else:
            asm.instr(
                rng.choice(["BBSS", "BBCC"]),
                "#{}".format(bit),
                "{}(R6)".format(self._scalar_disp()),
                skip,
            )
        asm.instr("MOVL", self._read_operand(), self._scratch())
        asm.label(skip)

    def emit_floatop(self) -> None:
        rng = self.rng
        asm = self.asm
        fcell = "{}(R8)".format(_FLOAT_OFF - _STRING_OFF + 4 * rng.randrange(0, 4))
        roll = rng.random()
        if roll < 0.3:
            asm.instr("MOVF", fcell, "R2")
            asm.instr("ADDF2", "I^#{}".format(rng.randrange(1, 9)), "R2")
        elif roll < 0.55:
            asm.instr("MULF3", "S^#0", fcell, "R2")  # x * 0.5 keeps values bounded
        elif roll < 0.75:
            asm.instr("ADDF3", fcell, "I^#{}".format(rng.randrange(1, 5)), "R2")
        elif roll < 0.9:
            asm.instr("CVTLF", "#{}".format(rng.randrange(1, 64)), "R2")
            asm.instr("CMPF", "R2", fcell)
        elif roll < 0.97:
            asm.instr("DIVF3", "I^#{}".format(rng.randrange(2, 7)), fcell, "R2")
        else:
            # Polynomial evaluation over the float cells (POLYF clobbers
            # R0-R3, all scratch).
            asm.instr(
                "POLYF", "S^#0", "#{}".format(rng.randrange(1, 4)),
                "{}(R8)".format(_FLOAT_OFF - _STRING_OFF),
            )

    def emit_muldiv(self) -> None:
        rng = self.rng
        asm = self.asm
        asm.instr("BICL3", "{}(R6)".format(_MASK_FF00_OFF), "R4", "R0")
        if rng.random() < 0.6:
            asm.instr("MULL3", "#{}".format(rng.randrange(3, 60)), "R0", "R1")
        else:
            asm.instr("DIVL3", "#{}".format(rng.randrange(3, 17)), "R0", "R1")

    def emit_charop(self) -> None:
        rng = self.rng
        asm = self.asm
        low, high = self.profile.string_length
        length = rng.randrange(low, high + 1)
        src = "{}(R8)".format(self._string_base(rng.randrange(4)))
        dst = "{}(R8)".format(self._string_base(rng.randrange(4)))
        roll = rng.random()
        if roll < 0.45:
            asm.instr("MOVC3", "#{}".format(length), src, dst)
        elif roll < 0.65:
            asm.instr("CMPC3", "#{}".format(length), src, dst)
        elif roll < 0.80:
            asm.instr("LOCC", "#{}".format(0x41 + rng.randrange(26)), "#{}".format(length), src)
        elif roll < 0.92:
            asm.instr(
                "MOVC5",
                "#{}".format(length // 2), src,
                "#0x20", "#{}".format(length), dst,
            )
        elif roll < 0.94:
            asm.instr("SKPC", "#0x20", "#{}".format(length), src)
        elif roll < 0.97:
            asm.instr("MATCHC", "#3", src, "#{}".format(length), dst)
        else:
            # CRC over a string through the nibble table in the data area.
            asm.instr("CRC", "{}(R8)".format(_CRC_TABLE_OFF - _STRING_OFF),
                      "#0", "#{}".format(length), src)

    def emit_decop(self) -> None:
        rng = self.rng
        asm = self.asm
        low, high = self.profile.decimal_digits
        digits = rng.randrange(low, high + 1)
        slot_a = "{}(R8)".format(self._packed_base(rng.randrange(2)) - _STRING_OFF)
        slot_b = "{}(R8)".format(self._packed_base(2 + rng.randrange(2)) - _STRING_OFF)
        # Every sequence initialises its operands with CVTLP first, so the
        # drawn digit count always matches the stored encoding.
        asm.instr("CVTLP", "#{}".format(rng.randrange(1, 9999)), "#{}".format(digits), slot_a)
        roll = rng.random()
        if roll < 0.35:
            asm.instr("CVTLP", "#{}".format(rng.randrange(1, 999)), "#{}".format(digits), slot_b)
            asm.instr("ADDP4", "#{}".format(digits), slot_a, "#{}".format(digits), slot_b)
        elif roll < 0.55:
            asm.instr("MOVP", "#{}".format(digits), slot_a, slot_b)
        elif roll < 0.75:
            asm.instr("CVTLP", "#{}".format(rng.randrange(1, 999)), "#{}".format(digits), slot_b)
            asm.instr("CMPP3", "#{}".format(digits), slot_a, slot_b)
        else:
            asm.instr("CVTPL", "#{}".format(digits), slot_a, "R2")

    def emit_queueop(self) -> None:
        asm = self.asm
        entry = "{}(R9)".format(16 + 16 * self.rng.randrange(0, 2))
        asm.instr("INSQUE", entry, "(R9)")
        asm.instr("REMQUE", entry, "R0")

    def emit_pushpop(self) -> None:
        # "about 8 registers are being pushed and popped"
        self.asm.instr("PUSHR", "#0xFF")
        self.asm.instr("POPR", "#0xFF")

    def emit_syscall(self) -> None:
        rng = self.rng
        if rng.random() < self.profile.qio_fraction:
            self.asm.instr("CHMK", "#1")  # blocking terminal QIO
        elif rng.random() < 0.6:
            self.asm.instr("CHMK", "#2")  # get-time
        else:
            self.asm.instr("CHMK", "#3")  # probe-and-copy

    _EMITTERS = {
        "data": emit_data,
        "branch": emit_branch,
        "loop": emit_loop,
        "call": emit_call,
        "bsb": emit_bsb,
        "case": emit_case,
        "fieldop": emit_fieldop,
        "bitbranch": emit_bitbranch,
        "floatop": emit_floatop,
        "muldiv": emit_muldiv,
        "charop": emit_charop,
        "decop": emit_decop,
        "queueop": emit_queueop,
        "pushpop": emit_pushpop,
        "syscall": emit_syscall,
    }

    # -- assembly of the whole program ---------------------------------------

    def _emit_procedures(self) -> None:
        rng = self.rng
        asm = self.asm
        low, high = self.profile.call_mask_bits
        for index in range(5):
            name = self._fresh("proc")
            self.procedures.append(name)
            asm.label(name)
            bits = rng.randrange(low, high + 1)
            mask = 0
            for register in range(2, 2 + bits):
                mask |= 1 << register
            asm.word(mask)
            for _ in range(rng.randrange(3, 7)):
                self.emit_data()
            asm.instr("MOVL", "4(AP)", "R0")
            asm.instr("ADDL2", "#1", "R0")
            asm.instr("RET")
        for index in range(4):
            name = self._fresh("sub")
            self.subroutines.append(name)
            asm.label(name)
            for _ in range(rng.randrange(2, 5)):
                self.emit_data()
            asm.instr("RSB")

    def _emit_prologue(self) -> None:
        asm = self.asm
        asm.instr("MOVAL", "@#{:#x}".format(DATA_ORIGIN), "R6")
        asm.instr("MOVAL", "@#{:#x}".format(DATA_ORIGIN + _PTR_OFF), "R7")
        asm.instr("MOVAL", "@#{:#x}".format(DATA_ORIGIN + _STRING_OFF), "R8")
        asm.instr("MOVAL", "@#{:#x}".format(DATA_ORIGIN + _QUEUE_OFF), "R9")
        asm.instr("CLRL", "R4")
        asm.instr("MOVL", "#2", "R11")
        # Make the private queue header self-referential.
        asm.instr("MOVL", "R9", "(R9)")
        asm.instr("MOVL", "R9", "4(R9)")

    def build(self) -> Tuple[bytes, Dict[str, int]]:
        profile = self.profile
        rng = self.rng
        categories = list(profile.mix)
        weights = [profile.mix[c] for c in categories]

        self._emit_prologue()
        self.asm.instr("BRW", "ring_start")
        self._emit_procedures()
        self.asm.label("ring_start")
        for block in range(profile.blocks):
            self.asm.label(self._fresh("block"))
            for _ in range(profile.slots_per_block):
                category = rng.choices(categories, weights=weights)[0]
                self.slot_counts[category] = self.slot_counts.get(category, 0) + 1
                self._EMITTERS[category](self)
        self.asm.instr("JMP", "ring_start")
        return self.asm.assemble(), self.slot_counts


def _build_data_image(profile: WorkloadProfile, rng: random.Random) -> bytes:
    """Initialised data for one process: scalars, pointers, strings,
    packed decimals, float cells, queue area."""
    size = profile.data_pages * 512
    image = bytearray(size)

    def put_long(offset: int, value: int) -> None:
        image[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # Queue header self-reference (also re-done by the prologue).
    put_long(_QUEUE_OFF, DATA_ORIGIN + _QUEUE_OFF)
    put_long(_QUEUE_OFF + 4, DATA_ORIGIN + _QUEUE_OFF)
    # Scalars: bounded pseudo-random values.
    for offset in range(_SCALAR_OFF, _PTR_OFF, 4):
        put_long(offset, rng.randrange(0, 1 << 16))
    # Pointer table: absolute pointers into the scalar area.
    for index in range(64):
        target = DATA_ORIGIN + _SCALAR_OFF + 4 * rng.randrange(0, 256)
        put_long(_PTR_OFF + 4 * index, target)
    # Strings.
    for buffer_index in range(4):
        base = _STRING_OFF + 64 * buffer_index
        for offset in range(64):
            image[base + offset] = 0x20 + rng.randrange(95)
    # Packed decimal slots (15 digits max -> 8 bytes).
    for slot in range(4):
        digits = 15
        payload = packed_decimal_encode(rng.randrange(0, 10**9), digits)
        base = _PACKED_OFF + 16 * slot
        image[base : base + len(payload)] = payload
    # Mask cells used by CASE/muldiv operand bounding.
    image[_MASK_FC_OFF] = 0xFC
    put_long(_MASK_FF00_OFF, 0xFFFFFF00)
    # CRC-32 nibble table (polynomial 0xEDB88320).
    for index in range(16):
        crc = index
        for _ in range(4):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
        put_long(_CRC_TABLE_OFF + 4 * index, crc)
    # F_floating cells.
    from repro.isa.datatypes import f_floating_encode

    for cell in range(4):
        put_long(_FLOAT_OFF + 4 * cell, f_floating_encode(float(rng.randrange(1, 50))))
    # Far-scatter area: more scalars.
    for offset in range(_EXTENT_OFF, size - 4, 4):
        put_long(offset, rng.randrange(0, 1 << 12))
    return bytes(image)


#: (id(profile), variant) -> (profile, program).  Generation is fully
#: deterministic in (profile, variant), and a GeneratedProgram is
#: immutable once built (the machine copies its bytes into memory), so
#: experiments that construct many machines over the same workloads skip
#: re-running the assembler.  The profile reference is kept in the value
#: so its id() cannot be recycled while the entry is live.
_PROGRAM_CACHE: Dict = {}

#: Packages (under ``repro``) whose sources determine an image's bytes.
_IMAGE_SOURCES = ("workloads", "asm", "isa")

_sources_digest: Optional[str] = None


def generate_program(profile: WorkloadProfile, variant: int = 0) -> GeneratedProgram:
    """Generate one process image for ``profile``.

    ``variant`` differentiates the processes of a multi-user workload
    (different code layout and data, same statistical mix).  Images are
    remembered per process (``_PROGRAM_CACHE``) and banked across
    processes in the default run cache (see :func:`_banked_program`).
    """
    key = (id(profile), variant)
    cached = _PROGRAM_CACHE.get(key)
    if cached is not None:
        return cached[1]
    program = _banked_program(profile, variant)
    _PROGRAM_CACHE[key] = (profile, program)
    return program


def _image_sources_digest() -> str:
    """sha256 over the sources that determine an image's bytes
    (:data:`_IMAGE_SOURCES`), hashed once per process: editing the
    generator, the assembler or the ISA tables retires every banked
    image."""
    global _sources_digest
    if _sources_digest is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for package in _IMAGE_SOURCES:
            directory = os.path.join(package_root, package)
            for name in sorted(os.listdir(directory)):
                if name.endswith(".py"):
                    digest.update("{}/{}\0".format(package, name).encode("utf-8"))
                    with open(os.path.join(directory, name), "rb") as handle:
                        digest.update(handle.read())
        _sources_digest = digest.hexdigest()
    return _sources_digest


def _banked_program(profile: WorkloadProfile, variant: int) -> GeneratedProgram:
    """The image for ``(profile, variant)``, read from the bank of
    generated images in the default :class:`~repro.core.runcache.RunCache`
    (``$REPRO_CACHE_DIR``, else ``.repro-cache``) or generated and
    banked there.

    The key commits to the profile's fields, the variant, the Python
    version (``random``'s stream) and :func:`_image_sources_digest`.
    The bank can only save time: a corrupt, undecodable or foreign
    entry is quarantined and regenerated
    (:meth:`~repro.core.runcache.RunCache.load`), and an ``OSError``
    anywhere in the bank (a read-only cwd, a failed write) makes it a
    miss.  Its hit/miss counters are never flushed to the stats ledger,
    which counts run traffic only.
    """
    from repro.core.runcache import RunCache, cache_key

    try:
        bank = RunCache.default()
        key = cache_key(
            "program",
            profile=asdict(profile),
            variant=variant,
            python="{}.{}".format(*sys.version_info[:2]),
            sources=_image_sources_digest(),
        )
        program = bank.load(key, GeneratedProgram)
    except OSError:
        return _generate_program(profile, variant)
    if program is None:
        program = _generate_program(profile, variant)
        try:
            bank.store(key, program, meta={"kind": "program", "spec": program.name})
        except OSError:
            pass
    return program


def _generate_program(profile: WorkloadProfile, variant: int) -> GeneratedProgram:
    emitter = _Emitter(profile, variant)
    code, slot_counts = emitter.build()
    data_rng = random.Random((profile.seed << 16) ^ (variant * 7919))
    data = _build_data_image(profile, data_rng)
    return GeneratedProgram(
        name="{}#{}".format(profile.name, variant),
        code=code,
        code_origin=CODE_ORIGIN,
        data=data,
        data_origin=DATA_ORIGIN,
        slot_counts=slot_counts,
    )
