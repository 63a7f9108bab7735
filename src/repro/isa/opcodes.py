"""The VAX opcode subset, with the paper's instruction-group taxonomy.

Table 1 of the paper partitions opcodes into seven groups; Table 2 further
classifies the PC-changing instructions.  Both classifications are encoded
here as static opcode attributes so the analysis layer can aggregate
micro-PC histogram counts into the published rows.

Opcode byte values are the real VAX ones (from the VAX-11 Architecture
Reference Manual); the subset covers every group the paper reports,
including the rare-but-expensive CHARACTER and DECIMAL instructions whose
outsized per-execution cost is one of the paper's findings (Table 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.isa.specifiers import OperandSpec, parse_operand_signature


class OpcodeGroup(Enum):
    """The seven instruction groups of Table 1."""

    SIMPLE = "simple"
    FIELD = "field"
    FLOAT = "float"
    CALLRET = "callret"
    SYSTEM = "system"
    CHARACTER = "character"
    DECIMAL = "decimal"


class BranchClass(Enum):
    """Rows of Table 2 (PC-changing instruction classes)."""

    SIMPLE_CONDITIONAL = "simple_cond"  # Bcc, plus BRB/BRW (microcode-shared)
    LOOP = "loop"  # AOBx, SOBx, ACBx
    LOW_BIT_TEST = "lowbit"  # BLBS, BLBC
    SUBROUTINE = "subroutine"  # BSBB, BSBW, JSB, RSB
    UNCONDITIONAL = "unconditional"  # JMP
    CASE = "case"  # CASEB/W/L
    BIT = "bit"  # BBS..BBCCI
    PROCEDURE = "procedure"  # CALLS, CALLG, RET
    SYSTEM = "system"  # CHMx, REI


@dataclass(frozen=True)
class Opcode:
    """Static description of one VAX opcode."""

    mnemonic: str
    code: int
    operands: Tuple[OperandSpec, ...]
    group: OpcodeGroup
    branch_class: Optional[BranchClass] = None
    #: ``group.value`` (the Table 1 and Table 5 row name), precomputed:
    #: the EBOX reads it on every execute-phase reference, and neither
    #: ``Enum.value`` nor a table keyed by the member is free.
    group_name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_name", self.group.value)

    @property
    def is_pc_changing(self) -> bool:
        return self.branch_class is not None

    @property
    def uses_branch_displacement(self) -> bool:
        """True when the instruction's target comes from a branch displacement.

        JMP/JSB/CALLx take their targets from ordinary operand specifiers,
        and RSB/RET/REI/CHMx determine them implicitly — the paper's
        Table 3 counts displacements separately from specifiers.
        """
        from repro.isa.specifiers import AccessType

        return any(spec.access is AccessType.BRANCH for spec in self.operands)

    def __str__(self) -> str:
        return self.mnemonic


def _op(mnemonic, code, signature, group, branch_class=None):
    return Opcode(mnemonic, code, parse_operand_signature(signature), group, branch_class)


_S = OpcodeGroup.SIMPLE
_FI = OpcodeGroup.FIELD
_FL = OpcodeGroup.FLOAT
_C = OpcodeGroup.CALLRET
_SY = OpcodeGroup.SYSTEM
_CH = OpcodeGroup.CHARACTER
_D = OpcodeGroup.DECIMAL

_OPCODE_LIST = [
    # --- SIMPLE: moves -----------------------------------------------------
    _op("MOVB", 0x90, "rb,wb", _S),
    _op("MOVW", 0xB0, "rw,ww", _S),
    _op("MOVL", 0xD0, "rl,wl", _S),
    _op("MOVQ", 0x7D, "rq,wq", _S),
    _op("MOVZBW", 0x9B, "rb,ww", _S),
    _op("MOVZBL", 0x9A, "rb,wl", _S),
    _op("MOVZWL", 0x3C, "rw,wl", _S),
    _op("MOVAB", 0x9E, "ab,wl", _S),
    _op("MOVAW", 0x3E, "aw,wl", _S),
    _op("MOVAL", 0xDE, "al,wl", _S),
    _op("MOVAQ", 0x7E, "aq,wl", _S),
    _op("PUSHL", 0xDD, "rl", _S),
    _op("PUSHAB", 0x9F, "ab", _S),
    _op("PUSHAW", 0x3F, "aw", _S),
    _op("PUSHAL", 0xDF, "al", _S),
    _op("CLRB", 0x94, "wb", _S),
    _op("CLRW", 0xB4, "ww", _S),
    _op("CLRL", 0xD4, "wl", _S),
    _op("CLRQ", 0x7C, "wq", _S),
    _op("MCOMB", 0x92, "rb,wb", _S),
    _op("MCOMW", 0xB2, "rw,ww", _S),
    _op("MCOML", 0xD2, "rl,wl", _S),
    _op("MNEGB", 0x8E, "rb,wb", _S),
    _op("MNEGW", 0xAE, "rw,ww", _S),
    _op("MNEGL", 0xCE, "rl,wl", _S),
    # --- SIMPLE: arithmetic / logic / test ---------------------------------
    _op("ADDB2", 0x80, "rb,mb", _S),
    _op("ADDB3", 0x81, "rb,rb,wb", _S),
    _op("ADDW2", 0xA0, "rw,mw", _S),
    _op("ADDW3", 0xA1, "rw,rw,ww", _S),
    _op("ADDL2", 0xC0, "rl,ml", _S),
    _op("ADDL3", 0xC1, "rl,rl,wl", _S),
    _op("SUBB2", 0x82, "rb,mb", _S),
    _op("SUBB3", 0x83, "rb,rb,wb", _S),
    _op("SUBW2", 0xA2, "rw,mw", _S),
    _op("SUBW3", 0xA3, "rw,rw,ww", _S),
    _op("SUBL2", 0xC2, "rl,ml", _S),
    _op("SUBL3", 0xC3, "rl,rl,wl", _S),
    _op("INCB", 0x96, "mb", _S),
    _op("INCW", 0xB6, "mw", _S),
    _op("INCL", 0xD6, "ml", _S),
    _op("DECB", 0x97, "mb", _S),
    _op("DECW", 0xB7, "mw", _S),
    _op("DECL", 0xD7, "ml", _S),
    _op("ADWC", 0xD8, "rl,ml", _S),
    _op("SBWC", 0xD9, "rl,ml", _S),
    _op("CMPB", 0x91, "rb,rb", _S),
    _op("CMPW", 0xB1, "rw,rw", _S),
    _op("CMPL", 0xD1, "rl,rl", _S),
    _op("TSTB", 0x95, "rb", _S),
    _op("TSTW", 0xB5, "rw", _S),
    _op("TSTL", 0xD5, "rl", _S),
    _op("BITB", 0x93, "rb,rb", _S),
    _op("BITW", 0xB3, "rw,rw", _S),
    _op("BITL", 0xD3, "rl,rl", _S),
    _op("BICB2", 0x8A, "rb,mb", _S),
    _op("BICB3", 0x8B, "rb,rb,wb", _S),
    _op("BICW2", 0xAA, "rw,mw", _S),
    _op("BICW3", 0xAB, "rw,rw,ww", _S),
    _op("BICL2", 0xCA, "rl,ml", _S),
    _op("BICL3", 0xCB, "rl,rl,wl", _S),
    _op("BISB2", 0x88, "rb,mb", _S),
    _op("BISB3", 0x89, "rb,rb,wb", _S),
    _op("BISW2", 0xA8, "rw,mw", _S),
    _op("BISW3", 0xA9, "rw,rw,ww", _S),
    _op("BISL2", 0xC8, "rl,ml", _S),
    _op("BISL3", 0xC9, "rl,rl,wl", _S),
    _op("XORB2", 0x8C, "rb,mb", _S),
    _op("XORB3", 0x8D, "rb,rb,wb", _S),
    _op("XORW2", 0xAC, "rw,mw", _S),
    _op("XORW3", 0xAD, "rw,rw,ww", _S),
    _op("XORL2", 0xCC, "rl,ml", _S),
    _op("XORL3", 0xCD, "rl,rl,wl", _S),
    _op("ASHL", 0x78, "rb,rl,wl", _S),
    _op("ROTL", 0x9C, "rb,rl,wl", _S),
    _op("CVTBW", 0x99, "rb,ww", _S),
    _op("CVTBL", 0x98, "rb,wl", _S),
    _op("CVTWL", 0x32, "rw,wl", _S),
    _op("CVTWB", 0x33, "rw,wb", _S),
    _op("CVTLB", 0xF6, "rl,wb", _S),
    _op("CVTLW", 0xF7, "rl,ww", _S),
    _op("NOP", 0x01, "", _S),
    # --- SIMPLE: simple conditional branches (+ BRB/BRW shared microcode) --
    _op("BNEQ", 0x12, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BEQL", 0x13, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BGTR", 0x14, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BLEQ", 0x15, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BGEQ", 0x18, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BLSS", 0x19, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BGTRU", 0x1A, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BLEQU", 0x1B, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BVC", 0x1C, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BVS", 0x1D, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BCC", 0x1E, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BCS", 0x1F, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BRB", 0x11, "bb", _S, BranchClass.SIMPLE_CONDITIONAL),
    _op("BRW", 0x31, "bw", _S, BranchClass.SIMPLE_CONDITIONAL),
    # --- SIMPLE: loop branches ---------------------------------------------
    _op("AOBLSS", 0xF2, "rl,ml,bb", _S, BranchClass.LOOP),
    _op("AOBLEQ", 0xF3, "rl,ml,bb", _S, BranchClass.LOOP),
    _op("SOBGEQ", 0xF4, "ml,bb", _S, BranchClass.LOOP),
    _op("SOBGTR", 0xF5, "ml,bb", _S, BranchClass.LOOP),
    _op("ACBB", 0x9D, "rb,rb,mb,bw", _S, BranchClass.LOOP),
    _op("ACBF", 0x4F, "rf,rf,mf,bw", _FL, BranchClass.LOOP),
    _op("ACBW", 0x3D, "rw,rw,mw,bw", _S, BranchClass.LOOP),
    _op("ACBL", 0xF1, "rl,rl,ml,bw", _S, BranchClass.LOOP),
    # --- SIMPLE: low-bit tests ----------------------------------------------
    _op("BLBS", 0xE8, "rl,bb", _S, BranchClass.LOW_BIT_TEST),
    _op("BLBC", 0xE9, "rl,bb", _S, BranchClass.LOW_BIT_TEST),
    # --- SIMPLE: subroutine call/return ------------------------------------
    _op("BSBB", 0x10, "bb", _S, BranchClass.SUBROUTINE),
    _op("BSBW", 0x30, "bw", _S, BranchClass.SUBROUTINE),
    _op("JSB", 0x16, "ab", _S, BranchClass.SUBROUTINE),
    _op("RSB", 0x05, "", _S, BranchClass.SUBROUTINE),
    # --- SIMPLE: unconditional / case ---------------------------------------
    _op("JMP", 0x17, "ab", _S, BranchClass.UNCONDITIONAL),
    _op("CASEB", 0x8F, "rb,rb,rb", _S, BranchClass.CASE),
    _op("CASEW", 0xAF, "rw,rw,rw", _S, BranchClass.CASE),
    _op("CASEL", 0xCF, "rl,rl,rl", _S, BranchClass.CASE),
    # --- FIELD: bit-field operations + bit branches -------------------------
    _op("EXTV", 0xEE, "rl,rb,vb,wl", _FI),
    _op("EXTZV", 0xEF, "rl,rb,vb,wl", _FI),
    _op("INSV", 0xF0, "rl,rl,rb,vb", _FI),
    _op("CMPV", 0xEC, "rl,rb,vb,rl", _FI),
    _op("CMPZV", 0xED, "rl,rb,vb,rl", _FI),
    _op("FFS", 0xEA, "rl,rb,vb,wl", _FI),
    _op("FFC", 0xEB, "rl,rb,vb,wl", _FI),
    _op("BBS", 0xE0, "rl,vb,bb", _FI, BranchClass.BIT),
    _op("BBC", 0xE1, "rl,vb,bb", _FI, BranchClass.BIT),
    _op("BBSS", 0xE2, "rl,vb,bb", _FI, BranchClass.BIT),
    _op("BBCS", 0xE3, "rl,vb,bb", _FI, BranchClass.BIT),
    _op("BBSC", 0xE4, "rl,vb,bb", _FI, BranchClass.BIT),
    _op("BBCC", 0xE5, "rl,vb,bb", _FI, BranchClass.BIT),
    _op("BBSSI", 0xE6, "rl,vb,bb", _FI, BranchClass.BIT),
    _op("BBCCI", 0xE7, "rl,vb,bb", _FI, BranchClass.BIT),
    # --- FLOAT: F_floating + integer multiply/divide ------------------------
    _op("ADDF2", 0x40, "rf,mf", _FL),
    _op("ADDF3", 0x41, "rf,rf,wf", _FL),
    _op("SUBF2", 0x42, "rf,mf", _FL),
    _op("SUBF3", 0x43, "rf,rf,wf", _FL),
    _op("MULF2", 0x44, "rf,mf", _FL),
    _op("MULF3", 0x45, "rf,rf,wf", _FL),
    _op("DIVF2", 0x46, "rf,mf", _FL),
    _op("DIVF3", 0x47, "rf,rf,wf", _FL),
    _op("MOVF", 0x50, "rf,wf", _FL),
    _op("CMPF", 0x51, "rf,rf", _FL),
    _op("MNEGF", 0x52, "rf,wf", _FL),
    _op("TSTF", 0x53, "rf", _FL),
    _op("CVTBF", 0x4C, "rb,wf", _FL),
    _op("CVTWF", 0x4D, "rw,wf", _FL),
    _op("CVTLF", 0x4E, "rl,wf", _FL),
    _op("CVTFB", 0x48, "rf,wb", _FL),
    _op("CVTFW", 0x49, "rf,ww", _FL),
    _op("CVTFL", 0x4A, "rf,wl", _FL),
    _op("CVTRFL", 0x4B, "rf,wl", _FL),
    _op("MULB2", 0x84, "rb,mb", _FL),
    _op("MULB3", 0x85, "rb,rb,wb", _FL),
    _op("MULW2", 0xA4, "rw,mw", _FL),
    _op("MULW3", 0xA5, "rw,rw,ww", _FL),
    _op("MULL2", 0xC4, "rl,ml", _FL),
    _op("MULL3", 0xC5, "rl,rl,wl", _FL),
    _op("DIVB2", 0x86, "rb,mb", _FL),
    _op("DIVB3", 0x87, "rb,rb,wb", _FL),
    _op("DIVW2", 0xA6, "rw,mw", _FL),
    _op("DIVW3", 0xA7, "rw,rw,ww", _FL),
    _op("DIVL2", 0xC6, "rl,ml", _FL),
    _op("DIVL3", 0xC7, "rl,rl,wl", _FL),
    _op("POLYF", 0x55, "rf,rw,ab", _FL),
    _op("EMODF", 0x54, "rf,rb,rf,wl,wf", _FL),
    _op("EMUL", 0x7A, "rl,rl,rl,wq", _FL),
    _op("EDIV", 0x7B, "rl,rq,wl,wl", _FL),
    # --- CALL/RET: procedure linkage + multi-register push/pop --------------
    _op("CALLG", 0xFA, "ab,ab", _C, BranchClass.PROCEDURE),
    _op("CALLS", 0xFB, "rl,ab", _C, BranchClass.PROCEDURE),
    _op("RET", 0x04, "", _C, BranchClass.PROCEDURE),
    _op("PUSHR", 0xBB, "rw", _C),
    _op("POPR", 0xBA, "rw", _C),
    # --- SYSTEM -------------------------------------------------------------
    _op("HALT", 0x00, "", _SY),
    _op("CHMK", 0xBC, "rw", _SY, BranchClass.SYSTEM),
    _op("CHME", 0xBD, "rw", _SY, BranchClass.SYSTEM),
    _op("REI", 0x02, "", _SY, BranchClass.SYSTEM),
    _op("SVPCTX", 0x07, "", _SY),
    _op("LDPCTX", 0x06, "", _SY),
    _op("PROBER", 0x0C, "rb,rw,ab", _SY),
    _op("PROBEW", 0x0D, "rb,rw,ab", _SY),
    _op("MTPR", 0xDA, "rl,rl", _SY),
    _op("MFPR", 0xDB, "rl,wl", _SY),
    _op("INSQUE", 0x0E, "ab,ab", _SY),
    _op("REMQUE", 0x0F, "ab,wl", _SY),
    _op("BISPSW", 0xB8, "rw", _SY),
    _op("BICPSW", 0xB9, "rw", _SY),
    # --- CHARACTER ----------------------------------------------------------
    _op("MOVC3", 0x28, "rw,ab,ab", _CH),
    _op("MOVC5", 0x2C, "rw,ab,rb,rw,ab", _CH),
    _op("CMPC3", 0x29, "rw,ab,ab", _CH),
    _op("CMPC5", 0x2D, "rw,ab,rb,rw,ab", _CH),
    _op("LOCC", 0x3A, "rb,rw,ab", _CH),
    _op("SKPC", 0x3B, "rb,rw,ab", _CH),
    _op("SCANC", 0x2A, "rw,ab,ab,rb", _CH),
    _op("SPANC", 0x2B, "rw,ab,ab,rb", _CH),
    _op("MOVTC", 0x2E, "rw,ab,rb,ab,rw,ab", _CH),
    _op("MATCHC", 0x39, "rw,ab,rw,ab", _CH),
    _op("CRC", 0x0B, "ab,rl,rw,ab", _CH),
    # --- DECIMAL ------------------------------------------------------------
    _op("ADDP4", 0x20, "rw,ab,rw,ab", _D),
    _op("SUBP4", 0x22, "rw,ab,rw,ab", _D),
    _op("MOVP", 0x34, "rw,ab,ab", _D),
    _op("CMPP3", 0x35, "rw,ab,ab", _D),
    _op("CVTLP", 0xF9, "rl,rw,ab", _D),
    _op("CVTPL", 0x36, "rw,ab,wl", _D),
    _op("ASHP", 0xF8, "rb,rw,ab,rb,rw,ab", _D),
]

#: Opcode table keyed by opcode byte.
OPCODES: Dict[int, Opcode] = {}
#: Opcode table keyed by mnemonic.
_BY_MNEMONIC: Dict[str, Opcode] = {}

for _entry in _OPCODE_LIST:
    if _entry.code in OPCODES:
        raise ValueError(
            "duplicate opcode byte {:#04x}: {} vs {}".format(
                _entry.code, OPCODES[_entry.code].mnemonic, _entry.mnemonic
            )
        )
    if _entry.mnemonic in _BY_MNEMONIC:
        raise ValueError("duplicate mnemonic {}".format(_entry.mnemonic))
    OPCODES[_entry.code] = _entry
    _BY_MNEMONIC[_entry.mnemonic] = _entry


def opcode_by_mnemonic(mnemonic: str) -> Opcode:
    """Look up an opcode by mnemonic (case-insensitive)."""
    try:
        return _BY_MNEMONIC[mnemonic.upper()]
    except KeyError:
        raise KeyError("unknown VAX mnemonic {!r}".format(mnemonic)) from None


def opcodes_in_group(group: OpcodeGroup):
    """All opcodes in one of Table 1's groups, in opcode order."""
    return [op for code, op in sorted(OPCODES.items()) if op.group is group]


def opcodes_in_branch_class(branch_class: BranchClass):
    """All opcodes in one of Table 2's PC-changing classes."""
    return [op for code, op in sorted(OPCODES.items()) if op.branch_class is branch_class]
