"""VAX data types and scalar arithmetic helpers.

The VAX is a little-endian, byte-addressable 32-bit architecture.  All
scalar integer values travel through the simulator as Python ints in the
range ``0 .. 2**bits - 1``; these helpers convert between that unsigned
representation and signed interpretations, and implement the two VAX
non-integer scalar formats the instruction subset needs:

* **F_floating** — the 32-bit VAX floating type (sign, 8-bit excess-128
  exponent, 23-bit fraction with a hidden leading 1, and the famous
  PDP-11-inherited word swap in its memory layout).
* **Packed decimal** — BCD digit pairs with a trailing sign nibble, used
  by the DECIMAL instruction group.
"""

from __future__ import annotations

import math
from enum import Enum


#: ``(size, bits)`` by type code: bytes in one datum, and the width of
#: one integer datum.  Packed and field sizes are contextual, and
#: neither has an integer width.
_GEOMETRY = {
    "b": (1, 8),
    "w": (2, 16),
    "l": (4, 32),
    "q": (8, 64),
    "f": (4, 32),
    "p": (0, 0),
    "v": (4, 0),
}


class DataType(Enum):
    """Operand data types used by the instruction subset.

    ``size`` and ``bits`` (see ``_GEOMETRY``) are plain attributes of
    each member: execute handlers read them per operand, and a table
    keyed by the member would hash it through ``Enum.__hash__``, a
    Python-level call.
    """

    BYTE = "b"
    WORD = "w"
    LONG = "l"
    QUAD = "q"
    F_FLOAT = "f"
    PACKED = "p"
    VARIABLE_FIELD = "v"

    def __init__(self, code: str) -> None:
        self.size, self.bits = _GEOMETRY[code]


MASK8 = 0xFF
MASK16 = 0xFFFF
MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def truncate(value: int, bits: int = 32) -> int:
    """Truncate ``value`` to an unsigned ``bits``-wide integer."""
    return value & ((1 << bits) - 1)


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend a ``bits``-wide value to a 32-bit unsigned representation."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value & MASK32


def to_signed(value: int, bits: int = 32) -> int:
    """Interpret an unsigned ``bits``-wide value as a signed Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def from_signed(value: int, bits: int = 32) -> int:
    """Convert a signed Python int to its unsigned ``bits``-wide form."""
    return value & ((1 << bits) - 1)


class ConditionCodes:
    """The N, Z, V, C condition code bits of the PSL.

    Instruction semantics set these exactly as the VAX architecture
    manual specifies for the subset we implement; conditional branch
    microcode then tests them.
    """

    __slots__ = ("n", "z", "v", "c")

    def __init__(self, n: bool = False, z: bool = False, v: bool = False, c: bool = False):
        self.n = n
        self.z = z
        self.v = v
        self.c = c

    def set_nz(self, value: int, bits: int = 32) -> None:
        """Set N and Z from ``value``; clear V (the common MOV-class rule)."""
        self.n = bool(value & (1 << (bits - 1)))
        self.z = truncate(value, bits) == 0
        self.v = False

    def __repr__(self) -> str:
        return "ConditionCodes(n={}, z={}, v={}, c={})".format(self.n, self.z, self.v, self.c)


def add_with_flags(a: int, b: int, bits: int = 32, carry_in: int = 0):
    """Add two unsigned values, returning (result, ConditionCodes).

    Implements the VAX ADDx condition-code rules: N and Z from the result,
    V on signed overflow, C on unsigned carry out.
    """
    mask = (1 << bits) - 1
    raw = (a & mask) + (b & mask) + carry_in
    result = raw & mask
    cc = ConditionCodes()
    cc.n = bool(result & (1 << (bits - 1)))
    cc.z = result == 0
    sa, sb, sr = to_signed(a, bits), to_signed(b, bits), to_signed(result, bits)
    cc.v = (sa >= 0) == (sb >= 0) and (sr >= 0) != (sa >= 0)
    cc.c = raw > mask
    return result, cc


def sub_with_flags(a: int, b: int, bits: int = 32):
    """Compute ``a - b`` with VAX SUBx condition-code rules (C = borrow)."""
    mask = (1 << bits) - 1
    raw = (a & mask) - (b & mask)
    result = raw & mask
    cc = ConditionCodes()
    cc.n = bool(result & (1 << (bits - 1)))
    cc.z = result == 0
    sa, sb, sr = to_signed(a, bits), to_signed(b, bits), to_signed(result, bits)
    cc.v = (sa >= 0) != (sb >= 0) and (sr >= 0) != (sa >= 0)
    cc.c = raw < 0
    return result, cc


def mul_with_flags(a: int, b: int, bits: int = 32):
    """Multiply with VAX MULx condition-code rules (V on overflow, C clear)."""
    mask = (1 << bits) - 1
    product = to_signed(a, bits) * to_signed(b, bits)
    result = product & mask
    cc = ConditionCodes()
    cc.n = bool(result & (1 << (bits - 1)))
    cc.z = result == 0
    cc.v = not (-(1 << (bits - 1)) <= product < (1 << (bits - 1)))
    cc.c = False
    return result, cc


def div_with_flags(dividend: int, divisor: int, bits: int = 32):
    """Divide (DIVx: quotient of dividend/divisor, truncated toward zero).

    Division by zero sets V (the real machine also raises an arithmetic
    exception; the EBOX model turns V here into a microtrap).
    """
    cc = ConditionCodes()
    if truncate(divisor, bits) == 0:
        cc.v = True
        return truncate(dividend, bits), cc
    sa, sb = to_signed(dividend, bits), to_signed(divisor, bits)
    quotient = int(sa / sb)  # trunc toward zero, as the VAX specifies
    result = from_signed(quotient, bits)
    cc.n = bool(result & (1 << (bits - 1)))
    cc.z = result == 0
    cc.v = not (-(1 << (bits - 1)) <= quotient < (1 << (bits - 1)))
    cc.c = False
    return result, cc


# ---------------------------------------------------------------------------
# F_floating
# ---------------------------------------------------------------------------

_F_BIAS = 128
_F_FRACTION_BITS = 23


def f_floating_encode(value: float) -> int:
    """Encode a Python float as a 32-bit VAX F_floating value.

    The returned integer uses the *memory image* layout: the 16-bit halves
    are swapped relative to the natural (sign, exponent, fraction) order,
    exactly as the VAX stores the datum little-endian in memory.
    Returns 0 for inputs that underflow to the VAX "true zero".
    """
    if value == 0.0 or math.isnan(value):
        return 0
    sign = 1 if value < 0 else 0
    mantissa, exponent = math.frexp(abs(value))  # mantissa in [0.5, 1)
    exp = exponent + _F_BIAS
    if exp <= 0:
        return 0  # underflow -> true zero
    if exp > 255:
        exp = 255  # clamp; real hardware would fault on overflow
        mantissa = 1.0 - 2.0 ** -_F_FRACTION_BITS / 2
    fraction = int(round((mantissa - 0.5) * (1 << (_F_FRACTION_BITS + 1))))
    if fraction >= (1 << _F_FRACTION_BITS):
        fraction = (1 << _F_FRACTION_BITS) - 1
    natural = (sign << 31) | (exp << _F_FRACTION_BITS) | fraction
    # Swap the 16-bit halves to produce the VAX memory image.
    return ((natural & 0xFFFF) << 16) | ((natural >> 16) & 0xFFFF)


def f_floating_decode(image: int) -> float:
    """Decode a 32-bit VAX F_floating memory image into a Python float."""
    natural = ((image & 0xFFFF) << 16) | ((image >> 16) & 0xFFFF)
    sign = (natural >> 31) & 1
    exp = (natural >> _F_FRACTION_BITS) & 0xFF
    fraction = natural & ((1 << _F_FRACTION_BITS) - 1)
    if exp == 0:
        if sign:
            raise ValueError("reserved operand (sign=1, exp=0)")
        return 0.0
    mantissa = 0.5 + fraction / (1 << (_F_FRACTION_BITS + 1))
    value = math.ldexp(mantissa, exp - _F_BIAS)
    return -value if sign else value


# ---------------------------------------------------------------------------
# Packed decimal
# ---------------------------------------------------------------------------

_PLUS_NIBBLE = 0xC
_MINUS_NIBBLE = 0xD


def packed_decimal_encode(value: int, digits: int) -> bytes:
    """Encode a signed integer as a VAX packed-decimal string.

    ``digits`` is the decimal digit count (0..31); the encoded string
    occupies ``digits // 2 + 1`` bytes, with the sign in the low nibble of
    the last byte.
    """
    if not 0 <= digits <= 31:
        raise ValueError("packed decimal supports 0..31 digits, got {}".format(digits))
    magnitude = abs(value)
    text = str(magnitude).rjust(digits, "0")
    if len(text) > digits:
        raise OverflowError("{} does not fit in {} decimal digits".format(value, digits))
    sign = _MINUS_NIBBLE if value < 0 else _PLUS_NIBBLE
    nibbles = [int(ch) for ch in text] + [sign]
    if len(nibbles) % 2:
        nibbles.insert(0, 0)
    out = bytearray()
    for hi, lo in zip(nibbles[::2], nibbles[1::2]):
        out.append((hi << 4) | lo)
    return bytes(out)


def packed_decimal_decode(data: bytes, digits: int) -> int:
    """Decode a VAX packed-decimal string into a signed integer."""
    nibbles = []
    for byte in data:
        nibbles.append((byte >> 4) & 0xF)
        nibbles.append(byte & 0xF)
    sign_nibble = nibbles[-1]
    digit_nibbles = nibbles[-1 - digits : -1]
    magnitude = 0
    for nib in digit_nibbles:
        if nib > 9:
            raise ValueError("invalid BCD digit {:#x}".format(nib))
        magnitude = magnitude * 10 + nib
    if sign_nibble in (_MINUS_NIBBLE, 0xB):
        return -magnitude
    return magnitude


def packed_size(digits: int) -> int:
    """Bytes occupied by a packed-decimal string of ``digits`` digits."""
    return digits // 2 + 1
