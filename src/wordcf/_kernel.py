"""The one GF(p) product kernel: Kronecker substitution on residue lists.

A residue list ``[a_0, a_1, ...]`` (ascending, each residue in [0, p)) is
packed into one Python int with one ``width``-byte slot per residue, so the
polynomial sum a_i T^i becomes sum a_i 256^(width i).  One bigint product
(CPython's Karatsuba) multiplies two packed operands, and slot k of the
product holds coefficient k of the polynomial product, unreduced.  A slot
holds min(len a, len b) * (p-1)^2, the largest such coefficient, so no carry
crosses a slot.  The cost is that of one bigint product, O(n^1.58) word
operations in C, instead of n^2/2 residue products in Python.

Slots are rounded up to 1, 2, 4 or 8 bytes, the item sizes of ``array``, so
packing is one ``array`` build and unpacking one ``memoryview`` cast: one
C-level pass each way.  Only slots wider than 8 bytes (primes of about 2^30
and up) take a per-residue ``int.to_bytes`` path.  Packed ints are read and
written little-endian (slot i is coefficient i); the array items are in the
machine's byte order (``sys.byteorder``) and are swapped on a big-endian
machine.
"""

from __future__ import annotations

import sys
from array import array

_SWAP = sys.byteorder != "little"
# The unsigned array typecode of each item size (1, 2, 4, 8 bytes).
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}
# Byte b to b ^ 0x80, which read as a signed byte is b - 128.
_FLIP = bytes(b ^ 0x80 for b in range(256))


def product(a, b, n: int, p: int) -> list:
    """The first n residues of a*b mod p, for residue lists a and b.

    Residues at or beyond len a + len b - 1 are zero.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * max(n, 0)
    m = min(n, len(a) + len(b) - 1)
    width = _width(min(len(a), len(b)) * (p - 1) ** 2)
    return _unpack(_pack(a, width) * _pack(b, width), m, width, p) + [0] * (n - m)


def matmul(A, B, p: int) -> list:
    """The product of matrices A and B (lists of rows) whose entries are
    residue lists over GF(p); each entry of the result has no zero top
    residue, and [] is the zero polynomial.

    Every entry is packed once, at one slot width that holds the largest
    coefficient of any result entry, and each result entry is one sum of
    bigint products, unpacked once.
    """
    inner = range(len(B))
    cols = range(len(B[0]))
    bound = max(sum(min(len(row[k]), len(B[k][j])) for k in inner) for row in A for j in cols)
    width = _width(max(bound, 1) * (p - 1) ** 2)
    packed_a = [[_pack(x, width) for x in row] for row in A]
    packed_b = [[_pack(x, width) for x in row] for row in B]
    out = []
    for row in packed_a:
        entries = []
        for j in cols:
            value = sum(row[k] * packed_b[k][j] for k in inner)
            slots = -(-value.bit_length() // (8 * width))
            entry = _unpack(value, slots, width, p)
            while entry and not entry[-1]:
                entry.pop()
            entries.append(entry)
        out.append(entries)
    return out


def _width(bound: int) -> int:
    """Bytes per slot for slot values up to ``bound``: 1, 2, 4 or 8, or the
    exact byte count past 8."""
    size = (bound.bit_length() + 7) // 8
    for width in (1, 2, 4, 8):
        if size <= width:
            return width
    return size


def _pack(digits, width: int) -> int:
    """sum digits[i] * 256^(width*i)."""
    code = _TYPECODES.get(width)
    if code is None:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in digits), "little")
    items = array(code, digits)
    if _SWAP:
        items.byteswap()
    return int.from_bytes(items, "little")


def _unpack(value: int, count: int, width: int, p: int) -> list:
    """Slots 0..count-1 of ``value``, reduced mod p."""
    slots = value.to_bytes(max(count * width, (value.bit_length() + 7) // 8), "little")
    slots = slots[: count * width]
    code = _TYPECODES.get(width)
    if code is None:
        return [int.from_bytes(slots[i : i + width], "little") % p for i in range(0, len(slots), width)]
    if _SWAP:
        items = array(code, slots)
        items.byteswap()
    else:
        items = memoryview(slots).cast(code)
    return [c % p for c in items]


def signed_digits(value: int) -> list:
    """The balanced base-256 digits of ``value``, ascending, each in
    [-128, 127], with no zero top digit: the coefficients of the one integer
    polynomial with coefficients in [-128, 127] whose value at T = 256 is
    ``value``.

    Adding 128 to every digit makes them all bytes, so the read-back is one
    ``to_bytes`` and one signed-byte cast.
    """
    size = (value.bit_length() + 7) // 8 + 1
    offset = int.from_bytes(b"\x80" * size, "little")
    digits = array("b", (value + offset).to_bytes(size, "little").translate(_FLIP)).tolist()
    while digits and not digits[-1]:
        digits.pop()
    return digits
