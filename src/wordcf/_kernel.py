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

The module also holds the exact decimal conversions of ints of any size,
``decimal_str`` and ``decimal_int``, which the text formats go through, and
their digit budget ``MAX_INT_DIGITS``.
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


def signed_degree(value: int) -> int:
    """``len(signed_digits(value)) - 1``, the index of the top balanced
    base-256 digit (-1 for 0), without building the digits.

    With k the index of the top byte of |value|, the balanced digits up to
    index k reach 0x7F7F...7F above zero and -0x8080...80 below it (k + 1
    bytes), so the top digit is at k or k + 1, as |value| is at most that
    pattern or not.  The comparison reads |value| from its top bytes down,
    in spans that double, so it stops after a few bytes but for values that
    start with a long run of the pattern byte.
    """
    magnitude = abs(value)
    size = (magnitude.bit_length() + 7) // 8
    if not size:
        return -1
    pattern = b"\x7f" if value > 0 else b"\x80"
    span = 8
    while True:
        span = min(span, size)
        top = magnitude >> (8 * (size - span))
        bound = int.from_bytes(pattern * span, "big")
        if top != bound or span == size:
            return size - 1 if top <= bound else size
        span *= 2


# ------------------------------------------------------ decimal conversion
# CPython's own int <-> str conversion is quadratic, so from 3.11 it refuses
# more digits than sys.get_int_max_str_digits() (4300 by default).  The two
# routines below give the same text at any size and under any limit, and
# leave the limit as it is.  Below the limit they are the builtins; above
# it they divide and conquer, as in Brent & Zimmermann, *Modern Computer
# Arithmetic*, section 1.7: one split costs a shift or a slice, and the
# halves are joined by one sub-quadratic product (libmpdec's for int to
# str, CPython's Karatsuba for str to int).


# Most decimal digits of one integer read (an option or an expression) or
# written out: a conversion either way takes about a second.
MAX_INT_DIGITS = 10**6


def digits_bound(bits: int) -> int:
    """An upper bound on the decimal digits of an int of ``bits`` bits:
    log10(2) < 0.30103."""
    return bits * 30103 // 100000 + 1


# Leaves of the recursions: ints of up to _LEAF_BITS bits are converted by
# Decimal(int) and digit strings of up to _LEAF_DIGITS characters by int();
# 512 is below every nonzero limit (Python refuses limits under 640).
_LEAF_BITS = 1024
_LEAF_DIGITS = 512


def decimal_str(value: int) -> str:
    """``str(value)`` for an int of any size, whatever the int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    if not limit or digits_bound(value.bit_length()) <= limit:
        return str(value)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact

    # Every sum and product is exact at this precision; the trap makes sure.
    context = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])
    powers = {}  # k -> 2^k as a Decimal

    def power(k):
        if k not in powers:
            if k <= _LEAF_BITS:
                powers[k] = Decimal(1 << k)
            else:
                half = power(k >> 1)
                square = context.multiply(half, half)
                powers[k] = context.multiply(square, 2) if k & 1 else square
        return powers[k]

    def convert(n, bits):
        # n < 2^bits, as a Decimal: hi 2^k + lo, with both halves converted
        # the same way.
        if bits <= _LEAF_BITS:
            return Decimal(n)
        k = bits >> 1
        hi = n >> k
        lo = n - (hi << k)
        return context.add(context.multiply(convert(hi, bits - k), power(k)), convert(lo, k))

    text = str(convert(abs(value), value.bit_length()))
    return "-" + text if value < 0 else text


def decimal_int(text: str) -> int:
    """``int(text)`` for a string of decimal digits, with an optional
    leading ``-``, of any length, whatever the int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    if not limit or len(text) <= limit:
        return int(text)
    negative = text[0] == "-"
    digits = text[1:] if negative else text
    if not digits.isdigit():
        raise ValueError("not a string of decimal digits")
    powers = {}  # k -> 10^k

    def power(k):
        if k not in powers:
            if k <= _LEAF_DIGITS:
                powers[k] = 10**k
            else:
                half = power(k >> 1)
                powers[k] = half * half * 10 if k & 1 else half * half
        return powers[k]

    def convert(start, stop):
        # text[start:stop] as hi 10^len(lo) + lo.
        if stop - start <= _LEAF_DIGITS:
            return int(digits[start:stop])
        middle = (start + stop + 1) >> 1
        return convert(start, middle) * power(stop - middle) + convert(middle, stop)

    value = convert(0, len(digits))
    return -value if negative else value
