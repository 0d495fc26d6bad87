"""The GF(p) Kronecker kernel at its slot-width steps, and its matrix
product against the schoolbook convolution.  ``product`` against the
schoolbook loop at every prime is in test_series.py (``_mul_trunc``) and
test_poly.py (``Polynomial.__mul__``).  The digit read-backs against their
full forms, and the decimal conversions against CPython's own ``str`` and
``int`` with the int-to-str limit lifted."""

import random
import sys
import time

import pytest

from wordcf import _kernel
from wordcf.fields import GF
from oracles import mul_trunc_schoolbook

PRIMES = [2, 3, 5, 7, 257, 1000003, 2**61 - 1]


def _digits(rng, p, length, zero_share=0.3):
    """Residues in [0, p) with runs of zeros and the extreme residue p - 1."""
    return [
        0 if rng.random() < zero_share else rng.choice((p - 1, rng.randrange(p)))
        for _ in range(length)
    ]


def _schoolbook(a, b, n, p):
    return mul_trunc_schoolbook(a, b, n, GF(p))


def _strip(v):
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return v


@pytest.mark.parametrize(
    "p, shorter, width",
    [
        (2, 255, 1),  # 255 * 1 fits one byte
        (2, 256, 2),
        (3, 63, 1),  # 63 * 4 = 252
        (3, 64, 2),
        (3, 16383, 2),
        (3, 16384, 4),  # 2^16 needs three bytes, rounded up to four
        (7, 2000, 4),
        (257, 1, 4),
        (1000003, 3, 8),  # about 3 * 10^12: five bytes, rounded up to eight
        (2**61 - 1, 1, 16),  # past eight bytes: exact, per-residue path
    ],
)
def test_slot_width(p, shorter, width):
    assert _kernel._width(shorter * (p - 1) ** 2) == width


@pytest.mark.parametrize(
    "p, length",
    [(2, 255), (2, 256), (3, 63), (3, 64), (3, 16383), (3, 16384), (257, 9), (1000003, 3), (2**61 - 1, 5)],
)
def test_full_slots_at_width_boundaries(p, length):
    # With every residue p - 1, coefficient k of the square is (p-1)^2 times
    # the number of pairs i + j = k: the slot bound itself in the middle,
    # on both sides of each width step.
    a = [p - 1] * length
    want = [(p - 1) ** 2 * min(k + 1, 2 * length - 1 - k) % p for k in range(2 * length - 1)]
    assert _kernel.product(a, a, 2 * length - 1, p) == want


def _matmul_schoolbook(A, B, p):
    out = []
    for row in A:
        entries = []
        for j in range(len(B[0])):
            acc = []
            for k, x in enumerate(row):
                y = B[k][j]
                if x and y:
                    prod = _schoolbook(x, y, len(x) + len(y) - 1, p)
                    acc = [u + v for u, v in zip(acc + [0] * len(prod), prod + [0] * len(acc))]
            entries.append(_strip(c % p for c in acc))
        out.append(entries)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_matches_schoolbook(p):
    rng = random.Random(f"matmul:{p}")
    for _ in range(12):
        sizes = [rng.choice((0, 1, 2, 7, 40, 130)) for _ in range(8)]
        entries = [_strip(_digits(rng, p, s)) for s in sizes]
        A = [entries[0:2], entries[2:4]]
        B = [entries[4:6], entries[6:8]]
        assert _kernel.matmul(A, B, p) == _matmul_schoolbook(A, B, p)
        V = [[entries[4]], [entries[5]]]
        assert _kernel.matmul(A, V, p) == _matmul_schoolbook(A, V, p)


@pytest.mark.parametrize("p", [2, 3, 257])
def test_matmul_strips_cancelled_top(p):
    # (T + 1) * 1 + (T) * (p - 1) = 1: the top slot holds p, which is 0.
    A = [[[1, 1], [0, 1]]]
    B = [[[1]], [[p - 1]]]
    assert _kernel.matmul(A, B, p) == [[[1]]]


def test_signed_digits_read_back_balanced_coefficients():
    # Any coefficients in [-128, 127] with a nonzero top are the balanced
    # base-256 digits of their value at T = 256, the extremes included.
    rng = random.Random("signed-digits")
    cases = [[], [1], [-1], [127], [-128], [0, 0, 5], [-128] * 9, [127] * 9, [5, -1, 0, 0, -128, 1]]
    for _ in range(200):
        length = rng.choice((1, 2, 3, 8, 31, 300))
        digits = [rng.choice((-128, 127, 0, rng.randrange(-128, 128))) for _ in range(length)]
        cases.append(_strip(digits))
    for digits in cases:
        value = sum(c << (8 * k) for k, c in enumerate(digits))
        assert _kernel.signed_digits(value) == digits


def test_signed_degree_matches_digit_count():
    # The top balanced digit read from the top bytes, against the full
    # digit list: 0, +-127, +-128, +-(256^k/2 +- 1), runs of the bytes 0x7F
    # and 0x80 on top (where the comparison reads further down), random.
    rng = random.Random("signed-degree")
    values = [0, 127, 128, 129, 255, 256]
    for k in range(1, 40):
        half = 256**k // 2
        values += [half - 1, half, half + 1]
        for byte in (b"\x7f", b"\x80"):
            run = int.from_bytes(byte * k, "big")
            values += [run - 1, run, run + 1]
    for _ in range(2000):
        values.append(rng.getrandbits(rng.randrange(1, 4000)))
        top = rng.choice((b"\x7f", b"\x80")) * rng.randrange(1, 300)
        values.append(int.from_bytes(top + rng.randbytes(rng.randrange(0, 4)), "big"))
    for value in values:
        for v in (value, -value):
            assert _kernel.signed_degree(v) == len(_kernel.signed_digits(v)) - 1, v


# ------------------------------------------------------ decimal conversion


def _check_round_trips(values, int_max_str_digits):
    # The reference is CPython's own conversion with the limit lifted.
    with int_max_str_digits(0):
        texts = [str(v) for v in values]
    for limit in (640, 4300, 0):
        with int_max_str_digits(limit):
            for value, text in zip(values, texts):
                assert _kernel.decimal_str(value) == text, (limit, value.bit_length())
                assert _kernel.decimal_int(text) == value, (limit, len(text))


def test_decimal_conversion_at_edge_values(int_max_str_digits):
    # 0, +-1, +-10^k and +-(10^k - 1) around every limit and leaf size, and
    # ints next to the split points 2^k of the recursion.
    values = [0, 1]
    for k in (1, 2, 511, 512, 513, 639, 640, 641, 4299, 4300, 4301, 9020, 20000):
        values += [10**k, 10**k - 1, 10**k + 1]
    for k in (1023, 1024, 1025, 2048, 2049, 2100, 14283, 14284, 14285, 65536, 100003):
        values += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    _check_round_trips(values + [-v for v in values], int_max_str_digits)


def test_decimal_conversion_at_random_sizes(int_max_str_digits):
    rng = random.Random("decimal-conversion")
    values = []
    for digits in (5, 600, 700, 4300, 5000, 12345, 54321, 100000):
        for _ in range(3):
            value = rng.randrange(10 ** (digits - 1), 10**digits)
            values.append(value if rng.random() < 0.5 else -value)
    for _ in range(40):
        values.append(rng.getrandbits(rng.randrange(1, 60000)) * rng.choice((1, -1)))
    _check_round_trips(values, int_max_str_digits)


def test_decimal_int_rejects_what_is_not_digits(int_max_str_digits):
    # Above the limit the string is split, so a sign in a half must not
    # read as a signed part.
    with int_max_str_digits(640):
        for text in ("1" * 700 + "-1" + "1" * 300, "1" * 900 + " ", "-" + "1" * 500 + "x" * 500, "--" + "1" * 700):
            with pytest.raises(ValueError):
                _kernel.decimal_int(text)


def test_decimal_conversion_of_a_million_digits_is_fast(int_max_str_digits):
    # CPython's own quadratic conversion takes about 19 s to write such an
    # int; both directions here are sub-quadratic.
    value = random.Random("million").randrange(10**999999, 10**1000000)
    with int_max_str_digits(4300):
        start = time.perf_counter()
        text = _kernel.decimal_str(value)
        middle = time.perf_counter()
        back = _kernel.decimal_int(text)
        end = time.perf_counter()
    assert len(text) == 1000000 and back == value
    assert middle - start < 5 and end - middle < 5
