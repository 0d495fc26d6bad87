"""The GF(p) Kronecker kernel at its slot-width steps, and its matrix
product against the schoolbook convolution.  ``product`` against the
schoolbook loop at every prime is in test_series.py (``_mul_trunc``) and
test_poly.py (``Polynomial.__mul__``)."""

import random

import pytest

from wordcf import _kernel
from wordcf.fields import GF
from wordcf.series import _mul_trunc_schoolbook

PRIMES = [2, 3, 5, 7, 257, 1000003, 2**61 - 1]


def _digits(rng, p, length, zero_share=0.3):
    """Residues in [0, p) with runs of zeros and the extreme residue p - 1."""
    return [
        0 if rng.random() < zero_share else rng.choice((p - 1, rng.randrange(p)))
        for _ in range(length)
    ]


def _schoolbook(a, b, n, p):
    return _mul_trunc_schoolbook(a, b, n, GF(p))


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
