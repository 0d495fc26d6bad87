"""The recursive two-letter word, its auxiliary decompositions, and the
letter-to-polynomial encodings.

The infinite word is the limit of the blocks B(0) = empty, B(1) = "1",
B(n) = B(n-1) 2 B(n-2) 2 B(n-1); every block is a prefix of the next.  Block
lengths satisfy len(n+1) = 2*len(n) + len(n-1) + 2.  Words are stored as
strings over the symbols "1"/"2"; an alphabet pair maps the symbols to field
elements (default (1, 2)) only when a word is encoded as a polynomial.

Infinite-word access is by prefix materialization from the memoized block
ladder.  The word identities (``check_identities`` and its helpers) are
library API that no command runs.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from math import lcm

from ._kernel import decimal_str
from .fields import QQ

# Longest block the ladder builds, about 20 times the largest the checks
# use; a longer request fails fast instead of exhausting memory.
MAX_BLOCK_LETTERS = 10**7


# Memoized block ladder; read-only once built.
_blocks: list[str] = ["", "1"]


def check_block_budget(n: int) -> None:
    """Raise ValueError when block n is longer than MAX_BLOCK_LETTERS."""
    # len(n) >= 2^(n-1), so an index past the budget's bit length is over it
    # without summing the recurrence that far.
    if n > MAX_BLOCK_LETTERS.bit_length() or length_of(n) > MAX_BLOCK_LETTERS:
        raise ValueError(f"block {decimal_str(n)} is longer than the budget of {MAX_BLOCK_LETTERS} letters")


def block(n: int) -> str:
    """The n-th block of the recursion (length table entry n)."""
    if n < 0:
        raise ValueError("block index must be nonnegative")
    if n >= len(_blocks):
        check_block_budget(n)
    while len(_blocks) <= n:
        m = len(_blocks)
        _blocks.append(_blocks[m - 1] + "2" + _blocks[m - 2] + "2" + _blocks[m - 1])
    return _blocks[n]


def lengths(upto: int) -> tuple[int, ...]:
    """Block lengths 0..upto from the recurrence len(n+1)=2len(n)+len(n-1)+2."""
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    out = [0, 1]
    while len(out) <= upto:
        out.append(2 * out[-1] + out[-2] + 2)
    return tuple(out[: upto + 1])


def length_of(n: int) -> int:
    return lengths(n)[n]


def prefix(count: int) -> str:
    """First ``count`` letters of the infinite word."""
    if count < 0:
        raise ValueError("prefix length must be nonnegative")
    if count > MAX_BLOCK_LETTERS:
        raise ValueError(f"prefix is longer than the budget of {MAX_BLOCK_LETTERS} letters")
    n = 0
    while length_of(n) < count:
        n += 1
    return block(n)[:count]


def _sqrt2_mul(x, y):
    # (a + b*sqrt2)(c + d*sqrt2) exactly, as integer pairs.
    a, b = x
    c, d = y
    return (a * c + 2 * b * d, a * d + b * c)


def length_closed_form_ok(n: int) -> bool:
    """Compare the recurrence against the closed form, exactly in Z[sqrt2]."""
    plus = (2, 1)
    minus = (2, -1)
    base_p, base_m = (1, 1), (1, -1)
    for _ in range(n):
        plus = _sqrt2_mul(plus, base_p)
        minus = _sqrt2_mul(minus, base_m)
    total = (plus[0] + minus[0], plus[1] + minus[1])
    if total[1] != 0 or total[0] % 4 != 0:
        return False
    return total[0] // 4 - 1 == length_of(n)


class AuxWords(namedtuple("AuxWords", "n u v f g h j i up")):
    """The decomposition words attached to index n.

    u = B(n) 2 B(n-1), v = 2 B(n); u = g + f and v = h + f with the last
    letters of g and h distinct; j is the reversed-order block chain with
    length equal to f; i is the residual with v(n-1) v(n) = 2 j i; up is the
    extended block u(n+1) 2.
    """

    __slots__ = ()


@functools.lru_cache(maxsize=None)
def _aux_symbols(n: int) -> tuple[str, str, str, str]:
    # (f, g, h, j) ladders as raw strings
    if n < 1:
        raise ValueError("aux words are defined for n >= 1")
    if n == 1:
        return "", "12", "21", ""
    f_prev, g_prev, h_prev, j_prev = _aux_symbols(n - 1)
    b_prev = block(n - 1)
    f = f_prev + "2" + b_prev
    h = "2" + g_prev
    g = _u_symbols(n - 1) + h_prev
    j = b_prev + "2" + j_prev
    return f, g, h, j


def _u_symbols(n: int) -> str:
    return block(n) + "2" + block(n - 1)


def _v_symbols(n: int) -> str:
    return "2" + block(n)


def aux_words(n: int) -> AuxWords:
    """Build and validate all decomposition words for index n >= 1."""
    f, g, h, j = _aux_symbols(n)
    u = _u_symbols(n)
    v = _v_symbols(n)
    up = _u_symbols(n + 1) + "2"
    ell = lengths(n + 1)
    vv = _v_symbols(n - 1) + v
    if not vv.startswith("2" + j):
        raise ValueError(f"residual decomposition failed at n={n}")
    i = vv[1 + len(j) :]
    # Invariants of the decomposition; checked with exceptions so that
    # ``python -O`` keeps them.
    if u != g + f or v != h + f:
        raise ValueError(f"u = g f, v = h f fails at n={n}")
    if g[-1:] == h[-1:]:
        raise ValueError(f"g and h share their last letter at n={n}")
    if len(g) != (ell[n] + ell[n - 1] + 3) // 2:
        raise ValueError(f"|g| is off the length law at n={n}")
    if not len(f) == len(j) == (ell[n] + ell[n - 1] - 1) // 2:
        raise ValueError(f"|f| or |j| is off the length law at n={n}")
    if len(up) != 3 * ell[n] + ell[n - 1] + 4:
        raise ValueError(f"|u(n+1) 2| is off the length law at n={n}")
    return AuxWords(n=n, u=u, v=v, f=f, g=g, h=h, j=j, i=i, up=up)


def last_letters_differ(a: str, b: str) -> bool:
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty word has no last letter")
    return a[-1] != b[-1]


def first_letters_differ(a: str, b: str) -> bool:
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty word has no first letter")
    return a[0] != b[0]


def word_poly(w: str, field=QQ, alphabet=(1, 2)) -> Polynomial:
    """Encode a word as the polynomial with its letters as coefficients,
    first letter carrying the highest power of T; the alphabet (a, b) gives
    the values of the symbols "1" and "2"."""
    from .poly import Polynomial

    a, b = alphabet
    if a == b:
        raise ValueError("alphabet letters must be distinct")
    a, b = field.coerce(a), field.coerce(b)
    # Letters over one common denominator (1 unless a letter is a Fraction).
    den = lcm(a.denominator, b.denominator)
    letter = {
        "1": a.numerator * (den // a.denominator),
        "2": b.numerator * (den // b.denominator),
    }
    try:
        coeffs = list(map(letter.__getitem__, reversed(w)))
    except KeyError as exc:
        raise ValueError("word symbols must be '1' or '2'") from exc
    return Polynomial._over(field, coeffs, den)


@functools.lru_cache(maxsize=None)
def theta_series(prec: int, field=QQ) -> LaurentSeries:
    """Generating series of the infinite word: letter k at exponent -k."""
    from .series import LaurentSeries

    if prec < 1:
        raise ValueError("prec must be at least 1")
    # One C-level pass: the letters become the byte digits of their field
    # elements (over GF(2), 2 is 0).
    digits = bytes.maketrans(b"12", bytes(map(field.coerce, (1, 2))))
    letters = prefix(prec).encode("ascii").translate(digits)
    return LaurentSeries._raw(field, -1, tuple(letters), -prec)


class IdentityCheck(namedtuple("IdentityCheck", "name n status")):
    """One word identity at index n; ``status`` is "pass", "fail" or "skip"."""

    __slots__ = ()


def check_identities(n: int) -> list[IdentityCheck]:
    """Exact word equalities tying blocks to their decompositions at index n.

    Identities that are only defined from n >= 2 are reported as skipped at
    n = 1.  Any failure names the identity and the index.
    """
    if n < 1:
        raise ValueError("identities are checked for n >= 1")
    ell = lengths(n + 3)
    aux = aux_words(n)
    aux_next = aux_words(n + 1)
    b = {k: block(k) for k in range(n + 4)}
    u, v = aux.u, aux.v
    v_prev = _v_symbols(n - 1)
    checks: list[IdentityCheck] = []

    def record(name: str, ok: bool):
        checks.append(IdentityCheck(name, n, "pass" if ok else "fail"))

    record("block(n+1) == u v", b[n + 1] == u + v)
    record(
        "block(n+2) == u v^3 v_prev v",
        b[n + 2] == u + v * 3 + v_prev + v,
    )
    if n >= 2:
        aux_prev = aux_words(n - 1)
        record(
            "u == u_prev v_prev^2",
            u == aux_prev.u + v_prev * 2,
        )
    else:
        checks.append(IdentityCheck("u == u_prev v_prev^2", n, "skip"))
    record(
        "v_prev v == 2 j i",
        v_prev + v == "2" + aux.j + aux.i,
    )
    i_prev = aux_words(n - 1).i if n >= 2 else "1"
    record("v == 2 j i_prev", v == "2" + aux.j + i_prev)
    record("h(n+1) == 2 g", aux_next.h == "2" + aux.g)
    record("g(n+1) == u h", aux_next.g == u + aux.h)
    record(
        "block(n+3) == up^2 block(n-1) 2 block(n) 2 block(n+2)",
        b[n + 3] == aux.up * 2 + b[n - 1] + "2" + b[n] + "2" + b[n + 2],
    )
    a_word, b_word = residual_suffixes(n)
    record(
        "first letters of residual suffixes differ",
        first_letters_differ(a_word, b_word),
    )
    return checks


def residual_suffixes(n: int) -> tuple[str, str]:
    """The words a, b with block(n-1) 2 block(n) 2 block(n+2) = j a and
    up = j b; they are computed, not formula-built."""
    aux = aux_words(n)
    j = aux.j
    left = block(n - 1) + "2" + block(n) + "2" + block(n + 2)
    if not left.startswith(j) or not aux.up.startswith(j):
        raise ValueError(f"residual decomposition failed at n={n}")
    return left[len(j) :], aux.up[len(j) :]
