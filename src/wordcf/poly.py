"""Dense univariate polynomials in T over an exact field.

A polynomial stores its coefficients as one tuple of ints, ``ints``,
ascending (index = exponent of T), over one positive int denominator
``den``: coefficient k is ints[k]/den.  The last entry of ``ints`` is
nonzero, and the zero polynomial is the empty tuple.  The form is canonical,
with gcd(content, den) = 1, so ``==`` and ``hash`` are tuple compares.  Over
Q, arithmetic is fraction-free: it runs on the ints and normalises each
result once, with one gcd over the whole vector, instead of once per
coefficient; division is pseudo-division (content bookkeeping as in von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 6).  Over GF(p), ``ints``
holds the residues in [0, p) and ``den`` is 1.  Both fields divide by one
long-division loop (``_long_division``) and differ only in its quotient
digit.

The Euclidean remainder sequence is one routine, ``_certified_euclid``: over
GF(p) a half-gcd on residue lists, over Q one division per quotient.  The
continued-fraction expansions of ``cf`` read their quotients off it, and
``poly_gcd`` is its last nonzero remainder, made monic.

``coeffs`` is the field-element view: the stored tuple itself when
``den == 1`` (every integer polynomial, and every GF(p) one), otherwise one
``int``/``Fraction`` per coefficient, built on demand; only then is
``fractions`` imported.

The text format (``format_poly``) is a sum of ``c*T^k`` terms with rationals
as ``p/q``, e.g. ``-125/48*T^1 + 25/24*T^0``; integers are written by
``_kernel.decimal_str``, at any size, whatever the interpreter's int-to-str
limit.  ``RationalFunction`` and the parser that reads that format back are
in ``ratfunc``, which only ``--ratfunc`` jobs load.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm

from . import _kernel
from .fields import GF, check_same_field, format_terms


def _elements(ints, den: int):
    """The field elements c/den of ints, each an int when it is integral.
    The one builder of ``Fraction``s here, and it imports them: a run that
    reads no such element (any over GF(p)) never loads ``fractions``."""
    if den == 1:
        return ints
    from fractions import Fraction

    return tuple(q.numerator if q.denominator == 1 else q for q in (Fraction(c, den) for c in ints))


class Polynomial:
    """Immutable dense polynomial over a fixed coefficient field."""

    __slots__ = ("field", "ints", "den")

    def __init__(self, field, coeffs=()):
        coeffs = [field.coerce(c) for c in coeffs]
        den = 1
        dens = [c.denominator for c in coeffs if type(c) is not int]
        if dens:
            # Each Fraction is reduced, so over the lcm of the denominators
            # the form is already canonical.
            den = lcm(*dens)
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ints", tuple(coeffs))
        object.__setattr__(self, "den", den if coeffs else 1)

    @classmethod
    def _raw(cls, field, ints, den=1):
        # Trusted path: ints already reduced and canonical over den; only
        # strip the tail.
        n = len(ints)
        while n and not ints[n - 1]:
            n -= 1
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ints", tuple(ints[:n] if n < len(ints) else ints))
        object.__setattr__(self, "den", den if n else 1)
        return self

    @classmethod
    def _over(cls, field, ints, den):
        # ints/den over Q made canonical by one gcd over the whole vector.
        if den != 1:
            g = gcd(den, *ints)
            if den < 0:
                g = -g
            if g != 1:
                ints = [c // g for c in ints]
                den //= g
        return cls._raw(field, ints, den)

    @classmethod
    def zero(cls, field):
        return cls._raw(field, ())

    @classmethod
    def one(cls, field):
        return cls._raw(field, (field.one,))

    @classmethod
    def monomial(cls, field, coeff, k: int):
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        coeff = field.coerce(coeff)
        if not coeff:
            return cls.zero(field)
        return cls._raw(field, (0,) * k + (coeff.numerator,), coeff.denominator)

    @classmethod
    def t(cls, field):
        return cls.monomial(field, field.one, 1)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self):
        """The coefficients as field elements, ascending."""
        return _elements(self.ints, self.den)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def lead(self):
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return _elements((self.ints[-1],), self.den)[0]

    def coefficient(self, k: int):
        if 0 <= k < len(self.ints):
            return _elements((self.ints[k],), self.den)[0]
        return self.field.zero

    def nonzero_terms(self):
        return [(k, c) for k, c in enumerate(self.coeffs) if c]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.field, self.ints, self.den))

    def _aligned(self, other):
        # Both int vectors over their least common denominator.
        check_same_field(self.field, other.field)
        a, b, da, db = self.ints, other.ints, self.den, other.den
        if da == db:
            return a, b, da
        g = gcd(da, db)
        fa, fb = db // g, da // g
        if fa != 1:
            a = [c * fa for c in a]
        if fb != 1:
            b = [c * fb for c in b]
        return a, b, da * fa

    def __add__(self, other):
        a, b, den = self._aligned(other)
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b) :])
        return Polynomial._over(self.field, self.field.reduce_coeffs(out), den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial._raw(
            self.field, self.field.reduce_coeffs([-c for c in self.ints]), self.den
        )

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        a, b, da, db = self.ints, other.ints, self.den, other.den
        if not a or not b:
            return Polynomial.zero(self.field)
        p = self.field.characteristic
        if p:
            # Over GF(p): one Kronecker product in the shared kernel.
            return Polynomial._raw(self.field, _kernel.product(a, b, len(a) + len(b) - 1, p))
        # Over Q: cancel each operand's content against the other's denominator
        # first.  By Gauss's lemma the content of the product is the product
        # of the contents, so the result is canonical as computed.
        if db != 1:
            g = gcd(db, *a)
            if g != 1:
                a, db = [c // g for c in a], db // g
        if da != 1:
            g = gcd(da, *b)
            if g != 1:
                b, da = [c // g for c in b], da // g
        # Run the outer loop over the operand with fewer nonzero terms, and
        # the inner one over the other's nonzero terms when it is under half
        # full: nearly every Q product is dense, but the sparse powers that
        # _power_cost admits need it.  (T^100000+T^50000+1)^10 parses in 0.2 s
        # with it, 1.2 s without (Python 3.11.7, shared 2-CPU VM).
        nnz_a, nnz_b = len(a) - a.count(0), len(b) - b.count(0)
        if nnz_a > nnz_b:
            a, b, nnz_b = b, a, nnz_a
        out = [0] * (len(a) + len(b) - 1)
        terms = [(i, a[i]) for i in compress(range(len(a)), a)]
        nb = len(b)
        if 2 * nnz_b < nb:
            for j in compress(range(nb), b):
                cb = b[j]
                for i, ca in terms:
                    out[i + j] += ca * cb
        else:
            for i, ca in terms:
                out[i : i + nb] = [
                    o + ca * cb if cb else o for o, cb in zip(out[i : i + nb], b)
                ]
        return Polynomial._raw(self.field, out, da * db)

    def scale(self, scalar):
        field = self.field
        scalar = field.coerce(scalar)
        if not scalar:
            return Polynomial.zero(field)
        if field.characteristic:
            return Polynomial._raw(field, field.reduce_coeffs([scalar * c for c in self.ints]))
        num = scalar.numerator
        return Polynomial._over(
            field, [num * c for c in self.ints], self.den * scalar.denominator
        )

    def shift(self, k: int):
        """Multiply by T^k (k >= 0)."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        if self.is_zero:
            return self
        return Polynomial._raw(self.field, (0,) * k + self.ints, self.den)

    def __divmod__(self, other):
        check_same_field(self.field, other.field)
        if other.is_zero:
            raise ZeroDivisionError("zero divisor")
        field = self.field
        if self.degree < other.degree:
            return Polynomial.zero(field), self
        p = field.characteristic
        if p:
            q, r = _divmod_gfp(self.ints, other.ints, p)
            return Polynomial._raw(field, q), Polynomial._raw(field, r)
        return _pseudo_divmod(self, other)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def evaluate(self, x):
        field = self.field
        x = field.coerce(x)
        if x == field.one:
            acc = field.reduce(sum(self.ints))
        else:
            acc = field.zero
            for c in reversed(self.ints):
                acc = field.reduce(acc * x + c)
        return _elements((acc,), self.den)[0]

    def monic(self):
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.ints[-1]
        if lc == self.den:
            return self
        if self.field.characteristic:
            return self.scale(self.field.invert(lc))
        return Polynomial._over(self.field, self.ints, lc)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({self.field!r}, {list(self.coeffs)!r})"


def _long_division(rem: list, b, digit) -> list:
    """Long division of the int list ``rem`` by the int vector ``b``, in
    place: returns the quotient digits (len rem - len b + 1 of them) and
    leaves the remainder in rem[:len b - 1].

    ``digit(top)`` is the field's quotient digit for the current top entry
    of ``rem``, zero when that entry is.  The entries of ``rem`` are not
    reduced: each digit reads only the one entry it needs.  A dense divisor
    updates its window with one slice; a sparse one touches only its
    nonzero support, so the cost is O(delta * nnz(b)) int operations.
    """
    db = len(b) - 1
    low = b[:db]
    quot = [0] * (len(rem) - db)
    dense = 2 * (db - low.count(0)) >= db
    support = None if dense else [(i, c) for i, c in enumerate(low) if c]
    for sh in range(len(quot) - 1, -1, -1):
        q = digit(rem[sh + db])
        if q:
            quot[sh] = q
            if dense:
                rem[sh : sh + db] = [r - q * c for r, c in zip(rem[sh : sh + db], low)]
            else:
                for i, c in support:
                    rem[i + sh] -= q * c
    return quot


def _divmod_gfp(a, b, p: int):
    """Long division of residue lists over GF(p): a = q b + r, deg r < deg b.

    ``a`` and ``b`` are ascending residue lists with b[-1] != 0 and
    len a >= len b.  Returns the lists q (len a - len b + 1 entries) and r
    (len b - 1 entries, possibly with zeros on top).
    """
    rem = list(a)
    inv = pow(b[-1], -1, p)
    quot = _long_division(rem, b, lambda top: top * inv % p)
    return quot, [r % p for r in rem[: len(b) - 1]]


def _pseudo_divmod(a: Polynomial, b: Polynomial):
    """Division over Q on the int vectors: pseudo-division by the divisor's
    primitive part, then one normalisation each for q and r.

    With a = A/da and b = (c/db) P, where c is the content of b's ints and
    P is primitive with leading coefficient lc, lc^(delta+1) A = Q' P + R'
    with exact int quotient digits top // lc.  Then q = Q' db / (da s c)
    and r = R' / (da s), where s = lc^(delta+1), or 1 when lc = +-1 (as for
    the monic approximant denominators and any scalar multiple of them).
    """
    field = a.field
    c = gcd(*b.ints)
    B = b.ints if c == 1 else [x // c for x in b.ints]
    db = len(B) - 1
    lc = B[-1]
    delta = len(a.ints) - 1 - db
    s = 1 if lc == 1 or lc == -1 else lc ** (delta + 1)
    rem = list(a.ints) if s == 1 else [x * s for x in a.ints]
    quot = _long_division(rem, B, lambda top: top // lc)
    rden = a.den * s
    g = gcd(b.den, rden * c)
    quotient = Polynomial._over(field, quot, rden * c // g)
    if b.den != g:
        # gcd(b.den / g, rden c / g) = 1, so the product stays canonical.
        m = b.den // g
        quotient = Polynomial._raw(field, [x * m for x in quotient.ints], quotient.den)
    return quotient, Polynomial._over(field, rem[:db], rden)


def _certified_euclid(num: Polynomial, den: Polynomial, budget: int):
    """The Euclidean remainder sequence of num/den, as far as a budget allows.

    Returns (quotients, last, rest): a0 = num div den, then the quotients
    a1, a2, ... of den / (num mod den) whose degree sum stays <= budget/2,
    and the two remainders after the last of them.  ``rest`` is zero when
    the sequence ran out, and ``last`` is then the gcd up to a unit.

    Over GF(p) the quotients after a0 come from one half-gcd
    (``_half_gcd``), whose remainders are exact, at full size; over Q from
    one division at a time.  No caller reads cofactors, so the half-gcd
    builds them only below its truncations, which restore with them.
    """
    a0, cur = divmod(num, den)
    field = den.field
    p = field.characteristic
    if p:
        quotients, _, last, rest = _half_gcd(list(den.ints), list(cur.ints), budget // 2, p, False)
        quotients = [Polynomial._raw(field, q) for q in quotients]
        return [a0, *quotients], Polynomial._raw(field, last), Polynomial._raw(field, rest)
    quotients = [a0]
    prev = den
    deg_y = 0
    while not cur.is_zero:
        step = prev.degree - cur.degree
        if 2 * (deg_y + step) > budget:
            break
        q, r = divmod(prev, cur)
        quotients.append(q)
        deg_y += step
        prev, cur = cur, r
    return quotients, prev, cur


# Below this degree-sum bound the half-gcd divides step by step.
_HALF_GCD_BASE = 32

_IDENTITY = (([1], []), ([], [1]))


def _half_gcd(a: list, b: list, k: int, p: int, cofactors: bool = True):
    """Half-gcd of residue lists over GF(p) (Thull & Yap 1990; von zur
    Gathen & Gerhard, *Modern Computer Algebra*, ch. 11), without the monic
    normalisation, so its quotients are the plain division's.

    For deg a > deg b (b may be []), the Euclidean remainders r_{-1} = a,
    r_0 = b, r_i = r_{i-2} mod r_{i-1} have quotients q_i.  Returns
    (q_1..q_j, R, r_{j-1}, r_j) with j the largest index with
    deg q_1 + ... + deg q_j <= k, and R = ((s0, t0), (s1, t1)) the cofactors
    with r_{j-1} = s0 a + t0 b and r_j = s1 a + t1 b.  The remainders are
    exact, at the full size of a and b.

    Those quotients depend only on the top 2k+1 digits of a (and the
    matching digits of b): dropping the m = deg a - 2k low digits of both
    perturbs r_i by s_i A0 + t_i B0 of degree < m + deg t_i, which changes no
    quotient whose degree sum stays <= k.  So a call on more digits recurses
    on the top ones and restores its remainders as T^m times theirs plus R
    applied to the low digits.  Otherwise it finds the quotients with
    degree sum <= k/2 recursively, divides once, and recurses on the rest;
    at k <= _HALF_GCD_BASE it has no first half and just divides on.  The
    matrix products go through the kernel, for O(M(k) log k) work plus the
    divisions, which cost O(d k) for a quotient of degree d.

    Only a restore reads R.  With ``cofactors`` false a call returns None
    for R unless it restored, and it restores only when more than k digits
    would go: one division over fewer extra digits costs less than the
    cofactors that a restore at its level needs.
    """
    n = len(a) - 1
    if not b or n - (len(b) - 1) > k:
        return [], _IDENTITY, a, b
    m = n - 2 * k
    if m > (0 if cofactors else k):
        quotients, R, c, d = _half_gcd(a[m:], b[m:], k, p)
        (c_low,), (d_low,) = _kernel.matmul(R, [[a[:m]], [b[:m]]], p)
        return quotients, R, _shift_add(c, m, c_low, p), _shift_add(d, m, d_low, p)
    quotients, R, c, d = [], _IDENTITY, a, b
    if k > _HALF_GCD_BASE:
        quotients, R, c, d = _half_gcd(a, b, k // 2, p, cofactors)
    while d and n - (len(d) - 1) <= k:
        q, r = _divmod_gfp(c, d, p)
        quotients.append(q)
        R = _step(R, q, p) if cofactors else None
        c, d = d, _strip(r)
        if k > _HALF_GCD_BASE:
            rest, S, c, d = _half_gcd(c, d, k - (n - (len(c) - 1)), p, cofactors)
            quotients += rest
            R = _kernel.matmul(S, R, p) if cofactors else None
            break
    return quotients, R, c, d


def _step(R, q: list, p: int):
    """The cofactor matrix one division further: rows r_j, r_{j-1} - q r_j.

    Each level of ``_half_gcd`` works on the top 2k+1 digits, so the rows
    (degree <= k) are no longer than the divisor that gave q: updating them
    term by term costs no more than that division did, and for the short
    quotients of most steps much less than a trip through the kernel.
    """
    (s0, t0), (s1, t1) = R
    return R[1], (_sub_mul(s0, q, s1, p), _sub_mul(t0, q, t1, p))


def _sub_mul(x: list, q: list, y: list, p: int) -> list:
    """x - q y over GF(p) as a stripped residue list."""
    out = list(x)
    if y:
        out += [0] * (len(q) + len(y) - 1 - len(x))
        for i in compress(range(len(q)), q):
            c = q[i]
            out[i : i + len(y)] = [o - c * v for o, v in zip(out[i : i + len(y)], y)]
    return _strip([v % p for v in out])


def _shift_add(high: list, m: int, low: list, p: int) -> list:
    """high T^m + low over GF(p) as a stripped residue list."""
    out = low + [0] * (m + len(high) - len(low))
    out[m : m + len(high)] = [(x + c) % p for x, c in zip(out[m : m + len(high)], high)]
    return _strip(out)


def _strip(v: list) -> list:
    while v and not v[-1]:
        v.pop()
    return v


# The prime of the coprimality test in poly_gcd, the largest below 2^24: a
# half-gcd product slot then fits 8 bytes for operands of up to about 2^15
# terms (``_kernel._width``).
GCD_PRIME = 16777213


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor: the last nonzero remainder of the
    sequence that ``_certified_euclid`` walks for the continued fraction of
    a/b (deg a >= deg b), with the budget 2 deg b that lets it run out.

    Over Q, coprime inputs (the common case) are recognised mod the prime
    P = GCD_PRIME first.  When P divides neither leading coefficient and the
    GF(P) gcd of the reduced int vectors is 1, the Q gcd is 1: the primitive
    gcd G over Z divides both int vectors, P does not divide its leading
    coefficient, so G mod P has G's degree and divides both reductions.
    Otherwise the remainder sequence runs over Q.
    """
    check_same_field(a.field, b.field)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd undefined")
    if a.degree < b.degree:
        a, b = b, a
    if b.is_zero:
        return a.monic()
    p = GCD_PRIME
    if not a.field.characteristic and a.ints[-1] % p and b.ints[-1] % p:
        field = GF(p)
        am, bm = (Polynomial._raw(field, [c % p for c in x.ints]) for x in (a, b))
        if poly_gcd(am, bm).degree == 0:
            return Polynomial.one(a.field)
    return _certified_euclid(a, b, 2 * b.degree)[1].monic()


def format_poly(p: Polynomial) -> str:
    """Canonical text form: signed ``c*T^k`` terms, highest exponent first
    (``fields.format_terms``); "0" for the zero polynomial.  Each coefficient
    reads as its field element would, without building it."""
    den = p.den
    fmt = p.field.format_scalar if den == 1 else _reduced_formatter(den)
    return format_terms(fmt, p.ints[::-1], p.degree) or "0"


def _reduced_formatter(den: int):
    """The text of c/den for an int c, as ``str(Fraction(c, den))`` writes
    it (``p/q`` in lowest terms, or the int): one gcd per coefficient, and
    each distinct reduced denominator converted once."""
    suffixes = {1: ""}
    decimal_str = _kernel.decimal_str

    def fmt(c: int) -> str:
        g = gcd(c, den)
        d = den // g
        suffix = suffixes.get(d)
        if suffix is None:
            suffix = suffixes[d] = "/" + decimal_str(d)
        return decimal_str(c // g) + suffix

    return fmt
