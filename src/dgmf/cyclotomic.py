"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are represented by their unique reduced form: a rational-coefficient
polynomial in z = zeta_N of degree < phi(N), reduced modulo the N-th
cyclotomic polynomial.  All arithmetic is exact; nothing is ever rounded.

A ``Scalar`` stores that form as an integer vector ``ints`` of length phi(N)
over one positive denominator ``den``, in lowest terms (``_lowest``), with
zero as (0, ..., 0)/1; ``coeffs`` views it as ``fractions.Fraction``
coefficients, for printing.  ``_product`` convolves two integer vectors and
reduces once by an integer table of the monic, integer Phi_N; a rational
factor (zero included) just scales the other one.  ``_inverse_integers``
solves M x = e_0 fraction-free (Bareiss), where M is the integer matrix of
multiplication by ``ints``.  ``linalg``, ``poly`` and ``ratfun`` run these
kernels on the stored pairs themselves.

Every exact literal, a scalar or a polynomial, is read by one grammar
(``read_terms``): a scalar is a polynomial without variables.  ``tokenize``
cuts text into exponents, numerals, names and single characters.  A sum
takes one optional sign before its first term, and the separating sign plus
at most one sign of its own before each later term.  A term is
``*``-separated factors, each a numeral ``a``, ``a/b`` or ``a.b``, a
variable ``x`` or ``x^k`` with k >= 0, ``z`` or ``z^k`` (zeta_N^k) for any
integer k, or a parenthesised scalar.  A variable named ``z`` takes
precedence over zeta.  There are no implicit products: ``2z`` is an error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _poly_divmod(num, den):
    """Exact division with remainder of rational coefficient lists
    (low-to-high); it builds the cyclotomic polynomials."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / dlead
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _lowest(ints, den):
    """(ints, den) over their gcd, for a positive den: zero becomes
    (0, ..., 0)/1."""
    g = gcd(den, *ints)
    return (ints, den) if g == 1 else ([v // g for v in ints], den // g)


def _sum(a, da, b, db, sign=1):
    """a / da + sign * b / db in lowest terms, for sign = 1 or -1."""
    if da == db:
        return _lowest([x + sign * y for x, y in zip(a, b)], da)
    g = gcd(da, db)
    fa, fb = db // g, sign * (da // g)
    return _lowest([x * fa + y * fb for x, y in zip(a, b)], da * fa)


def _product(field, a, da, b, db):
    """(ints, da * db) with ints / (da * db) == (a / da) * (b / db), for
    integer vectors a and b of length phi(N); not in lowest terms."""
    if not any(b[1:]):
        c = b[0]
        return [x * c for x in a], da * db
    if not any(a[1:]):
        c = a[0]
        return [c * x for x in b], da * db
    b = [(j, bj) for j, bj in enumerate(b) if bj]
    prod = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b:
                prod[i + j] += ai * bj
    return field.reduce_integers(prod), da * db


def _inverse_integers(field, ints, den):
    """(inverse ints, inverse den), in lowest terms, of the nonzero element
    sum(ints[k] * z^k) / den.

    Column k of the integer matrix M is ints * z^k mod Phi_N, so M x = e_0
    says ints * x = 1, and the inverse is den * x.  Bareiss elimination keeps
    every entry an integer; back substitution then finds X = D x, with D the
    last pivot (+-det M), by exact integer division."""
    n = len(ints)
    if not any(ints[1:]):
        a = ints[0]
        g = gcd(a, den)
        return [den // g if a > 0 else -den // g] + [0] * (n - 1), abs(a) // g
    top_row = field._reduction[0]  # z^phi(N) as nonzero (index, coefficient)
    columns = [list(ints)]
    for _ in range(n - 1):
        col = columns[-1]
        shifted = [0] + col[:-1]
        if col[-1]:
            for i, t in top_row:
                shifted[i] += col[-1] * t
        columns.append(shifted)
    m = [[col[i] for col in columns] + [int(i == 0)] for i in range(n)]
    prev = 1
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k])  # M is invertible
        m[k], m[p] = m[p], m[k]
        pivot, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            c = row[k]
            row[k] = 0
            for j in range(k + 1, n + 1):
                row[j] = (pivot * row[j] - c * row_k[j]) // prev
        prev = pivot
    d = prev
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        s = d * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))
        x[i] = s // row[i]
    if d < 0:
        d, x = -d, [-v for v in x]
    x = [den * v for v in x]
    g = gcd(d, *x)
    return [v // g for v in x], d // g


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, low-to-high, as Fractions."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    # x^n - 1 divided by the product of Phi_d for proper divisors d of n
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not rem
    return tuple(poly)


class CyclotomicField:
    """Q(zeta_N) with a fixed cyclotomic order N for the whole session."""

    def __init__(self, order=1):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1  # = phi(order)
        # Phi_N is monic with integer coefficients, so z^k for k in
        # [degree, 2*degree-2] reduces to an integer vector; each row keeps
        # only its nonzero (index, coefficient) pairs
        zd = [-int(c) for c in self.modulus[:-1]]  # z^degree
        row = zd
        self._reduction = []
        for _ in range(max(1, self.degree - 1)):
            self._reduction.append([(i, c) for i, c in enumerate(row) if c])
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [x + top * y for x, y in zip(row, zd)]

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicField", self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"

    def scalar(self, value):
        """Coerce an int, Fraction, or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValueError("scalar belongs to a different cyclotomic field")
            return value
        value = Fraction(value)
        return Scalar(self, (value.numerator,) + (0,) * (self.degree - 1),
                      value.denominator)

    @property
    def zero(self):
        return _constants(self.order)[0]

    @property
    def one(self):
        return _constants(self.order)[1]

    @property
    def zeta(self):
        """The root of unity zeta_N (of multiplicative order exactly N)."""
        if self.degree == 1:  # N in {1, 2}: zeta is rational
            return self.scalar(1 if self.order == 1 else -1)
        return Scalar(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def zeta_power(self, k):
        """zeta^k for any integer k, read from a table built once per order."""
        return _zeta_powers(self.order)[k % self.order]

    def reduce_integers(self, ints):
        """The integer vector of length degree equal to sum(ints[k] * z^k) mod
        Phi_N, for an integer list of length <= 2*degree-1 (<= 2 when degree
        is 1)."""
        d = self.degree
        if len(ints) > d + len(self._reduction):
            raise ValueError("too many coefficients to reduce")
        out = ints[:d] + [0] * (d - len(ints))
        for c, row in zip(ints[d:], self._reduction):
            if c:
                for i, t in row:
                    out[i] += c * t
        return out

    def _reduce(self, ints, den):
        """The Scalar sum(ints[k] * z^k) / den, for a positive integer den."""
        return Scalar(self, *_lowest(self.reduce_integers(ints), den))

    def from_coeffs(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in coeffs])
        return self._reduce([c.numerator * (den // c.denominator) for c in coeffs], den)

    def parse(self, text):
        """Inverse of ``str(scalar)``: the polynomial without variables that
        ``text`` spells (``read_terms``), e.g. "1/2 - 3*z^2"."""
        return read_terms(self, (), tokenize(text))[()]


@lru_cache(maxsize=None)
def _constants(order):
    """(zero, one) of Q(zeta_order), built once: Scalars are immutable, and
    keying by the order keeps the cache off the field object."""
    field = CyclotomicField(order)
    return field.scalar(0), field.scalar(1)


@lru_cache(maxsize=None)
def _zeta_powers(order):
    """(zeta^0, ..., zeta^(order-1)) of Q(zeta_order), built once."""
    field = CyclotomicField(order)
    zeta = field.zeta
    powers = [field.one]
    for _ in range(order - 1):
        powers.append(powers[-1] * zeta)
    return tuple(powers)


def _power(base, n, one):
    """base ** n for an integer n >= 0 by binary powering: no product with
    ``one`` and no squaring past the top bit of n."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return one if result is None else result
        base = base * base


class Scalar:
    """An element of Q(zeta_N), always in reduced form: ``ints`` over
    ``den`` in lowest terms.  Immutable."""

    __slots__ = ("field", "ints", "den", "_hash")

    def __init__(self, field, ints, den):
        self.field = field
        self.ints = tuple(ints)
        self.den = den
        self._hash = None

    @property
    def coeffs(self):
        """The coefficients of 1, z, ..., z^(phi(N)-1), as Fractions."""
        return tuple([Fraction(n, self.den) for n in self.ints])

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.order, self.ints, self.den))
        return self._hash

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (self.field == other.field and self.ints == other.ints
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self == self.field.scalar(other)
        return NotImplemented

    def __bool__(self):
        return any(self.ints)

    def is_rational(self):
        return not any(self.ints[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational scalar")
        return Fraction(self.ints[0], self.den)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError("scalars from different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, *_sum(self.ints, self.den, other.ints, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, [-a for a in self.ints], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, *_sum(self.ints, self.den, other.ints, other.den, -1))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._reduce(*_product(self.field, self.ints, self.den,
                                            other.ints, other.den))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, by one fraction-free integer solve
        (``_inverse_integers``)."""
        if not self:
            raise ZeroDivisionError("division by zero")
        return Scalar(self.field, *_inverse_integers(self.field, self.ints, self.den))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.scalar(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Scalar({self}, N={self.field.order})"


# an exponent (^k, with its sign attached to the digits), a numeral (a, a/b
# or a.b), a name, or any other single character
tokenize = re.compile(r"\^\s*-?[0-9]+|[0-9]+(?:[./][0-9]+)?|[^\W\d]\w*|\S").findall

_SIGNS = {"+": 1, "-": -1}


def split_tokens(toks, sep):
    """The runs of the token list ``toks`` between its ``sep`` tokens
    outside parentheses, like ``str.split``: one empty run for no tokens."""
    parts, depth, start = [], 0, 0
    for i, tok in enumerate(toks):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif tok == sep and not depth:
            parts.append(toks[start:i])
            start = i + 1
    parts.append(toks[start:])
    return parts


def read_terms(field, names, toks):
    """{exponent tuple: Scalar, possibly zero} of the polynomial over
    ``field`` in the variables ``names`` that the token list ``toks`` spells
    (the grammar of the module docstring).  A ValueError if it spells none,
    a ZeroDivisionError for a zero denominator."""
    toks = toks + [""]  # "" marks the end
    terms, i = _read_sum(field, names, toks, 0)
    if toks[i]:
        raise _unexpected(toks[i])
    return terms


def _unexpected(tok):
    return ValueError(f"unexpected {tok!r}" if tok else "unexpected end of text")


def _read_sum(field, names, toks, i):
    """(terms, index of the first token after them) of the sum at toks[i]."""
    terms, sign = {}, 1
    while True:
        own = _SIGNS.get(toks[i])
        if own:
            sign *= own
            i += 1
        exps, coeff, i = _read_term(field, names, toks, i)
        if sign < 0:
            coeff = -coeff
        if exps in terms:
            coeff = terms[exps] + coeff
        terms[exps] = coeff
        sign = _SIGNS.get(toks[i])
        if not sign:
            return terms, i
        i += 1


def _read_term(field, names, toks, i):
    """(exponent tuple, coefficient, index of the first token after them)
    of the ``*``-separated factors at toks[i]."""
    exps = [0] * len(names)
    coeff = None
    while True:
        tok = toks[i]
        i += 1
        if tok == "(":
            inner, i = _read_sum(field, (), toks, i)
            if toks[i] != ")":
                raise _unexpected(toks[i])
            i += 1
            c = inner[()]
        elif tok in names or tok == "z":
            k = 1
            if toks[i][:1] == "^":
                if toks[i] == "^":
                    raise ValueError(f"bad exponent on {tok}: {toks[i + 1]!r}")
                k = int(toks[i][1:])
                i += 1
            if tok in names:
                if k < 0:
                    raise ValueError(f"negative exponent on a variable: {tok}^{k}")
                exps[names.index(tok)] += k
                c = None
            else:
                c = field.zeta_power(k)
        elif "0" <= tok[:1] <= "9":  # a digit outside 0-9 is a lone character
            c = field.scalar(int(tok) if tok.isdigit() else Fraction(tok))
        else:
            raise _unexpected(tok)
        if c is not None:
            coeff = c if coeff is None else coeff * c
        if toks[i] != "*":
            return tuple(exps), field.one if coeff is None else coeff, i
        i += 1
