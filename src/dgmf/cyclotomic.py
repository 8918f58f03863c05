"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are represented by their unique reduced form: a rational-coefficient
polynomial in z = zeta_N of degree < phi(N), reduced modulo the N-th
cyclotomic polynomial.  All arithmetic is exact; nothing is ever rounded.

A ``Scalar`` stores that form as an integer vector ``ints`` of length phi(N)
over one positive denominator ``den``, in lowest terms (``_lowest``), with
zero as (0, ..., 0)/1; ``coeffs`` views it as ``fractions.Fraction``
coefficients, for printing.  Each field builds one integer table of z^m mod
Phi_N; ``_product`` convolves two integer vectors and reduces once by its
rows, and a rational factor (zero included) just scales the other one.
``_inverse_integers`` is the Galois norm: the product of the other
conjugates over the rational norm.  ``cyclotomic_polynomial`` is the Moebius
product of the x^e - 1.  ``linalg``, ``poly`` and ``ratfun`` run these
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
    a = sum(ints[k] * z^k) / den.

    The Galois norm.  The automorphisms sigma_j: z -> z^j, j in (Z/N)^x, fix
    Q exactly, so the product n of all conjugates sigma_j(A) of the integral
    A = den * a is a nonzero rational integer, and a^-1 = den * P / n with
    P = prod_{j != 1} sigma_j(A).  In Z[z]/(z^N - 1), sigma_j only moves the
    coefficient of z^k to z^(jk mod N), so P is a chain of integer cyclic
    convolutions, reduced by Phi_N once; n is the constant of A * P."""
    if not any(ints[1:]):
        p, norm = [1] + [0] * (len(ints) - 1), ints[0]
    else:
        order = field.order
        terms = [(k, c) for k, c in enumerate(ints) if c]
        conj = [1] + [0] * (order - 1)
        for j in range(2, order):
            if gcd(j, order) == 1:
                moved = [(j * k % order, c) for k, c in terms]
                out = [0] * (2 * order - 1)
                for i, c in enumerate(conj):
                    if c:
                        for k, b in moved:
                            out[i + k] += c * b
                conj = [x + y for x, y in zip(out, out[order:] + [0])]  # z^N = 1
        p = field.reduce_integers(conj)
        norm = _product(field, ints, 1, p, 1)[0][0]  # the other coefficients are 0
    x = [den * v for v in p]
    g = gcd(norm, *x) if norm > 0 else -gcd(norm, *x)
    return [v // g for v in x], norm // g


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, low-to-high, as Fractions.

    Moebius inversion of x^n - 1 = prod_{d | n} Phi_d gives
    Phi_n = prod_{d | n} (x^(n/d) - 1)^mu(d), over the squarefree d.  Each
    factor is one in-place pass on integer coefficients.  Every product
    comes before any quotient, so the list always holds Phi_n times the
    factors still to divide out, and each quotient is exact:
    a = q (x^e - 1) reads q_i = q_(i-e) - a_i from the bottom up."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    factors, m, p = [(n, 1)], n, 2  # (n/d, mu(d)) for the squarefree d | n
    while m > 1:
        if m % p == 0:
            factors += [(e // p, -mu) for e, mu in factors]
            while m % p == 0:
                m //= p
        p += 1
    poly = [1]
    for e, mu in sorted(factors, key=lambda f: -f[1]):
        if mu > 0:  # times x^e - 1, from the top down
            poly += [0] * e
            for i in range(len(poly) - 1, -1, -1):
                poly[i] = (poly[i - e] if i >= e else 0) - poly[i]
        else:  # over x^e - 1, from the bottom up
            for i in range(len(poly) - e):
                poly[i] = (poly[i - e] if i >= e else 0) - poly[i]
            del poly[-e:]
    return tuple(map(Fraction, poly))


class CyclotomicField:
    """Q(zeta_N) with a fixed cyclotomic order N for the whole session."""

    def __init__(self, order=1):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = d = len(self.modulus) - 1  # = phi(order)
        # z^m mod Phi_N for m < max(N, 2*degree) as nonzero (index,
        # coefficient) pairs: z^m = z * z^(m-1), and z^degree is minus the
        # lower terms of the monic, integer Phi_N.  ``_reduction`` holds
        # z^degree, ..., z^(2*degree-2) (z^1 when degree is 1)
        zd = [-int(c) for c in self.modulus[:-1]]
        row = [1] + [0] * (d - 1)
        self._powers = []
        for _ in range(max(order, 2 * d)):
            self._powers.append([(i, c) for i, c in enumerate(row) if c])
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [x + top * y for x, y in zip(row, zd)]
        self._reduction = self._powers[d:d + max(1, d - 1)]

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
        return self.zeta_power(1)

    def zeta_power(self, k):
        """zeta^k for any integer k: row k mod N of the table."""
        return Scalar(self, self.reduce_integers([0] * (k % self.order) + [1]), 1)

    def reduce_integers(self, ints):
        """The integer vector of length degree equal to sum(ints[k] * z^k) mod
        Phi_N, for any integer list: z^k is row k mod N of the table."""
        d, n, powers = self.degree, self.order, self._powers
        out = ints[:d] + [0] * (d - len(ints))
        for k in range(d, len(ints)):
            c = ints[k]
            if c:
                for i, t in powers[k % n]:
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
        """Multiplicative inverse, by the Galois norm (``_inverse_integers``)."""
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
