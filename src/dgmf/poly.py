"""Multivariate polynomials over Q(zeta_N) with R-charge weights.

A PolyRing fixes the variable names and their (positive integer) weights; a
Poly is a finitely supported map from exponent tuples to nonzero Scalars.
The weight of a monomial is the weighted degree sum; quasihomogeneity checks
and weight-graded enumeration live here because every module above relies on
them.  Products have one integer loop, ``_sum_of_products``: substitution
(``substituter``, also behind ``Poly.evaluate`` and the restrictions of an
MF), ``Poly.__mul__`` (so ``**`` too) and the substituter's table of powers
all sum each coefficient as one unreduced integer vector over one
denominator and reduce it by Phi_N once, through the field's table of
z-powers.  No Scalar is built until a coefficient is final.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .cyclotomic import Scalar, _power, read_terms, tokenize


class PolyRing:
    """Polynomial ring over a cyclotomic field, with named weighted variables."""

    def __init__(self, field, names, weights=None):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if weights is None:
            weights = [1] * len(names)
        weights = [int(w) for w in weights]
        if any(w <= 0 for w in weights):
            raise ValueError("R-charge weights must be positive integers")
        if len(weights) != len(names):
            raise ValueError("one weight per variable")
        self.field = field
        self.names = tuple(names)
        self.weights = tuple(weights)
        self.nvars = len(names)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.names == self.names and other.weights == self.weights)

    def __hash__(self):
        return hash((self.field, self.names, self.weights))

    def __repr__(self):
        vs = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"PolyRing(N={self.field.order}; {vs})"

    @property
    def zero(self):
        return Poly(self, {})

    @property
    def one(self):
        return self.constant(1)

    def constant(self, value):
        c = self.field.scalar(value)
        if not c:
            return self.zero
        return Poly(self, {(0,) * self.nvars: c})

    def gen(self, name):
        i = self.names.index(name)
        exps = [0] * self.nvars
        exps[i] = 1
        return Poly(self, {tuple(exps): self.field.one})

    def gens(self):
        return [self.gen(n) for n in self.names]

    def monomial_weight(self, exps):
        return sum(e * w for e, w in zip(exps, self.weights))

    def monomials_of_weight(self, target):
        """All exponent tuples of exact weighted degree ``target``, in
        lexicographic order."""
        return exponents_of_weight(self.weights, target)

    def parse(self, text):
        """Reads the textual polynomial format ``coeff*x^e*y^f + ...``, the
        inverse of ``str(poly)``, by the one literal grammar of
        ``cyclotomic.read_terms``: coefficients may be numerals, powers of
        ``z`` or parenthesised scalars, e.g. ``(1 + z)*x^2 + -1/2*y``, and
        a variable's exponent must be a nonnegative integer.  Anything else,
        empty text included, is a ValueError."""
        return Poly(self, read_terms(self.field, self.names, tokenize(text)))


def exponents_of_weight(weights, target):
    """All exponent tuples e with sum(e[i] * weights[i]) == target, in
    lexicographic order; finite since every weight is positive, and empty
    when ``target`` is negative."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(weights):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for e in range(remaining // weights[i] + 1):
            rec(i + 1, remaining - e * weights[i], prefix + [e])

    rec(0, target, [])
    return out


def _terms(poly):
    """The terms of a Poly as (exponent, nonzero (k, integer), denominator):
    the coefficient is sum(integer * zeta^k) / denominator."""
    return [(e, [(k, x) for k, x in enumerate(c.ints) if x], c.den)
            for e, c in poly.terms.items()]


def _sum_of_products(field, terms, images):
    """The {exponent: Scalar} of sum over the ``_terms`` (e, ints, den) of
    ints/den times each term of ``images(e)``, a ``_terms`` list whose
    exponents are those of the result.  The integer loop behind
    ``substituter``, ``Poly.__mul__`` and the power table.

    Each result coefficient is summed as one unreduced integer vector over
    the lcm of its terms' denominators, then reduced by Phi_N and brought to
    lowest terms once.  Result exponents keep the order in which they first
    occur; those that sum to zero are dropped (by ``Poly``)."""
    width = 2 * field.degree - 1
    acc = {}  # exponent -> [denominator, unreduced integer vector]
    for e, va, da in terms:
        for e2, vb, db in images(e):
            d = da * db
            slot = acc.get(e2)
            if slot is None:
                slot = acc[e2] = [d, [0] * width]
            den, ints = slot
            if d != den:  # rescale the slot to the lcm of the denominators
                common = lcm(den, d)
                if common != den:
                    f = common // den
                    slot[:] = den, ints = common, [x * f for x in ints]
            scale = den // d
            for ka, xa in va:
                xa *= scale
                for kb, xb in vb:
                    ints[ka + kb] += xa * xb
    return {e2: field._reduce(ints, den) for e2, (den, ints) in acc.items()}


def _times(a, b):
    """a * b for Polys of one ring, on ``_sum_of_products``: each term of a
    shifts the exponents of b's terms by its own."""
    tb = _terms(b)

    def shifted(e):
        if not any(e):
            return tb
        return [(tuple(map(add, e, e2)), vb, db) for e2, vb, db in tb]

    return Poly(a.ring, _sum_of_products(a.ring.field, _terms(a), shifted))


def _monomial_table(values, one):
    """The map e -> the ``_terms`` of prod values[v] ** e[v], for
    Poly values.  Each power of each value and each monomial's terms are
    computed once, on first use, and kept; every product is ``_times``."""
    powers = [[one, v] for v in values]  # powers[v][k] = values[v] ** k
    table = {}

    def monomial(e):
        terms = table.get(e)
        if terms is None:
            m = one
            for v, pw, k in zip(values, powers, e):
                if k:
                    while len(pw) <= k:
                        pw.append(_times(pw[-1], v))
                    m = pw[k] if m is one else _times(m, pw[k])
            terms = table[e] = _terms(m)
        return terms

    return monomial


def substituter(ring, images, target):
    """The map Poly -> Poly (over ``target``) that substitutes ``images[v]``
    for the v-th variable of ``ring``.  Each monomial image is computed
    once, from one table of powers per image, and shared by every Poly the
    map is applied to.  Each coefficient of the result is summed by
    ``_sum_of_products``, so result terms keep the order in which their
    exponents first occur, and those that sum to zero are dropped."""
    images = list(images)
    if len(images) != ring.nvars:
        raise ValueError("one image per variable")
    if target.field != ring.field or any(img.ring != target for img in images):
        raise ValueError("images must lie in the target ring over the same field")
    monomial = _monomial_table(images, target.one)

    def substitute(poly):
        return Poly(target, _sum_of_products(target.field, _terms(poly), monomial))

    return substitute


def _linear_forms(matrix, ring):
    """sum_j matrix[i][j] * (j-th generator of ring), one form per row."""
    units = [tuple(int(i == j) for i in range(ring.nvars))
             for j in range(ring.nvars)]
    return [Poly(ring, {units[j]: c for j, c in enumerate(row) if c})
            for row in matrix]


class Poly:
    """Immutable multivariate polynomial; no zero coefficients are stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- basics -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction, Scalar)):
            return self == self.ring.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, self.ring.field.zero) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _times(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, self.ring.one)

    # -- structure --------------------------------------------------------

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        zero_exp = (0,) * self.ring.nvars
        return self.terms.get(zero_exp, self.ring.field.zero)

    def weight(self):
        """Weighted degree if quasihomogeneous.

        Returns ("zero", None) for 0, (d, None) when homogeneous of weight d,
        and ("inhomogeneous", offending) otherwise, where ``offending`` lists
        exponent tuples whose weight differs from the first term's.
        """
        if not self.terms:
            return ("zero", None)
        weights = {e: self.ring.monomial_weight(e) for e in self.terms}
        first = min(weights.values())
        offending = sorted(e for e, w in weights.items() if w != first)
        if offending:
            return ("inhomogeneous", offending)
        return (first, None)

    def is_quasihomogeneous_of(self, d):
        w, _ = self.weight()
        return w == "zero" or w == d

    def derivative(self, var):
        i = self.ring.names.index(var) if isinstance(var, str) else var
        terms = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = list(e)
                e2[i] -= 1
                terms[tuple(e2)] = c * e[i]
        return Poly(self.ring, terms)

    def evaluate(self, point):
        """Evaluate at a tuple of Scalars (or ints/Fractions): substitute
        constants, into the zero-variable ring."""
        base = PolyRing(self.ring.field, [], [])
        images = [base.constant(base.field.scalar(p)) for p in point]
        return substituter(self.ring, images, base)(self).constant_value()

    def substitute(self, images):
        """Substitute each variable by the given Poly (all in one ring)."""
        target = images[0].ring if images else self.ring
        return substituter(self.ring, images, target)(self)

    # -- printing ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            factors = []
            for name, exp in zip(self.ring.names, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            cs = str(c)
            needs_parens = (" " in cs) or ("z" in cs and factors)
            if not factors:
                parts.append(f"({cs})" if " " in cs else cs)
            elif c == self.ring.field.one:
                parts.append("*".join(factors))
            else:
                cs = f"({cs})" if needs_parens else cs
                parts.append("*".join([cs] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self})"
