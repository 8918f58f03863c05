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
z-powers.  The table's powers and monomials stay integer terms; only
nonzero final coefficients become Scalars, and the product Poly takes them
as they are (``Poly._trusted``, with no second zero filter).  Evaluation
at a point reads one table per point: ``_point_substituter`` memoizes the
last (ring, point) evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add

from .cyclotomic import Scalar, _lowest, _power, read_terms, tokenize


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
    """The (exponent, ints, den) of each coefficient of the sum over the
    ``_terms`` (e, ints, den) of ints/den times each term of ``images(e)``,
    a ``_terms`` list whose exponents are those of the result: the one
    integer loop behind every product.

    Each coefficient is summed as one unreduced integer vector over the lcm
    of its terms' denominators; the finisher reduces it by Phi_N and brings
    it to lowest terms once.  Result exponents keep the order in which they
    first occur; a coefficient that sums to zero comes out as zero."""
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
    return ((e2, *_lowest(field.reduce_integers(ints), den)) for e2, (den, ints) in acc.items())


def _shifted(terms):
    """``images`` for a product by ``terms``: e -> terms shifted by e."""
    return lambda e: [(tuple(map(add, e, e2)), v, d) for e2, v, d in terms] if any(e) else terms


def _times(field, a, b):
    """a * b for ``_terms`` lists, as a ``_terms`` list: no Scalar built."""
    return [(e, [(k, x) for k, x in enumerate(ints) if x], den)
            for e, ints, den in _sum_of_products(field, a, _shifted(b)) if any(ints)]


def _poly(ring, terms, images):
    """The Poly of ``_sum_of_products``: only nonzero final coefficients
    become Scalars, handed to ``Poly._trusted`` with no second zero filter."""
    field = ring.field
    return Poly._trusted(ring, {e: Scalar(field, ints, den) for e, ints, den
                                in _sum_of_products(field, terms, images) if any(ints)})


def _monomial_table(values, one):
    """The map e -> the ``_terms`` of prod values[v] ** e[v], for Poly values:
    each power and monomial computed once, on first use, by ``_times``.  An
    entry depends on its key alone, so threads sharing it fill one twice at worst."""
    field = one.ring.field
    powers = {(v, 1): _terms(x) for v, x in enumerate(values)}  # (v, k) -> values[v] ** k
    table = {(0,) * len(values): _terms(one)}

    def monomial(e):
        terms = table.get(e)
        if terms is None:
            for v, k in enumerate(e):
                for j in range(2, k + 1):
                    if (v, j) not in powers:
                        powers[v, j] = _times(field, powers[v, j - 1], powers[v, 1])
                if k:
                    terms = powers[v, k] if terms is None else _times(field, terms, powers[v, k])
            table[e] = terms
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
    return lambda poly: _poly(target, _terms(poly), monomial)


@lru_cache(maxsize=1)
def _point_substituter(ring, point):
    """The substituter of a tuple of Scalars into the point base, kept for
    the last (ring, point): its images and tables, no Poly it was applied to."""
    base = PolyRing(ring.field, [], [])
    return substituter(ring, [base.constant(p) for p in point], base)


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

    @classmethod
    def _trusted(cls, ring, terms):
        """The Poly of ``terms``, a dict whose coefficients are all nonzero,
        kept as it is: the one bypass of ``__init__``'s zero filter, for
        callers that build each coefficient only where it is nonzero."""
        poly = object.__new__(cls)
        poly.ring = ring
        poly.terms = terms
        return poly

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
        return _poly(self.ring, _terms(self), _shifted(_terms(other)))

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
        constants, into the zero-variable ring (``_point_substituter``)."""
        point = tuple(map(self.ring.field.scalar, point))
        return _point_substituter(self.ring, point)(self).constant_value()

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
