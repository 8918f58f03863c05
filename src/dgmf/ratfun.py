"""Univariate exact machinery: polynomials and rational functions over
Q(zeta_N), Laurent expansions and residues (including at infinity), and
homology of matrices over the principal ideal domain k[t].

Residues are read off from exact Laurent expansions, never from the residue
theorem itself (which is what the tests check); they serve the residue
theorem check of the log forms on P^1 (``LogFormModel.total_residue``).  The
log-form model reads its residue map from principal parts
(``spincurve._principal_parts``), not from here.

Homology over k[t] diagonalizes by Euclidean steps on integers.  An entry is
(vectors, den): vectors[i] (length phi(N), low to high in t, the top one
nonzero) over den is the t^i coefficient, in lowest terms; None is zero.  It
is the (``ints``, ``den``) pairs of a UPoly's Scalars over the lcm of their
``den``, so no Fraction is built on the way in or out.  Each
pivot's leading coefficient is inverted once, on integers, by the Galois
norm (``cyclotomic._inverse_integers``); quotients come from
pseudo-division, and each update x - q * y is one convolution in t and z,
reduced by the field's table of z-powers once.  A pivot of degree 0 is a
unit of k[t]: its quotients are one scaling by that inverse, and its step is
one row pass with no column pass (``_diagonal`` says why that is exact).
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb, gcd, lcm

from .cyclotomic import _inverse_integers, _power, _product


class UPoly:
    """Univariate polynomial over a cyclotomic field; coeffs low-to-high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, field, value):
        return cls(field, [field.scalar(value)])

    @classmethod
    def gen(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def from_poly(cls, p):
        """The same polynomial, from a one-variable ``poly.Poly``."""
        field = p.ring.field
        coeffs = [field.zero] * (max((e for (e,) in p.terms), default=-1) + 1)
        for (e,), c in p.terms.items():
            coeffs[e] = c
        return cls(field, coeffs)

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UPoly) and other.coeffs == self.coeffs and other.field == self.field

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def _coerce(self, other):
        if isinstance(other, UPoly):
            return other
        return UPoly.constant(self.field, other)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return UPoly(self.field, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return UPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if not self or not other:
            return UPoly(self.field, [])
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return UPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, UPoly.constant(self.field, 1))

    def divmod(self, other):
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        lead_inverse = other.coeffs[-1].inverse()
        rem = list(self.coeffs)
        q = [self.field.zero] * max(len(rem) - len(other.coeffs) + 1, 0)
        for i in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[i + len(other.coeffs) - 1] * lead_inverse
            q[i] = c
            if c:
                for j, dj in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * dj
        return UPoly(self.field, q), UPoly(self.field, rem)

    def monic(self):
        if not self:
            return self
        inv = self.coeffs[-1].inverse()
        return UPoly(self.field, [c * inv for c in self.coeffs])

    def gcd(self, other):
        a, b = self, self._coerce(other)
        while b:
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def evaluate(self, point):
        total = self.field.zero
        for c in reversed(self.coeffs):
            total = total * point + c
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
                cs = str(c)
                cs = f"({cs})" if " " in cs else cs
                parts.append(cs if not mono else (mono if c == 1 else f"{cs}*{mono}"))
        return " + ".join(parts)

    __repr__ = __str__


def _taylor(field, q, degree, orders):
    """The binomial Taylor shift at q: rows i < ``orders``, columns k <=
    ``degree``, entry C(k, i) q^(k - i), the t^i coefficient of (t + q)^k.
    Column k is the jet of t^k at q, and the matrix takes the coefficients
    of f to those of f(t + q).  One table of q-powers serves every entry."""
    powers = [field.one]
    for _ in range(degree):
        powers.append(powers[-1] * q)
    return [[comb(k, i) * powers[k - i] if k >= i else field.zero
             for k in range(degree + 1)] for i in range(orders)]


def _with_roots(field, roots):
    """prod (t - q)^m over the (q, m) of ``roots``: a monic UPoly."""
    coeffs = [field.one]
    for q, m in roots:
        for _ in range(m):  # (t - q) c: new c_k = c_(k-1) - q c_k
            coeffs = [a - q * b for a, b in zip([field.zero] + coeffs, coeffs + [field.zero])]
    return UPoly(field, coeffs)


def _series_inverse(field, coeffs, length):
    """Inverse of a power series with nonzero constant term, to ``length`` terms."""
    inv0 = coeffs[0].inverse()
    out = [inv0]
    for n in range(1, length):
        acc = field.zero
        for k in range(1, min(n, len(coeffs) - 1) + 1):
            acc = acc + coeffs[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


class RationalFunction:
    """num/den over Q(zeta_N) in lowest terms, den monic; exact Laurent
    expansions and residues at any point."""

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den) if num else den.monic()
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.coeffs[-1].inverse()
        self.num = UPoly(num.field, [c * lead for c in num.coeffs])
        self.den = den.monic()
        self.field = num.field

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def evaluate(self, point):
        d = self.den.evaluate(point)
        if not d:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.evaluate(point) * d.inverse()

    def laurent_coefficient(self, point, k):
        """Coefficient of (t - point)^k in the Laurent expansion at ``point``."""
        return self.laurent_coefficients(point, [k])[0]

    def laurent_coefficients(self, point, ks):
        """The coefficient of (t - point)^k for each k of ``ks``, from one
        Taylor shift (``_taylor``) of the numerator and the denominator."""
        zero = self.field.zero
        if not self.num or not ks:
            return [zero for _ in ks]
        degree = max(self.num.degree(), self.den.degree())
        shift = _taylor(self.field, point, degree, degree + 1)
        num, den = ([sum((row[k] * c for k, c in enumerate(p.coeffs) if c), zero)
                     for row in shift] for p in (self.num, self.den))
        vn, vd = (next(i for i, c in enumerate(v) if c) for v in (num, den))
        # f = (t^vn * nu) / (t^vd * de) with nu(0), de(0) != 0
        nu, de = num[vn:], den[vd:]
        idxs = [k - (vn - vd) for k in ks]
        inv = _series_inverse(self.field, de, max(idxs) + 1) if max(idxs) >= 0 else []
        out = []
        for idx in idxs:
            total = self.field.zero
            for i in range(min(idx + 1, len(nu))):
                total = total + nu[i] * inv[idx - i]
            out.append(total)
        return out

    def residue(self, point):
        """Residue at a finite point of the 1-form ``self * dt``."""
        return self.laurent_coefficient(point, -1)

    def residue_at_infinity(self):
        """Residue at infinity of ``self * dt``, from one division: den is
        monic of degree d, so f = P + r/den with r = num mod den, whose 1/t
        term at infinity is r_(d-1)/t, and the residue is -r_(d-1)."""
        d = self.den.degree()
        r = self.num.divmod(self.den)[1].coeffs
        return -r[-1] if len(r) == d > 0 else self.field.zero

    def __str__(self):
        return f"({self.num})/({self.den})"

    __repr__ = __str__


# -- homology of matrices over k[t] --------------------------------------


def _entry(p):
    """The entry of a nonzero UPoly."""
    den = lcm(*[c.den for c in p.coeffs])
    return [[x * (den // c.den) for x in c.ints] for c in p.coeffs], den


def _normal(vectors, den):
    """The entry sum(vectors[i] t^i) / den: trimmed, in lowest terms."""
    while vectors and not any(vectors[-1]):
        vectors.pop()
    if not vectors:
        return None
    g = gcd(den, *[x for v in vectors for x in v])
    return (vectors, den) if g == 1 else ([[x // g for x in v] for v in vectors], den // g)


def _scaled(field, x, c):
    """The entry x times the scalar c = (ints, den)."""
    return _normal([_product(field, v, 1, c[0], 1)[0] for v in x[0]], x[1] * c[1])


def _sub_product(field, x, q, y):
    """x - q * y for entries q, y and an entry or None x: one convolution in t
    and z into unreduced integer vectors, each reduced by Phi_N once."""
    (qv, dq), (yv, dy) = q, y
    acc = [[0] * (2 * field.degree - 1) for _ in range(len(qv) + len(yv) - 1)]
    ys = [[(j, w) for j, w in enumerate(v) if w] for v in yv]
    for a, v in enumerate(qv):
        for i, c in enumerate(v):
            if c:
                for b, nonzero in enumerate(ys):
                    out = acc[a + b]
                    for j, w in nonzero:
                        out[i + j] += c * w
    prod, den = [field.reduce_integers(v) for v in acc], dq * dy
    xv, dx = x or ([], 1)
    g = gcd(dx, den)
    fx, fp = den // g, dx // g
    return _normal([[a * fx - b * fp for a, b in zip(u, v)] for u, v in
                    zip_longest(xv, prod, fillvalue=[0] * field.degree)], dx * fx)


def _quotient(field, x, monic, inverse):
    """The quotient of x by a pivot p with deg x >= deg p, where monic is p
    times ``inverse`` (the inverse of p's leading coefficient), in lowest
    terms, so its top vector is (lam, 0, ..., 0).  Pseudo-division by that
    integer top keeps every step on integers."""
    (xv, dx), (mv, lam) = x, monic
    deg = len(mv) - 1
    # after s steps, lam^s * dx * x = q * mv + t^deg * r + (terms below t^deg)
    r, q = [list(v) for v in xv[deg:]], []  # r[k]: the coefficient of t^(deg + k)
    for i in range(len(r) - 1, -1, -1):
        c = r.pop()
        q = [[v * lam for v in w] for w in q] + [c]  # top first
        r = [[v * lam for v in w] for w in r]
        for j in range(max(deg - i, 0), deg):
            r[i + j - deg] = [a - b for a, b in
                              zip(r[i + j - deg], _product(field, c, 1, mv[j], 1)[0])]
    return _scaled(field, (q[::-1], dx * lam ** (len(q) - 1)), inverse)


def _diagonal(matrix):
    """Nonzero entries of a diagonal form of ``matrix`` over k[t], reached by
    Euclidean row and column operations on integer entries.

    A unit pivot p (degree 0) at (k, k) ends its step after one row pass:
    each row below with x != 0 in column k takes q = x * p^-1 and is updated
    in the columns right of k, and its column-k cell is x - q * p = 0 with
    no product.  Row k is then the only row with a nonzero in column k, so
    the column pass would subtract multiples of column k from the later
    columns in row k alone; no later step reads row k, so it is skipped.
    The pivots and the diagonal are those of the full Euclidean steps."""
    # Unimodular operations keep the determinantal divisors, and the only
    # nonzero r x r minor of a diagonal matrix with r nonzero entries is their
    # product, so no Smith divisibility chain (and no U, V) is needed.
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    field = matrix[0][0].field if rows and cols else None
    a = [[_entry(p) if p else None for p in row] for row in matrix]
    diagonal = []
    for k in range(min(rows, cols)):
        while entries := [(len(a[i][j][0]), i, j) for i in range(k, rows)
                          for j in range(k, cols) if a[i][j]]:
            _, pi, pj = min(entries)  # least degree pivot, moved to (k, k)
            a[k], a[pi] = a[pi], a[k]
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            pivot = a[k][k]
            inverse = _inverse_integers(field, pivot[0][-1], pivot[1])  # once per pivot
            if len(pivot[0]) == 1:  # a unit: x - (x / pivot) * pivot is 0
                for row in a[k + 1:]:
                    if row[k]:
                        q = _scaled(field, row[k], inverse)
                        row[k:] = [None] + [_sub_product(field, x, q, y) if y else x
                                            for x, y in zip(row[k + 1:], a[k][k + 1:])]
                diagonal.append(pivot)
                break
            monic = _scaled(field, pivot, inverse)
            for row in a[k + 1:]:
                if row[k]:
                    q = _quotient(field, row[k], monic, inverse)
                    row[k:] = [_sub_product(field, x, q, y) if y else x
                               for x, y in zip(row[k:], a[k][k:])]
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = _quotient(field, a[k][j], monic, inverse)
                    for row in a[k:]:
                        if row[k]:
                            row[j] = _sub_product(field, row[j], q, row[k])
            if not any(row[k] for row in a[k + 1:]) and not any(a[k][k + 1:]):
                diagonal.append(pivot)
                break
        else:
            break  # the rest of the matrix is zero
    return [UPoly(field, [field._reduce(v, den) for v in vectors])
            for vectors, den in diagonal]


def _columns(matrix, name):
    """The common row length of ``matrix``, None when it has no rows; a
    ValueError naming it when its rows differ in length."""
    if not matrix:
        return None
    cols = len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise ValueError(f"{name} has wrong shape: rows of different lengths")
    return cols


def poly_mat_rank(matrix):
    """Rank over the fraction field k(t)."""
    _columns(matrix, "matrix")
    return len(_diagonal(matrix))


def two_periodic_homology_dims(delta0, delta1):
    """k-dimensions (dim H^0, dim H^1) of the 2-periodic complex of free
    k[t]-modules P0 --delta0--> P1 --delta1--> P0, assuming delta composites
    vanish.  Returns None for a homology that is not finite-dimensional.

    Brings each differential to a diagonal form over k[t]: when the ranks
    are complementary, the homology is the torsion of a cokernel, whose
    length is the sum of the degrees of the nonzero diagonal entries.
    delta0 is rank P1 x rank P0 and delta1 is rank P0 x rank P1; any other
    shape is a ValueError naming the matrix.  A matrix with no rows carries
    no column count, so the ranks come from delta0's shape where it has one.
    """
    cols0, cols1 = _columns(delta0, "delta0"), _columns(delta1, "delta1")
    n1 = len(delta0)
    n0 = len(delta1) if cols0 is None else cols0
    if len(delta1) != n0 or cols1 not in (None, n1):
        raise ValueError(f"delta1 has wrong shape: expected {n0} x {n1}")
    diag0, diag1 = _diagonal(delta0), _diagonal(delta1)
    r0, r1 = len(diag0), len(diag1)
    h0 = sum(d.degree() for d in diag1) if r0 + r1 == n0 else None
    h1 = sum(d.degree() for d in diag0) if r0 + r1 == n1 else None
    return (h0, h1)
