"""Exact linear algebra over Q(zeta_N), and the one check of polynomial
matrix identities.

Matrices are plain lists of lists of Scalar.  Every elimination (``rref``,
``rank``, ``nullspace``, ``solve``, ``invert``) runs ``_eliminate``, a
Gauss-Jordan elimination on the (``ints``, ``den``) pair each Scalar stores,
kept in lowest terms, with None for zero.  Products run through
``cyclotomic._product``.  It scales the pivot row by the pivot's integer
inverse (``cyclotomic._inverse_integers``, the Galois norm), lists that
row's nonzero columns once, and updates each other row with a nonzero in
the pivot column on those columns only.  Entries become Scalars only where
a result needs them: all of R in ``rref``, the returned columns in
``nullspace``, ``solve`` and ``invert``, and nothing in ``rank``.  The
reduced row echelon form is unique, so every result equals that of Scalar
Gauss-Jordan elimination (kept as the reference in the tests).

``mat_mul`` multiplies Scalar matrices.  ``first_mismatch`` is the sparse
certificate kernel: it decides whether a sum of products of Poly matrices
equals a target, exactly, without building any product, and every identity
on Poly matrices (delta^2 = W . id, d o d = 0, commuting squares, gauge
intertwiners, contracting homotopies) is checked by it.  It packs each
coefficient into one integer (zeta -> 2^B) and settles each cell by one
divisibility test by Phi_N(2^B); its docstring proves the test exact.
``zeros`` and ``identity`` only touch ``.zero`` and ``.one`` of their base,
each read once per matrix, so they build Poly matrices too: pass the
PolyRing where a field is asked for.  Every zero cell is one object, and
so is every diagonal cell of ``identity``.
``entrywise`` maps matrices once per distinct entry object, through one
dict per call, so cells that share an entry share its image; it coerces
the differentials of every ``MatrixFactorization``.  ``per_object`` is that
memo as a function, for callers that map cells one at a time (the signs
of a tensor product's differential, the ``.mf`` writer's entry texts).
``blocks`` writes block matrices (cones, direct sums, resolutions) and
``kron`` the Kronecker products a (x) I_n and I_n (x) b (the maps
h -> a . h and h -> h . b^T on row-major h), placing entries as they are.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from operator import attrgetter, lshift

from .cyclotomic import Scalar, _inverse_integers, _lowest, _product, _sum


def zeros(field, rows, cols):
    z = field.zero
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(field, n):
    """I_n, with one shared ``field.one`` object on its diagonal."""
    m = zeros(field, n, n)
    one = field.one
    for i in range(n):
        m[i][i] = one
    return m


def mat_mul(a, b, field):
    """a . b.  A 0-row ``b`` cannot carry its column count, so the product
    then has 0 columns."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix size mismatch")
    zero = field.zero
    cols = len(b[0]) if b else 0
    out = []
    for ai in a:
        oi = [zero] * cols
        for c, bk in zip(ai, b):
            if c:
                for j, e in enumerate(bk):
                    if e:
                        oi[j] = oi[j] + c * e
        out.append(oi)
    return out


def mat_neg(a):
    return [[-x for x in row] for row in a]


def per_object(f):
    """f, computed once per distinct argument object and returned again for
    that object.  Keyed by id; each argument is kept alive with its image,
    so an id is never reused for another argument."""
    images = {}

    def image(c):
        y = images.get(id(c))
        if y is None:
            y = images[id(c)] = (c, f(c))
        return y[1]

    return image


def entrywise(f, *matrices):
    """The matrices [[f(c) for c in row] for row in m], one for each m, with
    f applied once per distinct entry object: cells that share an object
    (one zero, one signed copy of a fold entry) share its image.  One dict
    per call, keyed by id, with no call per cell.  Each distinct entry is
    kept alive until the call returns, so no id is reused, also when the
    rows are generated.  An image that is None is not memoized."""
    images, entries = {}, []
    get = images.get
    out = []
    for m in matrices:
        rows = []
        for row in m:
            cells = []
            for c in row:
                y = get(id(c))
                if y is None:
                    y = images[id(c)] = f(c)
                    entries.append(c)
                cells.append(y)
            rows.append(cells)
        out.append(rows)
    return out


def blocks(grid):
    """The block matrix of ``grid``, a list of block rows: each block row's
    blocks side by side, every entry as it is.  The blocks of a block row
    have one row count (a ValueError if not)."""
    return [[c for part in parts for c in part]
            for block_row in grid for parts in zip(*block_row, strict=True)]


def kron(a, b, zero):
    """a (x) b with one factor an int n for I_n, indexed row-major: each
    entry of the matrix factor is placed as it is (no product is taken), and
    every other cell holds ``zero``.  A factor gives its shape by its rows,
    so build a transposed factor with its shape: ``transpose`` of a 0-row
    matrix has lost its column count."""
    if isinstance(a, int):
        cols = len(b[0]) if b else 0
        return [[zero] * (i * cols) + list(row) + [zero] * ((a - 1 - i) * cols)
                for i in range(a) for row in b]
    return [[row[k // b] if k % b == j else zero for k in range(len(row) * b)]
            for row in a for j in range(b)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _eliminate(matrix, field, col_order=None):
    """Gauss-Jordan elimination of a Scalar matrix on integer entries.

    Returns (R, pivots) as ``rref`` does, but each entry of R is an
    (``ints``, ``den``) pair as a Scalar stores it, and None is zero.  The
    pivot row is scaled by the pivot's integer inverse; each other row
    with a nonzero in the pivot column is updated on the pivot row's nonzero
    columns only."""
    m = [[(x.ints, x.den) if x else None for x in row] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    if col_order is None:
        col_order = range(cols)
    pivots = []
    r = 0
    for j in col_order:
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][j] is not None), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv, dinv = _inverse_integers(field, *m[r][j])
        prow = m[r] = [None if x is None else _lowest(*_product(field, inv, dinv, *x))
                       for x in m[r]]
        nonzero = [(k, x) for k, x in enumerate(prow) if x is not None and k != j]
        for i in range(rows):
            row = m[i]
            c = row[j]
            if i != r and c is not None:
                row[j] = None
                ci, dc = c
                for k, (pk, dp) in nonzero:
                    q, dq = _product(field, ci, dc, pk, dp)
                    x = row[k]
                    if x is None:
                        row[k] = _lowest([-v for v in q], dq)
                        continue
                    x = _sum(*x, q, dq, -1)
                    row[k] = x if any(x[0]) else None
        pivots.append((r, j))
        r += 1
    return m, pivots


def _entry(x, field):
    """The Scalar of an entry of ``_eliminate``."""
    return field.zero if x is None else Scalar(field, *x)


def rref(matrix, field, col_order=None):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is a list of (row, col).  ``col_order``
    selects the order in which pivot columns are searched.  ``fundamental_mf``
    searches right to left to choose the auxiliary coordinates.  ``solve``
    takes the same knob (both run ``_eliminate``): it sets the pivot order of
    the f_{-1} solve, ``fundamental_mf(pivot_order=...)``.
    """
    r, pivots = _eliminate(matrix, field, col_order)
    return [[_entry(x, field) for x in row] for row in r], pivots


def rank(matrix, field):
    return len(_eliminate(matrix, field)[1])


def nullspace(matrix, field):
    """Basis of the right kernel, as a list of column vectors (lists)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    r, pivots = _eliminate(matrix, field)
    pivot_cols = {j for _, j in pivots}
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        vec = [field.zero] * cols
        vec[free] = field.one
        for (i, j) in pivots:
            x = r[i][free]
            if x is not None:
                vec[j] = Scalar(field, [-v for v in x[0]], x[1])
        basis.append(vec)
    return basis


def solve(matrix, rhs, field, col_order=None):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero; the choice of pivot columns (hence of the
    particular solution) follows ``col_order``.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    if len(rhs) != rows:
        raise ValueError("rhs length mismatch")
    aug = [list(matrix[i]) + [rhs[i]] for i in range(rows)]
    if col_order is None:
        col_order = range(cols)
    r, pivots = _eliminate(aug, field, col_order)
    for row in r:
        if row[cols] is not None and all(x is None for x in row[:cols]):
            return None
    x = [field.zero] * cols
    for (i, j) in pivots:
        if j < cols:
            x[j] = _entry(r[i][cols], field)
    return x


def invert(matrix, field):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("not square")
    aug = [list(row) + unit for row, unit in zip(matrix, identity(field, n))]
    r, pivots = _eliminate(aug, field, range(n))
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [[_entry(x, field) for x in row[n:]] for row in r]


_den, _ints, _terms_of = attrgetter("den"), attrgetter("ints"), attrgetter("terms")


def first_mismatch(products, target, field):
    """The first (i, j), row by row, at which sum(a . b for a, b in products)
    differs from ``target`` (a matrix of Poly over ``field``); None if equal.
    A difference A . B - C . D = 0 is checked as the products
    [(A, B), (-C, D)] against a zero target.

    Exact, and no product Poly or Scalar is built.  Every coefficient is put
    over one common denominator D (the target over D^2).  Each distinct
    entry is turned once into terms (packed exponent, packed coefficient):
    a coefficient sum(x_k z^k) becomes the one int sum(x_k 2^(B k))
    (Kronecker substitution z -> 2^B).  Row i starts from minus the target
    and adds the product of every term of a[i][k] and every term of b[k][j]
    under the key ``j << ebits | exponent`` (Gustavson's row-by-row
    product).  Each value is then P(2^B), for P the unreduced integer
    polynomial in z (degree <= 2 phi - 2) of D^2 times the difference at
    that cell and monomial; the cell agrees iff Phi_N(2^B) divides them all.

    Why that is exact.  Every coefficient of P is at most
    S = K T^2 phi max|A| max|B| + max|C| in absolute value (K the summed
    inner dimension, T the most terms in one entry, the maxima over the
    scaled integers of left factors, right factors and target); with
    H = D max|x_k|, each factor's maximum is at most H and the target's at
    most H D <= H^2, so S <= (K T^2 phi + 1) H^2, the bound used.  Reducing
    z^(phi + m) by the rows of ``field._reduction`` bounds each coefficient
    of R = P mod Phi_N by M = S c, c = 1 + sum |entries of the rows|; the
    lower coefficients of Phi_N (the negated first row) sum to h <= c - 1.
    With X = 2^B, B = bitlen(M) + 3 gives X > 8 M, so M + h <= 2 M < X - 1
    when S >= 1 (S = 0 leaves P = 0).  Then |R(X)| < M X^phi / (X - 1) <=
    X^phi (1 - h / (X - 1)) < Phi_N(X).  Phi_N is monic, so Q(X) in
    P(X) = Q(X) Phi_N(X) + R(X) is an integer, and Phi_N(X) | P(X) iff
    R(X) = 0, iff R = 0 (a base-X expansion with digits strictly between
    -X/2 and X/2 is unique), iff P(zeta) = 0."""
    mats = [m for pair in products for m in pair] + [target]
    sparse = [[[(j, p) for j, p in enumerate(row) if p.terms] for row in m] for m in mats]
    distinct = {id(p): p for m in sparse for row in m for _, p in row}
    coeffs = [c for p in distinct.values() for c in p.terms.values()]
    den = lcm(*set(map(_den, coeffs)))
    height = max(map(abs, chain.from_iterable(map(_ints, coeffs))), default=0) * den
    most = max(map(len, map(_terms_of, distinct.values())), default=0)
    inner = sum(len(b) for _, b in products)
    reduction = field._reduction
    bits = ((inner * most * most * field.degree + 1) * height * height
            * (1 + sum(abs(t) for row in reduction for _, t in row))).bit_length() + 3
    # Phi_N(2^B): the first row of the reduction is z^phi mod Phi_N
    modulus = (1 << bits * field.degree) - sum(t << bits * i for i, t in reduction[0])
    exps = set(chain.from_iterable(map(_terms_of, distinct.values())))
    shift = (2 * max(chain.from_iterable(exps), default=0) + 1).bit_length()
    packed = {e: sum(map(lshift, e, range(0, shift * len(e), shift))) for e in exps}
    ebits = shift * max(map(len, exps), default=0)  # a sum of two exponents fits
    places = range(0, bits * field.degree, bits)
    table = {i: [(packed[e], sum(map(lshift, c.ints, places)) * (den // c.den))
                 for e, c in p.terms.items()] for i, p in distinct.items()}
    rows = [([[(k, table[id(p)]) for k, p in row] for row in a],
             [[((j << ebits) + e, v) for j, p in row for e, v in table[id(p)]] for row in b])
            for a, b in zip(sparse[:-1:2], sparse[1:-1:2])]
    for i, want in enumerate(sparse[-1]):
        acc = {(j << ebits) + e: -v * den for j, p in want for e, v in table[id(p)]}
        get = acc.get
        for a, b in rows:
            for k, ta in a[i]:
                bk = b[k]
                for ea, va in ta:
                    for kb, vb in bk:
                        key = kb + ea
                        acc[key] = get(key, 0) + va * vb
        bad = [key for key, v in acc.items() if v % modulus]
        if bad:
            return i, min(bad) >> ebits
    return None
