"""Exact linear algebra over Q(zeta_N), and the one check of polynomial
matrix identities.

Matrices are plain lists of lists of Scalar.  Every elimination (``rref``,
``rank``, ``nullspace``, ``solve``, ``invert``) runs ``_eliminate``, a
Gauss-Jordan elimination on the (``ints``, ``den``) pair each Scalar stores,
kept in lowest terms, with None for zero.  Products run through
``cyclotomic._product``.  It scales the pivot row by the pivot's
fraction-free inverse (``cyclotomic._inverse_integers``), lists that row's
nonzero columns once, and updates each other row with a nonzero in the pivot
column on those columns only.  Entries become Scalars only where a result
needs them: all of R in ``rref``, the returned columns in ``nullspace``,
``solve`` and ``invert``, and nothing in ``rank``.  The reduced row echelon
form is unique, so every result equals that of Scalar Gauss-Jordan
elimination (kept as the reference in the tests).

``mat_mul`` multiplies Scalar matrices.  ``first_mismatch`` is the sparse
certificate kernel: it decides whether a sum of products of Poly matrices
equals a target, exactly, without building any product, and every identity
on Poly matrices (delta^2 = W . id, d o d = 0, commuting squares, gauge
intertwiners, contracting homotopies) is checked by it.  Its accumulation,
``_accumulate``, also sums the results of ``poly.substituter``.  ``zeros`` and
``identity`` only touch ``.zero`` and ``.one`` of their base, so they build
Poly matrices too: pass the PolyRing where a field is asked for.
``entrywise`` maps Poly matrices once per distinct entry object
(``per_object``), so cells that share an entry share its image.
"""

from __future__ import annotations

from math import lcm

from .cyclotomic import Scalar, _inverse_integers, _lowest, _product, _sum


def zeros(field, rows, cols):
    z = field.zero
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(field, n):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
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
    f applied once per distinct entry object (``per_object``): cells that
    share an object (one zero, one signed copy of a fold entry) share its
    image."""
    image = per_object(f)
    return [[[image(c) for c in row] for row in m] for m in matrices]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _eliminate(matrix, field, col_order=None):
    """Gauss-Jordan elimination of a Scalar matrix on integer entries.

    Returns (R, pivots) as ``rref`` does, but each entry of R is an
    (``ints``, ``den``) pair as a Scalar stores it, and None is zero.  The
    pivot row is scaled by the pivot's fraction-free inverse; each other row
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


def _terms(poly):
    """The terms of a Poly as (exponent, nonzero (k, integer), denominator):
    the coefficient is sum(integer * zeta^k) / denominator."""
    return [(e, [(k, x) for k, x in enumerate(c.ints) if x], c.den)
            for e, c in poly.terms.items()]


def first_mismatch(products, target, field):
    """The first (i, j), row by row, at which sum(a . b for a, b in products)
    differs from ``target`` (a matrix of Poly over ``field``); None if equal.

    Exact, and no product Poly or Scalar is built.  Every nonzero entry is
    turned once into integer terms with packed exponents, and the nonzero
    columns of each row are listed once (Gustavson's row-by-row product).
    Row i then accumulates, per column and exponent, one unreduced integer
    vector of length 2*phi(N) - 1 over the lcm of its denominators, reduces
    it by Phi_N once and compares it with the target by cross-multiplying
    denominators.  A difference A . B - C . D = 0 is checked as the products
    [(A, B), (-C, D)] against a zero target."""
    cache = {}  # id -> terms; every entry stays alive in its matrix meanwhile

    def terms(poly):
        t = cache.get(id(poly))
        if t is None:
            t = cache[id(poly)] = _terms(poly)
        return t

    sparse = lambda m: [[(j, terms(c)) for j, c in enumerate(row) if c.terms] for row in m]
    products = [(sparse(a), sparse(b)) for a, b in products]
    target = [dict(row) for row in sparse(target)]
    # pack each exponent into one int, `shift` bits per variable: enough for
    # every exponent here and every sum of two, so a product's exponent is
    # the sum of its factors' and distinct exponents stay distinct.  On the
    # point base every exponent is () and stays so.
    if any(e for ts in cache.values() for e, _, _ in ts):
        top = max(x for ts in cache.values() for e, _, _ in ts for x in e)
        shift = (2 * top + 1).bit_length()
        for ts in cache.values():
            ts[:] = [(sum(x << shift * v for v, x in enumerate(e)), vec, d)
                     for e, vec, d in ts]
    width = 2 * field.degree - 1
    for i, want in enumerate(target):
        acc = {}  # j -> {exponent: [denominator, unreduced integer vector]}
        for a, b in products:
            for k, ta in a[i]:
                for j, tb in b[k]:
                    cell = acc.get(j)
                    if cell is None:
                        cell = acc[j] = {}
                    _accumulate(cell, ta, tb, width)
        for j in sorted(acc.keys() | want.keys()):
            if not _agrees(acc.get(j, {}), want.get(j, ()), field):
                return i, j
    return None


def _accumulate(cell, ta, tb, width):
    """Add every product of a term of ``ta`` and a term of ``tb`` (lists of
    (exponent, nonzero (k, integer) pairs, denominator), as ``_terms`` gives)
    to cell[ea + eb] = [denominator, unreduced integer vector of length
    ``width``], rescaled to the lcm of the denominators.  Exponents are
    packed ints here, or () on the point base, or tuples with ea = () for a
    substitution."""
    for ea, va, da in ta:
        for eb, vb, db in tb:
            e, d = ea + eb, da * db
            slot = cell.get(e)
            if slot is None:
                slot = cell[e] = [d, [0] * width]
            den, ints = slot
            if d != den:
                common = lcm(den, d)
                if common != den:
                    f = common // den
                    slot[:] = den, ints = common, [x * f for x in ints]
            scale = den // d
            for ka, xa in va:
                xa *= scale
                for kb, xb in vb:
                    ints[ka + kb] += xa * xb


def _agrees(cell, expected, field):
    """Whether the accumulated {exponent: [den, unreduced ints]} equals the
    Poly whose ``_terms`` are ``expected``."""
    expected = {e: (v, d) for e, v, d in expected}
    for e, (den, ints) in cell.items():
        got = field.reduce_integers(ints) if any(ints) else None
        w = expected.pop(e, None)
        if w is None:
            if got is not None and any(got):
                return False
        elif got is None:
            return False
        else:
            v, wden = w
            diff = [g * wden for g in got]
            for k, x in v:
                diff[k] -= x * den
            if any(diff):
                return False
    return not expected
