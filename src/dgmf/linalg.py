"""Exact dense linear algebra over Q(zeta_N).

Matrices are plain lists of lists of Scalar.  ``rref`` is Gauss-Jordan
elimination that skips zeros: it scales the pivot row, lists that row's
nonzero columns once, and updates each other row with a nonzero in the pivot
column on those columns only.  The systems here (homotopy equations, MF
restrictions) are sparse with small coefficients, so the cost is the number
of Scalar operations, not coefficient growth.  The reduced row echelon form
is unique, so skipping zeros changes no result.

``zeros``, ``identity``, ``mat_mul`` and ``mat_add`` only touch ``.zero`` and
``.one`` of their base, so they serve Poly matrices too: pass the PolyRing
where a field is asked for.
"""

from __future__ import annotations


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


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(matrix, field, col_order=None):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is a list of (row, col).  ``col_order``
    selects the order in which pivot columns are searched; this is the knob the
    homotopy solver uses to produce gauge-different solutions.
    """
    m = [list(row) for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    if col_order is None:
        col_order = list(range(cols))
    pivots = []
    r = 0
    for j in col_order:
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][j]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][j].inverse()
        prow = m[r] = [inv * x for x in m[r]]
        nonzero_cols = [k for k, y in enumerate(prow) if y]
        for i in range(rows):
            row = m[i]
            c = row[j]
            if i != r and c:
                for k in nonzero_cols:
                    row[k] = row[k] - c * prow[k]
        pivots.append((r, j))
        r += 1
    return m, pivots


def rank(matrix, field):
    _, pivots = rref(matrix, field)
    return len(pivots)


def nullspace(matrix, field):
    """Basis of the right kernel, as a list of column vectors (lists)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    r, pivots = rref(matrix, field)
    pivot_cols = {j for _, j in pivots}
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        vec = [field.zero] * cols
        vec[free] = field.one
        for (i, j) in pivots:
            vec[j] = -r[i][free]
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
        col_order = list(range(cols))
    r, pivots = rref(aug, field, col_order=list(col_order))
    for i in range(rows):
        if r[i][cols] and not any(r[i][j] for j in range(cols)):
            return None
    x = [field.zero] * cols
    for (i, j) in pivots:
        if j < cols:
            x[j] = r[i][cols]
    return x


def invert(matrix, field):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("not square")
    aug = [list(row) + unit for row, unit in zip(matrix, identity(field, n))]
    r, pivots = rref(aug, field, col_order=list(range(n)))
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]
