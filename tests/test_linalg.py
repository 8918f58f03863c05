import random
from fractions import Fraction
from math import lcm

import pytest

from dgmf import CyclotomicField, PolyRing, koszul_mf
from dgmf import linalg
from dgmf.poly import Poly, _terms
from test_factorizations import _dense_sum, _reference_homotopy_system

F = CyclotomicField(4)


def _random_matrix(rng, rows, cols):
    return [[F.scalar(rng.randint(-4, 4)) for _ in range(cols)]
            for _ in range(rows)]


def test_rank_and_nullspace_dimensions():
    rng = random.Random(11)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        r = linalg.rank(m, F)
        null = linalg.nullspace(m, F)
        assert r + len(null) == cols
        for v in null:
            image = [sum((m[i][j] * v[j] for j in range(cols)), F.zero)
                     for i in range(rows)]
            assert all(not c for c in image)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        x = [F.scalar(rng.randint(-3, 3)) for _ in range(cols)]
        b = [sum((m[i][j] * x[j] for j in range(cols)), F.zero)
             for i in range(rows)]
        sol = linalg.solve(m, b, F)
        assert sol is not None
        check = [sum((m[i][j] * sol[j] for j in range(cols)), F.zero)
                 for i in range(rows)]
        assert check == b
    # x = b with no solution
    assert linalg.solve([[F.zero]], [F.one], F) is None


def test_solve_col_order_changes_particular_solution():
    # x + y = 1: default pivots on x; reversed order pivots on y
    m = [[F.one, F.one]]
    b = [F.one]
    s1 = linalg.solve(m, b, F)
    s2 = linalg.solve(m, b, F, col_order=[1, 0])
    assert s1 == [F.one, F.zero]
    assert s2 == [F.zero, F.one]


def test_invert():
    rng = random.Random(3)
    found = 0
    while found < 10:
        m = _random_matrix(rng, 3, 3)
        if linalg.rank(m, F) < 3:
            continue
        found += 1
        inv = linalg.invert(m, F)
        assert linalg.mat_mul(m, inv, F) == linalg.identity(F, 3)


def test_entrywise_maps_each_distinct_object_once():
    ring = PolyRing(F, ["x"])
    x = ring.gen("x")
    a, b, z = x + 1, x * x, ring.zero
    copy_of_a = x + 1  # equal to a, but another object
    calls = []
    f = lambda c: calls.append(c) or c * x
    m1, m2 = [[a, z, a], [b, z, z]], [[z, b], [a, copy_of_a]]
    got = linalg.entrywise(f, m1, m2)
    assert got == [[[c * x for c in row] for row in m] for m in (m1, m2)]
    assert len(calls) == 4
    assert got[0][0][0] is got[0][0][2] is got[1][1][0]
    assert got[1][1][1] is not got[1][1][0]
    assert linalg.entrywise(f) == [] and linalg.entrywise(f, []) == [[]]
    once = linalg.per_object(f)
    assert once(b) is once(b) and len(calls) == 5


def test_entrywise_keeps_generated_entries_apart():
    # rows and entries made on the fly and dropped after their cell: an id
    # freed and reused by the next entry must not return the old image
    rows = ([Fraction(i, 7)] for i in range(50))
    got, = linalg.entrywise(str, rows)
    assert got == [[str(Fraction(i, 7))] for i in range(50)]

def test_mat_ops():
    a = [[F.one, F.zeta], [F.zero, F.one]]
    assert linalg.transpose(a) == [[F.one, F.zero], [F.zeta, F.one]]
    assert linalg.mat_neg(a) == [[-F.one, -F.zeta], [F.zero, -F.one]]


def _reference_rref(matrix, col_order=None):
    """Dense Gauss-Jordan: scale the whole pivot row, update every entry of
    every other row that has a nonzero in the pivot column."""
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
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][j]:
                c = m[i][j]
                m[i] = [x - c * y for x, y in zip(m[i], m[r])]
        pivots.append((r, j))
        r += 1
    return m, pivots


def _reference_nullspace(matrix, field):
    if not matrix:
        return []
    cols = len(matrix[0])
    r, pivots = _reference_rref(matrix)
    basis = []
    for free in sorted(set(range(cols)) - {j for _, j in pivots}):
        vec = [field.zero] * cols
        vec[free] = field.one
        for i, j in pivots:
            vec[j] = -r[i][free]
        basis.append(vec)
    return basis


def _reference_solve(matrix, rhs, field, col_order=None):
    cols = len(matrix[0]) if matrix else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    r, pivots = _reference_rref(aug, list(range(cols)) if col_order is None else col_order)
    if any(row[cols] and not any(row[:cols]) for row in r):
        return None
    x = [field.zero] * cols
    for i, j in pivots:
        x[j] = r[i][cols]
    return x


def _reference_invert(matrix, field):
    n = len(matrix)
    aug = [list(row) + unit for row, unit in zip(matrix, linalg.identity(field, n))]
    r, pivots = _reference_rref(aug, list(range(n)))
    return [row[n:] for row in r] if len(pivots) == n else None


def _assert_all_match_reference(matrix, field, rng):
    """rref (three column orders), rank, nullspace, solve (consistent and
    random right-hand sides) and invert against the reference elimination."""
    _assert_rref_matches_reference(matrix, field, rng)
    assert linalg.rank(matrix, field) == len(_reference_rref(matrix)[1])
    assert linalg.nullspace(matrix, field) == _reference_nullspace(matrix, field)
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    consistent = [sum((matrix[i][j] for j in range(cols) if j % 2), field.zero)
                  for i in range(rows)]
    other = [field.scalar(rng.randint(-3, 3)) for _ in range(rows)]
    for rhs in (consistent, other):
        want = _reference_solve(matrix, rhs, field)
        assert linalg.solve(matrix, rhs, field) == want
        order = list(range(cols - 1, -1, -1))
        assert linalg.solve(matrix, rhs, field, order) == \
            _reference_solve(matrix, rhs, field, order)
    if rows == cols:
        want = _reference_invert(matrix, field)
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                linalg.invert(matrix, field)
        else:
            assert linalg.invert(matrix, field) == want


@pytest.mark.parametrize("order", [1, 2, 4, 7])
def test_linalg_matches_dense_reference_on_dense_matrices(order):
    # dense entries with numerators and denominators up to 2^64, all-rational
    # matrices, and rank drops from a zero row, a zero column and a repeated
    # row; N = 1, 2 are the degree-1 (rational) fields
    field = CyclotomicField(order)
    rng = random.Random(f"dense:{order}")

    def entry(rational):
        bits = rng.choice([3, 20, 64])
        cs = [Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))
              for _ in range(field.degree)]
        if rational:
            cs[1:] = [0] * (field.degree - 1)
        return field.from_coeffs(cs)

    # coefficients grow fast over Q(zeta_7): keep its matrices small
    shapes = [(1, 1), (3, 3), (4, 6), (6, 4), (5, 5)] if field.degree <= 2 else \
        [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    for rows, cols in shapes:
        for rational in (False, True):
            m = [[entry(rational) for _ in range(cols)] for _ in range(rows)]
            _assert_all_match_reference(m, field, rng)
            if rows > 1:
                m[rng.randrange(rows)] = [field.zero] * cols
                dup = rng.randrange(rows)
                m[(dup + 1) % rows] = list(m[dup])
            col = rng.randrange(cols)
            for row in m:
                row[col] = field.zero
            _assert_all_match_reference(m, field, rng)


@pytest.mark.parametrize("order", [1, 4])
def test_linalg_on_empty_shapes(order):
    field = CyclotomicField(order)
    rng = random.Random(order)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 0)]:
        m = [[field.one] * cols for _ in range(rows)]
        _assert_all_match_reference(m, field, rng)
    assert linalg.rref([[], []], field) == ([[], []], [])
    assert linalg.solve([[], []], [field.zero, field.one], field) is None
    assert linalg.solve([[], []], [field.zero, field.zero], field) == []
    assert linalg.invert([], field) == []
    assert linalg.nullspace([[field.zero] * 3], field) == linalg.identity(field, 3)


def _assert_rref_matches_reference(matrix, field, rng):
    cols = len(matrix[0]) if matrix else 0
    shuffled = list(range(cols))
    rng.shuffle(shuffled)
    for order in (None, list(range(cols - 1, -1, -1)), shuffled):
        assert linalg.rref(matrix, field, order) == _reference_rref(matrix, order)


@pytest.mark.parametrize("order", [3, 4, 7, 12])
def test_rref_matches_dense_reference_on_sparse_matrices(order):
    field = CyclotomicField(order)
    rng = random.Random(f"rref:{order}")

    def entry():
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for _ in range(field.degree)]
        cs[rng.randrange(1, field.degree)] = Fraction(rng.choice([-3, -1, 1, 2]))
        return field.from_coeffs(cs)

    for rows, cols in [(4, 5), (6, 6), (8, 5), (9, 11), (12, 13)]:
        density = rng.uniform(0.2, 0.4)
        m = [[entry() if rng.random() < density else field.zero
              for _ in range(cols)] for _ in range(rows)]
        assert any(not x.is_rational() for row in m for x in row)
        _assert_rref_matches_reference(m, field, rng)


def test_rref_matches_dense_reference_on_a_homotopy_system():
    # the polynomial homotopy search on a rank-4 Koszul MF over Q(zeta_7) at a
    # generic point is one 32 x 33 system; its fill-in is the hard case
    field = CyclotomicField(7)
    z = field.zeta
    ring = PolyRing(field, ["x0", "x1", "x2", "y"])
    xs, y = [ring.gen(f"x{i}") for i in range(3)], ring.gen("y")
    cs = [1 + z, 2 - z ** 3, z ** 2 + z ** 5]
    mf = koszul_mf(ring, [c * x for c, x in zip(cs, xs)], [x * y for x in xs])
    point = [1 + z ** 2, 3 - z, z ** 4 - 2, 1 + z ** 3]
    matrix, rhs, _ = _reference_homotopy_system(mf.restrict_to_point(point))
    system = [row + [b] for row, b in zip(matrix, rhs)]
    assert (len(system), len(system[0])) == (32, 33)
    _assert_rref_matches_reference(system, field, random.Random("homotopy"))


def _reference_first_mismatch(products, target, field):
    """The previous ``first_mismatch`` kernel: per row, each (column,
    exponent) is accumulated as one unreduced integer vector of length
    2 phi - 1 over the lcm of its denominators, reduced by Phi_N once and
    compared with the target by cross-multiplying denominators."""
    cache = {}  # id -> terms; every entry stays alive in its matrix meanwhile

    def terms(poly):
        t = cache.get(id(poly))
        if t is None:
            t = cache[id(poly)] = _terms(poly)
        return t

    sparse = lambda m: [[(j, terms(c)) for j, c in enumerate(row) if c.terms] for row in m]
    products = [(sparse(a), sparse(b)) for a, b in products]
    target = [dict(row) for row in sparse(target)]
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
                    _accumulate(acc.setdefault(j, {}), ta, tb, width)
        for j in sorted(acc.keys() | want.keys()):
            if not _reference_agrees(acc.get(j, {}), want.get(j, ()), field):
                return i, j
    return None


def _accumulate(cell, ta, tb, width):
    """Add every product of a term of ``ta`` and a term of ``tb`` (lists of
    (exponent, nonzero (k, integer) pairs, denominator), as ``_terms`` gives)
    to cell[ea + eb] = [denominator, unreduced integer vector of length
    ``width``], rescaled to the lcm of the denominators."""
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


def _reference_agrees(cell, expected, field):
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


def _corpus_scalar(rng, field, dens):
    """A seeded Scalar: numerators up to 2^200 now and then, denominators
    drawn from ``dens``, rational now and then, zero never."""
    while True:
        top = 2 ** 200 if rng.random() < 0.2 else 9
        den = rng.choice(dens)
        coeffs = [Fraction(rng.randint(-top, top), den) for _ in range(field.degree)]
        if rng.random() < 0.3:
            coeffs[1:] = [0] * (field.degree - 1)
        if any(coeffs):
            return field.from_coeffs(coeffs)


def _corpus_matrix(rng, ring, rows, cols, dens, density=0.4):
    """Seeded Poly matrices; a Poly base ring gets up to three terms of
    degree <= 2 per entry, and shared entry objects now and then."""
    shared = []
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() > density:
                row.append(ring.zero)
            elif shared and rng.random() < 0.2:
                row.append(rng.choice(shared))
            else:
                terms = {}
                for _ in range(rng.randint(1, 3) if ring.nvars else 1):
                    e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
                    terms[e] = _corpus_scalar(rng, ring.field, dens)
                shared.append(Poly(ring, terms))
                row.append(shared[-1])
        out.append(row)
    return out


# pairwise coprime denominators, one set per factor and one for the target
_CORPUS_DENS = ([1, 2, 4], [3, 9], [5, 25, 2 ** 61 - 1], [7, 11, 13])


@pytest.mark.parametrize("order", [1, 4, 5, 7, 12])
@pytest.mark.parametrize("nvars", [0, 2])
def test_first_mismatch_rejects_what_the_reference_kernel_rejects_on_a_seeded_corpus(order, nvars):
    """The same (i, j) or None as the previous kernel, on exact sums,
    single-entry perturbations and unrelated targets, for one product and
    for [(A, B), (-C, D)], over Q, Q(i), Q(zeta_5), Q(zeta_7), Q(zeta_12),
    point-base and Poly matrices."""
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x", "y"][:nvars])
    rng = random.Random(f"corpus-{order}-{nvars}")
    outcomes = set()
    for trial in range(10):
        n, m, p = rng.randint(1, 5), rng.randint(0, 4), rng.randint(1, 5)
        products = [(_corpus_matrix(rng, ring, n, m, _CORPUS_DENS[0]),
                     _corpus_matrix(rng, ring, m, p, _CORPUS_DENS[1]))]
        if trial % 2:
            c = _corpus_matrix(rng, ring, n, m + 1, _CORPUS_DENS[2])
            products.append((linalg.mat_neg(c),
                             _corpus_matrix(rng, ring, m + 1, p, _CORPUS_DENS[3])))
        exact = _dense_sum(products, ring, n, p)
        wrong = [list(row) for row in exact]
        i, j = rng.randrange(n), rng.randrange(p)
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        wrong[i][j] = wrong[i][j] + Poly(ring, {e: _corpus_scalar(rng, field, [1, 3])})
        other = _corpus_matrix(rng, ring, n, p, _CORPUS_DENS[3], density=0.2)
        for want in (exact, wrong, other):
            got = linalg.first_mismatch(products, want, field)
            assert got == _reference_first_mismatch(products, want, field)
            outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("order", [5, 7, 12])
@pytest.mark.parametrize("nvars", [0, 1])
def test_first_mismatch_rejects_only_what_phi_n_does_not_cancel(order, nvars):
    """Phi_N(zeta) = sum c_k zeta^k = 0 (for Q(zeta_7), the sum of
    zeta^k over k < 7) as one row times one column, each product
    c_k zeta^(k - s) . zeta^s of two reduced powers, so that the unreduced
    sum reaches degree phi(N) and vanishes only after reduction by Phi_N.
    The exact sum is accepted, and a change of any one coordinate of it
    rejected at its cell."""
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x"][:nvars])
    x = ring.gen("x") if nvars else ring.one
    steps = [(c, min(k, field.degree - 1), k) for k, c in enumerate(field.modulus) if c]
    a = [[ring.zero] * len(steps),
         [ring.constant(field.scalar(c) * field.zeta_power(k - s)) * x for c, s, k in steps]]
    b = [[ring.zero, ring.constant(field.zeta_power(s))] for _, s, _ in steps]
    zero = [[ring.zero] * 2 for _ in range(2)]
    assert linalg.first_mismatch([(a, b)], zero, field) is None
    assert _reference_first_mismatch([(a, b)], zero, field) is None
    for k in range(field.degree):
        wrong = [list(row) for row in zero]
        wrong[1][1] = ring.constant(field.zeta_power(k)) * x
        assert linalg.first_mismatch([(a, b)], wrong, field) == (1, 1)
        assert _reference_first_mismatch([(a, b)], wrong, field) == (1, 1)


@pytest.mark.parametrize("order", [1, 4, 7, 12])
def test_first_mismatch_rejects_a_difference_of_phi_n_at_a_power_of_two(order):
    """A cell that differs by Phi_N(2^b) zeta^k is a nonzero
    difference that a test modulo Phi_N(2^b) cannot see, so B must exceed
    every such b that the target's size allows: each is rejected."""
    field = CyclotomicField(order)
    point = PolyRing(field, [])
    one = [[point.one]]
    for b in range(1, 80):
        gap = sum(int(c) << b * k for k, c in enumerate(field.modulus))
        for k in range(field.degree):
            want = [[point.constant(1 + gap * field.zeta_power(k))]]
            assert linalg.first_mismatch([(one, one)], want, field) == (0, 0)


def test_blocks_places_each_block_row_side_by_side():
    a, b = [[1, 2], [3, 4]], [[5], [6]]
    c, d = [[7, 8]], [[9]]
    assert linalg.blocks([[a, b], [c, d]]) == [[1, 2, 5], [3, 4, 6], [7, 8, 9]]
    # a block row of 0-row blocks adds no row; a 0-column block adds no cell
    assert linalg.blocks([[[], []], [c, d]]) == [[7, 8, 9]]
    assert linalg.blocks([[[[], []], [[1], [2]]]]) == [[1], [2]]
    assert linalg.blocks([[[[]], [[]]]]) == [[]]
    assert linalg.blocks([]) == []
    # entries are placed as they are, not copied
    x = F.zeta
    assert linalg.blocks([[[[x]]]])[0][0] is x
    with pytest.raises(ValueError):
        linalg.blocks([[a, c]])


def _reference_kron(a, a_cols, b, b_cols):
    """The dense Kronecker product of int matrices, each with its column
    count."""
    return [[a[i][k] * b[j][l] for k in range(a_cols) for l in range(b_cols)]
            for i in range(len(a)) for j in range(len(b))]


def test_kron_with_an_identity_factor_by_hand():
    a = [[1, 2], [3, 4]]
    assert linalg.kron(a, 2, 0) == [[1, 0, 2, 0], [0, 1, 0, 2],
                                    [3, 0, 4, 0], [0, 3, 0, 4]]
    assert linalg.kron(2, a, 0) == [[1, 2, 0, 0], [3, 4, 0, 0],
                                    [0, 0, 1, 2], [0, 0, 3, 4]]
    assert linalg.kron([[1, 2, 3]], 2, 0) == [[1, 0, 2, 0, 3, 0], [0, 1, 0, 2, 0, 3]]
    assert linalg.kron(2, [[1], [2]], 0) == [[1, 0], [2, 0], [0, 1], [0, 2]]
    assert linalg.kron(a, 1, 0) == linalg.kron(1, a, 0) == a
    # 0-row and 0-column factors, and I_0
    assert linalg.kron([], 3, 0) == linalg.kron(3, [], 0) == []
    assert linalg.kron([[], []], 2, 0) == [[], [], [], []]
    assert linalg.kron(2, [[]], 0) == [[], []]
    assert linalg.kron(a, 0, 0) == linalg.kron(0, a, 0) == []
    # the zero is the one object given, and entries are placed as they are
    x = object()
    out = linalg.kron([[x, None]], 2, "zero")
    assert out[0][0] is x and out[1][1] is x and out[0][1] == "zero"


def test_kron_matches_the_dense_product_with_an_identity():
    rng = random.Random(28)
    for _ in range(60):
        rows, cols, n = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert linalg.kron(a, n, 0) == _reference_kron(a, cols, eye, n)
        assert linalg.kron(n, a, 0) == _reference_kron(eye, n, a, cols)
