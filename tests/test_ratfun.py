import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from dgmf import CyclotomicField, PolyRing, RationalFunction, UPoly, koszul_mf
from dgmf import ratfun
from dgmf.ratfun import _diagonal, poly_mat_rank, two_periodic_homology_dims

F = CyclotomicField(1)
t = UPoly.gen(F)
one = UPoly.constant(F, 1)


def _c(v):
    return UPoly.constant(F, v)


def test_upoly_basics():
    p = (t - one) * (t + one)
    assert p.degree() == 2
    q, r = (t ** 3).divmod(p)
    assert q == t and r == t
    assert p.evaluate(F.scalar(2)) == F.scalar(3)
    assert (t ** 2 - one).gcd(t - one).monic() == (t - one).monic()
    tring = PolyRing(F, ["t"], [1])
    assert UPoly.from_poly(tring.parse("3*t^2 + (-1)")) == _c(3) * t ** 2 - one
    with pytest.raises(ValueError):
        t ** -1


def test_scalar_minus_upoly_is_the_negated_difference():
    # a scalar or an int on the left of ``-`` runs UPoly.__rsub__
    field = CyclotomicField(4)
    x = UPoly.gen(field)
    for p in (x, x ** 3 - UPoly.constant(field, 2) * x, UPoly(field, [])):
        for s in (1, 3, 0, Fraction(-1, 2), field.zeta, 1 - field.zeta):
            diff = s - p
            assert isinstance(diff, UPoly) and diff == -(p - s)
            assert diff + p == UPoly.constant(field, s)


def test_residue_dx_over_x():
    # dx/x at 0 and infinity: residues 1 and -1
    f = RationalFunction(one, t)
    assert f.residue(F.zero) == F.one
    assert f.residue_at_infinity() == F.scalar(-1)


def test_laurent_against_sympy():
    rng = random.Random(23)
    x = sympy.symbols("x")
    for _ in range(15):
        num = sum(rng.randint(-4, 4) * x ** k for k in range(3))
        pole = rng.randint(-2, 2)
        order = rng.randint(1, 3)
        den = (x - pole) ** order * (x - pole - 3)
        if num == 0:
            continue
        ours = RationalFunction(
            sum((_c(int(num.coeff(x, k))) * t ** k for k in range(3)),
                UPoly.constant(F, 0)),
            (t - _c(pole)) ** order * (t - _c(pole + 3)))
        u = sympy.symbols("u")
        expansion = sympy.series((num / den).subs(x, pole + u),
                                 u, 0, 2).removeO()
        for k in range(-order, 2):
            expected = expansion.coeff(u, k)
            got = ours.laurent_coefficient(F.scalar(pole), k)
            assert Fraction(str(expected)) == (got.rational_value()
                                               if got else Fraction(0))


def test_residue_theorem_random():
    rng = random.Random(7)
    for _ in range(20):
        # f = num / ((t-a)(t-b)(t-c)) with deg num <= 1: no residue at infinity
        a, b, c = rng.sample(range(-5, 6), 3)
        num = _c(rng.randint(-5, 5)) * t + _c(rng.randint(-5, 5))
        den = (t - _c(a)) * (t - _c(b)) * (t - _c(c))
        f = RationalFunction(num, den)
        total = f.residue(F.scalar(a)) + f.residue(F.scalar(b)) + \
            f.residue(F.scalar(c))
        assert not total


def test_residue_at_infinity_matches_sum_rule():
    # sum of all residues including infinity is zero
    f = RationalFunction(t ** 2, (t - one) * (t + one))
    total = f.residue(F.one) + f.residue(F.scalar(-1)) + f.residue_at_infinity()
    assert not total


def test_residue_at_infinity_is_one_division(monkeypatch):
    """Over Q(zeta_7), with numerators of any degree (a polynomial part
    included), the residue at infinity closes the residue theorem, and it
    is read from num mod den: no RationalFunction is built on the way."""
    field = CyclotomicField(7)
    s = UPoly.gen(field)
    rng = random.Random(30)
    forms = []
    for _ in range(25):
        roots = [(field.scalar(r) + field.zeta ** rng.randint(0, 6), rng.randint(1, 3))
                 for r in rng.sample(range(-4, 5), rng.randint(1, 3))]
        num = UPoly(field, [field.scalar(rng.randint(-3, 3)) + field.zeta * rng.randint(-1, 1)
                            for _ in range(rng.randint(0, 8))])
        forms.append((RationalFunction(num, ratfun._with_roots(field, roots)), roots))
    forms.append((RationalFunction(s ** 3, UPoly.constant(field, 2)), []))

    def no_new_form(*args):
        raise AssertionError("residue_at_infinity built a RationalFunction")

    monkeypatch.setattr(RationalFunction, "__init__", no_new_form)
    for f, roots in forms:
        finite = sum((f.residue(q) for q, _m in roots), field.zero)
        assert not finite + f.residue_at_infinity()


def test_taylor_shift_and_roots_builder():
    """Column k of ``_taylor(q)`` is (t + q)^k, and ``_with_roots`` is the
    product of its factors."""
    field = CyclotomicField(4)
    s = UPoly.gen(field)
    for q in (field.zero, field.scalar(3), 1 - 2 * field.zeta):
        rows = ratfun._taylor(field, q, 5, 4)
        for k in range(6):
            want = (s + UPoly.constant(field, q)) ** k
            assert [row[k] for row in rows] == [
                want.coeffs[i] if i < len(want.coeffs) else field.zero for i in range(4)]
    roots = [(field.zeta, 2), (field.scalar(-1), 1), (field.zero, 3)]
    want = UPoly.constant(field, 1)
    for q, m in roots:
        want = want * (s - UPoly.constant(field, q)) ** m
    assert ratfun._with_roots(field, roots) == want
    assert ratfun._with_roots(field, []) == UPoly.constant(field, 1)


def test_two_periodic_homology_over_line():
    z = UPoly.constant(F, 0)
    # block-diagonal stabilization of (k[t], t): one unit of torsion each way
    d0 = [[t, z], [z, z]]
    d1 = [[z, z], [z, t]]
    assert two_periodic_homology_dims(d0, d1) == (1, 1)
    # invertible delta0 with zero delta1: contractible
    assert two_periodic_homology_dims([[one]], [[z]]) == (0, 0)
    # t^2 gives a length-2 cokernel
    assert two_periodic_homology_dims([[t ** 2]], [[z]])[1] == 2


def test_two_periodic_homology_infinite():
    z = UPoly.constant(F, 0)
    h0, h1 = two_periodic_homology_dims([[z]], [[z]])
    assert h0 is None and h1 is None


def _det(m):
    """Laplace expansion (brute-force reference)."""
    if len(m) == 1:
        return m[0][0]
    total = UPoly(m[0][0].field, [])
    for j, entry in enumerate(m[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total = total + (-1) ** j * entry * _det(minor)
    return total


def _reference_rank_and_divisor(m):
    """(rank, deg d_r) from every minor: the largest r with a nonzero r x r
    minor, and the degree of the gcd of all r x r minors."""
    rows, cols = len(m), len(m[0])
    for r in range(min(rows, cols), 0, -1):
        minors = [_det([[m[i][j] for j in ci] for i in ri])
                  for ri in combinations(range(rows), r)
                  for ci in combinations(range(cols), r)]
        g = UPoly(m[0][0].field, [])
        for d in minors:
            g = g.gcd(d) if d else g
        if g:
            return r, g.degree()
    return 0, 0


@pytest.mark.parametrize("order", [1, 4, 7])
def test_diagonal_form_matches_minors(order):
    field = CyclotomicField(order)
    rng = random.Random(order)

    def entry():
        if rng.random() < 0.3:
            return UPoly(field, [])
        return UPoly(field, [field.scalar(rng.randint(-3, 3))
                             + field.scalar(rng.randint(-2, 2)) * field.zeta
                             for _ in range(rng.randint(1, 3))])

    for _ in range(60):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        inner = rng.randint(1, min(rows, cols) - 1)  # rank <= inner: deficient
        b = [[entry() for _ in range(inner)] for _ in range(rows)]
        c = [[entry() for _ in range(cols)] for _ in range(inner)]
        m = [[sum((b[i][k] * c[k][j] for k in range(inner)), UPoly(field, []))
              for j in range(cols)] for i in range(rows)]
        diagonal = _diagonal(m)
        assert (len(diagonal), sum(d.degree() for d in diagonal)) == \
            _reference_rank_and_divisor(m)
        assert poly_mat_rank(m) == len(diagonal)


def _koszul_line(n, offsets):
    """(rank, delta0, delta1) over k[t] of the Koszul MF {c_i x_i, y_i} on
    the line x_i = (i+1) t + offsets[i], y = C^-1 S x with S antisymmetric,
    which lies in W = 0."""
    field = CyclotomicField(4)
    names = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    ring = PolyRing(field, names, [1] * (2 * n))
    cs = [field.scalar(i + 1) + field.zeta for i in range(n)]
    mf = koszul_mf(ring, [c * ring.gen(f"x{i}") for i, c in enumerate(cs)],
                   [ring.gen(f"y{i}") for i in range(n)])
    tring = PolyRing(field, ["t"], [1])
    xs = [(i + 1) * tring.gen("t") + tring.constant(offsets[i]) for i in range(n)]
    ys = [sum(((j - i) * xs[j] for j in range(n)), tring.zero) * cs[i].inverse()
          for i in range(n)]
    fiber = mf.restrict_to_line(xs + ys)
    assert not fiber.potential
    d0 = [[UPoly.from_poly(p) for p in row] for row in fiber.delta0]
    d1 = [[UPoly.from_poly(p) for p in row] for row in fiber.delta1]
    return mf.rank0, d0, d1


def _koszul_line_homology(n, offsets):
    rank, d0, d1 = _koszul_line(n, offsets)
    return rank, two_periodic_homology_dims(d0, d1)


@pytest.mark.parametrize("n", [4, 5])
def test_koszul_line_fibers(n):
    r, dims = _koszul_line_homology(n, [0] * n)
    assert dims == (r // 2, r // 2)  # through the origin
    r, dims = _koszul_line_homology(n, [1] * n)
    assert dims == (0, 0)  # the x_i vanish at distinct t: contractible


def _divmod_diagonal(matrix):
    """The elimination of ``_diagonal`` through the public ``UPoly.divmod``,
    which inverts the pivot's leading coefficient on every call.  Returns the
    diagonal and the number of pivots tried."""
    a = [list(row) for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    diagonal, pivots = [], 0
    for k in range(min(rows, cols)):
        while True:
            entries = [(a[i][j].degree(), i, j) for i in range(k, rows)
                       for j in range(k, cols) if a[i][j]]
            if not entries:
                return diagonal, pivots
            _, pi, pj = min(entries)
            a[k], a[pi] = a[pi], a[k]
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            pivot = a[k][k]
            pivots += 1
            for row in a[k + 1:]:
                if row[k]:
                    q = row[k].divmod(pivot)[0]
                    row[k:] = [x - q * y if y else x
                               for x, y in zip(row[k:], a[k][k:])]
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = a[k][j].divmod(pivot)[0]
                    for row in a[k:]:
                        if row[k]:
                            row[j] = row[j] - q * row[k]
            if not any(row[k] for row in a[k + 1:]) and not any(a[k][k + 1:]):
                diagonal.append(pivot)
                break
    return diagonal, pivots


def test_diagonal_inverts_once_per_pivot(monkeypatch):
    # a rank-4 Koszul MF {c_i x_i, y_i} over Q(zeta_7), on a seeded line
    # through a point off the zero locus of the x_i
    rng = random.Random(4)
    field = CyclotomicField(7)
    n = 3
    ring = PolyRing(field, [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)])
    cs = [field.scalar(rng.randint(1, 5)) + rng.randint(1, 3) * field.zeta
          for _ in range(n)]
    mf = koszul_mf(ring, [c * x for c, x in zip(cs, ring.gens()[:n])], ring.gens()[n:])
    assert mf.rank0 == 4
    tring = PolyRing(field, ["t"], [1])
    tgen = tring.gen("t")
    images = [field.scalar(rng.randint(1, 4)) * tgen
              + tring.constant(field.zeta ** rng.randint(0, 6)) for _ in range(2 * n)]
    fiber = mf.restrict_to_line(images)
    calls = []
    inverse = ratfun._inverse_integers

    def counted(*args):
        calls.append(args)
        return inverse(*args)

    monkeypatch.setattr(ratfun, "_inverse_integers", counted)
    for delta in (fiber.delta0, fiber.delta1):
        m = [[UPoly.from_poly(p) for p in row] for row in delta]
        want, pivots = _divmod_diagonal(m)
        calls.clear()
        got = _diagonal(m)
        assert got == want
        assert [d.coeffs for d in got] == [d.coeffs for d in want]
        assert pivots > len(want) and len(calls) == pivots


def _seeded_upoly(rng, field, big):
    """Degree <= 2 (<= 1 when ``big``: then numerators and denominators go
    up to 2^64), a third of the entries zero."""
    if rng.random() < 0.3:
        return UPoly(field, [])
    top = 2 ** 64 if big else 4
    coeff = lambda: field.from_coeffs(
        [Fraction(rng.randint(-top, top), rng.randint(1, top)) if rng.random() < 0.7 else 0
         for _ in range(field.degree)])
    return UPoly(field, [coeff() for _ in range(rng.randint(1, 2 if big else 3))])


def _assert_same_diagonal(m):
    want, _pivots = _divmod_diagonal(m)
    got = _diagonal(m)
    assert [d.coeffs for d in got] == [d.coeffs for d in want]
    assert poly_mat_rank(m) == len(want)
    return got


@pytest.mark.parametrize("order", [1, 2, 4, 7, 12])
def test_diagonal_matches_divmod_reference(order):
    # coefficient-identical to the UPoly elimination: the pivots are the
    # same and the arithmetic is exact
    field = CyclotomicField(order)
    rng = random.Random(f"diagonal:{order}")
    zero = UPoly(field, [])
    deficient = 0
    for trial in range(24):
        big = trial % 4 == 0
        rows, cols = rng.randint(1, 3 if big else 4), rng.randint(1, 3 if big else 4)
        if trial % 3 == 0:  # a product through a narrower inner dimension
            inner = rng.randint(1, max(min(rows, cols) - 1, 1))
            b = [[_seeded_upoly(rng, field, big) for _ in range(inner)] for _ in range(rows)]
            c = [[_seeded_upoly(rng, field, False) for _ in range(cols)] for _ in range(inner)]
            m = [[sum((b[i][k] * c[k][j] for k in range(inner)), zero)
                  for j in range(cols)] for i in range(rows)]
        else:
            m = [[_seeded_upoly(rng, field, big) for _ in range(cols)] for _ in range(rows)]
        if trial % 5 == 1:  # a zero row and a zero column
            m[rng.randrange(rows)] = [zero] * cols
            j = rng.randrange(cols)
            for row in m:
                row[j] = zero
        deficient += len(_assert_same_diagonal(m)) < min(rows, cols)
    assert deficient >= 4
    assert _diagonal([]) == [] == _divmod_diagonal([])[0]  # 0 x k
    assert _diagonal([[], []]) == [] == _divmod_diagonal([[], []])[0]  # k x 0
    assert _assert_same_diagonal([[zero, zero], [zero, zero]]) == []


@pytest.mark.parametrize("order", [1, 2, 4, 7, 12])
def test_integer_steps_match_upoly_arithmetic(order):
    # one division and one update x - q * y of the elimination, each against
    # UPoly arithmetic (a wrong step can make the elimination loop forever)
    field = CyclotomicField(order)
    rng = random.Random(f"steps:{order}")
    entry = lambda p: ratfun._entry(p) if p else None
    upoly = lambda e: UPoly(field, [field._reduce(v, e[1]) for v in e[0]]) if e else \
        UPoly(field, [])
    checked = 0
    while checked < 40:
        x, p, y = (_seeded_upoly(rng, field, checked % 2 == 0) for _ in range(3))
        x = x * UPoly.gen(field) ** rng.randint(0, 2)
        if not (x and p and y) or x.degree() < p.degree():
            continue
        vectors, den = entry(p)
        inverse = ratfun._inverse_integers(field, vectors[-1], den)
        monic = ratfun._scaled(field, entry(p), inverse)
        assert upoly(monic) == p.monic()
        assert upoly(ratfun._quotient(field, entry(x), monic, inverse)) == x.divmod(p)[0]
        assert upoly(ratfun._sub_product(field, entry(x), entry(p), entry(y))) == x - p * y
        assert upoly(ratfun._sub_product(field, None, entry(p), entry(y))) == -(p * y)
        assert ratfun._sub_product(field, entry(p * y), entry(p), entry(y)) is None
        checked += 1


@pytest.mark.parametrize("n", [4, 5])
def test_diagonal_matches_divmod_reference_on_koszul_lines(n):
    # the 8 x 8 and 16 x 16 fibers, through the origin, through the common
    # zero t = -1 of the x_i, and contractible (the x_i vanish at distinct t,
    # so every diagonal entry is a unit)
    for offsets in ([0] * n, list(range(1, n + 1)), [1] * n):
        _rank, d0, d1 = _koszul_line(n, offsets)
        for m in (d0, d1):
            _assert_same_diagonal(m)


def _euclidean_diagonal(matrix):
    """``_diagonal`` with the full Euclidean step at every pivot, a unit
    included: pseudo-division, a row pass through the pivot column, a column
    pass, and a re-scan.  The reference for the unit-pivot shortcut."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    field = matrix[0][0].field if rows and cols else None
    a = [[ratfun._entry(p) if p else None for p in row] for row in matrix]
    diagonal = []
    for k in range(min(rows, cols)):
        while entries := [(len(a[i][j][0]), i, j) for i in range(k, rows)
                          for j in range(k, cols) if a[i][j]]:
            _, pi, pj = min(entries)
            a[k], a[pi] = a[pi], a[k]
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            pivot = a[k][k]
            inverse = ratfun._inverse_integers(field, pivot[0][-1], pivot[1])
            monic = ratfun._scaled(field, pivot, inverse)
            for row in a[k + 1:]:
                if row[k]:
                    q = ratfun._quotient(field, row[k], monic, inverse)
                    row[k:] = [ratfun._sub_product(field, x, q, y) if y else x
                               for x, y in zip(row[k:], a[k][k:])]
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = ratfun._quotient(field, a[k][j], monic, inverse)
                    for row in a[k:]:
                        if row[k]:
                            row[j] = ratfun._sub_product(field, row[j], q, row[k])
            if not any(row[k] for row in a[k + 1:]) and not any(a[k][k + 1:]):
                diagonal.append(pivot)
                break
        else:
            break
    return [UPoly(field, [field._reduce(v, den) for v in vectors])
            for vectors, den in diagonal]


def _seeded_scalar(rng, field):
    """A nonzero element of the field with small rational coordinates."""
    c = field.zero
    while not c:
        c = field.from_coeffs([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(field.degree)])
    return c


def _all_unit_pivots(rng, field, rows, cols, rank):
    """L . U . (a column permutation), L rows x rank and U rank x cols
    triangular with nonzero constants on the diagonal and t times a seeded
    polynomial (or 0) off it.  Each entry of row k of the trailing block
    L_kk . U is t times something except the constant L_kk U_kk, and that
    block is what is left after k unit pivots, so every pivot is a unit."""
    t = UPoly.gen(field)
    zero = UPoly(field, [])

    def off():
        if rng.random() < 0.25:
            return zero
        return t * UPoly(field, [_seeded_scalar(rng, field)
                                 for _ in range(rng.randint(1, 2))])

    constant = lambda: UPoly(field, [_seeded_scalar(rng, field)])
    lower = [[constant() if i == k else off() if i > k else zero
              for k in range(rank)] for i in range(rows)]
    upper = [[constant() if j == k else off() if j > k else zero
              for j in range(cols)] for k in range(rank)]
    order = rng.sample(range(cols), cols)
    return [[sum((lower[i][k] * upper[k][j] for k in range(rank)), zero)
             for j in order] for i in range(rows)]


def _no_unit_at_first(rng, field, rows, cols):
    """Every entry of degree 1 or 2: the first pivots have positive degree,
    and units appear only as their remainders."""
    return [[UPoly(field, [_seeded_scalar(rng, field) if rng.random() < 0.8
                           else field.zero for _ in range(rng.randint(1, 2))]
                   + [_seeded_scalar(rng, field)])
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("order", [1, 4, 7, 12])
def test_diagonal_unit_pivots_match_divmod_reference(order):
    field = CyclotomicField(order)
    rng = random.Random(f"unit pivots:{order}")
    zero = UPoly(field, [])
    shapes = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 3), (3, 1)]
    for trial, (rows, cols) in enumerate(shapes * 2):
        # every pivot a unit, full rank and rank-deficient
        rank = min(rows, cols) - trial % 2 if min(rows, cols) > 1 else 1
        m = _all_unit_pivots(rng, field, rows, cols, rank)
        got = _assert_same_diagonal(m)
        want, pivots = _divmod_diagonal(m)
        assert len(got) == rank == pivots and all(d.degree() == 0 for d in got)
        assert got == _euclidean_diagonal(m)
        # no unit until the first remainders
        m = _no_unit_at_first(rng, field, rows, cols)
        assert _assert_same_diagonal(m) == _euclidean_diagonal(m)
        # a mix: a unit-pivot block beside a block without units, rows mixed
        unit = _all_unit_pivots(rng, field, rows, cols, min(rows, cols))
        none = _no_unit_at_first(rng, field, rows, cols)
        m = [row_a + row_b for row_a, row_b in zip(unit, none)]
        rng.shuffle(m)
        if trial % 3 == 0:  # a zero row: rank-deficient
            m[rng.randrange(rows)] = [zero] * (2 * cols)
        assert _assert_same_diagonal(m) == _euclidean_diagonal(m)


def _counted(monkeypatch, *names):
    """Count the calls of each named ``ratfun`` kernel."""
    calls = {name: 0 for name in names}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    for name in names:
        monkeypatch.setattr(ratfun, name, counting(name, getattr(ratfun, name)))
    return calls


def test_diagonal_unit_pivot_takes_no_quotient(monkeypatch):
    field = CyclotomicField(7)
    rng = random.Random("unit pivot counts")
    for rows, cols, rank in [(3, 3, 3), (4, 4, 4), (4, 3, 2)]:
        m = _all_unit_pivots(rng, field, rows, cols, rank)
        want, pivots = _divmod_diagonal(m)
        calls = _counted(monkeypatch, "_quotient", "_inverse_integers")
        assert _diagonal(m) == want
        assert calls == {"_quotient": 0, "_inverse_integers": pivots}
        monkeypatch.undo()


@pytest.mark.parametrize("n", [4, 5])
def test_diagonal_koszul_lines_take_fewer_products(monkeypatch, n):
    # the unit pivots of the fibers skip their column-k products and their
    # column pass; the full Euclidean steps are the reference.  The lines
    # through one zero of all x_i have no unit pivot; on the contractible
    # line (the x_i vanish at distinct t) every diagonal entry is a unit.
    for offsets in ([0] * n, [1] * n, list(range(1, n + 1))):
        _rank, d0, d1 = _koszul_line(n, offsets)
        for m in (d0, d1):
            calls = _counted(monkeypatch, "_sub_product", "_quotient")
            want = _euclidean_diagonal(m)
            full = dict(calls)
            calls.update(dict.fromkeys(calls, 0))
            got = _diagonal(m)
            assert [d.coeffs for d in got] == [d.coeffs for d in want]
            if offsets == [1] * n:
                assert all(d.degree() == 0 for d in got)
                assert calls["_sub_product"] < full["_sub_product"]
                assert calls["_quotient"] < full["_quotient"]
            else:
                assert calls == full
            monkeypatch.undo()


def test_two_periodic_homology_rejects_wrong_shapes():
    with pytest.raises(ValueError, match="delta1 has wrong shape"):
        two_periodic_homology_dims([[t, one]], [[t]])  # delta1 must be 2 x 1
    with pytest.raises(ValueError, match="delta1 has wrong shape"):
        two_periodic_homology_dims([[t]], [[t], [t]])
    with pytest.raises(ValueError, match="delta1 has wrong shape"):
        two_periodic_homology_dims([], [[t]])  # delta0 is 0 x 1, delta1 1 x 0
    with pytest.raises(ValueError, match="delta0 has wrong shape"):
        two_periodic_homology_dims([[t], [t, t]], [[t, t]])
    with pytest.raises(ValueError, match="delta1 has wrong shape"):
        two_periodic_homology_dims([[t, t]], [[t], [t, t]])
    assert two_periodic_homology_dims([], []) == (0, 0)
    assert two_periodic_homology_dims([], [[], []]) == (None, 0)
    assert two_periodic_homology_dims([[], []], []) == (0, None)


def test_poly_mat_rank_rejects_ragged_matrix():
    with pytest.raises(ValueError, match="matrix has wrong shape"):
        poly_mat_rank([[t], [t, t]])
    assert poly_mat_rank([]) == 0 and poly_mat_rank([[], []]) == 0
    assert poly_mat_rank([[t, one], [t * t, t]]) == 1


def test_laurent_coefficients_of_no_orders_is_empty():
    for f in (RationalFunction(one, t), RationalFunction(t + one, t * t - one),
              RationalFunction(UPoly(F, []), t)):
        assert f.laurent_coefficients(F.zero, []) == []
        assert f.laurent_coefficients(F.scalar(2), []) == []
    f = RationalFunction(one, t)
    assert f.laurent_coefficients(F.zero, [-1, 0]) == [F.one, F.zero]
