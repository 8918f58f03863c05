import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dgmf import CyclotomicField, PolyRing, UPoly, cyclotomic_polynomial, linalg
from dgmf.cyclotomic import _inverse_integers
from dgmf.poly import substituter
from dgmf.ratfun import _diagonal


def _reference_divmod(num, den):
    """Exact division with remainder of rational coefficient lists
    (low-to-high), on Fractions."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = q[i] = num[i + len(den) - 1] / den[-1]
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def _reference_cyclotomic_polynomial(n):
    """``cyclotomic_polynomial`` before the Moebius product: x^n - 1 divided
    by Phi_d for every proper divisor d of n, by Fraction long division."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _reference_divmod(poly, _reference_cyclotomic_polynomial(d))
            assert not rem
    return tuple(poly)


def test_cyclotomic_polynomial_matches_the_recursive_reference():
    for n in range(1, 201):
        phi = cyclotomic_polynomial(n)
        assert phi == _reference_cyclotomic_polynomial(n), n
        assert all(type(c) is Fraction for c in phi)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_powers_of_zeta_match_the_reference_reduction():
    # the reduction rows, zeta and zeta^k for k in [-2N, 2N] as before the
    # one table: the old shift recurrence, the degree-1 branch of zeta and
    # x^(k mod N) mod Phi_N by long division
    for order in range(1, 41):
        F = CyclotomicField(order)
        phi = _reference_cyclotomic_polynomial(order)
        zd = [-int(c) for c in phi[:-1]]
        row, rows = zd, []
        for _ in range(max(1, F.degree - 1)):
            rows.append([(i, c) for i, c in enumerate(row) if c])
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [x + top * y for x, y in zip(row, zd)]
        assert F._reduction == rows
        zeta = (F.scalar(1 if order == 1 else -1) if F.degree == 1 else
                F.from_coeffs([0, 1] + [0] * (F.degree - 2)))
        assert (F.zeta.ints, F.zeta.den) == (zeta.ints, zeta.den)
        for k in range(-2 * order, 2 * order + 1):
            _, rem = _reference_divmod([0] * (k % order) + [1], phi)
            want = [int(c) for c in rem] + [0] * (F.degree - len(rem))
            got = F.zeta_power(k)
            assert (list(got.ints), got.den) == (want, 1), (order, k)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    # Phi_5 = 1 + x + x^2 + x^3 + x^4
    assert cyclotomic_polynomial(5) == (Fraction(1),) * 5
    # Phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (Fraction(1), Fraction(0), Fraction(-1),
                                         Fraction(0), Fraction(1))


def test_zeta4_squares_to_minus_one():
    F = CyclotomicField(4)
    assert F.zeta * F.zeta == F.scalar(-1)


def test_zeta5_inverse_is_fourth_power():
    F = CyclotomicField(5)
    assert F.zeta.inverse() == F.zeta ** 4


def test_root_of_unity_relation():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        F = CyclotomicField(n)
        assert F.zeta ** n == F.one


def test_rational_subfield():
    F = CyclotomicField(8)
    half = F.scalar(Fraction(1, 2))
    assert half.is_rational() and half.rational_value() == Fraction(1, 2)
    assert not F.zeta.is_rational()


def _scalars(order):
    F = CyclotomicField(order)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.lists(coeff, min_size=F.degree, max_size=F.degree).map(F.from_coeffs)


@settings(max_examples=300, deadline=None)
@given(_scalars(5), _scalars(5), _scalars(5))
def test_field_axioms(a, b, c):
    F = CyclotomicField(5)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + F.zero == a and a * F.one == a
    assert a - a == F.zero


@settings(max_examples=200, deadline=None)
@given(_scalars(12))
def test_inverse(a):
    F = CyclotomicField(12)
    if a:
        assert a * a.inverse() == F.one
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@settings(max_examples=100, deadline=None)
@given(_scalars(8))
def test_str_parse_round_trip(a):
    F = CyclotomicField(8)
    assert F.parse(str(a)) == a


def test_cross_field_mixing_rejected():
    F4, F5 = CyclotomicField(4), CyclotomicField(5)
    with pytest.raises(ValueError):
        F4.zeta + F5.zeta


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 12])
def test_parse_reads_every_power_of_z(order):
    F = CyclotomicField(order)
    rng = random.Random(order)
    for _ in range(20):
        a = F.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(F.degree)])
        assert F.parse(str(a)) == a
    assert F.parse("z^-1") == F.zeta.inverse()
    assert F.parse(f"z^{order + 1}") == F.zeta
    # powers at and past 2*phi(N) - 1, and negative ones, next to other terms
    high = 2 * F.degree + 1
    assert F.parse(f"1 + 3/2*z^{high} - z^-2") == (
        F.one + Fraction(3, 2) * F.zeta ** high - F.zeta.inverse() ** 2)


@pytest.mark.parametrize("text", ["z^^2", "z^", "z2", "*z", "3**z", "1 +",
                                  "1 + + + z", "+"])
def test_parse_rejects_malformed_text(text):
    # a repeated or missing ^, a dangling * or a dangling sign; a later term
    # takes its separating sign and one of its own, so "1 + + z" is 1 + z
    with pytest.raises(ValueError):
        CyclotomicField(4).parse(text)


def _reference_parse(F, text):
    """``CyclotomicField.parse`` before the one literal grammar: its own
    split at "+" (after "- " becomes "+ -"), then ``Fraction`` and ``int``
    on the pieces.  ``test_poly`` compares the grammar against it."""
    text = text.strip()
    if not text:
        raise ValueError("empty scalar literal")
    tokens = text.replace("- ", "+ -").split("+")
    total = F.zero
    for i, tok in enumerate(tokens):
        tok = tok.strip()
        if not tok:
            if i == 0:  # a leading sign, as in "- z"
                continue
            raise ValueError(f"a sign with no term after it in {text!r}")
        if "z" in tok:
            head, _, tail = tok.partition("z")
            head, tail = head.strip(), tail.strip()
            if head in ("", "-"):
                coeff = Fraction(-1 if head == "-" else 1)
            else:
                coeff = Fraction(head[:-1] if head.endswith("*") else head)
            if tail and not tail.startswith("^"):
                raise ValueError(f"bad power of z in {tok!r}")
            power = int(tail[1:]) if tail else 1
        else:
            coeff = Fraction(tok)
            power = 0
        total = total + coeff * F.zeta_power(power)
    return total


def _reference_product(F, a, b):
    """Schoolbook Fraction convolution, then division by the monic Phi_N
    from the top coefficient down."""
    d = F.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            prod[i + j] += ai * bj
    phi = cyclotomic_polynomial(F.order)
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        for i, p in enumerate(phi):
            prod[k - d + i] -= c * p
    return tuple(prod[:d])


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 12])
def test_product_matches_fraction_reference(order):
    F = CyclotomicField(order)
    rng = random.Random(f"product:{order}")

    def coeff():
        bits = rng.choice([3, 20, 64])
        return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))

    def element(kind):
        if kind == "zero":
            return F.zero
        if kind == "rational":
            return F.scalar(coeff())
        cs = [coeff() if rng.random() < 0.8 else 0 for _ in range(F.degree)]
        if F.degree > 1 and not any(cs[1:]):
            cs[-1] = Fraction(-(2 ** 64) + 1, 2 ** 64 - 59)
        a = F.from_coeffs(cs)
        assert a.coeffs == tuple(map(Fraction, cs))
        return a

    kinds = ["zero", "rational", "general"]
    for ka in kinds:
        for kb in kinds:
            for _ in range(60 if ka == kb == "general" else 8):
                a, b = element(ka), element(kb)
                if F.degree > 1 and ka == "general":
                    assert not a.is_rational()
                product = a * b
                assert product.coeffs == _reference_product(F, a, b)
                assert all(type(c) is Fraction for c in product.coeffs)
                assert product == b * a


def test_zero_and_one_are_shared_per_order():
    for n in (1, 4, 7):
        assert CyclotomicField(n).zero is CyclotomicField(n).zero
        assert CyclotomicField(n).one is CyclotomicField(n).one
        assert CyclotomicField(n).zero == 0 and CyclotomicField(n).one == 1
    assert CyclotomicField(4).one.field == CyclotomicField(4)


def _reference_inverse(a):
    """The extended Euclidean algorithm in Q[z] against Phi_N, on Fractions."""
    F = a.field
    if a.is_rational():
        return F.scalar(1 / a.coeffs[0])
    r0, r1 = list(F.modulus), list(a.coeffs)
    while r1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [], [Fraction(1)]  # Bezout coefficients of a
    while r1:
        q, r = _reference_divmod(r0, r1)
        s_new = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s_new[i + j] -= qi * sj
        while s_new and s_new[-1] == 0:
            s_new.pop()
        r0, r1, s0, s1 = r1, r, s1, s_new
    assert len(r0) == 1  # gcd(a, Phi_N) is a nonzero constant
    return F.from_coeffs([si / r0[0] for si in s0])


# N = 2 (mod 4) and every order with phi(N) = 8 next to the workloads' fields
INVERSE_ORDERS = [1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15, 16, 18, 20, 24]


@pytest.mark.parametrize("order", INVERSE_ORDERS)
def test_inverse_matches_euclid_reference(order):
    F = CyclotomicField(order)
    rng = random.Random(f"inverse:{order}")

    def coeff():
        bits = rng.choice([3, 20, 64])
        return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))

    elements = [F.scalar(Fraction(-3, 7)), F.scalar(-(2 ** 64) + 1), F.zeta,
                -F.zeta ** (order - 1), F.one + F.zeta]
    for _ in range(60):
        cs = [coeff() if rng.random() < 0.8 else 0 for _ in range(F.degree)]
        elements.append(F.from_coeffs(cs))
        elements.append(F.scalar(-abs(coeff()) or -1))  # a negative rational
    for a in elements:
        if not a:
            continue
        inv = a.inverse()
        assert inv.coeffs == _reference_inverse(a).coeffs
        assert all(type(c) is Fraction for c in inv.coeffs)
        assert a * inv == F.one
        # the integer form, rational or not, is the inverse in lowest terms,
        # also from a form that is not
        want = (list(inv.ints), inv.den)
        assert _inverse_integers(F, list(a.ints), a.den) == want
        assert _inverse_integers(F, [6 * v for v in a.ints], 6 * a.den) == want
        assert _reference_inverse_integers(F, list(a.ints), a.den) == want


def _reference_inverse_integers(field, ints, den):
    """``_inverse_integers`` before the Galois norm: column k of the integer
    matrix M is ints * z^k mod Phi_N, so M x = e_0 says ints * x = 1 and
    the inverse is den * x.  Bareiss elimination keeps every entry an
    integer; back substitution then finds X = D x, with D the last pivot
    (+-det M), by exact integer division."""
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


@pytest.mark.parametrize("order", range(1, 31))
def test_inverse_integers_match_the_bareiss_reference(order):
    # numerators up to 2^200 over denominators other than 1, units, rationals
    # and forms that are not in lowest terms
    F = CyclotomicField(order)
    rng = random.Random(f"bareiss:{order}")
    forms = [(list(F.zeta_power(k).ints), 1) for k in range(order)]
    forms += [([1] * F.degree, 3), ([-12] + [0] * (F.degree - 1), 8)]
    for _ in range(30 if F.degree <= 8 else 6):  # the reference is cubic in phi(N)
        bits = rng.choice([4, 64, 200])
        ints = [rng.randint(-2 ** bits, 2 ** bits) if rng.random() < 0.8 else 0
                for _ in range(F.degree)]
        ints[rng.randrange(F.degree)] = rng.randint(1, 2 ** bits)
        forms.append((ints, rng.randint(2, 2 ** bits)))
    for ints, den in forms:
        for scale in (1, rng.choice([6, rng.randint(2, 2 ** 64)])):
            scaled = ([scale * v for v in ints], scale * den)
            want = _reference_inverse_integers(F, *scaled)
            assert _inverse_integers(F, *scaled) == want, (order, ints, den, scale)
            inv_ints, inv_den = want
            assert inv_den > 0 and gcd(inv_den, *inv_ints) == 1


def _assert_canonical(s):
    """``s`` stores its lowest-terms pair, so it equals and hashes like the
    same value rebuilt from its coefficients or its text."""
    F = s.field
    assert type(s.ints) is tuple and len(s.ints) == F.degree
    assert all(type(x) is int for x in s.ints) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.ints) == 1
    if not any(s.ints):
        assert s.den == 1
    for t in (F.from_coeffs(s.coeffs), F.parse(str(s))):
        assert t == s and hash(t) == hash(s)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 12])
def test_every_result_is_canonical(order):
    F = CyclotomicField(order)
    rng = random.Random(f"canonical:{order}")

    def element():
        kind = rng.randrange(5)
        if kind == 0:
            return F.from_coeffs([Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6]))
                                  if rng.random() < 0.7 else 0 for _ in range(F.degree + 1)])
        if kind == 1:
            return F.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        if kind == 2:
            return F.zeta_power(rng.randint(-order, 2 * order))
        if kind == 3:
            return F.parse(f"{rng.randint(-3, 3)}/2 - 4/6*z^{rng.randint(-3, 5)}")
        return F.zero

    produced = [F.zero, F.one, F.zeta, F.scalar(Fraction(4, 6)), F.scalar(-2)]
    for _ in range(40):
        a, b = element(), element()
        produced += [a, b, a + b, a - b, b - a, -a, a * b, a * 6, Fraction(1, 4) * a,
                     a + Fraction(3, 4), 2 - a, a ** 3]
        if b:
            produced += [a / b, b.inverse(), 3 / b, b ** -2]
    for rows, cols in [(3, 4), (4, 3), (3, 3)]:
        m = [[element() for _ in range(cols)] for _ in range(rows)]
        m[-1] = [x + y for x, y in zip(m[0], m[1])]  # rank deficient
        r, _ = linalg.rref(m, F)
        produced += [x for row in r for x in row]
        produced += [x for v in linalg.nullspace(m, F) for x in v]
        x = linalg.solve(m, [row[0] * 2 for row in m], F)
        produced += x
        square = [[element() for _ in range(3)] for _ in range(3)]
        if linalg.rank(square, F) == 3:
            produced += [x for row in linalg.invert(square, F) for x in row]
    R = PolyRing(F, ["x", "y"])
    S = PolyRing(F, ["u"])
    u = S.gen("u")
    p = sum((element() * R.gen("x") ** i * R.gen("y") ** (3 - i) for i in range(4)), R.zero)
    image = substituter(R, [element() * u + element(), element() * u ** 2], S)(p)
    produced += list(image.terms.values())
    t = UPoly.gen(F)
    upolys = [[UPoly(F, [element() for _ in range(3)]) * (t - element()) for _ in range(3)]
              for _ in range(2)]
    produced += [c for d in _diagonal(upolys) for c in d.coeffs]
    for s in produced:
        _assert_canonical(s)
