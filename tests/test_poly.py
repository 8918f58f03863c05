import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgmf import CyclotomicField, GroupElement, Poly, PolyRing, UPoly, koszul_mf
from dgmf.poly import exponents_of_weight, substituter

F = CyclotomicField(4)
R = PolyRing(F, ["x", "y"], [1, 2])


def _polys():
    coeff = st.integers(min_value=-4, max_value=4).map(F.scalar)
    term = st.tuples(st.integers(0, 3), st.integers(0, 3), coeff)
    return st.lists(term, max_size=5).map(
        lambda ts: sum((Poly(R, {(a, b): c}) for (a, b, c) in ts), R.zero))


@settings(max_examples=200, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p - p == R.zero


@settings(max_examples=200, deadline=None)
@given(_polys(), _polys())
def test_weight_additivity(p, q):
    wp, _ = p.weight()
    wq, _ = q.weight()
    if isinstance(wp, int) and isinstance(wq, int):
        w, _ = (p * q).weight()
        assert w in (wp + wq, "zero")


def test_weight_verdicts():
    assert R.zero.weight() == ("zero", None)
    w, _ = R.parse("x^2*y").weight()
    assert w == 4
    w, witness = R.parse("x + y").weight()
    assert w == "inhomogeneous" and witness is not None
    assert R.parse("x^2 + y").is_quasihomogeneous_of(2)


def test_parse_examples():
    x, y = R.gen("x"), R.gen("y")
    assert R.parse("x^2 + (-2)*y") == x * x - 2 * y
    assert R.parse("(1 + z)*x*y") == (F.one + F.zeta) * x * y
    assert R.parse("0") == R.zero
    assert R.parse("-x") == -x


def test_parse_rejects_a_negative_variable_exponent():
    for text in ("x^-1", "3*y^-2 + x", "x^2*x^-1", "(1 + z)*x^-3*y"):
        with pytest.raises(ValueError, match="negative exponent"):
            R.parse(text)
    # negative powers of zeta stay legal, and x^0 is 1
    assert R.parse("z^-1*x") == F.zeta.inverse() * R.gen("x")
    assert R.parse("x^0*y") == R.gen("y")


@pytest.mark.parametrize("text", ["x**2", "*x", "x*", "x^", "x^^2", "z^^2*x",
                                  "x^2 +", "x -", "+"])
def test_parse_rejects_malformed_text(text):
    # an empty factor or exponent, a repeated ^, or a dangling sign or *
    with pytest.raises(ValueError):
        R.parse(text)


@pytest.mark.parametrize("text", ["", "  ", "x + - - x", "- - x", "+ + x", "x - + -y"])
def test_parse_rejects_empty_text_and_repeated_signs(text):
    # a term carries at most its separating sign and one sign of its own
    with pytest.raises(ValueError):
        R.parse(text)


def test_mixing_poly_and_upoly_raises_type_error():
    t = UPoly.gen(F)
    with pytest.raises(TypeError):
        R.gen("x") * t
    with pytest.raises(TypeError):
        UPoly.constant(F, t)
    with pytest.raises(TypeError):
        R.constant(t)
    with pytest.raises(TypeError):
        GroupElement.diagonal(R, [t, 1])
    with pytest.raises(TypeError):
        GroupElement(R, [[t, 0], [0, 1]])
    assert R.gen("x") != t and t != R.gen("x")


def test_parse_reads_every_form_the_writers_emit():
    x, y = R.gen("x"), R.gen("y")
    assert R.parse("x + -1*y") == x - y
    assert R.parse("(1 + z)*x") == (F.one + F.zeta) * x
    assert R.parse("(-z)*x^2 + 1/2*y") == -F.zeta * x * x + Fraction(1, 2) * y
    assert R.parse("z^-1") == R.constant(F.zeta.inverse())
    assert R.parse("(0)") == R.zero
    assert R.parse("-x") == -x
    assert R.parse("x - -1*y") == x + y


@settings(max_examples=100, deadline=None)
@given(_polys())
def test_str_parse_round_trip(p):
    assert R.parse(str(p)) == p


def test_monomials_of_weight():
    # weights (1, 2): weight 4 monomials: x^4, x^2 y, y^2
    assert set(R.monomials_of_weight(4)) == {(4, 0), (2, 1), (0, 2)}
    assert R.monomials_of_weight(-1) == []
    # one enumerator, in lexicographic order, against a brute-force search
    for weights in ([], [1], [1, 2], [2, 1, 3], [1, 1, 1, 1]):
        for target in range(-1, 7):
            brute = sorted(e for e in itertools.product(range(target + 1), repeat=len(weights))
                           if sum(x * w for x, w in zip(e, weights)) == target)
            assert exponents_of_weight(weights, target) == brute


def test_derivative_and_evaluate():
    p = R.parse("x^3 + x*y")
    assert p.derivative(0) == R.parse("3*x^2 + y")
    assert p.derivative(1) == R.parse("x")
    assert p.evaluate((F.scalar(2), F.scalar(3))) == F.scalar(14)


def test_substitute_cross_ring():
    S = PolyRing(F, ["u"], [1])
    p = R.parse("x^2 + y")
    q = p.substitute([S.gen("u"), S.parse("u^2")])
    assert q == S.parse("2*u^2")


def test_cross_ring_arithmetic_rejected():
    S = PolyRing(F, ["u"], [1])
    with pytest.raises(ValueError):
        R.gen("x") + S.gen("u")


def test_substitute_into_an_explicit_ring():
    S = PolyRing(F, ["u"], [1])
    point = PolyRing(F, [], [])
    assert substituter(point, [], S)(point.constant(3)) == S.constant(3)
    assert substituter(point, [], S)(point.zero) == S.zero
    with pytest.raises(ValueError):
        substituter(R, [S.gen("u")], S)  # one image per variable
    with pytest.raises(ValueError):
        substituter(R, [S.gen("u"), R.gen("y")], S)  # image outside S


# -- the shared substitution map against the per-term loop -----------------


def _naive_substitute(p, images, target):
    """The per-term loop of the former ``Poly.substitute``: each term's image
    built from powers of the images, then added to the running sum."""
    result = target.zero
    for e, c in p.terms.items():
        term = target.constant(c)
        for img, exp in zip(images, e):
            if exp:
                term = term * img ** exp
        result = result + term
    return result


def _seeded_scalar(rng, field):
    coeffs = [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))
              for _ in range(field.degree)]
    if rng.random() < 0.4:
        coeffs[1:] = [0] * (field.degree - 1)
    return field.from_coeffs(coeffs)


def _seeded_poly(rng, ring, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, 5) for _ in range(ring.nvars))
        terms[e] = _seeded_scalar(rng, ring.field)
    return Poly(ring, terms)


@pytest.mark.parametrize("order", [4, 7, 12])
def test_substituter_matches_naive_substitution(order):
    field = CyclotomicField(order)
    rng = random.Random(order)
    source = PolyRing(field, ["x", "y", "z"], [1, 2, 3])
    targets = [PolyRing(field, ["t"], [1]), PolyRing(field, ["u", "v"], [1, 1])]
    for trial in range(12):
        target = targets[trial % 2]
        images = [_seeded_poly(rng, target, max_terms=3) for _ in range(3)]
        images[rng.randrange(3)] = target.constant(_seeded_scalar(rng, field))
        if trial % 3 == 0:
            images[rng.randrange(3)] = target.zero
        sub = substituter(source, images, target)
        # one map, many Polys: the monomial table is shared between them
        for _ in range(5):
            p = _seeded_poly(rng, source)
            assert sub(p) == _naive_substitute(p, images, target) \
                == p.substitute(images)
        # terms that cancel: x^2 - y with y -> (image of x)^2, plus a
        # constant that survives
        x, y = source.gen("x"), source.gen("y")
        images[1] = images[0] * images[0]
        p = x * x - y + source.constant(2)
        assert substituter(source, images, target)(p) == target.constant(2)
    # a zero-variable source maps constants into the target
    point = PolyRing(field, [], [])
    for _ in range(3):
        c = point.constant(_seeded_scalar(rng, field))
        for target in targets:
            assert substituter(point, [], target)(c) \
                == _naive_substitute(c, [], target) == target.constant(c.constant_value())


def _per_term_substitute(p, images, target):
    """The per-term Scalar loop: each monomial image built by repeated Poly
    products, in the order of the substituter's power table, then each of its
    terms times the coefficient added Scalar by Scalar into one dict.  The
    (exponent, coefficient) list keeps exponents in the order of their first
    occurrence, without those that sum to zero."""
    zero = target.field.zero
    sums = {}
    for e, c in p.terms.items():
        m = target.one
        for img, k in zip(images, e):
            if k:
                power = img
                for _ in range(k - 1):
                    power = power * img
                m = power if m == target.one else m * power
        for e2, c2 in m.terms.items():
            sums[e2] = sums.get(e2, zero) + c * c2
    return [(e2, v) for e2, v in sums.items() if v]


@pytest.mark.parametrize("order", [1, 2, 4, 7, 12])
def test_substituter_matches_per_term_scalar_loop(order):
    field = CyclotomicField(order)
    rng = random.Random(f"per-term:{order}")

    def scalar(top, nonzero=False):
        """Numerators and denominators up to ``top``; about a third of the
        coordinates zero, but not the first when ``nonzero``."""
        coeffs = [Fraction(rng.randint(-top, top), rng.randint(1, top))
                  if rng.random() < 0.7 else 0 for _ in range(field.degree)]
        if nonzero:
            coeffs[0] = Fraction(rng.randint(1, top), rng.randint(1, top))
        return field.from_coeffs(coeffs)

    source = PolyRing(field, ["x", "y"], [1, 1])
    target = PolyRing(field, ["t", "u"], [1, 1])
    point = PolyRing(field, [], [])
    for trial in range(16):
        top = 2 ** 64 if trial % 2 else 5
        exps = [(i, j) for i in range(3) for j in range(3)]
        images = [Poly(target, {e: scalar(top) for e in rng.sample(exps, rng.randint(1, 3))})
                  for _ in range(2)]
        p = Poly(source, {e: scalar(top) for e in rng.sample(exps, rng.randint(1, 6))})
        got = substituter(source, images, target)(p)
        assert list(got.terms.items()) == _per_term_substitute(p, images, target)
        # evaluation is substitution into the single exponent ()
        values = [scalar(top), scalar(top)]
        want = _per_term_substitute(p, [point.constant(v) for v in values], point)
        assert p.evaluate(values) == (want[0][1] if want else field.zero)
    # cancelling terms: with x, y -> t the t^1 sums cancel and are dropped, in
    # first-occurrence order, and x^2 - y^2 maps to zero
    c, d = scalar(2 ** 64, nonzero=True), scalar(2 ** 64, nonzero=True)
    t = target.gen("t")
    sub = substituter(source, [t, t], target)
    x, y = source.gen("x"), source.gen("y")
    p = Poly(source, {(0, 2): d, (1, 0): c, (0, 1): -c, (0, 0): c})
    assert list(sub(p).terms.items()) == [((2, 0), d), ((0, 0), c)] \
        == _per_term_substitute(p, [t, t], target)
    assert sub(x * x - y * y) == target.zero and not sub(x * x - y * y).terms
    assert (c * x - c * y).evaluate([d, d]) == field.zero
    # a point of another field is rejected, not read in the wrong basis
    other = CyclotomicField(3)
    with pytest.raises(ValueError, match="different cyclotomic field"):
        x.evaluate([other.zeta, other.one])
    mf = koszul_mf(source, [x], [y])
    with pytest.raises(ValueError, match="different cyclotomic field"):
        mf.restrict_to_point([other.zeta, other.one])


@pytest.mark.parametrize("order", [4, 7, 12])
def test_pow_matches_repeated_product(order):
    field = CyclotomicField(order)
    rng = random.Random(order)
    ring = PolyRing(field, ["x", "y"], [1, 1])
    bases = [
        (_seeded_scalar(rng, field) + field.zeta, field.one),
        (_seeded_poly(rng, ring, max_terms=3) + ring.gen("x"), ring.one),
        (UPoly(field, [_seeded_scalar(rng, field), field.zeta, field.one]),
         UPoly.constant(field, 1)),
    ]
    for base, one in bases:
        product = one
        for n in range(10):
            assert base ** n == product
            product = product * base
