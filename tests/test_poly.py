import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgmf import (CyclotomicField, GroupElement, Poly, PolyRing, UPoly, fundamental_mf,
                  koszul_mf)
from dgmf.cyclotomic import Scalar
from dgmf.poly import (_monomial_table, _shifted, _sum_of_products, _terms, exponents_of_weight,
                       substituter)
from dgmf.specfile import parse_spec
from test_cyclotomic import _reference_parse as _reference_scalar_parse

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


@settings(max_examples=100, deadline=None)
@given(_polys())
def test_scalar_minus_poly_is_the_negated_difference(p):
    # a scalar or an int on the left of ``-`` runs Poly.__rsub__
    for s in (1, 3, -1, Fraction(2, 7), F.zeta, 1 - F.zeta):
        diff = s - p
        assert isinstance(diff, Poly) and diff == -(p - s)
        assert diff + p == R.constant(s)


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


# -- the polynomial reader before the one literal grammar, as a reference --


def _reference_parse(R, text, scalar=_reference_scalar_parse):
    """``PolyRing.parse`` before the one literal grammar: terms split at
    top-level signs and factors at top-level "*", character by character,
    then ``Fraction`` and ``int`` on the pieces.  ``scalar(field, text)``
    reads a parenthesised factor; by default the old scalar reader."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    if text == "0":
        return R.zero
    terms = {}
    zero = R.field.zero
    for i, term in enumerate(_reference_split_terms(text)):
        e, c = _reference_term(R, term, 2 if i else 1, scalar)
        s = terms.get(e, zero) + c
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return Poly(R, terms)


def _reference_term(R, term, signs, scalar):
    term = term.strip()
    sign = 1
    while term and term[0] in "+-":
        if not signs:
            raise ValueError(f"a repeated sign in {term!r}")
        signs -= 1
        if term[0] == "-":
            sign = -sign
        term = term[1:].strip()
    if not term:
        raise ValueError("a sign with no term after it")
    coeff = None
    exps = [0] * R.nvars
    for factor in _reference_split_factors(term):
        factor = factor.strip()
        if not factor:
            raise ValueError(f"empty factor in {term!r}")
        if factor.startswith("("):
            c = scalar(R.field, factor[1:-1])
        else:
            base, caret, power = factor.partition("^")
            base = base.strip()
            if base in R.names:
                k = int(power) if caret else 1
                if k < 0:
                    raise ValueError(f"negative exponent on a variable: {factor}")
                exps[R.names.index(base)] += k
                continue
            if base == "z":
                c = R.field.zeta_power(int(power) if caret else 1)
            else:
                c = R.field.scalar(Fraction(base))
                if caret:
                    raise ValueError(f"unexpected power on constant: {factor}")
        coeff = c if coeff is None else coeff * c
    if coeff is None:
        coeff = R.field.one
    return tuple(exps), (-coeff if sign < 0 else coeff)


def _reference_split_terms(text):
    terms, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip() and not cur.rstrip().endswith(("^", "*", "+", "-")):
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        terms.append(cur)
    return terms


def _reference_split_factors(term):
    factors, depth, cur = [], 0, ""
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            factors.append(cur)
            cur = ""
        else:
            cur += ch
    factors.append(cur)
    return factors


def _one_grammar_reference(R, text):
    """The old polynomial reader with every parenthesised scalar read as a
    polynomial without variables, which is what the one grammar does."""
    def scalar(F, inner):
        return _reference_parse(PolyRing(F, []), inner, scalar).constant_value()
    return _reference_parse(R, text, scalar)


def _read_or_none(read, text):
    try:
        return read(text)
    except (ValueError, ZeroDivisionError):
        return None


# What only int() and Fraction() read, and the one grammar rejects: a
# numeral that runs into a name (2z, 1e2, 1_0, x^2_0), a sign after ^ or *,
# a decimal point without a digit on each side, or a digit outside 0-9.
_LENIENT = re.compile(r"[0-9]\s*[^\W\d]|[\^*]\s*\+|\*\s*-|(?<![0-9])\.|\.(?![0-9])"
                      r"|(?![0-9])\d")


def _verdict_change(R, text, new, old):
    """The name of the deliberate verdict change from the old reader's
    ``old`` to the grammar's ``new`` on ``text``, or None."""
    if new is not None and old is None and new == _read_or_none(
            lambda t: _one_grammar_reference(R, t), text):
        return "a scalar is a polynomial without variables"
    if new is None and old is not None:
        if _LENIENT.search(text):
            return "no implicit product, no lenient numeral"
        if text.count("(") != text.count(")"):
            # the old reader dropped the last character of a "(" factor
            return "a parenthesis must close"
        if re.search(r"(?:^|\()\s*\+\s*-", text):
            # the old scalar reader skipped an empty piece before "+"
            return "one sign before the first term"
    return None


A1 = """[field]
order = 4
[potential]
variables = x:1
W = x^2
d = 2
[group]
generator = diag(-1)
J = diag(-1)
J_sqrt = z
[curve]
component c0
bundle c0 = 0
marking c0 at 1 gamma diag(1) rig 1
marking c0 at -1 gamma diag(1) rig z
divisor c0 at 0 mult 1
eta c0 = (2) / (t^2 + (-1))
"""


def _literals():
    """(ring, text, read as a scalar?): str() of seeded random Scalars and
    Polys, and every entry of the A_1 MFs with divisor multiplicity 1..7."""
    rng = random.Random(0)
    for order in (1, 2, 3, 4, 5, 7, 12):
        F = CyclotomicField(order)
        R0, R2 = PolyRing(F, []), PolyRing(F, ["x", "y"])

        def scalar():
            return F.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(F.degree)])

        for _ in range(20):
            yield R0, str(scalar()), True
            p = R2.zero
            for _ in range(rng.randint(0, 4)):
                p = p + Poly(R2, {(rng.randint(0, 3), rng.randint(0, 3)): scalar()})
            yield R2, str(p), False
    for m in range(1, 8):
        mf = fundamental_mf(parse_spec(A1.replace("mult 1", f"mult {m}")).spin_spec()).mf
        for text in sorted({str(c) for M in (mf.delta0, mf.delta1) for row in M
                            for c in row} | {str(mf.potential)}):
            yield mf.ring, text, False


_TOKEN = re.compile(r"[0-9]+|[^\W\d]\w*|\S")
_MUTATIONS = ["", " ", "+", "-", "*", "^", "/", ".", "(", ")", "0", "1", "2", "z", "x",
              "e", "_0", "1-z", "2z", "3 z", "x^2_0", "z*z", "- -", "(1 + z)", "^+2", "1e2", "\u0662"]


def _mutants(text, rng, count):
    """``count`` seeded copies of ``text`` with one token replaced by, or
    followed by, one of ``_MUTATIONS``."""
    spans = [m.span() for m in _TOKEN.finditer(text)]
    for _ in range(count):
        a, b = rng.choice(spans)
        r = rng.choice(_MUTATIONS)
        yield text[:a] + r + text[b:] if rng.random() < 0.5 else text[:b] + r + text[b:]


def test_one_grammar_matches_the_reference_readers():
    # equal values or both reject, except for the deliberate verdict changes
    # pinned below; the writers' own output always reads the same
    rng = random.Random(1)
    seen = Counter()
    for R, text, is_scalar in _literals():
        if is_scalar:
            F = R.field
            new_read = lambda t: R.constant(F.parse(t))
            old_read = lambda t: R.constant(_reference_scalar_parse(F, t))
        else:
            new_read, old_read = R.parse, lambda t: _reference_parse(R, t)
        assert new_read(text) == old_read(text), text
        for t in _mutants(text, rng, 8):
            new, old = _read_or_none(new_read, t), _read_or_none(old_read, t)
            if (new is None) == (old is None) and (new is None or new == old):
                seen["same"] += 1
                continue
            change = _verdict_change(R, t, new, old)
            assert change, (t, is_scalar, new, old)
            seen[change] += 1
    assert seen["same"] > 2000 and seen["a scalar is a polynomial without variables"] \
        and seen["no implicit product, no lenient numeral"], seen


@pytest.mark.parametrize("text, same_as", [
    ("1-z", "1 - z"), ("1 -z", "1 - z"), ("1 + - z", "1 - z"), ("1 + + z", "1 + z"),
    ("z*z", "z^2"), ("2*3", "6"), ("(1 + z)", "1 + z"), ("((1))", "1"),
    ("-(1 - z)", "-1 + z")])
def test_a_scalar_reads_every_polynomial_form(text, same_as):
    # the old scalar reader rejected these, although a polynomial read them
    with pytest.raises(ValueError):
        _reference_scalar_parse(F, text)
    assert F.parse(text) == _reference_scalar_parse(F, same_as)
    assert R.parse(f"({text})*x") == _reference_parse(R, f"({same_as})*x")


@pytest.mark.parametrize("text", ["2z", "3 z", "1z", "1/2 z", "1e2", "1_0", ".5", "5.",
                                  "\u0662", "x^+2", "x^2_0", "z^+2", "x*-3",
                                  "(1 + z]", "(1 + z(", "+-1", "(+ -z)*x"])
def test_parse_rejects_what_only_the_old_readers_read(text):
    # implicit products and numerals that only int() and Fraction() read, a
    # "(" factor whose last character the old reader dropped unread, and a
    # doubled sign before a scalar's first term; no writer emits them
    olds = [_read_or_none(lambda t: _reference_parse(R, t), text)]
    if "x" not in text:
        olds.append(_read_or_none(lambda t: _reference_scalar_parse(F, t), text))
        with pytest.raises(ValueError):
            F.parse(text)
    assert any(old is not None for old in olds)
    with pytest.raises(ValueError):
        R.parse(text)


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


# -- the integer product kernel against the Scalar path ----------------------


def _scalar_product(p, q):
    """The former ``Poly.__mul__``: each term pair multiplied and added
    Scalar by Scalar, a sum that reaches zero dropped at once."""
    terms = {}
    zero = p.ring.field.zero
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e, zero) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return Poly(p.ring, terms)


def _scalar_monomial_table(values, one):
    """The former power table: each power pw[-1] * v and each monomial
    m * pw[k] a ``_scalar_product``, returned as a Poly."""
    powers = [[one, v] for v in values]

    def monomial(e):
        m = one
        for v, pw, k in zip(values, powers, e):
            if k:
                while len(pw) <= k:
                    pw.append(_scalar_product(pw[-1], v))
                m = pw[k] if m is one else _scalar_product(m, pw[k])
        return m

    return monomial


def _as_dict(terms):
    """A ``_terms`` list as {exponent: (nonzero (k, integer) pairs, den)}."""
    return {e: (tuple(v), d) for e, v, d in terms}


@pytest.mark.parametrize("order", [4, 7, 12])
def test_integer_product_and_power_table_match_the_scalar_path(order):
    """On a seeded corpus, ``Poly.__mul__`` and ``_monomial_table`` give
    the same ``terms`` as the Scalar path: coefficients with denominators up
    to 2^40, products whose terms cancel, the zero-variable ring, and every
    monomial with exponents up to 4."""
    field = CyclotomicField(order)
    rng = random.Random(f"product:{order}")

    def scalar(nonzero=False):
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 2 ** 40 - 87]))
                  if rng.random() < 0.7 else 0 for _ in range(field.degree)]
        if nonzero:
            coeffs[0] = Fraction(rng.randint(1, 9), rng.choice([1, 5, 2 ** 40 - 87]))
        return field.from_coeffs(coeffs)

    def poly(ring, most):
        exps = list(itertools.product(range(3), repeat=ring.nvars))
        return Poly(ring, {e: scalar() for e in rng.sample(exps, rng.randint(0, most))})

    ring = PolyRing(field, ["x", "y"], [1, 2])
    point = PolyRing(field, [], [])
    x, y = ring.gens()
    for _ in range(20):
        for r, most in ((ring, 6), (point, 1)):
            p, q = poly(r, most), poly(r, most) + r.constant(scalar(nonzero=True))
            for a, b in ((p, q), (q, p), (q, q), (p, r.zero), (r.one, q)):
                assert (a * b).terms == _scalar_product(a, b).terms
        # (c x + d y)(c x - d y): the two x y terms cancel, and so does all
        # of p q - q p
        c, d = scalar(nonzero=True), scalar(nonzero=True)
        p, q = c * x + d * y, c * x - d * y
        assert (p * q).terms == _scalar_product(p, q).terms \
            == {(2, 0): c * c, (0, 2): -(d * d)}
        assert not (p * q - q * p).terms
        # (1 + c x y)(1 - c x y): the middle terms cancel
        u = ring.one + c * x * y
        assert (u * (2 - u)).terms == _scalar_product(u, 2 - u).terms
        assert (1, 1) not in (u * (2 - u)).terms
    # every monomial of exponents up to 4 in two seeded images, and the one
    # monomial () of the zero-variable ring
    for r in (ring, point):
        for _ in range(3):
            values = [poly(r, 3) + r.constant(scalar(nonzero=True)) for _ in range(r.nvars)]
            table = _monomial_table(values, r.one)
            reference = _scalar_monomial_table(values, r.one)
            for e in itertools.product(range(5), repeat=r.nvars):
                assert _as_dict(table(e)) == _as_dict(_terms(reference(e))), e


def _poly_monomial_table(values, one):
    """The former power table on Poly products: each power pw[-1] * v and
    each monomial m * pw[k] a ``Poly.__mul__``, its ``_terms`` read at the
    end and kept."""
    powers = [[one, v] for v in values]  # powers[v][k] = values[v] ** k
    table = {}

    def monomial(e):
        terms = table.get(e)
        if terms is None:
            m = one
            for v, pw, k in zip(values, powers, e):
                if k:
                    while len(pw) <= k:
                        pw.append(pw[-1] * v)
                    m = pw[k] if m is one else m * pw[k]
            terms = table[e] = _terms(m)
        return terms

    return monomial


@pytest.mark.parametrize("order", [1, 4, 7, 12])
def test_integer_power_table_matches_the_poly_path(order):
    """``_monomial_table`` keeps powers and monomials as ``_terms``; on a
    seeded corpus its entries equal those of the Poly-product table, terms
    in the same order: point and line targets, zero values, coefficients
    with denominators around 2^64, and exponents asked for more than once."""
    field = CyclotomicField(order)
    rng = random.Random(f"table:{order}")

    def scalar():
        return field.from_coeffs([Fraction(rng.randint(-2 ** 64, 2 ** 64),
                                           rng.randint(2 ** 63, 2 ** 65))
                                  if rng.random() < 0.7 else 0 for _ in range(field.degree)])

    for target in (PolyRing(field, []), PolyRing(field, ["t"])):
        exps = list(itertools.product(range(3), repeat=target.nvars))
        for trial in range(6):
            values = [Poly(target, {e: scalar() for e in rng.sample(exps, rng.randint(1, len(exps)))})
                      for _ in range(3)]
            if trial % 2:
                values[trial % 3] = target.zero
            table = _monomial_table(values, target.one)
            reference = _poly_monomial_table(values, target.one)
            queries = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(25)]
            for e in queries + [(0, 0, 0)] + queries[::-1]:
                assert table(e) == reference(e), e


# -- zero-free results of the integer product ---------------------------------


def _unfiltered_poly(ring, terms, images):
    """The former ``_poly``: a Scalar for every finished coefficient of
    ``_sum_of_products``, zeros included, filtered by ``Poly.__init__``."""
    return Poly(ring, {e: Scalar(ring.field, ints, den)
                       for e, ints, den in _sum_of_products(ring.field, terms, images)})


@pytest.mark.parametrize("order", [1, 4, 7, 12])
def test_products_and_substitutions_store_no_zero_coefficient(order):
    """A product or a substitution whose coefficients cancel builds no
    Scalar for them and stores none: its ``terms`` are those that
    ``Poly(ring, unfiltered)`` gives, in the same order.  By hand: (x+1)(x-1),
    (x + z y)(x - z y) over Q(i), x^2 - y^2 + x at x = t + 1, y = t (t^2
    cancels), x - y at x = y = t (all of it cancels), and an evaluation to
    zero; then a seeded corpus of (a + b)(a - b), and of a (x - y) + b at
    x = y."""
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x", "y"], [1, 1])
    line = PolyRing(field, ["t"])
    x, y = ring.gens()
    t = line.gen("t")
    z = field.zeta

    def zero_free(got, target, terms, images):
        """Checks ``got`` against ``_unfiltered_poly``; the number of its
        coefficients that cancelled."""
        want = _unfiltered_poly(target, terms, images)
        assert all(got.terms.values()), got.terms
        assert list(got.terms.items()) == list(want.terms.items())
        return sum(not any(ints) for _, ints, _ in _sum_of_products(field, terms, images))

    def product(a, b):
        return zero_free(a * b, a.ring, _terms(a), _shifted(_terms(b)))

    def substitution(p, images, target):
        return zero_free(substituter(p.ring, images, target)(p), target, _terms(p),
                         _monomial_table(images, target.one))

    assert product(x + 1, x - 1) == 1 and (x + 1) * (x - 1) == x ** 2 - 1
    assert product(x + z * y, x - z * y) == 1
    assert (x + z * y) * (x - z * y) == x ** 2 - z * z * y ** 2
    assert substitution(x ** 2 - y ** 2 + x, [t + 1, t], line) == 1
    assert (x ** 2 - y ** 2 + x).substitute([t + 1, t]) == 3 * t + 2
    assert substitution(x - y, [t, t], line) == 1 and not (x - y).substitute([t, t]).terms
    if order == 4:  # 1 + z^2 = 0 in Q(i)
        point = PolyRing(field, [])
        assert substitution(x ** 2 + y ** 2, [point.one, point.constant(z)], point) == 1
        assert (x ** 2 + y ** 2).evaluate([1, z]) == field.zero
    rng = random.Random(f"zero-free:{order}")
    cancelled = 0
    for _ in range(12):
        a, b = _seeded_poly(rng, ring, max_terms=3), _seeded_poly(rng, ring, max_terms=3)
        cancelled += product(a + b, a - b) + product(a - b, a + b) + product(a, b)
        images = [_seeded_poly(rng, line, max_terms=2) for _ in range(2)]
        cancelled += substitution(a - b, images, line)
        # a (x - y) at x = y = image: every coefficient cancels
        cancelled += substitution(a * (x - y) + b, [images[0], images[0]], line)
    assert cancelled > 0
