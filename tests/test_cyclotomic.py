import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgmf import CyclotomicField, cyclotomic_polynomial


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
