"""Tests for dense polynomials and reduced rational functions."""

import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from compident.exact_arith import binomial, falling_factorial
from compident.poly import (
    Polynomial,
    RationalFunction,
    exact_div,
    finite_difference,
    poly_binomial,
    poly_falling_factorial,
    poly_from_json,
    poly_gcd,
    poly_to_json,
    ratfun_from_json,
)
from compident.stirling import stirling1

st_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=9)
st_poly = st.lists(st_coeff, max_size=6).map(Polynomial)


def expand_falling_oracle(k: int) -> list[int]:
    """Expand x(x-1)...(x-k+1) by plain integer-list convolution."""
    coeffs = [0, 1]
    for j in range(1, k):
        shifted = [0] + coeffs
        scaled = [-j * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


def test_normalization_and_degree():
    assert Polynomial((0, 0)).is_zero
    assert Polynomial().degree == -inf
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((1, 2)).degree == 1
    assert Polynomial((5,)).coefficient(3) == 0


def test_arithmetic_basics():
    p = Polynomial((1, 1))
    assert p + p == Polynomial((2, 2))
    assert p - p == Polynomial()
    assert p * p == Polynomial((1, 2, 1))
    assert -p == Polynomial((-1, -1))
    assert 2 * p == Polynomial((2, 2))
    assert p + 1 == Polynomial((2, 1))
    assert 1 - p == Polynomial((0, -1))
    assert p ** 3 == Polynomial((1, 3, 3, 1))
    assert (p / 2).coeffs == (Fraction(1, 2), Fraction(1, 2))


@given(st_poly, st_poly, st.fractions(min_value=-5, max_value=5, max_denominator=5))
@settings(max_examples=60)
def test_evaluation_is_a_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(st_poly, st.integers(-4, 4))
@settings(max_examples=60)
def test_shifted_agrees_with_evaluation(p, c):
    shifted = p.shifted(c)
    for x in (-2, 0, 3, Fraction(1, 2)):
        assert shifted(x) == p(x + c)


def test_evaluation_result_types():
    p = Polynomial((Fraction(1, 2), 3, Fraction(-2, 3)))
    assert p(2) == Fraction(1, 2) + 6 - Fraction(8, 3)
    assert type(p(2)) is Fraction
    assert type(p(Fraction(1, 3))) is Fraction
    assert type(Polynomial((4,))(7)) is Fraction
    assert Polynomial((4,))(7) == 4
    at_poly = p(Polynomial((1, 1)))
    assert type(at_poly) is Polynomial
    assert at_poly == p.shifted(1)
    for x in (5, Fraction(2, 7), Polynomial((0, 1))):
        zero = Polynomial()(x)
        assert type(zero) is int and zero == 0


def test_shifted_returns_a_polynomial():
    assert Polynomial().shifted(3) == Polynomial()
    assert isinstance(Polynomial().shifted(3), Polynomial)
    assert isinstance(Polynomial((5,)).shifted(2), Polynomial)
    assert Polynomial((0, 0, 1)).shifted(Fraction(1, 2)) == Polynomial((Fraction(1, 4), 1, 1))


@given(st_poly, st.integers(1, 6))
@settings(max_examples=40)
def test_falling_factorial_at_a_polynomial_is_pointwise(p, k):
    # the one falling-factorial loop, run in the polynomial ring
    expanded = falling_factorial(p, k)
    assert isinstance(expanded, Polynomial)
    for x in (-2, 0, 3, Fraction(1, 2)):
        assert expanded(x) == falling_factorial(p(x), k)


def test_divmod_invariant():
    rng = random.Random(7)
    for _ in range(40):
        a = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
        b = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(Polynomial((1,)), Polynomial())


def test_falling_factorial_poly_examples():
    x = Polynomial((0, 1))
    assert poly_falling_factorial(x, 1) == x
    assert poly_falling_factorial(x, 3) == Polynomial((0, 2, -3, 1))
    assert poly_falling_factorial(x, 4).coefficient(1) == -6  # equals s(4, 1)
    assert poly_falling_factorial(x, 0) == Polynomial((1,))
    with pytest.raises(ValueError):
        poly_falling_factorial(x, -1)


@pytest.mark.parametrize("k", range(1, 16))
def test_falling_factorial_poly_matches_stirling_row(k):
    poly = poly_falling_factorial(Polynomial((0, 1)), k)
    oracle = expand_falling_oracle(k)
    assert list(poly.coeffs) == oracle
    for t in range(1, k + 1):
        assert poly.coefficient(t) == stirling1(k, t)


def test_poly_binomial_examples():
    two_n = Polynomial((0, 2))
    assert poly_binomial(two_n, 2) == Polynomial((0, -1, 2))  # 2n^2 - n
    assert poly_binomial(Polynomial((3, 1, 1)), 0) == Polynomial((1,))
    n = Polynomial((0, 1))
    assert poly_binomial(n, 3)(5) == binomial(5, 3) == 10
    with pytest.raises(ValueError):
        poly_binomial(n, -1)


def test_linear_poly_binomial_makes_no_polynomial_products(monkeypatch):
    # a linear p is expanded on int lists, never by Polynomial.__mul__
    calls = []
    product = Polynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    monkeypatch.setattr(Polynomial, "__rmul__", counting)
    p = Polynomial((Fraction(1, 3), Fraction(-2, 3)))
    poly_binomial(p, 12)
    poly_falling_factorial(Polynomial((0, 1)), 12)
    assert calls == []


def test_poly_binomial_degree_and_pointwise():
    p = Polynomial((1, 2, 1))
    q = poly_binomial(p, 3)
    assert q.degree == 6
    for x in range(-3, 4):
        assert q(x) == binomial(int(p(x)), 3)


def test_finite_difference_examples():
    x_sq = Polynomial((0, 0, 1))
    assert finite_difference(x_sq, 1) == Polynomial((1, 2))
    p = Polynomial((3, -1, 2, 5))
    assert finite_difference(p, 0) == p
    assert finite_difference(p, 4).is_zero
    with pytest.raises(ValueError):
        finite_difference(p, -1)


def test_finite_difference_annihilates_seeded_random_polys():
    rng = random.Random(20240)
    for degree in range(0, 11):
        for _ in range(20):
            coeffs = [
                Fraction(rng.randint(-50, 50), rng.randint(1, 20))
                for _ in range(degree)
            ]
            lead = Fraction(rng.choice((1, -1)) * rng.randint(1, 50), rng.randint(1, 20))
            p = Polynomial(coeffs + [lead])
            assert p.degree == degree
            assert finite_difference(p, degree + 1).is_zero
            if degree >= 1:
                assert finite_difference(p, degree).degree == 0


@given(st_poly, st_poly, st.integers(0, 3),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=40)
def test_finite_difference_linearity(p, q, m, a, b):
    lhs = finite_difference(a * p + b * q, m)
    rhs = a * finite_difference(p, m) + b * finite_difference(q, m)
    assert lhs == rhs


def test_poly_gcd_examples():
    assert poly_gcd(Polynomial((-1, 0, 1)), Polynomial((-1, 1))) == Polynomial((-1, 1))
    assert poly_gcd(Polynomial((0, 0, 1)), Polynomial((0, 0, 0, 1))) == Polynomial((0, 0, 1))
    # (1-q)(1-q^2) and (1-q): the monic gcd is q - 1
    assert poly_gcd(Polynomial((1, -1, -1, 1)), Polynomial((1, -1))) == Polynomial((-1, 1))
    assert poly_gcd(Polynomial(), Polynomial((2, 2))) == Polynomial((1, 1))
    with pytest.raises(ValueError):
        poly_gcd(Polynomial(), Polynomial())


def test_poly_gcd_fractional_inputs():
    # (x-1)(x+2)/3 and (x-1)(x-5)/7: no coefficient of either is an integer
    a = Polynomial((-2, 1, 1)) / 3
    b = Polynomial((5, -6, 1)) / 7
    assert all(c.denominator != 1 for c in a.coeffs + b.coeffs)
    assert poly_gcd(a, b) == Polynomial((-1, 1))
    assert poly_gcd(a, a * Polynomial((Fraction(1, 2), 1))) == a.monic()


def test_poly_gcd_divides_both_and_is_monic():
    rng = random.Random(11)
    for _ in range(40):
        g = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 3)])
        a = g * Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 3)])
        b = g * Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 3)])
        d = poly_gcd(a, b)
        assert d.leading_coefficient == 1
        assert (a % d).is_zero
        assert (b % d).is_zero
        assert d.degree >= g.degree


def test_exact_div():
    a = Polynomial((1, 2, 1))
    b = Polynomial((1, 1))
    assert exact_div(a, b) == b
    with pytest.raises(ValueError):
        exact_div(Polynomial((1, 1, 1)), Polynomial((1, 1)))


def _random_ratfun(rng: random.Random) -> RationalFunction:
    num = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
    den = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 4)])
    return RationalFunction(num, den)


def _rf_eval(rf: RationalFunction, x: Fraction) -> Fraction:
    den = rf.den(x)
    assert den != 0
    return Fraction(rf.num(x)) / den


def test_ratfun_normalization_invariants():
    r = RationalFunction(Polynomial((2, 2)), Polynomial((4, 0, -4)))
    # (2 + 2q) / (4 - 4q^2) reduces to 1 / (2 - 2q) = (-1/2) / (q - 1)
    assert r.den.leading_coefficient == 1
    assert poly_gcd(r.num, r.den).degree <= 0
    assert r == RationalFunction(Polynomial((Fraction(-1, 2),)), Polynomial((-1, 1)))
    assert RationalFunction(0, Polynomial((3, 1))).den == Polynomial((1,))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial((1,)), Polynomial())


def test_ratfun_arithmetic_against_pointwise_oracle():
    rng = random.Random(99)
    sample_points = [Fraction(5), Fraction(7, 2), Fraction(-11, 3), Fraction(13)]
    for _ in range(30):
        r1 = _random_ratfun(rng)
        r2 = _random_ratfun(rng)
        if r2.is_zero:
            continue
        combos = {
            "add": (r1 + r2, lambda x: _rf_eval(r1, x) + _rf_eval(r2, x)),
            "sub": (r1 - r2, lambda x: _rf_eval(r1, x) - _rf_eval(r2, x)),
            "mul": (r1 * r2, lambda x: _rf_eval(r1, x) * _rf_eval(r2, x)),
            "div": (r1 / r2, lambda x: _rf_eval(r1, x) / _rf_eval(r2, x)),
        }
        for name, (result, expected) in combos.items():
            # every result must be stored reduced with a monic denominator
            assert result.den.leading_coefficient == 1
            if not result.num.is_zero:
                assert poly_gcd(result.num, result.den).degree <= 0
            for x in sample_points:
                if r1.den(x) == 0 or r2.den(x) == 0 or result.den(x) == 0:
                    continue
                if name == "div" and _rf_eval(r2, x) == 0:
                    continue
                assert _rf_eval(result, x) == expected(x), name


def test_ratfun_roundtrip_identity():
    rng = random.Random(5)
    one = RationalFunction(1)
    for _ in range(25):
        a = Polynomial([rng.randint(-6, 6) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 6)])
        b = Polynomial([rng.randint(-6, 6) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 6)])
        quotient = RationalFunction(a, b)
        flipped = RationalFunction(b, a)
        assert quotient * flipped == one


def test_ratfun_mixed_operands():
    q = Polynomial((0, 1))
    r = RationalFunction(1, Polynomial((1, -1)))  # 1/(1-q)
    assert (1 - q) * r == 1
    assert r + 0 == r
    assert 2 / RationalFunction(Polynomial((2,))) == 1
    assert (r - r).is_zero
    with pytest.raises(ZeroDivisionError):
        r / RationalFunction(0)


def test_serialization_roundtrip():
    p = Polynomial((Fraction(1, 2), 0, -3))
    assert poly_to_json(p) == ["1/2", "0", "-3"]
    assert poly_from_json(poly_to_json(p)) == p
    r = RationalFunction(Polynomial((1, 1)), Polynomial((2, 0, 2)))
    data = r.to_json()
    assert set(data) == {"num", "den"}
    assert ratfun_from_json(data) == r
