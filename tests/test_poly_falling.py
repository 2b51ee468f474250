"""The linear-factor route for falling factorials and binomials of a polynomial.

``poly.poly_falling_factorial`` and ``poly.poly_binomial`` expand a linear p
by int-list passes over a cached row of prod_{i<k} (y + c - i d);
``exact_arith.falling_factorial`` run on the Polynomial is the independent
reference they are compared against.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from compident.exact_arith import falling_factorial
from compident.identities import verify_case
from compident.poly import Polynomial, _falling_row, poly_binomial, poly_falling_factorial

st_nonzero = st.fractions(min_value=-7, max_value=7, max_denominator=6).filter(bool)
st_const = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=6))
# p = (u x + c) / d: u of either sign, d > 1 from the fractions, c == 0 included
st_linear = st.builds(lambda c, u: Polynomial((c, u)), st_const, st_nonzero)
POINTS = (-3, 0, 2, 7, Fraction(1, 2), Fraction(-5, 3))


def reference_binomial(p, k):
    return Polynomial((1,)) if k == 0 else falling_factorial(p, k) / factorial(k)


@given(st_linear, st.integers(0, 30))
@settings(max_examples=80, deadline=None)
@example(Polynomial((0, Fraction(-3, 2))), 12)  # u < 0, d > 1, c == 0
@example(Polynomial((Fraction(1, 3), Fraction(2, 3))), 7)  # d > 1, c != 0
@example(Polynomial((5, 1)), 0)
def test_linear_route_matches_the_generic_loop(p, k):
    assert p.degree == 1
    fast = poly_falling_factorial(p, k)
    assert isinstance(fast, Polynomial)
    assert fast == falling_factorial(p, k)
    assert poly_binomial(p, k) == reference_binomial(p, k)


@given(st_linear, st.integers(0, 12))
@settings(max_examples=40, deadline=None)
@example(Polynomial((Fraction(-1, 4), Fraction(-5, 2))), 6)
def test_linear_route_is_pointwise(p, k):
    fast = poly_falling_factorial(p, k)
    binom = poly_binomial(p, k)
    for x in POINTS:
        value = falling_factorial(p(x), k)
        assert fast(x) == value
        assert binom(x) == Fraction(value) / factorial(k)


@pytest.mark.parametrize(
    "p",
    [
        Polynomial(),
        Polynomial((5,)),
        Polynomial((Fraction(-7, 2),)),
        Polynomial((0, 0, 1)),
        Polynomial((1, Fraction(-1, 3), Fraction(2, 5))),
    ],
    ids=["zero", "int-constant", "rational-constant", "x^2", "quadratic"],
)
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_other_polynomials_keep_the_generic_loop(p, k):
    expected = falling_factorial(p, k)
    assert poly_falling_factorial(p, k) == expected
    assert poly_binomial(p, k) == expected / factorial(k)


def test_constant_and_zero_values():
    assert poly_binomial(Polynomial((5,)), 2) == Polynomial((10,))
    assert poly_binomial(Polynomial((3,)), 4).is_zero
    assert poly_falling_factorial(Polynomial(), 3).is_zero
    assert poly_falling_factorial(Polynomial((0, 0, 1)), 2) == Polynomial((0, 0, -1, 0, 1))


def test_k_zero_and_negative_k():
    assert poly_falling_factorial(Polynomial((0, 3)), 0) == Polynomial((1,))
    with pytest.raises(ValueError):
        poly_falling_factorial(Polynomial((0, 1)), -1)


def uncached_row(c, d, k):
    product = Polynomial((1,))
    for i in range(k):
        product = product * Polynomial((c - i * d, 1))
    return tuple(int(coeff) for coeff in product.coeffs)


def test_cached_rows_match_the_uncached_pass():
    _falling_row.cache_clear()
    for k in range(31):
        for d in (1, 2, 3):
            for c in range(-k, k + 1):
                want = uncached_row(c, d, k)
                assert _falling_row(c, d, k) == want
                assert _falling_row(c, d, k) == want  # the cached copy
                p = Polynomial((Fraction(c, d), Fraction(2, d)))
                if k <= 12 and c % 4 == 0:  # the u**t rescale and the 1/d**k on top
                    assert poly_falling_factorial(p, k) == falling_factorial(p, k)
    assert _falling_row.cache_info().currsize <= _falling_row.cache_info().maxsize


def test_one_eq13_case_builds_each_row_once():
    _falling_row.cache_clear()
    assert verify_case("eq13", {"k": 12}).passed
    info = _falling_row.cache_info()
    # C(i n, 12), i = 1..12, share the (0, 1, 12) row; the rhs C(n + 11, 12)
    # reads (11, 1, 12)
    assert (info.misses, info.hits) == (2, 11)
