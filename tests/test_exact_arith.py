"""Tests for the scalar primitives (generalized binomial and friends)."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from compident.exact_arith import (
    binomial,
    falling_factorial,
    fraction_sum,
    multichoose,
    parse_rational,
)


def binomial_oracle(m: int, k: int) -> int:
    """Independent definition: falling factorial over k!, exact division."""
    if k < 0:
        return 0
    prod = 1
    for i in range(k):
        prod *= m - i
    quotient, remainder = divmod(prod, factorial(k))
    assert remainder == 0
    return quotient


def test_binomial_known_values():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    # (-2)(-3)(-4)/3! = -4, which is (-1)**3 * C(4, 3)
    assert binomial(-2, 3) == binomial_oracle(-2, 3) == -4
    assert binomial(10, -1) == 0
    assert binomial(-1, 0) == 1


@pytest.mark.parametrize("m", range(-12, 13))
@pytest.mark.parametrize("k", range(0, 9))
def test_binomial_matches_falling_factorial_oracle(m, k):
    assert binomial(m, k) == binomial_oracle(m, k)


def test_pascal_recurrence():
    for m in range(-30, 31):
        for k in range(0, 31):
            assert binomial(m, k) == binomial(m - 1, k - 1) + binomial(m - 1, k)


def test_hockey_stick():
    for k in range(0, 31):
        for i in range(0, k + 1):
            assert sum(binomial(r, i) for r in range(i, k + 1)) == binomial(k + 1, i + 1)


def test_negation_rule():
    for n in range(1, 31):
        for k in range(1, 31):
            assert binomial(-n, k) == (-1) ** k * binomial(n + k - 1, k)


@given(st.integers(-200, 200), st.integers(-5, 40))
def test_binomial_total_and_integral(m, k):
    value = binomial(m, k)
    assert isinstance(value, int)
    if k < 0:
        assert value == 0


def test_binomial_large_arguments_stay_exact():
    # additive Pascal build, completely independent of the closed form
    row = [1]
    for _ in range(500):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    assert binomial(500, 250) == row[250]
    assert binomial(500, 250) > 10 ** 140


def test_multichoose():
    assert multichoose(3, 2) == binomial(4, 2) == 6
    assert multichoose(1, 5) == 1
    for n in range(-3, 6):
        assert multichoose(n, 0) == 1
    with pytest.raises(ValueError):
        multichoose(3, -1)


def test_multichoose_counts_multisets():
    # C(n+k-1, k) against direct multiset enumeration for small n, k
    from itertools import combinations_with_replacement

    for n in range(1, 6):
        for k in range(0, 5):
            expected = sum(1 for _ in combinations_with_replacement(range(n), k))
            assert multichoose(n, k) == expected


def test_falling_factorial():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(5), 3) == 60
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(Fraction(1, 2), 0) == 1
    assert falling_factorial(2, 3) == 0
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    with pytest.raises(ValueError):
        falling_factorial(3, -2)


def test_falling_factorial_vs_binomial():
    for m in range(-10, 11):
        for k in range(0, 21):
            assert falling_factorial(m, k) == factorial(k) * binomial(m, k)


def test_fraction_sum_of_no_terms_is_the_fraction_zero():
    assert fraction_sum([]) == 0
    assert type(fraction_sum(iter(()))) is Fraction


def test_fraction_sum_of_zero_numerators():
    assert fraction_sum([(0, 7), (0, -3), (0, 10**30)]) == Fraction(0)
    # a zero term leaves the common denominator alone
    assert fraction_sum([(0, 9), (1, 6), (0, 4)]) == Fraction(1, 6)


def test_fraction_sum_over_denominators_that_share_factors():
    assert fraction_sum([(1, 6), (1, 10), (1, 15)]) == Fraction(1, 3)
    assert fraction_sum([(1, 4), (1, 12), (1, 6)]) == Fraction(1, 2)
    # each term reduces to 1/2 before the sum: the total cancels to an int
    assert fraction_sum([(3, 6), (5, 10), (-7, 14)]) == Fraction(1, 2)
    assert fraction_sum([(3, 6), (5, 10)]) == 1
    assert fraction_sum([(1, -2), (1, 3)]) == Fraction(-1, 6)
    assert fraction_sum([(2 * 10**40, 4 * 10**40 + 2), (-1, 2)]).denominator == 2 * (2 * 10**40 + 1)


def test_fraction_sum_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        fraction_sum([(1, 2), (3, 0)])
    with pytest.raises(ZeroDivisionError):
        fraction_sum([(0, 0)])


@given(st.lists(st.tuples(st.integers(-10**30, 10**30),
                          st.integers(-60, 60).filter(bool).map(lambda d: d * 2 ** 7))))
def test_fraction_sum_matches_a_sum_of_fractions(terms):
    # denominators d 2^7: every pair shares a factor with every other
    total = Fraction(0)
    for num, den in terms:
        total += Fraction(num, den)
    got = fraction_sum(terms)
    assert type(got) is Fraction
    assert got == total


def test_format_scalar():
    # str is the serialized scalar form: "n", or "n/d" when d > 1
    assert str(17) == "17"
    assert str(-3) == "-3"
    assert str(Fraction(5)) == "5"
    assert str(Fraction(-1, 2)) == "-1/2"
    assert str(Fraction(0)) == "0"


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational("abc")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@given(st.fractions(max_denominator=10 ** 6))
def test_scalar_serialization_roundtrip(value):
    assert parse_rational(str(value)) == value


def test_public_function_annotations_resolve():
    import inspect
    import typing

    import compident

    functions = [
        obj for name, obj in vars(compident).items()
        if not name.startswith("_") and inspect.isfunction(inspect.unwrap(obj))
    ]
    assert binomial in functions
    for function in functions:
        typing.get_type_hints(function)  # raises NameError on an unknown name
