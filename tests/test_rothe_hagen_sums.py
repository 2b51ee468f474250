"""eq36, eq37 and eq38's left sides against per-term Fraction sums.

The evaluators sum their terms as int pairs over one common denominator
(``exact_arith.fraction_sum``).  The slow paths below build every term as a
``Fraction`` and add them one at a time, as the evaluators did before; they
share no code with ``fraction_sum``.  The grids run above the default ones
(k up to 30, x up to k - 1) and to n = 10^120, where each term's denominator
x + i n cancels mostly into its own numerator.
"""

from fractions import Fraction
from math import comb

import pytest

from compident.exact_arith import binomial
from compident.identities import _eval_eq36, _eval_eq37, _eval_eq38


def slow_eq36(x, n, k):
    return Fraction(sum(
        (-1) ** (i + k + 1) * comb(k, i) * binomial(x + i * n, k) * Fraction(x, x + i * n)
        for i in range(1, k)
    ))


def slow_eq37(x, n, k):
    return Fraction(sum(
        (-1) ** (i - 1) * comb(k, i) * binomial(x + i * n, k) * Fraction(1, x + i * n)
        for i in range(1, k + 1)
    ))


def slow_eq38(n, k):
    return Fraction(sum(
        Fraction((-1) ** (i - 1), i) * binomial(i * n, k) * comb(k, i)
        for i in range(1, k + 1)
    ))


def lhs(evaluate, **params):
    value = evaluate(params, None)[0]
    assert type(value) is Fraction
    return value


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_eq36_and_eq37_match_their_fraction_sums_up_to_k30(n):
    for k in range(1, 31):
        for x in range(1, max(k, 2)):
            assert lhs(_eval_eq36, x=x, n=n, k=k) == slow_eq36(x, n, k)
            if k >= 2:
                assert lhs(_eval_eq37, x=x, n=n, k=k) == slow_eq37(x, n, k) == 0


def test_eq38_matches_its_fraction_sum_up_to_k30():
    for k in range(1, 31):
        for n in range(1, 31):
            assert lhs(_eval_eq38, k=k, n=n) == slow_eq38(n, k)


@pytest.mark.parametrize("n", [10**6, 10**40, 10**120], ids=["1e6", "1e40", "1e120"])
def test_the_sums_match_their_fraction_sums_at_huge_n(n):
    for k in range(1, 31):
        assert lhs(_eval_eq38, k=k, n=n) == slow_eq38(n, k)
        for x in (1, 2, 5):
            assert lhs(_eval_eq36, x=x, n=n, k=k) == slow_eq36(x, n, k)
            if x < k:
                assert lhs(_eval_eq37, x=x, n=n, k=k) == slow_eq37(x, n, k) == 0


def test_eq36_empty_sum_is_the_fraction_zero():
    for x in range(1, 4):
        for n in range(1, 4):
            assert lhs(_eval_eq36, x=x, n=n, k=1) == slow_eq36(x, n, 1) == Fraction(0)
