"""The graded integer path of transform_prefix against the plain loop.

On Fraction terms transform_prefix picks a scale s with den(v_i) | s**i
(graded_scale, which the q-series transform reads too) and runs its one
loop on the ints v_i s**i (_graded), unless k * bits(s) is large; then the
loop runs on the Fractions themselves.  Both are checked against a
test-local loop that adds one signed product at a time: graded shapes
(a**i / i!, which take the integer path), adversarial ones (distinct
20-bit prime denominators, which fall back) and random Fraction lists.  Lists of any other kind (int, mixed int and
Fraction, Polynomial, QGraded) must give the loop's values and types.
"""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from compident import compositions
from compident.compositions import graded_scale, transform_prefix
from compident.symfun import graded_pair_terms, pair_terms

# 20-bit primes from 2**19 up: distinct, so pairwise coprime denominators
PRIMES_20 = [
    p for p in range(2**19 + 1, 2**19 + 3000, 2) if all(p % q for q in range(3, 1025, 2))
][:60]


def loop(values):
    """T(1)..T(k) by the recurrence, in the terms' own arithmetic, one
    signed product at a time."""
    ts = []
    for m in range(1, len(values) + 1):
        total = None
        for i in range(1, m + 1):
            product = values[i - 1] if i == m else values[i - 1] * ts[m - i - 1]
            signed = product if i % 2 else -product
            total = signed if total is None else total + signed
        ts.append(total)
    return ts


def check(values, graded=None):
    got = transform_prefix(values)
    assert got == loop(values)
    assert all(type(t) is Fraction for t in got)
    if graded is not None:
        assert (compositions._graded(values) is not None) is graded


def graded_shape(a, k):
    return [a**i / factorial(i) for i in range(1, k + 1)]


def prime_shape(numerators):
    return [Fraction(n, p) for n, p in zip(numerators, PRIMES_20)]


st_fraction = st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**6)


@given(st.lists(st_fraction, min_size=1, max_size=20))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fraction_lists_match_the_loop(values):
    check(values)
    check(transform_prefix(values))


@given(st.fractions(min_value=-50, max_value=50, max_denominator=100).filter(bool),
       st.integers(1, 20))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_graded_shapes_take_the_integer_path(a, k):
    values = graded_shape(a, k)
    check(values, graded=True)
    check(transform_prefix(values), graded=True)


@given(st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=20, max_size=20))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_coprime_large_denominators_fall_back(numerators):
    values = prime_shape(numerators)
    check(values, graded=False)
    check(transform_prefix(values), graded=False)


@pytest.mark.parametrize("k", [40, 60])
def test_deep_prefixes_match_the_loop(k):
    for a in (Fraction(3, 7), Fraction(-5, 2)):
        values = graded_shape(a, k)
        check(values)
        check(transform_prefix(values))
    values = prime_shape(range(1, k + 1))
    check(values, graded=False)
    check(transform_prefix(values), graded=False)


@pytest.mark.parametrize("values", [
    [],
    [3, -1, 4, 1, -5, 9, 2, 6],
    [Fraction(1, 2), 3, Fraction(5, 7), 2],
    [2, Fraction(1, 3), Fraction(4, 1), -1],
    pair_terms("q_binomial", {"n": 4}, 6)[0],
    graded_pair_terms("q_cauchy", {"a": Fraction(1, 3), "b": Fraction(-2, 5)}, 6)[1],
], ids=["empty", "int", "mixed", "mixed_int_first", "polynomial", "qgraded"])
def test_other_lists_keep_the_loop(values):
    got = transform_prefix(values)
    want = loop(values)
    assert got == want
    assert [type(t) for t in got] == [type(t) for t in want]
    if values:
        assert compositions._graded(values) is None


@given(st.lists(st.integers(1, 10**6), max_size=30))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_graded_scale_holds_each_denominator_in_its_power(denominators):
    scale = graded_scale(denominators)
    assert all(scale**i % d == 0 for i, d in enumerate(denominators, 1))
    # greedy: s takes on only the part of d_i that s**i does not hold yet
    want = 1
    for i, d in enumerate(denominators, 1):
        want *= d // gcd(d, want**i)
    assert scale == want
