"""The linear-factor route for falling factorials and binomials of a polynomial,
and the raw-term sum of polynomial mode.

``poly.poly_falling_factorial`` and ``poly.poly_binomial`` expand a linear p
by int-list passes over a built row of prod_{i<k} (y + c - i d);
``poly.falling_sum`` also slides a row from its (c + 1) neighbour.
``exact_arith.falling_factorial`` run on the Polynomial, and a product of
linear Polynomials for the rows, are the independent references they are
compared against.  ``poly.falling_sum`` is compared with the left-to-right
sums of ``w * poly_binomial`` and ``w * poly_falling_factorial``, and with
the generic loop: on drawn terms, on the alternating sums' own terms up to
k = 30, and on seeded lists with many terms at each c, whose row it
multiplies once by their summed weights.
"""

from fractions import Fraction
from math import comb, factorial
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from compident import poly
from compident.exact_arith import falling_factorial
from compident.identities import verify_case
from compident.poly import (
    InexactDivisionError,
    Polynomial,
    _built_row,
    _slid_row,
    falling_sum,
    poly_binomial,
    poly_falling_factorial,
)

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
    return [int(coeff) for coeff in product.coeffs]


@pytest.fixture
def rows(monkeypatch):
    """The (c, d, k) keys built and slid from then on (d == 1 for a slide)."""
    calls = {"built": [], "slid": []}
    built, slid = poly._built_row, poly._slid_row

    def counted_build(c, d, k):
        calls["built"].append((c, d, k))
        return built(c, d, k)

    def counted_slide(above, c, k):
        calls["slid"].append((c, 1, k))
        return slid(above, c, k)

    monkeypatch.setattr(poly, "_built_row", counted_build)
    monkeypatch.setattr(poly, "_slid_row", counted_slide)
    return calls


def test_built_rows_match_the_uncached_pass():
    for k in range(31):
        for d in (1, 2, 3):
            for c in range(-k, k + 1):
                assert _built_row(c, d, k) == uncached_row(c, d, k)
                p = Polynomial((Fraction(c, d), Fraction(2, d)))
                if k <= 12 and c % 4 == 0:  # the u**t rescale and the 1/d**k on top
                    assert poly_falling_factorial(p, k) == falling_factorial(p, k)


@pytest.mark.parametrize("k", [1, 2, 5, 12, 30])
def test_slid_rows_match_the_uncached_pass(k):
    # c = 0, -1, ..., -k and on past the zeros of the row: eq29's (0, 1, k) row
    # of C(i n, k) and its C(i (n - 1), k) rows, each slid from the one before
    above = uncached_row(k + 3, 1, k)
    for c in range(k + 2, -2 * k - 3, -1):
        above = _slid_row(above, c, k)
        assert above == uncached_row(c, 1, k)


def test_the_empty_row_never_slides(rows):
    # prod over no factors: [1] at every c, with no factor y + c + 1 to divide out
    assert falling_sum([(1, 1, 1), (1, 2, 0), (1, 3, -1)], 0, 1) == Polynomial((3,))
    assert rows == {"built": [(1, 1, 0), (0, 1, 0), (-1, 1, 0)], "slid": []}


def test_a_gap_in_c_builds_a_new_row(rows):
    terms = [(2, 1, 3), (-1, 2, 2), (5, -1, -1), (1, 3, -2), (1, 1, 2)]
    falling_sum(terms, 6, 1)
    assert rows == {"built": [(3, 1, 6), (-1, 1, 6)], "slid": [(2, 1, 6), (-2, 1, 6)]}


@pytest.mark.parametrize("k", [1, 4, 9])
def test_a_corrupted_neighbour_raises(k):
    above = uncached_row(0, 1, k)
    above[0] += 1  # no longer divisible by y + 0
    with pytest.raises(InexactDivisionError):
        _slid_row(above, -1, k)


def test_one_eq13_case_builds_each_row_once(rows):
    assert verify_case("eq13", {"k": 12}).passed
    # C(i n, 12), i = 1..12, share the lhs's (0, 1, 12) row; the rhs C(n + 11, 12)
    # builds (11, 1, 12): 2 rows built, none slid
    assert rows == {"built": [(0, 1, 12), (11, 1, 12)], "slid": []}


def test_one_eq29_case_slides_its_shifted_rows(rows):
    assert verify_case("eq29", {"k": 12}).passed
    # the lhs builds (0, 1, 12) and slides C(i (n - 1), 12)'s (-i, 1, 12) rows
    # from (-i + 1, 1, 12); the rhs C(i n, 11) builds (0, 1, 11)
    assert rows["built"] == [(0, 1, 12), (0, 1, 11)]
    assert rows["slid"] == [(-i, 1, 12) for i in range(1, 13)]


# eq29's terms at k = 6: each difference C(i (x - 1), 6) - C(i x, 6) as +w and -w
EQ29_TERMS = [t for i in range(1, 7) for w in [(-1) ** i * comb(7, i + 1)]
              for t in ((w, i, -i), (-w, i, 0))]


def left_to_right(expand, terms, k):
    total = Polynomial()
    for w, u, c in terms:
        total = total + w * expand(Polynomial((c, u)), k)
    return total


# raw terms (w, u, c): zero weights, u of either sign, runs of c (rows slid from c + 1)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-6, 6), st.integers(-9, 4)),
                max_size=8),
       st.integers(0, 10))
@settings(max_examples=150, deadline=None)
@example([], 3)
@example([(0, 2, -1)], 4)  # a zero weight only
@example([(3, 2, -1), (-5, -3, 0), (2, 1, 4)], 0)  # k == 0: the row [1]
@example([(3, 2, -1), (-5, -3, 0)], 1)
@example([(2, 3, -2), (-2, 3, -2)], 5)  # a repeated (u, c) that cancels to zero
@example([(1, 2, 0), (-1, 2, 1)], 5)  # cancels the top degree
@example(EQ29_TERMS, 6)
@example([(2, 1, 3), (-1, 2, 2), (5, -1, -1), (1, 3, -2)], 6)  # a gap: 3, 2 then -1, -2
@example([(4, 1, -1), (-3, 2, -1), (7, -2, -1), (1, 1, 0)], 5)  # one c, three u
@example([(1, 1, 2), (-2, 3, 1), (5, 2, 0), (1, -1, -1)], 0)  # k == 0, consecutive c
@example(EQ29_TERMS[::-1], 6)  # rising c
@example(Random(6).sample(EQ29_TERMS, len(EQ29_TERMS)), 6)  # shuffled
def test_falling_sum_matches_the_left_to_right_sum(terms, k):
    binomials = falling_sum(terms, k, factorial(k))
    assert binomials == left_to_right(poly_binomial, terms, k)
    assert binomials == left_to_right(reference_binomial, terms, k)
    assert falling_sum(terms, k, 1) == left_to_right(poly_falling_factorial, terms, k)
    # the same terms in another order give the same sum
    assert falling_sum(Random(k).sample(terms, len(terms)), k, factorial(k)) == binomials


def alternating_terms(k):
    # eq13's, eq17's, eq29's and eq47's raw terms and divisors, written out
    # from the statements: w = (-1)^i C(k+1, i+1) for i = 1..k
    weights = [(i, (-1) ** i * comb(k + 1, i + 1)) for i in range(1, k + 1)]
    return {
        "eq13": ([(w, i, 0) for i, w in weights], factorial(k)),
        "eq17": ([(w, i, 0) for i, w in weights], 1),
        "eq29": ([t for i, w in weights for t in ((w, i, -i), (-w, i, 0))], factorial(k)),
        "eq47": ([(w, i, k - 1) for i, w in weights], factorial(k)),
    }


@pytest.mark.parametrize("k", range(31))
def test_the_alternating_sums_match_the_left_to_right_sum(k):
    # every term of eq13, eq17 and eq47 shares one c, and eq29's C(i n, k) terms
    # share c = 0: falling_sum multiplies that row once, by the summed weights
    for terms, over in alternating_terms(k).values():
        assert falling_sum(terms, k, over) == left_to_right(poly_falling_factorial, terms, k) / over


@pytest.mark.parametrize("seed", range(12))
def test_many_terms_at_one_c_match_the_left_to_right_sum(seed):
    rng = Random(seed)
    k = rng.randint(0, 24)
    slopes = rng.sample(range(-40, 41), rng.randint(1, 6))  # few, so most terms repeat a u
    offsets = rng.sample(range(-k - 2, k + 3), rng.randint(1, 4))
    terms = [(rng.randint(-10**12, 10**12), rng.choice(slopes), rng.choice(offsets))
             for _ in range(rng.randint(2, 40))]
    assert falling_sum(terms, k, 1) == left_to_right(poly_falling_factorial, terms, k)
    assert falling_sum(terms, k, factorial(k)) == left_to_right(poly_binomial, terms, k)
