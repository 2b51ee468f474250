"""Tests for symmetric-function conversion routes and the pair catalog."""

from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from compident.compositions import composition_transform
from compident.exact_arith import binomial, multichoose
from compident.poly import Polynomial, RationalFunction
from compident.symfun import (
    DEFAULT_SEED,
    PAIR_IDS,
    bernoulli,
    gaussian_binomial,
    h_from_e_conv,
    h_from_e_det,
    h_prefix_from_e_det,
    pair_terms,
    phi,
    random_rational,
    seeded_rng,
)

# Classic table; the recurrence itself is re-derived in test_bernoulli_recurrence.
BERNOULLI_TABLE = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]


def det_cofactor(rows):
    """Cofactor-expansion determinant, independent of the elimination path."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        signed = term if j % 2 == 0 else -term
        total = signed if total is None else total + signed
    return total


def toeplitz_oracle(seq):
    k = len(seq)
    return [
        [seq[j - i] if j - i >= 0 else (1 if i - j == 1 else 0) for j in range(k)]
        for i in range(k)
    ]


def test_h_from_e_det_examples():
    assert h_from_e_det([2, 1, 0]) == det_cofactor([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert type(h_from_e_det([2, 1, 0])) is int
    assert h_from_e_det([Fraction(5, 3)]) == Fraction(5, 3)
    rng = seeded_rng(DEFAULT_SEED, "det-example")
    e = [random_rational(rng) for _ in range(5)]
    assert h_from_e_det(e) == h_from_e_conv(e)[-1]
    with pytest.raises(ValueError):
        h_from_e_det([])


def test_h_from_e_det_on_ints_is_an_exact_int():
    # an int entry divided by an int pivot would give a float, 1e40 here
    e = [3, 10**20, 7, 1]
    got = h_from_e_det(e)
    assert got == h_from_e_conv(e)[-1] == 9999999999999999997300000000000000000122
    assert type(got) is int


def expected_det_type(e):
    return Fraction if any(isinstance(x, Fraction) for x in e) else int


# entries in {-2..2}/{1..3}, zeros and ints included: pivots hit 0 and
# determinants vanish
st_small_entries = st.lists(
    st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))),
    min_size=1, max_size=7,
)


@given(st_small_entries)
@example([Fraction(0), Fraction(0)])  # was the int 0 under dividing elimination
@example([0, 0, 1])  # a zero pivot at each of the first two steps
@example([Fraction(1), Fraction(1, 2), 0, Fraction(-1, 3)])  # ints among Fractions
@settings(max_examples=150, deadline=None)  # the cofactor oracle costs k! at k = 7
def test_det_matches_cofactor_oracle_on_small_entries(e):
    got = h_from_e_det(e)
    assert got == det_cofactor(toeplitz_oracle(e))
    assert type(got) is expected_det_type(e)


@given(st.integers(1, 20), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_det_matches_conv_on_random_rationals(k, seed):
    rng = seeded_rng(seed, "det-conv")
    e = [random_rational(rng) for _ in range(k)]
    got = h_from_e_det(e)
    assert got == h_from_e_conv(e)[-1]
    assert type(got) is Fraction


@given(st.one_of(st.lists(st.integers(-3, 3), min_size=1, max_size=20),
                 st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=20)))
@settings(max_examples=100, deadline=None)
def test_det_matches_conv_on_ints(e):
    got = h_from_e_det(e)
    assert got == h_from_e_conv(e)[-1]
    assert type(got) is int


@given(st_small_entries)
@settings(max_examples=100, deadline=None)  # the cofactor oracle costs k! at k = 7
def test_det_prefix_reads_the_determinant_of_every_leading_block(e):
    prefix = h_prefix_from_e_det(e)
    assert prefix == [det_cofactor(toeplitz_oracle(e[:m])) for m in range(1, len(e) + 1)]
    assert prefix[-1] == h_from_e_det(e)


@given(st.integers(1, 20), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_det_prefix_matches_conv_on_random_rationals(k, seed):
    rng = seeded_rng(seed, "det-prefix")
    e = [random_rational(rng) for _ in range(k)]
    assert h_prefix_from_e_det(e) == h_from_e_conv(e)


def test_e_from_h_det_examples():
    # the same determinant, fed h terms, gives e
    assert h_from_e_det([2, 3, 4]) == det_cofactor([[2, 3, 4], [1, 2, 3], [0, 1, 2]]) == 0
    assert h_from_e_det([Fraction(-7, 2)]) == Fraction(-7, 2)


def test_det_matches_cofactor_oracle_on_random_input():
    rng = seeded_rng(DEFAULT_SEED, "cofactor")
    for k in range(1, 5):
        for _ in range(5):
            e = [random_rational(rng) for _ in range(k)]
            assert h_from_e_det(e) == det_cofactor(toeplitz_oracle(e))


def test_round_trip_e_to_h_to_e():
    rng = seeded_rng(DEFAULT_SEED, "roundtrip")
    for k in range(1, 7):
        e = [random_rational(rng) for _ in range(k)]
        h = [h_from_e_det(e[: m + 1]) for m in range(k)]
        assert h_from_e_det(h) == e[-1]


def test_h_from_e_conv_examples():
    assert h_from_e_conv([2, 1, 0]) == [2, 3, 4]
    assert h_from_e_conv([Fraction(9, 4)]) == [Fraction(9, 4)]
    # e = (a, a(a-2)/2) at a = 1 gives h_2 = 3/2
    assert h_from_e_conv([Fraction(1), Fraction(-1, 2)])[-1] == Fraction(3, 2)


def test_three_routes_agree_on_seeded_random_sequences():
    for sample in range(20):
        rng = seeded_rng(DEFAULT_SEED, "threeroutes", sample)
        e = [random_rational(rng) for _ in range(8)]
        conv = h_from_e_conv(e)
        for k in range(1, 9):
            det_value = h_from_e_det(e[:k])
            transform_value = composition_transform(lambda i: e[i - 1], k)
            assert det_value == conv[k - 1] == transform_value, (sample, k)


def test_duality_round_trip_through_transform():
    for sample in range(20):
        rng = seeded_rng(DEFAULT_SEED, "threeroutes", sample)
        e = [random_rational(rng) for _ in range(8)]
        h = h_from_e_conv(e)
        for k in range(1, 9):
            assert composition_transform(lambda i: h[i - 1], k) == e[k - 1]


def test_bernoulli_values():
    for m, expected in enumerate(BERNOULLI_TABLE):
        assert bernoulli(m) == expected
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_recurrence():
    for m in range(1, 20):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


@cache
def qbinomial_oracle(n: int, k: int) -> list[int]:
    """q-Pascal recurrence on plain integer coefficient lists (memoized, so
    n = 30 stays cheap; callers must not mutate the returned list)."""
    if k < 0 or k > n:
        return []
    if k == 0:
        return [1]
    upper = qbinomial_oracle(n - 1, k - 1)
    right = qbinomial_oracle(n - 1, k)
    shifted = [0] * k + right  # q^k * [n-1, k]
    out = [0] * max(len(upper), len(shifted))
    for i, c in enumerate(upper):
        out[i] += c
    for i, c in enumerate(shifted):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 1) == Polynomial((1, 1))
    for n in range(0, 9):
        assert gaussian_binomial(n, 0) == Polynomial((1,))
    assert gaussian_binomial(4, 2) == Polynomial((1, 1, 2, 1, 1))
    assert gaussian_binomial(2, 5).is_zero
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 2)


@pytest.mark.parametrize("n", range(0, 31))
def test_gaussian_binomial_against_q_pascal_oracle(n):
    for k in range(0, n + 1):
        poly = gaussian_binomial(n, k)
        assert list(poly.coeffs) == qbinomial_oracle(n, k)
        assert poly.degree == k * (n - k) or (poly.degree == 0 and k * (n - k) == 0)


def test_gaussian_binomial_symmetry_and_degeneration():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)
            assert gaussian_binomial(n, k)(1) == binomial(n, k)


def test_phi():
    assert phi(0) == Polynomial((1,))
    assert phi(1) == Polynomial((1, -1))
    assert phi(2) == Polynomial((1, -1, -1, 1))
    for k in range(1, 9):
        step = Polynomial([1] + [0] * (k - 1) + [-1])
        assert phi(k) == phi(k - 1) * step
    with pytest.raises(ValueError):
        phi(-1)


def test_pair_terms_binomial():
    e, h = pair_terms("binomial", {"n": 2}, 3)
    assert e == [2, 1, 0]
    assert h == [2, 3, 4]
    e, h = pair_terms("binomial", {"n": 5}, 4)
    assert e == [binomial(5, i) for i in range(1, 5)]
    assert h == [multichoose(5, i) for i in range(1, 5)]


def test_pair_terms_tree():
    e, h = pair_terms("tree", {"a": 1}, 2)
    assert e == [Fraction(1), Fraction(-1, 2)]
    assert h == [Fraction(1), Fraction(3, 2)]


def test_pair_terms_bernoulli_forces_b1():
    a = Fraction(3, 7)
    e, h = pair_terms("bernoulli", {"a": a}, 1)
    assert e[0] == h[0] == a / 2


# The catalog formulas term by term in Fraction arithmetic, apart from
# pair_terms, which builds each term as one Fraction from a = p/q.
TERM_FORMULAS = {
    "tree": (lambda a, i: a * (a - i) ** (i - 1) / factorial(i),
             lambda a, i: a * (a + i) ** (i - 1) / factorial(i)),
    "bernoulli": (lambda a, i: (-1) ** i * a ** i * bernoulli(i) / factorial(i),
                  lambda a, i: a ** i / factorial(i + 1)),
}


@pytest.mark.parametrize("pair_id", sorted(TERM_FORMULAS))
@given(st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**6),
       st.integers(1, 20))
@example(Fraction(0), 20)
@example(Fraction(-999_999, 10**6), 20)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pair_terms_match_the_term_by_term_formulas(pair_id, a, k):
    e_term, h_term = TERM_FORMULAS[pair_id]
    e, h = pair_terms(pair_id, {"a": a}, k)
    assert e == [e_term(a, i) for i in range(1, k + 1)]
    assert h == [h_term(a, i) for i in range(1, k + 1)]
    assert all(type(term) is Fraction for term in e + h)


def test_pair_terms_q_cauchy_first_terms_coincide():
    e, h = pair_terms("q_cauchy", {"a": Fraction(5, 2), "b": Fraction(-1, 3)}, 1)
    assert e[0] == h[0]
    assert e[0] == RationalFunction(
        Polynomial((Fraction(5, 2) + Fraction(1, 3),)), Polynomial((1, -1))
    )


def test_pair_terms_errors():
    with pytest.raises(ValueError):
        pair_terms("nonsense", {}, 3)
    with pytest.raises(ValueError):
        pair_terms("tree", {}, 3)
    with pytest.raises(ValueError):
        pair_terms("q_cauchy", {"a": 1}, 3)
    with pytest.raises(ValueError):
        pair_terms("binomial", {"n": -1}, 3)
    with pytest.raises(ValueError):
        pair_terms("binomial", {"n": 2}, 0)


def _pair_bindings(pair_id):
    if pair_id in ("binomial", "q_binomial"):
        return [{"n": n} for n in range(0, 5)]
    if pair_id in ("tree", "bernoulli"):
        rng = seeded_rng(DEFAULT_SEED, "pair-bind", pair_id)
        return [{"a": random_rational(rng)} for _ in range(5)]
    if pair_id == "q_exp":
        return [{}]
    rng = seeded_rng(DEFAULT_SEED, "pair-bind", pair_id)
    bindings = []
    for _ in range(5):
        a = random_rational(rng)
        b = random_rational(rng)
        while b == a:
            b = random_rational(rng)
        bindings.append({"a": a, "b": b})
    return bindings


@pytest.mark.parametrize("pair_id", PAIR_IDS)
def test_every_pair_satisfies_the_convolution_relation(pair_id):
    for binding in _pair_bindings(pair_id):
        e, h = pair_terms(pair_id, binding, 8)
        assert h_from_e_conv(e) == h, (pair_id, binding)


@pytest.mark.parametrize("pair_id", PAIR_IDS)
def test_every_pair_has_e1_equal_h1(pair_id):
    for binding in _pair_bindings(pair_id):
        e, h = pair_terms(pair_id, binding, 1)
        assert e[0] == h[0], (pair_id, binding)


def test_random_rational_policy():
    rng = seeded_rng(DEFAULT_SEED, "policy")
    seen = [random_rational(rng) for _ in range(500)]
    assert all(1 <= abs(v.numerator) for v in seen)
    # numerator/denominator magnitudes stay within the documented box
    for v in seen:
        assert abs(v) <= 100
        assert v.denominator <= 100
        assert v != 0
    assert any(v < 0 for v in seen) and any(v > 0 for v in seen)


def test_seeded_rng_is_deterministic():
    first = [random_rational(seeded_rng(42, "x", i)) for i in range(10)]
    second = [random_rational(seeded_rng(42, "x", i)) for i in range(10)]
    third = [random_rational(seeded_rng(43, "x", i)) for i in range(10)]
    assert first == second
    assert first != third
