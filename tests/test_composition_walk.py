"""The composition walk and the algebra of the transform.

part_count_sums and transform_by_enumeration form the product of every
composition of k once, from its prefix one part shorter: a prefix that
leaves _BATCH (14) units or more branches depth-first, and the prefixes
below it go level by level, one list per remainder.  They are checked
against a test-local per-r reference that multiplies out each composition
from enumerate_compositions, on int, Fraction, Polynomial and
RationalFunction terms, on both sides of _BATCH, and on value lists shorter
than k.  A counting ring pins the 2**k - k - 1 products, and tracemalloc
pins that the level lists stay small at k = 18.  For Fraction terms the walk
runs on integer numerators over one common denominator L, and the transform
reduces one Fraction over L**k.

The transform is E(t) -> 1/E(-t) on the group 1 + tR[[t]], so it is an
involution and it is multiplicative for the Cauchy product of the
1 + sum a_k t^k series; both are checked on random rational sequences,
through the recurrence and through the walk.
"""

import tracemalloc
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from compident.compositions import (
    _BATCH,
    enumerate_compositions,
    inner_sum_positive,
    part_count_sums,
    transform_by_enumeration,
    transform_prefix,
)
from compident.symfun import (
    DEFAULT_SEED,
    graded_pair_terms,
    pair_terms,
    random_rational,
    seeded_rng,
)

# Every phase but explain: after a failure, explain reruns the exponential walk
# far more often than shrinking does and delays the report by minutes.
PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)


def reference_sums(values, k):
    """[S_1, ..., S_k] over the compositions of k with parts at most
    len(values), each multiplied out on its own; 0 where there are none."""
    sums = []
    for r in range(1, k + 1):
        total = None
        for comp in enumerate_compositions(k, r):
            if max(comp) > len(values):
                continue
            product = None
            for part in comp:
                term = values[part - 1]
                product = term if product is None else product * term
            total = product if total is None else total + product
        sums.append(0 if total is None else total)
    return sums


def reference_transform(sums, k):
    total = None
    for r, s in enumerate(sums, 1):
        signed = s if (k - r) % 2 == 0 else -s
        total = signed if total is None else total + signed
    return total


def check_walk(values):
    k = len(values)
    expected = reference_sums(values, k)
    got = part_count_sums(values, k)
    assert got == expected
    assert [type(s) for s in got] == [type(s) for s in expected]
    total = transform_by_enumeration(lambda i: values[i - 1], k)
    assert total == reference_transform(expected, k)
    assert type(total) is type(values[0])
    for r in range(1, k + 1):
        assert inner_sum_positive(lambda i: values[i - 1], k, r) == expected[r - 1]


@given(
    st.lists(
        st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**6),
        min_size=1,
        max_size=12,
    )
)
# k = 12 multiplies out 2048
@settings(max_examples=40, deadline=None, derandomize=True, phases=PHASES)
def test_walk_matches_reference_on_fractions(values):
    check_walk(values)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None, derandomize=True, phases=PHASES)
def test_walk_matches_reference_on_ints(values):
    check_walk(values)


@pytest.mark.parametrize("k", [15, 16])
def test_walk_matches_reference_past_the_depth_first_switch(k):
    # the first k whose walk branches depth-first below the empty prefix
    assert k > _BATCH
    rng = Random(k)
    check_walk([rng.randint(-10**6, 10**6) for _ in range(k)])


DRAWS = {
    "int": lambda rng: rng.randint(-10**6, 10**6),
    "fraction": lambda rng: Fraction(rng.randint(-10**3, 10**3), rng.randint(1, 10**3)),
}


@pytest.mark.parametrize("k, largest", [
    (5, 1), (5, 2), (5, 4), (13, 1), (13, 3), (13, 12),
    (15, 2), (15, 3), (15, 14), (16, 1), (16, 3), (16, 9), (16, 15),
])
@pytest.mark.parametrize("ring", sorted(DRAWS))
def test_walk_caps_the_parts_at_the_values_given(ring, k, largest):
    rng = Random(f"{k}:{largest}")
    values = [DRAWS[ring](rng) for _ in range(largest)]
    assert part_count_sums(values, k) == reference_sums(values, k)


def _q_pair_lists(k):
    rng = seeded_rng(DEFAULT_SEED, "composition-walk")
    for n in (0, 2, rng.randint(3, 6)):
        yield from pair_terms("q_binomial", {"n": n}, k)
    for _ in range(2):
        a = random_rational(rng)
        b = random_rational(rng)
        while b == a:
            b = random_rational(rng)
        yield from pair_terms("q_cauchy", {"a": a, "b": b}, k)


@pytest.mark.parametrize("k", range(1, 9))
def test_walk_matches_reference_on_q_pairs(k):
    for values in _q_pair_lists(k):
        check_walk(values)


def test_inner_sum_positive_reads_only_parts_an_r_part_composition_has():
    for k in range(1, 9):
        for r in range(1, k + 1):
            seen = []

            def term(i):
                seen.append(i)
                return Fraction(i, i + 1)

            inner_sum_positive(term, k, r)
            assert max(seen) == k - r + 1


@pytest.mark.parametrize("pair_id, params", [
    ("q_exp", {}),
    ("q_cauchy", {"a": Fraction(1, 3), "b": Fraction(-2, 5)}),
], ids=["q_exp", "q_cauchy"])
def test_inner_sum_positive_runs_on_qgraded_terms(pair_id, params):
    # each sum starts from its first product: a QGraded tuple does not add to the int 0
    k = 6
    for graded, reduced in zip(graded_pair_terms(pair_id, params, k), pair_terms(pair_id, params, k)):
        for r in range(1, k + 1):
            got = inner_sum_positive(lambda i: graded[i - 1], k, r)
            assert got.reduced() == inner_sum_positive(lambda i: reduced[i - 1], k, r)


class Counted:
    """A ring element that counts the products formed from it."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.value * other.value)

    def __add__(self, other):
        return Counted(self.value + (other.value if isinstance(other, Counted) else other))

    __radd__ = __add__


def test_inner_sum_positive_stops_the_walk_at_r_parts():
    k = 16
    values = [Counted(Fraction(i, i + 1)) for i in range(1, k + 1)]
    Counted.products = 0
    got = inner_sum_positive(lambda i: values[i - 1], k, 2)
    assert got.value == sum(
        Fraction(i, i + 1) * Fraction(k - i, k - i + 1) for i in range(1, k)
    )
    assert Counted.products <= 2 * k  # one product per 2-part composition, not ~2**k


@pytest.mark.parametrize("r", [11, 12, 15])
def test_inner_sum_positive_walks_only_prefixes_of_r_part_compositions(r):
    k = 16
    values = [Counted(Fraction(i, i + 1)) for i in range(1, k + 1)]
    Counted.products = 0
    got = inner_sum_positive(lambda i: values[i - 1], k, r)
    products = Counted.products
    assert got.value == inner_sum_positive(lambda i: Fraction(i, i + 1), k, r)
    # every prefix walked starts an r-part composition, and each of those
    # forms r products along its path; the walk over all of them forms ~2**k
    assert products <= r * comb(k - 1, r - 1)


@pytest.mark.parametrize("k", range(1, 17))
def test_walk_forms_one_product_per_prefix_of_two_or_more_parts(k):
    # the sequences of j >= 2 positive parts summing to at most k number
    # 2**k - k - 1: each is formed once, none shared across suffixes
    values = [Counted(i) for i in range(1, k + 1)]
    Counted.products = 0
    got = part_count_sums(values, k)
    assert Counted.products == 2**k - k - 1
    assert [s.value for s in got] == reference_sums(list(range(1, k + 1)), k)


def test_walk_keeps_its_level_lists_inside_one_subtree():
    # a walk that ran level by level from the empty prefix peaks near 2 MB
    tracemalloc.start()
    try:
        part_count_sums([2**40 + i for i in range(18)], 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mixed_int_and_fraction_terms_keep_the_product_types():
    # part 2 is an int, so the two-part bucket of k = 4 mixes the 1+3, 2+2, 3+1 products
    values = [Fraction(1, 2), 3, Fraction(5, 7), 2]
    check_walk(values)
    assert type(part_count_sums(values, 4)[0]) is int  # the single part 4 -> values[3]


def by_recurrence(values):
    return transform_prefix(values)


def by_walk(values):
    term = lambda i: values[i - 1]
    return [transform_by_enumeration(term, k) for k in range(1, len(values) + 1)]


def cauchy_product(a, b):
    """Coefficients 1..K of (1 + sum a_k t^k)(1 + sum b_k t^k)."""
    a = [1, *a]
    b = [1, *b]
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(1, len(a))]


st_sequence = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=50), min_size=10, max_size=10
)


@pytest.mark.parametrize("transform", [by_recurrence, by_walk])
@given(st_sequence)
@settings(max_examples=25, deadline=None, derandomize=True, phases=PHASES)
def test_transform_is_an_involution(transform, values):
    assert transform(transform(values)) == values


@pytest.mark.parametrize("transform", [by_recurrence, by_walk])
@given(st_sequence, st_sequence)
@settings(max_examples=25, deadline=None, derandomize=True, phases=PHASES)
def test_transform_is_multiplicative(transform, a, b):
    assert transform(cauchy_product(a, b)) == cauchy_product(transform(a), transform(b))
