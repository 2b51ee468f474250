"""Differential tests: the convolution recurrence against independent routes.

composition_transform and h_from_e_conv share one O(k^2) recurrence, so each
is checked against a route that shares no code with it: the literal signed
sum over all 2^(k-1) compositions (transform_by_enumeration, the
prefix-sharing walk that lemma7_roundtrip also runs), and the Toeplitz
determinant.  tests/test_composition_walk.py checks the walk itself against
compositions multiplied out one by one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from compident.compositions import composition_transform, transform_by_enumeration
from compident.poly import Polynomial, RationalFunction
from compident.symfun import (
    DEFAULT_SEED,
    h_from_e_conv,
    h_from_e_det,
    pair_terms,
    random_rational,
    seeded_rng,
)


def enumerated_transform(values, k):
    """sum_r (-1)^(k-r) sum over compositions of k with r parts of prod term(k_i)."""
    return transform_by_enumeration(lambda i: values[i - 1], k)


# every example carries all twelve terms, so each one checks every k <= 12
st_fraction_terms = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=10), min_size=12, max_size=12
)


@given(st_fraction_terms)
@settings(max_examples=20, deadline=None)  # one example enumerates 4095 compositions
def test_transform_matches_enumeration_on_random_fractions(values):
    for k in range(1, len(values) + 1):
        got = composition_transform(lambda i: values[i - 1], k)
        assert got == enumerated_transform(values, k), k


@given(st_fraction_terms)
@settings(max_examples=40)
def test_conv_matches_determinant_on_random_fractions(values):
    conv = h_from_e_conv(values)
    assert conv == [h_from_e_det(values[:m]) for m in range(1, len(values) + 1)]


def _pair3_and_pair5_terms(k):
    for n in range(0, 5):
        yield ("q_binomial", n), pair_terms("q_binomial", {"n": n}, k)
    rng = seeded_rng(DEFAULT_SEED, "transform-routes", "q_cauchy")
    for _ in range(3):
        a = random_rational(rng)
        b = random_rational(rng)
        while b == a:
            b = random_rational(rng)
        yield ("q_cauchy", a, b), pair_terms("q_cauchy", {"a": a, "b": b}, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_transform_matches_enumeration_on_pair_rings(k):
    for label, (e, h) in _pair3_and_pair5_terms(k):
        for values in (e, h):
            got = composition_transform(lambda i: values[i - 1], k)
            assert got == enumerated_transform(values, k), (label, k)
            assert type(got) is type(values[-1]), (label, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_conv_matches_determinant_on_pair_rings(k):
    for label, (e, h) in _pair3_and_pair5_terms(k):
        for values in (e, h):
            # the determinant divides nothing, so it runs in the terms' own ring
            conv = h_from_e_conv(values)
            dets = [h_from_e_det(values[:m]) for m in range(1, k + 1)]
            assert conv == dets, (label, k)
            assert {type(d) for d in dets} == {type(values[-1])}, (label, k)
            if isinstance(values[-1], Polynomial):
                # and Polynomial terms as RationalFunctions give the same values
                field = [RationalFunction(v) for v in values]
                assert [RationalFunction(c) for c in conv] == [
                    h_from_e_det(field[:m]) for m in range(1, k + 1)
                ], (label, k)
