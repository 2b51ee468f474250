"""Differential tests: the integer-numerator Polynomial against Fraction tuples.

Polynomial stores integer numerators over one common denominator.  The
reference below is the plain schoolbook arithmetic on tuples of Fractions
that shares no code with it; every operation must give the same
coefficients, and every result must be in the unique normal form.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from compident.poly import Polynomial, exact_div, poly_gcd


def ref_trim(coeffs) -> tuple[Fraction, ...]:
    items = [Fraction(c) for c in coeffs]
    while items and not items[-1]:
        items.pop()
    return tuple(items)


def ref_add(a, b, sign=1):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += sign * c
    return ref_trim(out)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    dd = len(b) - 1
    if len(a) - 1 < dd:
        return (), a
    rem = list(a)
    quot = [Fraction(0)] * (len(a) - dd)
    for shift in range(len(quot) - 1, -1, -1):
        q = rem[dd + shift] / b[-1]
        quot[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
    return ref_trim(quot), ref_trim(rem)


def assert_normal_form(p: Polynomial) -> None:
    assert all(type(c) is int for c in p._num)
    assert type(p._den) is int and p._den > 0
    assert gcd(p._den, *p._num) == 1
    assert not p._num or p._num[-1] != 0
    if not p._num:
        assert p._den == 1
    assert all(type(c) is Fraction for c in p.coeffs)


# integers, zeros and Fractions with denominators up to 10^6
st_coeff = st.one_of(
    st.integers(-50, 50),
    st.just(0),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)
# trailing zeros must be stripped, so some lists end in them
st_coeffs = st.builds(lambda cs, z: cs + [0] * z, st.lists(st_coeff, max_size=6), st.integers(0, 2))
st_scalar = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@given(st_coeffs)
@settings(max_examples=100, derandomize=True)
def test_construction_matches_reference(cs):
    p = Polynomial(cs)
    assert_normal_form(p)
    ref = ref_trim(cs)
    assert p.coeffs == ref
    assert tuple(p) == ref
    assert [p.coefficient(t) for t in range(-1, len(cs) + 2)] == [
        ref[t] if 0 <= t < len(ref) else 0 for t in range(-1, len(cs) + 2)
    ]
    if ref:
        assert p.leading_coefficient == ref[-1]
        assert p.degree == len(ref) - 1


@given(st_coeffs, st_coeffs)
@settings(max_examples=100, derandomize=True)
def test_add_sub_mul_match_reference(ca, cb):
    a, b = Polynomial(ca), Polynomial(cb)
    ra, rb = ref_trim(ca), ref_trim(cb)
    for got, want in (
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, rb, -1)),
        (b - a, ref_add(rb, ra, -1)),
        (-a, ref_trim(-c for c in ra)),
        (a * b, ref_mul(ra, rb)),
        (b * a, ref_mul(rb, ra)),
    ):
        assert_normal_form(got)
        assert got.coeffs == want


@given(st_coeffs, st_scalar)
@settings(max_examples=100, derandomize=True)
def test_scalar_operations_match_reference(cs, s):
    p, ref = Polynomial(cs), ref_trim(cs)
    for got, want in (
        (p + s, ref_add(ref, (Fraction(s),))),
        (s + p, ref_add(ref, (Fraction(s),))),
        (p - s, ref_add(ref, (Fraction(s),), -1)),
        (s - p, ref_add((Fraction(s),), ref, -1)),
        (p * s, ref_mul(ref, ref_trim((s,)))),
        (s * p, ref_mul(ref, ref_trim((s,)))),
    ):
        assert_normal_form(got)
        assert got.coeffs == want
    if s:
        quotient = p / s
        assert_normal_form(quotient)
        assert quotient.coeffs == tuple(c / s for c in ref)
    else:
        with pytest.raises(ZeroDivisionError):
            p / s


@given(st_coeffs, st_coeffs)
@settings(max_examples=100, derandomize=True)
def test_divmod_matches_reference(ca, cb):
    a, b = Polynomial(ca), Polynomial(cb)
    assume(not b.is_zero)
    q, r = divmod(a, b)
    want_q, want_r = ref_divmod(ref_trim(ca), ref_trim(cb))
    assert_normal_form(q)
    assert_normal_form(r)
    assert q.coeffs == want_q
    assert r.coeffs == want_r
    assert a // b == q and a % b == r


@given(st_coeffs, st_coeffs)
@settings(max_examples=60, derandomize=True)
def test_exact_div_recovers_factor(ca, cb):
    a, b = Polynomial(ca), Polynomial(cb)
    assume(not b.is_zero)
    quotient = exact_div(a * b, b)
    assert_normal_form(quotient)
    assert quotient == a


@given(st_coeffs)
@settings(max_examples=60, derandomize=True)
def test_monic_matches_reference(cs):
    p, ref = Polynomial(cs), ref_trim(cs)
    assume(ref)
    m = p.monic()
    assert_normal_form(m)
    assert m.coeffs == tuple(c / ref[-1] for c in ref)


@given(st_coeffs, st_scalar)
@settings(max_examples=100, derandomize=True)
def test_equal_values_hash_equal(cs, s):
    assume(s)
    p = Polynomial(cs)
    for other in (p * s / s, (p + s) - s, Polynomial(ref_trim(cs)), Polynomial(p.coeffs)):
        assert other == p
        assert hash(other) == hash(p)


def test_equal_values_hash_equal_examples():
    half_plus_x = Polynomial((Fraction(2, 4), 1))
    assert half_plus_x * 2 == Polynomial((1, 2))
    assert hash(half_plus_x * 2) == hash(Polynomial((1, 2)))
    assert (Polynomial((1, 2)) / 2)._den == 2
    assert Polynomial((0, 0))._num == () and Polynomial((0, 0))._den == 1
    assert Polynomial((Fraction(3, 6), Fraction(-1, 3)))._num == (3, -2)
    assert Polynomial((Fraction(3, 6), Fraction(-1, 3)))._den == 6
    assert Polynomial((True, 2)) == Polynomial((1, 2))


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=60, derandomize=True)
def test_gcd_ignores_the_common_denominator(ca, cb, da, db):
    a, b = Polynomial(ca), Polynomial(cb)
    assume(not (a.is_zero and b.is_zero))
    assert poly_gcd(a / da, b / db) == poly_gcd(a, b)
