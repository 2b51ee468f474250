"""Cyclotomic trial division: Phi_d, poly.divide_out and QGraded.reduced.

The reduction of N / phi_m divides N by the cyclotomic factors of phi_m
instead of running a Euclidean gcd.  Its reference is the gcd route it
replaced, ``RationalFunction(N, phi(m))``, which shares no code with it
beyond the Polynomial type; Phi_d is checked against q^d - 1 = prod_{e|d}
Phi_e and Euler's totient.
"""

import contextlib
import io
from fractions import Fraction
from math import gcd

import pytest

from compident.cli import main
from compident.compositions import composition_transform
from compident.poly import Polynomial, RationalFunction, divide_out, poly_gcd
from compident.symfun import (
    DEFAULT_SEED,
    cyclotomic,
    graded_pair_terms,
    phi,
    random_rational,
    seeded_rng,
)


def q_pow_minus_one(d):
    return Polynomial([-1] + [0] * (d - 1) + [1])


@pytest.mark.parametrize("d", range(1, 41))
def test_cyclotomic_factors_q_to_the_d_minus_one(d):
    product = Polynomial((1,))
    for e in range(1, d + 1):
        if d % e == 0:
            product = product * cyclotomic(e)
    assert product == q_pow_minus_one(d)
    phi_d = cyclotomic(d)
    assert phi_d.degree == sum(1 for j in range(1, d + 1) if gcd(j, d) == 1)
    assert phi_d.leading_coefficient == 1
    assert all(c.denominator == 1 for c in phi_d.coeffs)


def test_cyclotomic_needs_d_at_least_one():
    with pytest.raises(ValueError, match="d must be >= 1"):
        cyclotomic(0)


def test_divide_out_stops_at_the_first_remainder():
    phi2 = cyclotomic(2)
    rest = Polynomial((Fraction(2, 3), 0, 5))
    p = rest * phi2 ** 3
    assert divide_out(p, phi2, 5) == (rest, 3)
    assert divide_out(p, phi2, 2) == (rest * phi2, 2)
    assert divide_out(p, phi2, 0) == (p, 0)
    assert divide_out(p, cyclotomic(1), 4)[1] == 0
    assert divide_out(p, cyclotomic(1), 4)[0] is p  # nothing divided: p itself
    short = Polynomial((3,))
    assert divide_out(short, phi2, 2)[0] is short
    zero = Polynomial()
    assert divide_out(zero, phi2, 4) == (zero, 4)


def bindings():
    rng = seeded_rng(DEFAULT_SEED, "cyclotomic-reduction")
    for _ in range(4):
        yield random_rational(rng), random_rational(rng)
    a = random_rational(rng)
    yield a, a  # every numerator is 0: 0/1
    yield a, -a  # factors (1 + q^j) cancel against phi_m
    yield Fraction(0), a
    yield a, Fraction(0)


def reduction_inputs(k):
    """Every graded term and both transforms, for q_exp and each binding."""
    pairs = [("q_exp", {})] + [("q_cauchy", {"a": a, "b": b}) for a, b in bindings()]
    for pair_id, params in pairs:
        e, h = graded_pair_terms(pair_id, params, k)
        yield from e + h
        yield composition_transform(lambda i: e[i - 1], k)
        yield composition_transform(lambda i: h[i - 1], k)


@pytest.mark.parametrize("k", range(1, 11))
def test_reduction_matches_the_gcd_route(k):
    for term in reduction_inputs(k):
        got = term.reduced()
        want = RationalFunction(term.num, phi(term.degree))
        assert (got.num, got.den) == (want.num, want.den)


def test_verify_all_runs_no_euclidean_gcd():
    before = poly_gcd.cache_info()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--all", "--format", "json"]) == 0
    assert poly_gcd.cache_info() == before
