"""The packed transform of Polynomial and QGraded terms and the int-row
paths around it.

composition_transform runs a list of Polynomial terms through
Polynomial.transform_prefix and one of QGraded terms through
QGraded.transform_prefix.  Both are poly.packed_transform: every row and
every weight (1, or a q-binomial) is evaluated once at X = 2**w, the
recurrence runs on CPython ints, and each U(m) is unpacked once.  Every
T(m) it gives is checked against the generic transform_prefix loop over
Polynomial and QGraded products, and both against the literal enumeration of all 2**(k-1)
compositions (transform_by_enumeration), which shares no code with either.
pair3 runs no Polynomial ring operation at all.  graded_pair_terms' int
rows are checked against the running Polynomial product they replaced,
QGraded.reduced's fold test against plain trial division by each Phi_d
with d <= 16, and poly_to_json against str of each Fraction coefficient.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from compident.compositions import (
    composition_transform,
    transform_by_enumeration,
    transform_prefix,
)
from compident.identities import verify_range
from compident.poly import Polynomial, _pack, _unpack, divide_out, poly_to_json
from compident.symfun import (
    DEFAULT_SEED,
    QGraded,
    _fold_divisible,
    _qbinom_weight,
    cyclotomic,
    gaussian_binomial,
    graded_pair_terms,
    pair_terms,
    random_rational,
    seeded_rng,
)

HUGE = 10**110
huge_ints = st.builds(lambda n, sign: sign * n,
                      st.integers(10**100, HUGE), st.sampled_from((1, -1)))
rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
    st.builds(Fraction, huge_ints, st.integers(10**100, HUGE)),
)
# (a, b) of q_cauchy, with the bindings that zero or cancel factors
bindings = st.one_of(
    st.tuples(rationals, rationals),
    rationals.map(lambda a: (a, -a)),
    rationals.map(lambda b: (Fraction(0), b)),
    rationals.map(lambda a: (a, Fraction(0))),
)


def running_product_terms(a, b, k):
    """q_cauchy's numerators as running Polynomial products of Fractions,
    the way graded_pair_terms built them before its int rows."""
    e_num = h_num = Polynomial((a - b,))
    e, h = [QGraded(1, e_num)], [QGraded(1, h_num)]
    for i in range(2, k + 1):
        e_num = e_num * Polynomial([a] + [0] * (i - 2) + [-b])
        h_num = h_num * Polynomial([-b] + [0] * (i - 2) + [a])
        e.append(QGraded(i, e_num))
        h.append(QGraded(i, h_num))
    return e, h


def seeded_bindings():
    rng = seeded_rng(DEFAULT_SEED, "packed-transform")
    yield Fraction(0), Fraction(-1)  # q_exp
    yield Fraction(3, 4), Fraction(-3, 4)  # b = -a: factors of phi_m cancel
    for _ in range(2):
        yield random_rational(rng), random_rational(rng)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(bindings, st.integers(1, 12), st.sampled_from(["eh", "he"]))
def test_packed_transform_matches_the_qgraded_loop(binding, k, direction):
    a, b = binding
    e, h = graded_pair_terms("q_cauchy", {"a": a, "b": b}, k)
    source, target = (e, h) if direction == "eh" else (h, e)
    packed = composition_transform(lambda i: source[i - 1], k)
    prefix = QGraded.transform_prefix(source)
    assert prefix == transform_prefix(source)
    assert packed == prefix[-1] == target[-1]


@pytest.mark.parametrize("direction", ["eh", "he"])
@pytest.mark.parametrize("binding", [
    (Fraction(HUGE + 7, 3**230 + 1), Fraction(-HUGE // 3 - 1, 7**130)),
    (Fraction(HUGE + 7, 3**230 + 1), -Fraction(HUGE + 7, 3**230 + 1)),
])
def test_packed_transform_at_k12_on_110_digit_bindings(binding, direction):
    a, b = binding
    e, h = graded_pair_terms("q_cauchy", {"a": a, "b": b}, 12)
    source, target = (e, h) if direction == "eh" else (h, e)
    prefix = QGraded.transform_prefix(source)
    assert prefix == transform_prefix(source) and prefix[-1] == target[-1]


@pytest.mark.parametrize("direction", ["eh", "he"])
@pytest.mark.parametrize("k", range(1, 13))
def test_packed_q_exp_transform_matches_the_qgraded_loop(k, direction):
    e, h = graded_pair_terms("q_exp", {}, k)
    source, target = (e, h) if direction == "eh" else (h, e)
    prefix = QGraded.transform_prefix(source)
    assert prefix == transform_prefix(source) and prefix[-1] == target[-1]


@pytest.mark.parametrize("direction", ["eh", "he"])
@pytest.mark.parametrize("k", range(1, 11))
def test_the_enumeration_agrees_with_both_transforms_on_qgraded_terms(k, direction):
    for a, b in seeded_bindings():
        e, h = graded_pair_terms("q_cauchy", {"a": a, "b": b}, k)
        source = e if direction == "eh" else h
        enumerated = transform_by_enumeration(lambda i: source[i - 1], k)
        assert type(enumerated) is QGraded
        assert enumerated == QGraded.transform_prefix(source)[-1] == transform_prefix(source)[-1]


def test_a_term_of_the_wrong_degree_is_refused():
    e, _ = graded_pair_terms("q_exp", {}, 3)
    with pytest.raises(ArithmeticError):
        QGraded.transform_prefix([e[0], e[2]])


# coefficients: small and 100-digit ints of both signs, and Fractions over
# distinct primes, so the denominators of one term, and of the terms, are coprime
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
poly_coeffs = st.one_of(
    st.integers(-9, 9),
    huge_ints,
    st.builds(Fraction, st.one_of(st.integers(-9, 9), huge_ints), st.sampled_from(PRIMES)),
)
# the zero polynomial and constants among them
poly_terms = st.lists(poly_coeffs, max_size=4).map(Polynomial)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda k: st.lists(poly_terms, min_size=k, max_size=k)))
def test_packed_polynomial_transform_matches_the_loop_and_the_enumeration(values):
    k = len(values)
    packed = composition_transform(lambda i: values[i - 1], k)
    prefix = Polynomial.transform_prefix(values)
    assert prefix == transform_prefix(values) and packed == prefix[-1]
    assert packed == transform_by_enumeration(lambda i: values[i - 1], k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 20), st.integers(1, 12), st.sampled_from(["eh", "he"]))
def test_packed_pair3_transform_recovers_its_target(n, k, direction):
    e, h = pair_terms("q_binomial", {"n": n}, k)
    source, target = (e, h) if direction == "eh" else (h, e)
    packed = composition_transform(lambda i: source[i - 1], k)
    assert packed == transform_prefix(source)[-1] == target[-1]
    if k <= 8:  # products of degree up to k n: the enumeration stays small
        assert packed == transform_by_enumeration(lambda i: source[i - 1], k)


@pytest.mark.parametrize("values", [
    [Polynomial((1, 2)), 3, Polynomial((0, Fraction(1, 3)))],
    [3, Polynomial((1, 2)), Polynomial((0, Fraction(1, 3)))],
])
def test_a_list_mixing_polynomials_and_ints_runs_the_generic_loop(values, monkeypatch):
    packed = []
    own = Polynomial.transform_prefix
    monkeypatch.setattr(Polynomial, "transform_prefix",
                        staticmethod(lambda terms: packed.append(terms) or own(terms)))
    got = composition_transform(lambda i: values[i - 1], 3)
    assert packed == [] and got == transform_prefix(values)[-1]
    as_polynomials = [v if isinstance(v, Polynomial) else Polynomial((v,)) for v in values]
    composition_transform(lambda i: as_polynomials[i - 1], 3)
    assert packed == [as_polynomials]


RING_OPERATORS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__")


@pytest.mark.parametrize("identity_id", ["pair3_eh", "pair3_he"])
def test_pair3_runs_no_polynomial_ring_operation(identity_id, monkeypatch):
    calls = []
    for name in RING_OPERATORS:
        def counting(*args, _name=name, _operator=getattr(Polynomial, name)):
            calls.append(_name)
            return _operator(*args)

        monkeypatch.setattr(Polynomial, name, counting)
    assert verify_range(identity_id).passed
    assert calls == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bindings, st.integers(1, 12))
def test_int_row_terms_match_the_running_polynomial_product(binding, k):
    a, b = binding
    assert graded_pair_terms("q_cauchy", {"a": a, "b": b}, k) == running_product_terms(a, b, k)


def test_q_exp_terms_match_the_running_polynomial_product():
    want = running_product_terms(Fraction(0), Fraction(-1), 12)
    assert graded_pair_terms("q_exp", {}, 12) == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.just(0), st.integers(-HUGE, HUGE)), max_size=30), st.integers(0, 4))
def test_unpack_reads_back_every_packed_row(row, spare):
    # the size _pack and _unpack need: every |c| below X/2
    size = (max(map(abs, row), default=0).bit_length() + 8) // 8 + spare
    value = _pack([max(c, 0) for c in row], size) - _pack([max(-c, 0) for c in row], size)
    digits = _unpack(value, size)
    width = len(row)
    while width and not row[width - 1]:
        width -= 1
    assert digits[:width] == row[:width] and not any(digits[width:])
    assert len(digits) <= width + 1  # at most one zero digit on top


@pytest.mark.parametrize("size", [0, 1, 3])
def test_the_qbinom_weight_is_the_q_binomial_at_q_equal_to_2_to_the_8_size(size):
    # size 0 is q = 1, where qbinom(m, i) is C(m, i), its l1 norm
    for m in range(13):  # every coefficient of qbinom(m, i) is below 2**8
        for i in range(m + 1):
            assert _qbinom_weight(m, i, size) == gaussian_binomial(m, i)(2 ** (8 * size))


int_rows = st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=40)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(int_rows, st.integers(1, 16), st.booleans())
def test_the_fold_never_rejects_a_phi_d_that_divides(row, d, multiple):
    factor = cyclotomic(d)
    num = Polynomial(row) * factor if multiple else Polynomial(row)
    divides = divide_out(num, factor, 1)[1] == 1
    assert divides >= multiple
    if divides:
        assert _fold_divisible(num, factor, d)


@pytest.mark.parametrize("d", range(1, 17))
def test_the_fold_matches_trial_division_on_seeded_rows(d):
    rng = seeded_rng(DEFAULT_SEED, "fold", d)
    factor = cyclotomic(d)
    rejected = 0
    for length in range(1, 3 * d + 2):
        base = Polynomial([random_rational(rng) for _ in range(length)])
        for num in (base, base * factor, base * factor * factor):
            divides = divide_out(num, factor, 1)[1] == 1
            folds = _fold_divisible(num, factor, d)
            assert folds or not divides
            rejected += not folds
    assert rejected  # the fold spares trial divisions, not only checks them


fraction_polys = st.lists(
    st.one_of(st.integers(-50, 50), huge_ints, rationals), max_size=12
).map(Polynomial)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fraction_polys)
def test_poly_to_json_prints_each_fraction_coefficient(p):
    assert poly_to_json(p) == [str(c) for c in p.coeffs]
