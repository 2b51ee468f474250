"""Tests for the graded q-pair element and the pair4/pair5 evaluator built on it.

The reference route is the one the graded route replaced: pair_terms'
RationalFunction terms, multiplied out by a test-local running product and
fed to composition_transform, where every sum and product reduces by gcd.
"""

import json
from fractions import Fraction

import pytest

import compident.identities as identities
from compident.compositions import composition_transform
from compident.identities import verify_case
from compident.poly import Polynomial, RationalFunction, poly_gcd
from compident.symfun import (
    DEFAULT_SEED,
    QGraded,
    gaussian_binomial,
    graded_pair_terms,
    pair_terms,
    phi,
    random_rational,
    seeded_rng,
)


def serialized(value):
    return json.dumps(value.to_json(), separators=(",", ":"))


def running_product_terms(a, b, k):
    """q_cauchy's (e, h) as running products of reduced RationalFunctions."""
    e, h = [], []
    e_run = h_run = RationalFunction(1)
    for i in range(1, k + 1):
        one_minus = Polynomial([1] + [0] * (i - 1) + [-1])
        e_factor = Polynomial([a] + [0] * (i - 1)) - Polynomial([0] * (i - 1) + [b])
        h_factor = Polynomial([0] * (i - 1) + [a]) - Polynomial([b] + [0] * (i - 1))
        e_run = e_run * RationalFunction(e_factor, one_minus)
        h_run = h_run * RationalFunction(h_factor, one_minus)
        e.append(e_run)
        h.append(h_run)
    return e, h


def seeded_bindings():
    rng = seeded_rng(DEFAULT_SEED, "q-graded")
    for _ in range(3):
        a = random_rational(rng)
        b = random_rational(rng)
        while b == a:
            b = random_rational(rng)
        yield a, b
    yield Fraction(3, 4), Fraction(-3, 4)  # b = -a: the reduction cancels factors of phi_k


@pytest.mark.parametrize("k", range(1, 9))
def test_pair_terms_match_the_running_product_route(k):
    got_e, got_h = pair_terms("q_exp", {}, k)
    assert got_e == [RationalFunction(Polynomial([0] * (i * (i - 1) // 2) + [1]), phi(i))
                     for i in range(1, k + 1)]
    assert got_h == [RationalFunction(1, phi(i)) for i in range(1, k + 1)]
    for a, b in seeded_bindings():
        want_e, want_h = running_product_terms(a, b, k)
        got_e, got_h = pair_terms("q_cauchy", {"a": a, "b": b}, k)
        assert [serialized(t) for t in got_e] == [serialized(t) for t in want_e]
        assert [serialized(t) for t in got_h] == [serialized(t) for t in want_h]


@pytest.mark.parametrize("direction", ["eh", "he"])
@pytest.mark.parametrize("k", range(1, 9))
def test_graded_evaluator_matches_the_rational_function_route(direction, k):
    cases = [("pair4", "q_exp", None, None)]
    cases += [("pair5", "q_cauchy", a, b) for a, b in seeded_bindings()]
    for label, terms_id, a, b in cases:
        params = {"k": k} if label == "pair4" else {"k": k, "sample": 0}
        report = verify_case(f"{label}_{direction}", params, a=a, b=b)
        bound = {} if a is None else {"a": a, "b": b}
        e, h = pair_terms(terms_id, bound, k)
        source, target = (e, h) if direction == "eh" else (h, e)
        lhs = composition_transform(lambda i: source[i - 1], k)
        assert report.passed
        assert report.lhs == serialized(lhs)
        assert report.rhs == serialized(target[k - 1])


def test_catalog_bindings_match_the_rational_function_route():
    # the sampled (a, b) the catalog itself draws, read back from the report
    for direction in ("eh", "he"):
        for sample in range(5):
            report = verify_case(f"pair5_{direction}", {"k": 8, "sample": sample})
            a, b = Fraction(report.params["a"]), Fraction(report.params["b"])
            e, h = running_product_terms(a, b, 8)
            source, target = (e, h) if direction == "eh" else (h, e)
            assert report.lhs == serialized(composition_transform(lambda i: source[i - 1], 8))
            assert report.rhs == serialized(target[7])


def test_b_equal_to_minus_a_reduces_below_phi_k():
    e, h = graded_pair_terms("q_cauchy", {"a": Fraction(3, 4), "b": Fraction(-3, 4)}, 8)
    assert e[7].reduced().den.degree == 22
    assert phi(8).degree == 36


def numerators():
    rng = seeded_rng(DEFAULT_SEED, "q-graded-numerators")
    yield Polynomial((Fraction(2, 3),))
    yield phi(3) * Polynomial((Fraction(-5, 7), 1))  # shares factors with every phi_j, j >= 3
    yield Polynomial([random_rational(rng) for _ in range(6)])


def test_product_law_reduces_to_the_rational_function_product():
    elements = [QGraded(i, n) for i in range(0, 12) for n in numerators()]
    for x in elements:
        for y in elements:
            if x.degree + y.degree > 12:
                continue
            product = x * y
            assert product.degree == x.degree + y.degree
            assert product.reduced() == x.reduced() * y.reduced()


def test_phi_product_law():
    for i in range(8):
        for j in range(8):
            assert phi(i) * phi(j) * gaussian_binomial(i + j, i) == phi(i + j)


def test_sum_and_negation_act_on_numerators():
    x, y = QGraded(3, Polynomial((1, 2))), QGraded(3, Polynomial((0, 5, 1)))
    assert x + y == QGraded(3, Polynomial((1, 7, 1)))
    assert -x == QGraded(3, Polynomial((-1, -2)))
    assert (x + -x).reduced() == RationalFunction(0)


def test_sum_of_unequal_degrees_is_an_internal_fault():
    with pytest.raises(ArithmeticError, match="degrees 2 and 3") as info:
        QGraded(2, Polynomial((1,))) + QGraded(3, Polynomial((1,)))
    # the CLI reports a ValueError as a usage error (exit 2)
    assert not isinstance(info.value, ValueError)


def test_graded_pair_terms_errors():
    with pytest.raises(ValueError, match="no graded terms"):
        graded_pair_terms("tree", {"a": 1}, 3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        graded_pair_terms("q_exp", {}, 0)
    with pytest.raises(ValueError, match="requires parameter 'b'"):
        graded_pair_terms("q_cauchy", {"a": 1}, 3)


def gcd_calls():
    info = poly_gcd.cache_info()
    return info.hits + info.misses


@pytest.fixture
def reductions(monkeypatch):
    """Counts QGraded.reduced calls; the list holds one entry per call."""
    calls = []
    reduced = QGraded.reduced

    def counted(self):
        calls.append(self.degree)
        return reduced(self)

    monkeypatch.setattr(QGraded, "reduced", counted)
    return calls


@pytest.mark.parametrize("identity_id", ["pair4_eh", "pair5_eh", "pair5_he"])
def test_one_case_reduces_once(identity_id, reductions):
    params = {"k": 8} if identity_id.startswith("pair4") else {"k": 8, "sample": 3}
    before = gcd_calls()
    report = verify_case(identity_id, params)
    assert report.passed
    # one reduction serves both equal sides (two if each side reduced on its
    # own); hundreds when every ring operation reduced
    assert len(reductions) == 1
    assert gcd_calls() == before  # the reduction runs no Euclidean gcd


def test_perturbed_target_fails_with_each_side_reduced(monkeypatch, reductions):
    k = 6

    def perturbed(pair_id, params, k):
        e, h = graded_pair_terms(pair_id, params, k)
        h[-1] = QGraded(k, h[-1].num + 1)
        return e, h

    a, b = Fraction(2, 3), Fraction(-5, 7)
    monkeypatch.setattr(identities, "graded_pair_terms", perturbed)
    before = gcd_calls()
    report = verify_case("pair5_eh", {"k": k, "sample": 0}, a=a, b=b)
    assert len(reductions) == 2
    assert gcd_calls() == before
    assert not report.passed
    e, h = graded_pair_terms("q_cauchy", {"a": a, "b": b}, k)
    assert report.lhs == serialized(h[-1].reduced())
    assert report.rhs == serialized(RationalFunction(h[-1].num + 1, phi(k)))
