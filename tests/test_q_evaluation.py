"""An oracle for the q-pairs that shares no polynomial code with them.

Evaluation at a fixed q0 is a ring homomorphism.  So each case's serialized
lhs and rhs, evaluated at q0, must equal the composition transform of the
pair's terms evaluated at q0, and that must equal the target term at q0.
The terms are computed here in Fractions only, from their closed forms:
qbinom(n, k) by its product formula, phi_m(q0), and the running products
a - b q0^(i-1).  None of q0 = 2, 3, -2, 1/2 is a root of unity, so no
phi_m(q0) is 0.  Both sides of a q-pair are built by the package's
polynomial code: pair3's as shifted q-binomial rows, pair4's and pair5's
from the int rows of graded_pair_terms, and every lhs by the packed
poly.packed_transform.  A fault that both sides share changes the
serialized value, and this check sees it where the verdict does not.

The oracle checks values, not the canonical form: a wrong factor left in
both num and den of a reduced side evaluates the same.
"""

import json
from fractions import Fraction
from itertools import product

import pytest

from compident.compositions import composition_transform
from compident.identities import default_ranges, verify_case

Q0S = (Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2))
Q_PAIR_SUITES = [f"pair{j}_{way}" for j in (3, 4, 5) for way in ("eh", "he")]


def qbinom(n, k, q):
    """prod_{j<k} (1 - q^(n-j)) / (1 - q^(j+1)); 0 for k > n >= 0."""
    value = Fraction(1)
    for j in range(k):
        value *= (1 - q ** (n - j)) / (1 - q ** (j + 1))
    return value


def phi(m, q):
    """(1 - q)(1 - q^2)...(1 - q^m)."""
    value = Fraction(1)
    for i in range(1, m + 1):
        value *= 1 - q**i
    return value


def pair_terms_at(label, params, k, q):
    """(e_1..e_k, h_1..h_k) of pair3, pair4 or pair5 at q, from the statements."""
    if label == "pair3":
        n = int(params["n"])
        e = [q ** (i * (i - 1) // 2) * qbinom(n, i, q) for i in range(1, k + 1)]
        h = [qbinom(n + i - 1, i, q) for i in range(1, k + 1)]
        return e, h
    if label == "pair4":
        e = [q ** (i * (i - 1) // 2) / phi(i, q) for i in range(1, k + 1)]
        h = [1 / phi(i, q) for i in range(1, k + 1)]
        return e, h
    a, b = params["a"], params["b"]
    e, h = [], []
    e_run = h_run = Fraction(1)
    for i in range(1, k + 1):
        e_run *= a - b * q ** (i - 1)
        h_run *= a * q ** (i - 1) - b
        e.append(e_run / phi(i, q))
        h.append(h_run / phi(i, q))
    return e, h


def horner(coeffs, q):
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * q + Fraction(c)
    return value


def evaluate(text, q):
    """A serialized Polynomial (a list) or RationalFunction (num, den) at q."""
    value = json.loads(text)
    if isinstance(value, dict):
        return horner(value["num"], q) / horner(value["den"], q)
    return horner(value, q)


def default_cases(identity_id):
    for grid in default_ranges(identity_id):
        spans = [range(lo, hi + 1) for lo, hi in grid.values()]
        for combo in product(*spans):
            yield dict(zip(grid, combo))


def test_the_oracle_terms_match_known_values():
    q = Fraction(2)
    assert qbinom(4, 2, q) == 1 + q + 2 * q**2 + q**3 + q**4
    assert qbinom(2, 3, q) == 0
    assert phi(3, q) == (1 - q) * (1 - q**2) * (1 - q**3)
    # q_exp is q_cauchy at (a, b) = (0, -1)
    cauchy = pair_terms_at("pair5", {"a": Fraction(0), "b": Fraction(-1)}, 6, q)
    assert cauchy == pair_terms_at("pair4", {}, 6, q)


def check_case(identity_id, params, **pinned):
    """The case passes, and its sides at each q0 are the oracle's transform."""
    report = verify_case(identity_id, params, **pinned)
    assert report.passed
    label, direction = identity_id.split("_")
    bound = {name: Fraction(value) for name, value in report.params.items()}
    k = params["k"]
    for q in Q0S:
        e, h = pair_terms_at(label, bound, k, q)
        source, target = (e, h) if direction == "eh" else (h, e)
        want = composition_transform(lambda i: source[i - 1], k)
        assert want == target[-1]
        assert evaluate(report.lhs, q) == want, (params, q)
        assert evaluate(report.rhs, q) == want, (params, q)


@pytest.mark.parametrize("identity_id", Q_PAIR_SUITES)
def test_q_pair_sides_evaluate_to_the_transform_of_the_evaluated_terms(identity_id):
    cases = 0
    for params in default_cases(identity_id):
        check_case(identity_id, params)
        cases += 1
    assert cases == {"pair3": 56, "pair4": 8, "pair5": 40}[identity_id[:5]]


@pytest.mark.parametrize("identity_id", Q_PAIR_SUITES[2:])
def test_q_pair_sides_above_the_default_grid(identity_id):
    check_case(identity_id, {"k": 16} if identity_id.startswith("pair4") else {"k": 16, "sample": 0})


@pytest.mark.parametrize("k", range(4, 8))
@pytest.mark.parametrize("identity_id", ["pair5_eh", "pair5_he"])
def test_q_pair_sides_where_factors_cancel(identity_id, k):
    # b = -a: Phi_2, Phi_4 and Phi_6 cancel out of phi_m, the only binding
    # that reaches the dividing branch of QGraded.reduced
    check_case(identity_id, {"k": k, "sample": 0}, a=Fraction(1, 2), b=Fraction(-1, 2))
