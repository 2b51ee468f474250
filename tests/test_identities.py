"""Tests for the identity registry and the verification engine."""

import json
import threading
import weakref
from fractions import Fraction

import pytest

import compident.identities as identities
from compident.compositions import (
    BudgetExceededError,
    composition_transform,
    inner_sum_closed_binomial,
)
from compident.exact_arith import binomial
from compident.identities import (
    CaseReport,
    DomainError,
    SuiteReport,
    UnknownIdentityError,
    default_ranges,
    get_descriptor,
    list_identities,
    pair_rationals,
    rothe_hagen_A,
    verify_case,
    verify_polynomial_in_n,
    verify_range,
)
from compident.poly import Polynomial

EXPECTED_IDS = [
    "eq5", "eq6", "eq13", "eq17", "eq18", "eq19", "eq29", "eq31", "eq36",
    "eq37", "eq38", "eq41", "eq42", "eq47", "lemma7_roundtrip",
    "pair1_eh", "pair1_he", "pair2_eh", "pair2_he", "pair3_eh", "pair3_he",
    "pair4_eh", "pair4_he", "pair5_eh", "pair5_he",
]


def test_registry_is_complete_and_ordered():
    descriptors = list_identities()
    assert [d.id for d in descriptors] == EXPECTED_IDS
    assert len(descriptors) == 25
    for d in descriptors:
        assert d.statement
        assert d.ring in ("integer", "rational", "polynomial_q", "rational_function_q")
        assert d.params
        assert set(d._asdict()) == {"id", "statement", "ring", "params", "modes", "domain"}


def test_descriptor_lookup():
    eq5 = get_descriptor("eq5")
    assert eq5.modes == ("pointwise",)
    assert eq5.params == ("k", "n")
    assert "k >= 1" in eq5.domain and "n >= 0" in eq5.domain
    assert get_descriptor("eq13").modes == ("pointwise", "polynomial_in_n")
    assert get_descriptor("eq17").modes == ("polynomial_in_n",)
    with pytest.raises(UnknownIdentityError):
        get_descriptor("eq999")


def test_verify_case_eq5():
    report = verify_case("eq5", {"k": 3, "n": 2})
    assert report.passed and report.lhs == "4" and report.rhs == "4"
    assert report.params == {"k": "3", "n": "2"}
    for n in range(0, 8):
        r = verify_case("eq5", {"k": 1, "n": n})
        assert r.passed and r.lhs == str(n)


def test_verify_case_eq38():
    report = verify_case("eq38", {"k": 2, "n": 1})
    assert report.passed
    assert report.lhs == "-1/2" and report.rhs == "-1/2"


def test_verify_case_eq42():
    report = verify_case("eq42", {"k": 3, "n": 2})
    assert report.passed and report.lhs == "0" and report.rhs == "0"


def test_verify_case_eq37():
    report = verify_case("eq37", {"x": 1, "n": 1, "k": 2})
    assert report.passed and report.lhs == "0"


def test_verify_case_eq36():
    report = verify_case("eq36", {"x": 2, "n": 1, "k": 3})
    assert report.passed
    # k = 1: empty sum on the left, exact cancellation on the right
    assert verify_case("eq36", {"x": 3, "n": 2, "k": 1}).passed


def test_verify_case_domain_errors():
    with pytest.raises(UnknownIdentityError):
        verify_case("eq999", {"k": 1})
    with pytest.raises(DomainError):
        verify_case("eq19", {"k": 3, "t": 4})
    with pytest.raises(DomainError):
        verify_case("eq41", {"n": 3, "t": 1})
    with pytest.raises(DomainError):
        verify_case("eq37", {"x": 3, "n": 1, "k": 3})
    with pytest.raises(DomainError):
        verify_case("eq5", {"k": 1, "n": 0, "z": 4})
    with pytest.raises(DomainError):
        verify_case("eq5", {"k": 1})
    with pytest.raises(DomainError):
        verify_case("eq29", {"k": 1})


def test_budget_error_propagates(monkeypatch):
    with pytest.raises(BudgetExceededError):
        verify_case("eq5", {"k": 21, "n": 1})
    monkeypatch.setenv("COMPIDENT_BUDGET", "21")
    assert verify_case("eq5", {"k": 21, "n": 1}).passed


TRANSFORM_IDS = ["eq5", "eq42", "lemma7_roundtrip", *EXPECTED_IDS[15:]]


@pytest.mark.parametrize("identity_id", TRANSFORM_IDS)
def test_over_cap_request_is_refused_before_any_term_is_built(identity_id, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"{identity_id} built terms for a k over the cap")

    for name in ("pair_terms", "graded_pair_terms", "h_from_e_conv", "h_from_e_det",
                 "h_prefix_from_e_det", "enumerated_prefix", "composition_prefix"):
        monkeypatch.setattr(identities, name, refuse)
    params = {"k": 21, "n": 1, "sample": 0}
    names = get_descriptor(identity_id).params
    operation = "composition_transform"
    if identity_id == "lemma7_roundtrip":
        operation = "transform_by_enumeration"
    with pytest.raises(BudgetExceededError, match=f"^{operation}: k=21 is over the cap"):
        verify_case(identity_id, {name: params[name] for name in names})


def test_verify_range_counts():
    report = verify_range("eq5", {"k": (1, 8), "n": (0, 8)})
    assert report.cases_total == 72 and report.cases_failed == 0
    report = verify_range("eq19", {"k": (1, 25), "t": (1, 25)})
    assert report.cases_total == 325 and report.cases_failed == 0
    report = verify_range("eq41", {"n": (1, 12), "t": (2, 12)})
    assert report.cases_total == 132 and report.cases_failed == 0


def test_verify_range_errors():
    with pytest.raises(DomainError):
        verify_range("eq5", {"k": (1, 3), "n": (0, 3), "t": (1, 2)})
    with pytest.raises(DomainError):
        verify_range("eq5", {"k": (3, 1), "n": (0, 3)})
    with pytest.raises(DomainError):
        verify_range("eq5", {"k": (1, 3)})
    with pytest.raises(DomainError):
        verify_range("eq19", {"k": (1, 2), "t": (5, 9)})  # nothing in domain


@pytest.mark.parametrize("identity_id, ranges", [
    ("eq5", [{"k": (1, 2), "n": (0, 2)}, {"k": (3, 1), "n": (0, 1)}]),  # empty span
    ("eq5", [{"k": (1, 2), "n": (0, 2)}, {"k": (1, 2), "n": (0, 2), "t": (1, 2)}]),  # unknown
    ("eq5", [{"k": (1, 2), "n": (0, 2)}, {"k": (1, 2)}]),  # missing
    ("eq19", {"k": (1, 2), "t": (5, 9)}),  # nothing in domain
])
def test_verify_range_errors_before_any_case(identity_id, ranges, monkeypatch):
    # a later grid's error is raised before the earlier grid's cases run
    calls = []
    monkeypatch.setattr(identities, "verify_case", lambda *a, **kw: calls.append(a))
    with pytest.raises(DomainError):
        verify_range(identity_id, ranges)
    assert calls == []


def test_verify_range_keeps_at_most_two_passing_reports(monkeypatch):
    # the suite folds each report as it returns instead of keeping the grid's
    live = peak = 0

    def release():
        nonlocal live
        live -= 1

    real = identities.verify_case

    def counted(*args, **kwargs):
        nonlocal live, peak
        report = real(*args, **kwargs)
        weakref.finalize(report, release)
        live += 1
        peak = max(peak, live)
        return report

    monkeypatch.setattr(identities, "verify_case", counted)
    report = verify_range("eq19", {"k": (1, 25), "t": (1, 25)})
    assert report.cases_total == 325 and report.passed
    assert peak <= 2


def test_verify_range_caps_reported_failures(monkeypatch):
    seen = []

    def odd_n_fails(params, rng):
        seen.append((params["k"], params["n"]))
        return params["n"] % 2, 0

    reg = identities._REGISTRY["eq5"]
    monkeypatch.setitem(identities._REGISTRY, "eq5", reg._replace(evaluate=odd_n_fails))
    report = verify_range("eq5", {"k": (1, 4), "n": (0, 8)})
    assert seen == [(k, n) for k in range(1, 5) for n in range(9)]  # grid order
    failing = [(k, n) for k, n in seen if n % 2]
    assert len(failing) == 16 > identities.MAX_REPORTED_FAILURES
    assert report.cases_total == 36 and report.cases_failed == 16
    assert [(int(c.params["k"]), int(c.params["n"])) for c in report.first_failures] == (
        failing[: identities.MAX_REPORTED_FAILURES]
    )
    assert all(not c.passed and c.lhs == "1" and c.rhs == "0" for c in report.first_failures)


def test_verify_range_jobs_deterministic():
    sequential = verify_range("eq13", {"k": (1, 6), "n": (0, 6)})
    threaded = verify_range("eq13", {"k": (1, 6), "n": (0, 6)})
    assert sequential.cases_total == threaded.cases_total == 42
    assert sequential.cases_failed == threaded.cases_failed == 0


def test_verify_range_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError(f"verify_range started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = {"k": (1, 4), "n": (0, 3)}
    fanned = verify_range("eq13", grid)
    serial = verify_range("eq13", grid)
    assert fanned.cases_total == 16 and fanned.passed
    assert fanned.to_json(include_timings=False) == serial.to_json(include_timings=False)


def test_default_ranges():
    assert default_ranges("eq5") == ({"k": (1, 10), "n": (0, 10)},)
    grids = default_ranges("eq13")
    assert grids == ({"k": (1, 20)}, {"k": (1, 12), "n": (0, 12)})
    (pair_grid,) = default_ranges("pair1_eh", samples=3)
    assert pair_grid["sample"] == (0, 2)
    with pytest.raises(DomainError):
        default_ranges("eq5", samples=0)


# label: (params, domain, ring, e_k statement, h_k statement, drawn rationals)
PAIR_TABLE = {
    "pair1": (("k", "sample"), "k >= 1, sample >= 0", "rational",
              "e_k = a(a-k)^(k-1)/k!", "h_k = a(a+k)^(k-1)/k!", ("a",)),
    "pair2": (("k", "sample"), "k >= 1, sample >= 0", "rational",
              "e_k = (-1)^k a^k B_k/k!", "h_k = a^k/(k+1)!", ("a",)),
    "pair3": (("k", "n"), "k >= 1, n >= 0", "polynomial_q",
              "e_k = q^(k(k-1)/2) qbinom(n,k)", "h_k = qbinom(n+k-1,k)", ()),
    "pair4": (("k",), "k >= 1", "rational_function_q",
              "e_k = q^(k(k-1)/2)/phi_k(q)", "h_k = 1/phi_k(q)", ()),
    "pair5": (("k", "sample"), "k >= 1, sample >= 0", "rational_function_q",
              "e_k = prod_{i=1}^{k} (a-b q^(i-1))/(1-q^i)",
              "h_k = prod_{i=1}^{k} (a q^(i-1)-b)/(1-q^i)", ("a", "b")),
}


_OMIT_N = " (omit n for the coefficientwise polynomial check)"

# params and domain of every identity that is not a pair
DESCRIPTOR_TABLE = {
    "eq5": (("k", "n"), "k >= 1, n >= 0"),
    "eq6": (("k", "n"), "k >= 1, n >= 1"),
    "eq13": (("k", "n"), "k >= 1, n >= 0" + _OMIT_N),
    "eq17": (("k",), "k >= 1"),
    "eq18": (("k", "t"), "1 <= t <= k"),
    "eq19": (("k", "t"), "1 <= t <= k"),
    "eq29": (("k", "n"), "k >= 2, n >= 0" + _OMIT_N),
    "eq31": (("k", "t"), "1 <= t <= k"),
    "eq36": (("x", "n", "k"), "x >= 1, n >= 1, k >= 1"),
    "eq37": (("x", "n", "k"), "1 <= x < k, n >= 1"),
    "eq38": (("k", "n"), "k >= 1, n >= 1"),
    "eq41": (("n", "t"), "n >= 1, t >= 2"),
    "eq42": (("k", "n"), "k >= 1, n >= 1"),
    "eq47": (("k", "n"), "k >= 1, n >= 0" + _OMIT_N),
    "lemma7_roundtrip": (("sample", "k"), "sample >= 0, k >= 1"),
}

RELATIONAL_DOMAINS = {"eq18", "eq19", "eq31", "eq37"}


@pytest.mark.parametrize("identity_id", sorted(DESCRIPTOR_TABLE))
def test_descriptor_params_and_domain(identity_id):
    d = get_descriptor(identity_id)
    assert (d.params, d.domain) == DESCRIPTOR_TABLE[identity_id]


def lower_bounds(domain: str) -> dict[str, int]:
    """{name: lo} read from a domain text of the form "k >= 1, n >= 0"."""
    bounds = {}
    for clause in domain.removesuffix(_OMIT_N).split(", "):
        name, lo = clause.split(" >= ")
        bounds[name] = int(lo)
    return bounds


@pytest.mark.parametrize(
    "identity_id", [i for i in EXPECTED_IDS if i not in RELATIONAL_DOMAINS]
)
def test_derived_domain_is_what_verify_case_enforces(identity_id):
    d = get_descriptor(identity_id)
    lower = lower_bounds(d.domain)
    assert tuple(lower) == d.params
    assert verify_case(identity_id, lower).passed
    for name in lower:
        with pytest.raises(DomainError, match="outside domain"):
            verify_case(identity_id, {**lower, name: lower[name] - 1})


def test_equal_sides_are_serialized_once(monkeypatch):
    # eq5's sides are ints, so every call counted here is a top-level one
    calls = []
    serialize = identities._serialize_value

    def counted(value):
        calls.append(value)
        return serialize(value)

    monkeypatch.setattr(identities, "_serialize_value", counted)
    report = verify_case("eq5", {"k": 3, "n": 2})
    assert report.passed and report.lhs == report.rhs == "4"
    assert len(calls) == 1

    reg = identities._REGISTRY["eq5"]
    monkeypatch.setitem(
        identities._REGISTRY, "eq5", reg._replace(evaluate=lambda p, rng: (1, 0))
    )
    calls.clear()
    report = verify_case("eq5", {"k": 3, "n": 2})
    assert not report.passed and (report.lhs, report.rhs) == ("1", "0")
    assert len(calls) == 2


@pytest.mark.parametrize("label", sorted(PAIR_TABLE))
def test_pair_descriptors(label):
    params, domain, ring, e_stmt, h_stmt, rationals = PAIR_TABLE[label]
    for direction, source, target in (("eh", e_stmt, h_stmt), ("he", h_stmt, e_stmt)):
        identity_id = f"{label}_{direction}"
        d = get_descriptor(identity_id)
        assert d.params == params
        assert d.domain == domain
        assert d.ring == ring
        assert d.modes == ("pointwise",)
        assert d.statement == f"composition transform of ({source}) recovers ({target})"
        assert pair_rationals(identity_id) == rationals


def test_pair_default_ranges():
    sampled = ({"k": (1, 8), "sample": (0, 2)},)
    expected = {
        "pair1": sampled,
        "pair2": sampled,
        "pair3": ({"k": (1, 8), "n": (0, 6)},),
        "pair4": ({"k": (1, 8)},),
        "pair5": sampled,
    }
    for label, grids in expected.items():
        for direction in ("eh", "he"):
            assert default_ranges(f"{label}_{direction}", samples=3) == grids
    assert pair_rationals("eq5") == pair_rationals("lemma7_roundtrip") == ()


def test_polynomial_mode_eq13():
    report = verify_polynomial_in_n("eq13", 2)
    assert report.passed
    assert report.lhs == '["0","1/2","1/2"]' == report.rhs
    assert verify_polynomial_in_n("eq13", 1).passed
    for k in range(1, 16):
        assert verify_polynomial_in_n("eq13", k).passed


def test_polynomial_mode_eq47():
    assert verify_polynomial_in_n("eq47", 3).passed
    for k in range(1, 16):
        assert verify_polynomial_in_n("eq47", k).passed


def test_polynomial_mode_eq29():
    for k in range(2, 13):
        assert verify_polynomial_in_n("eq29", k).passed
    with pytest.raises(DomainError):
        verify_polynomial_in_n("eq29", 1)
    with pytest.raises(DomainError):
        verify_polynomial_in_n("eq5", 3)


def test_pointwise_and_polynomial_modes_agree():
    # the polynomial identity evaluated at integers must match pointwise runs
    assert verify_range("eq13", {"k": (1, 12), "n": (0, 12)}).cases_failed == 0
    assert verify_range("eq47", {"k": (1, 12), "n": (0, 12)}).cases_failed == 0
    assert verify_range("eq29", {"k": (2, 12), "n": (0, 12)}).cases_failed == 0


@pytest.mark.parametrize("identity_id, k_lo", [("eq13", 1), ("eq29", 2), ("eq47", 1)])
def test_polynomial_mode_evaluates_to_pointwise_values(identity_id, k_lo):
    # each side of the polynomial-in-n report, evaluated at n, is the pointwise side
    for k in range(k_lo, 13):
        poly_case = verify_polynomial_in_n(identity_id, k)
        lhs_poly = Polynomial(map(Fraction, json.loads(poly_case.lhs)))
        rhs_poly = Polynomial(map(Fraction, json.loads(poly_case.rhs)))
        for n in range(13):
            point = verify_case(identity_id, {"k": k, "n": n})
            assert lhs_poly(n) == Fraction(point.lhs), (identity_id, k, n)
            assert rhs_poly(n) == Fraction(point.rhs), (identity_id, k, n)


def test_verify_polynomial_in_n_follows_descriptor_modes():
    assert verify_polynomial_in_n("eq17", 4).to_json() == verify_case("eq17", {"k": 4}).to_json()
    with pytest.raises(DomainError, match="no polynomial_in_n mode"):
        verify_polynomial_in_n("eq42", 3)
    with pytest.raises(UnknownIdentityError):
        verify_polynomial_in_n("eq999", 3)


def test_eq17_coefficients():
    report = verify_polynomial_in_n("eq17", 2)
    assert report.passed
    assert report.lhs == "[0, 1, 1]"
    report = verify_polynomial_in_n("eq17", 1)  # single term -n * C(2,2)
    assert report.passed and report.lhs == "[0, -1]"
    for k in range(1, 13):
        assert verify_polynomial_in_n("eq17", k).passed


def test_eq6_hockey_stick_form():
    assert verify_range("eq6", {"k": (1, 15), "n": (1, 15)}).cases_failed == 0


def test_eq31_and_eq18_eq19_through_registry():
    assert verify_range("eq31", {"k": (1, 12), "t": (1, 12)}).cases_failed == 0
    assert verify_range("eq18", {"k": (1, 15), "t": (1, 15)}).cases_failed == 0
    assert verify_range("eq19", {"k": (1, 15), "t": (1, 15)}).cases_failed == 0


def test_rothe_hagen_coefficient():
    assert rothe_hagen_A(1, 1, 2) == 1
    assert rothe_hagen_A(2, 1, 3) == 4
    assert rothe_hagen_A(7, 3, 0) == 1
    with pytest.raises(ZeroDivisionError):
        rothe_hagen_A(0, 5, 0)
    with pytest.raises(ZeroDivisionError):
        rothe_hagen_A(-6, 2, 3)


def test_equivalence_chain_of_closed_forms():
    # enumeration LHS == signed sum of closed inner sums == signed eq13 sum
    # == C(n+k-1, k), for every k <= 8, n <= 6
    for k in range(1, 9):
        for n in range(0, 7):
            enumerated = composition_transform(lambda i: binomial(n, i), k)
            closed = sum(
                (-1) ** (k - r) * inner_sum_closed_binomial(n, k, r)
                for r in range(1, k + 1)
            )
            eq13_sum = (-1) ** k * sum(
                (-1) ** i * binomial(n * i, k) * binomial(k + 1, i + 1)
                for i in range(1, k + 1)
            )
            target = binomial(n + k - 1, k)
            assert enumerated == closed == eq13_sum == target, (k, n)


def test_lemma7_roundtrip_cases():
    report = verify_range("lemma7_roundtrip", {"sample": (0, 4), "k": (1, 6)})
    assert report.cases_total == 30 and report.cases_failed == 0


def test_pair_cases_all_pass_smoke():
    assert verify_case("pair1_eh", {"k": 5, "sample": 0}).passed
    assert verify_case("pair1_he", {"k": 5, "sample": 1}).passed
    assert verify_case("pair2_eh", {"k": 5, "sample": 2}).passed
    assert verify_case("pair2_he", {"k": 5, "sample": 0}).passed
    assert verify_case("pair3_eh", {"k": 4, "n": 3}).passed
    assert verify_case("pair3_he", {"k": 4, "n": 3}).passed
    assert verify_case("pair4_eh", {"k": 5}).passed
    assert verify_case("pair4_he", {"k": 5}).passed
    assert verify_case("pair5_eh", {"k": 4, "sample": 0}).passed
    assert verify_case("pair5_he", {"k": 4, "sample": 0}).passed


def test_pair_reports_carry_bindings():
    report = verify_case("pair1_eh", {"k": 3, "sample": 2})
    assert "a" in report.params
    report2 = verify_case("pair1_eh", {"k": 3, "sample": 2})
    assert report.params == report2.params  # deterministic binding
    other_seed = verify_case("pair1_eh", {"k": 3, "sample": 2}, seed=999)
    assert other_seed.passed
    assert other_seed.params["a"] != report.params["a"]
    pair5 = verify_case("pair5_eh", {"k": 3, "sample": 1})
    assert "a" in pair5.params and "b" in pair5.params
    assert pair5.params["a"] != pair5.params["b"]


def test_pair_explicit_bindings():
    report = verify_case("pair1_eh", {"k": 4, "sample": 0}, a=Fraction(7, 3))
    assert report.passed and report.params["a"] == "7/3"
    report = verify_case(
        "pair5_he", {"k": 3, "sample": 0}, a=Fraction(2), b=Fraction(-1, 5)
    )
    assert report.passed
    assert report.params["a"] == "2" and report.params["b"] == "-1/5"


def test_q_pair_sides_serialize_as_ring_elements():
    report = verify_case("pair3_eh", {"k": 2, "n": 2})
    lhs = json.loads(report.lhs)
    assert lhs == ["1", "1", "1"]  # qbinom(3, 2) = 1 + q + q^2
    report = verify_case("pair4_eh", {"k": 1})
    data = json.loads(report.lhs)
    assert set(data) == {"num", "den"}
    # 1/(1-q) normalizes to -1/(q-1) with a monic denominator
    assert data["num"] == ["-1"] and data["den"] == ["-1", "1"]


def test_report_json_schemas():
    case = verify_case("eq5", {"k": 2, "n": 3})
    payload = case.to_json()
    assert set(payload) == {"id", "params", "lhs", "rhs", "pass"}
    assert payload["pass"] is True
    suite = verify_range("eq5", {"k": (1, 3), "n": (0, 3)})
    payload = suite.to_json()
    assert set(payload) == {"id", "cases", "failed", "failures", "elapsed_ms", "elapsed_us"}
    assert payload["failures"] == []
    frozen = suite.to_json(include_timings=False)
    assert set(frozen) == {"id", "cases", "failed", "failures", "elapsed_ms"}
    assert frozen["elapsed_ms"] == 0


def test_suite_report_failure_handling():
    failing = CaseReport("eq5", {"k": "1", "n": "1"}, "1", "2", False)
    passing = CaseReport("eq5", {"k": "2", "n": "1"}, "1", "1", True)
    suite = SuiteReport("eq5", 30, 12, [failing] * 10, 7)
    assert not suite.passed
    payload = suite.to_json()
    assert payload["failed"] == 12
    assert len(payload["failures"]) == 10  # capped
    assert payload["failures"][0]["pass"] is False
    assert passing.to_json()["pass"] is True


def test_reports_compare_by_value():
    params = {"k": "1", "n": "1"}
    report = CaseReport("eq5", params, "1", "2", False)
    assert report == CaseReport("eq5", dict(params), "1", "2", False)
    assert report != CaseReport("eq5", params, "1", "2", True)
    assert report != ("eq5", params, "1", "2", False)
    assert repr(report) == (
        "CaseReport(identity_id='eq5', params={'k': '1', 'n': '1'}, lhs='1', rhs='2', passed=False)"
    )
    assert SuiteReport("eq5", 2, 1, [report], 3) == SuiteReport("eq5", 2, 1, [report], 3, 0)
    assert SuiteReport("eq5", 2, 1, [], 3).elapsed_us == 0


def test_case_report_is_unhashable_and_weakly_referenced():
    report = CaseReport("eq5", {"k": "2", "n": "1"}, "1", "1", True)
    with pytest.raises(TypeError):
        hash(report)
    assert weakref.ref(report)() is report
    assert not hasattr(report, "__dict__")


def test_descriptors_and_registry_entries_are_read_only():
    descriptor = get_descriptor("eq5")
    reg = identities._REGISTRY["eq5"]
    with pytest.raises(AttributeError):
        descriptor.domain = "anything"
    with pytest.raises(AttributeError):
        reg.evaluate = None
    assert get_descriptor("eq5") == descriptor and identities._REGISTRY["eq5"] is reg


def test_a_replaced_registry_entry_runs_in_verify_range(monkeypatch):
    reg = identities._REGISTRY["eq5"]
    replaced = reg._replace(evaluate=lambda p, rng: (p["k"], p["n"]))
    assert replaced.descriptor is reg.descriptor and replaced.grids == reg.grids
    monkeypatch.setitem(identities._REGISTRY, "eq5", replaced)
    report = verify_range("eq5", {"k": (1, 3), "n": (0, 3)})
    assert (report.cases_total, report.cases_failed) == (12, 9)
    assert report.first_failures[0].params == {"k": "1", "n": "0"}
