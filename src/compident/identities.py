"""Identity catalog and exact verification engine.

Twenty-five identities live in a frozen registry (eq5 ... eq47 for the
binomial/Stirling/Rothe-Hagen family, lemma7_roundtrip for the generic
three-route agreement, pair1_eh ... pair5_he for the sequence-pair catalog).
Each entry is made by one ``_register`` call from its statement, ring, an
ordered dict of each parameter's lower bound (which gives its params, domain
text and domain predicate, unless the domain relates two parameters), its
modes, default verification grids, and a pure evaluator
``(params, rng) -> (lhs, rhs)`` that produces both sides exactly.  The
thirteen transform suites register a ``_Span`` instead: the sides of each
k from a low one up to a top for one binding of their other params, from
one run of routes that form every prefix T(1..top) on their way.  eq5, eq42 and the
pair entries run one, ``_pair_span(terms_id, direction)``: eq5 and eq42
are the two directions of symfun's binomial pair.  The pair entries come
from one table, ``_PAIRS``, with a row per (e, h) pair: its pair_terms id,
ring, e_k and h_k statements, the rationals (a, b) it draws per sample, and
its integer parameters' spans.  Both directions are registered from the
row, and the CLI asks ``pair_rationals`` which bindings an explicit
--a/--b pins.

``verify_case`` is the one path from a binding to a verdict.  For an
identity with a ``sample`` parameter it opens one stream,
``seeded_rng(seed, stream, sample)``: the pair's row label (so _eh and _he
share their draws) or "lemma7".  It draws the pair rationals from that
stream, binds them into the params, and hands the evaluator the same
stream.  A suite checks, binds and evaluates each case once (a span once per
binding) and hands verify_case the bound params and sides; verify_case
checks, binds and evaluates a case alone, and a span case that no held span
covers.  It compares the sides.  A failing report's text is made at once; a
passing report keeps the bound params and the lhs, and makes its text when
it is first read: the lhs once, for both sides, since every value has one
canonical form.  So a suite, which reads no passing report, formats no
passing case.  The q_exp and q_cauchy pairs run the transform on symfun's
graded terms (numerators over phi_k), and verify_case reduces a graded lhs
to a RationalFunction at once, once per passing case.

Verification is pointwise (parameters substituted, exact values compared) or
coefficientwise as polynomial identities in n for eq13, eq29, eq47 (those
run in polynomial mode whenever no n parameter is supplied) and eq17 (always
a coefficient comparison).  Each of these formulas is written once: ``n`` is
the bound integer, or else the polynomial x, and the ring of ``n`` picks the
mode.  All four sum over the weights (-1)^i C(k+1, i+1) of ``_alternating``,
as raw terms (w, u, c) for w C(u n + c, k): ``binomial`` on ints, or one
``poly.falling_sum`` with one normalisation in polynomial mode, whose
rows a suite keeps and grows from k - 1 to k (``poly.kept_rows``).  The
Rothe-Hagen sums eq36, eq37 and eq38 hand their literal terms, as int pairs
(num, den), to ``exact_arith.fraction_sum``, which adds them as ints over one
common denominator: one gcd per term and one reduction per side.  No right
side reads it.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from itertools import product as cartesian_product
from math import comb, factorial
from random import Random
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

# composition_transform and h_from_e_det are read by name by perfbench/tracer.py
from .compositions import (check_budget, composition_prefix, composition_transform,
                           enumerated_prefix, enumeration_budget)
from .exact_arith import DomainError, binomial, fraction_sum
from .poly import (Polynomial, RationalFunction, falling_sum, kept_rows, poly_binomial,
                   poly_to_json)
from .stirling import check_eq18, check_eq19, check_eq31, check_eq41, stirling1
from .symfun import (
    DEFAULT_SEED,
    GRADED_PAIR_IDS,
    QGraded,
    graded_pair_terms,
    h_from_e_conv,
    h_from_e_det,
    h_prefix_from_e_det,
    pair_terms,
    random_rational,
    seeded_rng,
)

MAX_REPORTED_FAILURES = 10

# verify_range keeps the sides of at most this many bindings at once: a grid
# in k-major order keeps every binding's until k reaches its top
_HELD_SPANS = 32

DEFAULT_SAMPLES = 5


class UnknownIdentityError(ValueError):
    """No identity is registered under the requested id."""


class IdentityDescriptor(NamedTuple):
    """Registry entry: what the identity states and how it is verified."""

    id: str
    statement: str
    ring: str
    params: tuple[str, ...]
    modes: tuple[str, ...]
    domain: str


class CaseReport:
    """Exact verdict for one parameter binding.

    A slotted class, not a NamedTuple: a report can be weakly referenced,
    and two reports are equal when their five fields are, never a report
    and a tuple.  It is unhashable, as its params dict is.

    A passing report from verify_case holds its bound params and its lhs
    value, and formats its params, lhs and rhs text when one of them is
    first read, under the int <-> str digit limit in force when its case
    ran: text read after ``cli.main`` has restored the limit is the text
    the run would have made.  A value over the limit of its run raises
    ValueError there, at the first read, not in verify_case.
    """

    __slots__ = ("identity_id", "passed", "_text", "_pending", "__weakref__")
    __hash__ = None

    def __init__(
        self, identity_id: str, params: dict[str, str], lhs: str, rhs: str, passed: bool
    ) -> None:
        self.identity_id = identity_id
        self.passed = passed
        self._text = params, lhs, rhs
        self._pending = None

    @classmethod
    def _passing(cls, identity_id: str, bound: dict[str, Any], lhs: Any) -> "CaseReport":
        # a passing case's report, its text made from (bound, lhs) when first read
        report = cls.__new__(cls)
        report.identity_id = identity_id
        report.passed = True
        report._pending = bound, lhs, _digit_limit()
        return report

    def _read(self) -> tuple[dict[str, str], str, str]:
        if self._pending is not None:
            self._text = _passing_text(*self._pending)
            self._pending = None
        return self._text

    params = property(lambda self: self._read()[0])
    lhs = property(lambda self: self._read()[1])
    rhs = property(lambda self: self._read()[2])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaseReport):
            return NotImplemented
        return (self.identity_id, *self._read(), self.passed) == (
            other.identity_id, *other._read(), other.passed
        )

    def __repr__(self) -> str:
        return (
            f"CaseReport(identity_id={self.identity_id!r}, params={self.params!r}, "
            f"lhs={self.lhs!r}, rhs={self.rhs!r}, passed={self.passed!r})"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.identity_id,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


class SuiteReport(NamedTuple):
    """Aggregated verdict over a parameter grid."""

    identity_id: str
    cases_total: int
    cases_failed: int
    first_failures: list[CaseReport]
    elapsed_ms: int
    elapsed_us: int = 0  # the same wall time in microseconds, for suites under 1 ms

    @property
    def passed(self) -> bool:
        return self.cases_failed == 0

    def to_json(self, *, include_timings: bool = True) -> dict[str, Any]:
        """The suite's JSON object.  Without timings, elapsed_ms is 0 and
        there is no elapsed_us, so reruns are byte-identical."""
        payload = {
            "id": self.identity_id,
            "cases": self.cases_total,
            "failed": self.cases_failed,
            "failures": [case.to_json() for case in self.first_failures],
            "elapsed_ms": self.elapsed_ms if include_timings else 0,
        }
        if include_timings:
            payload["elapsed_us"] = self.elapsed_us
        return payload


_Sides = tuple[Any, Any]
_Evaluator = Callable[[Mapping[str, Any], Random | None], _Sides]


class _Span(NamedTuple):
    """The evaluator of a transform suite: ``sides(params, rng, low, top)``
    gives the (lhs, rhs) of k = low..top for one binding of the other
    params, from one run of its routes up to top.  ``operation`` names the
    route that refuses a k over the cap."""

    operation: str
    sides: Callable[[Mapping[str, Any], Random | None, int, int], list[_Sides]]


_RangeDict = dict[str, tuple[int, int]]


def _n_optional(modes: Sequence[str]) -> bool:
    # a formula run in both modes binds an omitted n to the polynomial x
    return {"pointwise", "polynomial_in_n"} <= set(modes)


class _Registration(NamedTuple):
    descriptor: IdentityDescriptor
    valid: Callable[[Mapping[str, int]], bool]
    lower: Mapping[str, int] | None  # each param's least value, if that alone is the domain
    evaluate: _Evaluator | _Span
    grids: tuple[_RangeDict, ...]
    rationals: tuple[str, ...]  # pair rationals drawn per sample
    stream: str  # seeded_rng label of each sample's stream

    @property
    def optional_params(self) -> frozenset[str]:
        return frozenset({"n"}) if _n_optional(self.descriptor.modes) else frozenset()


_REGISTRY: dict[str, _Registration] = {}


def _register(
    identity_id: str,
    statement: str,
    ring: str,
    lower: Mapping[str, int],
    modes: Sequence[str],
    evaluate: _Evaluator | _Span,
    *grids: _RangeDict,
    rationals: tuple[str, ...] = (),
    stream: str = "",
    domain: str = "",
    valid: Callable[[Mapping[str, int]], bool] | None = None,
) -> None:
    """Add one identity to the registry.

    ``lower`` maps each parameter, in order, to its least value.  It gives
    the descriptor's params and, unless ``domain`` and ``valid`` are passed
    for a domain that relates two parameters, the domain text, the
    predicate and the least value of each grid span.  ``evaluate(params,
    rng)`` returns the exact (lhs, rhs) of one binding, or is a ``_Span``
    over k.  ``rationals`` names the pair rationals that verify_case draws
    for each sample from ``seeded_rng(seed, stream, sample)`` and binds
    into those params; the evaluator gets the same stream as ``rng``.
    """
    bounds = None  # a relational domain: the grid checks each candidate
    if valid is None:
        bounds = lower
        domain = ", ".join(f"{name} >= {lo}" for name, lo in lower.items())
        if _n_optional(modes):
            domain += " (omit n for the coefficientwise polynomial check)"

        def valid(p: Mapping[str, int]) -> bool:
            return all(p[name] >= lo for name, lo in lower.items() if name in p)

    descriptor = IdentityDescriptor(
        identity_id, statement, ring, tuple(lower), tuple(modes), domain
    )
    _REGISTRY[identity_id] = _Registration(
        descriptor, valid, bounds, evaluate, grids, rationals, stream
    )


def _registration(identity_id: str) -> _Registration:
    reg = _REGISTRY.get(identity_id)
    if reg is None:
        raise UnknownIdentityError(
            f"unknown identity id {identity_id!r} (see list_identities())"
        )
    return reg


def _serialize_value(value: Any) -> str:
    if isinstance(value, QGraded):  # a tuple too: reduce it first
        value = value.reduced()
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, Polynomial):
        return json.dumps(poly_to_json(value), separators=(",", ":"))
    if isinstance(value, RationalFunction):
        return json.dumps(value.to_json(), separators=(",", ":"))
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_serialize_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


# CPython before 3.10.7 has no int <-> str digit limit: read it as 0, never set
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _passing_text(
    bound: Mapping[str, Any], lhs: Any, limit: int
) -> tuple[dict[str, str], str, str]:
    # a passing report's params, lhs and rhs text, under the digit limit its case ran under
    previous = _digit_limit()
    if limit != previous:
        sys.set_int_max_str_digits(limit)
    try:
        text = _serialize_value(lhs)
        return {name: str(value) for name, value in bound.items()}, text, text
    finally:
        if limit != previous:
            sys.set_int_max_str_digits(previous)


# ---------------------------------------------------------------------------
# Evaluators.  Each takes the bound params and the sample's stream (None
# without a sample parameter) and returns (lhs, rhs).

_N = Polynomial((0, 1))  # n when none is bound: polynomial-in-n mode


def _binom(x: int | Polynomial, k: int) -> int | Polynomial:
    # poly_binomial is read from this module's globals at each call, so a profiler
    # that rebinds identities.poly_binomial sees every polynomial-mode binomial
    return binomial(x, k) if isinstance(x, int) else poly_binomial(x, k)


def _eval_eq6(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    k, n = p["k"], p["n"]
    lhs = sum(binomial(j + k - 2, k - 1) for j in range(1, n + 1))
    return lhs, binomial(n + k - 1, k)


_Term = tuple[int, int, int]  # (w, u, c): w C(u n + c, k), or w (u n + c)_k in eq17


def _alternating(k: int) -> list[tuple[int, int]]:
    # (i, (-1)^i C(k+1, i+1)) for i = 1..k: the weights of eq13, eq17, eq29 and eq47
    return [(i, (-1) ** i * comb(k + 1, i + 1)) for i in range(1, k + 1)]


def _binomial_sum(terms: list[_Term], n: int | Polynomial, k: int) -> int | Polynomial:
    # pointwise on ints at a bound n; in polynomial mode one falling_sum over k!,
    # read from this module's globals at each call like poly_binomial in _binom
    if isinstance(n, int):
        return sum(w * binomial(u * n + c, k) for w, u, c in terms)
    return falling_sum(terms, k, factorial(k))


def _eval_eq13(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    k, n = p["k"], p.get("n", _N)
    lhs = _binomial_sum([(w, i, 0) for i, w in _alternating(k)], n, k)
    return lhs, (-1) ** k * _binom(n + k - 1, k)


def _eval_eq17(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    k = p["k"]
    # a sum over 1 of int rows: its int numerators are its coefficients
    row = falling_sum([(w, i, 0) for i, w in _alternating(k)], k, 1)._num
    lhs = (*row, *[0] * (k + 1 - len(row)))
    return lhs, (0, *((-1) ** t * stirling1(k, t) for t in range(1, k + 1)))


def _eval_eq18(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    return check_eq18(p["k"], p["t"])


def _eval_eq19(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    return check_eq19(p["k"], p["t"])


def _eval_eq29(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    k, n = p["k"], p.get("n", _N)
    # each difference C((n-1) i, k) - C(n i, k) is two terms, weighted +w and -w
    lhs = _binomial_sum([t for i, w in _alternating(k) for t in ((w, i, -i), (-w, i, 0))], n, k)
    # C(k, i+1) over i < k is the same sum at k - 1
    return lhs, _binomial_sum([(w, i, 0) for i, w in _alternating(k - 1)], n, k - 1)


def _eval_eq31(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    return check_eq31(p["k"], p["t"])


def _eval_eq36(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    x, n, k = p["x"], p["n"], p["k"]
    lhs = fraction_sum(
        ((-1) ** (i + k + 1) * comb(k, i) * binomial(x + i * n, k) * x, x + i * n)
        for i in range(1, k)
    )
    rhs = rothe_hagen_A(x, n, k) + (-1) ** k * binomial(x, k)
    return lhs, rhs


def _eval_eq37(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    x, n, k = p["x"], p["n"], p["k"]
    lhs = fraction_sum(
        ((-1) ** (i - 1) * comb(k, i) * binomial(x + i * n, k), x + i * n)
        for i in range(1, k + 1)
    )
    return lhs, Fraction(0)


def _eval_eq38(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    k, n = p["k"], p["n"]
    lhs = fraction_sum(
        ((-1) ** (i - 1) * binomial(i * n, k) * comb(k, i), i) for i in range(1, k + 1)
    )
    rhs = Fraction((-1) ** (k - 1) * n, k)
    return lhs, rhs


def _eval_eq41(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    return check_eq41(p["n"], p["t"])


def _eval_eq47(p: Mapping[str, Any], rng: Random | None) -> _Sides:
    k, n = p["k"], p.get("n", _N)
    lhs = _binomial_sum([(w, i, k - 1) for i, w in _alternating(k)], n, k)
    return lhs, (-1) ** k * _binom(n, k)


def _lemma7_sides(
    p: Mapping[str, Any], rng: Random | None, low: int, top: int
) -> list[_Sides]:
    # e_1..e_k is the first k draws of the stream, so one draw of top serves every k
    e_seq = [random_rational(rng) for _ in range(top)]
    h_seq = h_from_e_conv(e_seq)
    # enumerated, so independent of the convolution route; the walk adds up
    # only the buckets of k >= low
    routes = zip(h_prefix_from_e_det(e_seq)[low - 1:], enumerated_prefix(e_seq, low),
                 composition_prefix(h_seq)[low - 1:])
    return [(lhs, (h, h, e)) for lhs, h, e in zip(routes, h_seq[low - 1:], e_seq[low - 1:])]


def _pair_span(terms_id: str, direction: str) -> _Span:
    # "eh" transforms e_1..e_k against h_k, "he" the reverse.  p holds the drawn
    # rationals; graded terms are reduced only when verify_case serializes them.
    # Both term builders are read from the module globals at each call.
    def sides(p: Mapping[str, Any], rng: Random | None, low: int, top: int) -> list[_Sides]:
        terms = graded_pair_terms if terms_id in GRADED_PAIR_IDS else pair_terms
        e_seq, h_seq = terms(terms_id, p, top)
        source, target = (e_seq, h_seq) if direction == "eh" else (h_seq, e_seq)
        return list(zip(composition_prefix(source), target))[low - 1:]

    return _Span("composition_transform", sides)


# ---------------------------------------------------------------------------
# Registry entries, in the documented order.

# the relational domain of eq18, eq19 and eq31
_T_UP_TO_K: dict[str, Any] = {"domain": "1 <= t <= k", "valid": lambda p: 1 <= p["t"] <= p["k"]}

_register(
    "eq5",
    "sum_{r=1}^{k} (-1)^(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod_i C(n,k_i) == C(n+k-1,k)",
    "integer",
    {"k": 1, "n": 0},
    ("pointwise",),
    _pair_span("binomial", "eh"),
    {"k": (1, 10), "n": (0, 10)},
)

_register(
    "eq6",
    "sum_{j=1}^{n} C(j+k-2,k-1) == C(n+k-1,k)",
    "integer",
    {"k": 1, "n": 1},
    ("pointwise",),
    _eval_eq6,
    {"k": (1, 15), "n": (1, 15)},
)

_register(
    "eq13",
    "sum_{i=1}^{k} (-1)^i C(n*i,k) C(k+1,i+1) == (-1)^k C(n+k-1,k)",
    "integer",
    {"k": 1, "n": 0},
    ("pointwise", "polynomial_in_n"),
    _eval_eq13,
    {"k": (1, 20)}, {"k": (1, 12), "n": (0, 12)},
)

_register(
    "eq17",
    "coeff of n^t in sum_{i=1}^{k} (-1)^i (i*n)(i*n-1)...(i*n-k+1) C(k+1,i+1) == (-1)^t s(k,t), constant term 0",
    "integer",
    {"k": 1},
    ("polynomial_in_n",),
    _eval_eq17,
    {"k": (1, 12)},
)

_register(
    "eq18",
    "sum_{j=t}^{k} C(j,t) s(k,j) (k-1)^(j-t) == (-1)^(k+t) s(k,t)",
    "integer",
    {"k": 1, "t": 1},
    ("pointwise",),
    _eval_eq18,
    {"k": (1, 25), "t": (1, 25)},
    **_T_UP_TO_K,
)

_register(
    "eq19",
    "sum_{j=t+1}^{k} C(j,t) s(k,j) == k s(k-1,t)",
    "integer",
    {"k": 1, "t": 1},
    ("pointwise",),
    _eval_eq19,
    {"k": (1, 25), "t": (1, 25)},
    **_T_UP_TO_K,
)

_register(
    "eq29",
    "sum_{i=1}^{k} (-1)^i (C((n-1)i,k) - C(n*i,k)) C(k+1,i+1) == sum_{i=1}^{k-1} (-1)^i C(n*i,k-1) C(k,i+1)",
    "integer",
    {"k": 2, "n": 0},
    ("pointwise", "polynomial_in_n"),
    _eval_eq29,
    {"k": (2, 15)},
)

_register(
    "eq31",
    "sum_{r=t}^{k} (-1)^r C(r,t) s(k,r) sum_{i=0}^{k} (-1)^i C(k+1,i+1) i^r == s(k,t) + k s(k-1,t)",
    "integer",
    {"k": 1, "t": 1},
    ("pointwise",),
    _eval_eq31,
    {"k": (1, 12), "t": (1, 12)},
    **_T_UP_TO_K,
)

_register(
    "eq36",
    "sum_{i=1}^{k-1} (-1)^(i+k+1) C(k,i) C(x+i*n,k) x/(x+i*n) == x/(x+k*n) C(x+k*n,k) + (-1)^k C(x,k)",
    "rational",
    {"x": 1, "n": 1, "k": 1},
    ("pointwise",),
    _eval_eq36,
    {"x": (1, 6), "n": (1, 6), "k": (1, 8)},
)

_register(
    "eq37",
    "sum_{i=1}^{k} (-1)^(i-1) C(k,i) C(x+i*n,k) / (x+i*n) == 0",
    "rational",
    {"x": 1, "n": 1, "k": 2},
    ("pointwise",),
    _eval_eq37,
    {"x": (1, 9), "n": (1, 6), "k": (2, 10)},
    domain="1 <= x < k, n >= 1",
    valid=lambda p: 1 <= p["x"] < p["k"] and p["n"] >= 1,
)

_register(
    "eq38",
    "sum_{i=1}^{k} (-1)^(i-1)/i C(i*n,k) C(k,i) == (-1)^(k-1) n/k",
    "rational",
    {"k": 1, "n": 1},
    ("pointwise",),
    _eval_eq38,
    {"k": (1, 15), "n": (1, 15)},
)

_register(
    "eq41",
    "s(n,t) sum_{i=1}^{n} (-1)^(i-1) C(n,i) i^(t-1) == 0",
    "integer",
    {"n": 1, "t": 2},
    ("pointwise",),
    _eval_eq41,
    {"n": (1, 12), "t": (2, 12)},
)

_register(
    "eq42",
    "sum_{r=1}^{k} (-1)^(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod_i C(n+k_i-1,k_i) == C(n,k)",
    "integer",
    {"k": 1, "n": 1},
    ("pointwise",),
    _pair_span("binomial", "he"),
    {"k": (1, 10), "n": (1, 10)},
)

_register(
    "eq47",
    "sum_{i=1}^{k} (-1)^i C(n*i+k-1,k) C(k+1,i+1) == (-1)^k C(n,k)",
    "integer",
    {"k": 1, "n": 0},
    ("pointwise", "polynomial_in_n"),
    _eval_eq47,
    {"k": (1, 20)}, {"k": (1, 12), "n": (0, 12)},
)

_register(
    "lemma7_roundtrip",
    "for seeded random rational e_1..e_k: determinant, convolution, and composition-transform routes agree on h_k, and the transform of h_1..h_k recovers e_k",
    "rational",
    {"sample": 0, "k": 1},
    ("pointwise",),
    _Span("transform_by_enumeration", _lemma7_sides),
    {"sample": (0, 19), "k": (1, 8)},
    stream="lemma7",
)


class _Pair(NamedTuple):
    """One (e, h) sequence pair of the catalog; registered as <label>_eh and
    <label>_he, the transform of e recovering h and of h recovering e."""

    label: str
    terms_id: str  # the pair_terms id
    ring: str
    e: str  # statement of e_k
    h: str  # statement of h_k
    rationals: tuple[str, ...]  # drawn per sample unless pinned (a, b)
    spans: _RangeDict  # integer parameters: domain lower bound .. default grid end


_PAIRS = (
    _Pair("pair1", "tree", "rational",
          "e_k = a(a-k)^(k-1)/k!", "h_k = a(a+k)^(k-1)/k!", ("a",), {"k": (1, 8)}),
    _Pair("pair2", "bernoulli", "rational",
          "e_k = (-1)^k a^k B_k/k!", "h_k = a^k/(k+1)!", ("a",), {"k": (1, 8)}),
    _Pair("pair3", "q_binomial", "polynomial_q",
          "e_k = q^(k(k-1)/2) qbinom(n,k)", "h_k = qbinom(n+k-1,k)", (),
          {"k": (1, 8), "n": (0, 6)}),
    _Pair("pair4", "q_exp", "rational_function_q",
          "e_k = q^(k(k-1)/2)/phi_k(q)", "h_k = 1/phi_k(q)", (), {"k": (1, 8)}),
    _Pair("pair5", "q_cauchy", "rational_function_q",
          "e_k = prod_{i=1}^{k} (a-b q^(i-1))/(1-q^i)",
          "h_k = prod_{i=1}^{k} (a q^(i-1)-b)/(1-q^i)", ("a", "b"), {"k": (1, 8)}),
)


for _pair in _PAIRS:
    _lower = {name: lo for name, (lo, _) in _pair.spans.items()}
    if _pair.rationals:
        _lower["sample"] = 0
    for _direction, _source, _target in (("eh", _pair.e, _pair.h), ("he", _pair.h, _pair.e)):
        _register(
            f"{_pair.label}_{_direction}",
            f"composition transform of ({_source}) recovers ({_target})",
            _pair.ring,
            _lower,
            ("pointwise",),
            _pair_span(_pair.terms_id, _direction),
            _pair.spans,
            rationals=_pair.rationals,
            stream=_pair.label,
        )


# ---------------------------------------------------------------------------
# Public API.

def list_identities() -> list[IdentityDescriptor]:
    """All registry descriptors in the documented (stable) order."""
    return [reg.descriptor for reg in _REGISTRY.values()]


def get_descriptor(identity_id: str) -> IdentityDescriptor:
    return _registration(identity_id).descriptor


def default_ranges(identity_id: str, *, samples: int = DEFAULT_SAMPLES) -> tuple[_RangeDict, ...]:
    """Default verification grids (the ranges `verify --all` runs)."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    reg = _registration(identity_id)
    sample = {"sample": (0, samples - 1)} if reg.rationals else {}
    return tuple({**grid, **sample} for grid in reg.grids)


def pair_rationals(identity_id: str) -> tuple[str, ...]:
    """Names of the pair rationals (a, b) the identity draws for each sample;
    an explicit a or b binding pins the one it names."""
    return _registration(identity_id).rationals


def _check_params(reg: _Registration, params: Mapping[str, int]) -> dict[str, int]:
    known = set(reg.descriptor.params)
    cleaned: dict[str, int] = {}
    for name, value in params.items():
        if name not in known:
            raise DomainError(
                f"{reg.descriptor.id}: unknown parameter {name!r} "
                f"(takes {', '.join(reg.descriptor.params)})"
            )
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{reg.descriptor.id}: parameter {name} must be an integer")
        cleaned[name] = value
    missing = known - set(cleaned) - reg.optional_params
    if missing:
        raise DomainError(
            f"{reg.descriptor.id}: missing parameter(s) {', '.join(sorted(missing))}"
        )
    return cleaned


def _bind(
    reg: _Registration, cleaned: Mapping[str, int], seed: int,
    a: Fraction | None, b: Fraction | None,
) -> tuple[dict[str, Any], Random | None]:
    # the params in their documented order with the pair rationals bound, and
    # the sample's stream after their draws
    bound: dict[str, Any] = {
        name: cleaned[name] for name in reg.descriptor.params if name in cleaned
    }
    rng = seeded_rng(seed, reg.stream, bound["sample"]) if "sample" in bound else None
    pinned = {"a": a, "b": b}
    drawn: list[Fraction] = []
    for name in reg.rationals:
        value = pinned[name]
        if value is None:
            value = random_rational(rng)
            while value in drawn:  # q_cauchy needs b != a
                value = random_rational(rng)
        bound[name] = value
        drawn.append(value)
    return bound, rng


def _bind_and_evaluate(
    reg: _Registration, cleaned: Mapping[str, int], seed: int,
    a: Fraction | None, b: Fraction | None,
) -> tuple[dict[str, Any], _Sides]:
    # one checked case: its bound params and sides; a span runs from k to k
    bound, rng = _bind(reg, cleaned, seed, a, b)
    evaluate = reg.evaluate
    if not isinstance(evaluate, _Span):
        return bound, evaluate(bound, rng)
    check_budget(evaluate.operation, bound["k"])  # before any term is built
    return bound, evaluate.sides(bound, rng, bound["k"], bound["k"])[0]


def verify_case(
    identity_id: str,
    params: Mapping[str, int],
    *,
    seed: int = DEFAULT_SEED,
    a: Fraction | None = None,
    b: Fraction | None = None,
    _case: tuple[dict[str, Any], _Sides] | None = None,
) -> CaseReport:
    """Evaluate both sides exactly for one parameter binding.

    Called alone, it checks the params and their domain, binds them and
    evaluates them.  An identity with a ``sample`` parameter gets one
    stream, ``seeded_rng(seed, stream, sample)``.  Its pair rationals are
    drawn from it in order, each redrawn while it equals one already bound;
    ``a`` and ``b`` pin the ones they name instead.  The evaluator gets the
    params with the rationals bound, and the same stream; a span runs from
    k to k, and raises BudgetExceededError over the COMPIDENT_BUDGET cap.
    verify_range hands in each case it has checked, bound and evaluated, as
    ``_case`` = (bound params, sides).  A failing report is formatted here.
    A passing one formats its params and its lhs, once for both sides, when
    they are first read (see CaseReport), so a value over the int <-> str
    digit limit outside ``cli.main`` raises ValueError at that read, not
    here; a graded (q-pair) lhs is reduced here all the same.
    """
    if _case is None:
        reg = _registration(identity_id)
        cleaned = _check_params(reg, params)
        if not reg.valid(cleaned):
            raise DomainError(
                f"{identity_id}: parameters {dict(cleaned)} outside domain ({reg.descriptor.domain})"
            )
        _case = _bind_and_evaluate(reg, cleaned, seed, a, b)
    bound, (lhs, rhs) = _case
    passed = lhs == rhs
    if isinstance(lhs, QGraded):  # reduced now, so its Phi_d builds check themselves
        lhs = lhs.reduced()
    if passed:
        return CaseReport._passing(identity_id, bound, lhs)
    lhs_text = _serialize_value(lhs)
    params_text = {name: str(value) for name, value in bound.items()}
    return CaseReport(identity_id, params_text, lhs_text, _serialize_value(rhs), False)


def _case_grid(
    reg: _Registration, range_dicts: Sequence[Mapping[str, tuple[int, int]]]
) -> Iterator[dict[str, int]]:
    # Checks every range dict now, then yields the in-domain cases lazily.
    # Where lower bounds alone make the domain, each span starts at its
    # bound and every candidate is in it; otherwise each one is checked.
    lower = reg.lower
    grids: list[tuple[list[str], list[range]]] = []
    for ranges in range_dicts:
        names = [p for p in reg.descriptor.params if p in ranges]
        unknown = set(ranges) - set(reg.descriptor.params)
        if unknown:
            raise DomainError(
                f"{reg.descriptor.id}: range over unknown parameter(s) {', '.join(sorted(unknown))}"
            )
        missing = set(reg.descriptor.params) - set(names) - reg.optional_params
        if missing:
            raise DomainError(
                f"{reg.descriptor.id}: range must cover parameter(s) {', '.join(sorted(missing))}"
            )
        spans = []
        for name in names:
            lo, hi = ranges[name]
            if lo > hi:
                raise DomainError(f"{reg.descriptor.id}: empty span for {name}: {lo}..{hi}")
            if lower is not None:
                lo = max(lo, lower[name])
            spans.append(range(lo, hi + 1))
        grids.append((names, spans))
    candidates = (
        dict(zip(names, combo)) for names, spans in grids for combo in cartesian_product(*spans)
    )
    if lower is not None:
        return candidates
    return (candidate for candidate in candidates if reg.valid(candidate))


def verify_range(
    identity_id: str,
    ranges: Mapping[str, tuple[int, int]] | Sequence[Mapping[str, tuple[int, int]]] | None = None,
    *,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    a: Fraction | None = None,
    b: Fraction | None = None,
) -> SuiteReport:
    """Run the Cartesian product of the ranges through verify_case.

    ``ranges`` may be a single mapping name -> (lo, hi), a sequence of such
    mappings (each its own grid; this is how the dual pointwise/polynomial
    defaults are expressed), or None for the identity's default grids.
    Combinations outside the identity's domain (for example t > k in a
    triangular family) are skipped, not errors.  ``samples`` sizes the
    default grids of identities that draw rationals; ``seed``, ``a`` and
    ``b`` bind each case.  Cases run in the documented parameter order, one
    after another in the calling thread; each is checked, bound and
    evaluated once, and verify_case gets its bound params and sides.  The
    suite streams: each report is folded into the counts as it returns, and
    only the first MAX_REPORTED_FAILURES failing reports are kept, so no
    passing report outlives its case.

    A transform suite runs its span once per binding (the params other
    than k), from the binding's first k up to the grids' largest k, or to
    the COMPIDENT_BUDGET cap if that is lower; the cap is read once.  It
    keeps one list of sides per binding until the binding's case at that
    top k, and each case reads its entry.  A case over the cap, or of a new
    binding with _HELD_SPANS lists kept, runs alone in verify_case.

    The whole suite runs inside ``poly.kept_rows``: the falling rows of
    polynomial mode are kept, those of two values of k at most, and each
    case grows its rows from those of the case before it where it can.  The
    table is the suite's own and is dropped when it returns or raises.
    """
    reg = _registration(identity_id)
    if ranges is None:
        range_dicts: Sequence[Mapping[str, tuple[int, int]]] = default_ranges(
            identity_id, samples=samples
        )
    elif isinstance(ranges, Mapping):
        range_dicts = (ranges,)
    else:
        range_dicts = tuple(ranges)
    cases = _case_grid(reg, range_dicts)
    start = time.perf_counter_ns()
    span = reg.evaluate if isinstance(reg.evaluate, _Span) else None
    if span is not None:
        # the largest k of the grids, or the cap: verify_case refuses a case over it
        top = min(max(ranges["k"][1] for ranges in range_dicts), enumeration_budget())
    # binding (the params other than k) -> (first k, bound params, sides from it to top)
    held: dict[tuple[int, ...], tuple[int, dict[str, Any], list[_Sides]]] = {}
    total = failed = 0
    first_failures: list[CaseReport] = []
    with kept_rows():
        for params in cases:  # in the domain, ints in the documented order
            case = None  # over the cap, or no held span reaches back to k
            if span is None:
                case = _bind_and_evaluate(reg, params, seed, a, b)
            elif params["k"] <= top:
                k, key = params["k"], tuple(v for name, v in params.items() if name != "k")
                if key not in held and len(held) < _HELD_SPANS:
                    bound, rng = _bind(reg, params, seed, a, b)
                    held[key] = k, bound, span.sides(bound, rng, k, top)
                if key in held and held[key][0] <= k:
                    first, bound, run = held[key]
                    case = {**bound, "k": k}, run[k - first]
                if k == top:
                    held.pop(key, None)
            report = verify_case(identity_id, params, seed=seed, a=a, b=b, _case=case)
            total += 1
            if not report.passed:
                failed += 1
                if len(first_failures) < MAX_REPORTED_FAILURES:
                    first_failures.append(report)
    if not total:  # raised before any case ran: the grid had none
        raise DomainError(f"{reg.descriptor.id}: no cases inside the identity's domain")
    elapsed_ns = time.perf_counter_ns() - start
    return SuiteReport(
        identity_id=identity_id,
        cases_total=total,
        cases_failed=failed,
        first_failures=first_failures,
        elapsed_ms=elapsed_ns // 1_000_000,
        elapsed_us=elapsed_ns // 1_000,
    )


def verify_polynomial_in_n(identity_id: str, k: int) -> CaseReport:
    """Coefficientwise comparison of both sides as polynomials in n.

    Open to every identity whose descriptor lists the polynomial_in_n mode.
    """
    if "polynomial_in_n" not in get_descriptor(identity_id).modes:
        raise DomainError(f"{identity_id!r} has no polynomial_in_n mode")
    return verify_case(identity_id, {"k": k})


def rothe_hagen_A(x: int, n: int, k: int) -> Fraction:
    """x/(x + k n) * C(x + k n, k), exact; requires x + k n != 0."""
    if x + k * n == 0:
        raise ZeroDivisionError(f"rothe_hagen_A undefined: x + k*n = 0 (x={x}, n={n}, k={k})")
    return Fraction(x * binomial(x + k * n, k), x + k * n)
