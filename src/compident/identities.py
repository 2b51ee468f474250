"""Identity catalog and exact verification engine.

Twenty-five identities live in a frozen registry (eq5 ... eq47 for the
binomial/Stirling/Rothe-Hagen family, lemma7_roundtrip for the generic
three-route agreement, pair1_eh ... pair5_he for the sequence-pair catalog).
Each entry knows its formula statement, ring, parameter domain, default
verification ranges, and a pure evaluator that produces both sides exactly.
The pair entries come from one table, ``_PAIRS``, with a row per (e, h)
pair: its pair_terms id, ring, e_k and h_k statements, the rationals (a, b)
it draws per sample, and its integer parameters' spans.  Both directions
are registered from the row, and the CLI asks ``pair_rationals`` which
bindings an explicit --a/--b pins.  The q_exp and q_cauchy pairs run the
transform on symfun's graded terms (numerators over phi_k) and reduce to a
RationalFunction once per case.

Verification is pointwise (parameters substituted, exact values compared) or
coefficientwise as polynomial identities in n for eq13, eq29, eq47 (those
run in polynomial mode whenever no n parameter is supplied) and eq17 (always
a coefficient comparison).  Each of these formulas is written once: ``n`` is
the bound integer, or else the polynomial x, and the ring of ``n`` picks the
mode (``_binom`` is ``binomial`` on ints and ``poly_binomial`` otherwise).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian_product
from math import comb
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from .compositions import composition_transform, transform_by_enumeration
from .exact_arith import DomainError, binomial, format_scalar, multichoose
from .poly import (
    Polynomial,
    RationalFunction,
    poly_binomial,
    poly_falling_factorial,
    poly_to_json,
)
from .stirling import check_eq18, check_eq19, check_eq31, check_eq41, stirling1
from .symfun import (
    DEFAULT_SEED,
    GRADED_PAIR_IDS,
    graded_pair_terms,
    h_from_e_conv,
    h_from_e_det,
    pair_terms,
    random_rational,
    seeded_rng,
)

MAX_REPORTED_FAILURES = 10

DEFAULT_SAMPLES = 5


class UnknownIdentityError(ValueError):
    """No identity is registered under the requested id."""


@dataclass(frozen=True)
class IdentityDescriptor:
    """Registry entry: what the identity states and how it is verified."""

    id: str
    statement: str
    ring: str
    params: tuple[str, ...]
    modes: tuple[str, ...]
    domain: str

    def summary(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "statement": self.statement,
            "ring": self.ring,
            "params": list(self.params),
            "modes": list(self.modes),
            "domain": self.domain,
        }


@dataclass
class CaseReport:
    """Exact verdict for one parameter binding."""

    identity_id: str
    params: dict[str, str]
    lhs: str
    rhs: str
    passed: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.identity_id,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


@dataclass
class SuiteReport:
    """Aggregated verdict over a parameter grid."""

    identity_id: str
    cases_total: int
    cases_failed: int
    first_failures: list[CaseReport]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return self.cases_failed == 0

    def to_json(self, *, include_timings: bool = True) -> dict[str, Any]:
        return {
            "id": self.identity_id,
            "cases": self.cases_total,
            "failed": self.cases_failed,
            "failures": [case.to_json() for case in self.first_failures],
            "elapsed_ms": self.elapsed_ms if include_timings else 0,
        }


@dataclass(frozen=True)
class _Context:
    seed: int = DEFAULT_SEED
    a: Fraction | None = None
    b: Fraction | None = None


_EvalResult = tuple[Any, Any, dict[str, str]]
_Evaluator = Callable[[Mapping[str, int], _Context], _EvalResult]
_RangeDict = dict[str, tuple[int, int]]


@dataclass(frozen=True)
class _Registration:
    descriptor: IdentityDescriptor
    valid: Callable[[Mapping[str, int]], bool]
    evaluate: _Evaluator
    grids: tuple[_RangeDict, ...]
    rationals: tuple[str, ...]  # pair rationals drawn per sample

    @property
    def optional_params(self) -> frozenset[str]:
        # a formula run in both modes binds an omitted n to the polynomial x
        if {"pointwise", "polynomial_in_n"} <= set(self.descriptor.modes):
            return frozenset({"n"})
        return frozenset()


_REGISTRY: dict[str, _Registration] = {}


def _register(
    identity_id: str,
    statement: str,
    ring: str,
    params: Sequence[str],
    modes: Sequence[str],
    domain: str,
    valid: Callable[[Mapping[str, int]], bool],
    evaluate: _Evaluator,
    *grids: _RangeDict,
    rationals: tuple[str, ...] = (),
) -> None:
    descriptor = IdentityDescriptor(
        id=identity_id,
        statement=statement,
        ring=ring,
        params=tuple(params),
        modes=tuple(modes),
        domain=domain,
    )
    _REGISTRY[identity_id] = _Registration(descriptor, valid, evaluate, grids, rationals)


def _registration(identity_id: str) -> _Registration:
    reg = _REGISTRY.get(identity_id)
    if reg is None:
        raise UnknownIdentityError(
            f"unknown identity id {identity_id!r} (see list_identities())"
        )
    return reg


def _serialize_value(value: Any) -> str:
    if isinstance(value, (int, Fraction)):
        return format_scalar(value)
    if isinstance(value, Polynomial):
        return json.dumps(poly_to_json(value), separators=(",", ":"))
    if isinstance(value, RationalFunction):
        return json.dumps(value.to_json(), separators=(",", ":"))
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_serialize_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


# ---------------------------------------------------------------------------
# Evaluators.  Each returns (lhs, rhs, extra report params).

_N = Polynomial((0, 1))  # n when none is bound: polynomial-in-n mode


def _binom(x: int | Polynomial, k: int) -> int | Polynomial:
    # poly_binomial is read from this module's globals at each call, so a profiler
    # that rebinds identities.poly_binomial sees every polynomial-mode binomial
    return binomial(x, k) if isinstance(x, int) else poly_binomial(x, k)


def _eval_eq5(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p["n"]
    lhs = composition_transform(lambda i: binomial(n, i), k)
    return lhs, binomial(n + k - 1, k), {}


def _eval_eq6(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p["n"]
    lhs = sum(binomial(j + k - 2, k - 1) for j in range(1, n + 1))
    return lhs, binomial(n + k - 1, k), {}


def _eval_eq13(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p.get("n", _N)
    lhs = sum(_binom(n * i, k) * ((-1) ** i * comb(k + 1, i + 1)) for i in range(1, k + 1))
    return lhs, (-1) ** k * _binom(n + k - 1, k), {}


def _eval_eq17(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k = p["k"]
    lhs_poly = sum(
        poly_falling_factorial(_N * i, k) * ((-1) ** i * comb(k + 1, i + 1))
        for i in range(1, k + 1)
    )
    lhs = tuple(lhs_poly.coefficient(t) for t in range(k + 1))
    rhs = tuple(
        Fraction(0) if t == 0 else Fraction((-1) ** t * stirling1(k, t))
        for t in range(k + 1)
    )
    return lhs, rhs, {}


def _eval_eq18(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    result = check_eq18(p["k"], p["t"])
    return result.lhs, result.rhs, {}


def _eval_eq19(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    result = check_eq19(p["k"], p["t"])
    return result.lhs, result.rhs, {}


def _eval_eq29(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p.get("n", _N)
    lhs = sum(
        (_binom((n - 1) * i, k) - _binom(n * i, k)) * ((-1) ** i * comb(k + 1, i + 1))
        for i in range(1, k + 1)
    )
    rhs = sum(_binom(n * i, k - 1) * ((-1) ** i * comb(k, i + 1)) for i in range(1, k))
    return lhs, rhs, {}


def _eval_eq31(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    result = check_eq31(p["k"], p["t"])
    return result.lhs, result.rhs, {}


def _eval_eq36(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    x, n, k = p["x"], p["n"], p["k"]
    lhs = sum(
        (
            (-1) ** (i + k + 1)
            * comb(k, i)
            * binomial(x + i * n, k)
            * Fraction(x, x + i * n)
        )
        for i in range(1, k)
    )
    rhs = Fraction(x, x + k * n) * binomial(x + k * n, k) + (-1) ** k * binomial(x, k)
    return Fraction(lhs), Fraction(rhs), {}


def _eval_eq37(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    x, n, k = p["x"], p["n"], p["k"]
    lhs = sum(
        (-1) ** (i - 1) * comb(k, i) * binomial(x + i * n, k) * Fraction(1, x + i * n)
        for i in range(1, k + 1)
    )
    return Fraction(lhs), Fraction(0), {}


def _eval_eq38(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p["n"]
    lhs = sum(
        Fraction((-1) ** (i - 1), i) * binomial(i * n, k) * comb(k, i)
        for i in range(1, k + 1)
    )
    rhs = Fraction((-1) ** (k - 1) * n, k)
    return Fraction(lhs), rhs, {}


def _eval_eq41(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    result = check_eq41(p["n"], p["t"])
    return result.lhs, result.rhs, {}


def _eval_eq42(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p["n"]
    lhs = composition_transform(lambda i: multichoose(n, i), k)
    return lhs, binomial(n, k), {}


def _eval_eq47(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p.get("n", _N)
    lhs = sum(
        _binom(n * i + k - 1, k) * ((-1) ** i * comb(k + 1, i + 1)) for i in range(1, k + 1)
    )
    return lhs, (-1) ** k * _binom(n, k), {}


def _eval_lemma7(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    sample, k = p["sample"], p["k"]
    rng = seeded_rng(ctx.seed, "lemma7", sample)
    e_seq = [random_rational(rng) for _ in range(k)]
    h_seq = h_from_e_conv(e_seq)
    det_h = h_from_e_det(e_seq)
    # enumerated, so independent of the convolution route
    transform_h = transform_by_enumeration(lambda i: e_seq[i - 1], k)
    recovered_e = composition_transform(lambda i: h_seq[i - 1], k)
    lhs = (det_h, transform_h, recovered_e)
    rhs = (h_seq[-1], h_seq[-1], e_seq[-1])
    return lhs, rhs, {}


# ---------------------------------------------------------------------------
# Registry entries, in the documented order.

_register(
    "eq5",
    "sum_{r=1}^{k} (-1)^(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod_i C(n,k_i) == C(n+k-1,k)",
    "integer",
    ("k", "n"),
    ("pointwise",),
    "k >= 1, n >= 0",
    lambda p: p["k"] >= 1 and p["n"] >= 0,
    _eval_eq5,
    {"k": (1, 10), "n": (0, 10)},
)

_register(
    "eq6",
    "sum_{j=1}^{n} C(j+k-2,k-1) == C(n+k-1,k)",
    "integer",
    ("k", "n"),
    ("pointwise",),
    "k >= 1, n >= 1",
    lambda p: p["k"] >= 1 and p["n"] >= 1,
    _eval_eq6,
    {"k": (1, 15), "n": (1, 15)},
)

_register(
    "eq13",
    "sum_{i=1}^{k} (-1)^i C(n*i,k) C(k+1,i+1) == (-1)^k C(n+k-1,k)",
    "integer",
    ("k", "n"),
    ("pointwise", "polynomial_in_n"),
    "k >= 1, n >= 0 (omit n for the coefficientwise polynomial check)",
    lambda p: p["k"] >= 1 and p.get("n", 0) >= 0,
    _eval_eq13,
    {"k": (1, 20)}, {"k": (1, 12), "n": (0, 12)},
)

_register(
    "eq17",
    "coeff of n^t in sum_{i=1}^{k} (-1)^i (i*n)(i*n-1)...(i*n-k+1) C(k+1,i+1) == (-1)^t s(k,t), constant term 0",
    "integer",
    ("k",),
    ("polynomial_in_n",),
    "k >= 1",
    lambda p: p["k"] >= 1,
    _eval_eq17,
    {"k": (1, 12)},
)

_register(
    "eq18",
    "sum_{j=t}^{k} C(j,t) s(k,j) (k-1)^(j-t) == (-1)^(k+t) s(k,t)",
    "integer",
    ("k", "t"),
    ("pointwise",),
    "1 <= t <= k",
    lambda p: 1 <= p["t"] <= p["k"],
    _eval_eq18,
    {"k": (1, 25), "t": (1, 25)},
)

_register(
    "eq19",
    "sum_{j=t+1}^{k} C(j,t) s(k,j) == k s(k-1,t)",
    "integer",
    ("k", "t"),
    ("pointwise",),
    "1 <= t <= k",
    lambda p: 1 <= p["t"] <= p["k"],
    _eval_eq19,
    {"k": (1, 25), "t": (1, 25)},
)

_register(
    "eq29",
    "sum_{i=1}^{k} (-1)^i (C((n-1)i,k) - C(n*i,k)) C(k+1,i+1) == sum_{i=1}^{k-1} (-1)^i C(n*i,k-1) C(k,i+1)",
    "integer",
    ("k", "n"),
    ("pointwise", "polynomial_in_n"),
    "k >= 2, n >= 0 (omit n for the coefficientwise polynomial check)",
    lambda p: p["k"] >= 2 and p.get("n", 0) >= 0,
    _eval_eq29,
    {"k": (2, 15)},
)

_register(
    "eq31",
    "sum_{r=t}^{k} (-1)^r C(r,t) s(k,r) sum_{i=0}^{k} (-1)^i C(k+1,i+1) i^r == s(k,t) + k s(k-1,t)",
    "integer",
    ("k", "t"),
    ("pointwise",),
    "1 <= t <= k",
    lambda p: 1 <= p["t"] <= p["k"],
    _eval_eq31,
    {"k": (1, 12), "t": (1, 12)},
)

_register(
    "eq36",
    "sum_{i=1}^{k-1} (-1)^(i+k+1) C(k,i) C(x+i*n,k) x/(x+i*n) == x/(x+k*n) C(x+k*n,k) + (-1)^k C(x,k)",
    "rational",
    ("x", "n", "k"),
    ("pointwise",),
    "x >= 1, n >= 1, k >= 1",
    lambda p: p["x"] >= 1 and p["n"] >= 1 and p["k"] >= 1,
    _eval_eq36,
    {"x": (1, 6), "n": (1, 6), "k": (1, 8)},
)

_register(
    "eq37",
    "sum_{i=1}^{k} (-1)^(i-1) C(k,i) C(x+i*n,k) / (x+i*n) == 0",
    "rational",
    ("x", "n", "k"),
    ("pointwise",),
    "1 <= x < k, n >= 1",
    lambda p: 1 <= p["x"] < p["k"] and p["n"] >= 1,
    _eval_eq37,
    {"x": (1, 9), "n": (1, 6), "k": (2, 10)},
)

_register(
    "eq38",
    "sum_{i=1}^{k} (-1)^(i-1)/i C(i*n,k) C(k,i) == (-1)^(k-1) n/k",
    "rational",
    ("k", "n"),
    ("pointwise",),
    "k >= 1, n >= 1",
    lambda p: p["k"] >= 1 and p["n"] >= 1,
    _eval_eq38,
    {"k": (1, 15), "n": (1, 15)},
)

_register(
    "eq41",
    "s(n,t) sum_{i=1}^{n} (-1)^(i-1) C(n,i) i^(t-1) == 0",
    "integer",
    ("n", "t"),
    ("pointwise",),
    "n >= 1, t >= 2",
    lambda p: p["n"] >= 1 and p["t"] >= 2,
    _eval_eq41,
    {"n": (1, 12), "t": (2, 12)},
)

_register(
    "eq42",
    "sum_{r=1}^{k} (-1)^(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod_i C(n+k_i-1,k_i) == C(n,k)",
    "integer",
    ("k", "n"),
    ("pointwise",),
    "k >= 1, n >= 1",
    lambda p: p["k"] >= 1 and p["n"] >= 1,
    _eval_eq42,
    {"k": (1, 10), "n": (1, 10)},
)

_register(
    "eq47",
    "sum_{i=1}^{k} (-1)^i C(n*i+k-1,k) C(k+1,i+1) == (-1)^k C(n,k)",
    "integer",
    ("k", "n"),
    ("pointwise", "polynomial_in_n"),
    "k >= 1, n >= 0 (omit n for the coefficientwise polynomial check)",
    lambda p: p["k"] >= 1 and p.get("n", 0) >= 0,
    _eval_eq47,
    {"k": (1, 20)}, {"k": (1, 12), "n": (0, 12)},
)

_register(
    "lemma7_roundtrip",
    "for seeded random rational e_1..e_k: determinant, convolution, and composition-transform routes agree on h_k, and the transform of h_1..h_k recovers e_k",
    "rational",
    ("sample", "k"),
    ("pointwise",),
    "sample >= 0, k >= 1",
    lambda p: p["sample"] >= 0 and p["k"] >= 1,
    _eval_lemma7,
    {"sample": (0, 19), "k": (1, 8)},
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


def _pair_evaluator(pair: _Pair, direction: str) -> _Evaluator:
    def evaluate(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
        k = p["k"]
        rationals: dict[str, Fraction] = {}
        if pair.rationals:
            rng = seeded_rng(ctx.seed, pair.label, p["sample"])
            pinned = {"a": ctx.a, "b": ctx.b}
            for name in pair.rationals:
                value = pinned[name]
                if value is None:
                    value = random_rational(rng)
                    while value in rationals.values():  # q_cauchy needs b != a
                        value = random_rational(rng)
                rationals[name] = value
        integers = {name: p[name] for name in pair.spans if name != "k"}
        graded = pair.terms_id in GRADED_PAIR_IDS
        terms = graded_pair_terms if graded else pair_terms
        e_seq, h_seq = terms(pair.terms_id, {**integers, **rationals}, k)
        extras = {name: format_scalar(value) for name, value in rationals.items()}
        source, target = (e_seq, h_seq) if direction == "eh" else (h_seq, e_seq)
        lhs = composition_transform(lambda i: source[i - 1], k)
        rhs = target[k - 1]
        if graded:
            # both sides sit over phi_k: equal numerators are equal values,
            # and one reduction serves both
            if lhs == rhs:
                lhs = rhs = lhs.reduced()
            else:
                lhs, rhs = lhs.reduced(), rhs.reduced()
        return lhs, rhs, extras

    return evaluate


for _pair in _PAIRS:
    _lower = {name: lo for name, (lo, _) in _pair.spans.items()}
    if _pair.rationals:
        _lower["sample"] = 0
    for _direction, _source, _target in (("eh", _pair.e, _pair.h), ("he", _pair.h, _pair.e)):
        _register(
            f"{_pair.label}_{_direction}",
            f"composition transform of ({_source}) recovers ({_target})",
            _pair.ring,
            tuple(_lower),
            ("pointwise",),
            ", ".join(f"{name} >= {lo}" for name, lo in _lower.items()),
            lambda p, lower=_lower: all(p[name] >= lo for name, lo in lower.items()),
            _pair_evaluator(_pair, _direction),
            _pair.spans,
            rationals=_pair.rationals,
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


def verify_case(
    identity_id: str,
    params: Mapping[str, int],
    *,
    seed: int = DEFAULT_SEED,
    a: Fraction | None = None,
    b: Fraction | None = None,
) -> CaseReport:
    """Evaluate both sides exactly for one parameter binding.

    ``a`` and ``b`` pin the pair rationals they name; a transform over k
    above the COMPIDENT_BUDGET cap raises BudgetExceededError.
    """
    reg = _registration(identity_id)
    cleaned = _check_params(reg, params)
    if not reg.valid(cleaned):
        raise DomainError(
            f"{identity_id}: parameters {dict(cleaned)} outside domain ({reg.descriptor.domain})"
        )
    lhs, rhs, extras = reg.evaluate(cleaned, _Context(seed=seed, a=a, b=b))
    shown = {name: str(cleaned[name]) for name in reg.descriptor.params if name in cleaned}
    shown.update(extras)
    return CaseReport(
        identity_id=identity_id,
        params=shown,
        lhs=_serialize_value(lhs),
        rhs=_serialize_value(rhs),
        passed=lhs == rhs,
    )


def _case_grid(
    reg: _Registration, range_dicts: Sequence[Mapping[str, tuple[int, int]]]
) -> Iterator[dict[str, int]]:
    # Checks every range dict now, then yields the in-domain cases lazily.
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
            spans.append(range(lo, hi + 1))
        grids.append((names, spans))
    candidates = (
        dict(zip(names, combo)) for names, spans in grids for combo in cartesian_product(*spans)
    )
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
    ``b`` reach each verify_case.  Cases run in the documented parameter
    order, one after another in the calling thread.  The suite streams:
    each case's report is folded into the counts as it returns, and only
    the first MAX_REPORTED_FAILURES failing reports are kept, so no passing
    report outlives its case.  The pair4/pair5 suites still grow with the
    grid: each case's reduction adds one entry to poly_gcd's lru_cache
    (up to 8192), and no later case hits it.
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
    start = time.perf_counter()
    total = failed = 0
    first_failures: list[CaseReport] = []
    for params in cases:
        report = verify_case(identity_id, params, seed=seed, a=a, b=b)
        total += 1
        if not report.passed:
            failed += 1
            if len(first_failures) < MAX_REPORTED_FAILURES:
                first_failures.append(report)
    if not total:  # raised before any case ran: the grid had none
        raise DomainError(f"{reg.descriptor.id}: no cases inside the identity's domain")
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return SuiteReport(
        identity_id=identity_id,
        cases_total=total,
        cases_failed=failed,
        first_failures=first_failures,
        elapsed_ms=elapsed_ms,
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
    return Fraction(x, x + k * n) * binomial(x + k * n, k)


def rothe_hagen_A_sum(x: int, n: int, k: int) -> Fraction:
    """Alternating-sum form of the same coefficient:
    sum_{i=0}^{k-1} (-1)^(i+k+1) C(k,i) C(x+i*n,k) x/(x+i*n), for k >= 1.

    Note the published sum form starts at i = 0 while the rearranged
    identity eq36 starts at i = 1; this function keeps the i = 0 start so
    the two conventions can be cross-checked explicitly.
    """
    if k < 1:
        raise ValueError(f"rothe_hagen_A_sum: k must be >= 1, got {k}")
    total = Fraction(0)
    for i in range(k):
        d = x + i * n
        if d == 0:
            raise ZeroDivisionError(f"rothe_hagen_A_sum: x + i*n = 0 at i={i}")
        total += (-1) ** (i + k + 1) * comb(k, i) * binomial(d, k) * Fraction(x, d)
    return total
