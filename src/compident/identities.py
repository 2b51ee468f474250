"""Identity catalog and exact verification engine.

Twenty-five identities live in a frozen registry (eq5 ... eq47 for the
binomial/Stirling/Rothe-Hagen family, lemma7_roundtrip for the generic
three-route agreement, pair1_eh ... pair5_he for the sequence-pair catalog).
Each entry knows its formula statement, ring, parameter domain, default
verification ranges, and a pure evaluator that produces both sides exactly.

Verification is pointwise (parameters substituted, exact values compared) or
coefficientwise as polynomial identities in n for eq13, eq29, eq47 (those
run in polynomial mode whenever no n parameter is supplied) and eq17 (always
a coefficient comparison).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian_product
from math import comb
from typing import Any, Callable, Iterable, Mapping, Sequence

from .compositions import TermSequence, composition_transform, inner_sum_positive
from .exact_arith import binomial, format_scalar, multichoose
from .poly import Polynomial, RationalFunction, poly_binomial, poly_to_json
from .stirling import check_eq18, check_eq19, check_eq31, check_eq41, stirling1
from .symfun import (
    DEFAULT_SEED,
    PAIR_RINGS,
    h_from_e_conv,
    h_from_e_det,
    pair_terms,
    random_rational,
    seeded_rng,
)

MAX_REPORTED_FAILURES = 10

DEFAULT_SAMPLES = 5


class DomainError(ValueError):
    """Parameters outside an identity's documented domain."""


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
    elapsed_ms: int = 0

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
    budget: int | None = None


_EvalResult = tuple[Any, Any, dict[str, str]]
_Evaluator = Callable[[Mapping[str, int], _Context], _EvalResult]
_RangeDict = dict[str, tuple[int, int]]


@dataclass(frozen=True)
class _Registration:
    descriptor: IdentityDescriptor
    valid: Callable[[Mapping[str, int]], bool]
    evaluate: _Evaluator
    default_ranges: Callable[[int], tuple[_RangeDict, ...]]
    optional_params: frozenset[str] = frozenset()


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
    default_ranges: Callable[[int], tuple[_RangeDict, ...]],
    optional_params: Iterable[str] = (),
) -> None:
    descriptor = IdentityDescriptor(
        id=identity_id,
        statement=statement,
        ring=ring,
        params=tuple(params),
        modes=tuple(modes),
        domain=domain,
    )
    _REGISTRY[identity_id] = _Registration(
        descriptor, valid, evaluate, default_ranges, frozenset(optional_params)
    )


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

def _eval_eq5(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p["n"]
    terms = TermSequence("integer", lambda i: binomial(n, i))
    lhs = composition_transform(terms, k, budget=ctx.budget)
    return lhs, binomial(n + k - 1, k), {}


def _eval_eq6(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k, n = p["k"], p["n"]
    lhs = sum(binomial(j + k - 2, k - 1) for j in range(1, n + 1))
    return lhs, binomial(n + k - 1, k), {}


def _eval_eq13(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k = p["k"]
    if "n" in p:
        n = p["n"]
        lhs = sum(
            (-1) ** i * binomial(n * i, k) * comb(k + 1, i + 1) for i in range(1, k + 1)
        )
        rhs = (-1) ** k * binomial(n + k - 1, k)
        return lhs, rhs, {}
    lhs_poly = Polynomial()
    for i in range(1, k + 1):
        term = poly_binomial(Polynomial((0, i)), k) * comb(k + 1, i + 1)
        lhs_poly = lhs_poly - term if i % 2 else lhs_poly + term
    rhs_poly = poly_binomial(Polynomial((k - 1, 1)), k)
    if k % 2:
        rhs_poly = -rhs_poly
    return lhs_poly, rhs_poly, {}


def _eval_eq17(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k = p["k"]
    lhs_poly = Polynomial()
    for i in range(1, k + 1):
        prod = Polynomial((1,))
        for j in range(k):
            prod = prod * Polynomial((-j, i))  # factor (i*n - j)
        term = prod * comb(k + 1, i + 1)
        lhs_poly = lhs_poly - term if i % 2 else lhs_poly + term
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
    k = p["k"]
    if "n" in p:
        n = p["n"]
        lhs = sum(
            (-1) ** i
            * (binomial((n - 1) * i, k) - binomial(n * i, k))
            * comb(k + 1, i + 1)
            for i in range(1, k + 1)
        )
        rhs = sum(
            (-1) ** i * binomial(n * i, k - 1) * comb(k, i + 1) for i in range(1, k)
        )
        return lhs, rhs, {}
    lhs_poly = Polynomial()
    for i in range(1, k + 1):
        diff = poly_binomial(Polynomial((-i, i)), k) - poly_binomial(Polynomial((0, i)), k)
        term = diff * comb(k + 1, i + 1)
        lhs_poly = lhs_poly - term if i % 2 else lhs_poly + term
    rhs_poly = Polynomial()
    for i in range(1, k):
        term = poly_binomial(Polynomial((0, i)), k - 1) * comb(k, i + 1)
        rhs_poly = rhs_poly - term if i % 2 else rhs_poly + term
    return lhs_poly, rhs_poly, {}


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
    terms = TermSequence("integer", lambda i: multichoose(n, i))
    lhs = composition_transform(terms, k, budget=ctx.budget)
    return lhs, binomial(n, k), {}


def _eval_eq47(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    k = p["k"]
    if "n" in p:
        n = p["n"]
        lhs = sum(
            (-1) ** i * binomial(n * i + k - 1, k) * comb(k + 1, i + 1)
            for i in range(1, k + 1)
        )
        rhs = (-1) ** k * binomial(n, k)
        return lhs, rhs, {}
    lhs_poly = Polynomial()
    for i in range(1, k + 1):
        term = poly_binomial(Polynomial((k - 1, i)), k) * comb(k + 1, i + 1)
        lhs_poly = lhs_poly - term if i % 2 else lhs_poly + term
    rhs_poly = poly_binomial(Polynomial((0, 1)), k)
    if k % 2:
        rhs_poly = -rhs_poly
    return lhs_poly, rhs_poly, {}


def _eval_lemma7(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
    sample, k = p["sample"], p["k"]
    rng = seeded_rng(ctx.seed, "lemma7", sample)
    e_seq = [random_rational(rng) for _ in range(k)]
    h_seq = h_from_e_conv(e_seq)
    det_h = h_from_e_det(e_seq)
    transform_h = sum(  # enumerated, so independent of the convolution route
        (-1) ** (k - r) * inner_sum_positive(lambda i: e_seq[i - 1], k, r, budget=ctx.budget)
        for r in range(1, k + 1)
    )
    recovered_e = composition_transform(
        TermSequence("rational", lambda i: h_seq[i - 1]), k, budget=ctx.budget
    )
    lhs = (det_h, transform_h, recovered_e)
    rhs = (h_seq[-1], h_seq[-1], e_seq[-1])
    return lhs, rhs, {}


_PAIR_KEYS = {
    "pair1": "tree",
    "pair2": "bernoulli",
    "pair3": "q_binomial",
    "pair4": "q_exp",
    "pair5": "q_cauchy",
}


def _pair_evaluator(pair_label: str, direction: str) -> _Evaluator:
    pair_key = _PAIR_KEYS[pair_label]
    ring = PAIR_RINGS[pair_key]

    def evaluate(p: Mapping[str, int], ctx: _Context) -> _EvalResult:
        k = p["k"]
        binding: dict[str, Any] = {}
        extras: dict[str, str] = {}
        if pair_key == "q_binomial":
            binding["n"] = p["n"]
        elif pair_key in ("tree", "bernoulli"):
            rng = seeded_rng(ctx.seed, pair_label, p.get("sample", 0))
            a_val = ctx.a if ctx.a is not None else random_rational(rng)
            binding["a"] = a_val
            extras["a"] = format_scalar(a_val)
        elif pair_key == "q_cauchy":
            rng = seeded_rng(ctx.seed, pair_label, p.get("sample", 0))
            a_val = ctx.a if ctx.a is not None else random_rational(rng)
            b_val = ctx.b
            if b_val is None:
                b_val = random_rational(rng)
                while b_val == a_val:
                    b_val = random_rational(rng)
            binding["a"] = a_val
            binding["b"] = b_val
            extras["a"] = format_scalar(a_val)
            extras["b"] = format_scalar(b_val)
        e_seq, h_seq = pair_terms(pair_key, binding, k)
        source, target = (e_seq, h_seq) if direction == "eh" else (h_seq, e_seq)
        lhs = composition_transform(
            TermSequence(ring, lambda i: source[i - 1]), k, budget=ctx.budget
        )
        return lhs, target[k - 1], extras

    return evaluate


# ---------------------------------------------------------------------------
# Registry entries, in the documented order.

def _fixed_ranges(*ranges: _RangeDict) -> Callable[[int], tuple[_RangeDict, ...]]:
    frozen = tuple(dict(r) for r in ranges)
    return lambda samples: frozen


def _sampled_ranges(base: _RangeDict) -> Callable[[int], tuple[_RangeDict, ...]]:
    def build(samples: int) -> tuple[_RangeDict, ...]:
        ranges = dict(base)
        ranges["sample"] = (0, samples - 1)
        return (ranges,)

    return build


_register(
    "eq5",
    "sum_{r=1}^{k} (-1)^(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod_i C(n,k_i) == C(n+k-1,k)",
    "integer",
    ("k", "n"),
    ("pointwise",),
    "k >= 1, n >= 0",
    lambda p: p["k"] >= 1 and p["n"] >= 0,
    _eval_eq5,
    _fixed_ranges({"k": (1, 10), "n": (0, 10)}),
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
    _fixed_ranges({"k": (1, 15), "n": (1, 15)}),
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
    _fixed_ranges({"k": (1, 20)}, {"k": (1, 12), "n": (0, 12)}),
    optional_params=("n",),
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
    _fixed_ranges({"k": (1, 12)}),
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
    _fixed_ranges({"k": (1, 25), "t": (1, 25)}),
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
    _fixed_ranges({"k": (1, 25), "t": (1, 25)}),
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
    _fixed_ranges({"k": (2, 15)}),
    optional_params=("n",),
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
    _fixed_ranges({"k": (1, 12), "t": (1, 12)}),
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
    _fixed_ranges({"x": (1, 6), "n": (1, 6), "k": (1, 8)}),
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
    _fixed_ranges({"x": (1, 9), "n": (1, 6), "k": (2, 10)}),
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
    _fixed_ranges({"k": (1, 15), "n": (1, 15)}),
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
    _fixed_ranges({"n": (1, 12), "t": (2, 12)}),
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
    _fixed_ranges({"k": (1, 10), "n": (1, 10)}),
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
    _fixed_ranges({"k": (1, 20)}, {"k": (1, 12), "n": (0, 12)}),
    optional_params=("n",),
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
    _fixed_ranges({"sample": (0, 19), "k": (1, 8)}),
)

_PAIR_STATEMENTS = {
    "pair1": ("e_k = a(a-k)^(k-1)/k!", "h_k = a(a+k)^(k-1)/k!"),
    "pair2": ("e_k = (-1)^k a^k B_k/k!", "h_k = a^k/(k+1)!"),
    "pair3": ("e_k = q^(k(k-1)/2) qbinom(n,k)", "h_k = qbinom(n+k-1,k)"),
    "pair4": ("e_k = q^(k(k-1)/2)/phi_k(q)", "h_k = 1/phi_k(q)"),
    "pair5": (
        "e_k = prod_{i=1}^{k} (a-b q^(i-1))/(1-q^i)",
        "h_k = prod_{i=1}^{k} (a q^(i-1)-b)/(1-q^i)",
    ),
}

for _label in ("pair1", "pair2", "pair3", "pair4", "pair5"):
    _key = _PAIR_KEYS[_label]
    _ring = PAIR_RINGS[_key]
    _e_stmt, _h_stmt = _PAIR_STATEMENTS[_label]
    if _key == "q_binomial":
        _params: tuple[str, ...] = ("k", "n")
        _domain = "k >= 1, n >= 0"
        _valid = lambda p: p["k"] >= 1 and p["n"] >= 0
        _ranges = _fixed_ranges({"k": (1, 8), "n": (0, 6)})
    elif _key == "q_exp":
        _params = ("k",)
        _domain = "k >= 1"
        _valid = lambda p: p["k"] >= 1
        _ranges = _fixed_ranges({"k": (1, 8)})
    else:
        _params = ("k", "sample")
        _domain = "k >= 1, sample >= 0"
        _valid = lambda p: p["k"] >= 1 and p.get("sample", 0) >= 0
        _ranges = _sampled_ranges({"k": (1, 8)})
    _register(
        f"{_label}_eh",
        f"composition transform of ({_e_stmt}) recovers ({_h_stmt})",
        _ring,
        _params,
        ("pointwise",),
        _domain,
        _valid,
        _pair_evaluator(_label, "eh"),
        _ranges,
    )
    _register(
        f"{_label}_he",
        f"composition transform of ({_h_stmt}) recovers ({_e_stmt})",
        _ring,
        _params,
        ("pointwise",),
        _domain,
        _valid,
        _pair_evaluator(_label, "he"),
        _ranges,
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
    return _registration(identity_id).default_ranges(samples)


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
    budget: int | None = None,
) -> CaseReport:
    """Evaluate both sides exactly for one parameter binding."""
    reg = _registration(identity_id)
    cleaned = _check_params(reg, params)
    if not reg.valid(cleaned):
        raise DomainError(
            f"{identity_id}: parameters {dict(cleaned)} outside domain ({reg.descriptor.domain})"
        )
    ctx = _Context(seed=seed, a=a, b=b, budget=budget)
    start = time.perf_counter()
    lhs, rhs, extras = reg.evaluate(cleaned, ctx)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    shown = {name: str(cleaned[name]) for name in reg.descriptor.params if name in cleaned}
    shown.update(extras)
    return CaseReport(
        identity_id=identity_id,
        params=shown,
        lhs=_serialize_value(lhs),
        rhs=_serialize_value(rhs),
        passed=lhs == rhs,
        elapsed_ms=elapsed_ms,
    )


def _case_grid(
    reg: _Registration, range_dicts: Sequence[Mapping[str, tuple[int, int]]]
) -> list[dict[str, int]]:
    cases: list[dict[str, int]] = []
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
        for combo in cartesian_product(*spans):
            candidate = dict(zip(names, combo))
            if reg.valid(candidate):
                cases.append(candidate)
    if not cases:
        raise DomainError(f"{reg.descriptor.id}: no cases inside the identity's domain")
    return cases


def verify_range(
    identity_id: str,
    ranges: Mapping[str, tuple[int, int]] | Sequence[Mapping[str, tuple[int, int]]] | None = None,
    *,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    a: Fraction | None = None,
    b: Fraction | None = None,
    jobs: int = 1,
    budget: int | None = None,
) -> SuiteReport:
    """Run the Cartesian product of the ranges through verify_case.

    ``ranges`` may be a single mapping name -> (lo, hi), a sequence of such
    mappings (each its own grid; this is how the dual pointwise/polynomial
    defaults are expressed), or None for the identity's default grids.
    Combinations outside the identity's domain (for example t > k in a
    triangular family) are skipped, not errors.  Case order is the
    documented parameter order and is independent of ``jobs``.
    """
    reg = _registration(identity_id)
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    if ranges is None:
        range_dicts: Sequence[Mapping[str, tuple[int, int]]] = default_ranges(
            identity_id, samples=samples
        )
    elif isinstance(ranges, Mapping):
        range_dicts = (ranges,)
    else:
        range_dicts = tuple(ranges)
    cases = _case_grid(reg, range_dicts)

    def run(case_params: dict[str, int]) -> CaseReport:
        return verify_case(
            identity_id, case_params, seed=seed, a=a, b=b, budget=budget
        )

    start = time.perf_counter()
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run, cases))
    else:
        reports = [run(case_params) for case_params in cases]
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    failures = [r for r in reports if not r.passed]
    return SuiteReport(
        identity_id=identity_id,
        cases_total=len(reports),
        cases_failed=len(failures),
        first_failures=failures[:MAX_REPORTED_FAILURES],
        elapsed_ms=elapsed_ms,
    )


_POLYNOMIAL_IDS = ("eq13", "eq29", "eq47")


def verify_polynomial_in_n(
    identity_id: str, k: int, *, budget: int | None = None
) -> CaseReport:
    """Coefficientwise comparison of both sides as polynomials in n."""
    if identity_id not in _POLYNOMIAL_IDS:
        raise DomainError(
            f"{identity_id!r} has no polynomial mode (supported: {', '.join(_POLYNOMIAL_IDS)})"
        )
    return verify_case(identity_id, {"k": k}, budget=budget)


def check_eq17_coefficients(k: int) -> CaseReport:
    """Coefficient law: every n^t coefficient of the signed falling-factorial
    sum equals (-1)^t s(k,t), and the constant term is 0."""
    return verify_case("eq17", {"k": k})


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
