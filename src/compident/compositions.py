"""Compositions of an integer and the signed composition transform.

A composition of k with r parts is an ordered tuple of positive integers
summing to k.  There are C(k-1, r-1) compositions with exactly r parts and
2**(k-1) altogether, so every enumerator here streams lazily; they and the
transform refuse k beyond a configurable cap (20 by default; the
COMPIDENT_BUDGET environment variable or an explicit ``budget`` argument
overrides it).

The central operation is the signed transform

    T(k) = sum_{r=1}^{k} (-1)**(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod_i term(k_i)

which converts a sequence of elementary-type terms into the complete-type
value of degree k, and back again when fed the complete-type sequence.  It
is generic over the ring of the terms: anything supporting +, unary -, and *
works (ints, Fractions, polynomials, rational functions).  As (-1)**(k-r) =
prod_i (-1)**(k_i-1), T is the O(k**2) e -> h convolution (transform_prefix);
the enumeration sum_r (-1)**(k-r) inner_sum_positive(term, k, r) and symfun's
Toeplitz determinant are the two independent routes that check it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from .exact_arith import binomial

DEFAULT_ENUMERATION_BUDGET = 20
BUDGET_ENV_VAR = "COMPIDENT_BUDGET"


class BudgetExceededError(RuntimeError):
    """An enumeration or transform was refused because k exceeds the cap."""


def enumeration_budget() -> int:
    """Active cap on full-enumeration k (COMPIDENT_BUDGET or the default)."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUMERATION_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be >= 1, got {value}")
    return value


def _check_budget(operation: str, k: int, budget: int | None) -> None:
    cap = enumeration_budget() if budget is None else budget
    if k > cap:
        raise BudgetExceededError(
            f"{operation}: k={k} is over the cap k<={cap} "
            f"(override via {BUDGET_ENV_VAR} or budget=)"
        )


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of parts >= 1; ``total`` is their sum."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError(f"composition parts must be positive integers, got {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))


@dataclass(frozen=True)
class TermSequence:
    """Map from part size (>= 1) to a ring element, tagged with its ring."""

    ring: str
    term: Callable[[int], Any]


def _term_callable(terms: Any) -> Callable[[int], Any]:
    if isinstance(terms, TermSequence):
        return terms.term
    if callable(terms):
        return terms
    raise TypeError("terms must be a TermSequence or a callable part-size -> element")


def enumerate_compositions(k: int, r: int) -> Iterator[Composition]:
    """Compositions of k with exactly r parts, in lexicographic part order.

    Yields exactly C(k-1, r-1) compositions, streaming (never materialized).
    """
    if k < 1:
        raise ValueError(f"enumerate_compositions: k must be >= 1, got {k}")
    if r < 1 or r > k:
        raise ValueError(f"enumerate_compositions: need 1 <= r <= k, got r={r}, k={k}")
    return (Composition(parts) for parts in _positive_parts(k, r))


def _positive_parts(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        yield (remaining,)
        return
    for first in range(1, remaining - slots + 2):
        for rest in _positive_parts(remaining - first, slots - 1):
            yield (first, *rest)


def enumerate_all_compositions(k: int, *, budget: int | None = None) -> Iterator[Composition]:
    """All 2**(k-1) compositions of k.

    Grouped by part count from k parts (the all-ones composition) down to a
    single part (k itself), lexicographic inside each group, matching the
    order the CLI prints.  Refuses k over the enumeration budget.
    """
    if k < 1:
        raise ValueError(f"enumerate_all_compositions: k must be >= 1, got {k}")
    _check_budget("enumerate_all_compositions", k, budget)

    def generate() -> Iterator[Composition]:
        for r in range(k, 0, -1):
            yield from enumerate_compositions(k, r)

    return generate()


def enumerate_weak_compositions(k: int, r: int) -> Iterator[tuple[int, ...]]:
    """Length-r tuples of parts >= 0 summing to k, in lexicographic order.

    Yields exactly C(k+r-1, r-1) tuples.
    """
    if k < 0:
        raise ValueError(f"enumerate_weak_compositions: k must be >= 0, got {k}")
    if r < 1:
        raise ValueError(f"enumerate_weak_compositions: r must be >= 1, got {r}")
    return _weak_parts(k, r)


def _weak_parts(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        yield (remaining,)
        return
    for first in range(remaining + 1):
        for rest in _weak_parts(remaining - first, slots - 1):
            yield (first, *rest)


def transform_prefix(values: Sequence[Any]) -> list[Any]:
    """T(1)..T(k) by T(m) = sum_{i=1}^{m} (-1)**(i-1) term(i) T(m-i), T(0) = 1;
    the i = m summand is term(m) itself, so every T(m) stays in the terms' ring."""
    ts: list[Any] = []
    for m in range(1, len(values) + 1):
        total: Any = None
        for i in range(1, m + 1):
            product = values[i - 1] if i == m else values[i - 1] * ts[m - i - 1]
            signed = product if i % 2 else -product
            total = signed if total is None else total + signed
        ts.append(total)
    return ts


def composition_transform(terms: Any, k: int, *, budget: int | None = None) -> Any:
    """Signed sum of term products over every composition of k.

        sum_{r=1}^{k} (-1)**(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod term(k_i)

    Computed by the convolution ``transform_prefix`` in O(k**2) ring operations.
    """
    if k < 1:
        raise ValueError(f"composition_transform: k must be >= 1, got {k}")
    _check_budget("composition_transform", k, budget)
    term = _term_callable(terms)
    return transform_prefix([term(i) for i in range(1, k + 1)])[-1]


def inner_sum_positive(terms: Any, k: int, r: int, *, budget: int | None = None) -> Any:
    """Sum of prod term(k_i) over compositions of k with exactly r parts."""
    if r < 1 or r > k:
        raise ValueError(f"inner_sum_positive: need 1 <= r <= k, got r={r}, k={k}")
    _check_budget("inner_sum_positive", k, budget)
    term = _term_callable(terms)
    values = [term(i) for i in range(1, k - r + 2)]  # parts never exceed k-r+1
    total: Any = None
    for comp in enumerate_compositions(k, r):
        product: Any = None
        for part in comp.parts:
            product = values[part - 1] if product is None else product * values[part - 1]
        total = product if total is None else total + product
    return total


def inner_sum_closed_binomial(n: int, k: int, r: int) -> int:
    """Inclusion-exclusion closed form of the positive inner sum with
    term(i) = C(n, i):  sum_{j=0}^{r-1} (-1)**j C(r,j) C((r-j)n, k)."""
    if n < 0:
        raise ValueError(f"inner_sum_closed_binomial: n must be >= 0, got {n}")
    if r < 1 or r > k:
        raise ValueError(f"inner_sum_closed_binomial: need 1 <= r <= k, got r={r}, k={k}")
    return sum(
        (-1) ** j * binomial(r, j) * binomial((r - j) * n, k) for j in range(r)
    )


def inner_sum_closed_multichoose(n: int, k: int, r: int) -> int:
    """Closed form of the positive inner sum with term(i) = C(n+i-1, i):
    sum_{j=0}^{r-1} (-1)**j C(r,j) C((r-j)n + k - 1, k)."""
    if n < 1:
        raise ValueError(f"inner_sum_closed_multichoose: n must be >= 1, got {n}")
    if r < 1 or r > k:
        raise ValueError(f"inner_sum_closed_multichoose: need 1 <= r <= k, got r={r}, k={k}")
    return sum(
        (-1) ** j * binomial(r, j) * binomial((r - j) * n + k - 1, k) for j in range(r)
    )
