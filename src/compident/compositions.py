"""Compositions of an integer and the signed composition transform.

A composition of k with r parts is an ordered tuple of positive integers
summing to k.  There are C(k-1, r-1) compositions with exactly r parts and
2**(k-1) altogether, so every enumerator here streams lazily; they and the
transform refuse k beyond a cap (20 by default; the COMPIDENT_BUDGET
environment variable is the one way to move it).

The central operation is the signed transform

    T(k) = sum_{r=1}^{k} (-1)**(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod_i term(k_i)

which converts a sequence of elementary-type terms into the complete-type
value of degree k, and back again when fed the complete-type sequence.  It
is generic over the ring of the terms: anything supporting +, unary -, and *
works (ints, Fractions, polynomials, rational functions).  As (-1)**(k-r) =
prod_i (-1)**(k_i-1), T is the O(k**2) e -> h convolution (transform_prefix).
Two independent routes check it: symfun's Toeplitz determinant, and the
literal enumeration (transform_by_enumeration).  The enumeration is one
depth-first walk over all 2**(k-1) compositions that forms each prefix
product once and adds each composition into a bucket S_r by its part count
r (part_count_sums; inner_sum_positive walks only the compositions with
exactly r parts); Fraction terms walk as integer numerators over the lcm of
their denominators.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterator, Sequence

from .exact_arith import DomainError, binomial

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
        raise DomainError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise DomainError(f"{BUDGET_ENV_VAR} must be >= 1, got {value}")
    return value


def _check_budget(operation: str, k: int) -> None:
    cap = enumeration_budget()
    if k > cap:
        raise BudgetExceededError(
            f"{operation}: k={k} is over the cap k<={cap} (set {BUDGET_ENV_VAR} to lift it)"
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


def enumerate_all_compositions(k: int) -> Iterator[Composition]:
    """All 2**(k-1) compositions of k.

    Grouped by part count from k parts (the all-ones composition) down to a
    single part (k itself), lexicographic inside each group, matching the
    order the CLI prints.  Refuses k over the cap (``enumeration_budget``)
    before yielding anything.
    """
    if k < 1:
        raise DomainError(f"enumerate_all_compositions: k must be >= 1, got {k}")
    _check_budget("enumerate_all_compositions", k)

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
    # one less per part maps the r-part compositions of k + r onto these, in order
    return (tuple(part - 1 for part in parts) for parts in _positive_parts(k + r, r))


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


def composition_transform(terms: Callable[[int], Any], k: int) -> Any:
    """Signed sum of term products over every composition of k.

        sum_{r=1}^{k} (-1)**(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod term(k_i)

    Computed by the convolution ``transform_prefix`` in O(k**2) ring operations.
    Refuses k over the cap (``enumeration_budget``) before reading any term.
    """
    if k < 1:
        raise ValueError(f"composition_transform: k must be >= 1, got {k}")
    _check_budget("composition_transform", k)
    return transform_prefix([terms(i) for i in range(1, k + 1)])[-1]


def inner_sum_positive(terms: Callable[[int], Any], k: int, r: int) -> Any:
    """Sum of prod term(k_i) over compositions of k with exactly r parts.

    One walk over exactly the C(k-1, r-1) such compositions, with parts up
    to k-r+1, the largest part an r-part composition has (``_exact_walk``).
    Refuses k over the cap (``enumeration_budget``) before reading any term.
    """
    if r < 1 or r > k:
        raise ValueError(f"inner_sum_positive: need 1 <= r <= k, got r={r}, k={k}")
    _check_budget("inner_sum_positive", k)
    values, scale = _integer_scaled([terms(i) for i in range(1, k - r + 2)])
    total = _exact_walk(values, k, r)
    return total if scale is None else Fraction(total, scale**r)


def transform_by_enumeration(terms: Callable[[int], Any], k: int) -> Any:
    """composition_transform's value as the literal signed sum
    sum_r (-1)**(k-r) S_r over all 2**(k-1) compositions of k.

    Shares no code with ``transform_prefix``, so it checks the recurrence
    independently.  Refuses k over the cap (``enumeration_budget``) before
    reading any term.
    """
    if k < 1:
        raise ValueError(f"transform_by_enumeration: k must be >= 1, got {k}")
    _check_budget("transform_by_enumeration", k)
    total: Any = None
    for r, s in enumerate(part_count_sums([terms(i) for i in range(1, k + 1)], k), 1):
        signed = s if (k - r) % 2 == 0 else -s
        total = signed if total is None else total + signed
    return total


def part_count_sums(values: Sequence[Any], k: int) -> list[Any]:
    """[S_1, ..., S_k] over the compositions of k with parts at most
    len(values): S_r sums prod values[k_i - 1] over those with r parts, and
    is 0 when there are none.

    Int terms walk in int arithmetic.  Fraction terms walk on their integer
    numerators over L = lcm of the denominators, and S_r is the Fraction
    bucket / L**r.  Other rings, and lists that mix types, walk unscaled, so
    every S_r has the type the products give.
    """
    values, scale = _integer_scaled(values)
    sums = _walk(values, k)
    return sums if scale is None else [Fraction(s, scale**r) for r, s in enumerate(sums, 1)]


def _integer_scaled(values: Sequence[Any]) -> tuple[Sequence[Any], int | None]:
    """(numerators, L) when every value is a Fraction, L the lcm of their
    denominators, so a product of r values is its numerator product / L**r;
    (values, None) otherwise."""
    if any(type(v) is not Fraction for v in values):
        return values, None
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _walk(values: Sequence[Any], k: int) -> list[Any]:
    """[S_1, ..., S_k] by one depth-first walk over the compositions of k
    with parts at most len(values).  Each prefix product is formed once and
    shared by every composition that starts with it, and each composition's
    product is added into the bucket of its part count."""
    largest = len(values)
    sums: list[Any] = [0] * (k + 1)

    def descend(remaining: int, count: int, prefix: Any) -> None:
        # prefix is the product of the first count - 1 parts
        for part in range(1, min(remaining, largest + 1)):
            descend(remaining - part, count + 1, prefix * values[part - 1])
        if remaining <= largest:
            sums[count] += prefix * values[remaining - 1]

    for first in range(1, min(k, largest + 1)):
        descend(k - first, 2, values[first - 1])
    if k <= largest:
        sums[1] += values[k - 1]
    return sums[1:]


def _exact_walk(values: Sequence[Any], k: int, r: int) -> Any:
    """S_r alone: the walk of ``_walk`` over the compositions of k with
    exactly r parts.  Each part leaves at least one unit for every part
    still to come, so every prefix walked ends in an r-part composition, and
    no part exceeds k-r+1; ``values`` holds the terms of parts 1..k-r+1."""
    total: Any = 0

    def descend(remaining: int, left: int, prefix: Any) -> None:
        # prefix is the product of the parts placed so far; left parts remain
        nonlocal total
        if left == 1:
            total += prefix * values[remaining - 1]
            return
        for part in range(1, remaining - left + 2):
            descend(remaining - part, left - 1, prefix * values[part - 1])

    if r == 1:
        return total + values[k - 1]
    for first in range(1, k - r + 2):
        descend(k - first, r - 1, values[first - 1])
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
