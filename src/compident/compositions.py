"""Compositions of an integer and the signed composition transform.

A composition of k with r parts is an ordered tuple of positive integers
summing to k; the enumerators yield exactly such tuples, C(k-1, r-1) with r
parts and 2**(k-1) altogether, so every one of them streams lazily.  They
and the transform refuse k beyond a cap (20 by default; the
COMPIDENT_BUDGET environment variable is the one way to move it).

The central operation is the signed transform

    T(k) = sum_{r=1}^{k} (-1)**(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod_i term(k_i)

which converts a sequence of elementary-type terms into the complete-type
value of degree k, and back again when fed the complete-type sequence.  It
is generic over the ring of the terms: anything supporting +, unary -, and *
works (ints, Fractions, polynomials, rational functions).  As (-1)**(k-r) =
prod_i (-1)**(k_i-1), T is the O(k**2) e -> h convolution (transform_prefix),
one loop for every ring.  On Fraction terms that loop runs graded, in ints:
with den(term(i)) | s**i (graded_scale), b_i = term(i) s**i and
U(m) = s**m T(m) follow T's recurrence with no gcd.  Past
k * bits(s) = 4096 those ints outgrow the reduced Fractions, so it stays on
Fractions there.  composition_prefix gives T(1)..T(k) and hands terms all
of one type with a transform_prefix of its own to it: Polynomial and
symfun.QGraded run the recurrence packed into ints at q = 2**w
(poly.packed_transform) and unpack each T(m) once; composition_transform
keeps T(k).  Two independent routes check it: symfun's Toeplitz
determinant, and the literal enumeration (enumerated_prefix).  Every
composition of every n <= k is a prefix of one of k, so one walk over the
compositions of k forms each of their products on its own, from the
product of its prefix one part shorter (2**k - k - 1 products in all), and
adds it into a bucket S_(n,r) by its sum n and part count r
(part_count_sums; inner_sum_positive walks only the compositions of k with
exactly r parts).  A prefix that leaves _BATCH or more units branches
depth-first; the prefixes below it that leave fewer go level by level, one
list per remainder, summed, extended a part at a time by map(mul, ...) and
closed by one sum per list.  So no list outgrows one subtree of 2**_BATCH
compositions: on 41-bit int terms at k = 18 the walk's allocations peak
near 0.2 MB.  Fraction terms walk as integer numerators over the lcm L of
their denominators, and each T(n) adds its signed buckets over L**n as ints
and normalises once.  Each bucket starts from its first product, not from
the int 0, so the walk runs on any ring (QGraded elements too).
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations, pairwise, repeat
from math import gcd, lcm
from operator import mul
from typing import Any, Callable, Iterable, Iterator, Sequence

from .exact_arith import DomainError, binomial

DEFAULT_ENUMERATION_BUDGET = 20
BUDGET_ENV_VAR = "COMPIDENT_BUDGET"
# graded Fraction transforms cost more than Fraction ones past this k * bits(s)
_GRADED_BITS = 4096
# _walk runs level by level on the prefixes that leave fewer units than this
_BATCH = 14


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


def check_budget(operation: str, k: int) -> None:
    """Raise BudgetExceededError, naming operation, when k is over the cap."""
    cap = enumeration_budget()
    if k > cap:
        raise BudgetExceededError(
            f"{operation}: k={k} is over the cap k<={cap} (set {BUDGET_ENV_VAR} to lift it)"
        )


def enumerate_compositions(k: int, r: int) -> Iterator[tuple[int, ...]]:
    """Compositions of k with exactly r parts, in lexicographic part order.

    Yields exactly C(k-1, r-1) compositions, streaming (never materialized).
    """
    if not 1 <= r <= k:
        raise ValueError(f"enumerate_compositions: need 1 <= r <= k, got r={r}, k={k}")
    return _positive_parts(k, r)


def _positive_parts(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    # the parts' partial sums are slots - 1 cuts inside 1..total-1, and
    # combinations yields the cuts, so the parts, in lexicographic order
    for cuts in combinations(range(1, total), slots - 1):
        yield tuple(b - a for a, b in pairwise((0, *cuts, total)))


def enumerate_all_compositions(k: int) -> Iterator[tuple[int, ...]]:
    """All 2**(k-1) compositions of k.

    Grouped by part count from k parts (the all-ones composition) down to a
    single part (k itself), lexicographic inside each group, matching the
    order the CLI prints.  Refuses k over the cap (``enumeration_budget``)
    before yielding anything.
    """
    if k < 1:
        raise DomainError(f"enumerate_all_compositions: k must be >= 1, got {k}")
    check_budget("enumerate_all_compositions", k)
    return (parts for r in range(k, 0, -1) for parts in _positive_parts(k, r))


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
    """T(1)..T(k) by T(m) = sum_{i=1}^{m} (-1)**(i-1) term(i) T(m-i), T(0) = 1.

    One loop for every ring: with signed_i = (-1)**(i-1) term(i), T(m) is
    the sum of signed_i T(m-i) for i < m, started from signed_m, so every
    T(m) stays in the terms' ring and never meets the int 0.  Fraction
    terms run that loop on their graded ints (``_graded``), U(m) = s**m T(m),
    and each T(m) = U(m) / s**m is reduced once."""
    graded = _graded(values)
    terms, scale = (values, None) if graded is None else graded
    signed: list[Any] = []
    ts: list[Any] = []
    for i, v in enumerate(terms, 1):
        signed.append(v if i % 2 else -v)
        ts.append(sum(map(mul, signed, reversed(ts)), signed[-1]))
    if scale is None:
        return ts
    return [Fraction(u, scale**m) for m, u in enumerate(ts, 1)]


def graded_scale(denominators: Iterable[int]) -> int:
    """s with d_i | s**i for the i-th denominator d_i, built greedily: s
    takes on only the part of d_i that s**i does not hold yet."""
    scale = 1
    for i, d in enumerate(denominators, 1):
        scale *= d // gcd(d, pow(scale, i, d))
    return scale


def _graded(values: Sequence[Any]) -> tuple[list[int], int] | None:
    """([b_1, ..., b_k], s) with b_i = v_i s**i ints, s = ``graded_scale``
    of the denominators, when every value is a Fraction and
    k * bits(s) <= _GRADED_BITS; None otherwise.  T's recurrence times s**m
    is U(m) = sum (-1)**(i-1) b_i U(m-i): no product needs a gcd."""
    if any(type(v) is not Fraction for v in values):
        return None
    scale = graded_scale(v.denominator for v in values)
    if len(values) * scale.bit_length() > _GRADED_BITS:
        return None
    return [v.numerator * (scale**i // v.denominator) for i, v in enumerate(values, 1)], scale


def composition_transform(terms: Callable[[int], Any], k: int) -> Any:
    """Signed sum of term products over every composition of k.

        sum_{r=1}^{k} (-1)**(k-r) sum_{k_1+...+k_r=k, k_i>=1} prod term(k_i)

    The last entry of ``composition_prefix`` of term(1)..term(k).  Refuses
    k over the cap (``enumeration_budget``) before reading any term.
    """
    if k < 1:
        raise ValueError(f"composition_transform: k must be >= 1, got {k}")
    check_budget("composition_transform", k)
    return composition_prefix([terms(i) for i in range(1, k + 1)])[-1]


def composition_prefix(values: Sequence[Any]) -> list[Any]:
    """T(1)..T(k) of the terms values: the convolution ``transform_prefix``
    in O(k**2) ring operations, unless all terms have one type with a
    transform_prefix of its own (Polynomial, symfun.QGraded: packed ints).
    """
    kinds = set(map(type, values))
    own = getattr(kinds.pop(), "transform_prefix", None) if len(kinds) == 1 else None
    return transform_prefix(values) if own is None else own(values)


def inner_sum_positive(terms: Callable[[int], Any], k: int, r: int) -> Any:
    """Sum of prod term(k_i) over compositions of k with exactly r parts.

    One walk over exactly the C(k-1, r-1) such compositions, with parts up
    to k-r+1, the largest part an r-part composition has (``_exact_walk``).
    Refuses k over the cap (``enumeration_budget``) before reading any term.
    """
    if r < 1 or r > k:
        raise ValueError(f"inner_sum_positive: need 1 <= r <= k, got r={r}, k={k}")
    check_budget("inner_sum_positive", k)
    values, scale = _integer_scaled([terms(i) for i in range(1, k - r + 2)])
    total = _exact_walk(values, k, r)
    return total if scale is None else Fraction(total, scale**r)


def transform_by_enumeration(terms: Callable[[int], Any], k: int) -> Any:
    """composition_transform's value as the literal signed sum
    sum_r (-1)**(k-r) S_r over all 2**(k-1) compositions of k:
    ``enumerated_prefix`` from T(k) on.  Refuses k over the cap
    (``enumeration_budget``) before reading any term.
    """
    if k < 1:
        raise ValueError(f"transform_by_enumeration: k must be >= 1, got {k}")
    check_budget("transform_by_enumeration", k)
    return enumerated_prefix([terms(i) for i in range(1, k + 1)], k)[0]


def enumerated_prefix(values: Sequence[Any], low: int = 1) -> list[Any]:
    """T(low)..T(k) of the terms values, each the literal signed sum
    sum_r (-1)**(n-r) S_(n,r), from one walk over the compositions of k.

    Shares no code with ``transform_prefix``, so it checks the recurrence
    independently.  Reads no cap: the caller has built the terms.
    """
    values, scale = _integer_scaled(values)
    return [_signed_sum(sums, scale) for sums in _walk(values, len(values), low)]


def _signed_sum(sums: Sequence[Any], scale: int | None) -> Any:
    """T(n) from its buckets [S_1, ..., S_n]: sum_r (-1)**(n-r) S_r."""
    n = len(sums)
    if scale is not None:
        # S_r = bucket_r / L**r, so the signed sum is one int over L**n:
        # sum_r (-1)**(n-r) bucket_r L**(n-r), by Horner in -L
        total = 0
        for s in sums:
            total = total * -scale + s
        return Fraction(total, scale**n)
    total: Any = None
    for r, s in enumerate(sums, 1):
        signed = s if (n - r) % 2 == 0 else -s
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
    sums = _walk(values, k, k)[0]
    return sums if scale is None else [Fraction(s, scale**r) for r, s in enumerate(sums, 1)]


def _integer_scaled(values: Sequence[Any]) -> tuple[Sequence[Any], int | None]:
    """(numerators, L) when every value is a Fraction, L the lcm of their
    denominators, so a product of r values is its numerator product / L**r;
    (values, None) otherwise."""
    if any(type(v) is not Fraction for v in values):
        return values, None
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _walk(values: Sequence[Any], k: int, low: int) -> list[list[Any]]:
    """[[S_(n,1), ..., S_(n,n)] for n = low..k]: S_(n,r) sums the products
    of the compositions of n with r parts, each part at most len(values).

    Every such composition is a prefix of one of k, so one walk over the
    compositions of k forms each product once, from that of its prefix one
    part shorter, and adds it into the bucket of its sum and part count if
    that sum is low or more: each bucket costs one addition per product.

    A prefix that leaves _BATCH or more units branches depth-first.  The
    prefixes one part longer that leave fewer go to ``levels``, one list
    per remainder, so every list stays inside the subtree of one
    depth-first prefix (or of the empty one)."""
    largest = len(values)
    # a bucket holds None until its first product, which it starts from:
    # the int 0 would not add to every ring (symfun.QGraded is a tuple)
    sums: list[list[Any]] = [[None] * (n + 1) for n in range(k + 1)]

    def add(n: int, r: int, total: Any) -> None:
        held = sums[n][r]
        sums[n][r] = total if held is None else held + total

    def levels(count: int, lists: list[list[Any]]) -> None:
        # lists[m] holds the products of the count-part prefixes that leave
        # m units; each pass adds them all up, closes them, and extends them
        # by one part
        while len(lists) > 1:
            deeper: list[list[Any]] = [[] for _ in range(len(lists) - 1)]
            closed = sums[k][count + 1]
            for m, prefixes in enumerate(lists):
                if not prefixes:
                    continue
                lists[m] = []  # free each list once it is read
                if k - m >= low:
                    each = iter(prefixes)
                    add(k - m, count, sum(each, next(each)))
                if m <= largest:
                    products = map(mul, prefixes, repeat(values[m - 1]))
                    closed = sum(products, next(products) if closed is None else closed)
                for part in range(1, min(m, largest + 1)):
                    deeper[m - part] += map(mul, prefixes, repeat(values[part - 1]))
            sums[k][count + 1] = closed
            lists = deeper
            count += 1

    def descend(count: int, remaining: int, prefix: Any) -> None:
        # prefix is the product of count parts, None when count is 0; the
        # first part's product is its value itself, never 1 * value
        batch: list[list[Any]] = [[] for _ in range(min(remaining, _BATCH))]
        for part in range(1, min(remaining, largest + 1)):
            product = values[part - 1] if prefix is None else prefix * values[part - 1]
            if remaining - part >= _BATCH:
                if k - remaining + part >= low:
                    add(k - remaining + part, count + 1, product)
                descend(count + 1, remaining - part, product)
            else:
                batch[remaining - part].append(product)
        if remaining <= largest:
            last = values[remaining - 1]
            add(k, count + 1, last if prefix is None else prefix * last)
        levels(count + 1, batch)

    descend(0, k, None)
    return [[0 if s is None else s for s in row[1:]] for row in sums[low:]]


def _exact_walk(values: Sequence[Any], k: int, r: int) -> Any:
    """S_r alone: the walk of ``_walk`` over the compositions of k with
    exactly r parts.  Each part leaves at least one unit for every part
    still to come, so every prefix walked ends in an r-part composition, and
    no part exceeds k-r+1; ``values`` holds the terms of parts 1..k-r+1."""
    # total starts from the first product, as _walk's buckets do: the int 0
    # would not add to every ring (symfun.QGraded is a tuple)
    total: Any = None

    def descend(remaining: int, left: int, prefix: Any) -> None:
        # prefix is the product of the parts placed so far; left parts remain
        nonlocal total
        if left == 1:
            closed = prefix * values[remaining - 1]
            total = closed if total is None else total + closed
            return
        for part in range(1, remaining - left + 2):
            descend(remaining - part, left - 1, prefix * values[part - 1])

    if r == 1:
        return values[k - 1]
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
