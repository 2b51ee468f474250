"""Signed Stirling numbers of the first kind and checks built on them.

s(n, t) is the coefficient of x**t in x (x-1) ... (x-n+1), computed through
the triangle recurrence s(n, t) = s(n-1, t-1) - (n-1) s(n-1, t) with the
conventions s(0, 0) = 1 and s(0, t) = 0 for t >= 1 (so the recurrence
instantiates cleanly at n = 1) and s(n, t) = 0 outside 1 <= t <= n.

The rows live in one grow-only module tuple (the idiom of symfun.bernoulli
and symfun.phi) that stirling1 and the checks read; rows() streams the
table holding one row.  Both grow rows by _steps, the one recurrence.  Each
check returns its two exactly evaluated sides as the pair (lhs, rhs).
"""

from __future__ import annotations

from math import comb
from typing import Iterator


_rows: tuple[tuple[int, ...], ...] = ((1,),)


def _grown(n: int) -> tuple[tuple[int, ...], ...]:
    """The shared rows s(m, 0..m) for m = 0 .. at least n.

    Grows a private copy and rebinds the global, which is never mutated, so
    concurrent callers at worst repeat a row; each returns the tuple it read
    or built and never reads the global again.
    """
    global _rows
    cached = _rows
    if len(cached) <= n:
        cached = _rows = cached + tuple(_steps(cached[-1], len(cached), n + 1))
    return cached


def _steps(row: tuple[int, ...], start: int, stop: int) -> Iterator[tuple[int, ...]]:
    """s(m, 0..m) for m = start .. stop - 1, each from the one before; row is s(start - 1, .)."""
    for m in range(start, stop):
        # s(m, t) = s(m-1, t-1) - (m-1) s(m-1, t), with s(m-1, m) = 0
        row = tuple(a - (m - 1) * b for a, b in zip((0, *row), (*row, 0)))
        yield row


def rows(n: int) -> Iterator[tuple[int, ...]]:
    """s(m, 1..m) for m = 1..n, holding one row at a time; the shared rows stay as they are."""
    return (row[1:] for row in _steps((1,), 1, n + 1))


def _s(n: int, t: int) -> int:
    # Internal accessor: accepts n >= 0 under the s(0, .) convention.
    if t < 0 or t > n:
        return 0
    return _grown(n)[n][t]


def stirling1(n: int, t: int) -> int:
    """Signed Stirling number of the first kind; 0 when t < 1 or t > n."""
    if n < 1:
        raise ValueError(f"stirling1: n must be >= 1, got {n}")
    return _s(n, t)


def _require_t_range(k: int, t: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t < 1 or t > k:
        raise ValueError(f"t must satisfy 1 <= t <= k, got t={t}, k={k}")


def check_eq19(k: int, t: int) -> tuple[int, int]:
    """sum_{j=t+1}^{k} C(j,t) s(k,j)  ==  k * s(k-1,t)."""
    _require_t_range(k, t)
    lhs = sum(comb(j, t) * _s(k, j) for j in range(t + 1, k + 1))
    rhs = k * _s(k - 1, t)
    return lhs, rhs


def check_eq18(k: int, t: int) -> tuple[int, int]:
    """sum_{j=t}^{k} C(j,t) s(k,j) (k-1)**(j-t)  ==  (-1)**(k+t) s(k,t).

    Uses 0**0 == 1 for the k = 1 diagonal term, which the identity itself
    forces (without it the k = 1 instance would fail).
    """
    _require_t_range(k, t)
    lhs = sum(comb(j, t) * _s(k, j) * (k - 1) ** (j - t) for j in range(t, k + 1))
    rhs = (-1) ** (k + t) * _s(k, t)
    return lhs, rhs


def check_eq31(k: int, t: int) -> tuple[int, int]:
    """Literal double sum

        sum_{r=t}^{k} (-1)**r C(r,t) s(k,r) sum_{i=0}^{k} (-1)**i C(k+1,i+1) i**r

    compared against s(k,t) + k s(k-1,t).  The interior sum is evaluated
    term by term, deliberately not simplified.
    """
    _require_t_range(k, t)
    lhs = 0
    for r in range(t, k + 1):
        interior = sum((-1) ** i * comb(k + 1, i + 1) * i ** r for i in range(k + 1))
        lhs += (-1) ** r * comb(r, t) * _s(k, r) * interior
    rhs = _s(k, t) + k * _s(k - 1, t)
    return lhs, rhs


def check_eq41(n: int, t: int) -> tuple[int, int]:
    """s(n,t) * sum_{i=1}^{n} (-1)**(i-1) C(n,i) i**(t-1)  ==  0, for t >= 2."""
    if n < 1:
        raise ValueError(f"check_eq41: n must be >= 1, got {n}")
    if t < 2:
        raise ValueError(f"check_eq41: t must be >= 2, got {t}")
    value = _s(n, t) * sum(
        (-1) ** (i - 1) * comb(n, i) * i ** (t - 1) for i in range(1, n + 1)
    )
    return value, 0

