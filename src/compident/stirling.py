"""Signed Stirling numbers of the first kind and checks built on them.

s(n, t) is the coefficient of x**t in x (x-1) ... (x-n+1), computed through
the triangle recurrence s(n, t) = s(n-1, t-1) - (n-1) s(n-1, t) with the
conventions s(0, 0) = 1 and s(0, t) = 0 for t >= 1 (so the recurrence
instantiates cleanly at n = 1) and s(n, t) = 0 outside 1 <= t <= n.

The rows live in one grow-only module tuple that gains exactly the rows a
caller asks for (the idiom of symfun.bernoulli and symfun.phi); the checks
read it directly and StirlingTable slices its rows from it, so the
recurrence is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any

from .poly import Polynomial, poly_falling_factorial


_rows: tuple[tuple[int, ...], ...] = ((1,),)


def _grown(n: int) -> tuple[tuple[int, ...], ...]:
    """The shared rows s(m, 0..m) for m = 0 .. at least n.

    Grows a private copy and rebinds the global, which is never mutated, so
    concurrent callers at worst repeat a row; each returns the tuple it read
    or built and never reads the global again.
    """
    global _rows
    rows = _rows
    if len(rows) <= n:
        grown = list(rows)
        for m in range(len(grown), n + 1):
            prev = grown[m - 1]
            # s(m, t) = s(m-1, t-1) - (m-1) s(m-1, t), with s(m-1, m) = 0
            grown.append(tuple(a - (m - 1) * b for a, b in zip((0, *prev), (*prev, 0))))
        rows = _rows = tuple(grown)
    return rows


class StirlingTable:
    """Triangular memo of s(n, t) for n <= n_max; immutable once built."""

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError(f"StirlingTable: n_max must be >= 0, got {n_max}")
        self._rows = _grown(n_max)[: n_max + 1]
        self.n_max = n_max

    def value(self, n: int, t: int) -> int:
        if n < 0:
            raise ValueError(f"StirlingTable.value: n must be >= 0, got {n}")
        if n > self.n_max:
            raise IndexError(f"StirlingTable built to n_max={self.n_max}, asked for n={n}")
        if t < 0 or t > n:
            return 0
        return self._rows[n][t]

    def row(self, n: int) -> tuple[int, ...]:
        """The values s(n, 1), ..., s(n, n) (what the CLI table emits)."""
        if n < 1 or n > self.n_max:
            raise ValueError(f"row index out of range: {n}")
        return self._rows[n][1:]


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


@dataclass(frozen=True)
class CheckResult:
    """Both exactly evaluated sides of one identity instance."""

    lhs: Any
    rhs: Any

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def __bool__(self) -> bool:
        return self.passed


def _require_t_range(k: int, t: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t < 1 or t > k:
        raise ValueError(f"t must satisfy 1 <= t <= k, got t={t}, k={k}")


def check_eq19(k: int, t: int) -> CheckResult:
    """sum_{j=t+1}^{k} C(j,t) s(k,j)  ==  k * s(k-1,t)."""
    _require_t_range(k, t)
    lhs = sum(comb(j, t) * _s(k, j) for j in range(t + 1, k + 1))
    rhs = k * _s(k - 1, t)
    return CheckResult(lhs, rhs)


def check_eq18(k: int, t: int) -> CheckResult:
    """sum_{j=t}^{k} C(j,t) s(k,j) (k-1)**(j-t)  ==  (-1)**(k+t) s(k,t).

    Uses 0**0 == 1 for the k = 1 diagonal term, which the identity itself
    forces (without it the k = 1 instance would fail).
    """
    _require_t_range(k, t)
    lhs = sum(comb(j, t) * _s(k, j) * (k - 1) ** (j - t) for j in range(t, k + 1))
    rhs = (-1) ** (k + t) * _s(k, t)
    return CheckResult(lhs, rhs)


def check_eq31(k: int, t: int) -> CheckResult:
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
    return CheckResult(lhs, rhs)


def check_eq41(n: int, t: int) -> CheckResult:
    """s(n,t) * sum_{i=1}^{n} (-1)**(i-1) C(n,i) i**(t-1)  ==  0, for t >= 2."""
    if n < 1:
        raise ValueError(f"check_eq41: n must be >= 1, got {n}")
    if t < 2:
        raise ValueError(f"check_eq41: t must be >= 2, got {t}")
    value = _s(n, t) * sum(
        (-1) ** (i - 1) * comb(n, i) * i ** (t - 1) for i in range(1, n + 1)
    )
    return CheckResult(value, 0)


def verify_generating_poly(n: int) -> CheckResult:
    """Coefficients of x (x-1) ... (x-n+1) against the s(n, .) table row."""
    if n < 1:
        raise ValueError(f"verify_generating_poly: n must be >= 1, got {n}")
    poly = poly_falling_factorial(Polynomial((0, 1)), n)
    lhs = tuple(poly.coefficient(j) for j in range(n + 1))
    rhs = tuple(Fraction(_s(n, j)) for j in range(n + 1))
    return CheckResult(lhs, rhs)
