"""Exact integer and rational scalar primitives.

Every quantity in this package is exact: plain ``int`` (arbitrary precision)
for integers and ``fractions.Fraction`` for rationals.  ``Fraction`` already
guarantees the normal form the rest of the library relies on -- reduced to
lowest terms, positive denominator, zero stored as 0/1 -- so value equality
is structural equality, and ``str`` writes every scalar in the serialized
form: ``n`` for an int or a Fraction with denominator 1, ``n/d`` otherwise.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Any, Iterable


class DomainError(ValueError):
    """Input outside a documented domain: the caller's error, not compident's.

    The CLI reports it as a usage error (exit 2), as it does the unknown-id and
    enumeration-budget errors; any other exception that reaches it, a
    ``ValueError``, ``ZeroDivisionError`` or ``ArithmeticError`` alike, is a
    fault in compident (exit 3).
    """


def binomial(m: int, k: int) -> int:
    """Binomial coefficient C(m, k), generalized to any integer top.

    Defined as falling_factorial(m, k) / k!, which is an integer for every
    integer ``m``.  Total by design: ``k < 0`` returns 0, so summations over
    shifted indices need no boundary guards.  For a negative top,
    C(-n, k) == (-1)**k * C(n + k - 1, k).
    """
    if k < 0:
        return 0
    if m >= 0:
        return comb(m, k)
    value = comb(k - m - 1, k)
    return -value if k % 2 else value


def multichoose(n: int, k: int) -> int:
    """Number of k-multisets drawn from n items: C(n + k - 1, k)."""
    if k < 0:
        raise ValueError(f"multichoose: k must be >= 0, got {k}")
    return binomial(n + k - 1, k)


def falling_factorial(x: Any, k: int) -> Any:
    """Falling factorial x * (x - 1) * ... * (x - k + 1).

    The empty product (k == 0) is the int 1; otherwise the product starts at
    the first factor x.  Exact in any ring whose elements support ``x - i``
    and ``*``: int and Fraction points, and a ``poly.Polynomial`` x, which
    yields the expanded polynomial by generic Polynomial products.  The
    package itself routes polynomials through ``poly.poly_falling_factorial``
    and ``poly.poly_binomial``, which expand a linear x by int-list passes and
    fall back to this loop for any other x.
    """
    if k < 0:
        raise ValueError(f"falling_factorial: k must be >= 0, got {k}")
    if k == 0:
        return 1
    result = x
    for i in range(1, k):
        result = result * (x - i)
    return result


def fraction_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of the int pairs (num, den) as one reduced Fraction.

    Each pair is reduced by one gcd, which keeps the common denominator small
    where a den cancels mostly into its own num; the numerators are added as
    ints over the lcm of the reduced dens, and the total is reduced once.
    """
    total, common = 0, 1
    for num, den in terms:
        g = gcd(num, den)
        num, den = num // g, den // g
        g = gcd(common, den)
        total = total * (den // g) + num * (common // g)
        common *= den // g
    return Fraction(total, common)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact Fraction.

    Malformed text raises ``DomainError``: this parses user input."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc
