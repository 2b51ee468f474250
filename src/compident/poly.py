"""Dense exact univariate polynomials and reduced rational functions.

Coefficients live in the rational field (``fractions.Fraction``).  A
polynomial is a coefficient tuple, lowest degree first, with no trailing
zeros; the zero polynomial is the empty tuple and its degree is the -inf
sentinel.  Rational functions keep gcd(num, den) == 1 with a monic
denominator, so equality is structural for them too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd as int_gcd, inf, lcm
from typing import Any, Iterable, Iterator

from .exact_arith import Scalar, format_scalar


def _coerce_coeff(value: Any) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Polynomial:
    """Immutable dense univariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        items = [_coerce_coeff(c) for c in coeffs]
        while items and not items[-1]:
            items.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(items)

    @classmethod
    def constant(cls, value: int | Fraction) -> "Polynomial":
        return cls((value,))

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -inf

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x**power (0 outside the stored range)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    @staticmethod
    def _coerce(other: Any) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return None

    def __eq__(self, other: Any) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.coeffs == rhs.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self.coeffs, rhs.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = list(self.coeffs) + [Fraction(0)] * max(0, len(rhs.coeffs) - len(self.coeffs))
        for i, c in enumerate(rhs.coeffs):
            out[i] -= c
        return Polynomial(out)

    def __rsub__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self.coeffs or not rhs.coeffs:
            return Polynomial()
        if len(rhs.coeffs) == 1:
            scale = rhs.coeffs[0]
            return Polynomial(tuple(c * scale for c in self.coeffs))
        if len(self.coeffs) == 1:
            scale = self.coeffs[0]
            return Polynomial(tuple(c * scale for c in rhs.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(rhs.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(rhs.coeffs):
                if b:
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, scalar: int | Fraction) -> "Polynomial":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        inv = Fraction(1, 1) / scalar
        return Polynomial(tuple(c * inv for c in self.coeffs))

    def __divmod__(self, other: Any) -> "tuple[Polynomial, Polynomial]":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dd = len(rhs.coeffs) - 1
        if len(self.coeffs) - 1 < dd:
            return Polynomial(), self
        rem = list(self.coeffs)
        lead = rhs.coeffs[-1]
        quot = [Fraction(0)] * (len(rem) - dd)
        for shift in range(len(quot) - 1, -1, -1):
            c = rem[dd + shift]
            if c:
                q = c / lead
                quot[shift] = q
                for i, dc in enumerate(rhs.coeffs):
                    rem[shift + i] -= q * dc
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: Any) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: Any) -> "Polynomial":
        return divmod(self, other)[1]

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate exactly at an integer or rational point (Horner)."""
        result: Scalar = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def shifted(self, offset: int | Fraction) -> "Polynomial":
        """Argument translation: the polynomial of x + offset."""
        off = _coerce_coeff(offset)
        result: list[Fraction] = []
        for c in reversed(self.coeffs):
            nxt = [Fraction(0)] * (len(result) + 1)
            for i, rc in enumerate(result):
                nxt[i + 1] += rc
                nxt[i] += rc * off
            nxt[0] += c
            result = nxt
        return Polynomial(result)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self / lead

    def __repr__(self) -> str:
        return f"Polynomial({[format_scalar(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for power, c in enumerate(self.coeffs):
            if not c:
                continue
            if power == 0:
                chunks.append(format_scalar(c))
            elif power == 1:
                chunks.append(f"{format_scalar(c)}*x")
            else:
                chunks.append(f"{format_scalar(c)}*x^{power}")
        return " + ".join(chunks)


_ONE = Polynomial((1,))


class InexactDivisionError(ValueError):
    """exact_div met a remainder: a fault in the caller, not in user input."""


def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Polynomial quotient a / b when the division is exact."""
    q, r = divmod(a, b)
    if not r.is_zero:
        raise InexactDivisionError("inexact polynomial division")
    return q


def _integer_coeffs(p: Polynomial) -> list[int]:
    scale = 1
    for c in p.coeffs:
        scale = lcm(scale, c.denominator)
    return [int(c * scale) for c in p.coeffs]


def _primitive(values: list[int]) -> list[int]:
    while values and values[-1] == 0:
        values.pop()
    if not values:
        return values
    g = 0
    for c in values:
        g = int_gcd(g, c)
    if values[-1] < 0:
        g = -g
    return [c // g for c in values]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # Remainder of a by b up to a scalar multiple (fine: gcd use only).
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            return r
        lead = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lead * bc


@lru_cache(maxsize=8192)
def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals.

    Internally clears denominators and runs a primitive-remainder Euclidean
    sequence on integer coefficients, which keeps intermediate growth tame.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    u = _primitive(_integer_coeffs(a))
    v = _primitive(_integer_coeffs(b))
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _primitive(_pseudo_rem(u, v))
    return Polynomial(u).monic()


def falling_factorial_poly(k: int) -> Polynomial:
    """The expanded product x (x - 1) ... (x - k + 1); requires k >= 1."""
    if k < 1:
        raise ValueError(f"falling_factorial_poly: k must be >= 1, got {k}")
    result = Polynomial((0, 1))
    for j in range(1, k):
        result = result * Polynomial((-j, 1))
    return result


def poly_binomial(p: Polynomial, k: int) -> Polynomial:
    """C(p(x), k) expanded as a polynomial: p (p - 1) ... (p - k + 1) / k!."""
    if k < 0:
        raise ValueError(f"poly_binomial: k must be >= 0, got {k}")
    result = _ONE
    for j in range(k):
        result = result * (p - j)
    return result / factorial(k)


def finite_difference(p: Polynomial, m: int) -> Polynomial:
    """m-fold forward difference: sum_{j=0}^{m} (-1)**(m-j) C(m,j) p(x+j).

    Drops the degree by m; in particular it annihilates every polynomial of
    degree < m.
    """
    if m < 0:
        raise ValueError(f"finite_difference: m must be >= 0, got {m}")
    total = Polynomial()
    for j in range(m + 1):
        term = p.shifted(j) * comb(m, j)
        total = total + term if (m - j) % 2 == 0 else total - term
    return total


class RationalFunction:
    """Quotient of polynomials with gcd(num, den) == 1 and a monic den."""

    __slots__ = ("num", "den")

    def __init__(self, num: Any = 0, den: Any = 1):
        num_p = self._as_poly(num)
        den_p = self._as_poly(den)
        if num_p is None or den_p is None:
            raise TypeError("rational function parts must be polynomials or scalars")
        if den_p.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num_p.is_zero:
            self.num, self.den = Polynomial(), _ONE
            return
        g = poly_gcd(num_p, den_p)
        if g.degree > 0:
            num_p = exact_div(num_p, g)
            den_p = exact_div(den_p, g)
        lead = den_p.leading_coefficient
        if lead != 1:
            num_p = num_p / lead
            den_p = den_p / lead
        self.num, self.den = num_p, den_p

    @staticmethod
    def _as_poly(value: Any) -> Polynomial | None:
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial((value,))
        return None

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        # Caller guarantees gcd(num, den) == 1 and den != 0.
        obj = cls.__new__(cls)
        if num.is_zero:
            obj.num, obj.den = Polynomial(), _ONE
            return obj
        lead = den.leading_coefficient
        if lead != 1:
            num = num / lead
            den = den / lead
        obj.num, obj.den = num, den
        return obj

    @classmethod
    def _coerce(cls, other: Any) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        as_poly = cls._as_poly(other)
        if as_poly is None:
            return None
        return cls._reduced(as_poly, _ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: Any) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.num == rhs.num and self.den == rhs.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: Any) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.num.is_zero:
            return rhs
        if rhs.num.is_zero:
            return self
        b, d = self.den, rhs.den
        g = poly_gcd(b, d)
        if g.degree <= 0:
            return self._reduced(self.num * d + rhs.num * b, b * d)
        b_red = exact_div(b, g)
        d_red = exact_div(d, g)
        num = self.num * d_red + rhs.num * b_red
        if num.is_zero:
            return self._reduced(num, _ONE)
        den = b * d_red
        # Any common factor of num and den divides g.
        g2 = poly_gcd(num, g)
        if g2.degree > 0:
            num = exact_div(num, g2)
            den = exact_div(den, g2)
        return self._reduced(num, den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return self._reduced(-self.num, self.den)

    def __sub__(self, other: Any) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: Any) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: Any) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.num.is_zero or rhs.num.is_zero:
            return self._reduced(Polynomial(), _ONE)
        g1 = poly_gcd(self.num, rhs.den)
        g2 = poly_gcd(rhs.num, self.den)
        num_l = exact_div(self.num, g1) if g1.degree > 0 else self.num
        den_r = exact_div(rhs.den, g1) if g1.degree > 0 else rhs.den
        num_r = exact_div(rhs.num, g2) if g2.degree > 0 else rhs.num
        den_l = exact_div(self.den, g2) if g2.degree > 0 else self.den
        return self._reduced(num_l * num_r, den_l * den_r)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.num.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self * self._reduced(rhs.den, rhs.num)

    def __rtruediv__(self, other: Any) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        if exponent < 0:
            return (1 / self) ** (-exponent)
        result = self._reduced(_ONE, _ONE)
        for _ in range(exponent):
            result = result * self
        return result

    def to_json(self) -> dict[str, list[str]]:
        return {"num": poly_to_json(self.num), "den": poly_to_json(self.den)}

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def poly_to_json(p: Polynomial) -> list[str]:
    """Coefficient strings, lowest degree first."""
    return [format_scalar(c) for c in p.coeffs]


def poly_from_json(items: Iterable[str]) -> Polynomial:
    return Polynomial(tuple(Fraction(s) for s in items))


def ratfun_from_json(data: dict[str, list[str]]) -> RationalFunction:
    return RationalFunction(poly_from_json(data["num"]), poly_from_json(data["den"]))
