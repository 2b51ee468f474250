"""Dense exact univariate polynomials and reduced rational functions.

A polynomial over the rationals is stored as integer numerators over one
common denominator, as FLINT's ``fmpq_poly`` does: ``_num`` is a tuple of
ints, lowest degree first, with no trailing zero, and ``_den`` is an int
> 0 with gcd(_den, *_num) == 1.  The zero polynomial is ``((), 1)`` and its
degree is the -inf sentinel.  The normal form is unique, so equality and
hashing are structural, and sums, products, scalar division and division
with remainder run on Python ints.  ``coeffs`` is the read-only
``fractions.Fraction`` view; iteration, ``coefficient`` and serialization
also speak Fractions.  Rational functions keep gcd(num, den) == 1 with a
monic denominator, so equality is structural for them too.

``poly_falling_factorial`` expands a linear p from a row of k + 1 ints,
built by one int-list pass per factor p - i, and one normalisation at the
end; any other p goes through the generic ``exact_arith.falling_factorial``
loop of Polynomial products.  ``poly_binomial`` is that product over k!.
``falling_sum`` builds one row per run of consecutive offsets c, slides
the rest of the run from their neighbours, adds the rows of its raw terms
w (u x + c)_k scaled into one int row and normalises the sum once.

``packed_transform`` runs the composition transform, every prefix of it,
on plain ints at q = 2**w (Kronecker substitution): with unit weights for
Polynomial terms, and with q-binomial ones for the numerators of
symfun.QGraded terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import comb, factorial, gcd as int_gcd, inf, lcm
from typing import Any, Callable, Iterable, Iterator, Sequence

from .compositions import graded_scale
from .exact_arith import falling_factorial


def _coerce_coeff(value: Any) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _normal_form(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) with no trailing zero and gcd(den, *num) == 1; den > 0."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    if den != 1:
        g = int_gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return tuple(num), den


def _make(num: list[int], den: int) -> "Polynomial":
    """The polynomial num / den, skipping the coefficient checks of __init__."""
    obj = object.__new__(Polynomial)
    obj._num, obj._den = _normal_form(num, den)
    return obj


class Polynomial:
    """Immutable dense univariate polynomial over the rationals."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        items = list(coeffs)
        if all(type(c) is int for c in items):
            num, den = items, 1
        else:
            fracs = [_coerce_coeff(c) for c in items]
            den = lcm(*(c.denominator for c in fracs)) if fracs else 1
            num = [c.numerator * (den // c.denominator) for c in fracs]
        self._num, self._den = _normal_form(num, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self._num) - 1 if self._num else -inf

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x**power (0 outside the stored range)."""
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    @staticmethod
    def _coerce(other: Any) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return _make([other.numerator], other.denominator)
        return None

    def __eq__(self, other: Any) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._num == rhs._num and self._den == rhs._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def _plus(self, rhs: "Polynomial", sign: int) -> "Polynomial":
        # self + sign * rhs over the least common denominator
        da, db = self._den, rhs._den
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        a, b = self._num, rhs._num
        out = [c * sa for c in a] if sa != 1 else list(a)
        if len(out) < len(b):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] += c * sb
        return _make(out, den)

    def __add__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, 1)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, -1)

    def __rsub__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> "Polynomial":
        return _make([-c for c in self._num], self._den)

    def __mul__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._num, rhs._num
        if not a or not b:
            return Polynomial()
        if len(b) == 1:
            scale = b[0]
            out = [c * scale for c in a]
        elif len(a) == 1:
            scale = a[0]
            out = [c * scale for c in b]
        else:
            if len(a) > len(b):
                a, b = b, a  # the shorter factor drives the outer loop
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
        return _make(out, self._den * rhs._den)

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
        top, bottom = scalar.numerator, scalar.denominator
        if top < 0:
            top, bottom = -top, -bottom
        return _make([c * bottom for c in self._num], self._den * top)

    def __divmod__(self, other: Any) -> "tuple[Polynomial, Polynomial]":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = rhs._num
        dd = len(b) - 1
        if len(self._num) - 1 < dd:
            return Polynomial(), self
        # scale * self._num == quot * b + rem, over the integers
        rem = list(self._num)
        lead = b[-1]
        quot = [0] * (len(rem) - dd)
        scale = 1
        for shift in range(len(quot) - 1, -1, -1):
            c = rem[dd + shift]
            if c:
                if c % lead:
                    f = abs(lead) // int_gcd(c, lead)
                    rem = [x * f for x in rem]
                    quot = [x * f for x in quot]
                    scale *= f
                    c *= f
                q = c // lead
                quot[shift] = q
                for i, y in enumerate(b, shift):
                    rem[i] -= q * y
        den = self._den * scale
        return _make([x * rhs._den for x in quot], den), _make(rem, den)

    def __floordiv__(self, other: Any) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: Any) -> "Polynomial":
        return divmod(self, other)[1]

    def __call__(self, x: Any) -> Any:
        """Evaluate exactly at an integer, rational or polynomial x: Horner on
        the integer numerators, then one division by the denominator.  A
        scalar x gives a Fraction; the zero polynomial gives the int 0."""
        if not self._num:
            return 0
        result: Any = 0
        for c in reversed(self._num):
            result = result * x + c
        return Fraction(result, self._den) if isinstance(result, int) else result / self._den

    def shifted(self, offset: int | Fraction) -> "Polynomial":
        """Argument translation: this polynomial evaluated at x + offset."""
        if not self._num:
            return self  # Horner's empty sum would be the int 0
        return self(Polynomial((offset, 1)))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self._num[-1]
        if lead == self._den:
            return self
        if lead < 0:
            return _make([-c for c in self._num], -lead)
        return _make(list(self._num), lead)

    @staticmethod
    def transform_prefix(values: Sequence["Polynomial"]) -> list["Polynomial"]:
        """T(1)..T(k) of the terms v_1..v_k: ``packed_transform`` at unit weights."""
        return packed_transform(values, lambda m, i, size: 1)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        chunks = []
        for power, c in enumerate(self.coeffs):
            if not c:
                continue
            if power == 0:
                chunks.append(str(c))
            elif power == 1:
                chunks.append(f"{c}*x")
            else:
                chunks.append(f"{c}*x^{power}")
        return " + ".join(chunks)


_ONE = Polynomial((1,))


class InexactDivisionError(ValueError):
    """An exact division met a remainder: a fault in compident, not in user input."""


def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Polynomial quotient a / b when the division is exact."""
    q, r = divmod(a, b)
    if not r.is_zero:
        raise InexactDivisionError("inexact polynomial division")
    return q


def divide_out(p: Polynomial, factor: Polynomial, times: int) -> tuple[Polynomial, int]:
    """(p / factor**j, j) for the largest j <= times at which the division is
    exact: p itself when j == 0, and the zero polynomial divides ``times``
    times.  One divmod per trial, stopping at the first nonzero remainder.
    """
    if p.is_zero:
        return p, times
    j = 0
    while j < times:
        q, r = divmod(p, factor)
        if not r.is_zero:
            break
        p, j = q, j + 1
    return p, j


def packed_transform(nums: Sequence[Polynomial],
                     weight: Callable[[int, int, int], int]) -> list[Polynomial]:
    """U(m) / s**m for m = 1..k, where U(0) = 1 and
    U(m) = sum (-1)**(i-1) b_i g(m, i) U(m-i): T(1)..T(k) of the terms nums
    when every weight g(m, i) is 1.

    The b_i = nums[i-1] s**i are int rows (s from ``graded_scale``), and
    each g(m, i) is an int row >= 0 that weight(m, i, size) gives at
    q = 2**(8 size): at size 0, q = 1, that is its l1 norm.  Each b_i is
    evaluated once at X = 2**(8 size), the recurrence runs on ints, and
    each U(m) is unpacked once into its balanced base-X digits.  Those are
    exact: U(m)'s coefficients are at most L(m), L(0) = 1 and
    L(m) = sum l1(b_i) l1(g(m, i)) L(m-i), and X/2 > max L(m).
    """
    k = len(nums)
    scale = graded_scale(p._den for p in nums)
    rows = [[c * (scale**i // p._den) for c in p._num] for i, p in enumerate(nums, 1)]
    norms = [sum(map(abs, row)) for row in rows]
    heights = [[weight(m, i, 0) for i in range(1, m + 1)] for m in range(k + 1)]
    bounds = [1]
    for m in range(1, k + 1):
        bounds.append(sum(n * h * b for n, h, b in zip(norms, heights[m], reversed(bounds))))
    # X/2 also exceeds every coefficient packed
    size = (max(*bounds, *norms, *chain.from_iterable(heights)).bit_length() + 8) // 8
    # (-1)**(i-1) b_i at X, packed once: each coefficient biased by X/2 into [0, X)
    half = 1 << (8 * size - 1)
    signed = [_pack([(c if i % 2 else -c) + half for c in row], size) - _bias(size, len(row))
              for i, row in enumerate(rows, 1)]
    us = [1]
    for m in range(1, k + 1):
        us.append(sum(b * weight(m, i, size) * u
                      for i, (b, u) in enumerate(zip(signed, reversed(us)), 1)))
    return [_make(_unpack(u, size), scale**m) for m, u in enumerate(us[1:], 1)]


def _pack(row: Sequence[int], size: int) -> int:
    """The row at X = 2**(8 size), every coefficient in [0, X): one bytes join."""
    return int.from_bytes(b"".join(map(int.to_bytes, row, repeat(size), repeat("little"))),
                          "little")


def _bias(size: int, length: int) -> int:
    """X/2 in each of length base-X digits, X = 2**(8 size): a row of
    coefficients in (-X/2, X/2) packs as _pack of the row plus X/2 minus it."""
    return int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * length, "little")


def _unpack(value: int, size: int) -> list[int]:
    """The balanced base-X digits of value, X = 2**(8 size), each of size
    below X/2: all read from one to_bytes of value biased by X/2 in every
    digit.  With D the top nonzero digit, X**D / 3 < |value| < X**(D+1), so
    the length read from 2 |value| is D + 1 or D + 2."""
    length = (2 * abs(value)).bit_length() // (8 * size) + 1
    half = 1 << (8 * size - 1)
    raw = (value + _bias(size, length)).to_bytes(size * length, "little")
    return [int.from_bytes(raw[j:j + size], "little") - half for j in range(0, len(raw), size)]


def _primitive(values: list[int]) -> list[int]:
    while values and values[-1] == 0:
        values.pop()
    if not values:
        return values
    g = int_gcd(*values)
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

    Runs a primitive-remainder Euclidean sequence on the integer numerators
    (the common denominator does not change the gcd), which keeps
    intermediate growth tame.

    No command calls it: the q-pairs reduce by cyclotomic trial division
    (``symfun.QGraded.reduced``).  The cache serves the RationalFunction
    reference routes of the tests, which meet the same denominators again
    and again (30,404 of 34,969 lookups hit in one run of the test suite).
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    u = _primitive(list(a._num))
    v = _primitive(list(b._num))
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _primitive(_pseudo_rem(u, v))
    return Polynomial(u).monic()


def _built_row(c: int, d: int, k: int) -> list[int]:
    """Coefficients of prod_{i<k} (y + c - i d) in y, lowest degree first:
    one int-list pass per factor y + c - i d."""
    out = [1]
    for i in range(k):
        v = c - i * d
        # coefficient t of (y + v) * out is v * out[t] + out[t - 1]
        nxt, below = [], 0
        for a in out:
            nxt.append(v * a + below)
            below = a
        nxt.append(below)
        out = nxt
    return out


def _slid_row(above: list[int], c: int, k: int) -> list[int]:
    """The (c, 1, k) row, k >= 1, as row(c + 1) (y + b) / (y + a) with
    a = c + 1 and b = c - k + 1: synthetic division from the top,
    q_{t-1} = p_t - a q_t, fused with the product, b q_t + q_{t-1}.  A
    remainder p_0 - a q_0 raises InexactDivisionError."""
    a, b = c + 1, c - k + 1
    out = [0] * (k + 1)
    q = 0
    for t in range(k, 0, -1):
        below = above[t] - a * q
        out[t] = b * q + below
        q = below
    if above[0] != a * q:
        raise InexactDivisionError(f"inexact slide from the ({a}, 1, {k}) row")
    out[0] = b * q
    return out


def _linear_falling(p: Polynomial, k: int) -> Polynomial:
    """p (p - 1) ... (p - k + 1) for a degree-1 p and k >= 1.

    With p = (u x + c) / d the product is prod_i (y + c - i d) / d**k in
    y = u x: the row ``_built_row(c, d, k)``, then coefficient t times u**t.
    """
    (c, u), d = p._num, p._den
    out = _built_row(c, d, k)
    power = 1
    for t in range(1, len(out)):
        power *= u
        out[t] *= power
    return _make(out, d**k)


def poly_falling_factorial(p: Polynomial, k: int) -> Polynomial:
    """The expanded product p (p - 1) ... (p - k + 1); the constant 1 at k == 0.

    A linear p takes the int-list pass of ``_linear_falling``; any other p
    goes through ``exact_arith.falling_factorial``, which the tests keep as
    the independent reference.
    """
    if k < 0:
        raise ValueError(f"poly_falling_factorial: k must be >= 0, got {k}")
    if k == 0:
        return _ONE
    if len(p._num) == 2:
        return _linear_falling(p, k)
    return falling_factorial(p, k)


def poly_binomial(p: Polynomial, k: int) -> Polynomial:
    """C(p(x), k) expanded as a polynomial: ``poly_falling_factorial(p, k)``
    over k!; C(p, 0) is the constant polynomial 1."""
    if k < 0:
        raise ValueError(f"poly_binomial: k must be >= 0, got {k}")
    return poly_falling_factorial(p, k) / factorial(k)


def falling_sum(terms: Iterable[tuple[int, int, int]], k: int, over: int) -> Polynomial:
    """sum_{(w, u, c) in terms} w (u x + c)_k / over, for k >= 0.

    The distinct c are walked from the largest down: a row whose c + 1 came
    just before it is slid from that row, any other is built.  Each term's
    row is added into one int row with coefficient t scaled by w u**t, and
    the sum is normalised once.
    """
    by_c: dict[int, list[tuple[int, int]]] = {}
    for w, u, c in terms:
        by_c.setdefault(c, []).append((w, u))
    out = [0] * (k + 1)
    row: list[int] = []
    row_c: int | None = None
    for c in sorted(by_c, reverse=True):
        row = _slid_row(row, c, k) if k and row_c == c + 1 else _built_row(c, 1, k)
        row_c = c
        for w, u in by_c[c]:
            scale = w
            for t, a in enumerate(row):
                out[t] += a * scale
                scale *= u
    return _make(out, over)


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
        num_p = Polynomial._coerce(num)
        den_p = Polynomial._coerce(den)
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
        as_poly = Polynomial._coerce(other)
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
        """Sum; a reference route: no package code has called the ring
        operations since the q-pairs run on symfun.QGraded, and the tests
        check the graded route against them."""
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
        """Difference; a reference route for the tests (see __add__)."""
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
        """Product, by its definition; a reference route for the tests (see __add__)."""
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalFunction(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "RationalFunction":
        """Quotient; a reference route for the tests (see __add__)."""
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
        """Integer power; a reference route for the tests (see __add__)."""
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
    """Coefficient strings, lowest degree first: str of each Fraction
    coefficient, c / den reduced by one gcd."""
    den = p._den
    if den == 1:
        return [str(c) for c in p._num]
    out = []
    for c in p._num:
        g = int_gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out
