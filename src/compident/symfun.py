"""Elementary <-> complete symmetric-function conversion and pair catalog.

Three independent routes turn a prefix e_1..e_k into h_k, and each is its
own inverse: fed h_1..h_k, it gives e_k.  They are the Toeplitz determinant
with unit subdiagonal (h_from_e_det), the convolution
h_m = sum_{i=1}^{m} (-1)**(i-1) e_i h_{m-i} (h_from_e_conv, the recurrence
that also computes the composition transform), and the enumeration of all
2**(k-1) compositions (compositions.transform_by_enumeration).  They share no
code, so each can validate the others.  q-binomials are built on int
coefficient lists by one linear pass per factor (gaussian_binomial).

The catalog binds six closed-form (e, h) sequence pairs:

    binomial    e_k = C(n,k)                    h_k = C(n+k-1,k)
    tree        e_k = a(a-k)**(k-1)/k!          h_k = a(a+k)**(k-1)/k!
    bernoulli   e_k = (-1)**k a**k B_k/k!       h_k = a**k/(k+1)!
    q_binomial  e_k = q^(k(k-1)/2) qbin(n,k)    h_k = qbin(n+k-1,k)
    q_exp       e_k = q^(k(k-1)/2)/phi_k(q)     h_k = 1/phi_k(q)
    q_cauchy    e_k = prod (a-b q^(i-1))/(1-q^i)   h_k = prod (a q^(i-1)-b)/(1-q^i)

with q always symbolic and B_k the Bernoulli numbers in the B_1 = -1/2
convention (the bernoulli pair forces it: e_1 must equal h_1 = a/2).
pair_terms only builds the term lists; which pairs the identity catalog
verifies, and their rings, statements and sampled bindings, live in
identities' pair table.

The two q-pairs have every term of degree m over phi_m(q) = (1-q)...(1-q^m),
and q_exp is q_cauchy at (a, b) = (0, -1).  graded_pair_terms gives them as
QGraded elements: a numerator N over phi_m with m kept beside it.  As
phi_i phi_j qbinom(i+j, i) = phi_{i+j} (Andrews, The Theory of Partitions,
ch. 3), the product of (i, N) and (j, M) is (i+j, N M qbinom(i+j, i)), and
elements of one degree add and negate on their numerators.  Every summand
of the transform's T(m) has degree m, so the transform runs on QGraded
terms without a single gcd; reduced() gives the canonical RationalFunction
once, at the end.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from typing import Any, Mapping, NamedTuple, Sequence

from .compositions import transform_prefix
from .exact_arith import binomial, multichoose
from .poly import InexactDivisionError, Polynomial, RationalFunction

DEFAULT_SEED = 1729

PAIR_IDS = ("binomial", "tree", "bernoulli", "q_binomial", "q_exp", "q_cauchy")
GRADED_PAIR_IDS = ("q_exp", "q_cauchy")


def _unit_subdiagonal_toeplitz(seq: Sequence[Any]) -> list[list[Any]]:
    # Entry (i, j) is seq[j - i] (1-indexed offset), 1 on the subdiagonal,
    # 0 below it.
    k = len(seq)
    rows = []
    for i in range(k):
        row: list[Any] = []
        for j in range(k):
            offset = j - i + 1
            if offset >= 1:
                row.append(seq[offset - 1])
            elif offset == 0:
                row.append(1)
            else:
                row.append(0)
        rows.append(row)
    return rows


def _field_determinant(rows: list[list[Any]]) -> Any:
    """Exact Gaussian elimination with first-nonzero pivoting."""
    n = len(rows)
    m = [list(r) for r in rows]
    det: Any = 1
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return det * 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            entry = m[r][col]
            if entry == 0:
                continue
            factor = entry / pivot
            for c in range(col + 1, n):
                m[r][c] = m[r][c] - factor * m[col][c]
            m[r][col] = 0
    return det


def h_from_e_det(e_terms: Sequence[Any]) -> Any:
    """h_k as the k x k Toeplitz determinant in e_1..e_k (field entries).

    e and h play symmetric roles, so the same determinant in h_1..h_k
    gives e_k: one call maps e to h and h to e.
    """
    if not e_terms:
        raise ValueError("h_from_e_det: need at least e_1")
    return _field_determinant(_unit_subdiagonal_toeplitz(e_terms))


def h_from_e_conv(e_terms: Sequence[Any]) -> list[Any]:
    """The whole prefix h_1..h_k via h_m = sum (-1)**(i-1) e_i h_{m-i}.

    Needs only ring operations, so it also works for polynomial entries.
    """
    if not e_terms:
        raise ValueError("h_from_e_conv: need at least e_1")
    return transform_prefix(e_terms)


# The memo tuples below are never mutated: a call that needs more entries
# extends a private copy and rebinds the global, so a caller on another
# thread sees either the old tuple or the new one, both correct.
_bernoulli_cache: tuple[Fraction, ...] = (Fraction(1),)


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2, from the recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0 seeded with B_0 = 1."""
    global _bernoulli_cache
    if m < 0:
        raise ValueError(f"bernoulli: m must be >= 0, got {m}")
    values = _bernoulli_cache
    if len(values) <= m:
        grown = list(values)
        for n in range(len(grown), m + 1):
            acc = sum(comb(n + 1, j) * bj for j, bj in enumerate(grown))
            grown.append(Fraction(-acc, n + 1))
        values = _bernoulli_cache = tuple(grown)
    return values[m]


def _one_minus_q_pow(m: int) -> Polynomial:
    return Polynomial([1] + [0] * (m - 1) + [-1])


def _q_pow(m: int) -> Polynomial:
    return Polynomial([0] * m + [1])


_phi_cache: tuple[Polynomial, ...] = (Polynomial((1,)),)


def phi(k: int) -> Polynomial:
    """Finite product (1-q)(1-q^2)...(1-q^k); phi_0 = 1."""
    global _phi_cache
    if k < 0:
        raise ValueError(f"phi: k must be >= 0, got {k}")
    values = _phi_cache
    if len(values) <= k:
        grown = list(values)
        for j in range(len(grown), k + 1):
            grown.append(grown[j - 1] * _one_minus_q_pow(j))
        values = _phi_cache = tuple(grown)
    return values[k]


@lru_cache(maxsize=1024)
def gaussian_binomial(n: int, k: int) -> Polynomial:
    """q-binomial coefficient as an exact polynomial in q.

    Computed on an int coefficient list by the product
    prod_{j=1}^{k} (1 - q**(n-k+j)) / (1 - q**j): multiplying by (1 - q**m)
    is one subtract-shifted pass, and dividing by (1 - q**j) is one running
    sum along each residue class mod j.  Every partial product is itself a
    q-binomial, so each division is exact.  Zero polynomial when k > n;
    degree k (n - k) otherwise.  Results are cached, at most 1024 of them.
    """
    if n < 0 or k < 0:
        raise ValueError(f"gaussian_binomial: need n, k >= 0, got n={n}, k={k}")
    if k > n:
        return Polynomial()
    coeffs = [1]
    for j in range(1, k + 1):
        m = n - k + j
        coeffs = [a - b for a, b in zip(coeffs + [0] * m, [0] * m + coeffs)]
        for residue in range(j):
            coeffs[residue::j] = accumulate(coeffs[residue::j])
        if any(coeffs[-j:]):
            raise InexactDivisionError(f"gaussian_binomial({n}, {k}): inexact at j={j}")
        del coeffs[-j:]
    return Polynomial(coeffs)


def _require_param(params: Mapping[str, Any], name: str, pair_id: str) -> Any:
    if name not in params:
        raise ValueError(f"pair {pair_id!r} requires parameter {name!r}")
    return params[name]


def pair_terms(
    pair_id: str, params: Mapping[str, Any], k: int
) -> tuple[list[Any], list[Any]]:
    """Closed-form term lists (e_1..e_k, h_1..h_k) for a catalog pair."""
    if k < 1:
        raise ValueError(f"pair_terms: k must be >= 1, got {k}")
    if pair_id == "binomial":
        n = int(_require_param(params, "n", pair_id))
        if n < 0:
            raise ValueError(f"pair 'binomial': n must be >= 0, got {n}")
        e = [binomial(n, i) for i in range(1, k + 1)]
        h = [multichoose(n, i) for i in range(1, k + 1)]
        return e, h
    if pair_id == "tree":
        a = Fraction(_require_param(params, "a", pair_id))
        e = [a * (a - i) ** (i - 1) / factorial(i) for i in range(1, k + 1)]
        h = [a * (a + i) ** (i - 1) / factorial(i) for i in range(1, k + 1)]
        return e, h
    if pair_id == "bernoulli":
        a = Fraction(_require_param(params, "a", pair_id))
        e = [(-1) ** i * a ** i * bernoulli(i) / factorial(i) for i in range(1, k + 1)]
        h = [a ** i / factorial(i + 1) for i in range(1, k + 1)]
        return e, h
    if pair_id == "q_binomial":
        n = int(_require_param(params, "n", pair_id))
        if n < 0:
            raise ValueError(f"pair 'q_binomial': n must be >= 0, got {n}")
        e = [_q_pow(i * (i - 1) // 2) * gaussian_binomial(n, i) for i in range(1, k + 1)]
        h = [gaussian_binomial(n + i - 1, i) for i in range(1, k + 1)]
        return e, h
    if pair_id in GRADED_PAIR_IDS:
        e, h = graded_pair_terms(pair_id, params, k)
        return [term.reduced() for term in e], [term.reduced() for term in h]
    raise ValueError(f"unknown pair id {pair_id!r} (choose from {', '.join(PAIR_IDS)})")


class QGraded(NamedTuple):
    """N(q)/phi_m(q) with its degree m: ``num`` is N and ``degree`` is m.

    A product of degrees i and j has degree i + j and numerator
    N_i N_j qbinom(i+j, i); a sum needs equal degrees, and adding unequal
    ones raises ArithmeticError (a fault in the caller, not in its input).
    Tuple equality compares the numerators, which is value equality only
    between elements of the same degree.
    """

    degree: int
    num: Polynomial

    def __add__(self, other: "QGraded") -> "QGraded":
        if other.degree != self.degree:
            raise ArithmeticError(
                f"QGraded: cannot add degrees {self.degree} and {other.degree}"
            )
        return QGraded(self.degree, self.num + other.num)

    def __neg__(self) -> "QGraded":
        return QGraded(self.degree, -self.num)

    def __mul__(self, other: "QGraded") -> "QGraded":
        i, j = self.degree, other.degree
        return QGraded(i + j, self.num * other.num * gaussian_binomial(i + j, i))

    def reduced(self) -> RationalFunction:
        """num / phi_degree as a canonical (coprime, monic-denominator)
        RationalFunction; costs one gcd."""
        return RationalFunction(self.num, phi(self.degree))


def graded_pair_terms(
    pair_id: str, params: Mapping[str, Any], k: int
) -> tuple[list[QGraded], list[QGraded]]:
    """The q_exp or q_cauchy term lists (e_1..e_k, h_1..h_k) as QGraded
    elements: e_m and h_m are the running products of a - b q^(i-1) and
    a q^(i-1) - b over phi_m, with (a, b) = (0, -1) for q_exp."""
    if k < 1:
        raise ValueError(f"graded_pair_terms: k must be >= 1, got {k}")
    if pair_id == "q_exp":
        a, b = Fraction(0), Fraction(-1)
    elif pair_id == "q_cauchy":
        a = Fraction(_require_param(params, "a", pair_id))
        b = Fraction(_require_param(params, "b", pair_id))
    else:
        raise ValueError(f"graded_pair_terms: no graded terms for pair {pair_id!r} "
                         f"(choose from {', '.join(GRADED_PAIR_IDS)})")
    e_num = h_num = Polynomial((a - b,))  # both factors are a - b at i = 1
    e, h = [QGraded(1, e_num)], [QGraded(1, h_num)]
    for i in range(2, k + 1):
        e_num = e_num * Polynomial([a] + [0] * (i - 2) + [-b])
        h_num = h_num * Polynomial([-b] + [0] * (i - 2) + [a])
        e.append(QGraded(i, e_num))
        h.append(QGraded(i, h_num))
    return e, h


def seeded_rng(seed: int, *labels: Any) -> random.Random:
    """Deterministic RNG stream for a (seed, label...) combination."""
    key = ":".join([str(seed), *map(str, labels)])
    return random.Random(key)


def random_rational(rng: random.Random) -> Fraction:
    """Nonzero rational: numerator and denominator uniform on [1, 100],
    sign chosen at random."""
    num = rng.randint(1, 100)
    den = rng.randint(1, 100)
    sign = rng.choice((1, -1))
    return Fraction(sign * num, den)
