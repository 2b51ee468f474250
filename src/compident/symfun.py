"""Elementary <-> complete symmetric-function conversion and pair catalog.

Three routes turn a prefix e_1..e_k into h_k, and each is its own inverse:
fed h_1..h_k, it gives e_k.  Each forms every h_m, m <= k, on its way.
They are the convolution h_m = sum_{i=1}^{m} (-1)**(i-1) e_i h_{m-i}
(h_from_e_conv, which is compositions.transform_prefix, the composition
transform itself), the Toeplitz determinant with unit subdiagonal, whose
leading blocks give h_m (h_prefix_from_e_det), and the enumeration of all
2**(k-1) compositions of k (compositions.enumerated_prefix).  The
determinant and the enumeration share no code with the convolution or with
each other, so they are its independent checks.  The determinant runs on
ints as well, but not on the convolution's: the convolution scales e_i by
s**i (graded_scale) and sums products of h_{m-i}, while the determinant
scales every term by the one lcm L of their denominators, keeps L on its
subdiagonal, and eliminates fraction-free on one row of the matrix
(_hessenberg_det).
q-binomials are built on int coefficient lists by one linear pass per
factor (gaussian_binomial).

The catalog binds six closed-form (e, h) sequence pairs:

    binomial    e_k = C(n,k)                    h_k = C(n+k-1,k)
    tree        e_k = a(a-k)**(k-1)/k!          h_k = a(a+k)**(k-1)/k!
    bernoulli   e_k = (-1)**k a**k B_k/k!       h_k = a**k/(k+1)!
    q_binomial  e_k = q^(k(k-1)/2) qbin(n,k)    h_k = qbin(n+k-1,k)
    q_exp       e_k = q^(k(k-1)/2)/phi_k(q)     h_k = 1/phi_k(q)
    q_cauchy    e_k = prod (a-b q^(i-1))/(1-q^i)   h_k = prod (a q^(i-1)-b)/(1-q^i)

with q always symbolic and B_k the Bernoulli numbers in the B_1 = -1/2
convention (the bernoulli pair forces it: e_1 must equal h_1 = a/2).
pair_terms only builds the term lists; identities verifies all six, the
binomial pair as eq5 and eq42 and the others from its pair table, which
holds their rings, statements and sampled bindings.

The two q-pairs have every term of degree m over phi_m(q) = (1-q)...(1-q^m),
and q_exp is q_cauchy at (a, b) = (0, -1).  graded_pair_terms gives them as
QGraded elements: a numerator N over phi_m with m kept beside it, built as
an int row over D**m for a = A/D and b = B/D, one pass per factor.  As
phi_i phi_j qbinom(i+j, i) = phi_{i+j} (Andrews, The Theory of Partitions,
ch. 3), the product of (i, N) and (j, M) is (i+j, N M qbinom(i+j, i)), and
elements of one degree add and negate on their numerators.  Every summand
of the transform's T(m) has degree m, so the transform of QGraded terms is
a recurrence on the numerators, weighted by q-binomials, with no gcd.
QGraded.transform_prefix runs it on packed ints in
poly.packed_transform, the kernel pair3's Polynomial terms run with unit
weights.  (compositions.transform_prefix still multiplies QGraded and
Polynomial terms one by one, as the slow path the tests compare against.)  reduced() gives
the canonical RationalFunction once, at the end, without a gcd too:
phi_m = (-1)^m prod_{d<=m} Phi_d^(m // d) over the cyclotomic polynomials
Phi_d, which are monic and irreducible, so trial division of N by each
Phi_d leaves it coprime to what is left of the denominator.  A Phi_d is
tried only when it divides N mod q^d - 1, which a multiple of Phi_d must.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm
from typing import Any, Mapping, NamedTuple, Sequence

from .compositions import transform_prefix
from .exact_arith import binomial, multichoose
from .poly import (InexactDivisionError, Polynomial, RationalFunction, _make, _pack,
                   divide_out, exact_div, packed_transform)

DEFAULT_SEED = 1729

PAIR_IDS = ("binomial", "tree", "bernoulli", "q_binomial", "q_exp", "q_cauchy")
GRADED_PAIR_IDS = ("q_exp", "q_cauchy")


def _hessenberg_det(seq: Sequence[Any], one: Any) -> list[Any]:
    """[det_1, ..., det_k]: det_j of the leading j x j block of the k x k
    matrix with seq[j - i] at (i, j) for j >= i, one on the subdiagonal and
    0 below it, by fraction-free (Bareiss) elimination.

    The matrix is upper Hessenberg, so only the row just below the pivot p
    has an entry (one) in p's column.  Replacing that row, (one, seq...),
    by p times it minus one times the pivot row multiplies the determinant
    by p, and expanding along the cleared column takes the factor p out
    again: Bareiss's exact division cancels, and the state is one row.  It
    is an identity of polynomials in the entries, so it holds at p = 0 too.
    After j steps row[0] has read only seq[0..j], so it is det_(j+1).
    """
    row = seq
    dets = [row[0]]
    for _ in range(len(seq) - 1):
        pivot = row[0]
        below = row[1:] if one == 1 else [one * y for y in row[1:]]
        row = [pivot * x - y for x, y in zip(seq, below)]
        dets.append(row[0])
    return dets


def h_from_e_det(e_terms: Sequence[Any]) -> Any:
    """h_k as the k x k Toeplitz determinant in e_1..e_k, with 1 on the
    subdiagonal and 0 below it: the last entry of ``h_prefix_from_e_det``.

    e and h play symmetric roles, so the same determinant in h_1..h_k
    gives e_k: one call maps e to h and h to e.
    """
    return h_prefix_from_e_det(e_terms)[-1]


def h_prefix_from_e_det(e_terms: Sequence[Any]) -> list[Any]:
    """h_1..h_k as the determinants of the leading blocks of h_from_e_det's
    matrix.

    Fraction terms are scaled to ints by the lcm L of their denominators,
    with L on the subdiagonal, and h_m is the m-th determinant over L**m.
    Any other ring, ints included, is eliminated as it is, with no
    division: int terms give exact ints.
    """
    if not e_terms:
        raise ValueError("h_from_e_det: need at least e_1")
    if (any(isinstance(x, Fraction) for x in e_terms)
            and all(isinstance(x, (int, Fraction)) for x in e_terms)):
        one = lcm(*(x.denominator for x in e_terms))
        dets = _hessenberg_det([x.numerator * (one // x.denominator) for x in e_terms], one)
        return [Fraction(det, one**m) for m, det in enumerate(dets, 1)]
    return _hessenberg_det(e_terms, 1)


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


_cyclotomic_cache: tuple[Polynomial, ...] = ()  # Phi_1, Phi_2, ...


def cyclotomic(d: int) -> Polynomial:
    """The cyclotomic polynomial Phi_d(q), d >= 1: q^d - 1 divided exactly
    by Phi_e for every proper divisor e of d, as q^d - 1 = prod_{e|d} Phi_e
    (Lang, Algebra, VI §3).  Monic, with integer coefficients."""
    global _cyclotomic_cache
    if d < 1:
        raise ValueError(f"cyclotomic: d must be >= 1, got {d}")
    values = _cyclotomic_cache
    if len(values) < d:
        grown = list(values)
        for n in range(len(grown) + 1, d + 1):
            top = Polynomial([-1] + [0] * (n - 1) + [1])
            for e in range(1, n // 2 + 1):
                if n % e == 0:
                    top = exact_div(top, grown[e - 1])
            grown.append(top)
        values = _cyclotomic_cache = tuple(grown)
    return values[d - 1]


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
        # a = p/q: a (a -+ i)**(i-1) / i! = p (p -+ i q)**(i-1) / (q**i i!)
        p, q = Fraction(_require_param(params, "a", pair_id)).as_integer_ratio()
        e = [Fraction(p * (p - i * q) ** (i - 1), q**i * factorial(i)) for i in range(1, k + 1)]
        h = [Fraction(p * (p + i * q) ** (i - 1), q**i * factorial(i)) for i in range(1, k + 1)]
        return e, h
    if pair_id == "bernoulli":
        # a = p/q: (-1)**i a**i B_i / i! and a**i / (i+1)!, each over q**i
        p, q = Fraction(_require_param(params, "a", pair_id)).as_integer_ratio()
        e = [Fraction((-p) ** i * b.numerator, q**i * b.denominator * factorial(i))
             for i, b in enumerate(map(bernoulli, range(1, k + 1)), 1)]
        h = [Fraction(p**i, q**i * factorial(i + 1)) for i in range(1, k + 1)]
        return e, h
    if pair_id == "q_binomial":
        n = int(_require_param(params, "n", pair_id))
        if n < 0:
            raise ValueError(f"pair 'q_binomial': n must be >= 0, got {n}")
        # q^C(i, 2) qbinom(n, i) is qbinom(n, i)'s row shifted up by C(i, 2)
        qbinoms = [gaussian_binomial(n, i) for i in range(1, k + 1)]
        e = [_make([0] * comb(i, 2) + list(g._num), g._den) for i, g in enumerate(qbinoms, 1)]
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

    @staticmethod
    def transform_prefix(values: Sequence["QGraded"]) -> list["QGraded"]:
        """T(1)..T(k) of the terms v_i = (i, N_i), i = 1..k:
        ``packed_transform`` of the N_i with weights qbinom(m, i) gives
        num(T(m))."""
        for i, v in enumerate(values, 1):
            if v.degree != i:
                raise ArithmeticError(f"QGraded: term {i} of a transform has degree {v.degree}")
        nums = packed_transform([v.num for v in values], _qbinom_weight)
        return [QGraded(m, num) for m, num in enumerate(nums, 1)]

    def reduced(self) -> RationalFunction:
        """num / phi_degree as a canonical (coprime, monic-denominator)
        RationalFunction, with no gcd.

        phi_m = (-1)^m prod_{d<=m} Phi_d^(m // d), and each cyclotomic Phi_d
        is monic and irreducible over Q.  So num is divided exactly by each
        Phi_d until a remainder appears or m // d divisions are done, and
        phi_m by Phi_d as many times; what is left of num is coprime to
        what is left of phi_m.  A Phi_d that does not divide num's fold
        (``_fold_divisible``) is not tried at all.
        """
        m = self.degree
        num, den = self.num, phi(m)
        for d in range(1, m + 1):
            factor = cyclotomic(d)
            if not _fold_divisible(num, factor, d):
                continue
            num, times = divide_out(num, factor, m // d)
            for _ in range(times):
                den = exact_div(den, factor)
        return RationalFunction._reduced(num, den)


def _qbinom_weight(m: int, i: int, size: int) -> int:
    """qbinom(m, i) at q = 2**(8 size): at size 0, q = 1, that is C(m, i)."""
    return _pack(gaussian_binomial(m, i)._num, size) if size else comb(m, i)


def _fold_divisible(num: Polynomial, factor: Polynomial, d: int) -> bool:
    """Whether Phi_d (factor) divides num mod q^d - 1, the fold of num's
    coefficients summed by index mod d.  Phi_d divides q^d - 1, so False
    proves that Phi_d does not divide num."""
    rem = [sum(num._num[t::d]) for t in range(d)]
    low = factor._num[:-1]  # Phi_d is monic: its top power is -low
    while len(rem) > len(low):
        top = rem.pop()
        for j, c in enumerate(low, len(rem) - len(low)):
            rem[j] -= top * c
    return not any(rem)


def _times_factors(e_row: list[int], h_row: list[int], a: int, b: int,
                   shift: int) -> tuple[list[int], list[int]]:
    """(e_row (a - b q^shift), h_row (a q^shift - b)), one pass over each."""
    pad = [0] * shift
    e = [a * x - b * y for x, y in zip(e_row + pad, pad + e_row)]
    h = [a * y - b * x for x, y in zip(h_row + pad, pad + h_row)]
    return e, h


def graded_pair_terms(
    pair_id: str, params: Mapping[str, Any], k: int
) -> tuple[list[QGraded], list[QGraded]]:
    """The q_exp or q_cauchy term lists (e_1..e_k, h_1..h_k) as QGraded
    elements: e_m and h_m are the running products of a - b q^(i-1) and
    a q^(i-1) - b over phi_m, with (a, b) = (0, -1) for q_exp.  With
    a = A/D and b = B/D the products run on the int rows of A - B q^(i-1)
    and A q^(i-1) - B, one pass per factor, and the m-th is over D**m."""
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
    den = lcm(a.denominator, b.denominator)
    a_int, b_int = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    e_row = h_row = [1]
    e, h = [], []
    for i in range(1, k + 1):
        e_row, h_row = _times_factors(e_row, h_row, a_int, b_int, i - 1)
        e.append(QGraded(i, _make(list(e_row), den**i)))
        h.append(QGraded(i, _make(list(h_row), den**i)))
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
