"""Elementary <-> complete symmetric-function conversion and pair catalog.

Three independent routes turn a prefix e_1..e_k into h_k (and back): the
Toeplitz determinant with unit subdiagonal (h_from_e_det), the convolution
h_m = sum_{i=1}^{m} (-1)**(i-1) e_i h_{m-i} (h_from_e_conv, the recurrence
that also computes the composition transform), and the enumeration of all
2**(k-1) compositions (compositions.inner_sum_positive).  They share no code,
so each can validate the others.

The catalog binds six closed-form (e, h) sequence pairs:

    binomial    e_k = C(n,k)                    h_k = C(n+k-1,k)
    tree        e_k = a(a-k)**(k-1)/k!          h_k = a(a+k)**(k-1)/k!
    bernoulli   e_k = (-1)**k a**k B_k/k!       h_k = a**k/(k+1)!
    q_binomial  e_k = q^(k(k-1)/2) qbin(n,k)    h_k = qbin(n+k-1,k)
    q_exp       e_k = q^(k(k-1)/2)/phi_k(q)     h_k = 1/phi_k(q)
    q_cauchy    e_k = prod (a-b q^(i-1))/(1-q^i)   h_k = prod (a q^(i-1)-b)/(1-q^i)

with q always symbolic and B_k the Bernoulli numbers in the B_1 = -1/2
convention (the bernoulli pair forces it: e_1 must equal h_1 = a/2).
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction
from math import comb, factorial
from typing import Any, Mapping, Sequence

from .compositions import transform_prefix
from .exact_arith import binomial, multichoose
from .poly import Polynomial, RationalFunction, exact_div

DEFAULT_SEED = 1729

PAIR_IDS = ("binomial", "tree", "bernoulli", "q_binomial", "q_exp", "q_cauchy")

PAIR_RINGS = {
    "binomial": "integer",
    "tree": "rational",
    "bernoulli": "rational",
    "q_binomial": "polynomial_q",
    "q_exp": "rational_function_q",
    "q_cauchy": "rational_function_q",
}


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
    """h_k as the k x k Toeplitz determinant in e_1..e_k (field entries)."""
    if not e_terms:
        raise ValueError("h_from_e_det: need at least e_1")
    return _field_determinant(_unit_subdiagonal_toeplitz(e_terms))


def e_from_h_det(h_terms: Sequence[Any]) -> Any:
    """e_k as the dual Toeplitz determinant in h_1..h_k."""
    if not h_terms:
        raise ValueError("e_from_h_det: need at least h_1")
    return _field_determinant(_unit_subdiagonal_toeplitz(h_terms))


def h_from_e_conv(e_terms: Sequence[Any]) -> list[Any]:
    """The whole prefix h_1..h_k via h_m = sum (-1)**(i-1) e_i h_{m-i}.

    Needs only ring operations, so it also works for polynomial entries.
    """
    if not e_terms:
        raise ValueError("h_from_e_conv: need at least e_1")
    return transform_prefix(e_terms)


_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2, from the recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0 seeded with B_0 = 1."""
    if m < 0:
        raise ValueError(f"bernoulli: m must be >= 0, got {m}")
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= m:
            n = len(_bernoulli_cache)
            acc = sum(comb(n + 1, j) * bj for j, bj in enumerate(_bernoulli_cache))
            _bernoulli_cache.append(Fraction(-acc, n + 1))
        return _bernoulli_cache[m]


def _one_minus_q_pow(m: int) -> Polynomial:
    return Polynomial([1] + [0] * (m - 1) + [-1])


def _q_pow(m: int) -> Polynomial:
    return Polynomial([0] * m + [1])


_phi_cache: list[Polynomial] = [Polynomial((1,))]
_phi_lock = threading.Lock()


def phi(k: int) -> Polynomial:
    """Finite product (1-q)(1-q^2)...(1-q^k); phi_0 = 1."""
    if k < 0:
        raise ValueError(f"phi: k must be >= 0, got {k}")
    with _phi_lock:
        while len(_phi_cache) <= k:
            j = len(_phi_cache)
            _phi_cache.append(_phi_cache[j - 1] * _one_minus_q_pow(j))
        return _phi_cache[k]


_gaussian_cache: dict[tuple[int, int], Polynomial] = {}
_gaussian_lock = threading.Lock()


def gaussian_binomial(n: int, k: int) -> Polynomial:
    """q-binomial coefficient as an exact polynomial in q.

    Computed by the exact-division product
    prod_{j=1}^{k} (1 - q**(n-k+j)) / (1 - q**j); every partial product is
    itself a q-binomial, so each division is exact.  Zero polynomial when
    k > n; degree k (n - k) otherwise.
    """
    if n < 0 or k < 0:
        raise ValueError(f"gaussian_binomial: need n, k >= 0, got n={n}, k={k}")
    if k > n:
        return Polynomial()
    key = (n, k)
    with _gaussian_lock:
        cached = _gaussian_cache.get(key)
        if cached is not None:
            return cached
        result = Polynomial((1,))
        for j in range(1, k + 1):
            result = exact_div(result * _one_minus_q_pow(n - k + j), _one_minus_q_pow(j))
        _gaussian_cache[key] = result
        return result


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
    if pair_id == "q_exp":
        e = [RationalFunction(_q_pow(i * (i - 1) // 2), phi(i)) for i in range(1, k + 1)]
        h = [RationalFunction(1, phi(i)) for i in range(1, k + 1)]
        return e, h
    if pair_id == "q_cauchy":
        a = Fraction(_require_param(params, "a", pair_id))
        b = Fraction(_require_param(params, "b", pair_id))
        e: list[Any] = []
        h: list[Any] = []
        e_run: Any = 1
        h_run: Any = 1
        for i in range(1, k + 1):
            # a - b q**(i-1) and a q**(i-1) - b collapse to constants at i = 1
            e_num = Polynomial((a - b,)) if i == 1 else Polynomial([a] + [0] * (i - 2) + [-b])
            h_num = Polynomial((a - b,)) if i == 1 else Polynomial([-b] + [0] * (i - 2) + [a])
            e_run = e_run * RationalFunction(e_num, _one_minus_q_pow(i))
            h_run = h_run * RationalFunction(h_num, _one_minus_q_pow(i))
            e.append(e_run)
            h.append(h_run)
        return e, h
    raise ValueError(f"unknown pair id {pair_id!r} (choose from {', '.join(PAIR_IDS)})")


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
