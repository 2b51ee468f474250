"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single `ACCEPTANCE <n> (<label>): PASS` line (visible
with `pytest -s`); a failed assertion marks the criterion FAIL.  Time
bounds are asserted where the criterion states one.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from compident.compositions import (
    inner_sum_closed_binomial,
    inner_sum_closed_multichoose,
    inner_sum_positive,
)
from compident.exact_arith import binomial, multichoose
from compident.identities import verify_polynomial_in_n, verify_range
from compident.poly import Polynomial, finite_difference


class _Criterion:
    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.label}): {verdict} [{self.elapsed:.2f}s]")
        return False


def test_criterion_01_transform_of_binomials():
    """Enumerated composition transform of C(n, .) equals C(n+k-1, k)."""
    with _Criterion(1, "eq5 enumeration, k<=10, n<=10") as c:
        report = verify_range("eq5", {"k": (1, 10), "n": (0, 10)})
        assert report.cases_total == 110
        assert report.cases_failed == 0
    assert c.elapsed < 5.0


def test_criterion_02_transform_of_multichooses():
    """Dual transform of C(n+i-1, i) equals C(n, k)."""
    with _Criterion(2, "eq42 enumeration, k<=10, n<=10") as c:
        report = verify_range("eq42", {"k": (1, 10), "n": (1, 10)})
        assert report.cases_total == 100
        assert report.cases_failed == 0
    assert c.elapsed < 5.0


def test_criterion_03_polynomial_identities_in_n():
    """eq13/eq47 coefficientwise to k=20; eq29 to k=15."""
    with _Criterion(3, "eq13/eq47 poly k<=20, eq29 poly k<=15") as c:
        for k in range(1, 21):
            assert verify_polynomial_in_n("eq13", k).passed, ("eq13", k)
            assert verify_polynomial_in_n("eq47", k).passed, ("eq47", k)
        for k in range(2, 16):
            assert verify_polynomial_in_n("eq29", k).passed, ("eq29", k)
    assert c.elapsed < 10.0


def test_criterion_04_coefficient_law():
    """Every coefficient of the signed falling-factorial sum is (-1)^t s(k,t)."""
    with _Criterion(4, "eq17 coefficients, k<=12"):
        report = verify_range("eq17", {"k": (1, 12)})
        assert report.cases_total == 12
        assert report.cases_failed == 0


def test_criterion_05_stirling_identities():
    """eq18/eq19 over the full k<=25 triangle; eq31 k<=12; eq41 n,t<=12."""
    with _Criterion(5, "eq18+eq19 (650), eq31, eq41") as c:
        eq18 = verify_range("eq18", {"k": (1, 25), "t": (1, 25)})
        eq19 = verify_range("eq19", {"k": (1, 25), "t": (1, 25)})
        assert eq18.cases_total == eq19.cases_total == 325
        assert eq18.cases_total + eq19.cases_total == 650
        assert eq18.cases_failed == eq19.cases_failed == 0
        eq31 = verify_range("eq31", {"k": (1, 12), "t": (1, 12)})
        assert eq31.cases_total == 78 and eq31.cases_failed == 0
        eq41 = verify_range("eq41", {"n": (1, 12), "t": (2, 12)})
        assert eq41.cases_total == 132 and eq41.cases_failed == 0
    assert c.elapsed < 5.0


def test_criterion_06_rothe_hagen_family():
    """eq38 for k,n<=15; eq36 for x,n<=6, k<=8; eq37 sums to zero."""
    with _Criterion(6, "eq38, eq36, eq37"):
        eq38 = verify_range("eq38", {"k": (1, 15), "n": (1, 15)})
        assert eq38.cases_total == 225 and eq38.cases_failed == 0
        eq36 = verify_range("eq36", {"x": (1, 6), "n": (1, 6), "k": (1, 8)})
        assert eq36.cases_total == 288 and eq36.cases_failed == 0
        eq37 = verify_range("eq37", {"x": (1, 9), "n": (1, 6), "k": (2, 10)})
        assert eq37.cases_total == 270 and eq37.cases_failed == 0


def _weak_compositions_brute(k: int, r: int):
    # stars and bars, independent of the library's enumerator
    for bars in combinations(range(k + r - 1), r - 1):
        bounds = (-1, *bars, k + r - 1)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(r))


def _positive_compositions_brute(k: int, r: int):
    for cuts in combinations(range(1, k), r - 1):
        bounds = (0, *cuts, k)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(r))


def test_criterion_07_combinatorial_lemmas():
    """Weak/positive composition sums match their closed forms, r<=k<=8."""
    with _Criterion(7, "weak-sum and inner-sum closed forms"):
        for k in range(1, 9):
            for r in range(1, k + 1):
                for n in range(0, 7):
                    weak = sum(
                        _prod(binomial(n, part) for part in parts)
                        for parts in _weak_compositions_brute(k, r)
                    )
                    assert weak == binomial(r * n, k), ("weak-binomial", k, r, n)
                    if n >= 1:
                        weak = sum(
                            _prod(multichoose(n, part) for part in parts)
                            for parts in _weak_compositions_brute(k, r)
                        )
                        assert weak == multichoose(r * n, k), ("weak-multichoose", k, r, n)
                    positive_brute = sum(
                        _prod(binomial(n, part) for part in parts)
                        for parts in _positive_compositions_brute(k, r)
                    )
                    closed = inner_sum_closed_binomial(n, k, r)
                    enumerated = inner_sum_positive(lambda i: binomial(n, i), k, r)
                    assert closed == positive_brute == enumerated, ("eq10", k, r, n)
                    if n >= 1:
                        positive_brute = sum(
                            _prod(multichoose(n, part) for part in parts)
                            for parts in _positive_compositions_brute(k, r)
                        )
                        closed = inner_sum_closed_multichoose(n, k, r)
                        enumerated = inner_sum_positive(
                            lambda i: multichoose(n, i), k, r
                        )
                        assert closed == positive_brute == enumerated, ("eq46", k, r, n)


def _prod(items):
    result = 1
    for item in items:
        result *= item
    return result


def test_criterion_08_three_route_genericity():
    """20 seeded random rational sequences: all h routes agree, e recovered."""
    with _Criterion(8, "lemma7 three routes + roundtrip, 20 seeds, k<=8"):
        report = verify_range("lemma7_roundtrip", {"sample": (0, 19), "k": (1, 8)})
        assert report.cases_total == 160
        assert report.cases_failed == 0


def test_criterion_09_pair_catalog():
    """All ten sequence-pair identities, k<=8, symbolic q, 5 random bindings."""
    with _Criterion(9, "pair1_eh..pair5_he, k<=8") as c:
        for label in ("pair1", "pair2", "pair3", "pair4", "pair5"):
            for direction in ("eh", "he"):
                report = verify_range(f"{label}_{direction}", samples=5)
                assert report.cases_failed == 0, (label, direction)
    assert c.elapsed < 30.0


def test_criterion_10_difference_annihilation():
    """Delta^(k+1) kills 20 seeded random degree-k polynomials, k<=10."""
    with _Criterion(10, "finite-difference annihilation"):
        rng = random.Random(424242)
        for degree in range(0, 11):
            for _ in range(20):
                coeffs = [
                    Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                    for _ in range(degree)
                ]
                lead = Fraction(
                    rng.choice((1, -1)) * rng.randint(1, 99), rng.randint(1, 30)
                )
                poly = Polynomial(coeffs + [lead])
                assert poly.degree == degree
                assert finite_difference(poly, degree + 1).is_zero, degree


def test_criterion_11_cli_end_to_end():
    """`compident verify --all` exits 0 quickly and reruns byte-identically."""
    with _Criterion(11, "verify --all reproducibility") as c:
        argv = [sys.executable, "-m", "compident", "verify", "--all", "--format", "json"]
        # the child imports this checkout's src, installed or not
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        first = subprocess.run(argv, capture_output=True, text=True, timeout=240, env=env)
        assert first.returncode == 0, first.stderr
        lines = first.stdout.splitlines()
        assert len(lines) == 25
        second = subprocess.run(argv, capture_output=True, text=True, timeout=240, env=env)
        assert second.returncode == 0
        assert first.stdout == second.stdout
    assert c.elapsed < 120.0
