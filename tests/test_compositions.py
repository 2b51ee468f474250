"""Tests for composition enumeration and the signed transform."""

from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from compident.compositions import (
    BudgetExceededError,
    Composition,
    composition_transform,
    enumerate_all_compositions,
    enumerate_compositions,
    enumerate_weak_compositions,
    enumeration_budget,
    inner_sum_closed_binomial,
    inner_sum_closed_multichoose,
    inner_sum_positive,
    transform_by_enumeration,
)
from compident.exact_arith import binomial, multichoose


def compositions_oracle(k: int, r: int) -> list[tuple[int, ...]]:
    """Independent enumeration through cut positions 1..k-1."""
    result = []
    for cuts in combinations(range(1, k), r - 1):
        bounds = (0, *cuts, k)
        result.append(tuple(bounds[i + 1] - bounds[i] for i in range(r)))
    return result


def weak_compositions_oracle(k: int, r: int) -> list[tuple[int, ...]]:
    """Independent enumeration through stars-and-bars bar positions."""
    result = []
    for bars in combinations(range(k + r - 1), r - 1):
        bounds = (-1, *bars, k + r - 1)
        result.append(tuple(bounds[i + 1] - bounds[i] - 1 for i in range(r)))
    return result


def test_composition_type():
    c = Composition((1, 3, 2))
    assert c.total == 6
    assert c.part_count == 3
    assert str(c) == "1,3,2"
    with pytest.raises(ValueError):
        Composition((1, 0, 2))
    with pytest.raises(ValueError):
        Composition(())


def test_enumerate_compositions_examples():
    assert [c.parts for c in enumerate_compositions(4, 2)] == [(1, 3), (2, 2), (3, 1)]
    assert [c.parts for c in enumerate_compositions(7, 1)] == [(7,)]
    assert len(list(enumerate_compositions(5, 3))) == 6
    for bad in ((0, 1), (3, 0), (3, 4)):
        with pytest.raises(ValueError):
            enumerate_compositions(*bad)


@pytest.mark.parametrize("k", range(1, 9))
def test_enumerate_compositions_matches_oracle(k):
    for r in range(1, k + 1):
        got = [c.parts for c in enumerate_compositions(k, r)]
        oracle = compositions_oracle(k, r)
        assert got == sorted(oracle)  # lexicographic order pinned
        assert len(got) == binomial(k - 1, r - 1)
        assert all(sum(parts) == k and min(parts) >= 1 for parts in got)


def test_enumerate_all_compositions_examples():
    assert {c.parts for c in enumerate_all_compositions(3)} == {
        (1, 1, 1), (1, 2), (2, 1), (3,)
    }
    assert [c.parts for c in enumerate_all_compositions(1)] == [(1,)]
    all4 = [c.parts for c in enumerate_all_compositions(4)]
    assert len(all4) == 8
    assert all4[0] == (1, 1, 1, 1)
    assert all4[-1] == (4,)
    # grouped by descending part count, lexicographic inside each group
    counts = [len(parts) for parts in all4]
    assert counts == sorted(counts, reverse=True)
    with pytest.raises(ValueError):
        enumerate_all_compositions(0)


@pytest.mark.parametrize("k", range(1, 13))
def test_count_laws(k):
    assert sum(1 for _ in enumerate_all_compositions(k)) == 2 ** (k - 1)
    for r in range(1, k + 1):
        assert sum(1 for _ in enumerate_compositions(k, r)) == binomial(k - 1, r - 1)


def test_enumerators_are_streaming(monkeypatch):
    # far over the budget, but only when fully consumed; prefixes are lazy
    monkeypatch.setenv("COMPIDENT_BUDGET", "64")
    first = list(islice(enumerate_all_compositions(64), 3))
    assert [c.parts for c in first] == [(1,) * 64, (1,) * 62 + (2,), (1,) * 61 + (2, 1)]
    pairs = list(islice(enumerate_compositions(40, 2), 3))
    assert [c.parts for c in pairs] == [(1, 39), (2, 38), (3, 37)]


def test_enumerate_weak_compositions():
    assert list(enumerate_weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    for r in range(1, 5):
        assert list(enumerate_weak_compositions(0, r)) == [(0,) * r]
    assert len(list(enumerate_weak_compositions(3, 3))) == 10
    for bad_k, bad_r in ((-1, 2), (3, 0)):
        with pytest.raises(ValueError):
            enumerate_weak_compositions(bad_k, bad_r)


@pytest.mark.parametrize("k", range(0, 7))
@pytest.mark.parametrize("r", range(1, 6))
def test_weak_compositions_match_oracle(k, r):
    got = list(enumerate_weak_compositions(k, r))
    assert got == sorted(weak_compositions_oracle(k, r))
    assert len(got) == binomial(k + r - 1, r - 1)


def test_composition_transform_examples():
    # term(i) = C(2, i): 2^3 - 2*2*1 + 0 = 4
    assert composition_transform(lambda i: binomial(2, i), 3) == 4
    values = [Fraction(3, 7), Fraction(-2, 5)]
    assert composition_transform(lambda i: values[i - 1], 1) == values[0]
    # term(i) = C(2+i-1, i): 8 - 12 + 4 = 0
    assert composition_transform(lambda i: multichoose(2, i), 3) == 0
    with pytest.raises(ValueError):
        composition_transform(lambda i: 1, 0)


def test_transform_brute_force_agreement():
    # direct per-composition evaluation, no shared prefixes
    def brute(term, k):
        total = 0
        for comp in enumerate_all_compositions(k):
            product = 1
            for part in comp.parts:
                product *= term(part)
            total += product if (k - comp.part_count) % 2 == 0 else -product
        return total

    for n in range(0, 5):
        for k in range(1, 9):
            assert composition_transform(lambda i: binomial(n, i), k) == brute(
                lambda i: binomial(n, i), k
            )


def test_inner_sum_positive_examples():
    assert inner_sum_positive(lambda i: binomial(2, i), 3, 2) == 4
    assert inner_sum_positive(lambda i: binomial(5, i), 4, 1) == binomial(5, 4)
    assert inner_sum_positive(lambda i: binomial(2, i), 3, 3) == 8
    with pytest.raises(ValueError):
        inner_sum_positive(lambda i: 1, 3, 4)


def test_transform_decomposes_into_inner_sums():
    term_families = [
        lambda i: binomial(4, i),
        lambda i: multichoose(3, i),
        lambda i: Fraction(1, i + 1),
    ]
    for term in term_families:
        for k in range(1, 9):
            recombined = sum(
                (-1) ** (k - r) * inner_sum_positive(term, k, r) for r in range(1, k + 1)
            )
            assert composition_transform(term, k) == recombined


def test_weak_sum_closed_forms():
    # sum over weak compositions of prod C(n, k_i) == C(r n, k)
    for k in range(1, 8):
        for r in range(1, 6):
            for n in range(0, 6):
                total = 0
                for parts in enumerate_weak_compositions(k, r):
                    product = 1
                    for part in parts:
                        product *= binomial(n, part)
                    total += product
                assert total == binomial(r * n, k)
    # and with repetitions: prod C(n+k_i-1, k_i) == C(r n + k - 1, k)
    for k in range(1, 8):
        for r in range(1, 6):
            for n in range(1, 6):
                total = 0
                for parts in enumerate_weak_compositions(k, r):
                    product = 1
                    for part in parts:
                        product *= multichoose(n, part)
                    total += product
                assert total == multichoose(r * n, k)


def test_inner_sum_closed_binomial():
    assert inner_sum_closed_binomial(2, 3, 2) == 4
    for n in range(0, 7):
        for k in range(1, 9):
            assert inner_sum_closed_binomial(n, k, 1) == binomial(n, k)
    assert inner_sum_closed_binomial(1, 3, 3) == 1
    with pytest.raises(ValueError):
        inner_sum_closed_binomial(-1, 3, 2)
    with pytest.raises(ValueError):
        inner_sum_closed_binomial(2, 3, 4)


def test_inner_sum_closed_multichoose():
    assert inner_sum_closed_multichoose(2, 2, 2) == 4
    for n in range(1, 7):
        for k in range(1, 9):
            assert inner_sum_closed_multichoose(n, k, 1) == multichoose(n, k)
    assert inner_sum_closed_multichoose(1, 3, 2) == 2
    with pytest.raises(ValueError):
        inner_sum_closed_multichoose(0, 3, 2)


def test_closed_forms_match_enumeration():
    for n in range(0, 7):
        for k in range(1, 9):
            for r in range(1, k + 1):
                enumerated = inner_sum_positive(lambda i: binomial(n, i), k, r)
                assert inner_sum_closed_binomial(n, k, r) == enumerated
                if n >= 1:
                    enumerated = inner_sum_positive(lambda i: multichoose(n, i), k, r)
                    assert inner_sum_closed_multichoose(n, k, r) == enumerated


def test_budget_enforcement(monkeypatch):
    with pytest.raises(BudgetExceededError):
        composition_transform(lambda i: 1, 21)
    with pytest.raises(BudgetExceededError):
        enumerate_all_compositions(21)
    with pytest.raises(BudgetExceededError):
        inner_sum_positive(lambda i: 1, 21, 2)
    # the environment variable lifts the default cap
    monkeypatch.setenv("COMPIDENT_BUDGET", "21")
    assert composition_transform(lambda i: 1 if i == 1 else 0, 21) == 1
    monkeypatch.setenv("COMPIDENT_BUDGET", "22")
    assert enumeration_budget() == 22
    monkeypatch.setenv("COMPIDENT_BUDGET", "5")
    with pytest.raises(BudgetExceededError):
        composition_transform(lambda i: 1, 6)
    monkeypatch.setenv("COMPIDENT_BUDGET", "zero")
    with pytest.raises(ValueError):
        enumeration_budget()


CAPPED = {
    "composition_transform": composition_transform,
    "inner_sum_positive": lambda terms, k: inner_sum_positive(terms, k, 2),
    "transform_by_enumeration": transform_by_enumeration,
    "enumerate_all_compositions": lambda terms, k: list(enumerate_all_compositions(k)),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_capped_function_follows_env_var(monkeypatch, name):
    monkeypatch.setenv("COMPIDENT_BUDGET", "5")
    calls = []

    def term(i):
        calls.append(i)
        return i

    with pytest.raises(BudgetExceededError, match="COMPIDENT_BUDGET"):
        CAPPED[name](term, 6)
    assert calls == []  # refused before any term is evaluated
    assert CAPPED[name](term, 5) is not None


@given(st.integers(1, 10))
@settings(max_examples=20)
def test_all_compositions_partition_by_part_count(k):
    by_r = {}
    for comp in enumerate_all_compositions(k):
        by_r.setdefault(comp.part_count, []).append(comp.parts)
    assert set(by_r) == set(range(1, k + 1))
    for r, group in by_r.items():
        assert group == [c.parts for c in enumerate_compositions(k, r)]
