"""Tests for the signed Stirling triangle and the identity checks on it."""

import json
from math import factorial

import pytest

from compident import stirling
from compident.cli import main
from compident.stirling import check_eq18, check_eq19, check_eq31, check_eq41, stirling1


def stirling_rows_oracle(n_max: int) -> list[list[int]]:
    """Rows of s(n, .) by expanding x(x-1)...(x-n+1) with list convolution."""
    rows = [[1]]
    coeffs = [1]  # empty product
    for n in range(1, n_max + 1):
        # multiply by (x - (n-1))
        shifted = [0] + coeffs
        scaled = [-(n - 1) * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
        rows.append(list(coeffs))
    return rows


def test_examples():
    assert stirling1(3, 2) == -3
    for n in range(1, 10):
        assert stirling1(n, n) == 1
    assert stirling1(4, 1) == -6
    assert stirling1(4, 2) == 11
    assert stirling1(5, 0) == 0
    assert stirling1(5, 6) == 0
    with pytest.raises(ValueError):
        stirling1(0, 0)


@pytest.mark.parametrize("n", range(1, 16))
def test_recurrence_matches_expansion_oracle(n):
    oracle = stirling_rows_oracle(15)
    for t in range(0, n + 1):
        assert stirling1(n, t) == oracle[n][t]


def test_rows_match_expansion_oracle():
    oracle = stirling_rows_oracle(40)
    assert [list(row) for row in stirling.rows(40)] == [row[1:] for row in oracle[1:]]
    assert list(stirling.rows(0)) == []


def test_table_keeps_one_row_and_leaves_the_memo(monkeypatch, capsys):
    monkeypatch.setattr(stirling, "_rows", ((1,),))
    assert main(["table", "stirling", "--n", "200", "--format", "json"]) == 0
    assert len(stirling._rows) == 1  # the table grew no shared row
    document = json.loads(capsys.readouterr().out)
    oracle = stirling_rows_oracle(200)
    assert document["rows"] == [[str(s) for s in row[1:]] for row in oracle[1:]]


def test_first_column_closed_form():
    for n in range(1, 12):
        assert stirling1(n, 1) == (-1) ** (n - 1) * factorial(n - 1)


def test_row_sums():
    for n in range(2, 13):
        assert sum(stirling1(n, t) for t in range(1, n + 1)) == 0
        assert sum(abs(stirling1(n, t)) for t in range(1, n + 1)) == factorial(n)


def test_check_eq19_examples():
    lhs, rhs = check_eq19(3, 1)
    assert lhs == -3 and rhs == -3
    for k in range(1, 10):
        assert check_eq19(k, k) == (0, 0)
    lhs, rhs = check_eq19(5, 2)
    assert lhs == rhs
    with pytest.raises(ValueError):
        check_eq19(3, 0)
    with pytest.raises(ValueError):
        check_eq19(3, 4)


def test_check_eq18_examples():
    lhs, rhs = check_eq18(2, 1)
    assert lhs == 1 and rhs == 1
    # forced 0**0 == 1 convention at k = 1
    lhs, rhs = check_eq18(1, 1)
    assert lhs == 1 and rhs == 1
    lhs, rhs = check_eq18(4, 2)
    assert rhs == stirling1(4, 2) == 11 and lhs == rhs


def test_eq18_eq19_full_triangle():
    for k in range(1, 26):
        for t in range(1, k + 1):
            lhs, rhs = check_eq18(k, t)
            assert lhs == rhs, (k, t)
            lhs, rhs = check_eq19(k, t)
            assert lhs == rhs, (k, t)


def test_check_eq31():
    lhs, rhs = check_eq31(1, 1)
    assert lhs == 1 and rhs == 1
    lhs, rhs = check_eq31(3, 1)
    assert rhs == stirling1(3, 1) + 3 * stirling1(2, 1) == -1
    lhs, rhs = check_eq31(4, 4)
    assert lhs == rhs
    for k in range(1, 13):
        for t in range(1, k + 1):
            lhs, rhs = check_eq31(k, t)
            assert lhs == rhs, (k, t)
    with pytest.raises(ValueError):
        check_eq31(2, 3)


def test_check_eq41():
    lhs, rhs = check_eq41(3, 2)
    assert lhs == 0 and lhs == rhs
    # t > n: s(n, t) = 0 forces a pass
    lhs, rhs = check_eq41(2, 9)
    assert lhs == rhs
    for n in range(1, 13):
        for t in range(2, 13):
            lhs, rhs = check_eq41(n, t)
            assert lhs == rhs, (n, t)
    with pytest.raises(ValueError):
        check_eq41(3, 1)
    with pytest.raises(ValueError):
        check_eq41(0, 2)

