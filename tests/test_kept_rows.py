"""The falling rows a suite keeps, and grows from their k - 1 neighbours.

Inside one verify_range call, ``poly._built_row`` keeps the rows it makes,
of two values of k at most, and makes a row of k from a kept row of k - 1
by one more factor: the (c, d, k - 1) row by its next one, or the
(c - d, d, k - 1) row by the one before its first.  verify_case run alone
keeps nothing and builds every row from scratch, so each polynomial-mode
suite below is checked against its cases run alone, on grids that start
with no neighbour, leave a gap, or run down.  A suite builds each row family
from scratch once, keeps no table once it returns or raises, and a table in
use gives the rows of the uncached pass in any order of requests.
"""

from random import Random

import pytest
from test_poly_falling import uncached_row
from test_span import check_both_ways

from compident import poly
from compident.exact_arith import DomainError
from compident.identities import verify_case, verify_range
from compident.poly import InexactDivisionError, _built_row, kept_rows

ROW_SUITES = ["eq13", "eq17", "eq29", "eq47"]
GRIDS = {
    "k1_40": [{"k": (1, 40)}],
    "k17_40": [{"k": (17, 40)}],  # no row of k = 16 to grow the first case's rows from
    "gap": [{"k": (5, 9)}, {"k": (20, 24)}],
    "descending": [{"k": (30, 35)}, {"k": (1, 6)}],
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("identity_id", ROW_SUITES)
def test_a_polynomial_mode_suite_matches_its_cases_run_alone(identity_id, grid, monkeypatch):
    check_both_ways(identity_id, GRIDS[grid], monkeypatch)


@pytest.fixture
def scratch(monkeypatch):
    """The (c, d, k) keys built from scratch from then on."""
    keys = []
    expanded = poly._expanded_row

    def counted(c, d, k):
        keys.append((c, d, k))
        return expanded(c, d, k)

    monkeypatch.setattr(poly, "_expanded_row", counted)
    return keys


def test_a_suite_builds_each_row_family_from_scratch_once(scratch, monkeypatch):
    levels = []
    built = poly._built_row

    def watched(c, d, k):
        row = built(c, d, k)
        levels.append({key[2] for key in poly._kept.get()})
        return row

    with monkeypatch.context() as patch:
        patch.setattr(poly, "_built_row", watched)
        assert verify_range("eq47", {"k": (1, 28)}).passed
    # C(n, k)'s (0, 1, k) rows grow by their next factor and the lhs's
    # (k - 1, 1, k) rows by the one before their first, both from (0, 1, 1)
    assert scratch == [(0, 1, 1)]
    assert len(levels) == 2 * 28
    assert all(len(ks) <= 2 for ks in levels)
    scratch.clear()
    for k in range(1, 29):  # alone, each case builds both its rows
        assert verify_case("eq47", {"k": k}).passed
    assert len(scratch) == 2 * 28


def test_no_table_outlives_a_suite(scratch):
    assert verify_range("eq29", {"k": (2, 9)}).passed
    assert poly._kept.get() is None
    with pytest.raises(DomainError):  # eq29's k starts at 2: the grid has no case
        verify_range("eq29", {"k": (0, 1)})
    assert poly._kept.get() is None
    scratch.clear()
    assert verify_case("eq13", {"k": 12}).passed  # nothing kept: both rows from scratch
    assert scratch == [(0, 1, 12), (11, 1, 12)]


def test_no_table_outlives_a_suite_that_raises(scratch, monkeypatch):
    slid = poly._slid_row

    def broken(above, c, k):
        if k == 6:
            raise InexactDivisionError("injected")
        return slid(above, c, k)

    with monkeypatch.context() as patch:
        patch.setattr(poly, "_slid_row", broken)
        with pytest.raises(InexactDivisionError, match="injected"):
            verify_range("eq29", {"k": (2, 9)})  # raised with the rows of k = 5 and 6 kept
    assert poly._kept.get() is None
    scratch.clear()
    assert verify_case("eq29", {"k": 7}).passed  # no (0, 1, 6) row to grow from
    assert scratch == [(0, 1, 7), (0, 1, 6)]
    scratch.clear()
    assert verify_case("eq13", {"k": 12}).passed
    assert scratch == [(0, 1, 12), (11, 1, 12)]


@pytest.mark.parametrize("seed", range(8))
def test_a_table_gives_the_uncached_rows_in_any_order(seed):
    rng = Random(seed)
    with kept_rows():
        for _ in range(300):
            # a drawn key, d of either sign, then its two rows of k + 1 and its row of k - 1
            k = rng.randint(0, 24)
            c, d = rng.randint(-k - 3, k + 3), rng.choice([1, 1, 1, 2, -3])
            for key in [(c, d, k), (c, d, k + 1), (c + d, d, k + 1), (c, d, k - 1)]:
                if key[2] >= 0:
                    row = _built_row(*key)
                    assert row == uncached_row(*key)
                    row[0] += 1  # the caller's list is its own
                    assert len({kept[2] for kept in poly._kept.get()}) <= 2
    assert poly._kept.get() is None
