"""A transform suite run against its cases run one by one.

verify_range computes the sides of every k of one binding of a transform
suite (the sample with its drawn a and b, or n) once, up to the suite's top
k, and hands each case its entry; verify_case run alone computes the sides
of its own k.  Each grid below runs both ways, and the reports must be
equal one by one, in grid order, for pair1-5, eq5, eq42 and lemma7: the
default grids, grids that start above k = 1, two range dicts that share
bindings, more bindings than verify_range keeps sides for, the pinned
binding a = 1/2, b = -1/2, and grids whose top k is over the cap, where
both ways raise the same error at the same case.
"""

from fractions import Fraction
from itertools import product

import pytest

from compident import compositions, identities
from compident.compositions import BudgetExceededError
from compident.identities import default_ranges, get_descriptor, verify_case, verify_range

TRANSFORM_SUITES = ["eq5", "eq42", "lemma7_roundtrip",
                    *(f"pair{j}_{way}" for j in range(1, 6) for way in ("eh", "he"))]
HALVES = {"a": Fraction(1, 2), "b": Fraction(-1, 2)}


def suite_reports(identity_id, range_dicts, monkeypatch, **options):
    # the reports of verify_range's cases in order, and the refusal that ended it
    reports = []
    case = identities.verify_case

    def keep_report(*args, **kwargs):
        report = case(*args, **kwargs)
        reports.append(report)
        return report

    with monkeypatch.context() as patch:
        patch.setattr(identities, "verify_case", keep_report)
        try:
            verify_range(identity_id, range_dicts, **options)
        except BudgetExceededError as exc:
            return reports, str(exc)
    return reports, None


def case_reports(identity_id, range_dicts, **options):
    # every case of the grids run alone, in the parameters' documented order
    names = get_descriptor(identity_id).params
    reports = []
    for ranges in range_dicts:
        spans = [range(lo, hi + 1) for lo, hi in (ranges[name] for name in names)]
        for values in product(*spans):
            try:
                reports.append(verify_case(identity_id, dict(zip(names, values)), **options))
            except BudgetExceededError as exc:
                return reports, str(exc)
    return reports, None


def check_both_ways(identity_id, range_dicts, monkeypatch, **options):
    by_suite = suite_reports(identity_id, range_dicts, monkeypatch, **options)
    alone = case_reports(identity_id, range_dicts, **options)
    assert by_suite[0], "the grid ran no case"
    assert by_suite == alone


@pytest.mark.parametrize("identity_id", TRANSFORM_SUITES)
def test_the_default_grid_matches_its_cases_run_alone(identity_id, monkeypatch):
    check_both_ways(identity_id, default_ranges(identity_id, samples=2), monkeypatch)


GRIDS = {
    # above k = 1: each binding's sides run from its first k, 15, up to 16
    "lemma7_k15_16": ("lemma7_roundtrip", [{"sample": (0, 1), "k": (15, 16)}]),
    "pair5_eh_k15_16": ("pair5_eh", [{"sample": (0, 0), "k": (15, 16)}]),
    "eq42_k15_16": ("eq42", [{"k": (15, 16), "n": (1, 3)}]),
    # two range dicts: bindings in both, and a top k only the second reaches
    "eq5_two_dicts": ("eq5", [{"k": (1, 5), "n": (0, 4)}, {"k": (3, 9), "n": (2, 6)}]),
    "pair3_he_two_dicts": ("pair3_he", [{"k": (2, 6), "n": (0, 3)}, {"k": (1, 9), "n": (3, 5)}]),
    "lemma7_two_dicts": ("lemma7_roundtrip",
                         [{"sample": (0, 2), "k": (1, 4)}, {"sample": (1, 3), "k": (2, 9)}]),
    "pair2_eh_two_dicts": ("pair2_eh",
                           [{"sample": (0, 1), "k": (1, 3)}, {"sample": (0, 2), "k": (2, 10)}]),
    "pair4_eh_two_dicts": ("pair4_eh", [{"k": (5, 6)}, {"k": (1, 12)}]),
    # more bindings than verify_range keeps sides for: the rest run alone
    "eq5_41_bindings": ("eq5", [{"k": (1, 4), "n": (0, 40)}]),
    "pair1_eh_40_samples": ("pair1_eh", [{"k": (1, 3), "sample": (0, 39)}]),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_a_wider_grid_matches_its_cases_run_alone(grid, monkeypatch):
    identity_id, range_dicts = GRIDS[grid]
    check_both_ways(identity_id, range_dicts, monkeypatch)


@pytest.mark.parametrize("identity_id", TRANSFORM_SUITES)
def test_with_room_for_one_binding_the_default_grid_matches_its_cases_run_alone(
    identity_id, monkeypatch
):
    monkeypatch.setattr(identities, "_HELD_SPANS", 1)
    check_both_ways(identity_id, default_ranges(identity_id, samples=2), monkeypatch)


@pytest.mark.parametrize("identity_id", ["pair5_eh", "pair5_he", "pair1_eh", "pair2_he"])
def test_a_pinned_binding_matches_its_cases_run_alone(identity_id, monkeypatch):
    # a = 1/2, b = -1/2: the q_cauchy factors cancel Phi_2, Phi_4 and Phi_6
    pinned = {name: HALVES[name] for name in identities.pair_rationals(identity_id)}
    check_both_ways(identity_id, [{"sample": (0, 1), "k": (1, 9)}], monkeypatch, **pinned)


@pytest.mark.parametrize("identity_id", TRANSFORM_SUITES)
def test_a_grid_over_the_cap_matches_its_cases_run_alone(identity_id, monkeypatch):
    monkeypatch.setenv("COMPIDENT_BUDGET", "5")
    ranges = {"sample": (0, 1), "k": (3, 8), "n": (1, 2)}
    names = get_descriptor(identity_id).params
    range_dicts = [{name: ranges[name] for name in names}]
    by_suite = suite_reports(identity_id, range_dicts, monkeypatch)
    assert by_suite == case_reports(identity_id, range_dicts)
    assert by_suite[1] is not None and "k=6 is over the cap k<=5" in by_suite[1]


def test_verify_range_raises_the_refusal_of_its_first_case_over_the_cap(monkeypatch):
    monkeypatch.setenv("COMPIDENT_BUDGET", "5")
    want = ("composition_transform: k=6 is over the cap k<=5 "
            "(set COMPIDENT_BUDGET to lift it)")
    with pytest.raises(BudgetExceededError) as alone:
        verify_case("pair1_eh", {"sample": 0, "k": 6})
    with pytest.raises(BudgetExceededError) as suite:
        verify_range("pair1_eh", {"sample": (0, 1), "k": (1, 8)})
    assert str(suite.value) == str(alone.value) == want


@pytest.mark.parametrize("identity_id", TRANSFORM_SUITES)
def test_a_suite_reads_the_cap_once(identity_id, monkeypatch):
    reads = []
    for owner in (compositions, identities):
        budget = owner.enumeration_budget
        monkeypatch.setattr(owner, "enumeration_budget",
                            lambda budget=budget: reads.append(1) or budget())
    assert verify_range(identity_id, samples=2).passed
    assert len(reads) == 1
