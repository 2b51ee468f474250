"""A suite run against its cases run one by one.

verify_range checks, binds and evaluates each case of its grid once and
hands verify_case the bound params and sides; a transform suite computes
the sides of every k of one binding (the sample with its drawn a and b,
or n) once, up to the suite's top k, and hands each case its entry.
verify_case run alone checks, binds and evaluates its own case, a span for
its own k.  Each grid below runs both ways, and the reports must be equal
one by one, in grid order: the default grids of every suite, and for
pair1-5, eq5, eq42 and lemma7 grids that start above k = 1, two range
dicts that share bindings, more bindings than verify_range keeps sides
for, the pinned binding a = 1/2, b = -1/2, and grids whose top k is over
the cap, where both ways raise the same error at the same case.  A suite
opens one sample stream per binding.  It calls a relational domain check
(eq18's t <= k) once per grid candidate; where lower bounds alone make the
domain, it starts each span at its bound and calls no check.
"""

from fractions import Fraction
from itertools import product

import pytest

from compident import compositions, identities
from compident.compositions import BudgetExceededError
from compident.exact_arith import DomainError
from compident.identities import default_ranges, get_descriptor, verify_case, verify_range

ALL_SUITES = [descriptor.id for descriptor in identities.list_identities()]
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
    # every case of the grids run alone, in the parameters' documented order;
    # a case verify_case refuses as outside the domain is no case
    reports = []
    for ranges in range_dicts:
        names = [name for name in get_descriptor(identity_id).params if name in ranges]
        spans = [range(lo, hi + 1) for lo, hi in (ranges[name] for name in names)]
        for values in product(*spans):
            try:
                reports.append(verify_case(identity_id, dict(zip(names, values)), **options))
            except BudgetExceededError as exc:
                return reports, str(exc)
            except DomainError as exc:
                if "outside domain" not in str(exc):
                    raise
    return reports, None


def check_both_ways(identity_id, range_dicts, monkeypatch, **options):
    by_suite = suite_reports(identity_id, range_dicts, monkeypatch, **options)
    alone = case_reports(identity_id, range_dicts, **options)
    assert by_suite[0], "the grid ran no case"
    assert by_suite == alone


@pytest.mark.parametrize("identity_id", ALL_SUITES)
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


def counted(function, calls):
    # function, appending 1 to calls on every call
    def count(*args):
        calls.append(1)
        return function(*args)

    return count


@pytest.mark.parametrize("identity_id, streams", [("pair1_eh", 5), ("lemma7_roundtrip", 20)])
def test_a_sampled_suite_opens_one_stream_per_binding(identity_id, streams, monkeypatch):
    # 5 samples x 8 ks for pair1_eh, 20 x 8 for lemma7: one stream per sample
    opened = []
    monkeypatch.setattr(identities, "seeded_rng", counted(identities.seeded_rng, opened))
    assert verify_range(identity_id).passed
    assert len(opened) == streams


def counted_domains(monkeypatch):
    # every registration's domain check, counted in one list
    calls = []
    for registered, reg in list(identities._REGISTRY.items()):
        counting = reg._replace(valid=counted(reg.valid, calls))
        monkeypatch.setitem(identities._REGISTRY, registered, counting)
    return calls


def test_a_suite_checks_each_grid_candidate_once(monkeypatch):
    # eq18's default grid: 25 x 25 candidates, of which 325 have t <= k
    calls = counted_domains(monkeypatch)
    assert verify_range("eq18").cases_total == 325
    assert len(calls) == 625


LOWER_BOUND_SUITES = [i for i in ALL_SUITES if identities._REGISTRY[i].lower is not None]


@pytest.mark.parametrize("identity_id", LOWER_BOUND_SUITES)
def test_a_lower_bound_grid_yields_the_checked_candidates_in_order(identity_id, monkeypatch):
    # spans from two below each bound: the clipped grid is the filtered one
    reg = identities._REGISTRY[identity_id]
    full = {name: (lo - 2, lo + 1) for name, lo in reg.lower.items()}
    range_dicts = [full]
    if reg.optional_params:
        range_dicts.append({name: span for name, span in full.items()
                            if name not in reg.optional_params})
    expected = [
        list(zip(ranges, combo))
        for ranges in range_dicts
        for combo in product(*(range(lo, hi + 1) for lo, hi in ranges.values()))
        if reg.valid(dict(zip(ranges, combo)))
    ]
    calls = counted_domains(monkeypatch)
    grid = identities._case_grid(identities._REGISTRY[identity_id], range_dicts)
    assert [list(case.items()) for case in grid] == expected
    assert calls == []
    # two of each span's four values are in the domain
    assert len(expected) == sum(2 ** len(ranges) for ranges in range_dicts)


def test_a_lower_bound_grid_below_the_domain_has_no_cases():
    with pytest.raises(DomainError, match="eq5: no cases inside the identity's domain"):
        verify_range("eq5", {"k": (-3, 0), "n": (0, 2)})
    with pytest.raises(DomainError, match="eq5: empty span for n: 2..1"):
        verify_range("eq5", {"k": (-3, 0), "n": (2, 1)})


def test_a_case_run_alone_is_still_checked(monkeypatch):
    calls = counted_domains(monkeypatch)
    with pytest.raises(DomainError, match=r"eq18: parameters \{'k': 2, 't': 3\} outside domain"):
        verify_case("eq18", {"k": 2, "t": 3})
    with pytest.raises(DomainError, match="eq18: unknown parameter 'n'"):
        verify_case("eq18", {"k": 2, "t": 1, "n": 1})
    assert len(calls) == 1
