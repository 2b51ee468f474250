"""When a case report's text is made.

verify_case decides every verdict when its case runs, but a passing report
formats its params, lhs and rhs only when one of them is first read, and a
suite reads no passing report.  So a suite formats no passing case, and the
text read later is the text the case would have made at once: the lhs
serialized once for both sides, and str of each bound value.  It is made
under the int <-> str digit limit in force when the case ran, so a report
made inside cli.main (which lifts the limit) reads the same after main has
restored it, and one made outside it raises at its first read.
"""

import sys

import pytest

from compident import identities
from compident.identities import verify_case, verify_range

SUITES = [("eq13", {"k": (1, 20)}, {}), ("pair5_eh", None, {"samples": 2})]
N = 10**120  # eq13's sides at k = 40 have 4753 digits, over the default 4300


@pytest.mark.parametrize("identity_id, ranges, options", SUITES, ids=[s[0] for s in SUITES])
def test_a_suite_formats_no_passing_text(identity_id, ranges, options, monkeypatch):
    serialized = []
    serialize = identities._serialize_value

    def counted(value):
        serialized.append(value)
        return serialize(value)

    kept = []  # (the case verify_range handed in, its report)
    case = identities.verify_case

    def keep_report(*args, **kwargs):
        report = case(*args, **kwargs)
        kept.append((kwargs["_case"], report))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(identities, "_serialize_value", counted)
        patch.setattr(identities, "verify_case", keep_report)
        suite = verify_range(identity_id, ranges, **options)
        assert suite.passed and suite.cases_total == len(kept) > 0
        assert serialized == []
        for _, report in kept:  # the first read formats the lhs once, for both sides
            assert report.lhs == report.rhs
        assert len(serialized) == len(kept)
    for (bound, (lhs, rhs)), report in kept:
        assert report.passed
        assert (report.lhs, report.rhs) == (serialize(lhs), serialize(rhs))
        assert report.params == {name: str(value) for name, value in bound.items()}


def test_a_failing_report_is_formatted_at_once(monkeypatch):
    reg = identities._REGISTRY["eq6"]
    monkeypatch.setitem(identities._REGISTRY, "eq6",
                        reg._replace(evaluate=lambda p, rng: (p["k"], p["n"])))
    monkeypatch.setattr(identities, "_serialize_value", lambda value: f"<{value}>")
    report = verify_case("eq6", {"k": 2, "n": 3})
    monkeypatch.undo()  # text read from here on was made while the stub was in place
    assert not report.passed
    assert report.to_json() == {"id": "eq6", "params": {"k": "2", "n": "3"},
                                "lhs": "<2>", "rhs": "<3>", "pass": False}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int <-> str digit limit before CPython 3.10.7")
def test_text_is_made_under_the_digit_limit_its_case_ran_under():
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        lifted = verify_case("eq13", {"k": 40, "n": N})
        sys.set_int_max_str_digits(4300)
        limited = verify_case("eq13", {"k": 40, "n": N})  # formats nothing yet
        assert lifted.passed and limited.passed
        assert len(lifted.lhs) == 4753 and lifted.rhs == lifted.lhs
        assert lifted.params == {"k": "40", "n": str(N)}
        with pytest.raises(ValueError):
            limited.lhs
        sys.set_int_max_str_digits(0)
        with pytest.raises(ValueError):  # still the limit of its run
            limited.params
        assert sys.get_int_max_str_digits() == 0  # the read put the caller's limit back
    finally:
        sys.set_int_max_str_digits(previous)
