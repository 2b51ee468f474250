"""Every benchmark workload against the golden record in perfbench/golden.json.

Each workload's argvs run through ``cli.main`` at the recorded seed, with the
benchmark's common arguments, and every case's digest of (id, params, lhs,
rhs) and the sha256 of the whole stdout must match the record; this is the
check perfbench/one_pass.py makes after each timed pass.  The record stops at
k = 28 in polynomial mode, so the stdout digests of the four polynomial-mode
suites up to k = 60 are pinned here as well.  The record never reaches the
dividing branch of QGraded.reduced, so pair5 at b = -a is pinned here too,
nor the Fraction fallback of the transform's graded ints, so one case on
each side of that switch is pinned as well, nor grids of the Rothe-Hagen sums
above the defaults, so three of those are pinned too, nor pair3 above its
default grid, so both of its directions at k, n <= 16 are pinned case by case,
nor lemma7 above its default grid, so k = 15..16 is pinned too, nor the
transform suites over k-spans wider than their defaults, where one binding's
cases read the most prefixes of one run, so six of those are pinned as well.
The catalog that ``list`` prints in both formats is pinned too.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import compident.identities as identities
from compident.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def case_digest(report) -> str:
    record = [report.identity_id, report.params, report.lhs, report.rhs]
    return hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()[:16]


def kept_reports(monkeypatch):
    # the list every later verify_case report is appended to
    reports = []
    verify_case = identities.verify_case

    def keep_report(*args, **kwargs):
        report = verify_case(*args, **kwargs)
        reports.append(report)
        return report

    monkeypatch.setattr(identities, "verify_case", keep_report)
    return reports


@pytest.mark.parametrize("name", sorted(GOLDEN["workloads"]))
def test_workload_matches_golden_record(name, monkeypatch, capsys):
    reports = kept_reports(monkeypatch)
    tail = workloads.COMMON_ARGS + ["--seed", str(GOLDEN["seed"])]
    exit_codes = [main(argv + tail) for argv in workloads.WORKLOADS[name]["argvs"]]
    stdout = capsys.readouterr().out
    recorded = GOLDEN["workloads"][name]
    assert exit_codes == [0] * len(exit_codes)
    assert [case_digest(r) for r in reports] == recorded["cases"]
    assert hashlib.sha256(stdout.encode()).hexdigest() == recorded["stdout_sha256"]


# sha256 of the --format json stdout, recorded before polynomial mode summed
# with one normalisation per sum and slid eq29's rows from their neighbours
POLYNOMIAL_MODE_K60 = {
    ("eq13", "1..60"): "9715f53505bd0b2e94033e4eadef6551e95179f389f51cfc7c22316b13543666",
    ("eq47", "1..60"): "73ea25cf550c018e00492b5bb842a557c9a1eed326d255590c9f0c74c375e996",
    ("eq17", "1..60"): "6c5c2a47f64ab385b4f236036ff5d270334a5fc1471c49b0422b6b55ea78ee84",
    ("eq29", "2..60"): "eb9900b481a5edd2e6dc5ecf6a7ee2f0da55c4a5d4613e5d006bc555a88097d7",
}


@pytest.mark.parametrize("identity_id, span", sorted(POLYNOMIAL_MODE_K60))
def test_polynomial_mode_up_to_k60_matches_its_digest(identity_id, span, capsys):
    assert main(["verify", "--id", identity_id, "--k", span, "--format", "json"]) == 0
    stdout = capsys.readouterr().out
    want = POLYNOMIAL_MODE_K60[identity_id, span]
    assert hashlib.sha256(stdout.encode()).hexdigest() == want


# sha256 of the --format json stdout at b = -a, where QGraded.reduced divides
# Phi_2, Phi_4 and Phi_6 out of phi_m: recorded before the q-pairs ran packed
CANCELLING_K4_7 = {
    "pair5_eh": "43518d7c40df220db9c3dc106a7029b145b300afab0e6e8d71c9c9479e501448",
    "pair5_he": "1036918f2d2b4aaecffd28af21ab082e3cfd95bcd51391c55159685ebb75b6ca",
}


@pytest.mark.parametrize("identity_id", sorted(CANCELLING_K4_7))
def test_q_pair_sides_where_factors_cancel_match_their_digest(identity_id, capsys):
    argv = ["verify", "--id", identity_id, "--k", "4..7", "--a=1/2", "--b=-1/2", "--format", "json"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == CANCELLING_K4_7[identity_id]


# sha256 of the --format json stdout of one Fraction pair case on each side of
# the graded switch k * bits(s) <= 4096: pair1_he at k = 40 runs on graded
# ints, pair1_eh and pair2_he at k = 60 on Fractions.  Recorded before the
# graded ints ran through the transform's one loop.
GRADED_SWITCH = {
    ("pair1_he", 40): "b10fc162463c7943f998fb0fc5fe1955d282c29b9b6a78c461d08184ee16459c",
    ("pair1_eh", 60): "913281cde92b51c86713a01bb7c9ac8994ab5f5c7f4404146b646d46a2dab875",
    ("pair2_he", 60): "7a920ee8e29a104e9ac31d5436cb3cf76e6bf3c09a7365c738f5d1e85cf70855",
}


@pytest.mark.parametrize("identity_id, k", sorted(GRADED_SWITCH))
def test_fraction_pairs_on_both_sides_of_the_graded_switch_match_their_digest(
    identity_id, k, monkeypatch, capsys
):
    monkeypatch.setenv("COMPIDENT_BUDGET", str(k))
    argv = ["verify", "--id", identity_id, "--k", f"{k}..{k}", "--samples", "1", "--format", "json"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GRADED_SWITCH[identity_id, k]


# sha256 of the --format json stdout of eq36, eq37 and eq38 above their
# default grids: recorded before their terms were summed as int pairs over one
# common denominator
WIDE_ROTHE_HAGEN = {
    "eq38": (["--k", "1..40", "--n", "1..40"],
             "4f59c6f9a8ce6ce3178c6d1a624923e3075a3bd7bfae9e12f012ba7e31adb5f1"),
    "eq37": (["--x", "1..30", "--n", "1..12", "--k", "2..31"],
             "33161a4577296890e7d8a064feacbba809030aa3a86b22795c3e39c4a45f5fb0"),
    "eq36": (["--x", "1..12", "--n", "1..12", "--k", "1..24"],
             "2d5beba018e2b9e75a079a2629d993cc5f70027c7b5f4fdee42aa5094935f366"),
}


@pytest.mark.parametrize("identity_id", sorted(WIDE_ROTHE_HAGEN))
def test_rothe_hagen_sums_above_the_default_grids_match_their_digest(identity_id, capsys):
    spans, want = WIDE_ROTHE_HAGEN[identity_id]
    assert main(["verify", "--id", identity_id, *spans, "--format", "json"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == want


# sha256 of the 16-hex case digests, joined with no separator, of pair3 over
# --k 1..16 --n 0..16: recorded while pair3 ran the generic transform loop on
# Polynomial products
WIDE_PAIR3 = {
    "pair3_eh": "2c22dccd5bae5029755e1722ecf7050bb9ca5c7081d7ee20b83738d8f13be053",
    "pair3_he": "b4d413f992b3abbb9d01a7794668337197056fe07e3da688b467c32b0f5e6aa6",
}


@pytest.mark.parametrize("identity_id", sorted(WIDE_PAIR3))
def test_pair3_above_its_default_grid_matches_its_case_digests(identity_id, monkeypatch, capsys):
    reports = kept_reports(monkeypatch)
    argv = ["verify", "--id", identity_id, "--k", "1..16", "--n", "0..16", "--format", "json"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(reports) == 16 * 17
    joined = "".join(case_digest(report) for report in reports)
    assert hashlib.sha256(joined.encode()).hexdigest() == WIDE_PAIR3[identity_id]


# sha256 of the --format json stdout of lemma7 at k = 15..16, where the
# enumeration walk first branches depth-first; each case's lhs prints the
# determinant first.  Recorded while the determinant ran dividing Fraction
# elimination.
LEMMA7_K15_16 = "f35db0884c6a129a37992a3cdd3aa79bb285f41d30be158ad6863369d7988963"


def test_lemma7_above_its_default_grid_matches_its_digest(capsys):
    argv = ["verify", "--id", "lemma7_roundtrip", "--k", "15..16", "--format", "json"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == LEMMA7_K15_16


# sha256 of the --format json stdout of transform suites over k-spans wider
# than their default grids: recorded while every case computed its own
# transform from k = 1
WIDE_K_SPANS = {
    ("lemma7_roundtrip", "--k 1..16"):
        "99a4cc8fe5408688714b46df494b2c3d15baf8d9feb3b13f13b4a24e508b7f2a",
    ("eq5", "--k 1..20 --n 0..20"):
        "3f8cd6a36760d4cd02956e826dfd3b473b1af312a885bd31748feb948185feeb",
    ("eq42", "--k 1..20 --n 1..20"):
        "34fac440268dee74a5ed319183c94bc3d6a440aaeaa3716711258a2175132481",
    ("pair1_he", "--k 1..20 --samples 3"):
        "f44d3b47280c83fbe6990e40dc2af9fb08584548d61d88313256db797abb9cba",
    ("pair5_eh", "--k 1..16 --samples 2"):
        "91b79652f46a2dc19a45091b6b8e90c7657995d37550a6f544a442820f41346a",
    ("pair4_he", "--k 1..16"):
        "2dcff476a328433f4c9af5376043b7958e2f604cdb1282b34f0de146157aa6eb",
}


@pytest.mark.parametrize("identity_id, options", sorted(WIDE_K_SPANS))
def test_transform_suites_over_wide_k_spans_match_their_digest(identity_id, options, capsys):
    argv = ["verify", "--id", identity_id, *options.split(), "--format", "json"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == WIDE_K_SPANS[identity_id, options]


# sha256 of the stdout of list in both formats: recorded while the
# descriptors were dataclasses and the JSON came from dataclasses.asdict
LIST_STDOUT = {
    "list --format json": "09d82b7ca3ae1ebb7725597fc0f350f25427a711c2b8f0d1f4c04c829970a19d",
    "list": "d2dd0f9569c6195b1afba085230adfc0e3508fed8efdf28cfdecd89e6ca88c84",
}


@pytest.mark.parametrize("argv", sorted(LIST_STDOUT))
def test_list_output_matches_its_digest(argv, capsys):
    assert main(argv.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == LIST_STDOUT[argv]
