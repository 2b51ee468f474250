"""Golden tests for the compident command-line interface."""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from compident.cli import main
from compident.identities import CaseReport, SuiteReport
from compident.stirling import stirling1

# The child `python -m compident` imports this checkout, installed or not.
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def child_env(env: dict | None = None) -> dict:
    pythonpath = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **(env or {})}


def run_cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "compident", *argv],
        capture_output=True,
        text=True,
        env=child_env(env),
        timeout=300,
    )


def test_verify_eq5_grid_json():
    result = run_cli("verify", "--id", "eq5", "--k", "1..8", "--n", "0..8", "--format", "json")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["id"] == "eq5"
    assert payload["cases"] == 72
    assert payload["failed"] == 0
    assert payload["failures"] == []
    assert payload["elapsed_ms"] == 0  # deterministic by default


def test_verify_single_value_span():
    result = run_cli("verify", "--id", "eq5", "--k", "3", "--n", "2", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["cases"] == 1


def test_verify_eq29_pointwise_spans():
    # eq29's only default grid is polynomial mode (k alone); --n selects pointwise mode
    result = run_cli("verify", "--id", "eq29", "--k", "2..5", "--n", "0..3", "--format", "json")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["cases"] == 16 and payload["failed"] == 0


def test_verify_span_flag_outside_params_exits_2():
    result = run_cli("verify", "--id", "eq17", "--n", "0..3")
    assert result.returncode == 2
    assert "do not apply" in result.stderr
    # only the flag that does not apply is named: eq5 takes k
    result = run_cli("verify", "--id", "eq5", "--k", "1..3", "--t", "1..2")
    assert result.returncode == 2
    assert "flag(s) t do not apply" in result.stderr


def test_verify_timings_flag():
    result = run_cli("verify", "--id", "eq17", "--k", "1..3", "--format", "json", "--timings")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["cases"] == 3
    assert isinstance(payload["elapsed_ms"], int)


def test_verify_timings_in_microseconds(monkeypatch, capsys):
    # a suite of ~1 ms reads 0 or 1 in elapsed_ms; elapsed_us resolves it
    import compident.identities as identities

    clock = iter(range(10_000_000, 10**12, 734_567))  # 734,567 ns from start to end
    monkeypatch.setattr(identities.time, "perf_counter_ns", lambda: next(clock))
    argv = ["verify", "--id", "eq13", "--k", "1..2", "--n", "0..1", "--format", "json"]
    assert main(argv + ["--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert (timed["elapsed_ms"], timed["elapsed_us"]) == (0, 734)
    assert type(timed["elapsed_us"]) is int
    assert main(argv) == 0
    default = json.loads(capsys.readouterr().out)
    del timed["elapsed_us"]
    assert default == {**timed, "elapsed_ms": 0}


def test_verify_text_format():
    result = run_cli("verify", "--id", "eq6", "--k", "1..4", "--n", "1..4")
    assert result.returncode == 0
    assert result.stdout.startswith("eq6: ok cases=16 failed=0")


def test_verify_pair_with_seed_and_samples():
    result = run_cli(
        "verify", "--id", "pair5_eh", "--k", "1..6", "--seed", "7",
        "--samples", "5", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["cases"] == 30 and payload["failed"] == 0


def test_verify_reruns_are_byte_identical():
    argv = ("verify", "--id", "pair5_eh", "--k", "1..4", "--seed", "11", "--format", "json")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_explicit_pair_binding():
    result = run_cli(
        "verify", "--id", "pair1_eh", "--k", "1..5", "--a", "7/3", "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["failed"] == 0
    assert payload["cases"] == 5  # pinned binding collapses the sample grid
    result = run_cli(
        "verify", "--id", "pair5_he", "--k", "1..4", "--a", "2", "--b=-1/5",
        "--format", "json",
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["cases"] == 4


# cases at --k 1..4 --samples 3 with no pin, with --a, and with --a and --b:
# a pair runs one sample once every rational it draws is pinned
PINNED_CASE_COUNTS = {
    "pair1": (12, 4, 4),
    "pair2": (12, 4, 4),
    "pair3": (28, 28, 28),
    "pair4": (4, 4, 4),
    "pair5": (12, 12, 4),
}


@pytest.mark.parametrize(
    "identity_id", [f"{label}_{d}" for label in PINNED_CASE_COUNTS for d in ("eh", "he")]
)
def test_verify_pinned_pair_case_counts(identity_id, capsys):
    base = ["verify", "--id", identity_id, "--k", "1..4", "--samples", "3", "--format", "json"]
    counts = []
    for pins in ([], ["--a", "7/3"], ["--a", "7/3", "--b=-1/5"]):
        assert main(base + pins) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 0
        counts.append(payload["cases"])
    assert tuple(counts) == PINNED_CASE_COUNTS[identity_id[:5]]


def test_verify_jobs_flag_output_stable():
    base = run_cli("verify", "--id", "eq13", "--k", "1..8", "--format", "json")
    fanned = run_cli("verify", "--id", "eq13", "--k", "1..8", "--jobs", "4", "--format", "json")
    assert base.returncode == fanned.returncode == 0
    assert base.stdout == fanned.stdout


def test_verify_jobs_below_one_exits_2(capsys):
    assert main(["verify", "--id", "eq5", "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "compident: error: --jobs must be >= 1, got 0\n"


def test_verify_usage_errors_exit_2():
    assert run_cli("verify").returncode == 2
    assert run_cli("verify", "--id", "eq5", "--all").returncode == 2
    assert run_cli("verify", "--id", "nosuch").returncode == 2
    assert run_cli("verify", "--id", "eq5", "--k", "3..1").returncode == 2
    assert run_cli("verify", "--id", "eq5", "--k", "abc").returncode == 2
    assert run_cli("verify", "--id", "eq5", "--x", "1..2").returncode == 2
    assert run_cli("verify", "--all", "--k", "1..3").returncode == 2
    assert run_cli("verify", "--id", "eq5", "--samples", "0").returncode == 2
    result = run_cli("verify", "--id", "nosuch")
    assert "unknown identity" in result.stderr


def test_budget_env_var_is_honored():
    ok = run_cli("verify", "--id", "eq5", "--k", "12..12", "--n", "2..2")
    assert ok.returncode == 0
    refused = run_cli(
        "verify", "--id", "eq5", "--k", "12..12", "--n", "2..2",
        env={"COMPIDENT_BUDGET": "10"},
    )
    assert refused.returncode == 2
    assert "cap" in refused.stderr


@pytest.mark.parametrize(
    "argv",
    [("verify", "--id", "eq5", "--k", "21..21", "--n", "1..1"), ("compositions", "21")],
)
def test_budget_refusal_names_only_the_env_var(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert "COMPIDENT_BUDGET" in result.stderr
    assert "budget=" not in result.stderr


# A suite computes each binding's sides up to the least of its top k and the
# cap, so the first case over the cap runs alone and is refused as it was
# when every case ran alone: same stderr line, exit 2.
@pytest.mark.parametrize("identity_id, span, operation", [
    ("pair1_eh", "1..8", "composition_transform"),
    ("lemma7_roundtrip", "3..9", "transform_by_enumeration"),
])
def test_a_span_over_the_cap_is_refused_at_its_first_case_over_it(identity_id, span, operation):
    result = run_cli("verify", "--id", identity_id, "--k", span, env={"COMPIDENT_BUDGET": "5"})
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"compident: error: {operation}: k=6 is over the cap k<=5 "
        "(set COMPIDENT_BUDGET to lift it)\n"
    )


_TEN_TO_120 = "1" + "0" * 120
_DIGITS_4401 = "1" + "0" * 4400  # built without an int -> str conversion


@pytest.mark.parametrize("argv", [
    # the exact sides at n = 10**120 have more than 4300 digits
    ["verify", "--id", "eq13", "--k", "40..40", "--n", f"{_TEN_TO_120}..{_TEN_TO_120}"],
    ["verify", "--id", "eq38", "--k", "2..2", "--n", f"{_DIGITS_4401}..{_DIGITS_4401}"],
])
def test_values_past_the_int_str_digit_limit(argv, capsys):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert main(argv + ["--format", "json"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    payload = json.loads(line)
    assert payload["cases"] == 1 and payload["failed"] == 0
    if limit is not None:  # the caller's own limit is back
        assert sys.get_int_max_str_digits() == limit


def test_list_command():
    result = run_cli("list", "--format", "json")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 25
    first = json.loads(lines[0])
    assert first["id"] == "eq5"
    assert set(first) == {"id", "statement", "ring", "params", "modes", "domain"}
    text = run_cli("list")
    assert text.returncode == 0
    assert len(text.stdout.splitlines()) == 25


def test_table_stirling():
    result = run_cli("table", "stirling", "--n", "4", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["rows"] == [
        ["1"],
        ["-1", "1"],
        ["2", "-3", "1"],
        ["-6", "11", "-6", "1"],
    ]
    assert run_cli("table", "stirling").returncode == 2


@pytest.mark.parametrize("n", range(1, 13))
def test_table_stirling_streams_the_whole_document(n, capsys):
    rows = [[str(stirling1(m, t)) for t in range(1, m + 1)] for m in range(1, n + 1)]
    assert main(["table", "stirling", "--n", str(n), "--format", "json"]) == 0
    document = {"table": "stirling", "n": n, "rows": rows}
    assert capsys.readouterr().out == json.dumps(document, separators=(",", ":")) + "\n"
    assert main(["table", "stirling", "--n", str(n)]) == 0
    assert capsys.readouterr().out == "".join(" ".join(row) + "\n" for row in rows)


def test_table_bernoulli():
    result = run_cli("table", "bernoulli", "--max", "6", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["values"] == ["1", "-1/2", "1/6", "0", "-1/30", "0", "1/42"]
    assert run_cli("table", "bernoulli").returncode == 2


def test_table_gaussian():
    result = run_cli("table", "gaussian", "--n", "4", "--k", "2", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["coeffs"] == ["1", "1", "2", "1", "1"]
    assert run_cli("table", "gaussian", "--n", "4").returncode == 2


def test_compositions_listing():
    result = run_cli("compositions", "4")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 8
    assert lines[0] == "1,1,1,1"
    assert lines[-1] == "4"
    assert run_cli("compositions", "0").returncode == 2


def test_compositions_budget_refusal():
    result = run_cli("compositions", "25")
    assert result.returncode == 2
    assert "cap" in result.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # compositions 14 prints ~120 KB, more than a pipe holds, so closing the
    # read end after one line always breaks the pipe under the writer
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "compident", "compositions", "14"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"1,1,1,1,1,1,1,1,1,1,1,1,1,1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert err == b""


def test_closed_stdout_in_process_exits_141(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["compositions", "3"]) == 141
    assert main(["verify", "--id", "eq5", "--k", "1..2", "--n", "0..2"]) == 141
    assert capsys.readouterr().err == ""


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("verify", "--help").returncode == 0


def test_failure_exit_code_path(monkeypatch, capsys):
    # No registered identity actually fails, so exercise the exit-1 branch
    # by substituting a failing suite report.
    import compident.cli as cli

    failing = SuiteReport(
        "eq5", 2, 1, [CaseReport("eq5", {"k": "1", "n": "1"}, "1", "2", False)], 3
    )
    monkeypatch.setattr(cli, "verify_range", lambda *args, **kwargs: failing)
    code = main(["verify", "--id", "eq5", "--format", "json"])
    assert code == 1
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["failed"] == 1
    assert payload["failures"][0]["lhs"] == "1"
    code = main(["verify", "--id", "eq5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_internal_error_exits_3(monkeypatch, capsys):
    # An inexact division is a ValueError but a fault of the program, so it
    # must not be reported as a usage error (exit 2).
    import compident.identities as identities
    from compident.poly import InexactDivisionError

    def broken(params, rng):
        raise InexactDivisionError("inexact polynomial division")

    reg = identities._REGISTRY["eq5"]
    monkeypatch.setitem(identities._REGISTRY, "eq5", reg._replace(evaluate=broken))
    code = main(["verify", "--id", "eq5", "--k", "1", "--n", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "compident: internal error: inexact polynomial division\n"


def test_internal_value_error_exits_3(monkeypatch, capsys):
    # only DomainError, UnknownIdentityError and BudgetExceededError are the
    # user's fault; any other ValueError is reported as an internal error
    import compident.identities as identities

    def broken(params, rng):
        raise ValueError("evaluator fault")

    reg = identities._REGISTRY["eq5"]
    monkeypatch.setitem(identities._REGISTRY, "eq5", reg._replace(evaluate=broken))
    assert main(["verify", "--id", "eq5", "--k", "1", "--n", "1"]) == 3
    assert capsys.readouterr().err == "compident: internal error: evaluator fault\n"


@pytest.mark.parametrize("fault", [
    ZeroDivisionError("division by zero"),
    ArithmeticError("graded element has no exact quotient"),
])
def test_internal_fault_of_any_class_exits_3(fault, monkeypatch, capsys):
    # exit 1 means "a case failed", so a fault that is not a ValueError must
    # not escape as a traceback either
    import compident.identities as identities

    def broken(params, rng):
        raise fault

    reg = identities._REGISTRY["eq5"]
    monkeypatch.setitem(identities._REGISTRY, "eq5", reg._replace(evaluate=broken))
    assert main(["verify", "--id", "eq5", "--k", "1", "--n", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"compident: internal error: {fault}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "pair1_eh", "--k", "1", "--a", "x"],
    ["verify", "--id", "pair5_eh", "--k", "1", "--b", "1/0"],
])
def test_user_input_errors_are_domain_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("compident: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("identity_id, pins, note", [
    ("pair3_eh", ["--a", "7/3"], "pair3_eh does not draw --a; ignored"),
    ("pair1_eh", ["--b", "7/3"], "pair1_eh does not draw --b; ignored"),
    ("eq13", ["--a", "1", "--b", "2"], "eq13 does not draw --a, --b; ignored"),
])
def test_ignored_pin_is_noted_on_stderr(identity_id, pins, note, capsys):
    base = ["verify", "--id", identity_id, "--k", "1..3", "--format", "json"]
    assert main(base) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(base + pins) == 0
    pinned = capsys.readouterr()
    assert pinned.out == plain.out
    assert pinned.err == f"compident: note: {note}\n"


def test_drawn_pins_and_all_print_no_note(capsys):
    assert main(["verify", "--id", "pair5_eh", "--k", "1..2", "--a", "2", "--b", "3"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["verify", "--all", "--a", "7/3", "--b=-1/5", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
