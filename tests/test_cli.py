"""Golden tests for the compident command-line interface."""

import json
import os
import subprocess
import sys

from compident.cli import main
from compident.identities import CaseReport, SuiteReport


def run_cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "compident", *argv],
        capture_output=True,
        text=True,
        env=full_env,
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


def test_verify_timings_flag():
    result = run_cli("verify", "--id", "eq17", "--k", "1..3", "--format", "json", "--timings")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["cases"] == 3
    assert isinstance(payload["elapsed_ms"], int)


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


def test_verify_jobs_flag_output_stable():
    base = run_cli("verify", "--id", "eq13", "--k", "1..8", "--format", "json")
    fanned = run_cli("verify", "--id", "eq13", "--k", "1..8", "--jobs", "4", "--format", "json")
    assert base.returncode == fanned.returncode == 0
    assert base.stdout == fanned.stdout


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
    import dataclasses

    import compident.identities as identities
    from compident.poly import InexactDivisionError

    def broken(params, ctx):
        raise InexactDivisionError("inexact polynomial division")

    reg = identities._REGISTRY["eq5"]
    monkeypatch.setitem(identities._REGISTRY, "eq5", dataclasses.replace(reg, evaluate=broken))
    code = main(["verify", "--id", "eq5", "--k", "1", "--n", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "compident: internal error: inexact polynomial division\n"
